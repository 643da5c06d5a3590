from dataclasses import replace

import numpy as np
import pytest

from helpers import TermTally, one_point_score, run_ssvgd_oracle, ssvgd_direction_oracle
from steinlab import (
    DecomposableTarget,
    DivergenceError,
    KernelSpec,
    SampleBatch,
    SvgdConfig,
    draw_subsets,
    gen_logreg_data,
    iid_gaussian,
    make_gaussian,
    make_logreg,
    run_ssvgd,
    sksd,
    ssvgd_direction,
)
from steinlab import discrepancy, kernels, svgd
from steinlab.svgd import ADAGRAD, CONSTANT, MEDIAN_PER_ROUND

IMQ = KernelSpec("imq", beta=-0.5)
RBF = KernelSpec("rbf", bandwidth=1.0)
LOG_INVERSE = KernelSpec("log_inverse", beta=-1.0, alpha=2.0, bandwidth=0.5)


def direct_svgd(init_points, target, spec, step, rounds, schedule=ADAGRAD,
                fudge=1e-6, median_per_round=False):
    """Straightforward full-score SVGD loop used as the reference."""
    X = np.array(init_points, dtype=np.float64)
    n = X.shape[0]
    acc = np.zeros_like(X)
    for _ in range(rounds):
        if median_per_round:
            spec_r = replace(spec, bandwidth=kernels.median_heuristic_bandwidth(
                kernels.squared_distances(X, X)))
        else:
            spec_r = spec
        B = np.empty_like(X)
        for i in range(n):
            B[i] = one_point_score(target.grad_log_full, X[i])
        K, P1, _ = kernels.radial_profile(spec_r, kernels.squared_distances(X, X))
        col = P1.sum(axis=0)
        direction = (K.T @ B + 2.0 * (P1.T @ X - X * col[:, None])) / n
        if schedule == ADAGRAD:
            acc = acc + direction * direction
            X = X + (step / (fudge + np.sqrt(acc))) * direction
        else:
            X = X + step * direction
    return X


def _sq(batch):
    """The particles' squared distances, the direction's distance input."""
    return kernels.squared_distances(batch.points, batch.points)


class TestDirection:
    def test_single_particle_exact_score(self):
        target = make_gaussian(0.0, 1.0, 1)
        batch = SampleBatch(np.array([[2.0]]))
        direction = ssvgd_direction(batch, target, IMQ, _sq(batch), None)
        assert np.array_equal(direction, np.array([[-2.0]]))

    def test_single_particle_repulsion_vanishes(self):
        # At a single point the kernel gradient term is zero, leaving
        # k(x, x) times the scaled subset score.
        target = make_gaussian(0.0, 1.0, 4, dim=2)
        x = np.array([[0.7, -0.3]])
        batch = SampleBatch(x)
        direction = ssvgd_direction(batch, target, IMQ, _sq(batch), np.array([[1, 3]]))
        assert np.array_equal(direction, -x)

    def test_one_constant_round_moves_to_expected_point(self):
        target = make_gaussian(0.0, 1.0, 1)
        config = SvgdConfig(rounds=1, batch=1, kernel=IMQ, step=0.1,
                            schedule=CONSTANT, bandwidth_policy="fixed", seed=0)
        result = run_ssvgd(SampleBatch(np.array([[2.0]])), target, config)
        assert result.final.points[0, 0] == pytest.approx(1.8, rel=1e-15)

    def test_full_batch_direction_matches_exact(self):
        target = make_gaussian(0.0, 1.0, 5, dim=2)
        batch = iid_gaussian(20, 2, 0.0, 1.0, seed=2)
        subsets = draw_subsets(20, 5, 5, seed=3)
        assert np.array_equal(
            ssvgd_direction(batch, target, IMQ, _sq(batch), subsets),
            ssvgd_direction(batch, target, IMQ, _sq(batch), None),
        )

    def test_permutation_synchronicity(self):
        target = make_gaussian(0.0, 1.0, 6, dim=2)
        batch = iid_gaussian(15, 2, 0.0, 1.0, seed=4)
        subsets = draw_subsets(15, 6, 2, seed=5)
        direction = ssvgd_direction(batch, target, IMQ, _sq(batch), subsets)
        rng = np.random.default_rng(6)
        perm = rng.permutation(15)
        shuffled = SampleBatch(batch.points[perm])
        permuted = ssvgd_direction(shuffled, target, IMQ, _sq(shuffled), subsets[perm])
        np.testing.assert_allclose(permuted, direction[perm], rtol=1e-10, atol=1e-13)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_direction_names_particle(self):
        huge = DecomposableTarget(
            dim=1,
            L=1,
            grad_log_prior=lambda x: np.zeros(1),
            terms_sum=lambda subsets, X: np.full(X.shape, 1e308),
        )
        batch = SampleBatch(np.array([[0.0], [0.1]]))
        with pytest.raises(DivergenceError, match="particle"):
            ssvgd_direction(batch, huge, IMQ, _sq(batch), None)

    @pytest.mark.parametrize("n", [1, 2, 50, 257, 600, 255, 256])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("spec", [IMQ, RBF, LOG_INVERSE],
                             ids=["imq", "rbf", "log_inverse"])
    def test_shared_squared_distances_give_same_bits(self, n, d, spec):
        # Row blocks read column slices of one shared n x n matrix.  Up to
        # 256 particles the library computes its one block directly, from
        # 257 on it takes the blocked path; both give the bits of the
        # blocked oracle, at one and two workers, with subset and exact
        # scores, and the dense formula to rounding.
        # test_kernels.TestSquaredDistances checks that the slices have the
        # bits of building each block's distances alone.
        target = _logreg_target(6, d, seed=d)
        batch = iid_gaussian(n, d, 0.3, 1.0, seed=n + d)
        sq = _sq(batch)
        X = batch.points
        for subsets in (draw_subsets(n, 6, 2, seed=5), None):
            got = ssvgd_direction(batch, target, spec, sq, subsets, threads=1)
            assert np.array_equal(
                ssvgd_direction(batch, target, spec, sq, subsets, threads=2), got
            )
            for threads in (1, 2):
                assert np.array_equal(
                    ssvgd_direction_oracle(batch, target, spec, sq, subsets, threads), got
                )
            B = discrepancy.scaled_scores(batch, target, subsets)
            K, P1, _ = kernels.radial_profile(spec, sq)
            dense = (K.T @ B + 2.0 * (P1.T @ X - X * P1.sum(axis=0)[:, None])) / n
            np.testing.assert_allclose(got, dense, rtol=1e-11, atol=1e-14)

    def test_squared_distances_of_wrong_shape_raise(self):
        target = make_gaussian(0.0, 1.0, 6)
        batch = iid_gaussian(5, 1, 0.0, 1.0, seed=1)
        for shape in ((5, 4), (4, 5), (25,), (5, 5, 1)):
            with pytest.raises(ValueError, match=rf"shape \({shape[0]},"):
                ssvgd_direction(batch, target, IMQ, np.zeros(shape), None)
        with pytest.raises(ValueError, match=r"shape \(1, 5\)"):
            ssvgd_direction(batch, target, IMQ, [[0.0] * 5], None)
        # A nested list of the right shape is read as the matrix.
        assert np.array_equal(ssvgd_direction(batch, target, IMQ, _sq(batch).tolist()),
                              ssvgd_direction(batch, target, IMQ, _sq(batch)))


def _logreg_target(L, d, seed):
    # Term scores differ from term to term, so a wrong subset changes the
    # bits of a round (the Gaussian target's do not).
    X, y = gen_logreg_data(L, d, np.linspace(-1.0, 1.0, d), seed)
    return make_logreg(X, y)


def _assert_same_run(got, want):
    assert np.array_equal(got.final.points, want.final.points)
    assert got.term_evals == want.term_evals
    assert len(got.checkpoints) == len(want.checkpoints)
    for (r_got, x_got, e_got), (r_want, x_want, e_want) in zip(
        got.checkpoints, want.checkpoints
    ):
        assert (r_got, e_got) == (r_want, e_want)
        assert np.array_equal(x_got, x_want)


class TestChunkedRounds:
    """``run_ssvgd`` draws the subsets of several rounds at once and shares
    one squared-distance matrix per round; every result must equal, bit for
    bit, the one-round-at-a-time loop ``helpers.run_ssvgd_oracle``."""

    @pytest.mark.parametrize("policy", ["fixed", MEDIAN_PER_ROUND])
    @pytest.mark.parametrize("full_batch", [False, True], ids=["subset", "full"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [2, 50, 257, 600])
    def test_matches_one_round_oracle(self, n, d, full_batch, policy):
        # A large L at n = 2 keeps its chunks short; the rounds run one
        # full chunk and three rounds into the next.
        L = 2048 if n == 2 else 20
        chunk_rounds = max(1, svgd.SUBSET_POOL_ENTRIES // (n * L))
        rounds = chunk_rounds + 3
        target = _logreg_target(L, d, seed=n + d)
        init = iid_gaussian(n, d, 0.2, 0.5, seed=n)
        spec = RBF if policy == MEDIAN_PER_ROUND else IMQ
        config = SvgdConfig(rounds=rounds, batch=L if full_batch else 3,
                            kernel=spec, step=0.05, bandwidth_policy=policy,
                            seed=n * d, checkpoint_every=2)
        want = run_ssvgd_oracle(init, target, config)
        for threads in (1, 2):
            _assert_same_run(run_ssvgd(init, target, config, threads=threads), want)

    @pytest.mark.parametrize("pool_rounds", [1, 2, 3, 7])
    @pytest.mark.parametrize("rounds", [1, 6, 7, 8, 21])
    def test_chunk_boundaries(self, monkeypatch, pool_rounds, rounds):
        # Chunks of pool_rounds rounds: round counts on, just before and
        # just after a boundary, and shorter than one chunk.
        n, L = 9, 11
        monkeypatch.setattr(svgd, "SUBSET_POOL_ENTRIES", pool_rounds * n * L)
        target = _logreg_target(L, 2, seed=3)
        init = iid_gaussian(n, 2, 0.0, 1.0, seed=4)
        config = SvgdConfig(rounds=rounds, batch=4, kernel=RBF,
                            bandwidth_policy=MEDIAN_PER_ROUND, seed=5,
                            checkpoint_every=1)
        _assert_same_run(run_ssvgd(init, target, config),
                         run_ssvgd_oracle(init, target, config))

    def test_draws_per_chunk(self, monkeypatch):
        calls = []
        draw = svgd.uniform_subsets

        def counting_draw(gen, count, pool_size, subset_size):
            calls.append(count)
            return draw(gen, count, pool_size, subset_size)

        monkeypatch.setattr(svgd, "uniform_subsets", counting_draw)
        n, L = 50, 20
        target = make_gaussian(0.0, 1.0, L)
        init = iid_gaussian(n, 1, 0.0, 1.0, seed=1)
        run_ssvgd(init, target, SvgdConfig(rounds=70, batch=5, kernel=RBF, seed=2))
        # 2**15 // (50 * 20) = 32 rounds per draw, each draw at most 256 KiB.
        assert calls == [32 * n, 32 * n, 6 * n]
        assert max(calls) * L * 8 <= 256 * 1024
        calls.clear()
        run_ssvgd(init, target, SvgdConfig(rounds=70, batch=L, kernel=RBF, seed=2))
        assert calls == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_divergence_raises_the_oracles_error(self, monkeypatch, threads):
        # Every term pushes up by 1 and the particles start together, so
        # they stay together and run off to infinity in steps of about
        # step * L; with chunks of 2 rounds the run diverges in a later
        # chunk.
        n, L = 3, 4
        monkeypatch.setattr(svgd, "SUBSET_POOL_ENTRIES", 2 * n * L)
        push = DecomposableTarget(
            dim=1,
            L=L,
            grad_log_prior=lambda x: np.zeros(1),
            terms_sum=lambda subsets, X: np.full(X.shape, float(subsets.shape[1])),
        )
        init = SampleBatch(np.zeros((n, 1)))
        # At bandwidth 4 the imq profile at distance 0 is P1 = -1/8, so
        # P1^T X is exact and stays finite until X itself overflows.
        wide = KernelSpec("imq", beta=-0.5, bandwidth=4.0)
        config = SvgdConfig(rounds=60, batch=2, kernel=wide, step=1e306,
                            schedule=CONSTANT, bandwidth_policy="fixed", seed=0)
        with pytest.raises(DivergenceError) as want:
            run_ssvgd_oracle(init, push, config, threads=threads)
        with pytest.raises(DivergenceError) as got:
            run_ssvgd(init, push, config, threads=threads)
        assert got.value.step == want.value.step
        assert str(got.value) == str(want.value)
        assert "round" in str(got.value) and got.value.step > 2


class TestRunSsvgd:
    def test_zero_rounds_returns_init(self):
        target = make_gaussian(0.0, 1.0, 3)
        init = iid_gaussian(8, 1, 0.0, 1.0, seed=1)
        config = SvgdConfig(rounds=0, batch=1, kernel=IMQ, seed=2)
        result = run_ssvgd(init, target, config)
        assert np.array_equal(result.final.points, init.points)
        assert result.term_evals == 0

    def test_full_batch_matches_direct_svgd_bitwise(self):
        target = make_gaussian(0.0, 1.0, 5, dim=2)
        init = iid_gaussian(30, 2, 0.5, 1.0, seed=7)
        config = SvgdConfig(rounds=40, batch=5, kernel=IMQ, step=0.05,
                            schedule=ADAGRAD, bandwidth_policy="fixed", seed=11)
        result = run_ssvgd(init, target, config)
        reference = direct_svgd(init.points, target, IMQ, 0.05, 40)
        assert np.array_equal(result.final.points, reference)

    def test_equal_factor_trajectories_coincide_dyadic(self):
        # L / m = 4 is a power of two, so the scaled subset score is the full
        # score to the last bit and all three runs agree exactly.
        target = make_gaussian(0.0, 1.0, 20)
        init = iid_gaussian(25, 1, 0.5, 0.5, seed=3)
        base = dict(rounds=30, kernel=RBF, step=0.05, schedule=ADAGRAD,
                    bandwidth_policy=MEDIAN_PER_ROUND, seed=17)
        sub = run_ssvgd(init, target,
                        SvgdConfig(batch=5, **base))
        full = run_ssvgd(init, target,
                         SvgdConfig(batch=20, **base))
        reference = direct_svgd(init.points, target, RBF,
                                0.05, 30, median_per_round=True)
        assert np.array_equal(sub.final.points, full.final.points)
        assert np.array_equal(sub.final.points, reference)

    def test_equal_factor_trajectories_non_dyadic(self):
        # L / m = 7 / 3 is not a power of two; agreement holds to rounding.
        target = make_gaussian(0.0, 1.0, 7)
        init = iid_gaussian(12, 1, 0.5, 0.5, seed=9)
        config = SvgdConfig(rounds=25, batch=3, kernel=IMQ, step=0.05,
                            schedule=ADAGRAD, bandwidth_policy="fixed", seed=13)
        result = run_ssvgd(init, target, config)
        reference = direct_svgd(init.points, target, IMQ,
                                0.05, 25)
        np.testing.assert_allclose(result.final.points, reference, rtol=1e-12)

    @pytest.mark.parametrize("policy", ["fixed", MEDIAN_PER_ROUND])
    def test_one_squared_distance_matrix_per_round(self, monkeypatch, policy):
        shapes = []
        build = kernels.squared_distances

        def recording_build(X, Y):
            shapes.append((len(X), len(Y)))
            return build(X, Y)

        monkeypatch.setattr(kernels, "squared_distances", recording_build)
        n, rounds = 7, 5
        target = make_gaussian(0.0, 1.0, 6)
        init = iid_gaussian(n, 1, 0.0, 1.0, seed=3)
        config = SvgdConfig(rounds=rounds, batch=2, kernel=RBF,
                            bandwidth_policy=policy, seed=4)
        run_ssvgd(init, target, config)
        assert shapes == [(n, n)] * rounds
        shapes.clear()
        ssvgd_direction(init, target, RBF, build(init.points, init.points))
        assert shapes == []

    @pytest.mark.parametrize("policy", ["fixed", MEDIAN_PER_ROUND])
    def test_rounds_build_no_wrappers(self, monkeypatch, policy):
        # A round builds no KernelSpec and no SampleBatch: the run's count
        # of each does not grow with its rounds.
        built = []
        for cls in (KernelSpec, SampleBatch):
            check = cls.__post_init__

            def counted(self, check=check):
                built.append(type(self).__name__)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        target = _logreg_target(10, 2, seed=1)
        init = iid_gaussian(12, 2, 0.0, 1.0, seed=2)
        counts = []
        for rounds in (5, 50):
            config = SvgdConfig(rounds=rounds, batch=3, kernel=RBF,
                                bandwidth_policy=policy, seed=3, checkpoint_every=1)
            built.clear()
            run_ssvgd(init, target, config)
            counts.append(sorted(built))
        assert counts[0] == counts[1]

    def test_per_round_cost(self):
        tally = TermTally(make_gaussian(0.0, 1.0, 9))
        init = iid_gaussian(14, 1, 0.0, 1.0, seed=5)
        config = SvgdConfig(rounds=6, batch=4, kernel=IMQ,
                            bandwidth_policy="fixed", seed=1)
        result = run_ssvgd(init, tally.target, config)
        assert result.term_evals == 6 * 14 * 4
        assert tally.value == result.term_evals

    def test_checkpoint_cadence(self):
        target = make_gaussian(0.0, 1.0, 4)
        init = iid_gaussian(6, 1, 0.0, 1.0, seed=8)
        config = SvgdConfig(rounds=25, batch=2, kernel=IMQ,
                            bandwidth_policy="fixed", seed=4,
                            checkpoint_every=10)
        result = run_ssvgd(init, target, config)
        rounds = [entry[0] for entry in result.checkpoints]
        assert rounds == [10, 20]
        assert result.checkpoints[0][2] == 10 * 6 * 2
        assert result.checkpoints[0][1].shape == (6, 1)

    def test_recorded_seeds_regenerate_assignments(self, monkeypatch):
        # The config seed regenerates, through draw_subsets, every subset an
        # SSVGD run scored with: its rounds continue one stream, so they are
        # the rows of one draw for all rounds.  An sksd result's recorded
        # (n, L, m, seed) regenerates its own subsets the same way.
        seen = []
        scores = discrepancy.scaled_scores

        def recording_scores(batch, target, subsets=None):
            if subsets is not None:
                seen.append(subsets)
            return scores(batch, target, subsets)

        monkeypatch.setattr(svgd, "scaled_scores", recording_scores)
        monkeypatch.setattr(discrepancy, "scaled_scores", recording_scores)
        target = make_gaussian(0.0, 1.0, 8)
        init = iid_gaussian(10, 1, 0.0, 1.0, seed=6)
        run_ssvgd(init, target, SvgdConfig(rounds=4, batch=3, kernel=IMQ,
                                           bandwidth_policy="fixed", seed=21))
        result = sksd(init, target, IMQ, m=3, seed=21)
        assert len(seen) == 5
        again = draw_subsets(4 * 10, 8, 3, 21)
        assert np.array_equal(np.concatenate(seen[:4]), again)
        again = draw_subsets(result.n, result.L, result.m, result.seed)
        assert np.array_equal(again, seen[4])

    def test_seeded_determinism_and_worker_independence(self):
        target = make_gaussian(0.0, 1.0, 8)
        init = iid_gaussian(10, 1, 0.0, 1.0, seed=6)
        config = SvgdConfig(rounds=15, batch=2, kernel=IMQ,
                            bandwidth_policy="fixed", seed=21)
        a = run_ssvgd(init, target, config, threads=1)
        b = run_ssvgd(init, target, config, threads=8)
        assert np.array_equal(a.final.points, b.final.points)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_error_names_round(self):
        # Bounded scores, but a step so large the position update overflows.
        constant_push = DecomposableTarget(
            dim=1,
            L=1,
            grad_log_prior=lambda x: np.zeros(1),
            terms_sum=lambda subsets, X: np.full(X.shape, 100.0),
        )
        init = SampleBatch(np.array([[1.0], [2.0]]))
        config = SvgdConfig(rounds=10, batch=1, kernel=IMQ, step=1e308,
                            schedule=CONSTANT, bandwidth_policy="fixed", seed=0)
        with pytest.raises(DivergenceError) as err:
            run_ssvgd(init, constant_push, config)
        assert err.value.step == 0

    def test_batch_exceeding_terms(self):
        target = make_gaussian(0.0, 1.0, 2)
        init = iid_gaussian(4, 1, 0.0, 1.0, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            run_ssvgd(init, target, SvgdConfig(rounds=1, batch=3, kernel=IMQ, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SvgdConfig(rounds=-1, batch=1, kernel=IMQ)
        with pytest.raises(ValueError):
            SvgdConfig(rounds=1, batch=1, kernel=IMQ, schedule="nesterov")
        with pytest.raises(ValueError):
            SvgdConfig(rounds=1, batch=1, kernel=IMQ, bandwidth_policy="weekly")
        # A policy of None is resolved on construction, from the kernel.
        assert SvgdConfig(rounds=1, batch=1, kernel=RBF).bandwidth_policy \
            == MEDIAN_PER_ROUND
        assert SvgdConfig(rounds=1, batch=1, kernel=IMQ).bandwidth_policy == "fixed"
        assert SvgdConfig(rounds=1, batch=1, kernel=RBF,
                          bandwidth_policy="fixed").bandwidth_policy == "fixed"

    @pytest.mark.parametrize("fudge", [0.0, -1.0, float("nan")])
    def test_fudge_must_be_positive(self, fudge):
        # The AdaGrad step is step / (fudge + sqrt(acc)): a fudge <= 0 makes
        # it negative or infinite.
        with pytest.raises(ValueError, match="fudge"):
            SvgdConfig(rounds=1, batch=1, kernel=IMQ, fudge=fudge)
