import math
import tracemalloc

import numpy as np
import pytest

from helpers import TermTally, sgld_chain_oracle, uniform_subset, uniform_subsets_oracle
from steinlab import (
    DecomposableTarget,
    DivergenceError,
    NonFiniteScoreError,
    SampleBatch,
    SgldConfig,
    SgldSweep,
    gen_gmm_data,
    gen_logreg_data,
    iid_gaussian,
    make_gaussian,
    make_gmm_posterior,
    make_logreg,
    sgld_chain,
)
from steinlab import rng, samplers
from steinlab.discrepancy import draw_subsets
from steinlab.rng import make_generator, subsets_from_uniforms, uniform_subsets


def _std_normal_target(L=10):
    return make_gaussian(0.0, 1.0, L)


class TestSgldConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step": 0.0, "batch": 1, "steps": 10, "init": 0.0, "seed": 0},
            {"step": 0.1, "batch": 0, "steps": 10, "init": 0.0, "seed": 0},
            {"step": 0.1, "batch": 1, "steps": 0, "init": 0.0, "seed": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SgldConfig(**kwargs)

    def test_infinite_step_raises(self):
        with pytest.raises(ValueError, match=r"^step = inf is not finite$"):
            SgldConfig(step=math.inf, batch=1, steps=10, init=0.0, seed=0)

    @pytest.mark.parametrize("field", ["batch", "steps"])
    @pytest.mark.parametrize("value", [True, 2.0, 2.5, "2", math.nan, math.inf, -math.inf])
    def test_non_integer_batch_or_steps_raises(self, field, value):
        kwargs = dict(step=0.1, batch=1, steps=10, init=0.0, seed=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=rf"^{field} = .* is not an integer$"):
            SgldConfig(**kwargs)

    def test_numpy_integers_are_accepted(self):
        config = SgldConfig(step=0.1, batch=np.int64(2), steps=np.int32(5),
                            init=0.0, seed=0)
        assert sgld_chain(_std_normal_target(), config).points.shape == (5, 1)

    @pytest.mark.parametrize("init", [math.nan, [0.0, math.inf], [-math.inf, 1.0]])
    def test_non_finite_init_raises_before_stepping(self, init):
        # It used to step once, with numpy warnings, and then report a
        # divergence at step 0.
        tally = TermTally(make_gaussian(0.0, 1.0, 4, dim=2))
        config = SgldConfig(step=0.1, batch=2, steps=10, init=init, seed=0)
        with pytest.raises(ValueError, match=r"^init = \[.*\] is not finite$"):
            sgld_chain(tally.target, config)
        good = SgldConfig(step=0.1, batch=2, steps=10, init=0.0, seed=1)
        with pytest.raises(ValueError, match=r"^init = \[.*\] is not finite$"):
            sgld_chain(tally.target, SgldSweep([good, config]))
        assert tally.value == 0


class TestSgldChain:
    def test_seeded_determinism(self):
        cfg = SgldConfig(step=1e-2, batch=3, steps=200, init=0.0, seed=12)
        target = _std_normal_target()
        a = sgld_chain(target, cfg)
        b = sgld_chain(target, cfg)
        assert np.array_equal(a.points, b.points)

    def test_shape_and_finiteness(self):
        target = make_gaussian([0.0, 1.0], [1.0, 2.0], 5)
        chain = sgld_chain(
            target, SgldConfig(step=1e-2, batch=2, steps=123, init=[0.0, 0.0], seed=3)
        )
        assert chain.points.shape == (123, 2)
        assert np.all(np.isfinite(chain.points))

    def test_eval_accounting(self):
        tally = TermTally(_std_normal_target(L=7))
        sgld_chain(tally.target, SgldConfig(step=1e-3, batch=4, steps=50, init=0.0, seed=2))
        assert tally.value == 50 * 4

    def test_tiny_step_keeps_iterates_near_start(self):
        # drift <= 10 * eps / 2 plus noise of magnitude about sqrt(10 * eps)
        target = _std_normal_target(L=1)
        chain = sgld_chain(
            target, SgldConfig(step=1e-6, batch=1, steps=10, init=0.0, seed=4)
        )
        assert np.all(np.abs(chain.points) < 0.01)

    def test_long_full_batch_chain_mean(self):
        target = _std_normal_target(L=2)
        chain = sgld_chain(
            target, SgldConfig(step=1e-2, batch=2, steps=100_000, init=0.0, seed=5)
        )
        assert abs(chain.points.mean()) < 0.05

    def test_large_step_overdisperses(self):
        target = _std_normal_target(L=2)
        chain = sgld_chain(
            target, SgldConfig(step=0.5, batch=2, steps=100_000, init=0.0, seed=6)
        )
        assert chain.points.var() > 1.1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_error_names_step(self):
        # Bounded scores but a step so large the drift overflows the iterate.
        constant_push = DecomposableTarget(
            dim=1,
            L=1,
            grad_log_prior=lambda x: np.zeros(1),
            terms_sum=lambda subsets, X: np.full(X.shape, 100.0),
        )
        with pytest.raises(DivergenceError) as err:
            sgld_chain(
                constant_push,
                SgldConfig(step=1e308, batch=1, steps=50, init=1.0, seed=0),
            )
        assert err.value.step == 0
        assert "step size" in str(err.value)

    def test_batch_larger_than_terms(self):
        with pytest.raises(ValueError, match="exceeds"):
            sgld_chain(
                _std_normal_target(L=2),
                SgldConfig(step=1e-2, batch=3, steps=5, init=0.0, seed=0),
            )

    def test_minibatch_stream_independent_of_scoring(self):
        # Same chain seed, different scoring activity elsewhere: chains match.
        cfg = SgldConfig(step=1e-2, batch=1, steps=100, init=0.0, seed=99)
        first = sgld_chain(_std_normal_target(), cfg)
        other = _std_normal_target()
        other.grad_log_full(np.zeros((1, 1)))
        second = sgld_chain(other, cfg)
        assert np.array_equal(first.points, second.points)


def _sweep_target(kind, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return make_gaussian(rng.standard_normal(d), rng.uniform(0.5, 2.0, d), 12)
    if kind == "gmm":
        assert d == 2
        return make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 30, seed))
    X, y = gen_logreg_data(40, d, rng.standard_normal(d), seed)
    return make_logreg(X, y)


def _oracle_outcome(target, config):
    try:
        return sgld_chain_oracle(target, config)
    except DivergenceError as err:
        return err


def _assert_matches_oracle(target, configs, results):
    assert len(results) == len(configs)
    for config, got in zip(configs, results):
        want = _oracle_outcome(target, config)
        if isinstance(want, DivergenceError):
            assert isinstance(got, DivergenceError), config
            assert got.step == want.step
            assert type(got.__cause__) is type(want.__cause__)
        else:
            assert isinstance(got, SampleBatch), config
            assert np.array_equal(got.points, want.points)


class TestSgldSweep:
    """Every chain of a lockstep sweep is bit-identical to the chain stepped
    alone (``helpers.sgld_chain_oracle``)."""

    @pytest.mark.parametrize("chains", [1, 2, 7])
    @pytest.mark.parametrize("kind, d", [
        ("gaussian", 1), ("gaussian", 2), ("gaussian", 9), ("gmm", 2),
        ("logreg", 1), ("logreg", 2), ("logreg", 9),
    ])
    def test_chains_match_oracle(self, kind, d, chains):
        target = _sweep_target(kind, d, seed=d + 10 * chains)
        rng = np.random.default_rng(chains)
        configs = [
            SgldConfig(
                step=float(rng.choice([1e-3, 5e-3, 2e-2, 1e-1])),
                batch=3,
                steps=120,
                init=rng.standard_normal(d),
                seed=int(rng.integers(2**32)),
            )
            for _ in range(chains)
        ]
        _assert_matches_oracle(
            target, configs, sgld_chain(target, SgldSweep(configs))
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind, cause", [
        ("gaussian", type(None)), ("gmm", NonFiniteScoreError),
    ], ids=["iterate-overflow", "non-finite-score"])
    def test_rows_diverge_mid_sweep(self, kind, cause):
        # Gaussian scores stay finite, so huge steps overflow the iterate;
        # the mixture's scores turn NaN first, once (x - y)^2 overflows.
        target = _sweep_target(kind, 2, seed=3)
        steps = [1e-2, 1e3, 5e-3, 1e3, 1e-2, 50.0]
        configs = [
            SgldConfig(step=eps, batch=4, steps=300, init=0.0, seed=40 + i)
            for i, eps in enumerate(steps)
        ]
        results = sgld_chain(target, SgldSweep(configs))
        _assert_matches_oracle(target, configs, results)
        diverged = [r for r in results if isinstance(r, DivergenceError)]
        assert len(diverged) == 3
        assert all(0 < r.step < 299 and type(r.__cause__) is cause for r in diverged)
        assert diverged == results[1::2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rows_with_non_finite_scores_at_the_same_step(self):
        # Two starts so far out that the first score is NaN: both rows leave
        # at step 0 and the remaining row is re-scored and carries on.
        target = _sweep_target("gmm", 2, seed=5)
        configs = [
            SgldConfig(step=1e-3, batch=5, steps=50, init=init, seed=i)
            for i, init in enumerate([1e200, 0.0, -1e200])
        ]
        results = sgld_chain(target, SgldSweep(configs))
        _assert_matches_oracle(target, configs, results)
        assert [r.step for r in results[::2]] == [0, 0]
        assert "non-finite score" in str(results[0])
        with pytest.raises(DivergenceError) as err:
            sgld_chain(target, configs[0])
        assert err.value.step == 0
        assert isinstance(err.value.__cause__, NonFiniteScoreError)

    def test_non_finite_term_is_named(self):
        # Every term pushes x up by 1; term 3 turns infinite past x = 5.  The
        # fast chain crosses 5 and leaves when its minibatch holds term 3;
        # the slow chain stays below 5.
        def terms_sum(subsets, X):
            hit = np.any(subsets == 3, axis=1)[:, None] & (X > 5.0)
            return np.where(hit, np.inf, float(subsets.shape[1]))

        target = DecomposableTarget(
            dim=1,
            L=5,
            grad_log_prior=lambda x: np.zeros(1),
            terms_sum=terms_sum,
        )
        configs = [
            SgldConfig(step=step, batch=2, steps=40, init=0.0, seed=i)
            for i, step in enumerate([1e-4, 1.0])
        ]
        results = sgld_chain(target, SgldSweep(configs))
        _assert_matches_oracle(target, configs, results)
        assert isinstance(results[0], SampleBatch)
        diverged = results[1]
        assert isinstance(diverged, DivergenceError) and diverged.step > 0
        cause = diverged.__cause__
        assert isinstance(cause, NonFiniteScoreError)
        assert cause.term_index == 3 and cause.point_index == 1
        assert "likelihood term 3 at point 1" in str(diverged)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_row_diverges(self):
        target = _sweep_target("gmm", 2, seed=5)
        configs = [
            SgldConfig(step=1e-3, batch=5, steps=50, init=1e200, seed=i)
            for i in range(3)
        ]
        results = sgld_chain(target, SgldSweep(configs))
        assert [r.step for r in results] == [0, 0, 0]

    @pytest.mark.parametrize("field", ["batch", "steps"])
    def test_chains_share_batch_and_steps(self, field):
        base = dict(step=1e-2, batch=2, steps=10, init=0.0, seed=0)
        other = dict(base, **{field: base[field] + 1})
        with pytest.raises(ValueError, match="share batch and steps"):
            SgldSweep([SgldConfig(**base), SgldConfig(**other)])
        with pytest.raises(ValueError, match="at least one chain"):
            SgldSweep([])

    def test_eval_count_and_total_steps(self):
        tally = TermTally(_sweep_target("logreg", 2, seed=1))
        sweep = SgldSweep(
            SgldConfig(step=1e-2, batch=3, steps=25, init=0.0, seed=i)
            for i in range(4)
        )
        assert sweep.steps == 4 * 25
        results = sgld_chain(tally.target, sweep)
        assert all(isinstance(r, SampleBatch) for r in results)
        assert tally.value == 4 * 25 * 3

    def test_batch_larger_than_terms(self):
        sweep = SgldSweep(
            [SgldConfig(step=1e-2, batch=13, steps=5, init=0.0, seed=0)]
        )
        with pytest.raises(ValueError, match="exceeds"):
            sgld_chain(_sweep_target("gaussian", 1, seed=0), sweep)


class TestChunkedSweep:
    """A sweep reads each chain's stream a chunk of steps ahead, with at
    most ``SUBSET_POOL_ENTRIES`` minibatch entries per chunk; every chain
    must still be bit-identical to ``helpers.sgld_chain_oracle``."""

    @staticmethod
    def _count_draws(monkeypatch):
        rows = []
        swaps = samplers.subsets_from_uniforms

        def counting_swaps(u, pool_size):
            rows.append(u.shape[0])
            return swaps(u, pool_size)

        monkeypatch.setattr(samplers, "subsets_from_uniforms", counting_swaps)
        return rows

    @pytest.mark.parametrize("chains", [1, 6])
    @pytest.mark.parametrize("chunk_steps, steps", [
        (1, 4), (4, 12), (4, 13), (5, 23), (7, 3), (40, 120),
    ])
    def test_chunks_match_oracle(self, monkeypatch, chains, chunk_steps, steps):
        # Several chunks, chunks that end the sweep partway, and a chunk
        # longer than the sweep.
        batch = 3
        monkeypatch.setattr(samplers, "SUBSET_POOL_ENTRIES", chains * chunk_steps * batch)
        rows = self._count_draws(monkeypatch)
        target = _sweep_target("gmm", 2, seed=chains + steps)
        rng = np.random.default_rng(steps)
        configs = [
            SgldConfig(step=float(rng.choice([1e-3, 2e-2, 1e-1])), batch=batch,
                       steps=steps, init=rng.standard_normal(2), seed=100 + i)
            for i in range(chains)
        ]
        _assert_matches_oracle(target, configs, sgld_chain(target, SgldSweep(configs)))
        lengths = [chunk_steps] * (steps // chunk_steps) + [steps % chunk_steps] * (
            steps % chunk_steps > 0
        )
        assert rows == [chains * n for n in lengths]

    def test_one_step_per_chunk_at_least(self, monkeypatch):
        monkeypatch.setattr(samplers, "SUBSET_POOL_ENTRIES", 1)
        rows = self._count_draws(monkeypatch)
        target = _sweep_target("logreg", 9, seed=2)
        configs = [SgldConfig(step=1e-2, batch=4, steps=6, init=0.0, seed=i)
                   for i in range(2)]
        _assert_matches_oracle(target, configs, sgld_chain(target, SgldSweep(configs)))
        assert rows == [2] * 6

    def test_chunk_bound_counts_the_noise(self, monkeypatch):
        # At d = 9 > batch = 4 a step draws 9 noise entries per chain, and
        # 2 chains * 9 entries * 3 steps fill a 54-entry chunk.
        monkeypatch.setattr(samplers, "SUBSET_POOL_ENTRIES", 54)
        rows = self._count_draws(monkeypatch)
        target = _sweep_target("logreg", 9, seed=3)
        configs = [SgldConfig(step=1e-2, batch=4, steps=7, init=0.0, seed=i)
                   for i in range(2)]
        _assert_matches_oracle(target, configs, sgld_chain(target, SgldSweep(configs)))
        assert rows == [6, 6, 2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind, cause", [
        ("gaussian", type(None)), ("gmm", NonFiniteScoreError),
    ], ids=["iterate-overflow", "non-finite-score"])
    def test_divergence_inside_a_chunk(self, monkeypatch, kind, cause):
        # Chunks of 7 steps; the diverging chains leave partway through a
        # chunk, and the next chunk draws for the remaining chains only.
        chunk_steps, batch = 7, 4
        monkeypatch.setattr(samplers, "SUBSET_POOL_ENTRIES", 6 * chunk_steps * batch)
        rows = self._count_draws(monkeypatch)
        target = _sweep_target(kind, 2, seed=3)
        steps = [1e-2, 1e3, 5e-3, 1e3, 1e-2, 50.0]
        configs = [
            SgldConfig(step=eps, batch=batch, steps=300, init=0.0, seed=40 + i)
            for i, eps in enumerate(steps)
        ]
        results = sgld_chain(target, SgldSweep(configs))
        _assert_matches_oracle(target, configs, results)
        diverged = [r for r in results if isinstance(r, DivergenceError)]
        assert diverged == results[1::2]
        assert all(type(r.__cause__) is cause for r in diverged)
        assert any(r.step % chunk_steps not in (0, chunk_steps - 1) for r in diverged)
        # Each chunk draws for the chains still running when it starts.
        running = [sum(r.step >= t for r in diverged) + 3
                   for t in range(0, 300, chunk_steps)]
        starts = range(0, 300, chunk_steps)
        assert rows == [k * min(chunk_steps, 300 - t) for t, k in zip(starts, running)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_draw_memory_is_bounded_by_the_chunk(self):
        # 60 chains of 20000 steps with minibatches of 100 would draw
        # 60 * 20000 * 100 uniforms, 960 MB, if all steps were drawn at
        # once.  Steps of 10 on a unit Gaussian grow each iterate about
        # fourfold, so the chains run past 400 steps, about 80 chunks of
        # 5 steps, then all overflow; the result holds 9.6 MB.
        target = make_gaussian(0.0, 1.0, 200)
        sweep = SgldSweep(
            SgldConfig(step=10.0, batch=100, steps=20_000, init=1.0, seed=i)
            for i in range(60)
        )
        result_bytes = 60 * 20_000 * 8
        tracemalloc.start()
        try:
            results = sgld_chain(target, sweep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(isinstance(r, DivergenceError) and r.step > 400 for r in results)
        assert peak <= result_bytes + 2 * 2 ** 20


class TestUniformSubset:
    @pytest.mark.parametrize(
        "pool_size, subset_size",
        [(1, 1), (2, 1), (7, 7), (100, 10), (100, 100), (1000, 37)],
    )
    def test_matches_one_row_of_uniform_subsets(self, pool_size, subset_size):
        # Same draws, same result, and the stream ends in the same state.
        for seed in range(50):
            one = make_generator(seed)
            rows = make_generator(seed)
            got = uniform_subset(one, pool_size, subset_size)
            want = uniform_subsets(rows, 1, pool_size, subset_size)[0]
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
            assert one.random() == rows.random()

    @pytest.mark.parametrize("count", [1, 3, 50])
    @pytest.mark.parametrize("pool_size", [1, 7, 100])
    def test_full_pool_matches_per_row_draws(self, count, pool_size):
        # Every row is the whole pool, and the stream still advances by
        # count * pool_size draws, as row-by-row draws on a twin do.
        for seed in range(5):
            rows = make_generator(seed)
            twin = make_generator(seed)
            got = uniform_subsets(rows, count, pool_size, pool_size)
            want = np.stack([uniform_subset(twin, pool_size, pool_size)
                             for _ in range(count)])
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert np.array_equal(rows.random(8), twin.random(8))

    @pytest.mark.parametrize("count, pool_size, subset_size", [
        (1, 1, 1), (5, 7, 7), (50, 20, 5), (300, 200, 100), (3001, 50, 49),
    ])
    def test_swaps_of_drawn_uniforms_match_uniform_subsets(self, count, pool_size,
                                                           subset_size):
        # The swap step alone, on uniforms drawn by hand, gives the subsets
        # of the full draw, and the stream ends in the same state.
        for seed in range(5):
            gen = make_generator(seed)
            twin = make_generator(seed)
            got = subsets_from_uniforms(gen.random((count, subset_size)), pool_size)
            want = uniform_subsets(twin, count, pool_size, subset_size)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert np.array_equal(gen.random(3), twin.random(3))

    @pytest.mark.parametrize(
        "count, pool_size, subset_size",
        [(1, 1, 1), (1, 2, 1), (1, 7, 6), (1, 7, 7), (1, 1000, 37), (2, 2, 1),
         (3, 7, 6), (5, 1, 1), (8, 9, 8), (8, 9, 9), (50, 20, 1), (50, 20, 5),
         (50, 20, 19), (50, 20, 20), (100, 30, 1), (1000, 100, 10),
         (1600, 20, 5), (257, 3, 2)],
    )
    def test_matches_step_by_step_oracle(self, count, pool_size, subset_size):
        # Same subsets, and the next draw from the stream is the same too.
        for seed in range(20):
            gen = make_generator(seed)
            twin = make_generator(seed)
            got = uniform_subsets(gen, count, pool_size, subset_size)
            want = uniform_subsets_oracle(twin, count, pool_size, subset_size)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape == (count, subset_size)
            assert np.array_equal(got, want)
            assert np.array_equal(gen.random(3), twin.random(3))

    @pytest.mark.parametrize("entries, count, pool_size, subset_size", [
        (50, 23, 10, 3),   # chunks of 5 rows, the last one 3 rows long
        (50, 4, 64, 5),    # a row above the bound: one row per chunk
        (None, 3001, 50, 49),
        (None, 7, 100_000, 3),
    ])
    def test_row_chunks_match_oracle(self, monkeypatch, entries, count,
                                     pool_size, subset_size):
        # The pool is shuffled in row chunks; subsets and the stream state
        # are those of one tiled pool.
        if entries is not None:
            monkeypatch.setattr(rng, "SUBSET_POOL_ENTRIES", entries)
        chunk = max(1, rng.SUBSET_POOL_ENTRIES // pool_size)
        assert chunk < count  # several chunks
        for seed in range(3):
            gen = make_generator(seed)
            twin = make_generator(seed)
            got = uniform_subsets(gen, count, pool_size, subset_size)
            want = uniform_subsets_oracle(twin, count, pool_size, subset_size)
            assert np.array_equal(got, want)
            assert np.array_equal(gen.random(3), twin.random(3))

    def test_draw_memory_is_bounded_by_the_pool_chunk(self):
        # One tiled (400, 100000) pool would take 320 MB for a 3.2 kB result.
        tracemalloc.start()
        try:
            draw_subsets(400, 100_000, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    @pytest.mark.parametrize("pool_size, subset_size", [(20, 5), (7, 7), (9, 1)])
    def test_one_draw_equals_consecutive_draws(self, pool_size, subset_size):
        # k * count subsets in one call are, row for row, k calls of count.
        for seed in range(10):
            gen = make_generator(seed)
            twin = make_generator(seed)
            got = uniform_subsets(gen, 6 * 50, pool_size, subset_size)
            want = np.concatenate([
                uniform_subsets(twin, 50, pool_size, subset_size) for _ in range(6)
            ])
            assert np.array_equal(got, want)
            assert gen.random() == twin.random()

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            uniform_subsets(make_generator(0), 0, 5, 2)
        with pytest.raises(ValueError, match="subset size"):
            uniform_subsets(make_generator(0), 3, 5, 6)
        with pytest.raises(ValueError, match="subset size"):
            uniform_subset(make_generator(0), 5, 6)
        with pytest.raises(ValueError, match="subset size"):
            uniform_subset(make_generator(0), 5, 0)
        with pytest.raises(ValueError, match="subset size"):
            subsets_from_uniforms(np.zeros((3, 6)), 5)
        with pytest.raises(ValueError, match="matrix"):
            subsets_from_uniforms(np.zeros(3), 5)


class TestIidGaussian:
    def test_seeded_determinism(self):
        a = iid_gaussian(20, 3, 0.0, 1.0, seed=7)
        b = iid_gaussian(20, 3, 0.0, 1.0, seed=7)
        assert np.array_equal(a.points, b.points)

    def test_small_sigma_concentrates_at_mean(self):
        batch = iid_gaussian(1, 2, [2.0, -1.0], 1e-8, seed=1)
        np.testing.assert_allclose(batch.points[0], [2.0, -1.0], atol=1e-6)

    def test_mean_concentration(self):
        batch = iid_gaussian(100_000, 2, [0.5, -0.5], 1.0, seed=9)
        bound = 4.0 / np.sqrt(100_000)
        assert np.all(np.abs(batch.points.mean(axis=0) - [0.5, -0.5]) < bound)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            iid_gaussian(5, 1, 0.0, 0.0, seed=0)
