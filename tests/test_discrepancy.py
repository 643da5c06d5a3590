import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    TermTally,
    dense_block_pair_terms,
    eager_coord_stein_sums,
    kernel_cross_deriv_diag,
    one_matrix_stein_sums,
    pointwise_scaled_scores,
    random_instance,
    stein_gram,
)
from steinlab import (
    DecomposableTarget,
    KernelSpec,
    NonFiniteScoreError,
    NumericalConsistencyError,
    SampleBatch,
    coord_stein_sums,
    draw_subsets,
    gen_gmm_data,
    gen_logreg_data,
    iid_gaussian,
    ksd,
    make_gaussian,
    make_gmm_posterior,
    make_logreg,
    scaled_scores,
    sksd,
    ssvgd_direction,
)
from steinlab import discrepancy as discrepancy_module
from steinlab import kernels as kernels_module
from steinlab.discrepancy import (
    NEGATIVE_TOLERANCE,
    _block_pair_peak,
    _block_pair_sums,
    _Workspace,
)
from steinlab.parallel import row_blocks

IMQ = KernelSpec("imq", beta=-0.5)


class TestSampleBatch:
    def test_shapes_and_validation(self):
        batch = SampleBatch(np.arange(6.0).reshape(3, 2))
        assert batch.n == 3 and batch.dim == 2
        assert SampleBatch([1.0, 2.0]).dim == 1
        with pytest.raises(ValueError, match="finite"):
            SampleBatch(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            SampleBatch(np.empty((0, 2)))


class TestDrawSubsets:
    def test_full_size_subsets_are_the_whole_set(self):
        subsets = draw_subsets(2, 3, 3, seed=99)
        assert np.array_equal(subsets, np.tile(np.arange(3), (2, 1)))

    def test_deterministic_given_seed(self):
        a = draw_subsets(50, 10, 4, seed=5)
        b = draw_subsets(50, 10, 4, seed=5)
        assert np.array_equal(a, b)

    def test_regenerates_from_stored_metadata(self, monkeypatch):
        # Every sksd result's (n, L, m, seed) regenerates, through
        # draw_subsets, exactly the subsets it was scored with, for the
        # scalar call and for each member of a stacked one.
        scored = []
        scores = discrepancy_module.scaled_scores

        def recording_scores(batch, target, subsets=None):
            scored.append(subsets)
            return scores(batch, target, subsets)

        monkeypatch.setattr(discrepancy_module, "scaled_scores", recording_scores)
        target = make_gaussian(0.0, 1.0, 8)
        batch = iid_gaussian(31, 1, 0.0, 1.0, seed=6)
        results = [sksd(batch, target, IMQ, m=3, seed=123)]
        results += sksd(batch, target, IMQ, m=[1, 5, 8], seed=[4, 4, 9])
        assert len(scored) == len(results) == 4
        for result, subsets in zip(results, scored):
            again = draw_subsets(result.n, result.L, result.m, result.seed)
            assert np.array_equal(again, subsets)

    def test_rows_sorted_unique_in_range(self):
        subs = draw_subsets(200, 9, 5, seed=1)
        assert subs.shape == (200, 5) and subs.dtype == np.int64
        assert subs.min() >= 0 and subs.max() < 9
        assert np.all(subs[:, 1:] > subs[:, :-1])

    def test_singleton_uniformity_chi_square(self):
        # 2-dof chi-square critical value at level 1e-3 is 13.8155.
        subsets = draw_subsets(30_000, 3, 1, seed=7)
        counts = np.bincount(subsets[:, 0], minlength=3)
        expected = 10_000.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 13.8155

    def test_validation(self):
        with pytest.raises(ValueError):
            draw_subsets(5, 3, 4, seed=0)
        with pytest.raises(ValueError):
            draw_subsets(5, 3, 0, seed=0)
        with pytest.raises(ValueError):
            draw_subsets(0, 3, 1, seed=0)


class TestScaledScores:
    def test_equal_factor_rows_are_exact(self):
        # L / m = 2 is a power of two: the scaled subset rows are the exact
        # full scores to the bit.
        target = make_gaussian(0.0, 1.0, 6, dim=2)
        batch = iid_gaussian(40, 2, 0.0, 1.0, seed=8)
        subsets = draw_subsets(40, 6, 3, seed=3)
        B = scaled_scores(batch, target, subsets)
        assert np.array_equal(B, -batch.points)

    def test_equal_factor_rows_near_exact_non_dyadic(self):
        target = make_gaussian(0.0, 1.0, 6, dim=2)
        batch = iid_gaussian(40, 2, 0.0, 1.0, seed=8)
        subsets = draw_subsets(40, 6, 2, seed=3)
        B = scaled_scores(batch, target, subsets)
        np.testing.assert_allclose(B, -batch.points, rtol=1e-15)

    def test_full_assignment_matches_exact_path(self):
        target = make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 5, seed=4))
        batch = iid_gaussian(17, 2, 0.0, 1.0, seed=2)
        subsets = draw_subsets(17, 5, 5, seed=0)
        assert np.array_equal(
            scaled_scores(batch, target, subsets),
            scaled_scores(batch, target, None),
        )

    def test_exhaustive_subset_average_matches_exact(self):
        target = make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 6, seed=5))
        batch = iid_gaussian(9, 2, 0.0, 1.0, seed=6)
        exact = scaled_scores(batch, target, None)
        prior_rows = np.stack(
            [target.grad_log_prior(x) for x in batch.points]
        )
        total = np.zeros_like(exact)
        subsets = list(itertools.combinations(range(6), 2))
        for sigma in subsets:
            rows = np.tile(np.asarray(sigma), (9, 1))
            total += scaled_scores(batch, target, rows)
        avg = total / len(subsets)
        # E[(L/m) * subset score] = full score + (L/m)(m/L - 1) ... the prior
        # share scales to exactly one full prior, so the average is the full
        # score itself.
        np.testing.assert_allclose(avg, exact, rtol=1e-12, atol=1e-14)

    def test_counter_accounting(self):
        # scaled_scores evaluates n * m term gradients, n * L without an
        # index matrix; sksd and ksd on the same shapes report as many.
        tally = TermTally(make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 7, seed=1)))
        batch = iid_gaussian(11, 2, 0.0, 1.0, seed=3)
        scaled_scores(batch, tally.target, draw_subsets(11, 7, 3, seed=9))
        assert tally.value == 11 * 3
        scaled_scores(batch, tally.target, None)
        evaluated = tally.value
        assert evaluated == 11 * 3 + 11 * 7
        reported = (sksd(batch, tally.target, IMQ, m=3, seed=9).term_evals
                    + ksd(batch, tally.target, IMQ).term_evals)
        assert tally.value - evaluated == reported == evaluated

    def test_mismatched_assignment(self):
        # Subsets drawn for more terms or for fewer points than the call has.
        target = make_gaussian(0.0, 1.0, 4, dim=1)
        batch = iid_gaussian(5, 1, 0.0, 1.0, seed=0)
        with pytest.raises(ValueError, match=r"term indices must lie in \[0, 4\)"):
            scaled_scores(batch, target, draw_subsets(5, 8, 8, seed=0))
        with pytest.raises(ValueError, match="one row for each of 5 points"):
            scaled_scores(batch, target, draw_subsets(4, 4, 1, seed=0))

    @pytest.mark.parametrize("entry", ["scaled_scores", "ssvgd_direction"])
    @pytest.mark.parametrize("subsets, message", [
        ([[0, 4], [1, 2], [0, 3]], r"term indices must lie in \[0, 4\)"),
        ([[0, 1], [2, 2], [1, 3]], "strictly ascending"),
        (np.zeros((3, 0), dtype=np.int64), "nonempty"),
        ([[0, 1], [2, 3]], "one row for each of 3 points"),
        ([[0, 1], [2, 3], [1, 3], [0, 2]], "one row for each of 3 points"),
        ([0, 1, 2], "one row for each of 3 points"),
    ], ids=["out-of-range", "duplicate", "empty", "short", "long", "flat"])
    def test_bad_index_matrix_is_a_value_error(self, entry, subsets, message):
        # The target checks the indices, scaled_scores the row count; both
        # reach a caller of either entry point as ValueError.
        target = make_gaussian(0.0, 1.0, 4, dim=2)
        batch = iid_gaussian(3, 2, 0.0, 1.0, seed=1)
        with pytest.raises(ValueError, match=message):
            if entry == "scaled_scores":
                scaled_scores(batch, target, subsets)
            else:
                ssvgd_direction(batch, target, IMQ, subsets)

    def test_unsorted_rows_are_rejected(self):
        # The target takes strictly ascending rows only; it does not re-sort.
        target = make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 6, seed=5))
        batch = iid_gaussian(3, 2, 0.0, 1.0, seed=6)
        rows = np.array([[0, 2, 5], [1, 3, 4], [2, 4, 5]])
        assert scaled_scores(batch, target, rows).shape == (3, 2)
        with pytest.raises(ValueError, match="strictly ascending"):
            scaled_scores(batch, target, rows[:, ::-1])


SCORE_TARGETS = {
    "gaussian": lambda: make_gaussian([0.5, -1.0], [1.0, 2.5], 6),
    "gmm": lambda: make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 12, seed=4)),
    "logreg-d1": lambda: make_logreg(*gen_logreg_data(15, 1, [0.7], seed=1)),
    "logreg-d2": lambda: make_logreg(*gen_logreg_data(15, 2, [0.7, -0.4], seed=2)),
    "logreg-d9": lambda: make_logreg(
        *gen_logreg_data(15, 9, np.linspace(-1.0, 1.0, 9), seed=3)
    ),
}


class TestBatchedScores:
    @pytest.mark.parametrize("m", [1, 3, "L", "exact"])
    @pytest.mark.parametrize("n", [1, 255, 257, 600])
    @pytest.mark.parametrize("kind", sorted(SCORE_TARGETS))
    def test_matches_pointwise_loop(self, kind, n, m):
        target = SCORE_TARGETS[kind]()
        batch = iid_gaussian(n, target.dim, 0.2, 1.5, seed=n)
        if m == "exact":
            subsets = None
        else:
            size = target.L if m == "L" else m
            subsets = draw_subsets(n, target.L, size, seed=7)
        want = pointwise_scaled_scores(batch, target, subsets)
        got = scaled_scores(batch, target, subsets)
        assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("exact", [True, False])
    def test_non_finite_row_names_point_and_term(self, exact):
        # Term 3 blows up at points beyond x = 5; points 300 and 400 are
        # there, in the second row block, and the first of them is reported.
        def terms_sum(subsets, X):
            hit = np.any(subsets == 3, axis=1)[:, None] & (X > 5.0)
            return np.where(hit, np.inf, -subsets.shape[1] * X)

        target = DecomposableTarget(
            dim=1,
            L=5,
            grad_log_prior=lambda x: np.zeros(1),
            terms_sum=terms_sum,
        )
        points = np.zeros((450, 1))
        points[[300, 400], 0] = 10.0
        batch = SampleBatch(points)
        subsets = None if exact else draw_subsets(450, 5, 5, seed=1)
        with pytest.raises(NonFiniteScoreError) as err:
            scaled_scores(batch, target, subsets)
        assert err.value.point_index == 300
        assert err.value.term_index == 3


class TestCoordSteinSums:
    def test_single_point_at_gaussian_mode(self):
        target = make_gaussian(0.0, 1.0, 1, dim=2)
        batch = SampleBatch(np.zeros((1, 2)))
        B = scaled_scores(batch, target, None)
        w_sq = one_matrix_stein_sums(batch, B, IMQ)
        assert np.array_equal(B, np.zeros((1, 2)))
        assert np.array_equal(w_sq, np.ones(2))

    def test_single_point_zero_scores_gives_cross_term(self):
        spec = KernelSpec("log_inverse", beta=-0.7, alpha=1.4, bandwidth=1.3)
        x = np.array([[0.4, -2.0, 1.0]])
        batch = SampleBatch(x)
        w_sq = one_matrix_stein_sums(batch, np.zeros((1, 3)), spec)
        expected = kernel_cross_deriv_diag(spec, x[0], x[0])
        assert np.array_equal(w_sq, expected)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            batch, target, spec, m = random_instance(rng)
            subsets = draw_subsets(batch.n, target.L, m, seed=int(rng.integers(2**32)))
            B = scaled_scores(batch, target, subsets)
            w_sq = one_matrix_stein_sums(batch, B, spec)
            for j in range(batch.dim):
                M = stein_gram(j, batch, B, spec)
                oracle = M.sum() / batch.n**2
                assert abs(w_sq[j] - oracle) <= 1e-10 * max(abs(oracle), 1e-12)
                scale = np.abs(M).max()
                np.testing.assert_allclose(M, M.T, rtol=1e-12, atol=1e-12 * scale)

    def test_gram_eigenvalue_floor(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            batch, target, spec, m = random_instance(rng, max_n=12)
            B = scaled_scores(
                batch, target, draw_subsets(batch.n, target.L, m, seed=1)
            )
            for j in range(batch.dim):
                M = stein_gram(j, batch, B, spec)
                sym = 0.5 * (M + M.T)
                eigmin = float(np.linalg.eigvalsh(sym).min())
                assert eigmin >= -1e-8 * np.trace(sym)

    def test_blocked_path_spans_block_boundaries(self):
        # n > 256 exercises multi-block accumulation; compare with a single
        # dense evaluation through the Gram oracle on coordinate 0.
        target = make_gaussian(0.0, 1.0, 3, dim=1)
        batch = iid_gaussian(300, 1, 0.0, 1.0, seed=21)
        B = scaled_scores(batch, target, None)
        w_sq = one_matrix_stein_sums(batch, B, IMQ)
        oracle = stein_gram(0, batch, B, IMQ).sum() / 300**2
        assert abs(w_sq[0] - oracle) <= 1e-10 * abs(oracle)

    def test_worker_counts_bit_identical(self):
        rng = np.random.default_rng(5)
        batch, target, spec, m = random_instance(rng, max_n=50)
        B = scaled_scores(batch, target, draw_subsets(batch.n, target.L, m, seed=3))
        baseline = one_matrix_stein_sums(batch, B, spec, threads=1)
        for workers in (2, 8):
            assert np.array_equal(
                one_matrix_stein_sums(batch, B, spec, threads=workers), baseline
            )

    def test_large_negative_raises(self, monkeypatch):
        def hostile_profile(spec, sq, out=None, scratch=None):
            q = np.asarray(sq, dtype=np.float64)
            return np.zeros_like(q), np.ones_like(q), np.zeros_like(q)

        monkeypatch.setattr(kernels_module, "radial_profile", hostile_profile)
        batch = SampleBatch(np.zeros((2, 1)))
        with pytest.raises(NumericalConsistencyError):
            one_matrix_stein_sums(batch, np.zeros((2, 1)), IMQ)

    def test_shape_mismatch(self):
        batch = SampleBatch(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="shape"):
            one_matrix_stein_sums(batch, np.zeros((2, 2)), IMQ)

    @pytest.mark.parametrize("margin", [1e-6, -1e-6])
    def test_negative_floor_boundary(self, monkeypatch, margin):
        # K = P2 = 0 and P1 = -a on the diagonal, b off it: with zero
        # scores the four terms are 2a, -2b, -2b, 2a, so w_sq = a - b and
        # the peak is 2 max(a, b) = 2b.  Put w_sq a relative `margin` above
        # (positive) or below (negative) the floor -1e-8 * peak; the
        # literal pins the tolerance itself.
        assert NEGATIVE_TOLERANCE == 1e-8
        b = 1.0
        floor = -1e-8 * 2.0 * b
        a = b + floor * (1.0 - margin)

        def hostile_profile(spec, sq, out=None, scratch=None):
            q = np.asarray(sq, dtype=np.float64)
            return np.zeros_like(q), np.where(q == 0.0, -a, b), np.zeros_like(q)

        monkeypatch.setattr(kernels_module, "radial_profile", hostile_profile)
        batch = SampleBatch(np.array([[0.0], [1.0]]))
        if margin > 0:
            w_sq = one_matrix_stein_sums(batch, np.zeros((2, 1)), IMQ)
            assert floor < w_sq[0] < 0.0
            eager = eager_coord_stein_sums(batch, np.zeros((2, 1)), IMQ)
            np.testing.assert_allclose(w_sq, eager, rtol=0, atol=1e-12 * 2.0 * b)
        else:
            with pytest.raises(NumericalConsistencyError,
                               match=r"^score matrix 0: w_sq\[0\] .* floor"):
                one_matrix_stein_sums(batch, np.zeros((2, 1)), IMQ)
            with pytest.raises(NumericalConsistencyError):
                eager_coord_stein_sums(batch, np.zeros((2, 1)), IMQ)


ENGINE_SPECS = {
    "imq": KernelSpec("imq", beta=-0.5),
    "log_inverse": KernelSpec("log_inverse", beta=-0.8, alpha=1.3, bandwidth=2.0),
    "rbf": KernelSpec("rbf", bandwidth=1.5),
}


def _engine_sample(n, d, layout="plain"):
    """Points and scores for the block-engine tests.  ``offset`` moves
    every point by 1e3 and ``clusters`` moves a random half of them by 50
    in every coordinate; the scores stay those of the unmoved points, as
    for a target moved with them."""
    rng = np.random.default_rng(1000 * n + d)
    X = rng.normal(0.3, 1.0, size=(n, d))
    B = -X + 0.5 * rng.standard_normal((n, d))
    if layout == "offset":
        X += 1e3
    elif layout == "clusters":
        X[rng.random(n) < 0.5] += 50.0
    return X, B


def _block_pair_results(X, B, spec):
    """Engine sums and peak next to the dense block formula's, for every
    block pair of the batch, with one workspace reused across the pairs as
    a worker does; also yields the pair's term count."""
    blocks = row_blocks(X.shape[0])
    workspace = _Workspace(blocks[0][1])
    for ia, rows_a in enumerate(blocks):
        for rows_b in blocks[ia:]:
            total = _block_pair_sums(X, B[None], spec, rows_a, rows_b, workspace)[0]
            peak = _block_pair_peak(X, B, spec, rows_a, rows_b, workspace)
            ref_total, ref_peak = dense_block_pair_terms(X, B, spec, rows_a, rows_b)
            count = (rows_a[1] - rows_a[0]) * (rows_b[1] - rows_b[0])
            yield total, peak, ref_total, ref_peak, count


class TestBlockEngine:
    """The block engine's sums and peak pass against the dense
    (rows, rows, d) block formula, on every block pair of a batch."""

    @pytest.mark.parametrize("family", sorted(ENGINE_SPECS))
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("n", [1, 255, 257, 600])
    def test_matches_dense_block_formula(self, n, d, family):
        X, B = _engine_sample(n, d)
        for total, peak, ref_total, ref_peak, _ in _block_pair_results(
            X, B, ENGINE_SPECS[family]
        ):
            assert peak == ref_peak
            np.testing.assert_allclose(total, ref_total, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("family", sorted(ENGINE_SPECS))
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("n", [1, 257, 600])
    def test_offset_sample_matches_dense_block_formula(self, n, d, family):
        # Without centring, the expansion of D_j^2 around the origin
        # cancels about six digits here (relative errors near 1e-8).
        X, B = _engine_sample(n, d, "offset")
        for total, peak, ref_total, ref_peak, _ in _block_pair_results(
            X, B, ENGINE_SPECS[family]
        ):
            assert peak == ref_peak
            np.testing.assert_allclose(total, ref_total, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("family", sorted(ENGINE_SPECS))
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("n", [1, 257, 600])
    def test_two_clusters_within_block_term_scale(self, n, d, family):
        # With the clusters mixed in one block, points sit about 25 from
        # the block mean while the pairs that carry the weight lie about 1
        # apart, so the expansion loses digits: errors reach 2.9e-15 of the
        # block's term count times its peak term (4.9e-13 without
        # centring).  A block total can cancel far below that scale, so the
        # error is bounded against the scale, not against the total.
        X, B = _engine_sample(n, d, "clusters")
        for total, peak, ref_total, ref_peak, count in _block_pair_results(
            X, B, ENGINE_SPECS[family]
        ):
            assert peak == ref_peak
            np.testing.assert_allclose(
                total, ref_total, rtol=0, atol=1e-13 * count * ref_peak
            )


def _profile_shifted_by(shift):
    """The library profile with ``shift`` added to ``p1``: every pairwise
    term moves by ``-2 shift`` plus a ``D_j``-weighted part, so a piece can
    be pushed below zero."""
    true_profile = kernels_module.radial_profile

    def shifted(spec, sq, out=None, scratch=None):
        k, p1, p2 = true_profile(spec, sq, out=out, scratch=scratch)
        p1 += shift
        return k, p1, p2

    return shifted


def _raised(fn):
    try:
        return False, fn()
    except NumericalConsistencyError:
        return True, None


class TestLazyPeak:
    """The peak behind the negativity floor is computed only when a piece
    is negative; the raise decision matches an oracle that always computes
    it."""

    def test_raises_exactly_when_eager_oracle_does(self, monkeypatch):
        outcomes = []
        for seed in range(16):
            rng = np.random.default_rng(seed)
            n = (1, 255, 257, 600)[seed % 4]
            batch, target, spec, m = random_instance(
                rng, kinds=("gmm", "logreg", "gaussian"),
                families=("imq", "log_inverse", "rbf"), n=n,
            )
            B = scaled_scores(batch, target, draw_subsets(batch.n, target.L, m, seed=seed))
            # Shifts from zero (genuine pieces) up to the largest piece.
            scale = float(np.max(np.abs(one_matrix_stein_sums(batch, B, spec))))
            shift = 0.0 if seed < 4 else float(rng.uniform(-1.0, 1.0)) * scale
            monkeypatch.setattr(kernels_module, "radial_profile", _profile_shifted_by(shift))
            raised, w_sq = _raised(
                lambda: one_matrix_stein_sums(batch, B, spec, threads=2)
            )
            eager_raised, eager = _raised(lambda: eager_coord_stein_sums(batch, B, spec))
            monkeypatch.undo()
            assert raised == eager_raised, (seed, shift)
            if not raised:
                np.testing.assert_allclose(w_sq, eager, rtol=1e-10, atol=1e-12 * scale)
            outcomes.append(raised)
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("shift, peak_pass", [(0.0, False), (-0.5, True)])
    def test_peak_pass_only_for_negative_pieces(self, monkeypatch, shift, peak_pass):
        rng = np.random.default_rng(8)
        batch, target, spec, m = random_instance(
            rng, kinds=("gaussian",), families=("imq",), max_d=3, n=600
        )
        B = scaled_scores(batch, target, None)
        profile = _profile_shifted_by(shift)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return profile(*args, **kwargs)

        monkeypatch.setattr(kernels_module, "radial_profile", counted)
        raised, w_sq = _raised(lambda: one_matrix_stein_sums(batch, B, spec))
        pairs = 6  # three row blocks
        if peak_pass:
            assert len(calls) == 2 * pairs
        else:
            assert not raised and np.all(w_sq >= 0.0)
            assert len(calls) == pairs


def _line_with_hostile_profile(n, margin):
    """n distinct points on a line and a profile with K = P2 = 0 and P1 =
    -a on the diagonal, b off it.  Zero scores give diagonal terms 2a and
    off-diagonal terms -2b, so w_sq = (2an - 2bn(n - 1)) / n^2 against the
    peak 2a; a is set so that w_sq is ``1 - margin`` times the floor
    -1e-8 * 2a (negative but above the floor for margin > 0, below it for
    margin < 0).  Scores -c x add 2bc D^2 to every off-diagonal term, which
    makes the piece clearly positive; at c = 1e4 they also raise the peak
    to about 2e4, far above 2a, so a member checked against another
    member's peak would get the wrong floor."""
    b = 1.0
    a = b * (n - 1) / (1.0 + NEGATIVE_TOLERANCE * (1.0 - margin) * n)

    def hostile_profile(spec, sq, out=None, scratch=None):
        q = np.asarray(sq, dtype=np.float64)
        return np.zeros_like(q), np.where(q == 0.0, -a, b), np.zeros_like(q)

    X = np.linspace(0.0, 1.0, n)[:, None]
    return SampleBatch(X), hostile_profile


class TestStackedEngine:
    """A ``(k, n, d)`` stack of score matrices through one pass of the
    block engine: every member's pieces are the bits of a call with that
    member alone, and each member keeps its own negativity floor."""

    @pytest.mark.parametrize("family", sorted(ENGINE_SPECS))
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("n", [1, 255, 257, 600])
    def test_members_match_single_calls(self, n, d, family):
        X, B = _engine_sample(n, d)
        rng = np.random.default_rng(n + d)
        stack = np.stack([B, -X + rng.standard_normal((n, d)), np.zeros((n, d))])
        batch, spec = SampleBatch(X), ENGINE_SPECS[family]
        stacked = coord_stein_sums(batch, stack, spec, threads=2)
        assert stacked.shape == (3, d)
        singles = [one_matrix_stein_sums(batch, scores, spec, threads=1)
                   for scores in stack]
        for member, single in zip(stacked, singles):
            assert np.array_equal(member, single)
        assert np.array_equal(coord_stein_sums(batch, stack[:1], spec)[0], singles[0])

    def test_shape_mismatch(self):
        batch = SampleBatch(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="shape"):
            coord_stein_sums(batch, np.zeros((3, 2)), IMQ)  # one matrix, unstacked
        with pytest.raises(ValueError, match="shape"):
            coord_stein_sums(batch, np.zeros((2, 2, 2)), IMQ)
        with pytest.raises(ValueError, match="shape"):
            coord_stein_sums(batch, np.zeros((1, 2, 3, 2)), IMQ)

    def test_stack_raises_exactly_when_a_member_does(self, monkeypatch):
        batch, profile = _line_with_hostile_profile(600, margin=-0.5)
        monkeypatch.setattr(kernels_module, "radial_profile", profile)
        negative, positive = np.zeros((600, 1)), -1e4 * batch.points
        single_raises = {}
        for name, scores in (("negative", negative), ("positive", positive)):
            single_raises[name], _ = _raised(
                lambda: one_matrix_stein_sums(batch, scores, IMQ)
            )
        assert single_raises == {"negative": True, "positive": False}
        members = {"negative": negative, "positive": positive}
        for names in itertools.product(sorted(members), repeat=3):
            stack = np.stack([members[name] for name in names])
            if "negative" in names:
                first = names.index("negative")
                with pytest.raises(NumericalConsistencyError,
                                   match=rf"^score matrix {first}: w_sq\[0\]"):
                    coord_stein_sums(batch, stack, IMQ, threads=2)
            else:
                stacked = coord_stein_sums(batch, stack, IMQ, threads=2)
                single = one_matrix_stein_sums(batch, positive, IMQ)
                assert all(np.array_equal(member, single) for member in stacked)

    def test_peak_pass_per_negative_member(self, monkeypatch):
        # Zero scores leave a piece just below zero but above its floor, so
        # nothing raises and only those members take the peak pass.
        batch, profile = _line_with_hostile_profile(600, margin=0.5)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return profile(*args, **kwargs)

        monkeypatch.setattr(kernels_module, "radial_profile", counted)
        negative, positive = np.zeros((600, 1)), -1e4 * batch.points
        pairs = 6  # three row blocks
        singles = []
        for scores, peak_pass in ((negative, True), (positive, False)):
            calls.clear()
            singles.append(one_matrix_stein_sums(batch, scores, IMQ))
            assert len(calls) == pairs * (1 + peak_pass)
        assert singles[0][0] < 0.0 < singles[1][0]
        for names in ("npnp", "pppp", "nnnp"):
            stack = np.stack([negative if c == "n" else positive for c in names])
            calls.clear()
            stacked = coord_stein_sums(batch, stack, IMQ, threads=2)
            assert len(calls) == pairs * (1 + names.count("n"))
            for member, c in zip(stacked, names):
                assert np.array_equal(member, singles[c == "p"])


class TestWorkspaceMemory:
    """One call holds six 256 x 256 workspace matrices per worker and
    frees them on return, whatever the number of stacked score matrices;
    the stated slack of 256 KiB covers the O(256 d) row vectors and the
    per-pair results."""

    @staticmethod
    def _assert_six_block_matrices(members, family):
        rng = np.random.default_rng(3)
        X = rng.normal(0.3, 1.0, size=(600, 9))
        B = -X + 0.5 * rng.standard_normal((600, 9))
        B = np.stack([B * (1.0 + member) for member in range(members)])
        batch = SampleBatch(X)
        spec = ENGINE_SPECS[family]
        coord_stein_sums(batch, B, spec, threads=1)
        tracemalloc.start()
        try:
            coord_stein_sums(batch, B, spec, threads=1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 256 * 256 * 8
        assert peak <= 6 * block + 256 * 1024
        assert current < block

    @pytest.mark.parametrize("family", sorted(ENGINE_SPECS))
    def test_peak_allocation_is_six_block_matrices(self, family):
        self._assert_six_block_matrices(1, family)

    @pytest.mark.parametrize("family", sorted(ENGINE_SPECS))
    def test_stack_of_three_shares_the_six_block_matrices(self, family):
        self._assert_six_block_matrices(3, family)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROPERTY_SCRIPT = textwrap.dedent("""\
    import sys
    import numpy as np
    from helpers import one_matrix_stein_sums, random_instance
    from steinlab import coord_stein_sums, draw_subsets, scaled_scores
    from steinlab.svgd import ssvgd_direction

    parts = []
    for case, (family, n) in enumerate(
        (f, n) for f in ("imq", "log_inverse", "rbf") for n in (255, 257, 513, 700)
    ):
        rng = np.random.default_rng(case)
        batch, target, spec, m = random_instance(
            rng, kinds=("gmm", "logreg", "gaussian"), families=(family,),
            max_d=12, n=n,
        )
        subsets = draw_subsets(batch.n, target.L, m, seed=case)
        B = scaled_scores(batch, target, subsets)
        parts.append(one_matrix_stein_sums(batch, B, spec, threads=2))
        parts.append(ssvgd_direction(batch, target, spec, subsets, threads=2).ravel())
    # One stacked call, on the last and largest instance.
    stack = np.stack([B, -B, 0.5 * B])
    parts.append(coord_stein_sums(batch, stack, spec, threads=2).ravel())
    np.save(sys.argv[1], np.concatenate(parts))
    """)


class TestBlasThreadProperty:
    """The pairwise layers' matrix products give the same bits with BLAS
    pinned to one thread and at its default, on random instances."""

    def test_pinned_and_default_blas_bit_identical(self, tmp_path):
        tests_dir = Path(__file__).resolve().parent
        src = str(Path(kernels_module.__file__).resolve().parents[1])
        script = tmp_path / "property.py"
        script.write_text(PROPERTY_SCRIPT)
        results = []
        for label, blas_threads in (("pinned", 1), ("default", None)):
            env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
            if blas_threads is not None:
                env.update({k: str(blas_threads) for k in BLAS_THREAD_VARS})
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, str(tests_dir), env.get("PYTHONPATH")) if p
            )
            out = tmp_path / f"{label}.npy"
            proc = subprocess.run(
                [sys.executable, str(script), str(out)],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            results.append(np.load(out))
        pinned, default = results
        assert pinned.size > 0 and np.all(np.isfinite(pinned))
        assert pinned.tobytes() == default.tobytes()


class TestSksdAndKsd:
    def test_full_batch_equals_ksd_bitwise(self):
        target = make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 6, seed=2))
        batch = iid_gaussian(25, 2, 0.0, 1.0, seed=4)
        exact = ksd(batch, target, IMQ)
        sub = sksd(batch, target, IMQ, m=6, seed=11)
        assert sub.value == exact.value
        assert np.array_equal(sub.w_sq, exact.w_sq)
        assert sub.m == exact.m == 6
        assert exact.seed is None and sub.seed == 11

    def test_value_is_norm_of_clamped_pieces(self):
        rng = np.random.default_rng(31)
        batch, target, spec, m = random_instance(rng)
        result = sksd(batch, target, spec, m, seed=9)
        assert np.all(result.w_sq >= 0)
        assert result.value == float(np.sqrt(result.w_sq.sum()))

    def test_term_eval_accounting(self):
        target = make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 8, seed=3))
        batch = iid_gaussian(13, 2, 0.0, 1.0, seed=5)
        sub = sksd(batch, target, IMQ, m=2, seed=1)
        assert sub.term_evals == 13 * 2
        exact = ksd(batch, target, IMQ)
        assert exact.term_evals == 13 * 8

    def test_concurrent_calls_report_their_own_cost(self):
        # Two threads score on one shared target; each result counts only
        # its own evaluations, and the shared tally sees all of them.
        tally = TermTally(make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 40, seed=6)))
        jobs = [(iid_gaussian(n, 2, 0.0, 1.0, seed=n), m)
                for n, m in ((30, 3), (20, 40))] * 10

        def score(job):
            batch, m = job
            return sksd(batch, tally.target, IMQ, m=m, seed=1).term_evals

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                evals = list(pool.map(score, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert evals == [30 * 3, 20 * 40] * 10
        assert tally.value == sum(evals)

    def test_single_point_value_example(self):
        target = make_gaussian(0.0, 1.0, 1, dim=2)
        batch = SampleBatch(np.zeros((1, 2)))
        result = ksd(batch, target, IMQ)
        assert result.value == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_median_ksd_decreases_with_sample_size(self):
        target = make_gaussian(0.0, 1.0, 4, dim=2)
        small, large = [], []
        for seed in range(10):
            batch = iid_gaussian(400, 2, 0.0, 1.0, seed=1000 + seed)
            small.append(ksd(SampleBatch(batch.points[:100]), target, IMQ).value)
            large.append(ksd(batch, target, IMQ).value)
        assert np.median(large) < np.median(small)

    def test_seeded_determinism(self):
        target = make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 5, seed=8))
        batch = iid_gaussian(30, 2, 0.0, 1.0, seed=14)
        a = sksd(batch, target, IMQ, m=2, seed=77)
        b = sksd(batch, target, IMQ, m=2, seed=77)
        assert a.value == b.value
        assert np.array_equal(a.w_sq, b.w_sq)

    def test_result_dict_fields(self):
        target = make_gaussian(0.0, 1.0, 2, dim=1)
        batch = iid_gaussian(4, 1, 0.0, 1.0, seed=0)
        doc = sksd(batch, target, IMQ, m=1, seed=5).to_dict()
        assert set(doc) == {"value", "w_sq", "n", "m", "L", "term_evals", "seed"}
        assert doc["n"] == 4 and doc["m"] == 1 and doc["L"] == 2
        assert doc["term_evals"] == 4 and doc["seed"] == 5

    def test_sequence_form_matches_scalar_calls(self):
        target = make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 12, seed=4))
        batch = iid_gaussian(300, 2, 0.0, 1.0, seed=6)
        ms, seeds = (1, 5, 12, 5), (3, 4, 5, 2**64 - 1)
        results = sksd(batch, target, IMQ, list(ms), seeds, threads=2)
        assert isinstance(results, list) and len(results) == len(ms)
        for result, m, seed in zip(results, ms, seeds):
            single = sksd(batch, target, IMQ, m, seed)
            assert result.to_dict() == single.to_dict()
            assert np.array_equal(result.w_sq, single.w_sq)
            assert result.seed == seed and result.m == m
            assert result.term_evals == batch.n * m
        assert results[2].to_dict() == dict(ksd(batch, target, IMQ).to_dict(), seed=5)

    @pytest.mark.parametrize(
        "m, seed", [([1, 2], [3]), ([1], 3), (1, [3]), ([], [])]
    )
    def test_sequence_form_validation(self, m, seed):
        target = make_gaussian(0.0, 1.0, 4, dim=1)
        batch = iid_gaussian(5, 1, 0.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            sksd(batch, target, IMQ, m, seed)
