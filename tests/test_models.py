import itertools
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    TermTally,
    assert_rel_close,
    fd_gradient,
    gaussian_log_density,
    gmm_terms_sum_oracle,
    gmm_log_density,
    logreg_log_density,
    one_point_score,
)
from steinlab import (
    DecomposableTarget,
    NonFiniteScoreError,
    gen_gmm_data,
    gen_logreg_data,
    make_gaussian,
    make_gmm_posterior,
    make_logreg,
)
from steinlab.rng import make_generator, uniform_subsets

# Frozen against a 50-digit evaluation of the mixture-posterior score at
# theta = (0, 1) for the seeded observations below (gen_gmm_data with
# theta1=0, theta2=1, sigma_x_sq=2, L=6, seed=5).
GMM_ORACLE_POINT = np.array([0.0, 1.0])
GMM_ORACLE_SCORE = np.array([0.6911318170800385894597351, 0.3961055072310412728586567])


def _gmm_target(L=6, seed=5):
    return make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, L, seed=seed))


class TestGaussian:
    @pytest.mark.parametrize("L", [1, 4, 7])
    def test_full_score_is_negative_x(self, L):
        target = make_gaussian(0.0, 1.0, L, dim=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert np.array_equal(one_point_score(target.grad_log_full, x), -x)

    def test_scaled_subset_score_is_exact(self):
        target = make_gaussian(0.0, 1.0, 4, dim=2)
        rng = np.random.default_rng(1)
        for sigma in ([0, 2], [1, 3], [0, 1]):
            x = rng.standard_normal(2)
            score = one_point_score(target.grad_log_subset, sigma, x)
            assert np.array_equal(2.0 * score, -x)

    def test_nonstandard_mean_and_variance(self):
        target = make_gaussian([1.0, -2.0], [4.0, 0.25], 3)
        x = np.array([3.0, -1.0])
        expected = -(x - np.array([1.0, -2.0])) / np.array([4.0, 0.25])
        assert np.array_equal(one_point_score(target.grad_log_full, x), expected)

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            make_gaussian(0.0, 0.0, 1)


class TestGmmPosterior:
    def test_frozen_high_precision_score(self):
        target = _gmm_target()
        got = one_point_score(target.grad_log_full, GMM_ORACLE_POINT)
        assert_rel_close(got, GMM_ORACLE_SCORE, rtol=1e-12)

    def test_independent_responsibility_oracle(self):
        # Plain double-precision recomputation, no log-sum-exp shifting.
        target = _gmm_target()
        obs = gen_gmm_data(0.0, 1.0, 2.0, 6, seed=5)
        th = np.array([0.31, -0.6])
        a = np.exp(-((obs - th[0]) ** 2) / 4.0)
        b = np.exp(-((obs - th[0] - th[1]) ** 2) / 4.0)
        g1 = -th[0] / 10.0 + np.sum(
            (a * (obs - th[0]) + b * (obs - th[0] - th[1])) / ((a + b) * 2.0)
        )
        g2 = -th[1] / 1.0 + np.sum(b * (obs - th[0] - th[1]) / ((a + b) * 2.0))
        got = one_point_score(target.grad_log_full, th)
        assert_rel_close(got, np.array([g1, g2]), rtol=1e-12)

    def test_term_sums_match_the_expression_oracle(self):
        # The in-place term scores give, to the bit, the sums of the
        # expressions written with one temporary each: L from 1 to 300, 1 to
        # 257 rows, every m, and points near and far from the data.  One row
        # at m = 8 and 9 is where a sum over a contiguous term axis would go
        # pairwise.
        rng = np.random.default_rng(23)
        shapes = [(1, 1), (300, 256), (2, 256), (300, 1)]
        shapes += [(int(rng.integers(1, 301)), int(rng.integers(1, 257))) for _ in range(4)]
        shapes += [(8, 1), (9, 1), (100, 2), (100, 255), (100, 257)]
        for case, (L, rows) in enumerate(shapes):
            sx = float(rng.uniform(0.5, 5.0))
            y = gen_gmm_data(0.0, 1.0, sx, L, seed=case)
            target = make_gmm_posterior(y, sigma_x_sq=sx)
            oracle = gmm_terms_sum_oracle(y, sigma_x_sq=sx)
            TH = rng.standard_normal((rows, 2)) * rng.choice([0.1, 3.0, 40.0], (rows, 1))
            gen = make_generator(case)
            for m in range(1, L + 1):
                subsets = uniform_subsets(gen, rows, L, m)
                got = target.terms_sum(subsets, TH)
                assert got.tobytes() == oracle(subsets, TH).tobytes(), (L, rows, m)
            full = replace(target, terms_sum=oracle)
            assert target.grad_log_full(TH).tobytes() == full.grad_log_full(TH).tobytes()

    def test_l_equals_observation_count(self):
        target = make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 100, seed=3))
        assert target.L == 100

    def test_empty_observations(self):
        with pytest.raises(ValueError):
            make_gmm_posterior([])


class TestLogreg:
    def test_single_point_example(self):
        target = make_logreg(np.array([[1.0]]), np.array([1.0]))
        score = one_point_score(target.grad_log_full, np.zeros(1))
        assert score[0] == pytest.approx(0.5, abs=0)

    def test_zero_weights_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 3))
        X -= X.mean(axis=0)
        y = np.array([0.0, 1.0] * 20)
        target = make_logreg(X, y)
        acc = np.zeros(3)
        for l in range(40):
            acc = acc + (y[l] - 0.5) * X[l]
        assert np.array_equal(one_point_score(target.grad_log_full, np.zeros(3)), acc)

    def test_flat_prior(self):
        X, y = gen_logreg_data(10, 2, [0.5, -0.5], seed=9)
        target = make_logreg(X, y)
        assert np.array_equal(target.grad_log_prior(np.ones(2)), np.zeros(2))

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            make_logreg(np.ones((2, 1)), np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            make_logreg(np.ones((3, 1)), np.array([0.0, 1.0]))


def _gaussian_pair():
    mu, sigma_sq = [0.5, -1.0], [1.0, 2.5]
    return make_gaussian(mu, sigma_sq, 6), gaussian_log_density(mu, sigma_sq)


def _gmm_pair():
    obs = gen_gmm_data(0.0, 1.0, 2.0, 8, seed=2)
    return make_gmm_posterior(obs), gmm_log_density(obs)


def _logreg_pair():
    X, y = gen_logreg_data(9, 3, [1.0, -0.5, 0.2], seed=7)
    return make_logreg(X, y), logreg_log_density(X, y)


class TestScoreGradients:
    @pytest.mark.parametrize(
        "build", [_gaussian_pair, _gmm_pair, _logreg_pair],
        ids=["gaussian", "gmm", "logreg"],
    )
    def test_matches_finite_differences(self, build):
        # The log densities are written in tests/helpers.py from the model
        # formulas, so this oracle reads none of the code it checks.
        target, f = build()
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.standard_normal(target.dim)
            assert_rel_close(one_point_score(target.grad_log_full, x), fd_gradient(f, x))


class TestSubsetScores:
    def test_full_set_degeneracy_is_bitwise(self):
        target = _gmm_target()
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(2)
            assert np.array_equal(
                one_point_score(target.grad_log_subset, np.arange(target.L), x),
                one_point_score(target.grad_log_full, x),
            )

    def test_exhaustive_subset_average_reconstructs_full(self):
        # All C(6, 2) = 15 subsets; the scaled average of the subset scores
        # minus their prior share must rebuild the full score.
        target = _gmm_target(L=6, seed=5)
        x = np.array([0.4, 0.8])
        L, m = 6, 2
        prior = target.grad_log_prior(x)
        total = np.zeros(2)
        count = 0
        for sigma in itertools.combinations(range(L), m):
            total += (L / m) * (
                one_point_score(target.grad_log_subset, sigma, x) - (m / L) * prior
            )
            count += 1
        assert count == 15
        reconstructed = prior + total / count
        full = one_point_score(target.grad_log_full, x)
        assert_rel_close(reconstructed, full, rtol=1e-12)

    def test_ascending_term_sum_is_canonical(self):
        # full = prior + (ascending sum of term scores), bit for bit.
        for target in (_gmm_target(L=7, seed=1),
                       make_logreg(*gen_logreg_data(7, 2, [0.3, -0.8], seed=2))):
            x = np.full(target.dim, 0.37)
            terms = one_point_score(target.grad_log_terms, [0], x)
            for l in range(1, target.L):
                terms = terms + one_point_score(target.grad_log_terms, [l], x)
            full = np.asarray(target.grad_log_prior(x), dtype=np.float64) + terms
            assert np.array_equal(one_point_score(target.grad_log_full, x), full)

    def test_gaussian_collapsed_sum_is_near_canonical(self):
        # The equal-factor target sums factors by multiplication (count / L),
        # exact in real arithmetic; the loop sum agrees to float rounding.
        target = make_gaussian(0.0, 1.0, 7, dim=2)
        x = np.array([0.9, -1.4])
        acc = np.zeros(2)
        for l in range(7):
            acc = acc + one_point_score(target.grad_log_terms, [l], x)
        full = one_point_score(target.grad_log_full, x)
        np.testing.assert_allclose(full, acc, rtol=1e-13)

    def test_unsorted_subset_rows_are_rejected(self):
        # Every library caller passes ascending rows; any other order of the
        # same subset is an error rather than a silent re-sort.
        target = _gmm_target()
        X = np.array([[0.3, -0.7], [0.1, 0.2]])
        want = target.grad_log_subset([[0, 2, 5], [1, 3, 4]], X)
        assert want.shape == (2, 2)
        for rows in ([[5, 0, 2], [1, 3, 4]], [[0, 2, 5], [4, 3, 1]]):
            for method in (target.grad_log_subset, target.grad_log_terms):
                with pytest.raises(ValueError, match="strictly ascending"):
                    method(rows, X)

    def test_subset_validation(self):
        target = _gmm_target()
        x = np.zeros(2)
        with pytest.raises(ValueError, match="nonempty"):
            one_point_score(target.grad_log_subset, [], x)
        with pytest.raises(ValueError, match="strictly ascending"):
            one_point_score(target.grad_log_subset, [1, 1], x)
        with pytest.raises(ValueError, match="strictly ascending"):
            one_point_score(target.grad_log_subset, [3, 1, 3], x)
        with pytest.raises(ValueError, match="lie in"):
            one_point_score(target.grad_log_subset, [0, 6], x)
        with pytest.raises(ValueError, match=r"target expects \(n, 2\)"):
            one_point_score(target.grad_log_full, np.zeros(3))
        with pytest.raises(ValueError, match="one term subset per point"):
            target.grad_log_subset([[0, 1], [1, 2]], np.zeros((3, 2)))

    def test_one_row_forms_are_rejected(self):
        # Points and subsets are stacked rows only; a 1-D argument names its
        # shape and the matrix expected.
        target = _gmm_target()
        with pytest.raises(ValueError, match=r"shape \(2,\), target expects \(n, 2\)"):
            target.grad_log_full(np.zeros(2))
        for method in (target.grad_log_subset, target.grad_log_terms):
            with pytest.raises(ValueError, match=r"\(1, m\) matrix, got shape \(3,\)"):
                method([0, 2, 4], np.zeros((1, 2)))
            with pytest.raises(ValueError, match=r"shape \(2,\)"):
                method([[0, 2, 4]], np.zeros(2))

    def test_terms_sum_must_return_one_row_per_point(self):
        # A per-point terms_sum returning (d,) would broadcast over the rows.
        target = DecomposableTarget(
            dim=1,
            L=2,
            grad_log_prior=lambda x: np.zeros(1),
            terms_sum=lambda subsets, X: np.ones(1),
        )
        with pytest.raises(ValueError, match="terms_sum returned shape"):
            target.grad_log_full(np.zeros((3, 1)))

    def test_non_finite_score_names_term(self):
        def bad_terms_sum(subsets, X):
            return np.add.reduce(np.where(subsets == 3, np.inf, 0.0), axis=1)[:, None]

        target = DecomposableTarget(
            dim=1,
            L=5,
            grad_log_prior=lambda x: np.zeros(1),
            terms_sum=bad_terms_sum,
        )
        with pytest.raises(NonFiniteScoreError) as err:
            one_point_score(target.grad_log_full, np.zeros(1))
        assert err.value.term_index == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_parts_are_returned_even_when_sums_overflow(self):
        # The finiteness check sums the scores: finite rows whose sum
        # overflows, and a total that overflows from finite parts, are
        # returned as they are.
        target = DecomposableTarget(
            dim=1,
            L=1,
            grad_log_prior=lambda x: x,
            terms_sum=lambda subsets, X: X.copy(),
        )
        X = np.array([[1e308], [1e308], [-1e308]])
        assert np.array_equal(target.grad_log_terms(np.zeros((3, 1), dtype=int), X), X)
        assert np.array_equal(target.grad_log_full(X), X * np.inf)


class TestTermEvaluations:
    def test_subset_accounting(self):
        tally = TermTally(_gmm_target(L=6, seed=5))
        x = np.zeros(2)
        for _ in range(7):
            one_point_score(tally.target.grad_log_subset, [0, 2, 4], x)
        assert tally.value == 7 * 3

    def test_full_accounting(self):
        tally = TermTally(_gmm_target(L=6, seed=5))
        one_point_score(tally.target.grad_log_full, np.zeros(2))
        assert tally.value == 6


class TestGenerators:
    def test_gmm_data_deterministic(self):
        a = gen_gmm_data(0.0, 1.0, 2.0, 100, seed=42)
        b = gen_gmm_data(0.0, 1.0, 2.0, 100, seed=42)
        assert np.array_equal(a, b)

    def test_gmm_data_mean(self):
        draws = gen_gmm_data(0.0, 1.0, 2.0, 100_000, seed=8)
        # mixture mean (theta1 + theta1 + theta2) / 2 = 0.5
        sd = draws.std()
        assert abs(draws.mean() - 0.5) < 3 * sd / np.sqrt(draws.size)

    def test_logreg_data_label_frequency(self):
        X, y = gen_logreg_data(1000, 2, [0.0, 0.0], seed=6)
        assert X.shape == (1000, 2)
        assert 0.45 <= y.mean() <= 0.55

    def test_logreg_data_deterministic(self):
        a = gen_logreg_data(50, 3, [1.0, 0.0, -1.0], seed=2)
        b = gen_logreg_data(50, 3, [1.0, 0.0, -1.0], seed=2)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            gen_gmm_data(0.0, 1.0, 2.0, 0, seed=1)
        with pytest.raises(ValueError):
            gen_logreg_data(0, 2, [0.0, 0.0], seed=1)
