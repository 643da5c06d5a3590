import numpy as np
import pytest

from steinlab import (
    DecomposableTarget,
    DivergenceError,
    SgldConfig,
    iid_gaussian,
    make_gaussian,
    sgld_chain,
)
from steinlab.rng import make_generator, uniform_subset, uniform_subsets


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


class TestSgldChain:
    def test_seeded_determinism(self):
        cfg = SgldConfig(step=1e-2, batch=3, steps=200, init=0.0, seed=12)
        target = _std_normal_target()
        a = sgld_chain(target.with_fresh_counter(), cfg)
        b = sgld_chain(target.with_fresh_counter(), cfg)
        assert np.array_equal(a.points, b.points)

    def test_shape_and_finiteness(self):
        target = make_gaussian([0.0, 1.0], [1.0, 2.0], 5)
        chain = sgld_chain(
            target, SgldConfig(step=1e-2, batch=2, steps=123, init=[0.0, 0.0], seed=3)
        )
        assert chain.points.shape == (123, 2)
        assert np.all(np.isfinite(chain.points))

    def test_eval_accounting(self):
        target = _std_normal_target(L=7)
        sgld_chain(target, SgldConfig(step=1e-3, batch=4, steps=50, init=0.0, seed=2))
        assert target.eval_counter.value == 50 * 4

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
            grad_log_term=lambda l, x: np.full(1, 100.0),
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
        other.grad_log_full(np.zeros(1))
        second = sgld_chain(other, cfg)
        assert np.array_equal(first.points, second.points)


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

    def test_validation(self):
        with pytest.raises(ValueError, match="subset size"):
            uniform_subset(make_generator(0), 5, 6)
        with pytest.raises(ValueError, match="subset size"):
            uniform_subset(make_generator(0), 5, 0)


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
