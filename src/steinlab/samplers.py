"""Candidate-sample generators: SGLD chains and i.i.d. Gaussian references."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import SampleBatch
from .errors import DivergenceError
from .rng import make_generator, uniform_subset


@dataclass(frozen=True)
class SgldConfig:
    """Constant step-size Langevin sampler with minibatch score estimates.

    ``batch`` is the number of likelihood terms used per gradient estimate;
    it must not exceed the target's L (checked when the chain runs).
    """

    step: float
    batch: int
    steps: int
    init: object
    seed: int

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step size must be positive")
        if self.batch < 1:
            raise ValueError("minibatch size must be at least 1")
        if self.steps < 1:
            raise ValueError("chain length must be at least 1")


def sgld_chain(target, config: SgldConfig) -> SampleBatch:
    """Run the chain and return all post-update iterates, in order.

    Update: ``x <- x + (step/2) * ghat(x) + sqrt(step) * xi`` with
    ``xi ~ N(0, I)`` and ``ghat`` the full prior score plus ``(L/batch)``
    times the score sum over a fresh without-replacement minibatch drawn
    each step from the chain's own stream (minibatch first, then noise).
    Consumes exactly ``steps * batch`` term-gradient evaluations.
    """
    if config.batch > target.L:
        raise ValueError(
            f"minibatch size {config.batch} exceeds the {target.L} terms"
        )
    x = np.asarray(config.init, dtype=np.float64).reshape(-1)
    if x.shape == (1,) and target.dim > 1:
        x = np.full(target.dim, float(x[0]))
    if x.shape[0] != target.dim:
        raise ValueError(
            f"init has dimension {x.shape[0]}, target expects {target.dim}"
        )
    gen = make_generator(config.seed)
    ratio = target.L / config.batch
    half = 0.5 * config.step
    noise_scale = math.sqrt(config.step)
    out = np.empty((config.steps, target.dim))
    for t in range(config.steps):
        idx = uniform_subset(gen, target.L, config.batch)
        ghat = target.grad_log_prior(x) + ratio * target.grad_log_terms(idx, x)
        x = x + half * ghat + noise_scale * gen.standard_normal(target.dim)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"chain diverged at step {t} (step size {config.step!r})",
                step=t,
            )
        out[t] = x
    return SampleBatch(out)


def iid_gaussian(n, d, mu, sigma, seed) -> SampleBatch:
    """n i.i.d. N(mu, sigma^2 I_d) rows, deterministic given the seed."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    mu = np.broadcast_to(np.atleast_1d(np.asarray(mu, dtype=np.float64)), (d,))
    gen = make_generator(seed)
    return SampleBatch(mu + float(sigma) * gen.standard_normal((n, d)))
