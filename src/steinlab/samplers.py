"""Candidate-sample generators: SGLD chains and i.i.d. Gaussian references.

SGLD has one stepping engine.  ``sgld_chain(target, SgldSweep(configs))``
steps every chain of a sweep together: the chains share one ``(K, d)``
iterate matrix, so each step makes one ``grad_log_prior`` call and one
``grad_log_terms`` call on a ``(K, batch)`` index matrix, however many
chains there are.  Each chain still draws its minibatch, then its noise,
from its own stream, and every row of a stacked score call is computed as
the one-row call would compute it, so a chain's iterates are bit-identical
to running it alone.  ``sgld_chain(target, SgldConfig)`` is the one-chain
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import SampleBatch
from .errors import DivergenceError, NonFiniteScoreError
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
        if not math.isfinite(self.step):
            raise ValueError(f"step = {self.step!r} is not finite")
        if self.batch < 1:
            raise ValueError("minibatch size must be at least 1")
        if self.steps < 1:
            raise ValueError("chain length must be at least 1")


@dataclass(frozen=True)
class SgldSweep:
    """Chains stepped in lockstep by one ``sgld_chain`` call.

    The chains may differ in step size, start and seed but share ``batch``
    and chain length.  ``steps`` is the total number of SGLD steps of the
    sweep: the sum of the chains' lengths.
    """

    configs: tuple

    def __post_init__(self):
        configs = tuple(self.configs)
        if not configs:
            raise ValueError("a sweep needs at least one chain")
        if len({(c.batch, c.steps) for c in configs}) > 1:
            raise ValueError("the chains of a sweep must share batch and steps")
        object.__setattr__(self, "configs", configs)

    @property
    def steps(self) -> int:
        return sum(c.steps for c in self.configs)


def sgld_chain(target, config):
    """Run SGLD chains and return each chain's post-update iterates, in order.

    Update: ``x <- x + (step/2) * ghat(x) + sqrt(step) * xi`` with
    ``xi ~ N(0, I)`` and ``ghat`` the full prior score plus ``(L/batch)``
    times the score sum over a fresh without-replacement minibatch drawn
    each step from the chain's own stream (minibatch first, then noise).

    A chain diverges at step t when its step-t score is non-finite or its
    step-t iterate is.  It then leaves the stacked rows and draws nothing
    more; the other chains go on, their step-t scores recomputed without it
    when the score was at fault.

    ``config`` is an ``SgldConfig`` or an ``SgldSweep``.  For one config the
    result is the chain's ``SampleBatch``, and a divergence raises
    ``DivergenceError`` naming the step.  For a sweep it is a list holding,
    per config in order, the ``SampleBatch`` or the ``DivergenceError``.
    Each step consumes ``batch`` term-gradient evaluations per running
    chain, plus those of any score call recomputed after a divergence.
    """
    if isinstance(config, SgldConfig):
        (result,) = _run_sweep(target, (config,))
        if isinstance(result, DivergenceError):
            raise result
        return result
    return _run_sweep(target, config.configs)


def _initial_point(target, init) -> np.ndarray:
    x = np.asarray(init, dtype=np.float64).reshape(-1)
    if x.shape == (1,) and target.dim > 1:
        x = np.full(target.dim, float(x[0]))
    if x.shape[0] != target.dim:
        raise ValueError(
            f"init has dimension {x.shape[0]}, target expects {target.dim}"
        )
    return x


def _run_sweep(target, configs) -> list:
    batch, steps, dim = configs[0].batch, configs[0].steps, target.dim
    if batch > target.L:
        raise ValueError(f"minibatch size {batch} exceeds the {target.L} terms")
    results = [None] * len(configs)
    out = np.empty((len(configs), steps, dim))
    gens = [make_generator(c.seed) for c in configs]
    # Per stacked row: its chain's index in ``configs`` and its state.
    chains = np.arange(len(configs))
    X = np.stack([_initial_point(target, c.init) for c in configs])
    half = np.array([[0.5 * c.step] for c in configs])
    noise_scale = np.array([[math.sqrt(c.step)] for c in configs])
    ratio = target.L / batch
    for t in range(steps):
        idx = np.array([uniform_subset(gens[k], target.L, batch) for k in chains])
        while True:
            try:
                terms = target.grad_log_terms(idx, X)
                break
            except NonFiniteScoreError as err:
                keep = np.arange(len(chains)) != err.point_index
                _diverged(results, configs, chains[~keep], t, err)
                chains, X, idx, half, noise_scale = (
                    a[keep] for a in (chains, X, idx, half, noise_scale)
                )
                if not len(chains):
                    return results
        noise = np.array([gens[k].standard_normal(dim) for k in chains])
        ghat = target.grad_log_prior(X) + ratio * terms
        X = X + half * ghat + noise_scale * noise
        keep = np.isfinite(X).all(axis=1)
        if not keep.all():
            _diverged(results, configs, chains[~keep], t)
            chains, X, half, noise_scale = (
                a[keep] for a in (chains, X, half, noise_scale)
            )
            if not len(chains):
                return results
        out[chains, t] = X
    for k in chains:
        results[k] = SampleBatch(out[k])
    return results


def _diverged(results, configs, chains, t, cause=None):
    """Record ``DivergenceError(step=t)`` for each chain index in ``chains``."""
    for k in chains:
        message = f"chain diverged at step {t} (step size {configs[k].step!r})"
        if cause is not None:
            message += f": {cause}"
        results[k] = DivergenceError(message, step=t)
        results[k].__cause__ = cause


def iid_gaussian(n, d, mu, sigma, seed) -> SampleBatch:
    """n i.i.d. N(mu, sigma^2 I_d) rows, deterministic given the seed."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    mu = np.broadcast_to(np.atleast_1d(np.asarray(mu, dtype=np.float64)), (d,))
    gen = make_generator(seed)
    return SampleBatch(mu + float(sigma) * gen.standard_normal((n, d)))
