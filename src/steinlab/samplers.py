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

The draws are made ahead of the steps, a chunk of steps at a time: each
running chain reads its stream for every step of the chunk in stepping
order (step t's minibatch uniforms, then its noise), and one
``rng.subsets_from_uniforms`` call turns the uniforms of every chain and
step into minibatches.  A chunk of a K-chain sweep takes as many steps
as keep ``K * steps * max(batch, d)`` within ``SUBSET_POOL_ENTRIES``, so
it holds at most that many uniforms and as many noise entries, and one
step at least.  A chain that diverges discards the rest of its draws with
its stream, so the chunking changes no bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import SampleBatch
from .errors import DivergenceError, NonFiniteScoreError, check_int, check_real
from .rng import SUBSET_POOL_ENTRIES, make_generator, subsets_from_uniforms


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
        check_real("step", self.step, positive=True)
        for name, minimum in (("batch", 1), ("steps", 1), ("seed", None)):
            check_int(name, getattr(self, name), minimum)


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
    step-t iterate is.  It then leaves the stacked rows, and the draws it
    made ahead are dropped with its stream; the other chains go on, their
    step-t scores recomputed without it when the score was at fault.

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
    if not np.isfinite(x).all():
        raise ValueError(f"init = {x.tolist()!r} is not finite")
    return x


def _run_sweep(target, configs) -> list:
    batch, steps, dim = configs[0].batch, configs[0].steps, target.dim
    if batch > target.L:
        raise ValueError(f"minibatch size {batch} exceeds the {target.L} terms")
    X = np.stack([_initial_point(target, c.init) for c in configs])
    results = [None] * len(configs)
    out = np.empty((len(configs), steps, dim))
    gens = [make_generator(c.seed) for c in configs]
    # Per stacked row: its chain's index in ``configs``, its state and its
    # draws for the steps of the current chunk.
    chains = np.arange(len(configs))
    half = np.array([[0.5 * c.step] for c in configs])
    noise_scale = np.array([[math.sqrt(c.step)] for c in configs])
    ratio = target.L / batch
    chunk_steps = max(1, SUBSET_POOL_ENTRIES // (len(configs) * max(batch, dim)))
    for t0 in range(0, steps, chunk_steps):
        idx, noise = _draw_chunk(
            [gens[k] for k in chains], min(chunk_steps, steps - t0), target.L, batch, dim
        )
        for s in range(idx.shape[1]):
            t = t0 + s
            while True:
                try:
                    terms = target.grad_log_terms(idx[:, s], X)
                    break
                except NonFiniteScoreError as err:
                    keep = np.arange(len(chains)) != err.point_index
                    _diverged(results, configs, chains[~keep], t, err)
                    chains, X, half, noise_scale, idx, noise = (
                        a[keep] for a in (chains, X, half, noise_scale, idx, noise)
                    )
                    if not len(chains):
                        return results
            ghat = target.grad_log_prior(X) + ratio * terms
            X = X + half * ghat + noise_scale * noise[:, s]
            keep = np.isfinite(X).all(axis=1)
            if not keep.all():
                _diverged(results, configs, chains[~keep], t)
                chains, X, half, noise_scale, idx, noise = (
                    a[keep] for a in (chains, X, half, noise_scale, idx, noise)
                )
                if not len(chains):
                    return results
            out[chains, t] = X
    for k in chains:
        results[k] = SampleBatch(out[k])
    return results


def _draw_chunk(gens, steps, pool_size, batch, dim):
    """Each stream's minibatches and noise for ``steps`` SGLD steps, as
    ``(chains, steps, batch)`` and ``(chains, steps, dim)`` arrays.

    Every stream is read as its chain steps: step t's ``batch`` uniforms,
    then its ``dim`` normals, then step t + 1's.  All the uniforms then
    become minibatches in one ``subsets_from_uniforms`` call.
    """
    u = np.empty((len(gens), steps, batch))
    noise = np.empty((len(gens), steps, dim))
    for gen, u_rows, noise_rows in zip(gens, u, noise):
        random, standard_normal = gen.random, gen.standard_normal
        for u_step, noise_step in zip(u_rows, noise_rows):
            random(out=u_step)
            standard_normal(out=noise_step)
    idx = subsets_from_uniforms(u.reshape(-1, batch), pool_size)
    return idx.reshape(u.shape), noise


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
    check_int("n", n, 1)
    check_int("d", d, 1)
    check_real("sigma", sigma, positive=True)
    mu = np.broadcast_to(np.atleast_1d(np.asarray(mu, dtype=np.float64)), (d,))
    gen = make_generator(seed)
    return SampleBatch(mu + float(sigma) * gen.standard_normal((n, d)))
