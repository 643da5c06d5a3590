"""Particle updates that descend the kernel Stein discrepancy.

Each round moves every particle along

    g(z) = (1/n) sum_j [ k(x_j, z) * B_j + grad_x k(x_j, z) ],

computed from the round-start positions, where B_j is the full score of
source particle j or its (L/m)-scaled subset score under a fresh per-round
assignment of one independent size-m subset per particle.  Directions are
assembled in fixed row blocks and concatenated in order, so a run is
bit-identical for any worker count.  Each block computes its own n x 256
kernel and profile columns and sums their products with the sources over
256-row source blocks, so results are also bit-identical for any BLAS
thread count.

A run spends little arithmetic per round, so :func:`run_ssvgd` keeps the
per-round calls few.  The subsets of several consecutive rounds come from
one draw of the run's stream, n rows per round, with the number of rounds
per draw bounded so that the draw's ``(rounds * n, L)`` pool holds at most
``SUBSET_POOL_ENTRIES`` entries; one draw reads the same uniforms as one
draw per round, so the assignments are the same.  Under the
``median_per_round`` bandwidth policy each round builds its particles'
``n x n`` squared distances once and hands them to both the median
heuristic and the direction (``sq=``), whose blocks take column slices of
it; every element is summed on its own, so the bits do not change.  The
``fixed`` policy needs no median, and its blocks keep building their own
distances, so its memory stays O(256 n), not O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .discrepancy import SampleBatch, SubsetAssignment, scaled_scores
from .errors import DivergenceError
from .parallel import ordered_map, resolve_threads, row_blocks, tree_reduce_sum
from .rng import make_generator, uniform_subsets

CONSTANT = "constant"
ADAGRAD = "adagrad"
SCHEDULES = (CONSTANT, ADAGRAD)

FIXED = "fixed"
MEDIAN_PER_ROUND = "median_per_round"
BANDWIDTH_POLICIES = (FIXED, MEDIAN_PER_ROUND)

# One subset draw serves as many consecutive rounds as keep its
# (rounds * n, L) int64 pool within this many entries (256 KiB).  A draw
# for all rounds at once would hold O(rounds * n * L) memory.
SUBSET_POOL_ENTRIES = 2 ** 15


@dataclass(frozen=True)
class SvgdConfig:
    """Particle-descent run parameters.

    ``batch == target.L`` gives deterministic full-score descent.  With the
    ``adagrad`` schedule the per-coordinate step is
    ``step / (fudge + sqrt(accumulated squared direction))``.  A bandwidth
    policy of None resolves to ``median_per_round`` for the rbf kernel and
    ``fixed`` otherwise.
    """

    rounds: int
    batch: int
    kernel: kernels.KernelSpec
    step: float = 0.05
    schedule: str = ADAGRAD
    fudge: float = 1e-6
    bandwidth_policy: Optional[str] = None
    seed: int = 0
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not self.fudge > 0:
            raise ValueError("fudge must be positive")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.bandwidth_policy is not None and (
            self.bandwidth_policy not in BANDWIDTH_POLICIES
        ):
            raise ValueError(f"unknown bandwidth policy {self.bandwidth_policy!r}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be nonnegative")

    def resolved_bandwidth_policy(self) -> str:
        if self.bandwidth_policy is not None:
            return self.bandwidth_policy
        return default_bandwidth_policy(self.kernel)


def default_bandwidth_policy(kernel) -> str:
    """The policy of a None ``bandwidth_policy``: ``median_per_round`` for
    the rbf kernel, ``fixed`` otherwise."""
    return MEDIAN_PER_ROUND if kernel.family == kernels.RBF else FIXED


@dataclass(frozen=True)
class SsvgdResult:
    """Final particles plus optional trajectory checkpoints.

    ``checkpoints`` holds ``(round, positions, term_evals_so_far)`` tuples at
    every ``checkpoint_every`` rounds; ``term_evals`` is the total count of
    likelihood-term gradients the run consumed.
    """

    final: SampleBatch
    checkpoints: Tuple
    term_evals: int


def ssvgd_direction(batch, target, spec, assignment=None, threads=None,
                    sq=None) -> np.ndarray:
    """Update direction at every particle position.

    Source scores are subset-scaled under ``assignment`` (indexed by source
    particle, following the per-round minibatch scheme) or exact when it is
    None.  Row i is the direction evaluated at particle i.

    ``sq``, when given, is the ``(n, n)`` matrix
    ``kernels.squared_distances(X, X)`` of the particles, and each row block
    takes its columns from it instead of building its own ``n x 256``
    distances; every element is summed on its own, so the direction is the
    same bits either way.  Without it, memory stays O(256 n).
    """
    X = batch.points
    n = batch.n
    if sq is not None and sq.shape != (n, n):
        raise ValueError(
            f"squared distances have shape {sq.shape}, expected {(n, n)}"
        )
    B = scaled_scores(batch, target, assignment)
    workers = resolve_threads(threads)

    sources = row_blocks(n)

    def source_sum(M, Y):
        # M.T @ Y with every matrix product reducing over at most one
        # 256-row source block, summed in a fixed order: OpenBLAS splits
        # longer reductions differently when it threads, which changes the
        # bits with the BLAS thread count.
        return tree_reduce_sum([M[s0:s1].T @ Y[s0:s1] for s0, s1 in sources])

    def block_direction(span):
        i0, i1 = span
        if sq is None:
            S = kernels.squared_distances(X, X[i0:i1])
        else:
            S = sq[:, i0:i1]
        K, P1, _ = kernels.radial_profile(spec, S)
        drift = source_sum(K, B)
        rep = source_sum(P1, X) - X[i0:i1] * P1.sum(axis=0)[:, None]
        return (drift + 2.0 * rep) / n

    parts = ordered_map(block_direction, row_blocks(n), workers)
    direction = np.concatenate(parts, axis=0)
    if not np.isfinite(direction).all():
        bad = int(np.where(~np.isfinite(direction).all(axis=1))[0][0])
        raise DivergenceError(
            f"non-finite update direction at particle {bad}", step=bad
        )
    return direction


def run_ssvgd(init: SampleBatch, target, config: SvgdConfig, threads=None) -> SsvgdResult:
    """Synchronous particle descent for ``config.rounds`` rounds.

    Every round takes a fresh assignment from the run's stream, computes all
    directions from the round-start positions, then steps.  The assignments
    of up to ``SUBSET_POOL_ENTRIES // (n * L)`` consecutive rounds come from
    one draw, n rows per round; that draw reads the stream exactly as one
    draw per round would.  A full batch (``batch == target.L``) draws
    nothing and takes the exact-score path, which is what makes it
    bit-identical to deterministic full-score descent.  Under
    ``median_per_round`` each round builds its particles' ``n x n`` squared
    distances once, for both the median heuristic and the direction.  Each
    round consumes exactly ``n * batch`` term-gradient evaluations.
    """
    if config.batch > target.L:
        raise ValueError(
            f"batch size {config.batch} exceeds the {target.L} terms"
        )
    X = init.points.copy()
    n = X.shape[0]
    gen = make_generator(config.seed)
    policy = config.resolved_bandwidth_policy()
    full_batch = config.batch == target.L
    chunk_rounds = max(1, SUBSET_POOL_ENTRIES // (n * target.L))
    acc = np.zeros_like(X)
    evals_per_round = n * config.batch
    checkpoints = []
    assignment = None
    sq = None
    spec = config.kernel
    for r in range(config.rounds):
        if not full_batch:
            k = r % chunk_rounds
            if k == 0:
                chunk = min(chunk_rounds, config.rounds - r)
                drawn = uniform_subsets(gen, chunk * n, target.L, config.batch)
            # Rounds continue the run's stream, which draw_subsets cannot
            # resume from a seed, so no seed is recorded.
            assignment = SubsetAssignment(
                drawn[k * n:(k + 1) * n], L=target.L, seed=None
            )
        if policy == MEDIAN_PER_ROUND:
            sq = kernels.squared_distances(X, X)
            spec = replace(
                config.kernel,
                bandwidth=kernels.median_heuristic_bandwidth(X, sq=sq),
            )
        direction = ssvgd_direction(
            SampleBatch(X), target, spec, assignment, threads=threads, sq=sq
        )
        if config.schedule == ADAGRAD:
            acc = acc + direction * direction
            X = X + (config.step / (config.fudge + np.sqrt(acc))) * direction
        else:
            X = X + config.step * direction
        if not np.isfinite(X).all():
            raise DivergenceError(f"particles diverged at round {r}", step=r)
        if config.checkpoint_every and (r + 1) % config.checkpoint_every == 0:
            checkpoints.append((r + 1, X.copy(), (r + 1) * evals_per_round))
    return SsvgdResult(
        final=SampleBatch(X),
        checkpoints=tuple(checkpoints),
        term_evals=config.rounds * evals_per_round,
    )
