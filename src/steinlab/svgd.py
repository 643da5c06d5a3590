"""Particle updates that descend the kernel Stein discrepancy.

Each round moves every particle along

    g(z) = (1/n) sum_j [ k(x_j, z) * B_j + grad_x k(x_j, z) ],

computed from the round-start positions, where B_j is the full score of
source particle j or its (L/m)-scaled subset score under a fresh per-round
assignment of one independent size-m subset per particle.  Directions are
assembled in fixed row blocks and concatenated in order, so a run is
bit-identical for any worker count.  Each block computes its own n x 256
kernel and profile columns, so memory is O(256 n), not O(n^2), and sums
their products with the sources over 256-row source blocks, so results are
also bit-identical for any BLAS thread count.
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
        return MEDIAN_PER_ROUND if self.kernel.family == kernels.RBF else FIXED


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


def ssvgd_direction(batch, target, spec, assignment=None, threads=None) -> np.ndarray:
    """Update direction at every particle position.

    Source scores are subset-scaled under ``assignment`` (indexed by source
    particle, following the per-round minibatch scheme) or exact when it is
    None.  Row i is the direction evaluated at particle i.
    """
    X = batch.points
    n = batch.n
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
        K, P1, _ = kernels.radial_profile(
            spec, kernels.squared_distances(X, X[i0:i1])
        )
        drift = source_sum(K, B)
        rep = source_sum(P1, X) - X[i0:i1] * P1.sum(axis=0)[:, None]
        return (drift + 2.0 * rep) / n

    parts = ordered_map(block_direction, row_blocks(n), workers)
    direction = np.concatenate(parts, axis=0)
    if not np.all(np.isfinite(direction)):
        bad = int(np.where(~np.isfinite(direction).all(axis=1))[0][0])
        raise DivergenceError(
            f"non-finite update direction at particle {bad}", step=bad
        )
    return direction


def run_ssvgd(init: SampleBatch, target, config: SvgdConfig, threads=None) -> SsvgdResult:
    """Synchronous particle descent for ``config.rounds`` rounds.

    Every round draws a fresh assignment from the run's stream, computes all
    directions from the round-start positions, then steps.  The draw happens
    even when ``batch == target.L`` (the stream advances identically), but
    the full-batch case takes the exact-score path, which is what makes it
    bit-identical to deterministic full-score descent.  Each round consumes
    exactly ``n * batch`` term-gradient evaluations.
    """
    if config.batch > target.L:
        raise ValueError(
            f"batch size {config.batch} exceeds the {target.L} terms"
        )
    X = init.points.copy()
    n = X.shape[0]
    gen = make_generator(config.seed)
    policy = config.resolved_bandwidth_policy()
    acc = np.zeros_like(X)
    evals_per_round = n * config.batch
    checkpoints = []
    for r in range(config.rounds):
        if policy == MEDIAN_PER_ROUND:
            spec = replace(
                config.kernel, bandwidth=kernels.median_heuristic_bandwidth(X)
            )
        else:
            spec = config.kernel
        subsets = uniform_subsets(gen, n, target.L, config.batch)
        if config.batch == target.L:
            assignment = None
        else:
            # Rounds continue the run's stream, which draw_subsets cannot
            # resume from a seed, so no seed is recorded.
            assignment = SubsetAssignment(subsets, L=target.L, seed=None)
        direction = ssvgd_direction(
            SampleBatch(X), target, spec, assignment, threads=threads
        )
        if config.schedule == ADAGRAD:
            acc = acc + direction * direction
            X = X + (config.step / (config.fudge + np.sqrt(acc))) * direction
        else:
            X = X + config.step * direction
        if not np.all(np.isfinite(X)):
            raise DivergenceError(f"particles diverged at round {r}", step=r)
        if config.checkpoint_every and (r + 1) % config.checkpoint_every == 0:
            checkpoints.append((r + 1, X.copy(), (r + 1) * evals_per_round))
    return SsvgdResult(
        final=SampleBatch(X),
        checkpoints=tuple(checkpoints),
        term_evals=config.rounds * evals_per_round,
    )
