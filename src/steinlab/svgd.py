"""Particle updates that descend the kernel Stein discrepancy.

Each round moves every particle along

    g(z) = (1/n) sum_j [ k(x_j, z) * B_j + grad_x k(x_j, z) ],

computed from the round-start positions, where B_j is the full score of
source particle j or its (L/m)-scaled subset score under a fresh per-round
``(n, m)`` index matrix of one independent size-m subset per particle.
Directions are assembled in fixed row blocks and concatenated in order, so
a run is bit-identical for any worker count.  Each block computes its own
n x 256 kernel and profile columns from its column slice of the particles'
``n x n`` squared distances and sums their products with the sources over
256-row source blocks, so results are also bit-identical for any BLAS
thread count.

A run spends little arithmetic per round, so :func:`run_ssvgd` keeps the
per-round calls few.  A round calls ``kernels.squared_distances(X, X)``,
the package's one exact squared-distance summation, once; under
``median_per_round``, ``kernels.median_heuristic_bandwidth`` on that
matrix; then :func:`ssvgd_direction`, which calls
``discrepancy.scaled_scores`` (one ``DecomposableTarget.grad_log_subset``
call, or ``grad_log_full`` on a full batch, whenever one call covers the
particles) and ``kernels.radial_profile`` once per 256-column block,
asking it for ``k`` and ``p1`` only; then it steps the particles in place.
Up to ``BLOCK_ROWS`` = 256 particles make one block, which the direction
computes directly, without the blocked path's block list, thread pool,
reduction tree and concatenation; its products have the shapes of that
path's one block, so the bits are the same.  The particles stay in one
``SampleBatch`` for the whole run, and a round's median bandwidth reaches
``radial_profile`` in a tuple of the kernel's fields, not a new
``KernelSpec``.  The subsets of several consecutive rounds come from
one draw of the run's stream, n rows per round, with the number of rounds
per draw bounded so that the draw's ``(rounds * n, L)`` pool holds at most
``rng.SUBSET_POOL_ENTRIES`` entries; one draw reads the same uniforms as
one draw per round, so the subsets are the same.  Under either bandwidth
policy each round builds its particles' ``n x n`` squared distances once,
for the direction and, under ``median_per_round``, the median heuristic, so
a round holds O(n^2) memory.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .discrepancy import SampleBatch, scaled_scores
from .errors import DivergenceError, check_int, check_real
from .parallel import BLOCK_ROWS, ordered_map, row_blocks, tree_reduce_sum
from .rng import SUBSET_POOL_ENTRIES, make_generator, uniform_subsets

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
    ``step / (fudge + sqrt(accumulated squared direction))``; ``step`` and
    ``fudge`` must be positive and finite.  A bandwidth policy of None is
    replaced on construction by :func:`default_bandwidth_policy` of the
    kernel.
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
        for name, minimum in (("rounds", 0), ("batch", 1), ("checkpoint_every", 0),
                              ("seed", None)):
            check_int(name, getattr(self, name), minimum)
        check_real("step", self.step, positive=True)
        check_real("fudge", self.fudge, positive=True)
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.bandwidth_policy is None:
            object.__setattr__(
                self, "bandwidth_policy", default_bandwidth_policy(self.kernel)
            )
        if self.bandwidth_policy not in BANDWIDTH_POLICIES:
            raise ValueError(f"unknown bandwidth policy {self.bandwidth_policy!r}")


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


def ssvgd_direction(batch, target, spec, sq, subsets=None, threads=1) -> np.ndarray:
    """Update direction at every particle position.

    ``sq`` is the particles' ``(n, n)`` squared distances
    ``kernels.squared_distances(X, X)``; each row block reads its columns.
    Source scores are subset-scaled under the ``(n, m)`` index matrix
    ``subsets`` (row j for source particle j, following the per-round
    minibatch scheme) or exact when it is None.  Row i is the direction
    evaluated at particle i.  Up to ``BLOCK_ROWS`` particles make one
    block, computed directly with the blocked path's shapes and bits.
    """
    X = batch.points
    n = batch.n
    sq = np.asarray(sq, dtype=np.float64)
    if sq.shape != (n, n):
        raise ValueError(f"squared distances have shape {sq.shape}, expected {(n, n)}")
    B = scaled_scores(batch, target, subsets)
    one_block = n <= BLOCK_ROWS
    sources = None if one_block else row_blocks(n)

    def source_sum(M, Y):
        # M.T @ Y with every matrix product reducing over at most one
        # 256-row source block, summed in a fixed order: OpenBLAS splits
        # longer reductions differently when it threads, which changes the
        # bits with the BLAS thread count.
        if one_block:
            return M.T @ Y
        return tree_reduce_sum([M[s0:s1].T @ Y[s0:s1] for s0, s1 in sources])

    def block_direction(span):
        i0, i1 = span
        shape = (n, i1 - i0)
        K, P1, _ = kernels.radial_profile(
            spec, sq[:, i0:i1], out=(np.empty(shape), np.empty(shape), None)
        )
        drift = source_sum(K, B)
        rep = source_sum(P1, X) - X[i0:i1] * P1.sum(axis=0)[:, None]
        return (drift + 2.0 * rep) / n

    if one_block:
        check_int("thread count", threads, 1)
        direction = block_direction((0, n))
    else:
        direction = np.concatenate(ordered_map(block_direction, sources, threads), axis=0)
    if not np.isfinite(direction).all():
        bad = int(np.where(~np.isfinite(direction).all(axis=1))[0][0])
        raise DivergenceError(
            f"non-finite update direction at particle {bad}", step=bad
        )
    return direction


# The kernel fields that ``kernels.radial_profile`` reads, which carry a
# median-policy round's bandwidth without building and re-checking a
# ``KernelSpec``.  That bandwidth is positive, unless a squared median
# underflows to zero, which makes the direction non-finite and so raises.
_RoundKernel = namedtuple("_RoundKernel", "family beta alpha bandwidth")


def run_ssvgd(init: SampleBatch, target, config: SvgdConfig, threads=1) -> SsvgdResult:
    """Synchronous particle descent for ``config.rounds`` rounds.

    Every round takes fresh subsets from the run's stream, computes all
    directions from the round-start positions, then steps.  The subsets
    of up to ``SUBSET_POOL_ENTRIES // (n * L)`` consecutive rounds come from
    one draw, n rows per round; that draw reads the stream exactly as one
    draw per round would.  A full batch (``batch == target.L``) draws
    nothing and takes the exact-score path, which is what makes it
    bit-identical to deterministic full-score descent.  Each round builds
    its particles' ``n x n`` squared distances once, for the direction and,
    under ``median_per_round``, the median heuristic, so its memory is
    O(n^2).  Each round consumes exactly ``n * batch`` term-gradient
    evaluations.  The particles are stepped in place, in one
    ``SampleBatch`` for the whole run, and checked finite after every step.
    """
    if config.batch > target.L:
        raise ValueError(
            f"batch size {config.batch} exceeds the {target.L} terms"
        )
    batch = SampleBatch(init.points.copy())
    X = batch.points
    n = batch.n
    gen = make_generator(config.seed)
    full_batch = config.batch == target.L
    chunk_rounds = max(1, SUBSET_POOL_ENTRIES // (n * target.L))
    median_per_round = config.bandwidth_policy == MEDIAN_PER_ROUND
    adagrad = config.schedule == ADAGRAD
    acc = np.zeros_like(X)
    evals_per_round = n * config.batch
    checkpoints = []
    subsets = None
    kernel = spec = config.kernel
    for r in range(config.rounds):
        if not full_batch:
            k = r % chunk_rounds
            if k == 0:
                chunk = min(chunk_rounds, config.rounds - r)
                drawn = uniform_subsets(gen, chunk * n, target.L, config.batch)
            subsets = drawn[k * n:(k + 1) * n]
        sq = kernels.squared_distances(X, X)
        if median_per_round:
            spec = _RoundKernel(kernel.family, kernel.beta, kernel.alpha,
                                kernels.median_heuristic_bandwidth(sq))
        direction = ssvgd_direction(batch, target, spec, sq, subsets, threads=threads)
        # The steps of X = X + (step / (fudge + sqrt(acc))) * direction, in
        # place, with acc = acc + direction^2 before it.
        if adagrad:
            acc += direction * direction
            rate = np.sqrt(acc)
            rate += config.fudge
            np.divide(config.step, rate, out=rate)
            rate *= direction
            X += rate
        else:
            X += config.step * direction
        if not np.isfinite(X).all():
            raise DivergenceError(f"particles diverged at round {r}", step=r)
        if config.checkpoint_every and (r + 1) % config.checkpoint_every == 0:
            checkpoints.append((r + 1, X.copy(), (r + 1) * evals_per_round))
    return SsvgdResult(
        final=batch,
        checkpoints=tuple(checkpoints),
        term_evals=config.rounds * evals_per_round,
    )
