"""Exact and subsampled kernel Stein discrepancies.

The discrepancy of a sample ``(x_i)`` against a target score is ``||w||_2``
with per-coordinate squared pieces

    w_j^2 = (1/n^2) sum_{i,i'} [ B_ij B_i'j k + B_ij dk/dy_j + B_i'j dk/dx_j
                                 + d2k/dx_j dy_j ](x_i, x_i'),

where row i of ``B`` is either the full score of ``x_i`` (exact case) or
``(L/m)`` times the score of a subset posterior built from an independent
uniform size-m subset of the L likelihood terms.  The double sum is
accumulated over fixed 256-row blocks combined by a fixed reduction tree, so
results are bit-identical for any worker count.  Within a block pair the
work goes one coordinate at a time on 256 x 256 matrices: one difference
matrix per coordinate, shared by the squared distance and that coordinate's
Stein term, so a worker holds O(256^2 * d) floats and never an
``(n, n, d)`` or ``(256, 256, d)`` array.  The kernel profile takes one
``pow`` per block pair for the power families (see
:func:`kernels.radial_profile`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import NonFiniteScoreError, NumericalConsistencyError
from .parallel import ordered_map, resolve_threads, row_blocks, tree_reduce_sum
from .rng import make_generator, uniform_subsets

NEGATIVE_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SampleBatch:
    """Ordered n x d matrix of sample points; row order is meaningful."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a nonempty n x d matrix")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def take(self, n) -> "SampleBatch":
        """Batch of the first ``n`` points, preserving order."""
        if not 1 <= n <= self.n:
            raise ValueError(f"cannot take {n} of {self.n} points")
        return SampleBatch(self.points[:n])


@dataclass(frozen=True)
class SubsetAssignment:
    """One size-m subset of the L term indices per sample point.

    ``subsets`` is an (n, m) int64 array whose rows are sorted ascending;
    ``seed`` records the stream that generated it so the assignment can be
    regenerated exactly with :func:`draw_subsets`.
    """

    subsets: np.ndarray
    L: int
    seed: int

    def __post_init__(self):
        subs = np.asarray(self.subsets, dtype=np.int64)
        if subs.ndim != 2 or subs.shape[0] < 1:
            raise ValueError("subsets must be a nonempty n x m index matrix")
        if not 1 <= subs.shape[1] <= self.L:
            raise ValueError(f"subset size {subs.shape[1]} not in [1, {self.L}]")
        if subs.min() < 0 or subs.max() >= self.L:
            raise ValueError(f"subset indices must lie in [0, {self.L})")
        if subs.shape[1] > 1 and not np.all(subs[:, 1:] > subs[:, :-1]):
            raise ValueError("subset rows must be strictly ascending")
        object.__setattr__(self, "subsets", subs)

    @property
    def n(self) -> int:
        return self.subsets.shape[0]

    @property
    def m(self) -> int:
        return self.subsets.shape[1]


@dataclass(frozen=True)
class DiscrepancyResult:
    """Discrepancy value with its per-coordinate pieces and evaluation cost.

    ``value = sqrt(sum_j max(w_sq_j, 0))``; ``w_sq`` is stored after
    clamping.  ``term_evals`` counts likelihood-term gradient evaluations
    consumed: ``n * m`` on the subsampled path and ``n * L`` on the exact
    path.  ``seed`` is None for the exact path.
    """

    value: float
    w_sq: np.ndarray
    n: int
    m: int
    L: int
    term_evals: int
    seed: Optional[int]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "w_sq": [float(v) for v in self.w_sq],
            "n": self.n,
            "m": self.m,
            "L": self.L,
            "term_evals": self.term_evals,
            "seed": self.seed,
        }


def draw_subsets(n, L, m, seed) -> SubsetAssignment:
    """n independent uniform size-m subsets of the L term indices.

    Deterministic given the seed: subsets come point by point from a single
    Philox stream (partial Fisher-Yates per point, point i's draws before
    point i+1's), so the assignment does not depend on how later computation
    is parallelized.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 1 <= m <= L:
        raise ValueError(f"subset size m={m} not in [1, L={L}]")
    gen = make_generator(seed)
    return SubsetAssignment(uniform_subsets(gen, n, L, m), L=int(L), seed=int(seed))


def scaled_scores(batch, target, assignment=None) -> np.ndarray:
    """Score matrix B.

    Row i is ``(L/m) * grad_log_subset(sigma_i, x_i)`` under an assignment,
    or the exact ``grad_log_full(x_i)`` when ``assignment`` is None.
    Consumes ``n * m`` (respectively ``n * L``) term-gradient evaluations.
    """
    X = batch.points
    if assignment is not None:
        if assignment.L != target.L:
            raise ValueError(
                f"assignment is over {assignment.L} terms, target has {target.L}"
            )
        if assignment.n != batch.n:
            raise ValueError(
                f"assignment covers {assignment.n} points, batch has {batch.n}"
            )
        scale = target.L / assignment.m
    B = np.empty_like(X)
    for i in range(batch.n):
        try:
            if assignment is None:
                B[i] = target.grad_log_full(X[i])
            else:
                B[i] = scale * target.grad_log_subset(assignment.subsets[i], X[i])
        except NonFiniteScoreError as err:
            err.point_index = i
            raise
    return B


def _block_pair_terms(X, B, spec, rows_a, rows_b):
    """Summed pairwise Stein terms (and their peak magnitude) for one
    ordered block pair; off-diagonal pairs are doubled to stand in for
    their mirror image.

    Works one coordinate at a time on ``(rows_a, rows_b)`` matrices: the
    differences ``D_j`` are built once and shared by the squared distance
    and every coordinate's term

        T_j = K (Ba_j Bb_j^T) + 2 P1 D_j (Bb_j - Ba_j) - 4 P2 D_j^2 - 2 P1,

    which is assembled in three reused buffers, so memory is d + O(1)
    block matrices.
    """
    a0, a1 = rows_a
    b0, b1 = rows_b
    Ba, Bb = B[a0:a1].T, B[b0:b1].T
    D = list(kernels.coordinate_differences(X[a0:a1], X[b0:b1]))
    K, P1, P2 = kernels.radial_profile(spec, kernels.sum_of_squares(D))
    two_p1 = 2.0 * P1
    four_p2 = 4.0 * P2
    T, work, gap = np.empty_like(K), np.empty_like(K), np.empty_like(K)
    total = np.empty(len(D))
    peak = 0.0
    for j, Dj in enumerate(D):
        ba, bb = Ba[j, :, None], Bb[j, None, :]
        np.multiply(ba, bb, out=T)
        T *= K
        np.multiply(two_p1, Dj, out=work)
        np.subtract(bb, ba, out=gap)
        work *= gap
        T += work
        np.multiply(Dj, Dj, out=work)
        work *= four_p2
        T -= work
        T -= two_p1
        total[j] = T.sum()
        peak = max(peak, float(T.max()), -float(T.min()))
    if a0 != b0:
        total = 2.0 * total
    return total, peak


def coord_stein_sums(batch, B, spec, threads=None) -> np.ndarray:
    """Per-coordinate squared discrepancy pieces w_j^2, before clamping.

    Each w_j^2 is a squared norm, so genuine negatives are bugs: values
    below ``-1e-8 * scale`` (scale = the largest pairwise term magnitude
    encountered) raise :class:`NumericalConsistencyError` instead of being
    silently repaired.
    """
    X = batch.points
    Bm = np.asarray(B, dtype=np.float64)
    if Bm.shape != X.shape:
        raise ValueError(
            f"score matrix shape {Bm.shape} does not match batch {X.shape}"
        )
    workers = resolve_threads(threads)
    blocks = row_blocks(batch.n)
    tasks = [(a, b) for ia, a in enumerate(blocks) for b in blocks[ia:]]
    results = ordered_map(
        lambda pair: _block_pair_terms(X, Bm, spec, pair[0], pair[1]),
        tasks,
        workers,
    )
    w_sq = tree_reduce_sum([r[0] for r in results]) / float(batch.n) ** 2
    scale = max(r[1] for r in results)
    floor = -NEGATIVE_TOLERANCE * scale
    if np.any(w_sq < floor):
        j = int(np.argmin(w_sq))
        raise NumericalConsistencyError(
            f"w_sq[{j}] = {w_sq[j]!r} is below the float-noise floor {floor!r}"
        )
    return w_sq


def _finish(batch, target, spec, assignment, seed, threads, norm) -> DiscrepancyResult:
    if norm != "l2":
        raise ValueError(f"only the 'l2' combining norm is implemented, got {norm!r}")
    before = target.eval_counter.value
    B = scaled_scores(batch, target, assignment)
    term_evals = target.eval_counter.value - before
    w_sq = coord_stein_sums(batch, B, spec, threads=threads)
    clamped = np.maximum(w_sq, 0.0)
    m = assignment.m if assignment is not None else target.L
    return DiscrepancyResult(
        value=float(np.sqrt(clamped.sum())),
        w_sq=clamped,
        n=batch.n,
        m=int(m),
        L=int(target.L),
        term_evals=int(term_evals),
        seed=seed,
    )


def sksd(batch, target, spec, m, seed, threads=None, norm="l2") -> DiscrepancyResult:
    """Stochastic kernel Stein discrepancy with one independent size-m
    subset of likelihood terms per sample point.

    With ``m == target.L`` the drawn subsets are necessarily the full index
    set and the result is bit-identical to :func:`ksd`.  Evaluation
    accounting reads the target's counter, so the target must not be shared
    with concurrent work during the call.  ``norm`` selects how the
    per-coordinate pieces combine; only "l2" is shipped.
    """
    assignment = draw_subsets(batch.n, target.L, m, seed)
    return _finish(batch, target, spec, assignment, int(seed), threads, norm)


def ksd(batch, target, spec, threads=None, norm="l2") -> DiscrepancyResult:
    """Exact kernel Stein discrepancy (full scores; the m = L case)."""
    return _finish(batch, target, spec, None, None, threads, norm)

