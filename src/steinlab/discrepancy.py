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
pairwise terms are never formed.  The squared distances come from one
matrix product of coordinates centred on the b-block mean when d >= 3
(``|xa|^2 + |xb|^2 - 2 xa xb^T``, clamped at 0) and from summed coordinate
differences below that.  Once the kernel profile ``K, P1, P2`` is built
from them, every coordinate's sum comes from three matrix products of those
profiles with per-point columns (centred coordinates, scores, and their
products), combined per row; no per-coordinate pass over a block matrix
follows the profile.  Every block matrix lives in a per-call workspace of
six 256 x 256 matrices per worker, whatever the dimension, written with
``out=`` and freed when the call returns; no ``(n, n, d)`` or
``(256, 256, d)`` array and no per-pair block matrix is allocated.  The
kernel profile takes one ``pow`` per block pair for the power families
(see :func:`kernels.radial_profile`).  The largest pairwise term
magnitude, which scales the negativity floor, is computed in a second pass
only when some piece is negative.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import NonFiniteScoreError, NumericalConsistencyError
from .parallel import (
    BLOCK_ROWS,
    ordered_map,
    resolve_threads,
    row_blocks,
    tree_reduce_sum,
)
from .rng import make_generator, uniform_subsets

NEGATIVE_TOLERANCE = 1e-8

# From this dimension on, a block pair takes its squared distances from one
# matrix product on the centred coordinates instead of summing formed
# coordinate differences.  Per 256 x 256 block pair (imq, BLAS pinned to
# one thread, six alternating process pairs on a 2-vCPU VM), the whole
# pair ran 0.75-1.16 times as fast with the product at d = 1, 0.91-1.33
# times at d = 2, 1.11-1.50 times at d = 3 and 1.37-1.86 times at d = 8.
# Below 3 the gain is within the noise, so the exact sums, and the bits of
# every one- and two-dimensional result, stay.
GEMM_DISTANCE_MIN_DIM = 3


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

    ``subsets`` is an (n, m) int64 array whose rows are sorted ascending.
    ``seed``, when not None, is the seed from which :func:`draw_subsets`
    regenerates the assignment exactly; it is None for an assignment drawn
    from the middle of a longer stream, such as an SSVGD round.
    """

    subsets: np.ndarray
    L: int
    seed: Optional[int]

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
    path, taken from those shapes rather than from the target's shared
    counter, so concurrent calls on one target each report their own.
    ``seed`` is None for the exact path.
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
    or the exact ``grad_log_full(x_i)`` when ``assignment`` is None.  The
    target scores one fixed row block of points per call.  Consumes
    ``n * m`` (respectively ``n * L``) term-gradient evaluations.
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
    for i0, i1 in row_blocks(batch.n):
        try:
            if assignment is None:
                B[i0:i1] = target.grad_log_full(X[i0:i1])
            else:
                B[i0:i1] = scale * target.grad_log_subset(
                    assignment.subsets[i0:i1], X[i0:i1]
                )
        except NonFiniteScoreError as err:
            err.point_index += i0
            raise
    return B


class _Workspace:
    """Block matrices that one worker reuses for every block pair of one
    :func:`coord_stein_sums` call, one flat array per matrix, each viewed
    as a contiguous ``(rows_a, rows_b)`` matrix."""

    def __init__(self, rows):
        self._size = rows * rows
        self._flat = []

    def matrices(self, count, shape):
        while len(self._flat) < count:
            self._flat.append(np.empty(self._size))
        used = shape[0] * shape[1]
        return [flat[:used].reshape(shape) for flat in self._flat[:count]]


def _block_pair_sums(X, B, spec, rows_a, rows_b, workspace):
    """Summed pairwise Stein terms of one ordered block pair, per
    coordinate; off-diagonal pairs are doubled to stand in for their mirror
    image.

    The coordinate-j term is

        T_j = K (Ba_j Bb_j^T) + 2 P1 D_j (Bb_j - Ba_j) - 4 P2 D_j^2 - 2 P1,

    and it is never formed.  With both blocks centred on the b-block mean,
    ``D_j = xa_j - xb_j``.  From ``GEMM_DISTANCE_MIN_DIM`` dimensions on,
    the squared distances ``S = sum_j D_j^2`` are
    ``|xa|^2 + |xb|^2 - 2 xa xb^T`` from one matrix product, clamped at 0;
    below that they are summed from the formed ``D_j``.  The row sums of
    ``T_j`` expand into three matrix products, ``P1 @ [1, xb, Bb, xb Bb]``,
    ``P2 @ [1, xb, xb^2]`` and ``K @ Bb``, combined per row and coordinate,
    then summed.  The centring keeps both expansions from cancelling the
    digits of ``D_j`` when the points sit far from the origin; what they
    still lose grows with the squared distance of the points from the
    b-block mean over the squared distances of the pairs that carry the
    weight (with two clusters 50 apart mixed in one block and bandwidths
    near 1, a block sum's error is up to about 20 times that of summing the
    formed terms).  No matrix product reduces over more than one block, so
    the bits do not depend on the BLAS thread count.  Six workspace
    matrices hold the block matrices, whatever the dimension.
    """
    a0, a1 = rows_a
    b0, b1 = rows_b
    Xa, Xb, Ba, Bb = X[a0:a1], X[b0:b1], B[a0:a1], B[b0:b1]
    S, K, P1, P2, W, D = workspace.matrices(6, (a1 - a0, b1 - b0))
    d = X.shape[1]
    c = Xb.mean(axis=0)
    xa = Xa - c
    # Columns [xb^2, 1, xb, Bb, xb Bb]: P2 takes the first 2d + 1 of them,
    # P1 the last 3d + 1.
    cols = np.empty((b1 - b0, 4 * d + 1))
    xb = np.subtract(Xb, c, out=cols[:, d + 1 : 2 * d + 1])
    np.multiply(xb, xb, out=cols[:, :d])
    if d >= GEMM_DISTANCE_MIN_DIM:
        # S = |xa|^2 + |xb|^2 - 2 xa xb^T; the factor -2 is exact on xa.
        np.matmul(-2.0 * xa, xb.T, out=S)
        S += np.einsum("ij,ij->i", xa, xa)[:, None]
        S += cols[:, :d].sum(axis=1)
        np.maximum(S, 0.0, out=S)
    else:
        kernels.sum_of_squares(kernels.coordinate_differences(Xa, Xb, out=D), out=S)
    K, P1, P2 = kernels.radial_profile(spec, S, out=(K, P1, P2), scratch=(W, D))
    cols[:, d] = 1.0
    cols[:, 2 * d + 1 : 3 * d + 1] = Bb
    np.multiply(xb, Bb, out=cols[:, 3 * d + 1 :])
    p2_xb2, r2, p2_xb = np.split(P2 @ cols[:, : 2 * d + 1], [d, d + 1], axis=1)
    r1, p1_xb, p1_b, p1_xbb = np.split(
        P1 @ cols[:, d:], [1, d + 1, 2 * d + 1], axis=1
    )
    del cols, xb  # freed before the row arithmetic to keep a call's peak low
    kb = K @ Bb
    # Per row and coordinate, written over the products they come from:
    # sum_b P1 D_j, sum_b P1 D_j Bb_j and sum_b P2 D_j^2.
    p1d = np.subtract(xa * r1, p1_xb, out=p1_xb)
    p1d_b = np.subtract(xa * p1_b, p1_xbb, out=p1_b)
    p2dd = np.add((xa * r2 - 2.0 * p2_xb) * xa, p2_xb2, out=p2_xb2)
    rows = Ba * (kb - 2.0 * p1d) + 2.0 * p1d_b - 4.0 * p2dd - 2.0 * r1
    total = rows.sum(axis=0)
    if a0 != b0:
        total = 2.0 * total
    return total


def _block_pair_peak(X, B, spec, rows_a, rows_b, workspace):
    """Largest pairwise Stein term magnitude ``max_j max |T_j|`` of one
    block pair, from ``T_j`` formed in full (seven workspace matrices)."""
    a0, a1 = rows_a
    b0, b1 = rows_b
    Xa, Xb, Ba, Bb = X[a0:a1], X[b0:b1], B[a0:a1], B[b0:b1]
    T, K, P1, P2, W, D, gap = workspace.matrices(7, (a1 - a0, b1 - b0))
    kernels.sum_of_squares(kernels.coordinate_differences(Xa, Xb, out=D), out=T)
    K, P1, P2 = kernels.radial_profile(spec, T, out=(K, P1, P2), scratch=(W, D))
    two_p1 = np.multiply(P1, 2.0, out=P1)
    four_p2 = np.multiply(P2, 4.0, out=P2)
    peak = 0.0
    for j, Dj in enumerate(kernels.coordinate_differences(Xa, Xb, out=D)):
        ba, bb = Ba[:, j, None], Bb[None, :, j]
        np.multiply(ba, bb, out=T)
        T *= K
        np.multiply(two_p1, Dj, out=W)
        np.subtract(bb, ba, out=gap)
        W *= gap
        T += W
        np.multiply(Dj, Dj, out=W)
        W *= four_p2
        T -= W
        T -= two_p1
        peak = max(peak, float(T.max()), -float(T.min()))
    return peak


def coord_stein_sums(batch, B, spec, threads=None) -> np.ndarray:
    """Per-coordinate squared discrepancy pieces w_j^2, before clamping.

    Each w_j^2 is a squared norm, so genuine negatives are bugs: values
    below ``-1e-8 * scale`` (scale = the largest pairwise term magnitude)
    raise :class:`NumericalConsistencyError` instead of being silently
    repaired.  That floor is never positive, so the scale is computed, in a
    second pass over the block pairs, only when some piece is negative.
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
    # One workspace per worker thread, freed with this call.
    workspaces = threading.local()

    def over_block_pairs(block_fn):
        def run(pair):
            workspace = getattr(workspaces, "it", None)
            if workspace is None:
                workspace = workspaces.it = _Workspace(min(batch.n, BLOCK_ROWS))
            return block_fn(X, Bm, spec, pair[0], pair[1], workspace)

        return ordered_map(run, tasks, workers)

    w_sq = tree_reduce_sum(over_block_pairs(_block_pair_sums)) / float(batch.n) ** 2
    if np.any(w_sq < 0.0):
        floor = -NEGATIVE_TOLERANCE * max(over_block_pairs(_block_pair_peak))
        if np.any(w_sq < floor):
            j = int(np.argmin(w_sq))
            raise NumericalConsistencyError(
                f"w_sq[{j}] = {w_sq[j]!r} is below the float-noise floor {floor!r}"
            )
    return w_sq


def _finish(batch, target, spec, assignment, seed, threads) -> DiscrepancyResult:
    B = scaled_scores(batch, target, assignment)
    w_sq = coord_stein_sums(batch, B, spec, threads=threads)
    clamped = np.maximum(w_sq, 0.0)
    m = assignment.m if assignment is not None else target.L
    return DiscrepancyResult(
        value=float(np.sqrt(clamped.sum())),
        w_sq=clamped,
        n=batch.n,
        m=int(m),
        L=int(target.L),
        term_evals=batch.n * int(m),
        seed=seed,
    )


def sksd(batch, target, spec, m, seed, threads=None) -> DiscrepancyResult:
    """Stochastic kernel Stein discrepancy with one independent size-m
    subset of likelihood terms per sample point.

    With ``m == target.L`` the drawn subsets are necessarily the full index
    set and the result is bit-identical to :func:`ksd`.  The per-coordinate
    pieces combine in the l2 norm.
    """
    assignment = draw_subsets(batch.n, target.L, m, seed)
    return _finish(batch, target, spec, assignment, int(seed), threads)


def ksd(batch, target, spec, threads=None) -> DiscrepancyResult:
    """Exact kernel Stein discrepancy (full scores; the m = L case)."""
    return _finish(batch, target, spec, None, None, threads)
