"""Exact and subsampled kernel Stein discrepancies.

The discrepancy of a sample ``(x_i)`` against a target score is ``||w||_2``
with per-coordinate squared pieces

    w_j^2 = (1/n^2) sum_{i,i'} [ B_ij B_i'j k + B_ij dk/dy_j + B_i'j dk/dx_j
                                 + d2k/dx_j dy_j ](x_i, x_i'),

where row i of ``B`` is either the full score of ``x_i`` (exact case) or
``(L/m)`` times the score of a subset posterior built from an independent
uniform size-m subset of the L likelihood terms; ``B`` comes from one
target call, which blocks its own rows.  The double sum is
accumulated over fixed 256-row blocks combined by a fixed reduction tree, so
results are bit-identical for any worker count.  Within a block pair the
pairwise terms are never formed.  The squared distances come from one
matrix product of coordinates centred on the b-block mean when d >= 3
(``|xa|^2 + |xb|^2 - 2 xa xb^T``, clamped at 0) and from
:func:`kernels.squared_distances`, the exact coordinate-order sum, below
that.  Once the kernel profile ``K, P1, P2`` is built from them, every
coordinate's sum comes from three matrix products of those profiles with
per-point columns (centred coordinates, scores, and their products),
combined per row; no per-coordinate pass over a block matrix follows the
profile, which is written over the squared distances.  Every block
matrix lives in a per-call workspace of three 256 x 256 matrices per worker
(five for log_inverse), whatever the dimension, written with ``out=`` and
freed when the call returns; no ``(n, n, d)`` or
``(256, 256, d)`` array and no per-pair block matrix is allocated.  The
kernel profile takes one ``pow`` per block pair for the power families
(see :func:`kernels.radial_profile`).  The largest pairwise term
magnitude, which scales the negativity floor, is computed in a second pass
only when some piece is negative; a piece that is not finite is an error.

Subsampling changes only the score matrix, so one pass can score a sample
at several subset sizes: :func:`coord_stein_sums` takes a stack of score
matrices and builds each block pair's distances, kernel profile and
score-free products once for all of them, and :func:`sksd` takes
sequences of ``m`` and ``seed``.  Each member's result is bit-identical to
scoring it alone.  A member with ``m = L`` draws no subsets: it is scored
on the exact path, which is what every full-size subset would give.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import NumericalConsistencyError, check_int
from .parallel import BLOCK_ROWS, ordered_map, row_blocks, tree_reduce_sum
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
        if not np.isfinite(pts).all():
            raise ValueError("sample points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class DiscrepancyResult:
    """Discrepancy value with its per-coordinate pieces and evaluation cost.

    ``value = sqrt(sum_j max(w_sq_j, 0))``; ``w_sq`` is stored after
    clamping.  ``term_evals`` counts likelihood-term gradient evaluations
    consumed: ``n * m`` on the subsampled path and ``n * L`` on the exact
    path, taken from those shapes, so concurrent calls on one target each
    report their own.
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


def draw_subsets(n, L, m, seed) -> np.ndarray:
    """n independent uniform size-m subsets of the L term indices, as an
    ``(n, m)`` int64 matrix whose rows are sorted ascending.

    Deterministic given the seed: subsets come point by point from one Philox
    stream (partial Fisher-Yates per point, point i's draws before
    point i+1's), so the subsets do not depend on how later computation is
    parallelized.
    """
    return uniform_subsets(make_generator(seed), n, L, m)


def scaled_scores(batch, target, subsets=None) -> np.ndarray:
    """Score matrix B.

    Row i is ``(L/m) * grad_log_subset(subsets[i], x_i)`` for an ``(n, m)``
    index matrix ``subsets``, or the exact ``grad_log_full(x_i)`` when it is
    None: one target call, which checks the indices and bounds its own term
    stacks.  Consumes ``n * m`` (respectively ``n * L``) term-gradient
    evaluations.
    """
    if subsets is None:
        return target.grad_log_full(batch.points)
    shape = np.shape(subsets)
    if len(shape) != 2 or shape[0] != batch.n:
        raise ValueError(
            f"subsets have shape {shape}, expected one row for each of "
            f"{batch.n} points"
        )
    # The target rejects an empty subset (m = 0) before the scale is formed.
    scores = target.grad_log_subset(subsets, batch.points)
    return np.multiply(target.L / shape[1], scores, out=scores)


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


def _block_pair_sums(X, Bs, spec, rows_a, rows_b, workspace):
    """Summed pairwise Stein terms of one ordered block pair, per member of
    the ``(k, n, d)`` score stack ``Bs`` and per coordinate, as a ``(k, d)``
    array; off-diagonal pairs are doubled to stand in for their mirror
    image.

    The coordinate-j term is

        T_j = K (Ba_j Bb_j^T) + 2 P1 D_j (Bb_j - Ba_j) - 4 P2 D_j^2 - 2 P1,

    and it is never formed.  With both blocks centred on the b-block mean,
    ``D_j = xa_j - xb_j``.  From ``GEMM_DISTANCE_MIN_DIM`` dimensions on,
    the squared distances ``S = sum_j D_j^2`` are
    ``|xa|^2 + |xb|^2 - 2 xa xb^T`` from one matrix product, clamped at 0;
    below that they come from ``kernels.squared_distances``.  The row sums of
    ``T_j`` expand into three matrix products, ``P2 @ [xb^2, 1, xb]``,
    ``P1 @ [1, xb, Bb, xb Bb]`` and ``K @ Bb``, combined per row and
    coordinate, then summed.  ``S``, the profile and the ``P2`` product do
    not depend on the scores, so they are built once for the whole stack;
    each member then takes its own ``P1`` and ``K`` products, of the same
    shapes as for a stack of one, so every member's bits are those of a
    call with that member alone.  The centring keeps both expansions from
    cancelling the digits of ``D_j`` when the points sit far from the
    origin; what they still lose grows with the squared distance of the
    points from the b-block mean over the squared distances of the pairs
    that carry the weight (with two clusters 50 apart mixed in one block
    and bandwidths near 1, a block sum's error is up to about 20 times that
    of summing the formed terms).  No matrix product reduces over more than
    one block, so the bits do not depend on the BLAS thread count.  Three
    workspace matrices hold the block matrices, whatever the dimension and
    the stack size, and log_inverse takes two more for its intermediates:
    the profile is written over ``S``, and below three dimensions ``P1``
    is the scratch of the distance sums.
    """
    a0, a1 = rows_a
    b0, b1 = rows_b
    Xa, Xb = X[a0:a1], X[b0:b1]
    count = 5 if spec.family == kernels.LOG_INVERSE else 3
    S, P1, P2, *scratch = workspace.matrices(count, (a1 - a0, b1 - b0))
    d = X.shape[1]
    c = Xb.mean(axis=0)
    xa = Xa - c
    # Columns [xb^2, 1, xb, Bb, xb Bb]: P2 takes the first 2d + 1 of them,
    # P1 the last 3d + 1; each member rewrites the last 2d.
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
        kernels.squared_distances(Xa, Xb, out=S, scratch=P1)
    K, P1, P2 = kernels.radial_profile(spec, S, out=(S, P1, P2), scratch=scratch)
    cols[:, d] = 1.0
    p2 = P2 @ cols[:, : 2 * d + 1]
    p2_xb2, r2, p2_xb = p2[:, :d], p2[:, d : d + 1], p2[:, d + 1 :]
    # Per row and coordinate: 4 sum_b P2 D_j^2, shared by every member.
    four_p2dd = 4.0 * ((xa * r2 - 2.0 * p2_xb) * xa + p2_xb2)
    del p2, p2_xb2, r2, p2_xb  # frees the P2 product to keep a call's peak low

    def member_sums(B):
        # One member's P1 and K products; its block matrices are freed on
        # return, before the next member's are made.
        Ba, Bb = B[a0:a1], B[b0:b1]
        cols[:, 2 * d + 1 : 3 * d + 1] = Bb
        np.multiply(xb, Bb, out=cols[:, 3 * d + 1 :])
        p1 = P1 @ cols[:, d:]
        r1, p1_xb, p1_b, p1_xbb = (p1[:, :1], p1[:, 1 : d + 1],
                                   p1[:, d + 1 : 2 * d + 1], p1[:, 2 * d + 1 :])
        # sum_b P1 D_j and sum_b P1 D_j Bb_j, over the products they come from.
        p1d = np.subtract(xa * r1, p1_xb, out=p1_xb)
        p1d_b = np.subtract(xa * p1_b, p1_xbb, out=p1_b)
        rows = Ba * (K @ Bb - 2.0 * p1d) + 2.0 * p1d_b - four_p2dd - 2.0 * r1
        return rows.sum(axis=0)

    totals = np.array([member_sums(B) for B in Bs]).reshape(len(Bs), d)
    if a0 != b0:
        totals *= 2.0
    return totals


def _block_pair_peak(X, B, spec, rows_a, rows_b, workspace):
    """Largest pairwise Stein term magnitude ``max_j max |T_j|`` of one
    block pair, from ``T_j`` formed in full (seven workspace matrices)."""
    a0, a1 = rows_a
    b0, b1 = rows_b
    Xa, Xb, Ba, Bb = X[a0:a1], X[b0:b1], B[a0:a1], B[b0:b1]
    T, K, P1, P2, W, D, gap = workspace.matrices(7, (a1 - a0, b1 - b0))
    kernels.squared_distances(Xa, Xb, out=T, scratch=D)
    K, P1, P2 = kernels.radial_profile(spec, T, out=(K, P1, P2), scratch=(W, D))
    two_p1 = np.multiply(P1, 2.0, out=P1)
    four_p2 = np.multiply(P2, 4.0, out=P2)
    peak = 0.0
    for j in range(X.shape[1]):
        Dj = np.subtract(Xa[:, j, None], Xb[:, j], out=D)
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


def coord_stein_sums(batch, B, spec, threads=1) -> np.ndarray:
    """Per-coordinate squared discrepancy pieces w_j^2, before clamping.

    ``B`` is a ``(k, n, d)`` stack of score matrices, giving ``(k, d)``: one
    pass over the block pairs builds each pair's kernel part once and serves
    every member, and each member's pieces are bit-identical to a call with
    that member alone.

    Each w_j^2 is a squared norm, so genuine negatives are bugs: values
    below ``-1e-8 * scale`` (scale = the largest pairwise term magnitude of
    that member) raise :class:`NumericalConsistencyError` instead of being
    silently repaired.  That floor is never positive, so a member's scale
    is computed, in a second pass over the block pairs, only when one of
    its pieces is negative.  A piece that is not finite, as when the
    pairwise terms of finite scores overflow, raises the same error.
    """
    X = batch.points
    Bs = np.asarray(B, dtype=np.float64)
    if Bs.ndim != 3 or Bs.shape[1:] != X.shape:
        raise ValueError(
            f"score matrix shape {np.shape(B)} does not match batch {X.shape}"
        )
    blocks = row_blocks(batch.n)
    tasks = [(a, b) for ia, a in enumerate(blocks) for b in blocks[ia:]]
    # One workspace per worker thread, freed with this call.
    workspaces = threading.local()

    def over_block_pairs(block_fn, scores):
        def run(pair):
            workspace = getattr(workspaces, "it", None)
            if workspace is None:
                workspace = workspaces.it = _Workspace(min(batch.n, BLOCK_ROWS))
            # Overflowing terms are reported below, once, as a non-finite
            # piece.  Set here, in the task: numpy's error state is
            # context-local and does not reach the pool's threads.
            with np.errstate(over="ignore", invalid="ignore"):
                return block_fn(X, scores, spec, pair[0], pair[1], workspace)

        return ordered_map(run, tasks, threads)

    w_sq = tree_reduce_sum(over_block_pairs(_block_pair_sums, Bs)) / float(batch.n) ** 2
    for member, pieces in enumerate(w_sq):
        if not np.isfinite(pieces).all():
            j = int(np.argmin(np.isfinite(pieces)))
            raise NumericalConsistencyError(
                f"score matrix {member}: w_sq[{j}] = {float(pieces[j])!r} is not finite"
            )
        if np.any(pieces < 0.0):
            peak = max(over_block_pairs(_block_pair_peak, Bs[member]))
            floor = -NEGATIVE_TOLERANCE * peak
            if np.any(pieces < floor):
                j = int(np.argmin(pieces))
                raise NumericalConsistencyError(
                    f"score matrix {member}: w_sq[{j}] = {float(pieces[j])!r} is below "
                    f"the float-noise floor {floor!r}"
                )
    return w_sq


def _finish(batch, target, spec, subset_mats, seeds, threads):
    """One result per subset matrix (None for the exact path), all scored
    in one pass over the block pairs."""
    B = np.stack([scaled_scores(batch, target, subs) for subs in subset_mats])
    w_sq = coord_stein_sums(batch, B, spec, threads=threads)
    results = []
    for pieces, subs, seed in zip(w_sq, subset_mats, seeds):
        clamped = np.maximum(pieces, 0.0)
        m = target.L if subs is None else subs.shape[1]
        results.append(
            DiscrepancyResult(
                value=float(np.sqrt(clamped.sum())),
                w_sq=clamped,
                n=batch.n,
                m=int(m),
                L=int(target.L),
                term_evals=batch.n * int(m),
                seed=seed,
            )
        )
    return results


def sksd(batch, target, spec, m, seed, threads=1):
    """Stochastic kernel Stein discrepancy with one independent size-m
    subset of likelihood terms per sample point.

    With ``m == target.L`` every subset would be the full index set, so
    none is drawn: the scores are exact and the result, which keeps its
    ``m``, ``seed`` and ``term_evals = n * L``, is bit-identical to
    :func:`ksd`.  The per-coordinate pieces combine in the l2 norm.

    ``m`` and ``seed`` are scalars (a 0-d array is one) or equal-length
    sequences.  Each entry of a sequence draws its own subsets and score
    matrix, the kernel part of the pairwise pass is built once for all of
    them, and a list with one result per entry is returned in order, each
    bit-identical to the scalar call with that entry's ``m`` and ``seed``.
    """
    stacked = np.ndim(m) > 0
    if stacked == (np.ndim(seed) == 0) or (stacked and len(m) != len(seed)):
        raise ValueError("m and seed must both be scalars or both be sequences "
                         "of one length")
    if not stacked:
        m, seed = [np.asarray(m).item()], [np.asarray(seed).item()]
    if not len(m):
        raise ValueError("no subset sizes to score")
    seeds = [check_int("seed", s) for s in seed]
    subset_mats = []
    for mi, si in zip(m, seeds):
        mi = check_int("m", mi)
        # At m = L every subset is the full set: it is scored exactly, undrawn.
        subset_mats.append(None if mi == target.L
                           else draw_subsets(batch.n, target.L, mi, si))
    results = _finish(batch, target, spec, subset_mats, seeds, threads)
    return results if stacked else results[0]


def ksd(batch, target, spec, threads=1) -> DiscrepancyResult:
    """Exact kernel Stein discrepancy (full scores; the m = L case)."""
    return _finish(batch, target, spec, [None], [None], threads)[0]
