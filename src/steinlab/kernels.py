"""Reproducing kernels and their closed-form derivatives.

All supported families are radial in the squared distance,
``k(x, y) = phi(||x - y||^2 / h)`` for a squared length-scale ``h``:

* ``imq``:          phi(s) = (1 + s) ** beta          with beta in (-1, 0)
* ``log_inverse``:  phi(s) = (alpha + log(1 + s)) ** beta  with alpha > 0, beta < 0
* ``rbf``:          phi(s) = exp(-s)

:func:`radial_profile` returns the kernel and its first two derivatives in
the squared distance, analytically and with one transcendental call per
element: the power families compute ``t = base ** (beta - 2)`` once and get
``base ** beta = t * base * base`` and ``base ** (beta - 1) = t * base``
from it.  Exact squared distances are summed one coordinate at a time
from per-coordinate difference matrices (:func:`coordinate_differences`,
:func:`sum_of_squares`), so no ``(n, n, d)`` array is ever formed; the SVGD
direction, the median heuristic and the Stein engine's peak pass take
them from here (an SSVGD round builds one ``n x n`` matrix and hands it to
both its median heuristic and its direction), and so do the Stein block
sums below three dimensions (from three on, those come from one matrix
product, see :mod:`steinlab.discrepancy`).  All three write into
caller-supplied arrays when given them (``out=``), which is how the Stein
engine reuses one workspace across block pairs.  Finite differencing and
pointwise kernel evaluation appear only in tests, as oracles.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBandwidthWarning

IMQ = "imq"
LOG_INVERSE = "log_inverse"
RBF = "rbf"
FAMILIES = (IMQ, LOG_INVERSE, RBF)

BANDWIDTH_FLOOR = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """One kernel family with its parameters.

    ``beta`` is the exponent (used by ``imq`` and ``log_inverse``), ``alpha``
    the additive offset inside the ``log_inverse`` logarithm, and
    ``bandwidth`` the squared length-scale dividing the squared distance.
    The unscaled inverse multiquadric of the experiments is
    ``KernelSpec("imq", beta=-0.5)`` with the default bandwidth of 1.
    """

    family: str
    beta: float = -0.5
    alpha: float = 1.0
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family = {self.family!r} is not one of "
                             f"{', '.join(FAMILIES)}")
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth = {self.bandwidth!r} is not positive")
        if self.family == IMQ and not -1.0 < self.beta < 0.0:
            raise ValueError(f"beta = {self.beta!r} is not in (-1, 0) for family imq")
        if self.family == LOG_INVERSE:
            if not self.beta < 0.0:
                raise ValueError(f"beta = {self.beta!r} is not negative "
                                 "for family log_inverse")
            if not self.alpha > 0.0:
                raise ValueError(f"alpha = {self.alpha!r} is not positive "
                                 "for family log_inverse")


def radial_profile(spec: KernelSpec, sq_dist, out=None, scratch=None):
    """Kernel value and derivatives in the squared distance, elementwise.

    Returns ``(k, p1, p2)`` where ``p1 = dk/d(r2)`` and ``p2 = d2k/d(r2)^2``
    at squared distance ``r2 = sq_dist``.  These three profiles are all the
    pairwise Stein terms and particle updates need: with ``u = x - y``,

        grad_x k = 2 p1 u,   grad_y k = -2 p1 u,
        d2k/dx_j dy_j = -4 p2 u_j^2 - 2 p1.

    Each family makes one transcendental call.  The power families raise
    their base ``b`` (``1 + r2/h`` for imq, ``w = alpha + log(1 + r2/h)``
    for log_inverse) once, to ``t = b ** (beta - 2)``, and use
    ``b ** beta = t b^2`` and ``b ** (beta - 1) = t b``.

    ``out`` is three float64 arrays of ``sq_dist``'s shape that receive
    ``k, p1, p2`` and are returned; ``scratch`` is two more that
    log_inverse uses for intermediates.  Both are allocated when None, and
    neither may share memory with ``sq_dist``.  The arithmetic is the same
    either way, so the results are too, bit for bit.
    """
    q = np.asarray(sq_dist, dtype=np.float64)
    if out is None:
        out = (np.empty_like(q), np.empty_like(q), np.empty_like(q))
    k, p1, p2 = out
    h = spec.bandwidth
    beta = spec.beta
    if spec.family == IMQ:
        base = np.add(np.divide(q, h, out=k), 1.0, out=k)
        t = np.power(base, beta - 2.0, out=p2)
        tb = np.multiply(t, base, out=p1)
        base *= tb
        tb *= beta / h
        t *= beta * (beta - 1.0) / (h * h)
    elif spec.family == RBF:
        np.exp(np.divide(q, -h, out=k), out=k)
        np.divide(k, -h, out=p1)
        np.divide(k, h * h, out=p2)
    else:
        if scratch is None:
            scratch = (np.empty_like(q), np.empty_like(q))
        tw, u = scratch
        base = np.add(np.divide(q, h, out=k), 1.0, out=k)
        dw = np.divide(1.0, np.multiply(base, h, out=p1), out=p1)
        w = np.add(np.log(base, out=k), spec.alpha, out=k)
        t = np.power(w, beta - 2.0, out=p2)
        np.multiply(t, w, out=tw)
        w *= tw
        t *= beta - 1.0
        t -= tw
        np.multiply(dw, beta, out=u)
        u *= dw
        t *= u
        tw *= beta
        dw *= tw
    return k, p1, p2


def coordinate_differences(X, Y, out=None):
    """Per-coordinate difference matrices ``X[:, j] - Y[:, j]^T``, yielded
    one coordinate at a time in order ``j = 0, 1, ...``.

    With ``out`` every matrix is written into that one array, so each
    yielded matrix is valid only until the next is requested.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    shape = (X.shape[0], Y.shape[0])
    # Filling each row with x_j first and then subtracting the contiguous
    # row y_j in place is faster than one broadcast subtraction, and gives
    # the same bits.
    for xj, yj in zip(X.T, np.ascontiguousarray(Y.T)):
        D = np.empty(shape) if out is None else out
        np.copyto(D, xj[:, None])
        yield np.subtract(D, yj, out=D)


def sum_of_squares(diffs, out=None) -> np.ndarray:
    """``D_0^2 + D_1^2 + ...`` accumulated left to right over a nonempty
    sequence of equal-shape difference matrices, written into ``out`` when
    given.  Every matrix after the first is squared in place.

    The SVGD direction, the median heuristic, the Stein peak pass and the
    Stein block sums below three dimensions take their squared distances
    from here, so they share one summation order.
    """
    diffs = iter(diffs)
    first = next(diffs)
    total = np.multiply(first, first, out=out)
    for Dj in diffs:
        total += np.multiply(Dj, Dj, out=Dj)
    return total


def squared_distances(X, Y) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of X and Y, summed
    in coordinate order; memory is three matrices of the output shape."""
    return sum_of_squares(coordinate_differences(X, Y))


@functools.lru_cache(maxsize=16)
def _pair_index(n):
    """Read-only flat indices of the pairs ``i < j`` of an n x n matrix, in
    row order, computed once per n."""
    index = np.ravel_multi_index(np.triu_indices(n, k=1), (n, n))
    index.flags.writeable = False
    return index


def median_heuristic_bandwidth(points, sq=None) -> float:
    """``median(pairwise distances)^2 / log(n)`` over all point pairs.

    The median is taken as ``np.median`` takes it, bit for bit, but from a
    partition of the squared distances, with a square root of only the
    middle one or two.  ``sq``, when given, is the ``(n, n)`` matrix
    ``squared_distances(points, points)`` already built by the caller (an
    SSVGD round shares one with its direction); each of its elements is
    summed on its own, so the result is the same bits either way.

    Returns ``BANDWIDTH_FLOOR`` and emits :class:`DegenerateBandwidthWarning`
    when the median distance is zero (at least half of all pairs coincide),
    since a zero bandwidth would be unusable.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least two points")
    if sq is None:
        sq = squared_distances(pts, pts)
    elif sq.shape != (n, n):
        raise ValueError(
            f"squared distances have shape {sq.shape}, expected {(n, n)}"
        )
    sq = sq.ravel()[_pair_index(n)]
    half = sq.size // 2
    # The last position is partitioned too, as np.median does, so that a
    # NaN distance, which sorts last, still gives a NaN median.
    if sq.size % 2:
        part = np.partition(sq, (half, -1))
        med = math.sqrt(part[half])
    else:
        part = np.partition(sq, (half - 1, half, -1))
        med = (math.sqrt(part[half - 1]) + math.sqrt(part[half])) / 2.0
    if math.isnan(part[-1]):
        med = math.nan
    if med == 0.0:
        warnings.warn(
            "median pairwise distance is zero; using the floor bandwidth",
            DegenerateBandwidthWarning,
            stacklevel=2,
        )
        return BANDWIDTH_FLOOR
    return med * med / math.log(n)
