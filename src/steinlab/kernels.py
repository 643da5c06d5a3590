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
from it.  :func:`squared_distances` is the one exact squared-distance
summation: it sums per-coordinate difference matrices in coordinate order,
so no ``(n, n, d)`` array is ever formed.  An SSVGD round builds one
``n x n`` matrix with it and hands it to both
:func:`median_heuristic_bandwidth`, which takes only that matrix, and its
direction; the Stein engine's peak pass and its block sums below three
dimensions call it on each block pair (from three on, the block sums come
from one matrix product, see :mod:`steinlab.discrepancy`).  It and
:func:`radial_profile` write into caller-supplied arrays when given them
(``out=``, ``scratch=``), which is how the Stein engine reuses one
workspace across block pairs; :func:`radial_profile` may write the kernel
over its own input.  Finite differences and pointwise kernel
values are test oracles only.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBandwidthWarning, check_real

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
        for name in ("beta", "alpha", "bandwidth"):
            check_real(name, getattr(self, name), positive=name == "bandwidth")
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
    log_inverse uses for intermediates.  Both are allocated when None.
    Every family reads ``sq_dist`` only in its first operation, which
    writes ``k``, so ``out[0]`` may be ``sq_dist`` itself and the profile
    then overwrites it; no other buffer may share memory with it.  The
    arithmetic is the same either way, so the results are too, bit for
    bit.  A caller that needs
    only ``k`` and ``p1``, such as the SVGD direction, passes None as the
    third entry of ``out``: the last steps of ``p2`` are then skipped and
    None is returned in its place, with ``k`` and ``p1`` unchanged.
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
        if p2 is not None:
            t *= beta * (beta - 1.0) / (h * h)
    elif spec.family == RBF:
        np.exp(np.divide(q, -h, out=k), out=k)
        np.divide(k, -h, out=p1)
        if p2 is not None:
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
        if p2 is not None:
            t *= beta - 1.0
            t -= tw
            np.multiply(dw, beta, out=u)
            u *= dw
            t *= u
        tw *= beta
        dw *= tw
    return k, p1, p2


def squared_distances(X, Y, out=None, scratch=None) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of X and Y.

    Summed in coordinate order, ``D_0^2 + D_1^2 + ...`` with
    ``D_j = X[:, j] - Y[:, j]^T``, so every element has the bits of summing
    its own coordinate differences, and no ``(n, n, d)`` array is formed.
    Each ``D_j`` is made by filling a matrix with ``x_j`` and subtracting
    the contiguous row ``y_j`` in place, which is faster than one broadcast
    subtraction and gives the same bits.  ``out`` receives the sum and is
    returned; ``scratch`` holds each ``D_j`` after the first.  Both are
    float64 matrices of the output shape, allocated when None (``scratch``
    only from two coordinates on), and neither may share memory with the
    other, ``X`` or ``Y``.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    if X.shape[1] == 0:
        raise ValueError("points have no coordinates")
    shape = (X.shape[0], Y.shape[0])
    total = np.empty(shape) if out is None else out
    if scratch is None and X.shape[1] > 1:
        scratch = np.empty(shape)
    for j, yj in enumerate(np.ascontiguousarray(Y.T)):
        Dj = scratch if j else total
        Dj[...] = X[:, j, None]
        Dj -= yj
        Dj *= Dj
        if j:
            total += Dj
    return total


@functools.lru_cache(maxsize=16)
def _pair_index(n):
    """Read-only flat indices of the pairs ``i < j`` of an n x n matrix, in
    row order, computed once per n."""
    index = np.ravel_multi_index(np.triu_indices(n, k=1), (n, n))
    index.flags.writeable = False
    return index


def median_heuristic_bandwidth(sq) -> float:
    """``median(pairwise distances)^2 / log(n)`` over all pairs of n points,
    read from their ``(n, n)`` squared distances ``squared_distances(X, X)``
    (an SSVGD round shares one with its direction).  The median has the bits
    of ``np.median``, taken from a partition of the squared distances with a
    square root of only the middle one or two.

    Returns ``BANDWIDTH_FLOOR`` and emits :class:`DegenerateBandwidthWarning`
    when the median distance is zero (at least half of all pairs coincide),
    since a zero bandwidth would be unusable.
    """
    shape = np.shape(sq)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"squared distances have shape {shape}, expected (n, n)")
    n = shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least two points")
    # The gather is a private copy, so it is partitioned in place.
    pairs = np.ravel(sq)[_pair_index(n)]
    half = pairs.size // 2
    # The last position is partitioned too, as np.median does, so that a
    # NaN distance, which sorts last, still gives a NaN median.
    if pairs.size % 2:
        pairs.partition((half, -1))
        med = math.sqrt(pairs[half])
    else:
        pairs.partition((half - 1, half, -1))
        med = (math.sqrt(pairs[half - 1]) + math.sqrt(pairs[half])) / 2.0
    if math.isnan(pairs[-1]):
        med = math.nan
    if med == 0.0:
        warnings.warn(
            "median pairwise distance is zero; using the floor bandwidth",
            DegenerateBandwidthWarning,
            stacklevel=2,
        )
        return BANDWIDTH_FLOOR
    return med * med / math.log(n)
