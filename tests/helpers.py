"""Shared test oracles: finite differences, pointwise kernel calls, one-row
calls of the stacked score and Stein-sum layers, dense Stein-term
assemblies, an eager-peak ``coord_stein_sums``, a per-point score
loop, a ``np.median`` median heuristic, a step-by-step subset shuffle, a
one-chain SGLD loop, a blocked SSVGD direction, a one-round-at-a-time
SSVGD loop, a tally of the term gradients a target evaluates, log
densities of the three model families written from their formulas, and
random problem builders.

The kernel oracle re-implements the radial families in extended precision
(long double) so nested finite differences of the mixed second derivative
stay well above cancellation noise at the standard step of 1e-5.  The
pointwise kernel functions, the dense Gram oracle ``stein_gram`` and the
dense ``(rows_a, rows_b, d)`` block formula ``dense_block_pair_terms`` are
independent assemblies of the quantities the library computes blockwise.
"""

import math
import threading
import warnings
from dataclasses import replace

import numpy as np

from steinlab import (
    KernelSpec,
    SampleBatch,
    gen_gmm_data,
    gen_logreg_data,
    iid_gaussian,
    make_gaussian,
    make_gmm_posterior,
    make_logreg,
)
from steinlab import (
    DegenerateBandwidthWarning,
    DivergenceError,
    NonFiniteScoreError,
    NumericalConsistencyError,
    kernels,
    svgd,
)
from steinlab.discrepancy import NEGATIVE_TOLERANCE, coord_stein_sums
from steinlab.parallel import ordered_map, row_blocks, tree_reduce_sum
from steinlab.rng import make_generator, uniform_subset

FD_STEP = 1e-5
FD_RTOL = 1e-4


def kernel_value_ld(spec, x, y):
    """Independent long-double evaluation of the radial kernel families."""
    x = np.asarray(x, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    u = x - y
    s = np.sum(u * u) / np.longdouble(spec.bandwidth)
    beta = np.longdouble(spec.beta)
    if spec.family == "imq":
        return (1 + s) ** beta
    if spec.family == "rbf":
        return np.exp(-s)
    return (np.longdouble(spec.alpha) + np.log1p(s)) ** beta


def _sq_norm(u):
    # Same left-to-right coordinate order as kernels.squared_distances, so
    # pointwise and Gram evaluations agree to the bit.
    total = u[0] * u[0]
    for v in u[1:]:
        total += v * v
    return float(total)


def _pair(x, y):
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    return xv, yv


def kernel_eval(spec, x, y):
    """Kernel value k(x, y) at one pair of points."""
    xv, yv = _pair(x, y)
    k, _, _ = kernels.radial_profile(spec, _sq_norm(xv - yv))
    return float(k)


def kernel_grad_x(spec, x, y):
    """Gradient of k with respect to its first argument."""
    xv, yv = _pair(x, y)
    u = xv - yv
    _, p1, _ = kernels.radial_profile(spec, _sq_norm(u))
    return 2.0 * p1 * u


def kernel_grad_y(spec, x, y):
    """Gradient of k with respect to its second argument (-grad_x for
    radial kernels)."""
    return -kernel_grad_x(spec, x, y)


def kernel_cross_deriv_diag(spec, x, y):
    """Vector of mixed second derivatives d2k/dx_j dy_j, one per coordinate."""
    xv, yv = _pair(x, y)
    u = xv - yv
    _, p1, p2 = kernels.radial_profile(spec, _sq_norm(u))
    return -4.0 * p2 * (u * u) - 2.0 * p1


def one_point_score(method, *args):
    """A target's score method at one point, after one term subset for the
    subset methods: row 0 of the stacked call on one-row matrices."""
    return method(*(np.asarray(a).reshape(1, -1) for a in args))[0]


def one_matrix_stein_sums(batch, B, spec, threads=1):
    """``coord_stein_sums`` of one ``(n, d)`` score matrix: member 0 of the
    stacked call on a stack of one."""
    return coord_stein_sums(batch, np.asarray(B)[None], spec, threads=threads)[0]


def kernel_gram(spec, X, Y=None):
    """Kernel Gram matrix between rows of X and Y (Y defaults to X)."""
    if Y is None:
        Y = X
    k, _, _ = kernels.radial_profile(spec, kernels.squared_distances(X, Y))
    return k


def stein_gram(j, batch, B, spec):
    """Dense Gram matrix of coordinate-j pairwise Stein terms.

    ``M[i, p]`` is the (i, p) term of ``w_j^2``, assembled from pointwise
    kernel calls; ``sum(M) / n^2`` must match ``coord_stein_sums`` and M is
    symmetric positive semidefinite up to float noise.  Quadratic in n with
    Python-loop constants, so keep n small.
    """
    X = batch.points
    Bm = np.asarray(B, dtype=np.float64)
    n = batch.n
    M = np.empty((n, n))
    for i in range(n):
        for p in range(n):
            xi, xp = X[i], X[p]
            k = kernel_eval(spec, xi, xp)
            gx = kernel_grad_x(spec, xi, xp)
            gy = kernel_grad_y(spec, xi, xp)
            cross = kernel_cross_deriv_diag(spec, xi, xp)
            M[i, p] = (
                Bm[i, j] * Bm[p, j] * k
                + Bm[i, j] * gy[j]
                + Bm[p, j] * gx[j]
                + cross[j]
            )
    return M


def dense_block_pair_terms(X, B, spec, rows_a, rows_b):
    """All-coordinates block formula: the pairwise Stein terms of one block
    pair built as one ``(rows_a, rows_b, d)`` array, summed per coordinate,
    with their peak magnitude; off-diagonal pairs are doubled.

    Squared distances come from ``kernels.squared_distances``: numpy's
    last-axis reduction sums eight or more coordinates pairwise, which can
    move a term by one ulp, so taking them from the library keeps the peak
    comparable bit for bit.
    """
    a0, a1 = rows_a
    b0, b1 = rows_b
    Xa, Xb = X[a0:a1], X[b0:b1]
    Ba, Bb = B[a0:a1], B[b0:b1]
    D = Xa[:, None, :] - Xb[None, :, :]
    sq = kernels.squared_distances(Xa, Xb)
    K, P1, P2 = kernels.radial_profile(spec, sq)
    T = (
        Ba[:, None, :] * Bb[None, :, :] * K[:, :, None]
        + 2.0 * P1[:, :, None] * D * (Bb[None, :, :] - Ba[:, None, :])
        - 4.0 * P2[:, :, None] * (D * D)
        - 2.0 * P1[:, :, None]
    )
    total = T.sum(axis=(0, 1))
    peak = float(np.max(np.abs(T)))
    if a0 != b0:
        total = 2.0 * total
    return total, peak


def eager_coord_stein_sums(batch, B, spec):
    """``coord_stein_sums`` with the peak always computed: every block pair
    of the dense formula above contributes its sums and its peak, and the
    pieces are checked against ``-NEGATIVE_TOLERANCE * peak`` whatever
    their sign.  Reference for the engine's lazy peak pass."""
    X = batch.points
    Bm = np.asarray(B, dtype=np.float64)
    blocks = row_blocks(batch.n)
    parts = [
        dense_block_pair_terms(X, Bm, spec, rows_a, rows_b)
        for ia, rows_a in enumerate(blocks)
        for rows_b in blocks[ia:]
    ]
    w_sq = tree_reduce_sum([total for total, _ in parts]) / float(batch.n) ** 2
    floor = -NEGATIVE_TOLERANCE * max(peak for _, peak in parts)
    if np.any(w_sq < floor):
        raise NumericalConsistencyError(f"w_sq = {w_sq!r} is below {floor!r}")
    return w_sq


def median_heuristic_oracle(points):
    """``kernels.median_heuristic_bandwidth`` as ``np.median`` of the square
    roots of every pair's squared distance, taken by ``np.triu_indices``."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    iu = np.triu_indices(n, k=1)
    dists = np.sqrt(kernels.squared_distances(pts, pts)[iu])
    med = float(np.median(dists))
    if med == 0.0:
        warnings.warn("zero median distance", DegenerateBandwidthWarning)
        return kernels.BANDWIDTH_FLOOR
    return med * med / math.log(n)


def uniform_subsets_oracle(gen, count, pool_size, subset_size):
    """``rng.uniform_subsets`` as a partial Fisher-Yates shuffle of a tiled
    ``(count, pool_size)`` pool, one fancy-indexed swap per step, with the
    swap targets computed step by step."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 1 <= subset_size <= pool_size:
        raise ValueError(f"subset size {subset_size} not in [1, {pool_size}]")
    u = gen.random((count, subset_size))
    pool = np.tile(np.arange(pool_size, dtype=np.int64), (count, 1))
    if subset_size == pool_size:
        return pool
    rows = np.arange(count)
    for j in range(subset_size):
        r = j + (u[:, j] * (pool_size - j)).astype(np.int64)
        pool[rows, j], pool[rows, r] = pool[rows, r], pool[rows, j]
    return np.sort(pool[:, :subset_size], axis=1)


def pointwise_scaled_scores(batch, target, subsets=None):
    """Score matrix B built one point at a time: row i is
    ``(L/m) * grad_log_subset(subsets[i], x_i)``, or ``grad_log_full(x_i)``
    without an index matrix.  Reference for the row-blocked
    ``scaled_scores``."""
    X = batch.points
    B = np.empty_like(X)
    for i in range(batch.n):
        if subsets is None:
            B[i] = one_point_score(target.grad_log_full, X[i])
        else:
            B[i] = (target.L / subsets.shape[1]) * one_point_score(
                target.grad_log_subset, subsets[i], X[i]
            )
    return B


class TermTally:
    """Thread-safe count of the likelihood-term gradients a target evaluates.

    ``tally.target`` is a copy of ``target`` whose ``terms_sum`` adds the
    size of every ``(rows, m)`` subset matrix it is called with to
    ``tally.value``.  Every score path reaches the terms through
    ``terms_sum``, so the tally is the oracle for the ``term_evals`` that
    results report from their shapes.
    """

    def __init__(self, target):
        self.value = 0
        self._lock = threading.Lock()
        terms_sum = target.terms_sum

        def counted(subsets, X):
            with self._lock:
                self.value += subsets.size
            return terms_sum(subsets, X)

        self.target = replace(target, terms_sum=counted)


def sgld_chain_oracle(target, config):
    """One SGLD chain stepped alone, one point per score call: the reference
    for the lockstep engine behind ``samplers.sgld_chain``.  Raises
    ``DivergenceError`` naming the step whose iterate leaves the finite
    range, or whose score is non-finite (chained from the
    ``NonFiniteScoreError``)."""
    x =np.asarray(config.init, dtype=np.float64).reshape(-1)
    if x.shape == (1,) and target.dim > 1:
        x = np.full(target.dim, float(x[0]))
    gen = make_generator(config.seed)
    ratio = target.L / config.batch
    half = 0.5 * config.step
    noise_scale = math.sqrt(config.step)
    out = np.empty((config.steps, target.dim))
    for t in range(config.steps):
        idx = uniform_subset(gen, target.L, config.batch)
        try:
            terms = one_point_score(target.grad_log_terms, idx, x)
        except NonFiniteScoreError as err:
            raise DivergenceError(f"score at step {t}", step=t) from err
        ghat = target.grad_log_prior(x) + ratio * terms
        x = x + half * ghat + noise_scale * gen.standard_normal(target.dim)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(f"chain diverged at step {t}", step=t)
        out[t] = x
    return SampleBatch(out)


def ssvgd_direction_oracle(batch, target, spec, sq, subsets=None, threads=1):
    """``svgd.ssvgd_direction`` through the blocked path at every n: the
    target row blocks go through ``ordered_map`` and ``np.concatenate``,
    every product with the sources is a ``tree_reduce_sum`` over 256-row
    source blocks, the kernel profile is built with all three of its
    matrices, and the scores come from ``pointwise_scaled_scores``.  The
    reference for the library's one-block path below 257 particles and
    for its blocked path above."""
    X = batch.points
    n = batch.n
    sq = np.asarray(sq, dtype=np.float64)
    B = pointwise_scaled_scores(batch, target, subsets)
    sources = row_blocks(n)

    def source_sum(M, Y):
        return tree_reduce_sum([M[s0:s1].T @ Y[s0:s1] for s0, s1 in sources])

    def block_direction(span):
        i0, i1 = span
        K, P1, _ = kernels.radial_profile(spec, sq[:, i0:i1])
        drift = source_sum(K, B)
        rep = source_sum(P1, X) - X[i0:i1] * P1.sum(axis=0)[:, None]
        return (drift + 2.0 * rep) / n

    direction = np.concatenate(ordered_map(block_direction, sources, threads), axis=0)
    if not np.isfinite(direction).all():
        bad = int(np.where(~np.isfinite(direction).all(axis=1))[0][0])
        raise DivergenceError(f"non-finite update direction at particle {bad}", step=bad)
    return direction


def run_ssvgd_oracle(init, target, config, threads=1):
    """``svgd.run_ssvgd`` one round at a time: every round draws its own
    subsets (``uniform_subsets_oracle``, also when ``batch == L``), the
    median heuristic and the direction (``ssvgd_direction_oracle``) each
    get a squared-distance matrix of their own, the bandwidth goes into a
    new ``KernelSpec`` and the particles into a new ``SampleBatch`` every
    round, and every step allocates.  The reference for the chunked
    draws, the shared per-round distance matrix and the in-place round."""
    if config.batch > target.L:
        raise ValueError(f"batch size {config.batch} exceeds the {target.L} terms")
    X = init.points.copy()
    n = X.shape[0]
    gen = make_generator(config.seed)
    acc = np.zeros_like(X)
    evals_per_round = n * config.batch
    checkpoints = []
    for r in range(config.rounds):
        if config.bandwidth_policy == svgd.MEDIAN_PER_ROUND:
            spec = replace(config.kernel, bandwidth=kernels.median_heuristic_bandwidth(
                kernels.squared_distances(X, X)))
        else:
            spec = config.kernel
        subsets = uniform_subsets_oracle(gen, n, target.L, config.batch)
        direction = ssvgd_direction_oracle(
            SampleBatch(X), target, spec, kernels.squared_distances(X, X),
            None if config.batch == target.L else subsets, threads=threads
        )
        if config.schedule == svgd.ADAGRAD:
            acc = acc + direction * direction
            X = X + (config.step / (config.fudge + np.sqrt(acc))) * direction
        else:
            X = X + config.step * direction
        if not np.all(np.isfinite(X)):
            raise DivergenceError(f"particles diverged at round {r}", step=r)
        if config.checkpoint_every and (r + 1) % config.checkpoint_every == 0:
            checkpoints.append((r + 1, X.copy(), (r + 1) * evals_per_round))
    return svgd.SsvgdResult(
        final=SampleBatch(X),
        checkpoints=tuple(checkpoints),
        term_evals=config.rounds * evals_per_round,
    )


def fd_kernel_grad_x(spec, x, y, step=FD_STEP):
    x = np.asarray(x, dtype=np.longdouble)
    h = np.longdouble(step)
    out = np.empty(x.shape[0], dtype=np.float64)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = float((kernel_value_ld(spec, x + e, y)
                        - kernel_value_ld(spec, x - e, y)) / (2 * h))
    return out


def fd_kernel_cross(spec, x, y, step=FD_STEP):
    """Nested central difference of d2k / dx_j dy_j, per coordinate."""
    x = np.asarray(x, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    h = np.longdouble(step)
    out = np.empty(x.shape[0], dtype=np.float64)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        pp = kernel_value_ld(spec, x + e, y + e)
        pm = kernel_value_ld(spec, x + e, y - e)
        mp = kernel_value_ld(spec, x - e, y + e)
        mm = kernel_value_ld(spec, x - e, y - e)
        out[j] = float((pp - pm - mp + mm) / (4 * h * h))
    return out


def fd_gradient(f, x, step=FD_STEP):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        out[j] = (f(x + e) - f(x - e)) / (2 * step)
    return out


def gaussian_log_density(mu, sigma_sq):
    """Unnormalized log density of N(mu, diag(sigma_sq))."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma_sq = np.asarray(sigma_sq, dtype=np.float64)
    return lambda x: -0.5 * float(np.sum((x - mu) ** 2 / sigma_sq))


def gmm_log_density(observations, sigma1_sq=10.0, sigma2_sq=1.0, sigma_x_sq=2.0):
    """Unnormalized log posterior of the mixture locations (th1, th2):
    th1 ~ N(0, sigma1_sq), th2 ~ N(0, sigma2_sq), each observation from
    0.5 N(th1, sigma_x_sq) + 0.5 N(th1 + th2, sigma_x_sq)."""
    y = np.asarray(observations, dtype=np.float64)

    def f(th):
        prior = -0.5 * (th[0] ** 2 / sigma1_sq + th[1] ** 2 / sigma2_sq)
        la = -((y - th[0]) ** 2) / (2.0 * sigma_x_sq)
        lb = -((y - th[0] - th[1]) ** 2) / (2.0 * sigma_x_sq)
        return prior + float(np.sum(np.logaddexp(la, lb)))

    return f


def logreg_log_density(X, y):
    """Log likelihood of logistic regression (flat prior) at weights w:
    sum over rows of y z - log(1 + exp(z)), z = x . w."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def f(w):
        z = X @ w
        return float(np.sum(y * z - np.logaddexp(0.0, z)))

    return f


def assert_rel_close(actual, oracle, rtol=FD_RTOL, floor=1e-10):
    actual = np.atleast_1d(np.asarray(actual, dtype=np.float64))
    oracle = np.atleast_1d(np.asarray(oracle, dtype=np.float64))
    denom = np.maximum(np.abs(oracle), floor)
    rel = np.abs(actual - oracle) / denom
    assert np.all(rel <= rtol), f"max relative error {rel.max():.3e} > {rtol:.0e}"


def random_kernel_spec(rng, families=("imq", "log_inverse", "rbf")):
    family = families[rng.integers(len(families))]
    if family == "imq":
        return KernelSpec(
            "imq",
            beta=float(rng.uniform(-0.9, -0.1)),
            bandwidth=float(rng.uniform(0.5, 3.0)),
        )
    if family == "rbf":
        return KernelSpec("rbf", bandwidth=float(rng.uniform(0.5, 3.0)))
    return KernelSpec(
        "log_inverse",
        beta=float(rng.uniform(-1.5, -0.2)),
        alpha=float(rng.uniform(0.3, 2.0)),
        bandwidth=float(rng.uniform(0.5, 3.0)),
    )


def random_instance(rng, kinds=("gmm", "logreg"), families=("imq", "log_inverse"),
                    max_n=50, max_d=5, n=None):
    """Random (batch, target, spec, m) problem for oracle comparisons; the
    sample size is ``n``, or drawn from [2, max_n] when None."""
    kind = kinds[rng.integers(len(kinds))]
    if kind == "gmm":
        L = int(rng.integers(3, 12))
        obs = gen_gmm_data(0.0, 1.0, 2.0, L, seed=int(rng.integers(2**32)))
        target = make_gmm_posterior(obs)
        d = 2
    elif kind == "logreg":
        d = int(rng.integers(1, max_d + 1))
        L = int(rng.integers(3, 12))
        X, y = gen_logreg_data(L, d, rng.standard_normal(d),
                               seed=int(rng.integers(2**32)))
        target = make_logreg(X, y)
    else:
        d = int(rng.integers(1, max_d + 1))
        L = int(rng.integers(1, 12))
        target = make_gaussian(0.0, 1.0, L, dim=d)
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    batch = iid_gaussian(n, d, 0.0, 1.2, seed=int(rng.integers(2**32)))
    m = int(rng.integers(1, target.L + 1))
    spec = random_kernel_spec(rng, families=families)
    return batch, target, spec, m
