"""Decomposable targets: log-densities p(x) = prior(x) * prod_l term_l(x).

A target is given by two functions, its prior score and the sum of its term
scores over a subset; from them it exposes the full score, term-score sums,
and subset scores (with the prior share weighted by ``|subset| / L``),
each a one-line wrapper of one checked scoring routine.
Scores are computed on stacked rows: each factory supplies one batched
``terms_sum(subsets, X)`` that gathers the ``(rows, m)`` term subsets into
an ``(rows, m, d)`` stack and reduces it over the term axis, so scoring a
block of points is one gather-and-reduce rather than one Python call per
point.  Factories cover an equal-factor Gaussian, the bimodal
Gaussian-mixture location posterior used for sampler step-size tuning, and
Bayesian logistic regression with a flat prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteScoreError, check_int, check_real
from .rng import make_generator


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class DecomposableTarget:
    """Target density whose likelihood splits into L independently
    evaluable terms.

    Scores are computed on stacked rows.  ``terms_sum(subsets, X)`` takes an
    ``(rows, m)`` index matrix and an ``(rows, d)`` point matrix and returns
    the ``(rows, d)`` matrix whose row i is the ascending-order sum of the
    score contributions of the terms ``subsets[i]`` at ``X[i]``, reduced with
    ``np.add.reduce`` over the term axis.  ``grad_log_prior`` maps stacked
    rows to prior scores row by row; a constant ``(d,)`` result broadcasts.
    These two are all the scoring paths need; a non-finite term sum is
    traced to its term by calling ``terms_sum`` on one-term subsets of the
    faulty row.

    The score methods take an ``(n, d)`` point matrix and, where they score
    subsets, an ``(n, m)`` index matrix whose rows are strictly ascending,
    and return ``(n, d)``.  All three check their arguments and score in
    one private routine.  A target is immutable after construction.
    """

    dim: int
    L: int
    grad_log_prior: Callable
    terms_sum: Callable

    def __post_init__(self):
        check_int("dim", self.dim, 1)
        check_int("L", self.L, 1)

    def _scores(self, x, indices=None, with_prior=True) -> np.ndarray:
        """The one scoring routine behind the three score methods.

        Checks the ``(rows, d)`` points and, when given, the ``(rows, m)``
        index matrix (shape, non-empty, in range, rows strictly ascending);
        with no indices every row scores all L terms.  Returns
        ``(m/L) * prior score + term sums`` per row, or the term sums alone
        when ``with_prior`` is False.  The prior is scored before the terms.
        The parts are checked finite only when the result is not: with
        ``m <= L`` the prior's share of a finite prior score is finite, so a
        finite total has finite parts.  A total that overflows from finite
        parts is returned as it is.
        """
        X = np.asarray(x, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(
                f"points have shape {X.shape}, target expects (n, {self.dim})"
            )
        if indices is None:
            subs = np.broadcast_to(np.arange(self.L), (X.shape[0], self.L))
        else:
            subs = np.asarray(indices, dtype=np.int64)
            if subs.ndim != 2 or subs.shape[0] != X.shape[0]:
                raise ValueError(
                    f"expected one term subset per point as an ({X.shape[0]}, m) "
                    f"matrix, got shape {subs.shape}"
                )
            if subs.shape[1] == 0:
                raise ValueError("term subset must be nonempty")
            # One unsigned maximum checks both ends: a negative index reads
            # as at least 2**63.
            if subs.view(np.uint64).max() >= self.L:
                raise ValueError(f"term indices must lie in [0, {self.L})")
            if (subs[:, 1:] <= subs[:, :-1]).any():
                raise ValueError("term subset rows must be strictly ascending")
        prior = np.asarray(self.grad_log_prior(X), dtype=np.float64) if with_prior else None
        sums = np.asarray(self.terms_sum(subs, X), dtype=np.float64)
        if sums.shape != X.shape:
            raise ValueError(
                f"terms_sum returned shape {sums.shape}, expected {X.shape}"
            )
        scores = sums if prior is None else (subs.shape[1] / self.L) * prior + sums
        if not np.isfinite(scores).all():
            self._raise_non_finite(subs, X, prior, sums)
        return scores

    def _raise_non_finite(self, subs, X, prior, sums):
        """Report the first non-finite part of a non-finite score: the prior
        score (None when unused), else a term sum, traced to its term by
        calling ``terms_sum`` on one-term subsets of the faulty row.
        Returns when both parts are finite."""
        if prior is not None and not np.isfinite(prior).all():
            row = _first_bad_row(np.broadcast_to(prior, X.shape))
            raise NonFiniteScoreError(
                f"non-finite prior score at point {row}, x={X[row]!r}",
                point_index=row,
            )
        if np.isfinite(sums).all():
            return
        row = _first_bad_row(sums)
        x = X[row]
        for l in subs[row]:
            g = np.asarray(self.terms_sum(np.array([[l]]), X[row:row + 1]),
                           dtype=np.float64)
            if not np.all(np.isfinite(g)):
                raise NonFiniteScoreError(
                    f"non-finite score from likelihood term {int(l)} at point "
                    f"{row}, x={x!r}",
                    term_index=int(l),
                    point_index=row,
                )
        raise NonFiniteScoreError(
            f"non-finite summed score over {subs.shape[1]} terms at point "
            f"{row}, x={x!r}",
            point_index=row,
        )

    def grad_log_terms(self, indices, x) -> np.ndarray:
        """Ascending-order sum of per-term scores over each index row."""
        return self._scores(x, indices, with_prior=False)

    def grad_log_full(self, x) -> np.ndarray:
        """Exact full score: prior score plus the sum of all L term scores."""
        return self._scores(x)

    def grad_log_subset(self, sigma, x) -> np.ndarray:
        """Score of the subset posterior prior^(|sigma|/L) * prod_{l in sigma}
        term_l, i.e. ``(|sigma|/L) * prior score + sum of subset term scores``,
        one subset row of ``sigma`` per point.
        """
        return self._scores(x, sigma)


def _first_bad_row(values) -> int:
    """Index of the first row of a 2-D array holding a non-finite entry."""
    return int(np.argmin(np.isfinite(values).all(axis=1)))


def _check_entries(name, values, positive=False):
    """``check_real`` of the first failing entry of an array, e.g. ``sigma_sq[1]``."""
    bad = np.argwhere(~np.isfinite(values) | (values <= 0 if positive else False))
    if len(bad):
        check_real(f"{name}{bad[0].tolist()}", float(values[tuple(bad[0])]), positive)


def make_gaussian(mu, sigma_sq, L, dim=None) -> DecomposableTarget:
    """Gaussian N(mu, diag(sigma_sq)) split into L identical likelihood
    factors under a flat prior.

    Every factor carries 1/L of the full score, so factor sums collapse
    algebraically to ``(count / L) * full score``.  Implementing them through
    that collapse keeps the scaled subset score equal to the full score to
    the last bit whenever ``L / count`` is a power of two, which the
    equal-factor identity tests exploit.
    """
    mu, sigma_sq = np.broadcast_arrays(np.atleast_1d(mu), np.atleast_1d(sigma_sq))
    shape = mu.shape if dim is None else (check_int("dim", dim, 1),)
    mu, sigma_sq = (np.array(np.broadcast_to(a, shape), dtype=np.float64)
                    for a in (mu, sigma_sq))
    d = mu.shape[0]
    _check_entries("mu", mu)
    _check_entries("sigma_sq", sigma_sq, positive=True)

    def full_score(X):
        return -(np.asarray(X, dtype=np.float64) - mu) / sigma_sq

    return DecomposableTarget(
        dim=d,
        L=L,
        grad_log_prior=lambda x: np.zeros(d),
        terms_sum=lambda subsets, X: (subsets.shape[1] / L) * full_score(X),
    )


def make_gmm_posterior(
    observations,
    *,
    sigma1_sq=10.0,
    sigma2_sq=1.0,
    sigma_x_sq=2.0,
) -> DecomposableTarget:
    """Posterior over the two location parameters of a 1-D Gaussian mixture.

    Model: th1 ~ N(0, sigma1_sq), th2 ~ N(0, sigma2_sq), and each observation
    is drawn from ``0.5 N(th1, sigma_x_sq) + 0.5 N(th1 + th2, sigma_x_sq)``.
    The posterior is bimodal, which makes it a sharp fixture for sampler
    step-size selection.  One likelihood term per observation.
    """
    y = np.asarray(observations, dtype=np.float64).reshape(-1)
    if y.size == 0:
        raise ValueError("observations must be nonempty")
    _check_entries("observations", y)
    prior_var = np.array([check_real("sigma1_sq", sigma1_sq, positive=True),
                          check_real("sigma2_sq", sigma2_sq, positive=True)], dtype=np.float64)
    sx = float(check_real("sigma_x_sq", sigma_x_sq, positive=True))

    def _score_terms(yy, th):
        """Per-term scores, shape (..., m, 2), of observations yy (..., m)
        at the locations th (..., 2); yy is overwritten.

        The arithmetic is that of

            r1 = yy - t1;  r2 = yy - t1 - t2
            la = -(r1 * r1) / (2 sx);  lb = -(r2 * r2) / (2 sx)
            mm = max(la, lb);  wa = exp(la - mm);  wb = exp(lb - mm)
            den = (wa + wb) * sx
            g1 = (wa * r1 + wb * r2) / den;  g2 = (wb * r2) / den

        in that order, run in place on four buffers of yy's shape, with g1
        and g2 written into the two halves of the result.
        """
        t1, t2 = th[..., 0:1], th[..., 1:2]
        r1 = np.subtract(yy, t1, out=yy)
        r2 = r1 - t2
        wa = np.multiply(r1, r1)
        np.negative(wa, out=wa)
        wa /= 2.0 * sx
        wb = np.multiply(r2, r2)
        np.negative(wb, out=wb)
        wb /= 2.0 * sx
        den = np.maximum(wa, wb)
        np.exp(np.subtract(wa, den, out=wa), out=wa)
        np.exp(np.subtract(wb, den, out=wb), out=wb)
        np.add(wa, wb, out=den)
        den *= sx
        r1 *= wa
        r2 *= wb
        out = np.empty(yy.shape + (2,))
        np.divide(np.add(r1, r2, out=r1), den, out=out[..., 0])
        np.divide(r2, den, out=out[..., 1])
        return out

    return DecomposableTarget(
        dim=2,
        L=int(y.size),
        grad_log_prior=lambda th: -np.asarray(th, dtype=np.float64) / prior_var,
        terms_sum=lambda subsets, TH: np.add.reduce(
            _score_terms(y[subsets], TH), axis=1
        ),
    )


def make_logreg(X, y) -> DecomposableTarget:
    """Bayesian logistic regression with a flat prior (zero prior score).

    One likelihood term per (row, label) pair; labels must be 0 or 1.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("design matrix must be a nonempty 2-D array")
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"{X.shape[0]} design rows but {y.shape[0]} labels"
        )
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must take values in {0, 1}")
    _check_entries("X", X)
    d = X.shape[1]

    def _score_terms(idx, w):
        """Per-term scores, shape (..., m, d), of the terms idx (..., m) at
        the weights w (..., d)."""
        Xs = X[idx]
        z = np.add.reduce(Xs * w[..., None, :], axis=-1)
        return (y[idx] - sigmoid(z))[..., None] * Xs

    return DecomposableTarget(
        dim=d,
        L=int(y.size),
        grad_log_prior=lambda w: np.zeros(d),
        terms_sum=lambda subsets, W: np.add.reduce(_score_terms(subsets, W), axis=1),
    )


def gen_gmm_data(theta1, theta2, sigma_x_sq, L, seed) -> np.ndarray:
    """L i.i.d. draws from 0.5 N(th1, sx) + 0.5 N(th1 + th2, sx)."""
    check_real("theta1", theta1)
    check_real("theta2", theta2)
    check_real("sigma_x_sq", sigma_x_sq, positive=True)
    check_int("L", L, 1)
    gen = make_generator(seed)
    mix = gen.random(L) < 0.5
    means = np.where(mix, float(theta1), float(theta1) + float(theta2))
    return means + math.sqrt(sigma_x_sq) * gen.standard_normal(L)


def gen_logreg_data(n, d, w_true, seed):
    """Standard-normal design matrix and Bernoulli(sigmoid(X w)) labels."""
    check_int("n", n, 1)
    check_int("d", d, 1)
    w = np.broadcast_to(np.atleast_1d(np.asarray(w_true, float)), (d,))
    _check_entries("w_true", w)
    gen = make_generator(seed)
    X = gen.standard_normal((n, d))
    p = sigmoid(X @ w)
    labels = (gen.random(n) < p).astype(np.float64)
    return X, labels
