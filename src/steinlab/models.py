"""Decomposable targets: log-densities p(x) = prior(x) * prod_l term_l(x).

A target is given by two functions, its prior score and the sum of its term
scores over a subset; from them it exposes the full score, term-score sums,
and subset scores (with the prior share weighted by ``|subset| / L``).
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

from .errors import NonFiniteScoreError
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
    and return ``(n, d)``.  A target is immutable after construction.
    """

    dim: int
    L: int
    grad_log_prior: Callable
    terms_sum: Callable

    def _points(self, x) -> np.ndarray:
        """The call's points as an (rows, d) matrix."""
        X = np.asarray(x, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(
                f"points have shape {X.shape}, target expects (n, {self.dim})"
            )
        return X

    def _subsets(self, indices, X) -> np.ndarray:
        """The call's term subsets as an (rows, m) int64 matrix whose rows
        are strictly ascending."""
        subs = np.asarray(indices, dtype=np.int64)
        if subs.ndim != 2 or subs.shape[0] != X.shape[0]:
            raise ValueError(
                f"expected one term subset per point as an ({X.shape[0]}, m) "
                f"matrix, got shape {subs.shape}"
            )
        if subs.shape[1] == 0:
            raise ValueError("term subset must be nonempty")
        if subs.min() < 0 or subs.max() >= self.L:
            raise ValueError(f"term indices must lie in [0, {self.L})")
        if (subs[:, 1:] <= subs[:, :-1]).any():
            raise ValueError("term subset rows must be strictly ascending")
        return subs

    def _term_sums(self, subs: np.ndarray, X: np.ndarray) -> np.ndarray:
        sums = np.asarray(self.terms_sum(subs, X), dtype=np.float64)
        if sums.shape != X.shape:
            raise ValueError(
                f"terms_sum returned shape {sums.shape}, expected {X.shape}"
            )
        if not np.isfinite(sums).all():
            self._raise_non_finite(subs, X, _first_bad_row(sums))
        return sums

    def _raise_non_finite(self, subs, X, row):
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

    def _subset_scores(self, subs, X) -> np.ndarray:
        """``(m/L) * prior score + sum of subset term scores`` per row."""
        prior = np.asarray(self.grad_log_prior(X), dtype=np.float64)
        if not np.isfinite(prior).all():
            row = _first_bad_row(np.broadcast_to(prior, X.shape))
            raise NonFiniteScoreError(
                f"non-finite prior score at point {row}, x={X[row]!r}",
                point_index=row,
            )
        return (subs.shape[1] / self.L) * prior + self._term_sums(subs, X)

    def grad_log_terms(self, indices, x) -> np.ndarray:
        """Ascending-order sum of per-term scores over each index row."""
        X = self._points(x)
        return self._term_sums(self._subsets(indices, X), X)

    def grad_log_full(self, x) -> np.ndarray:
        """Exact full score: prior score plus the sum of all L term scores."""
        X = self._points(x)
        subs = np.broadcast_to(np.arange(self.L), (X.shape[0], self.L))
        return self._subset_scores(subs, X)

    def grad_log_subset(self, sigma, x) -> np.ndarray:
        """Score of the subset posterior prior^(|sigma|/L) * prod_{l in sigma}
        term_l, i.e. ``(|sigma|/L) * prior score + sum of subset term scores``,
        one subset row of ``sigma`` per point.
        """
        X = self._points(x)
        return self._subset_scores(self._subsets(sigma, X), X)


def _first_bad_row(values) -> int:
    """Index of the first row of a 2-D array holding a non-finite entry."""
    return int(np.argmin(np.isfinite(values).all(axis=1)))


def make_gaussian(mu, sigma_sq, L, dim=None) -> DecomposableTarget:
    """Gaussian N(mu, diag(sigma_sq)) split into L identical likelihood
    factors under a flat prior.

    Every factor carries 1/L of the full score, so factor sums collapse
    algebraically to ``(count / L) * full score``.  Implementing them through
    that collapse keeps the scaled subset score equal to the full score to
    the last bit whenever ``L / count`` is a power of two, which the
    equal-factor identity tests exploit.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    sigma_sq = np.atleast_1d(np.asarray(sigma_sq, dtype=np.float64))
    mu, sigma_sq = np.broadcast_arrays(mu, sigma_sq)
    if dim is not None:
        mu = np.broadcast_to(mu, (int(dim),))
        sigma_sq = np.broadcast_to(sigma_sq, (int(dim),))
    mu = np.array(mu, dtype=np.float64)
    sigma_sq = np.array(sigma_sq, dtype=np.float64)
    d = mu.shape[0]
    if not np.all(sigma_sq > 0):
        raise ValueError("variances must be positive")
    if L < 1:
        raise ValueError("L must be at least 1")
    L = int(L)

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
    if min(sigma1_sq, sigma2_sq, sigma_x_sq) <= 0:
        raise ValueError("variances must be positive")
    prior_var = np.array([sigma1_sq, sigma2_sq], dtype=np.float64)
    sx = float(sigma_x_sq)

    def _score_terms(yy, th):
        """Per-term scores, shape (..., m, 2), of observations yy (..., m)
        at the locations th (..., 2)."""
        t1, t2 = th[..., 0:1], th[..., 1:2]
        r1 = yy - t1
        r2 = yy - t1 - t2
        la = -(r1 * r1) / (2.0 * sx)
        lb = -(r2 * r2) / (2.0 * sx)
        mm = np.maximum(la, lb)
        wa = np.exp(la - mm)
        wb = np.exp(lb - mm)
        den = (wa + wb) * sx
        g1 = (wa * r1 + wb * r2) / den
        g2 = (wb * r2) / den
        return np.stack([g1, g2], axis=-1)

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
    if L < 1:
        raise ValueError("L must be at least 1")
    if sigma_x_sq <= 0:
        raise ValueError("sigma_x_sq must be positive")
    gen = make_generator(seed)
    mix = gen.random(L) < 0.5
    means = np.where(mix, float(theta1), float(theta1) + float(theta2))
    return means + math.sqrt(sigma_x_sq) * gen.standard_normal(L)


def gen_logreg_data(n, d, w_true, seed):
    """Standard-normal design matrix and Bernoulli(sigmoid(X w)) labels."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    w = np.broadcast_to(np.atleast_1d(np.asarray(w_true, float)), (d,))
    gen = make_generator(seed)
    X = gen.standard_normal((n, d))
    p = sigmoid(X @ w)
    labels = (gen.random(n) < p).astype(np.float64)
    return X, labels
