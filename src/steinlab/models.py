"""Decomposable targets: log-densities p(x) = prior(x) * prod_l term_l(x).

A target exposes the full score, per-term scores, and subset scores (with
the prior share weighted by ``|subset| / L``), plus a thread-safe counter of
how many likelihood-term gradients have been consumed.  Factories cover an
equal-factor Gaussian, the bimodal Gaussian-mixture location posterior used
for sampler step-size tuning, and Bayesian logistic regression with a flat
prior.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteScoreError
from .rng import make_generator


class EvalCounter:
    """Monotone, thread-safe count of likelihood-term gradient evaluations."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def add(self, k):
        with self._lock:
            self._value += int(k)

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self):
        return f"EvalCounter({self._value})"


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class DecomposableTarget:
    """Target density whose likelihood splits into L independently
    evaluable terms.

    ``grad_log_term(l, x)`` returns the score contribution of term ``l``
    (0-based).  ``terms_sum(indices, x)`` must equal the ascending-order sum
    of those contributions and exists so factories can plug in a vectorized
    version; when absent, terms are stacked and reduced in ascending order.
    ``log_prior`` / ``log_term`` evaluate the (unnormalized) log-density and
    are consumed only by tests and diagnostics, never by the scoring paths.

    All model state is immutable after construction; only ``eval_counter``
    mutates, behind a lock.
    """

    dim: int
    L: int
    grad_log_prior: Callable
    grad_log_term: Callable
    terms_sum: Optional[Callable] = None
    log_prior: Optional[Callable] = None
    log_term: Optional[Callable] = None
    name: str = "target"
    eval_counter: EvalCounter = field(default_factory=EvalCounter, compare=False)

    def with_fresh_counter(self) -> "DecomposableTarget":
        """Copy sharing all model state but counting evaluations separately."""
        return replace(self, eval_counter=EvalCounter())

    def _check_point(self, x) -> np.ndarray:
        xv = np.asarray(x, dtype=np.float64).reshape(-1)
        if xv.shape[0] != self.dim:
            raise ValueError(
                f"point has dimension {xv.shape[0]}, target expects {self.dim}"
            )
        return xv

    def _canonical_indices(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        if idx.size == 0:
            raise ValueError("term subset must be nonempty")
        if idx.min() < 0 or idx.max() >= self.L:
            raise ValueError(f"term indices must lie in [0, {self.L})")
        # Subsets from the rng module arrive sorted; np.sort would release
        # the GIL once per score evaluation, so only unsorted input pays it.
        if np.any(idx[1:] <= idx[:-1]):
            idx = np.sort(idx)
            if np.any(idx[1:] == idx[:-1]):
                raise ValueError("term subset contains duplicate indices")
        return idx

    def _summed_terms(self, idx: np.ndarray, xv: np.ndarray) -> np.ndarray:
        if self.terms_sum is not None:
            out = np.asarray(self.terms_sum(idx, xv), dtype=np.float64)
        else:
            rows = np.stack(
                [
                    np.asarray(self.grad_log_term(int(l), xv), dtype=np.float64)
                    for l in idx
                ]
            )
            out = np.add.reduce(rows, axis=0)
        self.eval_counter.add(idx.size)
        if not np.all(np.isfinite(out)):
            self._raise_non_finite(idx, xv)
        return out

    def _raise_non_finite(self, idx, xv):
        for l in idx:
            g = np.asarray(self.grad_log_term(int(l), xv), dtype=np.float64)
            if not np.all(np.isfinite(g)):
                raise NonFiniteScoreError(
                    f"non-finite score from likelihood term {int(l)} at x={xv!r}",
                    term_index=int(l),
                )
        raise NonFiniteScoreError(
            f"non-finite summed score over {idx.size} terms at x={xv!r}"
        )

    def grad_log_terms(self, indices, x) -> np.ndarray:
        """Ascending-order sum of per-term scores over ``indices``."""
        xv = self._check_point(x)
        idx = self._canonical_indices(indices)
        return self._summed_terms(idx, xv)

    def grad_log_full(self, x) -> np.ndarray:
        """Exact full score: prior score plus the sum of all L term scores."""
        xv = self._check_point(x)
        prior = np.asarray(self.grad_log_prior(xv), dtype=np.float64)
        if not np.all(np.isfinite(prior)):
            raise NonFiniteScoreError(f"non-finite prior score at x={xv!r}")
        return prior + self._summed_terms(np.arange(self.L), xv)

    def grad_log_subset(self, sigma, x) -> np.ndarray:
        """Score of the subset posterior prior^(|sigma|/L) * prod_{l in sigma}
        term_l, i.e. ``(|sigma|/L) * prior score + sum of subset term scores``.
        """
        xv = self._check_point(x)
        idx = self._canonical_indices(sigma)
        prior = np.asarray(self.grad_log_prior(xv), dtype=np.float64)
        if not np.all(np.isfinite(prior)):
            raise NonFiniteScoreError(f"non-finite prior score at x={xv!r}")
        return (idx.size / self.L) * prior + self._summed_terms(idx, xv)


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

    def full_score(x):
        return -(np.asarray(x, dtype=np.float64) - mu) / sigma_sq

    return DecomposableTarget(
        dim=d,
        L=L,
        grad_log_prior=lambda x: np.zeros(d),
        grad_log_term=lambda l, x: (1.0 / L) * full_score(x),
        terms_sum=lambda idx, x: (idx.size / L) * full_score(x),
        log_prior=lambda x: 0.0,
        log_term=lambda l, x: (
            -0.5 * float(np.sum((np.asarray(x, float) - mu) ** 2 / sigma_sq)) / L
        ),
        name="gaussian",
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

    def _score_rows(yy, th):
        r1 = yy - th[0]
        r2 = yy - th[0] - th[1]
        la = -(r1 * r1) / (2.0 * sx)
        lb = -(r2 * r2) / (2.0 * sx)
        mm = np.maximum(la, lb)
        wa = np.exp(la - mm)
        wb = np.exp(lb - mm)
        den = (wa + wb) * sx
        g1 = (wa * r1 + wb * r2) / den
        g2 = (wb * r2) / den
        return np.stack([g1, g2], axis=1)

    def _log_term(l, th):
        th = np.asarray(th, dtype=np.float64)
        r1 = y[l] - th[0]
        r2 = y[l] - th[0] - th[1]
        la = -(r1 * r1) / (2.0 * sx)
        lb = -(r2 * r2) / (2.0 * sx)
        return float(
            np.logaddexp(la, lb) + math.log(0.5) - 0.5 * math.log(2.0 * math.pi * sx)
        )

    return DecomposableTarget(
        dim=2,
        L=int(y.size),
        grad_log_prior=lambda th: -np.asarray(th, dtype=np.float64) / prior_var,
        grad_log_term=lambda l, th: _score_rows(
            y[l : l + 1], np.asarray(th, dtype=np.float64)
        )[0],
        terms_sum=lambda idx, th: np.add.reduce(_score_rows(y[idx], th), axis=0),
        log_prior=lambda th: -0.5
        * float(np.sum(np.asarray(th, float) ** 2 / prior_var)),
        log_term=_log_term,
        name="gmm_posterior",
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

    def _score_rows(idx, w):
        Xs = X[idx]
        z = np.add.reduce(Xs * w, axis=1)
        return (y[idx] - sigmoid(z))[:, None] * Xs

    def _log_term(l, w):
        z = float(np.add.reduce(X[l] * np.asarray(w, float)))
        return y[l] * z - float(np.logaddexp(0.0, z))

    return DecomposableTarget(
        dim=d,
        L=int(y.size),
        grad_log_prior=lambda w: np.zeros(d),
        grad_log_term=lambda l, w: _score_rows(
            np.array([l]), np.asarray(w, dtype=np.float64)
        )[0],
        terms_sum=lambda idx, w: np.add.reduce(_score_rows(idx, w), axis=0),
        log_prior=lambda w: 0.0,
        log_term=_log_term,
        name="logreg",
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
