"""Treatment model: logistic propensity scores, trimming, stabilized weights,
and covariate-balance diagnostics.

The fit maximizes the L2-penalized mean Bernoulli log-likelihood by
full-batch gradient ascent with a backtracking step size. Deterministic,
no stochastic elements.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset


class FitError(ValueError):
    pass


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class PropensityFit:
    """Fitted treatment model and its per-unit scores.

    ``coefficients``/``intercept`` are on the original covariate scale.
    ``marginal`` is the empirical treated fraction of the fitted data (it is
    re-derived after trimming). ``scores`` is stored read-only, so every
    score stays strictly inside (0, 1) and every stabilized weight finite.
    """

    coefficients: np.ndarray
    intercept: float
    scores: np.ndarray
    marginal: float
    converged: bool
    n_iter: int
    grad_norm: float

    def __post_init__(self) -> None:
        s = np.asarray(self.scores, dtype=np.float64)
        s.setflags(write=False)
        if s.size and (s.min() <= 0.0 or s.max() >= 1.0):
            raise FitError("propensity scores must lie strictly inside (0, 1)")
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=np.float64))
        object.__setattr__(self, "scores", s)


def fit_propensity(d: Dataset, l2: float = 0.0, tol: float = 1e-6,
                   max_iter: int = 500) -> PropensityFit:
    """Fit P(A=1 | X) by penalized maximum likelihood.

    Covariates are standardized internally before optimization; reported
    coefficients are mapped back to the original scale. The objective is the
    mean log-likelihood minus ``0.5 * l2 * ||w||^2`` (intercept unpenalized).
    Ascent stops when the gradient max-norm drops below ``tol``; hitting
    ``max_iter`` first is reported via ``converged=False``, not an error.
    """
    if l2 < 0:
        raise FitError("l2 must be >= 0")
    a = d.treatment.astype(np.float64)
    if a.min() == a.max():
        raise FitError("no variation in treatment: both arms are required")
    X = d.covariates
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    # The design [1 | (X - mu) / sd], built in place: one n x (k + 1) array.
    n, k = X.shape
    D = np.empty((n, k + 1))
    D[:, 0] = 1.0
    np.subtract(X, mu, out=D[:, 1:])
    D[:, 1:] /= sd

    # eta = D @ w of the current iterate and its objective value are carried
    # from the accepted trial, never recomputed for a w already evaluated.
    def objective(w: np.ndarray, eta: np.ndarray) -> float:
        return float(np.mean(a * eta - np.logaddexp(0.0, eta))
                     - 0.5 * l2 * float(w[1:] @ w[1:]))

    def gradient(w: np.ndarray, eta: np.ndarray) -> np.ndarray:
        g = D.T @ (a - _sigmoid(eta)) / n
        g[1:] -= l2 * w[1:]
        return g

    w = np.zeros(k + 1)
    eta = D @ w
    f = objective(w, eta)
    step = 1.0
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        g = gradient(w, eta)
        if float(np.max(np.abs(g))) < tol:
            n_iter -= 1
            break
        gsq = float(g @ g)
        t = step
        while True:  # backtrack; once t falls to 1e-14 the step is taken unchecked
            trial = w + t * g
            eta_trial = D @ trial
            f_trial = objective(trial, eta_trial)
            if t <= 1e-14 or not f_trial < f + 0.5 * t * gsq:
                break
            t *= 0.5
        w, eta, f = trial, eta_trial, f_trial
        step = min(t * 2.0, 1e6)
    grad_norm = float(np.max(np.abs(gradient(w, eta))))

    # |eta| capped at 30 keeps scores strictly inside (0, 1) even when the
    # data are separable and the unpenalized optimum diverges
    scores = _sigmoid(np.clip(eta, -30.0, 30.0))
    coef = w[1:] / sd
    intercept = float(w[0] - np.sum(w[1:] * mu / sd))
    return PropensityFit(coefficients=coef, intercept=intercept, scores=scores,
                         marginal=float(a.mean()), converged=grad_norm < tol,
                         n_iter=n_iter, grad_norm=grad_norm)


def trim_rows(fit: PropensityFit, treatment: np.ndarray, lo_q: float = 0.01,
              hi_q: float = 0.99) -> tuple[np.ndarray, PropensityFit]:
    """The indices of the units whose scores lie inside the [lo_q, hi_q]
    score quantiles, in row order, and the fit re-indexed to them.

    The returned fit re-indexes scores and recomputes the marginal treated
    fraction on the retained rows.
    """
    if not 0.0 <= lo_q < hi_q <= 1.0:
        raise FitError("need 0 <= lo_q < hi_q <= 1")
    if len(fit.scores) != len(treatment):
        raise FitError(f"fit covers {len(fit.scores)} units, dataset has {len(treatment)}")
    t_lo, t_hi = np.quantile(fit.scores, [lo_q, hi_q])
    keep = np.flatnonzero((fit.scores >= t_lo) & (fit.scores <= t_hi))
    a_kept = treatment[keep]
    if a_kept.size == 0 or a_kept.min() == a_kept.max():
        raise FitError("trimming would remove an entire treatment arm")
    new_fit = replace(fit, scores=fit.scores[keep], marginal=float(a_kept.mean()))
    return keep, new_fit


def trim_extremes(fit: PropensityFit, d: Dataset, lo_q: float = 0.01,
                  hi_q: float = 0.99) -> tuple[Dataset, PropensityFit]:
    """Drop units with scores strictly outside the [lo_q, hi_q] score
    quantiles: ``trim_rows``, with the retained rows as a new dataset."""
    keep, new_fit = trim_rows(fit, d.treatment, lo_q, hi_q)
    return d.subset(keep), new_fit


def ipw_weights(a: np.ndarray, e: np.ndarray, p: float) -> np.ndarray:
    """w_i = a_i * p / e_i + (1 - a_i) * (1 - p) / (1 - e_i): the stabilized
    weights of binary treatments ``a`` with scores ``e`` strictly inside
    (0, 1) and treated fraction ``p``."""
    return np.where(a == 1, p / e, (1.0 - p) / (1.0 - e))


@dataclass(frozen=True)
class BalanceRow:
    covariate: str
    smd_before: float
    smd_after: float
    degenerate: bool = False


@dataclass(frozen=True)
class BalanceReport:
    """Standardized mean differences per covariate, before and after weighting."""

    rows: tuple[BalanceRow, ...]
    threshold: float = 0.2

    @property
    def flagged(self) -> tuple[str, ...]:
        return tuple(r.covariate for r in self.rows if r.smd_after > self.threshold)

    def mean_before(self) -> float:
        return float(np.mean([r.smd_before for r in self.rows]))

    def mean_after(self) -> float:
        return float(np.mean([r.smd_after for r in self.rows]))


# Covariates reduced at once by ``balance_report``: a block is copied whole
# and per arm, so a block of 8 adds 2 x 8 x n x 8 bytes to the peak.
_BALANCE_BLOCK = 8


def _smds(x1: np.ndarray, x0: np.ndarray, w1: np.ndarray | None,
          w0: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """SMD and degeneracy of each row of ``x1`` (treated) against the same
    row of ``x0`` (control), C-contiguous (covariates, units) arrays,
    unweighted when ``w1`` is None. Each row reduces as the 1-D column it
    holds would, so every value has the bits of a per-column pass."""
    if w1 is None:
        m1, m0 = x1.mean(axis=1), x0.mean(axis=1)
        v1 = x1.var(axis=1, ddof=1) if x1.shape[1] > 1 else np.zeros(len(x1))
        v0 = x0.var(axis=1, ddof=1) if x0.shape[1] > 1 else np.zeros(len(x0))
    else:
        m1 = np.average(x1, axis=1, weights=w1)
        m0 = np.average(x0, axis=1, weights=w0)
        v1 = np.average((x1 - m1[:, None]) ** 2, axis=1, weights=w1)
        v0 = np.average((x0 - m0[:, None]) ** 2, axis=1, weights=w0)
    denom = np.sqrt((v1 + v0) / 2.0)
    degenerate = denom == 0.0
    smd = np.abs(m1 - m0) / np.where(degenerate, 1.0, denom)
    return np.where(degenerate, 0.0, smd), degenerate


def balance_report(d: Dataset, weights: np.ndarray, threshold: float = 0.2) -> BalanceReport:
    """SMD of each covariate between arms, unweighted and IPTW-weighted.

    SMD = |m1 - m0| / sqrt((s1^2 + s0^2) / 2). The weighted pass uses
    weighted means and frequency-weight variances. A covariate with zero
    variance in both arms reports SMD 0 with a degeneracy flag; an arm of
    one unit has variance 0 unweighted.

    The covariates are taken ``_BALANCE_BLOCK`` at a time, as a transposed
    copy split by arm into contiguous rows, each reduced along its row;
    that gives the bits of reducing each column on its own.
    """
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != d.n:
        raise FitError("weights length differs from dataset length")
    if w.size and w.min() <= 0.0:
        raise FitError("weights must be positive")
    t = d.treatment == 1
    w1, w0 = w[t], w[~t]
    rows = []
    for lo in range(0, d.k, _BALANCE_BLOCK):
        names = d.covariate_names[lo:lo + _BALANCE_BLOCK]
        block = np.ascontiguousarray(d.covariates[:, lo:lo + len(names)].T)
        x1, x0 = np.compress(t, block, axis=1), np.compress(~t, block, axis=1)
        before, degen_b = _smds(x1, x0, None, None)
        after, degen_a = _smds(x1, x0, w1, w0)
        rows += [BalanceRow(covariate=name, smd_before=b, smd_after=a, degenerate=db and da)
                 for name, b, a, db, da in zip(names, before.tolist(), after.tolist(),
                                               degen_b.tolist(), degen_a.tolist())]
    return BalanceReport(rows=tuple(rows), threshold=threshold)
