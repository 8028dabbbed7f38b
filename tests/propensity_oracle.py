"""Reference propensity fit for the equivalence tests: the standardized
covariates ``Xs = (X - mu) / sd`` as their own array, and the design as
``np.hstack([ones, Xs])``.

``proxyrank.propensity.fit_propensity`` builds the same design in one
preallocated array; it must reproduce this fit exactly (same coefficient and
score bytes, intercept, iteration count and gradient norm), kept here (not in
the package) purely as a test oracle.
"""
from __future__ import annotations

import numpy as np

from proxyrank.data import Dataset
from proxyrank.propensity import PropensityFit, _sigmoid


def fit_propensity(d: Dataset, l2: float = 0.0, tol: float = 1e-6,
                   max_iter: int = 500) -> PropensityFit:
    a = d.treatment.astype(np.float64)
    X = d.covariates
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    Xs = (X - mu) / sd
    n, k = Xs.shape
    D = np.hstack([np.ones((n, 1)), Xs])

    def objective(w, eta):
        return float(np.mean(a * eta - np.logaddexp(0.0, eta))
                     - 0.5 * l2 * float(w[1:] @ w[1:]))

    def gradient(w, eta):
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
        while True:
            trial = w + t * g
            eta_trial = D @ trial
            f_trial = objective(trial, eta_trial)
            if t <= 1e-14 or not f_trial < f + 0.5 * t * gsq:
                break
            t *= 0.5
        w, eta, f = trial, eta_trial, f_trial
        step = min(t * 2.0, 1e6)
    grad_norm = float(np.max(np.abs(gradient(w, eta))))
    scores = _sigmoid(np.clip(eta, -30.0, 30.0))
    coef = w[1:] / sd
    intercept = float(w[0] - np.sum(w[1:] * mu / sd))
    return PropensityFit(coefficients=coef, intercept=intercept, scores=scores,
                         marginal=float(a.mean()), converged=grad_norm < tol,
                         n_iter=n_iter, grad_norm=grad_norm)
