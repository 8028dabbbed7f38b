"""Reference covariate balance for the equivalence tests: one covariate at a
time, each arm's column a 1-D copy.

``proxyrank.propensity.balance_report`` reduces blocks of covariates at once;
it must reproduce this report exactly (same SMD bytes and degeneracy flags),
kept here (not in the package) purely as a test oracle.
"""
from __future__ import annotations

import numpy as np

from proxyrank.data import Dataset
from proxyrank.propensity import BalanceReport, BalanceRow, FitError


def _smd(x1: np.ndarray, x0: np.ndarray,
         w1: np.ndarray | None, w0: np.ndarray | None) -> tuple[float, bool]:
    if w1 is None:
        m1, m0 = float(x1.mean()), float(x0.mean())
        v1 = float(x1.var(ddof=1)) if len(x1) > 1 else 0.0
        v0 = float(x0.var(ddof=1)) if len(x0) > 1 else 0.0
    else:
        m1 = float(np.average(x1, weights=w1))
        m0 = float(np.average(x0, weights=w0))
        v1 = float(np.average((x1 - m1) ** 2, weights=w1))
        v0 = float(np.average((x0 - m0) ** 2, weights=w0))
    denom = float(np.sqrt((v1 + v0) / 2.0))
    if denom == 0.0:
        return 0.0, True
    return abs(m1 - m0) / denom, False


def balance_report(d: Dataset, weights: np.ndarray, threshold: float = 0.2) -> BalanceReport:
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != d.n:
        raise FitError("weights length differs from dataset length")
    if w.size and w.min() <= 0.0:
        raise FitError("weights must be positive")
    t = d.treatment == 1
    rows = []
    for j, name in enumerate(d.covariate_names):
        x = d.covariates[:, j]
        before, degen_b = _smd(x[t], x[~t], None, None)
        after, degen_a = _smd(x[t], x[~t], w[t], w[~t])
        rows.append(BalanceRow(covariate=name, smd_before=before, smd_after=after,
                               degenerate=degen_b and degen_a))
    return BalanceReport(rows=tuple(rows), threshold=threshold)
