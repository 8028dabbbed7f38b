"""Ordinal machinery: ranks, equal-size effect buckets, rank RMSE, top-k sets."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RankingError(ValueError):
    pass


def top_count(n: int, k_percent: float) -> int:
    """ceil(n * k / 100): how many of ``n`` units the top k% holds."""
    if not 0.0 < k_percent <= 100.0:
        raise RankingError("k must lie in (0, 100]")
    return int(np.ceil(n * k_percent / 100.0))


def top_fraction_indices(values: np.ndarray, k_percent: float) -> np.ndarray:
    """Indices of the ``top_count(n, k)`` largest values.

    Ties are broken by ascending original index, as in ``rank_and_bucket``,
    so these are the units it ranks 1 to ``top_count(n, k)``. Repeated calls
    agree and nested percentiles give nested sets.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    m = top_count(n, k_percent)
    order = np.lexsort((np.arange(n), -values))  # descending value, ties by index
    return np.sort(order[:m])


@dataclass(frozen=True)
class RankedCohort:
    """Per-unit rank (1 = largest effect estimate) and bucket level (L = top).

    Bucket sizes differ by at most one; when L does not divide n the lower
    levels absorb the remainder.
    """

    ite: np.ndarray
    rank: np.ndarray
    level: np.ndarray
    n_levels: int

    @property
    def n(self) -> int:
        return len(self.ite)


def rank_and_bucket(ite: np.ndarray, n_levels: int = 4) -> RankedCohort:
    """Rank units by descending effect estimate and cut into equal buckets.

    Ties are broken by ascending original index (stable and deterministic).
    Level 1 holds the smallest estimates, level ``n_levels`` the largest.
    """
    ite = np.asarray(ite, dtype=np.float64)
    n = len(ite)
    if n_levels < 1:
        raise RankingError("n_levels must be >= 1")
    if n < n_levels:
        raise RankingError(f"cannot cut {n} units into {n_levels} buckets")
    desc = np.lexsort((np.arange(n), -ite))
    rank = np.empty(n, dtype=np.int64)
    rank[desc] = np.arange(1, n + 1)

    base, rem = divmod(n, n_levels)
    sizes = np.full(n_levels, base, dtype=np.int64)
    sizes[:rem] += 1  # lower levels absorb the remainder
    bounds = np.cumsum(sizes)
    # position from the bottom of the ranking: 0 = smallest estimate
    pos_from_bottom = n - rank
    level = (np.searchsorted(bounds, pos_from_bottom, side="right") + 1).astype(np.int64)
    return RankedCohort(ite=ite, rank=rank, level=level, n_levels=n_levels)


def rank_rmse(predicted_levels: np.ndarray, true_levels: np.ndarray) -> float:
    """Root mean squared error between two per-unit level assignments."""
    p = np.asarray(predicted_levels, dtype=np.float64)
    t = np.asarray(true_levels, dtype=np.float64)
    if p.shape != t.shape:
        raise RankingError(f"level sequences differ in length: {p.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def spearman_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise RankingError("length mismatch")

    def avg_ranks(v: np.ndarray) -> np.ndarray:
        order = np.argsort(v, kind="mergesort")
        ranks = np.empty(len(v), dtype=np.float64)
        sv = v[order]
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and sv[j + 1] == sv[i]:
                j += 1
            ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return ranks

    rx = avg_ranks(x) - (len(x) + 1) / 2.0
    ry = avg_ranks(y) - (len(y) + 1) / 2.0
    denom = np.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        return 0.0
    return float(rx @ ry / denom)
