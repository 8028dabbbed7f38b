"""Weighted regression trees, bagged forests, and least-squares boosting.

Instance weights enter the split criterion as frequency weights (weighted
variance reduction) and leaves predict weighted means, so rescaling all
weights by a constant leaves every fitted tree unchanged.

The split search is exact CART over presorted attribute lists (SLIQ, Mehta
et al., EDBT 1996). Each fit stable-sorts every feature once; every node
keeps its rows in that order for each feature, and a split hands the
children their lists by a stable partition instead of a new sort. A node's
row set is kept in ascending index order, so the global stable order
restricted to a node is the order a stable per-node sort would give, and the
cumulative sums scanned for the best cut add the same numbers in the same
order. Boosting sorts its design once for all rounds, as XGBoost's exact
greedy search does (Chen & Guestrin, KDD 2016).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .rng import derive_seed, substream

_MIN_GAIN = 1e-12
_BLOCK = 1 << 16  # gathered elements (features x node rows) scored at once


@dataclass
class _Node:
    value: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        return {"value": self.value, "feature": self.feature, "threshold": self.threshold,
                "left": self.left.to_dict(), "right": self.right.to_dict()}


def _sort_column(col: np.ndarray) -> tuple[np.ndarray, bool]:
    """Stable ascending order of ``col`` and whether any value fails to exceed
    its predecessor in that order (a tie or a NaN)."""
    order = np.argsort(col, kind="stable")
    xs = col[order]
    return order, not (xs[:-1] < xs[1:]).all()


def _presort(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_sort_column`` of every column of ``F``: orders of shape (k, n) int32
    and tie flags. In an untied column every cut, in every node, separates
    distinct values."""
    k = F.shape[1]
    order = np.empty((k, F.shape[0]), dtype=np.int32)
    tied = np.empty(k, dtype=bool)
    for j in range(k):
        order[j], tied[j] = _sort_column(F[:, j])
    return order, tied


def _presort_sample(Fs: np.ndarray, rows: np.ndarray,
                    presorted: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``_presort(Fs)`` for the resample ``Fs = F[rows]``, given ``presorted =
    _presort(F)``.

    In an untied column of F, equal values in Fs are copies of one row, which
    a stable sort keeps in position order: the order is F's order with each
    row replaced by its positions in ``rows``. Tied columns are sorted anew.
    """
    order, tied = presorted
    k, n = order.shape
    m = len(rows)
    copies = np.argsort(rows, kind="stable")  # positions, grouped by source row
    count = np.bincount(rows, minlength=n)
    first = np.cumsum(count) - count
    out = np.empty((k, m), dtype=np.int32)
    out_tied = np.full(k, count.max(initial=0) > 1)
    for j in range(k):
        if tied[j]:
            out[j], out_tied[j] = _sort_column(Fs[:, j])
        else:
            c = count[order[j]]
            out[j] = copies[np.repeat(first[order[j]] - np.cumsum(c) + c, c) + np.arange(m)]
    return out, out_tied


def _best_split(F: np.ndarray, w: np.ndarray, wy: np.ndarray, wyy: np.ndarray,
                order: np.ndarray, tied: np.ndarray, features: np.ndarray,
                sums: tuple[float, float, float], min_leaf: int):
    """Split with the largest weighted-SSE reduction, as (gain, feature,
    threshold), or None.

    ``order[j]`` lists the node's rows sorted by feature j and ``sums`` holds
    the node's sums of w, w*y and w*y*y. Within a feature the first cut of
    least SSE wins; across features, taken in ascending order, a later one
    wins only with a strictly larger gain.
    """
    m = order.shape[1]
    lo, hi = min_leaf - 1, m - min_leaf  # cut after position i, lo <= i < hi
    sw, swy, swyy = sums
    parent_sse = swyy - swy * swy / sw
    best = None
    step = max(1, _BLOCK // m)
    for c in range(0, len(features), step):
        feats = features[c:c + step]
        idx = order[feats, :hi + 1].astype(np.intp)  # np.take is fastest on intp
        head = idx[:, :hi]
        lw = np.cumsum(np.take(w, head), axis=1)[:, lo:]
        lwy = np.cumsum(np.take(wy, head), axis=1)[:, lo:]
        lwyy = np.cumsum(np.take(wyy, head), axis=1)[:, lo:]
        rw, rwy, rwyy = sw - lw, swy - lwy, swyy - lwyy
        # sse = (lwyy - lwy * lwy / lw) + (rwyy - rwy * rwy / rw), in place
        sse = lwy * lwy
        sse /= lw
        np.subtract(lwyy, sse, out=sse)
        rwy *= rwy
        rwy /= rw
        np.subtract(rwyy, rwy, out=rwy)
        sse += rwy
        t = np.flatnonzero(tied[feats])
        if t.size:  # a cut must separate distinct values
            xs = np.take(F, idx[t] * F.shape[1] + feats[t, None])
            sse[t] = np.where(xs[:, lo:hi] < xs[:, lo + 1:], sse[t], np.inf)
        cut = np.argmin(sse, axis=1)
        gain = parent_sse - sse[np.arange(len(feats)), cut]
        wins = gain > (_MIN_GAIN if best is None else best[0])
        if wins.any():
            b = int(np.argmax(np.where(wins, gain, -np.inf)))
            j, i = int(feats[b]), lo + int(cut[b])
            best = (float(gain[b]), j, float(0.5 * (F[idx[b, i], j] + F[idx[b, i + 1], j])))
    return best


def _grow(F: np.ndarray, y: np.ndarray, w: np.ndarray, order: np.ndarray,
          tied: np.ndarray, max_depth: int | None, min_leaf: int, mtry: int,
          rng: np.random.Generator) -> _Node:
    """Grow one tree depth-first, left subtree first, from the presorted
    ``order`` of F; the feature subsample of every split node is drawn from
    ``rng`` in that order."""
    k, n = order.shape
    wy = w * y
    wyy = wy * y
    goes_left = np.zeros(n, dtype=bool)
    root = _Node(value=0.0)
    stack = [(root, np.arange(n), order, 0)]
    while stack:
        node, rows, order, depth = stack.pop()
        sw, swy = float(w[rows].sum()), float(wy[rows].sum())
        node.value = swy / sw
        if (max_depth is not None and depth >= max_depth) or len(rows) < 2 * min_leaf:
            continue
        feats = np.arange(k) if mtry == k else np.sort(rng.choice(k, mtry, replace=False))
        best = _best_split(F, w, wy, wyy, order, tied, feats,
                           (sw, swy, float(wyy[rows].sum())), min_leaf)
        if best is None:
            continue
        _, j, thr = best
        left = F[rows, j] <= thr
        goes_left[rows] = left
        sel = np.take(goes_left, order.ravel())
        n_left = int(np.count_nonzero(left))
        node.feature, node.threshold = j, thr
        node.left, node.right = _Node(value=0.0), _Node(value=0.0)
        stack.append((node.right, rows[~left],
                      np.compress(~sel, order).reshape(k, len(rows) - n_left), depth + 1))
        stack.append((node.left, rows[left],
                      np.compress(sel, order).reshape(k, n_left), depth + 1))
    return root


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_count(name: str, value, low: int, optional: bool = False) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``low`` (or None,
    when ``optional``); NaN and 2.5 are not integers."""
    if optional and value is None:
        return
    if not (_is_integer(value) and value >= low):
        none = "None or " if optional else ""
        raise ValueError(f"{name} must be {none}an integer >= {low}, got {value!r}")


def _check_tree_params(max_depth, min_samples_leaf, seed, max_features=None) -> None:
    """Raise ValueError for a value of the wrong kind or out of range."""
    _check_count("max_depth", max_depth, 0, optional=True)
    _check_count("min_samples_leaf", min_samples_leaf, 1)
    _check_count("max_features", max_features, 1, optional=True)
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")


class _TreeModel:
    """What the tree models share as outcome estimators (``outcomes.ESTIMATORS``)."""

    loss_kind = "squared_error"

    def loss(self, F: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
        return float(np.sum(w * (y - self.predict(F)) ** 2))


@dataclass
class RegressionTree(_TreeModel):
    """CART regression tree with frequency-weighted splits and leaf means."""

    max_depth: int | None = 8
    min_samples_leaf: int = 5
    max_features: int | None = None  # per-split subsample; None = all
    seed: int = 0
    root: _Node | None = field(default=None, init=False)
    n_iter = 1  # trees per fit

    def __post_init__(self) -> None:
        _check_tree_params(self.max_depth, self.min_samples_leaf, self.seed, self.max_features)

    def fit(self, F: np.ndarray, y: np.ndarray, w: np.ndarray,
            presorted: tuple[np.ndarray, np.ndarray] | None = None) -> "RegressionTree":
        """Fit to design ``F``; ``presorted`` is ``_presort(F)`` when the caller
        already has it (boosting reuses one across its rounds)."""
        F = np.ascontiguousarray(F, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        order, tied = _presort(F) if presorted is None else presorted
        k = F.shape[1]
        mtry = k if self.max_features is None else min(self.max_features, k)
        self.root = _grow(F, y, w, order, tied, self.max_depth, self.min_samples_leaf,
                          mtry, substream(self.seed, "tree-features"))
        return self

    def predict(self, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=np.float64)
        out = np.empty(len(F))
        stack = [(self.root, np.arange(len(F)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = node.value
                continue
            mask = F[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))
        return out

    def to_dict(self) -> dict:
        return {"max_depth": self.max_depth, "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features, "seed": self.seed,
                "root": self.root.to_dict()}

    def __getstate__(self) -> dict:
        """The fields, with the nodes as preorder arrays of value, feature
        (-1 at a leaf) and threshold: pickle would recurse once per level of
        the linked nodes and fail on a deep tree."""
        state = dict(self.__dict__, root=None)
        if self.root is not None:
            nodes, stack = [], [self.root]
            while stack:
                node = stack.pop()
                nodes.append(node)
                if not node.is_leaf:
                    stack += (node.right, node.left)
            state["root"] = (np.array([n.value for n in nodes], dtype=np.float64),
                             np.array([-1 if n.is_leaf else n.feature for n in nodes],
                                      dtype=np.int64),
                             np.array([n.threshold for n in nodes], dtype=np.float64))
        return state

    def __setstate__(self, state: dict) -> None:
        """Rebuild the nodes from ``__getstate__``'s preorder arrays."""
        arrays = state["root"]
        self.__dict__.update(state, root=None)
        if arrays is None:
            return
        open_nodes = []  # split nodes still missing a child
        for value, feature, threshold in zip(*(a.tolist() for a in arrays)):
            node = _Node(value=value, feature=feature, threshold=threshold)
            if self.root is None:
                self.root = node
            elif open_nodes[-1].left is None:
                open_nodes[-1].left = node
            else:
                open_nodes.pop().right = node
            if feature >= 0:
                open_nodes.append(node)


@dataclass
class RandomForest(_TreeModel):
    """Bagging over weighted regression trees with per-split feature subsampling."""

    n_trees: int = 100
    min_samples_leaf: int = 20
    max_depth: int | None = None
    seed: int = 0
    trees: list[RegressionTree] = field(default_factory=list, init=False)
    n_iter = property(lambda self: self.n_trees)

    def __post_init__(self) -> None:
        _check_count("n_trees", self.n_trees, 1)
        _check_tree_params(self.max_depth, self.min_samples_leaf, self.seed)

    def fit(self, F: np.ndarray, y: np.ndarray, w: np.ndarray) -> "RandomForest":
        F = np.asarray(F, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        n, k = F.shape
        mtry = max(1, int(np.sqrt(k)))
        presorted = _presort(F)
        self.trees = []
        for b in range(self.n_trees):
            rows = substream(self.seed, "bag", b).integers(0, n, size=n)
            tree = RegressionTree(max_depth=self.max_depth,
                                  min_samples_leaf=self.min_samples_leaf,
                                  max_features=mtry, seed=derive_seed(self.seed, "rf", b))
            Fs = F[rows]
            tree.fit(Fs, y[rows], w[rows], _presort_sample(Fs, rows, presorted))
            self.trees.append(tree)
        return self

    def predict(self, F: np.ndarray) -> np.ndarray:
        preds = np.zeros(len(F))
        for tree in self.trees:
            preds += tree.predict(F)
        return preds / len(self.trees)

    def to_dict(self) -> dict:
        return {"n_trees": self.n_trees, "min_samples_leaf": self.min_samples_leaf,
                "max_depth": self.max_depth, "seed": self.seed,
                "trees": [t.to_dict() for t in self.trees]}


@dataclass
class GradientBoostedTrees(_TreeModel):
    """Least-squares gradient boosting: shallow trees fit to residuals.

    With squared loss and weighted-mean leaves, the weighted training loss is
    non-increasing in every round for any shrinkage in (0, 2).
    """

    n_rounds: int = 100
    max_depth: int = 4
    shrinkage: float = 0.1
    min_samples_leaf: int = 5
    seed: int = 0
    base_value: float = field(default=0.0, init=False)
    trees: list[RegressionTree] = field(default_factory=list, init=False)
    train_losses: list[float] = field(default_factory=list, init=False)
    n_iter = property(lambda self: self.n_rounds)

    def __post_init__(self) -> None:
        if not 0.0 < self.shrinkage < 2.0:
            raise ValueError(f"shrinkage must lie in (0, 2), got {self.shrinkage}")
        _check_count("n_rounds", self.n_rounds, 1)
        _check_tree_params(self.max_depth, self.min_samples_leaf, self.seed)

    def fit(self, F: np.ndarray, y: np.ndarray, w: np.ndarray) -> "GradientBoostedTrees":
        F = np.ascontiguousarray(F, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        presorted = _presort(F)
        self.base_value = float(np.average(y, weights=w))
        current = np.full(len(y), self.base_value)
        self.trees = []
        self.train_losses = [float(np.average((y - current) ** 2, weights=w))]
        for r in range(self.n_rounds):
            residual = y - current
            tree = RegressionTree(max_depth=self.max_depth,
                                  min_samples_leaf=self.min_samples_leaf,
                                  seed=derive_seed(self.seed, "gbt", r))
            tree.fit(F, residual, w, presorted)
            current = current + self.shrinkage * tree.predict(F)
            self.trees.append(tree)
            self.train_losses.append(float(np.average((y - current) ** 2, weights=w)))
        return self

    def predict(self, F: np.ndarray) -> np.ndarray:
        preds = np.full(len(F), self.base_value)
        for tree in self.trees:
            preds += self.shrinkage * tree.predict(F)
        return preds

    def to_dict(self) -> dict:
        return {"n_rounds": self.n_rounds, "max_depth": self.max_depth,
                "shrinkage": self.shrinkage, "min_samples_leaf": self.min_samples_leaf,
                "seed": self.seed, "base_value": self.base_value,
                "train_losses": self.train_losses,
                "trees": [t.to_dict() for t in self.trees]}
