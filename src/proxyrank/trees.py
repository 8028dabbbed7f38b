"""Weighted regression trees, bagged forests, and least-squares boosting.

Instance weights enter the split criterion as frequency weights (weighted
variance reduction) and leaves predict weighted means, so rescaling all
weights by a constant leaves every fitted tree unchanged. A split must gain
more than the node's rounding bound, a fixed multiple of its Σwy², so the
bound scales with the gains: rescaling y by c rescales every prediction by c,
and a power-of-two c (or power-of-two weight scale) keeps every bit.

The split search is exact CART over presorted attribute lists (SLIQ, Mehta
et al., EDBT 1996). Each fit stable-sorts every feature once; every node
keeps its rows in that order for each feature, and a split hands the
children their lists by a stable partition instead of a new sort. A node's
row set is kept in ascending index order, so the global stable order
restricted to a node is the order a stable per-node sort would give, and the
cumulative sums scanned for the best cut add the same numbers in the same
order. Boosting sorts its design once for all rounds, as XGBoost's exact
greedy search does (Chen & Guestrin, KDD 2016), and a forest's resample
takes its order from F's. A child that will be a leaf (by depth, or with
fewer than 2 * min_samples_leaf rows) gets no lists.

A node of at least ``_SCREEN`` features x rows is screened first: every cut
is scored from the prefix sums of w and w*y alone, and the exact scan runs
only on the features whose best score lies within a rounding bound of the
node's best (``_screen`` proves the bound). The bound keeps every feature
that could win or tie, so screened and unscreened searches grow the same
trees to the bit; non-finite sums and non-positive weights scan every
feature. The node sums and prefix sums of w, w*y and w*y*y come from one
stacked gather. A fitted tree is its nodes as preorder arrays, which
prediction walks one vectorized step per level.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .rng import derive_seed, substream

# Rounding bound of a node's sums, relative to its sum of w*y*y: 64u, u = 2**-53
# (``_screen`` proves it). A split must gain more than this times Σwy².
_ROUNDING = 64 * 2.0**-53
_BLOCK = 1 << 16  # gathered elements (features x node rows) scored at once
_SCREEN = 1 << 14  # features x node rows from which a node's features are screened


@dataclass
class _Node:
    """A node of the ``RegressionTree.root`` view."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None


def _sort_column(col: np.ndarray) -> tuple[np.ndarray, bool]:
    """Stable ascending order of ``col`` and whether any value fails to exceed
    its predecessor in that order (a tie or a NaN)."""
    order = np.argsort(col, kind="stable")
    xs = col[order]
    return order, not (xs[:-1] < xs[1:]).all()


def _presort(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_sort_column`` of every column of ``F``: orders of shape (k, n) int32
    and a bool tie flag per column. In an untied column every cut, in every
    node, separates distinct values, so only a tied column's cuts are
    checked (``_mask_ties``)."""
    k = F.shape[1]
    order = np.empty((k, F.shape[0]), dtype=np.int32)
    tied = np.empty(k, dtype=bool)
    for j in range(k):
        order[j], tied[j] = _sort_column(F[:, j])
    return order, tied


def _presort_sample(Fs: np.ndarray, rows: np.ndarray,
                    presorted: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``_presort(Fs)`` for the resample ``Fs = F[rows]``, given ``presorted =
    _presort(F)``.

    In an untied column of F, equal values in Fs are copies of one row, which
    a stable sort keeps in position order: the order is F's order with each
    row replaced by its positions in ``rows``. Such a column is tied exactly
    when some row is drawn twice, as a fresh sort of Fs finds, and its cuts
    are then checked by value like any other tied column's. Tied columns are
    sorted anew.
    """
    order, tied = presorted
    k, n = order.shape
    m = len(rows)
    copies = np.argsort(rows, kind="stable")  # positions, grouped by source row
    count = np.bincount(rows, minlength=n)
    first = np.cumsum(count) - count
    out = np.empty((k, m), dtype=np.int32)
    out_tied = np.full(k, count.max(initial=0) > 1, dtype=bool)
    for j in range(k):
        if tied[j]:
            out[j], out_tied[j] = _sort_column(Fs[:, j])
        else:
            c = count[order[j]]
            out[j] = copies[np.repeat(first[order[j]] - np.cumsum(c) + c, c) + np.arange(m)]
    return out, out_tied


def _cut_terms(G: np.ndarray, head: np.ndarray, sw: float, swy: float, lo: int):
    """Prefix sums of the rows of ``G`` over each feature's ``head`` rows, from
    the cut after position ``lo`` on, and two terms of every cut's SSE:
    ``a = lwy * lwy / lw`` and ``b = rwy * rwy / rw``."""
    sums = np.cumsum(np.take(G, head, axis=1), axis=2)[:, :, lo:]
    lw, lwy = sums[0], sums[1]
    a = lwy * lwy
    a /= lw
    b = swy - lwy
    b *= b
    b /= sw - lw
    return sums, a, b


def _mask_ties(score: np.ndarray, F: np.ndarray, tied: np.ndarray, idx: np.ndarray,
               feats: np.ndarray, lo: int, hi: int, fill: float) -> None:
    """Set to ``fill`` the score of each cut lo <= i < hi of the listed
    ``feats`` that splits equal values (``idx`` holds their sorted rows,
    through position hi): in each column flagged in ``tied``, where the
    values in F do not increase (a NaN splits nothing)."""
    t = np.flatnonzero(tied[feats])
    if not t.size:
        return
    every = t.size == len(feats)
    rows = idx if every else idx[t]
    xs = np.take(F, rows * F.shape[1] + feats[t, None])
    same = ~(xs[:, lo:hi] < xs[:, lo + 1:])
    if every:
        np.copyto(score, fill, where=same)
    else:
        part = score[t]
        np.copyto(part, fill, where=same)
        score[t] = part


def _screen(F: np.ndarray, G: np.ndarray, order: np.ndarray, tied: np.ndarray,
            features: np.ndarray, sums: tuple[float, float, float], lo: int,
            hi: int) -> np.ndarray:
    """The ``features`` that can hold the node's best split, found from the
    prefix sums of w and w*y alone.

    Every valid cut is scored ``a + b`` (``_cut_terms``). In exact
    arithmetic its SSE is ``S - (a + b)``, S = Σwy², so the least SSE has the
    largest score. A feature is kept when its best score is at least
    ``M - δ``, where M is the node's best score and ``δ = 64u(|S| + M)``,
    u = 2**-53.

    Why a dropped feature can neither win nor tie. Let the weights be
    positive and ``rw > 0`` at every cut (checked at the last cut, where rw
    is least). Then a, b and S are non-negative, a <= M and the prefix sum L
    of w*y*y stays below 2S. The exact scan computes ``(L - a) + ((S - L) -
    b)``: it differs from ``S - (a + b)`` by four roundings, each at most u
    times a value below 4(S + M) (additions and subtractions keep that bound
    also below the normal range, where they are exact). With the rounding of
    the score itself, the scan's SSE lies within 12u(S + M) of ``S -
    score``. So a cut scored below the threshold ``M - δ`` (itself rounded by
    at most 2uM) has an SSE more than (64 - 26)u(S + M) above that of the
    cut scored M. Both gains ``parent_sse - sse`` are below 3(S + M) in size
    and round by at most 3u(S + M), so the dropped cut's gain stays strictly
    below the gain of the cut scored M, and the best split's feature is kept.
    The exact scan over the kept features, in the same order, then returns
    what the scan over all of them returns. When M or S is not finite, a
    score is NaN (max carries it into M) or some rw is not positive, the
    bound does not hold and every feature is kept.
    """
    sw, swy, swyy = sums
    m = order.shape[1]
    step = max(1, _BLOCK // m)
    best = np.empty(len(features))
    lw_max = -np.inf
    for c in range(0, len(features), step):
        feats = features[c:c + step]
        idx = order[feats, :hi + 1].astype(np.intp)
        lsums, score, b = _cut_terms(G[:2], idx[:, :hi], sw, swy, lo)
        score += b
        _mask_ties(score, F, tied, idx, feats, lo, hi, -np.inf)
        best[c:c + step] = score.max(axis=1)
        lw_max = max(lw_max, float(lsums[0, :, -1].max()))
    M = float(best.max())
    if not (np.isfinite(M) and np.isfinite(swyy) and sw > lw_max):
        return features
    return features[best >= M - _ROUNDING * (abs(swyy) + M)]


def _best_split(F: np.ndarray, G: np.ndarray, order: np.ndarray, tied: np.ndarray,
                features: np.ndarray, sums: tuple[float, float, float], min_leaf: int,
                screen: bool):
    """Split with the largest weighted-SSE reduction, as (gain, feature,
    threshold), or None.

    ``G`` stacks w, w*y and w*y*y, ``order[j]`` lists the node's rows sorted
    by feature j, ``tied`` flags the features whose cuts are checked
    (``_mask_ties``) and ``sums`` holds the node's sums of the rows of G. Within
    a feature the first cut of least SSE wins; across features, taken in
    ascending order, a later one wins only with a strictly larger gain. The
    first must gain more than ``_ROUNDING`` Σwy², which rounding alone can
    give. With ``screen`` (all weights positive), a node of at least
    ``_SCREEN`` features x rows scans only the features that ``_screen`` keeps.
    """
    m = order.shape[1]
    lo, hi = min_leaf - 1, m - min_leaf  # cut after position i, lo <= i < hi
    if screen and len(features) * m >= _SCREEN:
        features = _screen(F, G, order, tied, features, sums, lo, hi)
    sw, swy, swyy = sums
    parent_sse = swyy - swy * swy / sw
    best = None
    step = max(1, _BLOCK // m)
    for c in range(0, len(features), step):
        feats = features[c:c + step]
        idx = order[feats, :hi + 1].astype(np.intp)  # np.take is fastest on intp
        lsums, sse, b = _cut_terms(G, idx[:, :hi], sw, swy, lo)
        lwyy = lsums[2]
        # sse = (lwyy - a) + ((swyy - lwyy) - b), in place
        np.subtract(lwyy, sse, out=sse)
        np.subtract(swyy - lwyy, b, out=b)
        sse += b
        _mask_ties(sse, F, tied, idx, feats, lo, hi, np.inf)
        cut = np.argmin(sse, axis=1)
        gain = parent_sse - sse[np.arange(len(feats)), cut]
        wins = gain > (_ROUNDING * abs(swyy) if best is None else best[0])
        if wins.any():
            f = int(np.argmax(np.where(wins, gain, -np.inf)))
            j, i = int(feats[f]), lo + int(cut[f])
            below, above = float(F[idx[f, i], j]), float(F[idx[f, i + 1], j])
            # The midpoint, unless it overflows or rounds onto ``above``:
            # each side of the cut must keep its rows.
            mid = 0.5 * (below + above)  # Python floats: an overflow is inf, unwarned
            best = (float(gain[f]), j, mid if below <= mid < above else below)
    return best


def _grow(F: np.ndarray, y: np.ndarray, w: np.ndarray, order: np.ndarray,
          tied: np.ndarray, max_depth: int | None, min_leaf: int, mtry: int,
          rng: np.random.Generator) -> tuple:
    """Grow one tree depth-first, left subtree first, from the presorted
    ``order`` of F and its ``tied`` flags, as ``_presort`` returns them; the
    feature subsample of every split node is drawn from ``rng`` in that
    order. A node that will be a leaf gets no lists. Returns the nodes in the
    order grown, which is preorder, as arrays of value, feature (-1 at a
    leaf), threshold and right child index; a split node's left child
    follows it."""
    k, n = order.shape
    wy = w * y
    G = np.stack([w, wy, wy * y])
    screen = bool((w > 0).all())  # the screen's bound needs positive weights
    goes_left = np.zeros(n, dtype=bool)

    def inner(size: int, depth: int) -> bool:
        return (max_depth is None or depth < max_depth) and size >= 2 * min_leaf

    nodes = []  # [value, feature, threshold, right child index] of each node
    # (rows, lists, depth, index of the node whose right child it is)
    stack = [(np.arange(n), order if inner(n, 0) else None, 0, -1)]
    while stack:
        rows, order, depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent][3] = len(nodes)
        sw, swy, swyy = np.take(G, rows, axis=1).sum(axis=1).tolist()
        nodes.append([swy / sw, -1, 0.0, -1])
        if order is None:  # a leaf by depth or size
            continue
        feats = np.arange(k) if mtry == k else np.sort(rng.choice(k, mtry, replace=False))
        best = _best_split(F, G, order, tied, feats, (sw, swy, swyy), min_leaf, screen)
        if best is None:
            continue
        _, j, thr = best
        left = F[rows, j] <= thr
        n_left = int(np.count_nonzero(left))
        n_right = len(rows) - n_left
        nodes[-1][1:3] = j, thr
        grow_left, grow_right = inner(n_left, depth + 1), inner(n_right, depth + 1)
        if grow_left or grow_right:
            goes_left[rows] = left
            sel = np.take(goes_left, order.ravel())
        stack.append((rows[~left],
                      np.compress(~sel, order).reshape(k, n_right) if grow_right else None,
                      depth + 1, len(nodes) - 1))
        stack.append((rows[left],
                      np.compress(sel, order).reshape(k, n_left) if grow_left else None,
                      depth + 1, -1))
    return _arrays(nodes)


def _arrays(nodes: list[list]) -> tuple:
    """The columns of [value, feature, threshold, right] rows as arrays."""
    value, feature, threshold, right = zip(*nodes)
    return (np.array(value, dtype=np.float64), np.array(feature, dtype=np.int64),
            np.array(threshold, dtype=np.float64), np.array(right, dtype=np.intp))


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
    # the fitted nodes, as ``_grow`` returns them; None before a fit
    nodes: tuple | None = field(default=None, init=False, compare=False, repr=False)
    n_iter = 1  # trees per fit

    def __post_init__(self) -> None:
        _check_tree_params(self.max_depth, self.min_samples_leaf, self.seed, self.max_features)

    @property
    def root(self) -> _Node | None:
        """A read-only view of ``nodes`` as linked ``_Node``s, built on each
        read. It exists only because the benchmark tracer
        (``perfbench/tracer._after_tree_fit``) counts a fit's nodes through
        ``.left``/``.right``; nothing in the package reads it."""
        if self.nodes is None:
            return None
        root, open_nodes = None, []  # open_nodes: split nodes still missing a child
        for value, feature, threshold in zip(*(a.tolist() for a in self.nodes[:3])):
            node = _Node(value=value, feature=feature, threshold=threshold)
            if root is None:
                root = node
            elif open_nodes[-1].left is None:
                open_nodes[-1].left = node
            else:
                open_nodes.pop().right = node
            if feature >= 0:
                open_nodes.append(node)
        return root

    def fit(self, F: np.ndarray, y: np.ndarray, w: np.ndarray,
            presorted: tuple | None = None) -> "RegressionTree":
        """Fit to design ``F``; ``presorted`` is ``_presort(F)`` when the caller
        already has it (boosting reuses one across its rounds), or
        ``_presort_sample`` for a forest's resample."""
        F = np.ascontiguousarray(F, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        order, tied = _presort(F) if presorted is None else presorted
        k = F.shape[1]
        mtry = k if self.max_features is None else min(self.max_features, k)
        self.nodes = _grow(F, y, w, order, tied, self.max_depth,
                           self.min_samples_leaf, mtry, substream(self.seed, "tree-features"))
        return self

    def predict(self, F: np.ndarray) -> np.ndarray:
        """Walk every row down the preorder arrays, one level per step; a
        NaN fails ``<=`` and goes right."""
        F = np.asarray(F, dtype=np.float64)
        value, feature, threshold, right = self.nodes
        at = np.zeros(len(F), dtype=np.intp)  # each row's node
        rows = np.arange(len(F) if feature[0] >= 0 else 0)  # rows at a split node
        while rows.size:
            node = at[rows]
            node = np.where(F[rows, feature[node]] <= threshold[node], node + 1, right[node])
            at[rows] = node
            rows = rows[feature[node] >= 0]
        return value[at]


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
