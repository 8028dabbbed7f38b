"""Reference CART grower for the equivalence tests: per-node sorting.

Every node re-sorts each candidate feature over its own rows with a stable
``argsort`` and scans the cumulative weighted sums. This is the textbook
search the presorted grower in ``proxyrank.trees`` must reproduce exactly,
kept here (not in the package) purely as a test oracle.
"""
from __future__ import annotations

import numpy as np

from proxyrank.rng import substream
from proxyrank.trees import _MIN_GAIN, RegressionTree, _arrays


def best_split(F, y, w, rows, features, min_leaf):
    """Split with the largest weighted-SSE reduction, or None."""
    best = None
    yw = y[rows] * w[rows]
    sw = float(w[rows].sum())
    swy = float(yw.sum())
    swyy = float((yw * y[rows]).sum())
    parent_sse = swyy - swy * swy / sw
    for j in features:
        xv = F[rows, j]
        order = np.argsort(xv, kind="mergesort")
        xs = xv[order]
        ws = w[rows][order]
        ys = y[rows][order]
        cw = np.cumsum(ws)
        cwy = np.cumsum(ws * ys)
        cwyy = np.cumsum(ws * ys * ys)
        m = len(rows)
        # candidate cut after position i (left = [:i+1]); values must differ
        valid = np.flatnonzero(xs[:-1] < xs[1:])
        valid = valid[(valid + 1 >= min_leaf) & (m - valid - 1 >= min_leaf)]
        if valid.size == 0:
            continue
        lw, lwy, lwyy = cw[valid], cwy[valid], cwyy[valid]
        rw, rwy, rwyy = sw - lw, swy - lwy, swyy - lwyy
        sse = (lwyy - lwy * lwy / lw) + (rwyy - rwy * rwy / rw)
        i = int(np.argmin(sse))
        gain = parent_sse - float(sse[i])
        if gain > _MIN_GAIN and (best is None or gain > best[0]):
            cut = valid[i]
            below, above = float(xs[cut]), float(xs[cut + 1])
            thr = 0.5 * (below + above)  # may overflow, or round onto a value
            best = (gain, int(j), thr if below <= thr < above else below)
    return best


def fit(tree: RegressionTree, F, y, w, presorted=None) -> RegressionTree:
    """Drop-in for ``RegressionTree.fit`` that grows the tree by per-node sorts
    (``presorted`` is accepted and ignored)."""
    F = np.asarray(F, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    rng = substream(tree.seed, "tree-features")
    k = F.shape[1]
    mtry = k if tree.max_features is None else min(tree.max_features, k)

    nodes = []  # [value, feature, threshold, right child index], in preorder

    def build(rows: np.ndarray, depth: int) -> None:
        node = [float(np.average(y[rows], weights=w[rows])), -1, 0.0, -1]
        nodes.append(node)
        if (tree.max_depth is not None and depth >= tree.max_depth) \
                or len(rows) < 2 * tree.min_samples_leaf:
            return
        feats = np.arange(k) if mtry == k else np.sort(rng.choice(k, mtry, replace=False))
        best = best_split(F, y, w, rows, feats, tree.min_samples_leaf)
        if best is None:
            return
        _, j, thr = best
        mask = F[rows, j] <= thr
        node[1:3] = j, thr
        build(rows[mask], depth + 1)
        node[3] = len(nodes)
        build(rows[~mask], depth + 1)

    build(np.arange(len(y)), 0)
    tree.nodes = _arrays(nodes)
    return tree
