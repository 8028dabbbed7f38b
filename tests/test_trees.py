"""The presorted split search grows exactly the trees of a per-node sort,
screened or not, prediction follows the nodes, and the tree estimators
validate their hyperparameters, keep no reference to their inputs after
``fit`` and pickle at any depth."""
import gc
import json
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tree_oracle
from proxyrank import fit_outcome_model, trees
from proxyrank.trees import (GradientBoostedTrees, RandomForest, RegressionTree, _Node,
                             _presort, _presort_sample)


def tie_heavy(seed: int, n: int, k: int):
    """Integer, rounded, one-hot and continuous columns plus a copy of the
    second one, and an outcome and weights with few distinct values. Even
    seeds duplicate a quarter of the rows and draw integer outcomes with
    weights 1 and 2 (exactly tied cuts); odd seeds keep the continuous
    columns free of ties and draw rounded outcomes with four weights."""
    rng = np.random.default_rng(seed)
    cols = []
    for j in range(k):
        kind = j % 4
        if kind == 0:
            cols.append(rng.integers(0, 4, n).astype(float))
        elif kind == 1:
            cols.append(np.round(rng.standard_normal(n), 1))
        elif kind == 2:
            cols.append((rng.integers(0, 3, n) == j % 3).astype(float))
        else:
            cols.append(rng.standard_normal(n))
    F = np.column_stack(cols + [cols[min(1, k - 1)]])
    if seed % 2 == 0:
        F[: n // 4] = F[rng.integers(0, n, n // 4)]
        y = rng.integers(0, 3, n) + F[:, 0]
        w = rng.choice([1.0, 2.0], n)
    else:
        y = F[:, 0] * (F[:, -1] > 0) + np.round(rng.standard_normal(n), 1)
        w = rng.choice([0.5, 1.0, 2.0, 3.7], n)
    return F, y, w


def dump(model) -> str:
    """The model's fields and every tree's arrays, as JSON: equal dumps mean
    equal floats, ``-0.0`` and ``NaN`` included."""
    state = {key: value for key, value in vars(model).items() if key not in ("nodes", "trees")}
    state["nodes"] = [[a.tolist() for a in t.nodes] for t in getattr(model, "trees", [model])]
    return json.dumps(state)


def with_oracle(monkeypatch, make, F, y, w) -> str:
    """The model ``make()`` fits when every tree grows by per-node sorts."""
    with monkeypatch.context() as m:
        m.setattr(RegressionTree, "fit", tree_oracle.fit)
        return dump(make().fit(F, y, w))


CASES = [(seed, leaf, max_features, max_depth)
         for seed, (leaf, max_features, max_depth) in enumerate(
             [(1, None, None), (2, 3, None), (3, None, 6), (4, 1, 3), (5, 5, None),
              (1, 2, 8), (5, None, 0), (3, 4, None)])]


# screen sizes: the default (which these small nodes never reach) and 0, so
# that every node is screened
SCREENS = [trees._SCREEN, 0]


class TestPresortedSearchMatchesPerNodeSort:
    # block sizes: the default (one block per node here), one feature per
    # block, and blocks of a few features (ties decided across blocks)
    @pytest.mark.parametrize("screen", SCREENS)
    @pytest.mark.parametrize("block", [trees._BLOCK, 1, 300])
    @pytest.mark.parametrize("seed,leaf,max_features,max_depth", CASES)
    def test_tree(self, seed, leaf, max_features, max_depth, block, screen, monkeypatch):
        monkeypatch.setattr(trees, "_BLOCK", block)
        monkeypatch.setattr(trees, "_SCREEN", screen)
        F, y, w = tie_heavy(seed, 60 + 37 * seed, 2 + seed % 6)
        tree = RegressionTree(max_depth=max_depth, min_samples_leaf=leaf,
                              max_features=max_features, seed=seed)
        oracle = RegressionTree(max_depth=max_depth, min_samples_leaf=leaf,
                                max_features=max_features, seed=seed)
        assert dump(tree.fit(F, y, w)) == dump(tree_oracle.fit(oracle, F, y, w))

    @pytest.mark.parametrize("screen", SCREENS)
    @pytest.mark.parametrize("seed,leaf,max_depth", [(0, 1, None), (1, 3, 5), (2, 5, None)])
    def test_forest(self, seed, leaf, max_depth, screen, monkeypatch):
        monkeypatch.setattr(trees, "_SCREEN", screen)
        F, y, w = tie_heavy(seed, 150, 7)

        def make():
            return RandomForest(n_trees=3, min_samples_leaf=leaf, max_depth=max_depth,
                                seed=seed)
        assert dump(make().fit(F, y, w)) == with_oracle(monkeypatch, make, F, y, w)

    @pytest.mark.parametrize("screen", SCREENS)
    @pytest.mark.parametrize("seed,leaf,max_depth", [(0, 1, 3), (1, 4, 2), (2, 2, None)])
    def test_boosting(self, seed, leaf, max_depth, screen, monkeypatch):
        monkeypatch.setattr(trees, "_SCREEN", screen)
        F, y, w = tie_heavy(seed, 120, 5)

        def make():
            return GradientBoostedTrees(n_rounds=5, max_depth=max_depth,
                                        min_samples_leaf=leaf, seed=seed)
        assert dump(make().fit(F, y, w)) == with_oracle(monkeypatch, make, F, y, w)

    @pytest.mark.parametrize("seed", range(6))
    def test_resample_presort_equals_fresh_sort(self, seed):
        rng = np.random.default_rng(seed)
        F, _, _ = tie_heavy(seed, 90, 8)
        F[rng.integers(0, 90, 2), 3] = np.nan
        rows = rng.permutation(90) if seed % 2 else rng.integers(0, 90, 90)
        got_order, got_tied = _presort_sample(F[rows], rows, _presort(F))
        want_order, want_tied = _presort(F[rows])
        np.testing.assert_array_equal(got_order, want_order)
        np.testing.assert_array_equal(got_tied, want_tied)  # where a fresh sort finds ties

    @pytest.mark.parametrize("screen", SCREENS)
    def test_forest_with_columns_tied_in_f_and_by_resampling(self, screen, monkeypatch):
        # Seed 5 keeps its continuous columns (3 and 7) free of ties in F, so
        # only the resample's repeated rows tie them.
        monkeypatch.setattr(trees, "_SCREEN", screen)
        F, y, w = tie_heavy(5, 240, 8)

        def make():
            return RandomForest(n_trees=4, min_samples_leaf=2, seed=5)
        assert dump(make().fit(F, y, w)) == with_oracle(monkeypatch, make, F, y, w)


def resample_case(seed: int, n: int, k: int, how: int):
    """A small F of untied, tied and NaN-holding columns, and rows drawn from
    it with repeats (``how`` 0), as a permutation (1) or as one index
    repeated (2)."""
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, k))
    F[:, 1::3] = rng.integers(0, 3, (n, len(range(1, k, 3))))
    F[rng.random((n, k)) < 0.1 * (np.arange(k) % 3 == 2)] = np.nan
    rows = [rng.integers(0, n, n), rng.permutation(n), np.full(n, rng.integers(n))][how]
    y = rng.standard_normal(n)
    return F, y, rng.choice([0.5, 1.0, 2.0], n), rows


class TestOneTieRule:
    """A resample's columns carry the tie flag a fresh sort gives them, so a
    forest checks every flagged column's cuts by value and grows the trees of
    a per-node sort."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 7), st.integers(0, 2))
    def test_resample_presort_is_a_fresh_sort(self, seed, n, k, how):
        F, _, _, rows = resample_case(seed, n, k, how)
        got_order, got_tied = _presort_sample(F[rows], rows, _presort(F))
        want_order, want_tied = _presort(F[rows])
        assert got_tied.dtype == want_tied.dtype == bool
        np.testing.assert_array_equal(got_order, want_order)
        np.testing.assert_array_equal(got_tied, want_tied)

    # A bounded depth: a search that cuts between copies of one row can send
    # every row to the left child, which would then split the same way forever.
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 6),
           st.integers(1, 4), st.integers(1, 8), st.sampled_from(SCREENS))
    def test_forest_equals_per_node_sort(self, seed, n, k, leaf, depth, screen):
        F, y, w, _ = resample_case(seed, n, k, 0)

        def make():
            return RandomForest(n_trees=2, min_samples_leaf=leaf, max_depth=depth,
                                seed=seed % 1000)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(trees, "_SCREEN", screen)
            assert dump(make().fit(F, y, w)) == with_oracle(m, make, F, y, w)


def adversarial(seed: int):
    """A model and a fit on inputs built to defeat the screen's bound: exact
    ties across duplicated columns, a constant outcome, integer outcomes
    times 1e6, weights spanning e^-8..e^8, and |y| near 1e150, where the
    squared sums overflow."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 121)), int(rng.integers(1, 5))
    F = rng.standard_normal((n, k))
    if rng.random() < 0.5:
        F = np.round(F, 1)
    if rng.random() < 0.5:
        F = np.column_stack([F, F[:, ::-1]])
    kind = rng.integers(4)
    if kind == 0:
        y = F[:, 0] + rng.standard_normal(n)
    elif kind == 1:
        y = np.full(n, rng.standard_normal())
    elif kind == 2:
        y = rng.integers(-3, 4, n) * 1e6
    else:
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(148, 154)
    w = np.exp(rng.uniform(-8, 8, n)) if rng.random() < 0.5 else rng.choice([1.0, 2.0], n)
    leaf, depth = int(rng.integers(1, 5)), [None, 1, 3][rng.integers(3)]
    make = [lambda: RegressionTree(max_depth=depth, min_samples_leaf=leaf),
            lambda: RegressionTree(max_depth=depth, min_samples_leaf=leaf, max_features=2),
            lambda: RandomForest(n_trees=2, max_depth=depth, min_samples_leaf=leaf),
            lambda: GradientBoostedTrees(n_rounds=3, max_depth=3, min_samples_leaf=leaf),
            ][rng.integers(4)]
    return make, F, y, w


class TestScreen:
    # Seeds 15, 642 and 991 grow other trees when the screen keeps only the
    # features at the best score (δ = 0); 17 and 102 do when it keeps them
    # with an overflowed score too (no fallback).
    @example(seed=15)
    @example(seed=642)
    @example(seed=991)
    @example(seed=17)
    @example(seed=102)
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_screened_equals_unscreened(self, seed):
        make, F, y, w = adversarial(seed)
        fits = []
        for screen in (0, float("inf")):  # every node screened, then none
            # overflowing sums are among the cases, so their warnings are expected
            with pytest.MonkeyPatch.context() as m, np.errstate(all="ignore"):
                m.setattr(trees, "_SCREEN", screen)
                fits.append(dump(make().fit(F, y, w)))
        assert fits[0] == fits[1]


def walk(root: _Node, x: np.ndarray) -> float:
    """The value of the leaf that row ``x`` reaches, node by node."""
    node = root
    while node.left is not None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.value


class TestPredict:
    @pytest.mark.parametrize("make", [
        lambda: RegressionTree(min_samples_leaf=2, max_depth=None),
        lambda: RandomForest(n_trees=3, min_samples_leaf=3),
        lambda: GradientBoostedTrees(n_rounds=4, max_depth=3),
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_level_walk_equals_node_walk(self, make, seed):
        F, y, w = tie_heavy(seed, 200, 5)
        model = make().fit(F, y, w)
        rng = np.random.default_rng(seed)
        X = F.copy()
        X[rng.random(X.shape) < 0.05] = np.nan
        X[rng.random(X.shape) < 0.05] = np.inf
        X[rng.random(X.shape) < 0.05] = -np.inf
        for tree in getattr(model, "trees", [model]):
            at = [X]  # rows set to each split's threshold, which goes left
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if node.left is not None:
                    row = X[:1].copy()
                    row[0, node.feature] = node.threshold
                    at.append(row)
                    stack += (node.left, node.right)
            Xt = np.vstack(at)
            want = np.array([walk(tree.root, x) for x in Xt])
            np.testing.assert_array_equal(tree.predict(Xt), want)

    def test_nan_goes_right_and_a_leaf_root(self):
        tree = RegressionTree()
        tree.nodes = trees._arrays([[0.0, 0, 1.0, 2], [-1.0, -1, 0.0, -1], [2.0, -1, 0.0, -1]])
        X = np.array([[np.nan], [-np.inf], [1.0], [np.inf]])
        np.testing.assert_array_equal(tree.predict(X), [2.0, -1.0, -1.0, 2.0])
        tree.nodes = trees._arrays([[5.0, -1, 0.0, -1]])
        np.testing.assert_array_equal(tree.predict(X), [5.0] * 4)
        assert tree.predict(np.empty((0, 1))).shape == (0,)


class TestInputsFreedAfterFit:
    @pytest.mark.parametrize("make", [
        lambda: RegressionTree(),
        lambda: RandomForest(n_trees=2),
        lambda: GradientBoostedTrees(n_rounds=2),
    ])
    def test_no_reference_cycle_keeps_inputs_alive(self, make):
        F, y, w = tie_heavy(0, 200, 4)
        X = F.copy()
        fit_ref, predict_ref = weakref.ref(F), weakref.ref(X)
        gc.disable()
        try:
            model = make().fit(F, y, w)
            del F
            assert fit_ref() is None
            assert model.predict(X).shape == (200,)
            del X
            assert predict_ref() is None
        finally:
            gc.enable()


def deep_chain(depth: int) -> tuple:
    """The arrays of a tree whose split i sends x0 <= i + 0.5 to a leaf of
    value i and the rest one level down: ``depth`` levels, far past the
    recursion limit of a node-by-node walk when ``depth`` is 5,000."""
    rows = []
    for i in range(depth):
        rows += [[float(i) if i else -1.0, 0, i + 0.5, 2 * i + 2], [float(i), -1, 0.0, -1]]
    return trees._arrays(rows + [[float(depth), -1, 0.0, -1]])


class TestPickle:
    def test_deep_chain_round_trips(self):
        depth = 5000
        tree = RegressionTree(max_depth=None, min_samples_leaf=1, seed=3)
        tree.nodes = deep_chain(depth)
        F = np.arange(-1.0, depth + 2.0).reshape(-1, 1)
        back = pickle.loads(pickle.dumps(tree))
        np.testing.assert_array_equal(back.predict(F), tree.predict(F))
        np.testing.assert_array_equal(back.predict(F), np.clip(np.arange(-1, depth + 2), 0, depth))
        assert (back.max_depth, back.min_samples_leaf, back.seed) == (None, 1, 3)

    @pytest.mark.parametrize("make", [
        lambda: RegressionTree(max_features=2, seed=4),
        lambda: RandomForest(n_trees=3, min_samples_leaf=2),
        lambda: GradientBoostedTrees(n_rounds=4, max_depth=2),
        lambda: RegressionTree(max_depth=0),
    ])
    def test_fitted_model_round_trips(self, make):
        F, y, w = tie_heavy(1, 150, 5)
        model = make().fit(F, y, w)
        back = pickle.loads(pickle.dumps(model))
        assert dump(back) == dump(model)
        np.testing.assert_array_equal(back.predict(F), model.predict(F))

    def test_outcome_model_with_a_deep_tree_round_trips(self, toy_dataset):
        # what a worker sends back: the tree must travel as arrays, not
        # also node by node through the model's params
        model = fit_outcome_model(toy_dataset, None, "tree")
        model._predictor.nodes = deep_chain(5000)
        back = pickle.loads(pickle.dumps(model))
        X = np.zeros((5002, toy_dataset.k))
        X[:, 0] = np.arange(-1.0, 5001.0)
        a = np.arange(5002) % 2
        np.testing.assert_array_equal(back.predict(X, a), model.predict(X, a))
        assert back.params is vars(back._predictor)
        assert back.params["nodes"] is back._predictor.nodes

    def test_unfitted_tree_round_trips(self):
        assert pickle.loads(pickle.dumps(RegressionTree(seed=9))) == RegressionTree(seed=9)


TREE_FAMILIES = [
    lambda: RegressionTree(min_samples_leaf=2, max_depth=None),
    lambda: RandomForest(n_trees=3, min_samples_leaf=3),
    lambda: GradientBoostedTrees(n_rounds=4, max_depth=3),
]
FAMILY_IDS = ["tree", "forest", "boosted_trees"]


class TestStoredArrays:
    """A fitted tree is its preorder arrays; the linked nodes are only a view."""

    @pytest.mark.parametrize("make", TREE_FAMILIES, ids=FAMILY_IDS)
    def test_fit_predict_and_pickle_build_no_node(self, make, monkeypatch):
        F, y, w = tie_heavy(0, 200, 5)
        want = make().fit(F, y, w).predict(F)

        def fail(*args, **kwargs):
            raise AssertionError("a linked node was built")
        monkeypatch.setattr(trees, "_Node", fail)
        model = make().fit(F, y, w)
        np.testing.assert_array_equal(model.predict(F), want)
        np.testing.assert_array_equal(pickle.loads(pickle.dumps(model)).predict(F), want)

    def test_the_view_of_a_deep_chain_is_built_without_recursion(self):
        tree = RegressionTree()
        tree.nodes = deep_chain(5000)
        count, leaves, stack = 0, [], [tree.root]
        while stack:
            node = stack.pop()
            count += 1
            if node.left is None:
                leaves.append(node.value)
            else:
                stack += (node.right, node.left)
        assert count == 10_001
        assert leaves == tree.predict(np.arange(5001.0).reshape(-1, 1)).tolist()


class TestDegenerateHyperparameters:
    def test_forest_needs_a_tree(self):
        with pytest.raises(ValueError, match="n_trees"):
            RandomForest(n_trees=0)

    @pytest.mark.parametrize("cls", [RegressionTree, RandomForest, GradientBoostedTrees])
    def test_min_samples_leaf_positive(self, cls):
        with pytest.raises(ValueError, match="min_samples_leaf"):
            cls(min_samples_leaf=0)

    @pytest.mark.parametrize("cls", [RegressionTree, RandomForest, GradientBoostedTrees])
    def test_max_depth_non_negative(self, cls):
        with pytest.raises(ValueError, match="max_depth"):
            cls(max_depth=-1)

    def test_max_features_positive(self):
        with pytest.raises(ValueError, match="max_features"):
            RegressionTree(max_features=0)

    @pytest.mark.parametrize("shrinkage", [0.0, 2.0, -0.1])
    def test_shrinkage_in_open_interval(self, shrinkage):
        with pytest.raises(ValueError, match="shrinkage"):
            GradientBoostedTrees(shrinkage=shrinkage)

    def test_boundary_values_accepted(self):
        RegressionTree(max_depth=0, min_samples_leaf=1, max_features=1)
        RandomForest(n_trees=1, max_depth=None)
        GradientBoostedTrees(shrinkage=1.99, max_depth=0)


@pytest.mark.parametrize("below,above", [(1e308, 1.7e308), (1 + 2**-52, 1 + 2**-51),
                                         (-1.7e308, 1.7e308), (-1.7e308, -1e308)])
def test_cut_between_huge_or_adjacent_values_keeps_both_sides(below, above):
    # The midpoint of these overflows or rounds onto the upper value.
    F = np.array([[below]] * 2 + [[above]] * 2)
    y, w = np.array([0.0, 0.0, 1.0, 1.0]), np.ones(4)
    tree = RegressionTree(max_depth=3, min_samples_leaf=1).fit(F, y, w)
    np.testing.assert_array_equal(tree.predict(F), y)
    assert tree.nodes[1][0] == 0 and below <= tree.nodes[2][0] < above
    oracle = tree_oracle.fit(RegressionTree(max_depth=3, min_samples_leaf=1), F, y, w)
    assert dump(tree) == dump(oracle)
