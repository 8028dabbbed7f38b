import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from proxyrank import (Dataset, FeatureMap, ModelError, ModelSpec, RunConfig, compute_ite,
                       data, fit_outcome_model)
from proxyrank.outcomes import FAMILIES

from conftest import make_dataset


def linear_data(n=300, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    a = (rng.random(n) < 0.5).astype(int)
    y = 2.0 + 3.0 * X[:, 0] - 1.0 * a + noise * rng.standard_normal(n)
    return Dataset(X, a, y)


class TestWeightedLossIdentity:
    def test_unit_weights_equal_omitted_weights(self):
        d = linear_data(noise=0.5)
        m1 = fit_outcome_model(d, None, "linear_wls")
        m2 = fit_outcome_model(d, np.ones(d.n), "linear_wls")
        np.testing.assert_array_equal(m1.params["coefficients"],
                                      m2.params["coefficients"])

    def test_doubling_weights_exact_for_wls(self):
        d = linear_data(noise=0.5)
        rng = np.random.default_rng(1)
        w = rng.uniform(0.5, 2.0, d.n)
        m1 = fit_outcome_model(d, w, "linear_wls")
        m2 = fit_outcome_model(d, 2.0 * w, "linear_wls")
        np.testing.assert_allclose(m1.params["coefficients"],
                                   m2.params["coefficients"], rtol=1e-12)

    @pytest.mark.parametrize("family", ["svr_linear"])
    def test_doubling_weights_iterative_families(self, family):
        d = linear_data(noise=0.3)
        rng = np.random.default_rng(2)
        w = rng.uniform(0.5, 2.0, d.n)
        a = np.zeros(d.n, dtype=int)
        p1 = fit_outcome_model(d, w, family).predict(d.covariates, a)
        p2 = fit_outcome_model(d, 2.0 * w, family).predict(d.covariates, a)
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_doubling_weights_exact_for_trees(self):
        d = make_dataset(n=120, k=3, seed=5)
        rng = np.random.default_rng(3)
        w = rng.uniform(0.5, 2.0, d.n)
        a = d.treatment
        p1 = fit_outcome_model(d, w, "tree").predict(d.covariates, a)
        p2 = fit_outcome_model(d, 3.0 * w, "tree").predict(d.covariates, a)
        # split structure is scale-invariant exactly; leaf means agree to ulp
        np.testing.assert_allclose(p1, p2, rtol=1e-12)

    def test_doubling_weights_poisson(self):
        d = make_dataset(n=150, k=2, seed=6)
        y = np.abs(d.outcome)
        d = Dataset(d.covariates, d.treatment, y)
        rng = np.random.default_rng(4)
        w = rng.uniform(0.5, 2.0, d.n)
        a = d.treatment
        p1 = fit_outcome_model(d, w, "poisson").predict(d.covariates, a)
        p2 = fit_outcome_model(d, 2.0 * w, "poisson").predict(d.covariates, a)
        np.testing.assert_allclose(p1, p2, rtol=1e-8)


class TestLinearFamilies:
    def test_noiseless_recovery(self):
        d = linear_data(noise=0.0)
        m = fit_outcome_model(d, None, "linear_wls",
                              feature_map=FeatureMap(interactions=False))
        coef = m.params["coefficients"]  # [intercept, x0, x1, a]
        np.testing.assert_allclose(coef, [2.0, 3.0, 0.0, -1.0], atol=1e-6)

    def test_wls_ridge_shrinks(self):
        d = linear_data(noise=0.2)
        m0 = fit_outcome_model(d, None, "linear_wls")
        m1 = fit_outcome_model(d, None, "linear_wls", l2=1e4)
        c0 = np.asarray(m0.params["coefficients"])[1:]
        c1 = np.asarray(m1.params["coefficients"])[1:]
        assert np.linalg.norm(c1) < np.linalg.norm(c0)


class TestIte:
    def test_additive_treatment_term(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 2))
        a = np.resize([0, 1], 200)
        y = 3.0 * a + X @ np.array([1.0, -2.0])
        d = Dataset(X, a, y)
        m = fit_outcome_model(d, None, "linear_wls",
                              feature_map=FeatureMap(interactions=False))
        ites = compute_ite(m, d)
        np.testing.assert_allclose(ites.ite, 3.0, atol=1e-8)
        np.testing.assert_allclose(ites.ite, ites.y_hat_1 - ites.y_hat_0)

    def test_treatment_blind_model_zero_ite(self):
        d = linear_data(noise=0.1)
        m = fit_outcome_model(d, None, "linear_wls",
                              feature_map=FeatureMap(include_treatment=False,
                                                     interactions=False))
        ites = compute_ite(m, d)
        np.testing.assert_array_equal(ites.ite, np.zeros(d.n))

    def test_interaction_model_symbolic_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((400, 2))
        a = np.resize([0, 1], 400)
        y = a * (2.0 + X[:, 0])  # f(x, a) = a * (2 + x0)
        d = Dataset(X, a, y)
        m = fit_outcome_model(d, None, "linear_wls")
        x_eval = np.random.default_rng(2).standard_normal((100, 2))
        got = m.predict(x_eval, np.ones(100, dtype=int)) \
            - m.predict(x_eval, np.zeros(100, dtype=int))
        np.testing.assert_allclose(got, 2.0 + x_eval[:, 0], atol=1e-8)

    def test_linear_without_interactions_constant_ite(self):
        d = make_dataset(n=150, k=4, seed=12)
        m = fit_outcome_model(d, None, "linear_wls",
                              feature_map=FeatureMap(interactions=False))
        ites = compute_ite(m, d)
        # additivity makes the effect constant; the stored ite is the float
        # subtraction y1 - y0, so constancy holds to one ulp of the scale
        assert np.ptp(ites.ite) <= 1e-12

    def test_dimension_mismatch(self):
        d = linear_data()
        m = fit_outcome_model(d, None, "linear_wls")
        other = make_dataset(n=10, k=5)
        with pytest.raises(ModelError, match="covariates"):
            compute_ite(m, other)

    @pytest.mark.parametrize("fm", [FeatureMap(), FeatureMap(interactions=False),
                                    FeatureMap(include_treatment=False, interactions=False)])
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_design_equals_stacked_columns(self, fm, k):
        rng = np.random.default_rng(k)
        X = rng.standard_normal((37, k)) * 10.0 ** rng.integers(-3, 3, k)
        for a in (rng.integers(0, 2, 37), rng.integers(0, 2, 37).astype(bool)):
            cols = [np.ones((37, 1)), X]
            if fm.include_treatment:
                cols.append(a.reshape(-1, 1).astype(np.float64))
            if fm.interactions:
                cols.append(a.reshape(-1, 1) * X)
            want = np.hstack(cols)
            got = fm.design(X, a)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_empty_dataset_gives_empty_estimates(self):
        m = fit_outcome_model(linear_data(), None, "linear_wls")
        ites = compute_ite(m, Dataset(np.empty((0, 2)), np.empty(0), np.empty(0)))
        assert ites.ite.shape == ites.y_hat_1.shape == ites.y_hat_0.shape == (0,)

    def test_heterogeneous_capacity_flag(self):
        d = linear_data(noise=0.1)
        assert fit_outcome_model(d, None, "linear_wls").heterogeneous
        assert not fit_outcome_model(
            d, None, "linear_wls",
            feature_map=FeatureMap(interactions=False)).heterogeneous
        assert fit_outcome_model(d, None, "tree").heterogeneous


class TestTreeFamilies:
    def test_tree_fits_step_function(self):
        X = np.linspace(-1, 1, 200).reshape(-1, 1)
        y = np.where(X[:, 0] < 0.0, 1.0, 5.0)
        d = Dataset(X, np.resize([0, 1], 200), y)
        m = fit_outcome_model(d, None, "tree",
                              feature_map=FeatureMap(include_treatment=False,
                                                     interactions=False))
        pred = m.predict(X, d.treatment)
        np.testing.assert_allclose(pred, y, atol=1e-12)

    def test_piecewise_constant_under_small_perturbation(self):
        X = np.linspace(-1, 1, 100).reshape(-1, 1)
        y = np.where(X[:, 0] < 0.0, 1.0, 5.0)
        d = Dataset(X, np.resize([0, 1], 100), y)
        m = fit_outcome_model(d, None, "tree",
                              feature_map=FeatureMap(include_treatment=False,
                                                     interactions=False))
        # grid spacing is ~0.0202: perturbations below half the split margin
        # cannot move any point across a threshold
        eps = 0.004
        base = m.predict(X, d.treatment)
        for delta in (-eps, eps):
            np.testing.assert_array_equal(m.predict(X + delta, d.treatment), base)

    @pytest.mark.parametrize("family", ["tree", "forest", "boosted_trees"])
    def test_interactions_off_needs_treatment_off(self, family):
        d = make_dataset(n=60, k=2)
        with pytest.raises(ModelError, match="interactions: false needs include_treatment"):
            fit_outcome_model(d, None, family, feature_map=FeatureMap(interactions=False))
        with pytest.raises(ModelError, match="interactions: false needs include_treatment"):
            ModelSpec(family=family, interactions=False)
        # trees on [x] only, as above
        cfg = RunConfig.from_dict({"models": [{"family": family, "include_treatment": False,
                                               "interactions": False}]})
        assert cfg.models[0].feature_map() == FeatureMap(False, False)

    def test_boosting_loss_non_increasing(self):
        d = make_dataset(n=250, k=4, seed=3)
        m = fit_outcome_model(d, None, "boosted_trees", n_rounds=40)
        losses = m._predictor.train_losses
        assert len(losses) == 41
        assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(losses, losses[1:]))

    def test_forest_averages_trees(self):
        d = make_dataset(n=200, k=3, seed=4)
        m = fit_outcome_model(d, None, "forest", n_trees=10)
        pred = m.predict(d.covariates, d.treatment)
        assert pred.shape == (200,)
        assert np.isfinite(pred).all()

    def test_forest_deterministic_given_seed(self):
        d = make_dataset(n=150, k=3, seed=5)
        p1 = fit_outcome_model(d, None, "forest", n_trees=5, seed=9) \
            .predict(d.covariates, d.treatment)
        p2 = fit_outcome_model(d, None, "forest", n_trees=5, seed=9) \
            .predict(d.covariates, d.treatment)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("family,kwargs", [
        ("forest", {"n_trees": 3}),
        ("boosted_trees", {"n_rounds": 5}),
    ])
    def test_tree_ensembles_deterministic_across_processes(self, family, kwargs):
        # guards against per-process hash salting in seed derivation
        code = (
            "import sys, numpy as np\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from conftest import make_dataset\n"
            "from proxyrank import fit_outcome_model\n"
            "d = make_dataset(n=80, k=3, seed=5)\n"
            f"m = fit_outcome_model(d, None, {family!r}, seed=9, **{kwargs!r})\n"
            "print(repr(m.predict(d.covariates, d.treatment).sum()))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(data.__file__).parents[1]))
        outs = {subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True).stdout for _ in range(2)}
        assert len(outs) == 1


class TestPoisson:
    def test_rate_recovery(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((3000, 2)) * 0.5
        a = (rng.random(3000) < 0.5).astype(int)
        eta = 0.5 + 0.8 * X[:, 0] + 0.5 * a
        y = rng.poisson(np.exp(eta)).astype(float)
        d = Dataset(X, a, y)
        m = fit_outcome_model(d, None, "poisson",
                              feature_map=FeatureMap(interactions=False))
        coef = np.asarray(m.params["coefficients"])
        np.testing.assert_allclose(coef[[0, 1, 3]], [0.5, 0.8, 0.5], atol=0.1)

    def test_predictions_strictly_positive(self):
        d = make_dataset(n=200, k=3, seed=11)
        d = Dataset(d.covariates, d.treatment, np.abs(d.outcome))
        m = fit_outcome_model(d, None, "poisson")
        assert (m.predict(d.covariates, d.treatment) > 0.0).all()

    def test_negative_outcome_rejected(self):
        d = linear_data(noise=0.1)
        assert d.outcome.min() < 0
        with pytest.raises(ModelError, match="non-negative"):
            fit_outcome_model(d, None, "poisson")


class TestValidationAndPersistence:
    def test_nonpositive_weights_rejected(self, toy_dataset):
        for bad in (0.0, np.nan):
            w = np.ones(toy_dataset.n)
            w[3] = bad
            with pytest.raises(ModelError, match="positive"):
                fit_outcome_model(toy_dataset, w, "linear_wls")

    def test_unknown_family(self, toy_dataset):
        with pytest.raises(ModelError, match="unknown family"):
            fit_outcome_model(toy_dataset, None, "cnn")

    @pytest.mark.parametrize("family,hyperparams,match", [
        ("svr_linear", {"grad_clip": 0}, "grad_clip must be None or > 0"),
        ("poisson", {"max_iter": 0}, "max_iter must be an integer >= 1"),
        ("linear_wls", {"l2": True}, "not booleans"),
        ("tree", {"root": None}, r"tree does not accept hyperparams \['root'\]"),
    ])
    def test_bad_hyperparams_rejected_before_fitting(self, toy_dataset, family,
                                                     hyperparams, match):
        with pytest.raises(ModelError, match=match):
            fit_outcome_model(toy_dataset, None, family, **hyperparams)

    def test_weight_length_mismatch(self, toy_dataset):
        with pytest.raises(ModelError, match="length"):
            fit_outcome_model(toy_dataset, np.ones(3), "linear_wls")

    @pytest.mark.parametrize("family,hyperparams", [
        ("linear_wls", {}), ("linear_wls", {"l2": 0.5}), ("poisson", {}),
        ("svr_linear", {"epochs": 3}),
    ])
    def test_final_loss_is_the_family_loss_to_the_bit(self, family, hyperparams):
        d = linear_data(noise=0.5)
        y = np.abs(d.outcome)  # poisson needs y >= 0
        d = Dataset(d.covariates, d.treatment, y)
        w = np.random.default_rng(1).uniform(0.5, 2.0, d.n)
        D = FeatureMap().design(d.covariates, d.treatment)
        m = fit_outcome_model(d, w, family, **hyperparams)
        p = m.params
        if family == "linear_wls":  # weighted SSE
            loss = np.sum(w * (y - D @ p["coefficients"]) ** 2)
        elif family == "poisson":  # weighted deviance
            mu = np.exp(np.clip(D @ p["coefficients"], -30.0, 30.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(y > 0, y * np.log(y / mu), 0.0)
            loss = 2.0 * np.sum(w * (term - (y - mu)))
        else:  # epsilon-insensitive, on the standardized outcome
            resid = (y - p["y_mean"]) / p["y_scale"] - D @ p["theta"]
            loss = np.sum(w * np.maximum(np.abs(resid) - p["epsilon"], 0.0))
        assert m.final_loss == float(loss)

    def test_loss_kind_labels(self, toy_dataset):
        assert fit_outcome_model(toy_dataset, None, "linear_wls").loss_kind == "squared_error"
        assert fit_outcome_model(toy_dataset, None, "svr_linear",
                                 epochs=2).loss_kind == "epsilon_insensitive"


def whole_matrix_ite(model, d):
    """``compute_ite`` as it was before it predicted range by range: one
    design of the whole cohort per arm."""
    y1 = model.predict(d.covariates, np.ones(d.n, dtype=np.int64))
    y0 = model.predict(d.covariates, np.zeros(d.n, dtype=np.int64))
    return y1 - y0, y1, y0


# Small hyperparameters, so that each family fits in well under a second.
QUICK = {"svr_linear": {"epochs": 3}, "tree": {"max_depth": 4},
         "forest": {"n_trees": 3, "max_depth": 4}, "boosted_trees": {"n_rounds": 3}}
BLOCK = 8


def cohort(n, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-3, 3, k)
    a = rng.integers(0, 2, n)
    y = np.abs(X[:, 0] + a * X[:, -1] + rng.standard_normal(n))  # poisson needs y >= 0
    return Dataset(X, a, y)


class TestIteInRanges:
    """``compute_ite`` predicts one row range at a time, with the bits of one
    whole-matrix product, and never builds a design of the whole cohort."""

    @pytest.fixture(scope="class", params=[(f, k) for f in FAMILIES for k in (3, 50)],
                    ids=lambda p: f"{p[0]}-k{p[1]}")
    def model(self, request):
        family, k = request.param
        return fit_outcome_model(cohort(300, k, 1), None, family, **QUICK.get(family, {}))

    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK,
                                   2 * BLOCK + 1, 3 * BLOCK + 1])
    def test_bits_equal_whole_matrix(self, model, ranges, n):
        d = cohort(n, model.n_features, n)
        want = whole_matrix_ite(model, d)
        ranges(1, BLOCK)
        got = compute_ite(model, d)
        for g, w in zip((got.ite, got.y_hat_1, got.y_hat_0), want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_no_whole_cohort_design(self):
        n, k = 3 * data._BLOCK_ROWS + 1, 50
        d = cohort(n, k, 2)
        model = fit_outcome_model(d, None, "linear_wls")
        design_bytes = n * (2 * k + 2) * 8  # [1 | x | a | a*x]
        tracemalloc.start()
        try:
            got = compute_ite(model, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < design_bytes
        assert got.ite.tobytes() == whole_matrix_ite(model, d)[0].tobytes()
