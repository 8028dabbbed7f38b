import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxyrank import (Dataset, FitError, PropensityFit, SimConfig, balance_report,
                       fit_propensity, simulate_cohort, trim_extremes)
from proxyrank.propensity import _sigmoid, ipw_weights

import balance_oracle
import propensity_oracle
from conftest import make_dataset


def synthetic_fit(scores, treatment=None, marginal=None):
    scores = np.asarray(scores, dtype=float)
    if treatment is None:
        treatment = (scores > np.median(scores)).astype(int)
    m = float(np.mean(treatment)) if marginal is None else marginal
    return PropensityFit(coefficients=np.zeros(1), intercept=0.0, scores=scores,
                         marginal=m, converged=True, n_iter=1, grad_norm=0.0)


class TestFit:
    def test_independence_case(self):
        rng = np.random.default_rng(0)
        n, k = 4000, 3
        X = rng.standard_normal((n, k))
        a = (rng.random(n) < 0.3).astype(int)
        y = rng.standard_normal(n)
        fit = fit_propensity(Dataset(X, a, y))
        assert abs(fit.scores.mean() - a.mean()) < 0.01
        # coefficient standard errors from the observed information matrix
        D = np.hstack([np.ones((n, 1)), X])
        p = 1.0 / (1.0 + np.exp(-(fit.intercept + X @ fit.coefficients)))
        info = D.T @ (D * (p * (1 - p))[:, None])
        se = np.sqrt(np.diag(np.linalg.inv(info)))[1:]
        assert (np.abs(fit.coefficients) < 3.0 * se).all()

    def test_likelihood_matches_grid_search(self):
        # non-separable 4-point 1-D dataset; a dense grid over
        # (intercept, slope) is the oracle for the optimal likelihood
        X = np.array([[-1.0], [-0.3], [0.4], [1.2]])
        a = np.array([0, 1, 0, 1])
        d = Dataset(X, a, np.zeros(4))
        fit = fit_propensity(d, tol=1e-10, max_iter=5000)

        def mean_ll(b0, b1):
            eta = b0 + b1 * X[:, 0]
            return np.mean(a * eta - np.logaddexp(0, eta))

        grid = np.linspace(-8, 8, 321)
        best = max(mean_ll(b0, b1) for b0 in grid for b1 in grid)
        got = mean_ll(fit.intercept, fit.coefficients[0])
        assert got >= best - 1e-3

    def test_single_arm_rejected(self):
        d = make_dataset(n=20)
        with pytest.raises(FitError, match="no variation in treatment"):
            fit_propensity(d.with_treatment(np.ones(20, dtype=int)))

    def test_scores_strictly_inside_unit_interval(self, small_sim):
        fit = fit_propensity(small_sim.observed)
        assert fit.scores.min() > 0.0 and fit.scores.max() < 1.0

    def test_scores_cannot_be_moved_to_0_or_1(self, small_sim):
        # what keeps ipw_weights finite: it checks no score itself
        fit = fit_propensity(small_sim.observed)
        with pytest.raises(ValueError, match="read-only"):
            fit.scores[0] = 1.0

    def test_marginal_is_treated_fraction(self, small_sim):
        fit = fit_propensity(small_sim.observed)
        assert fit.marginal == pytest.approx(small_sim.observed.treatment.mean())

    def test_regularization_continuity(self, small_sim):
        f0 = fit_propensity(small_sim.observed, l2=0.0)
        f1 = fit_propensity(small_sim.observed, l2=1e-8)
        assert np.abs(f0.scores - f1.scores).max() < 1e-4

    def test_nonconvergence_is_flagged_not_fatal(self, small_sim):
        fit = fit_propensity(small_sim.observed, max_iter=2)
        assert not fit.converged
        assert fit.n_iter == 2


def ascent_recomputing(d, l2=0.0, tol=1e-6, max_iter=500):
    """The ascent of ``fit_propensity`` with ``D @ w`` and the objective
    recomputed wherever needed: (w, eta, n_iter, grad_norm, floor steps)."""
    a = d.treatment.astype(np.float64)
    sd = d.covariates.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    D = np.hstack([np.ones((d.n, 1)), (d.covariates - d.covariates.mean(axis=0)) / sd])

    def objective(w):
        eta = D @ w
        return float(np.mean(a * eta - np.logaddexp(0.0, eta))
                     - 0.5 * l2 * float(w[1:] @ w[1:]))

    def gradient(w):
        g = D.T @ (a - _sigmoid(D @ w)) / d.n
        g[1:] -= l2 * w[1:]
        return g

    w, step, n_iter, floor = np.zeros(d.k + 1), 1.0, 0, 0
    for n_iter in range(1, max_iter + 1):
        g = gradient(w)
        if float(np.max(np.abs(g))) < tol:
            n_iter -= 1
            break
        f0, gsq, t = objective(w), float(g @ g), step
        while t > 1e-14 and objective(w + t * g) < f0 + 0.5 * t * gsq:
            t *= 0.5
        floor += t <= 1e-14
        w = w + t * g
        step = min(t * 2.0, 1e6)
    return w, D @ w, n_iter, float(np.max(np.abs(gradient(w)))), floor


class TestAscentReusesIterates:
    """Carrying each iterate's D @ w and objective value changes no bit."""

    @pytest.mark.parametrize("kwargs", [{}, {"l2": 0.1}, {"max_iter": 1}, {"max_iter": 3},
                                        {"tol": 1e-300, "max_iter": 200},
                                        {"l2": 1e15, "max_iter": 5}])
    def test_same_bits_as_recomputing(self, small_confounded_sim, kwargs):
        d = small_confounded_sim.observed
        fit = fit_propensity(d, **kwargs)
        w, eta, n_iter, grad_norm, floor = ascent_recomputing(d, **kwargs)
        assert (fit.n_iter, fit.grad_norm) == (n_iter, grad_norm)
        assert fit.converged == (grad_norm < kwargs.get("tol", 1e-6))
        assert fit.scores.tobytes() == _sigmoid(np.clip(eta, -30.0, 30.0)).tobytes()
        sd = d.covariates.std(axis=0)
        assert fit.coefficients.tobytes() == (w[1:] / np.where(sd == 0.0, 1.0, sd)).tobytes()
        # Under this penalty no step above 1e-14 passes the line search, so
        # every step is taken at the floor.
        assert floor == (5 if kwargs.get("l2") == 1e15 else 0)


class TestDesignInPlace:
    """The design [1 | (X - mu) / sd] built in one array gives the fit of the
    separate ``Xs`` and ``np.hstack`` (``tests/propensity_oracle.py``)."""

    @pytest.mark.parametrize("cohort", ["clean", "confounded_l2", "zero_variance"])
    def test_same_fit_bytes_as_hstack_design(self, small_sim, small_confounded_sim, cohort):
        kwargs = {"l2": 0.1} if cohort == "confounded_l2" else {}
        if cohort == "zero_variance":
            d = make_dataset(n=500, k=4, seed=3)
            X = d.covariates.copy()
            X[:, 2] = 7.5
            d = Dataset(X, d.treatment, d.outcome)
        else:
            d = (small_sim if cohort == "clean" else small_confounded_sim).observed
        got, want = fit_propensity(d, **kwargs), propensity_oracle.fit_propensity(d, **kwargs)
        for name in ("coefficients", "scores"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("intercept", "marginal", "converged", "n_iter", "grad_norm"):
            assert getattr(got, name) == getattr(want, name)


class TestTrim:
    def test_quantile_enumeration_oracle(self):
        # evenly spaced known score vector (scaled into the open interval)
        scores = np.array([0.0099 * i for i in range(1, 101)])
        d = make_dataset(n=100, k=2)
        fit = synthetic_fit(scores, treatment=d.treatment)
        trimmed, fit_t = trim_extremes(fit, d, lo_q=0.05, hi_q=0.95)
        # explicit enumeration: units strictly below the 0.05-quantile and
        # strictly above the 0.95-quantile of the score vector are removed
        t_lo, t_hi = np.quantile(scores, [0.05, 0.95])
        expected = np.flatnonzero((scores >= t_lo) & (scores <= t_hi))
        assert trimmed.n == len(expected)
        np.testing.assert_array_equal(fit_t.scores, scores[expected])
        assert set(np.flatnonzero(scores < t_lo)) == {0, 1, 2, 3, 4}
        assert set(np.flatnonzero(scores > t_hi)) == {95, 96, 97, 98, 99}

    def test_identical_scores_drop_nothing(self):
        d = make_dataset(n=50, k=2)
        fit = synthetic_fit(np.full(50, 0.4), treatment=d.treatment)
        trimmed, _ = trim_extremes(fit, d)
        assert trimmed.n == 50

    def test_continuous_scores_keep_two_percent_margin(self):
        out = simulate_cohort(SimConfig(seed=3, z_covariate_strength=1.0))
        fit = fit_propensity(out.observed)
        trimmed, _ = trim_extremes(fit, out.observed)
        assert abs(trimmed.n - 9800) <= 20

    def test_retrim_with_new_quantiles_recomputes(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0.05, 0.95, 400)
        d = make_dataset(n=400, k=2)
        fit = synthetic_fit(scores, treatment=d.treatment)
        d1, f1 = trim_extremes(fit, d, 0.01, 0.99)
        d2, _ = trim_extremes(f1, d1, 0.10, 0.90)
        assert d2.n < d1.n

    def test_removing_entire_arm_rejected(self):
        # treated units hold all the low scores: aggressive trim removes them
        scores = np.concatenate([np.linspace(0.01, 0.05, 10), np.linspace(0.6, 0.9, 40)])
        a = np.concatenate([np.ones(10, dtype=int), np.zeros(40, dtype=int)])
        d = Dataset(np.zeros((50, 1)), a, np.zeros(50))
        fit = synthetic_fit(scores, treatment=a)
        with pytest.raises(FitError, match="entire treatment arm"):
            trim_extremes(fit, d, lo_q=0.25, hi_q=1.0)

    def test_invalid_quantiles(self):
        d = make_dataset(n=10)
        fit = synthetic_fit(np.linspace(0.1, 0.9, 10), treatment=d.treatment)
        with pytest.raises(FitError):
            trim_extremes(fit, d, 0.5, 0.5)


class TestStabilizedWeights:
    def test_direct_substitution(self):
        d = Dataset(np.zeros((1, 1)), np.array([1]), np.zeros(1))
        fit = synthetic_fit(np.array([0.25]), treatment=np.array([1]), marginal=0.5)
        assert ipw_weights(d.treatment, fit.scores, fit.marginal)[0] == pytest.approx(2.0)

    def test_stabilization_identity(self):
        a = np.resize([0, 1], 30)
        d = Dataset(np.zeros((30, 1)), a, np.zeros(30))
        fit = synthetic_fit(np.full(30, a.mean()), treatment=a)
        np.testing.assert_allclose(ipw_weights(d.treatment, fit.scores, fit.marginal), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(e=st.floats(0.02, 0.98), p=st.floats(0.05, 0.95),
           a=st.integers(0, 1))
    def test_formula_pointwise(self, e, p, a):
        d = Dataset(np.zeros((1, 1)), np.array([a]), np.zeros(1))
        fit = synthetic_fit(np.array([e]), treatment=np.array([a]), marginal=p)
        w = ipw_weights(d.treatment, fit.scores, fit.marginal)[0]
        expected = a * p / e + (1 - a) * (1 - p) / (1 - e)
        assert w == pytest.approx(expected)
        assert w > 0

    def test_arm_means_near_one_on_simulated_cohort(self, small_confounded_sim):
        obs = small_confounded_sim.observed
        fit = fit_propensity(obs)
        trimmed, fit_t = trim_extremes(fit, obs)
        w = ipw_weights(trimmed.treatment, fit_t.scores, fit_t.marginal)
        a = trimmed.treatment
        assert abs(w[a == 1].mean() - 1.0) < 0.05
        assert abs(w[a == 0].mean() - 1.0) < 0.05


class TestBalance:
    def test_identical_arms_zero_smd(self):
        block = np.arange(10, dtype=float).reshape(-1, 1)
        X = np.vstack([block, block])
        a = np.array([1] * 10 + [0] * 10)
        report = balance_report(Dataset(X, a, np.zeros(20)), np.ones(20))
        assert report.rows[0].smd_before == pytest.approx(0.0)
        assert report.rows[0].smd_after == pytest.approx(0.0)

    def test_hand_computed_value(self):
        # arm means 1 and 0, both sample sds exactly 1 -> SMD = 1.0
        x = np.array([0.0, 1.0, 2.0, -1.0, 0.0, 1.0])
        a = np.array([1, 1, 1, 0, 0, 0])
        report = balance_report(Dataset(x.reshape(-1, 1), a, np.zeros(6)), np.ones(6))
        assert report.rows[0].smd_before == pytest.approx(1.0)

    def test_zero_variance_flagged(self):
        X = np.ones((8, 1))
        a = np.resize([0, 1], 8)
        report = balance_report(Dataset(X, a, np.zeros(8)), np.ones(8))
        assert report.rows[0].smd_before == 0.0
        assert report.rows[0].degenerate

    def test_weighting_improves_balance_on_confounded_cohort(self):
        out = simulate_cohort(SimConfig(n=6000, k=12, seed=9, mode="confounded",
                                        z_covariate_strength=1.0))
        fit = fit_propensity(out.observed)
        trimmed, fit_t = trim_extremes(fit, out.observed)
        w = ipw_weights(trimmed.treatment, fit_t.scores, fit_t.marginal)
        report = balance_report(trimmed, w)
        assert report.mean_after() < report.mean_before()
        improved = np.mean([r.smd_after <= r.smd_before for r in report.rows])
        assert improved >= 0.9

    def test_flagged_list(self):
        X = np.vstack([np.full((10, 1), 3.0), np.zeros((10, 1))])
        a = np.array([1] * 10 + [0] * 10)
        X = X + np.linspace(0, 0.1, 20).reshape(-1, 1)  # avoid zero variance
        report = balance_report(Dataset(X, a, np.zeros(20)), np.ones(20), threshold=0.2)
        assert report.flagged == ("x0",)

    def test_rejects_nonpositive_weights(self, toy_dataset):
        with pytest.raises(FitError):
            balance_report(toy_dataset, np.zeros(toy_dataset.n))


# Arm sizes around the edges of numpy's summation: its unrolled blocks (8),
# pairwise blocks (128) and reduction buffer (8192 elements).
ARM_SIZES = st.one_of(st.integers(1, 300),
                      st.sampled_from([1, 2, 8, 9, 128, 129, 8191, 8192, 8193, 9000]))


class TestBalanceMatchesPerColumn:
    """The blocked, vectorized report against the per-column oracle, bit
    for bit."""

    @example(n1=1, n0=40, k=3, const_both=True, const_one=False, spread=0.0, seed=0)
    @example(n1=9000, n0=8191, k=9, const_both=True, const_one=True, spread=8.0, seed=1)
    @example(n1=8192, n0=8193, k=17, const_both=False, const_one=True, spread=8.0, seed=2)
    @settings(max_examples=60, deadline=None)
    @given(n1=ARM_SIZES, n0=ARM_SIZES, k=st.integers(1, 20), const_both=st.booleans(),
           const_one=st.booleans(), spread=st.sampled_from([0.0, 1.0, 8.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_equal(self, n1, n0, k, const_both, const_one, spread, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n1 + n0, k)) * 10.0 ** rng.uniform(-3, 3, k)
        a = rng.permutation(np.r_[np.ones(n1, dtype=int), np.zeros(n0, dtype=int)])
        if const_both:  # zero variance in both arms
            X[:, 0] = 2.5
        if const_one:  # zero variance in the treated arm only
            X[a == 1, k - 1] = -1.25
        w = np.exp(rng.uniform(-spread, spread, n1 + n0))  # weights within e^±spread
        d = Dataset(X, a, np.zeros(n1 + n0))
        want = balance_oracle.balance_report(d, w, threshold=0.1)
        got = balance_report(d, w, threshold=0.1)
        assert got.threshold == want.threshold
        assert [(r.covariate, r.degenerate) for r in got.rows] == \
            [(r.covariate, r.degenerate) for r in want.rows]
        # bits, so that NaN equals NaN and -0.0 differs from 0.0
        assert np.array_equal(
            np.array([(r.smd_before, r.smd_after) for r in got.rows]).view(np.int64),
            np.array([(r.smd_before, r.smd_after) for r in want.rows]).view(np.int64))
