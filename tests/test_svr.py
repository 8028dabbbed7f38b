"""The single-gather SVR step against the frozen masked-step oracle: the same
``theta`` bytes, outcome scale and step count on every design, weighting and
hyperparameter edge. Equal ``theta`` bytes give an equal loss."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svr_oracle
from proxyrank import RunConfig, SimConfig, prepare_cohort, simulate_cohort
from proxyrank.outcomes import FeatureMap, _fit_svr


def assert_same_fit(D, y, w, **hyper):
    theta, y_mean, y_scale, t = _fit_svr(D, y, w, **hyper)
    o_theta, o_y_mean, o_y_scale, o_t = svr_oracle.fit_svr(D, y, w, **hyper)
    assert theta.tobytes() == o_theta.tobytes()
    assert (y_mean, y_scale, t) == (o_y_mean, o_y_scale, o_t)


@pytest.fixture(scope="module")
def default_cohort():
    """The default config's trimmed cohort, its design and its IPTW weights."""
    cfg = RunConfig()
    prepared = prepare_cohort(simulate_cohort(cfg.resolved_sim()).observed, cfg.analysis)
    d = prepared.trimmed
    return FeatureMap().design(d.covariates, d.treatment), d.outcome, prepared.weights


@pytest.fixture(scope="module")
def small():
    """A 300-unit simulated cohort's design, outcome and positive weights."""
    d = simulate_cohort(SimConfig(n=300, k=6, seed=3)).observed
    w = np.random.default_rng(3).uniform(0.2, 5.0, d.n)
    return FeatureMap().design(d.covariates, d.treatment), d.outcome, w


class TestDefaultDesign:
    def test_iptw_weights(self, default_cohort):
        assert_same_fit(*default_cohort)

    def test_unit_weights(self, default_cohort):
        D, y, w = default_cohort
        assert_same_fit(D, y, np.ones_like(w))


class TestEdges:
    def test_zero_residual_at_first_step(self, small):
        D, y, w = small
        # y equal to its mean standardizes to exactly 0, so with theta = 0 the
        # first residuals are exactly 0, which epsilon = 0 leaves inside
        assert_same_fit(D, np.full_like(y, 2.5), w, epsilon=0.0)
        assert_same_fit(D, y, w, epsilon=0.0)

    def test_no_residual_outside(self, small):
        D, y, w = small
        assert_same_fit(D, y, w, epsilon=1e9)

    def test_nan_epsilon_keeps_every_row_inside(self, small):
        # NaN compares False both ways: the masked form counts no row outside
        assert_same_fit(*small, epsilon=float("nan"))

    @pytest.mark.parametrize("grad_clip", [None, 1e-6])
    def test_grad_clip(self, small, grad_clip):
        assert_same_fit(*small, grad_clip=grad_clip)

    @pytest.mark.parametrize("C", [0.01, 100.0])
    def test_C(self, small, C):
        assert_same_fit(*small, C=C)

    @pytest.mark.parametrize("n, batch_size", [(40, 64), (300, 64), (300, 1)])
    def test_batch_sizes(self, small, n, batch_size):
        D, y, w = small
        assert_same_fit(D[:n], y[:n], w[:n], batch_size=batch_size, epochs=3)

    def test_single_column_design(self, small):
        # numpy sums one column pairwise, not row after row
        D, y, w = small
        assert_same_fit(D[:, :1], y, w)
        assert_same_fit(D[:, 1:2], y, w, batch_size=16)

    def test_zero_column_and_negative_entries(self, small):
        D, y, w = small
        D = D.copy()
        D[:, 2] = 0.0
        D[:, 3] = -np.abs(D[:, 3]) - 1.0
        assert_same_fit(D, y, w, seed=7)


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 90))
    p = draw(st.integers(1, 6))
    D = np.array(draw(st.lists(finite, min_size=n * p, max_size=n * p))).reshape(n, p)
    y = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    hyper = {"epsilon": draw(st.sampled_from([0.0, 0.1, 1.0])),
             "C": draw(st.sampled_from([0.01, 1.0, 100.0])),
             "epochs": draw(st.integers(1, 3)),
             "batch_size": draw(st.integers(1, 70)),
             "grad_clip": draw(st.sampled_from([None, 1e-3, 1.0])),
             "seed": draw(st.integers(0, 5))}
    return D, y, w, hyper


@settings(max_examples=40, deadline=None)
@given(problems())
def test_random_designs_match_oracle(problem):
    D, y, w, hyper = problem
    assert_same_fit(D, y, w, **hyper)
