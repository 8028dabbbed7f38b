"""Each outcome family's contract under two data maps, checked to the bit.

- Outcome scale: y -> 2**j * y must give ITE -> 2**j * ITE.
- Weight scale: w -> 4**j * w must leave every ITE unchanged. The map uses
  4**j, not 2**j, because ``linear_wls`` fits on sqrt(w), which is exact only
  for even powers of two.

A power-of-two factor rounds nothing, so a family whose fit has no absolute
constant in it honours these maps exactly, not approximately. Each family
declares the maps it honours in ``HONOURS``; the rest are exceptions, whose
rank RMSE (on quartile levels, as a run ranks) is recorded as info.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxyrank import Dataset, SimConfig, compute_ite, fit_outcome_model, simulate_cohort
from proxyrank.outcomes import ESTIMATORS
from proxyrank.ranking import rank_and_bucket, rank_rmse

# family -> (hyperparams, the maps it honours to the bit)
HONOURS = {
    "linear_wls": ({}, {"y", "w"}),
    # its penalty is absolute, so reweighting changes the fit outright
    "linear_wls l2": ({"l2": 0.5}, {"y"}),
    # the start value log(mean y) and the stop rule tol * max(1, |deviance|)
    # are not scale-free
    "poisson": ({"max_iter": 20}, set()),
    "svr_linear": ({"epochs": 5}, {"y", "w"}),
    "tree": ({}, {"y", "w"}),
    "forest": ({"n_trees": 3, "min_samples_leaf": 5}, {"y", "w"}),
    "boosted_trees": ({"n_rounds": 5}, {"y", "w"}),
}
EXACT = [(name, m) for name, (_, maps) in HONOURS.items() for m in sorted(maps)]
EXCEPTIONS = [(name, m) for name, (_, maps) in HONOURS.items() for m in ("w", "y")
              if m not in maps]


def cohort(n, k, seed, family):
    """A simulated cohort and positive weights spread over three decades."""
    d = simulate_cohort(SimConfig(n=n, k=k, seed=seed)).observed
    if family == "poisson":  # it needs y >= 0
        d = Dataset(d.covariates, d.treatment, np.abs(d.outcome))
    w = np.random.default_rng(seed).lognormal(0.0, 1.0, n)
    return d, w


def ites(name, d, w, y_scale=1.0, w_scale=1.0):
    family = name.split()[0]
    d = Dataset(d.covariates, d.treatment, d.outcome * y_scale)
    model = fit_outcome_model(d, w * w_scale, family, **HONOURS[name][0])
    return compute_ite(model, d).ite


def mapped(name, m, n, k, seed, j):
    """The ITEs of the fit on the mapped cohort, mapped back, and the ITEs
    of the fit on the cohort itself."""
    d, w = cohort(n, k, seed, name.split()[0])
    if m == "y":
        return ites(name, d, w, y_scale=2.0 ** j) / 2.0 ** j, ites(name, d, w)
    return ites(name, d, w, w_scale=4.0 ** j), ites(name, d, w)


def test_every_family_declares_its_maps():
    assert sorted({name.split()[0] for name in HONOURS}) == sorted(ESTIMATORS)


@pytest.mark.parametrize("name,m", EXACT)
@settings(max_examples=4, deadline=None)
@given(n=st.integers(200, 1500), k=st.integers(5, 8), seed=st.integers(0, 2 ** 16),
       j=st.integers(-30, 30))
@example(n=1500, k=8, seed=3, j=-20)
@example(n=1500, k=8, seed=3, j=-30)
def test_declared_map_holds_to_the_bit(name, m, n, k, seed, j):
    back, ite = mapped(name, m, n, k, seed, j)
    assert back.tobytes() == ite.tobytes()


@pytest.mark.parametrize("name,m", EXCEPTIONS)
@pytest.mark.parametrize("j", [-20, 20])
def test_exception_rank_rmse_is_recorded(name, m, j, request):
    back, ite = mapped(name, m, 1500, 8, 3, j)
    assert np.isfinite(back).all()
    levels = [rank_and_bucket(v).level for v in (back, ite)]
    # appended to the node directly, as ``record_property`` does, so the
    # test runs also when the junitxml plugin is disabled
    request.node.user_properties.append(("rank_rmse", rank_rmse(*levels)))
