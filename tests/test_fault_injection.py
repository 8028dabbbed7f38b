"""Degenerate inputs driven through `rank --data` and `run --data` on small
hand-made CSVs: a treatment that a covariate separates, a constant covariate
column, effect estimates that all tie, and a covariate count the campaign
cannot match. Each pins the exit code and the written levels or error."""
import json

import numpy as np
import pytest

import proxyrank.sensitivity as sensitivity
from proxyrank import Dataset, save_dataset
from proxyrank.cli import main

N = 80
RNG = np.random.default_rng(0)
X = RNG.standard_normal((N, 4))
A = (RNG.random(N) < 0.5).astype(np.int64)
NOISE = RNG.standard_normal(N)
# A run --data draws its campaign from `sim`, so `sim.k` matches the CSV's k.
BASE = {"sim": {"n": 400, "k": 4}, "sensitivity_runs": 1, "placebo_bootstrap": 20,
        "sensitivity_configs": [{"alpha": 1000.0, "epsilon": 1000000.0}]}
LINEAR = dict(BASE, models=[{"family": "linear_wls", "label": "lin"}])
# No treatment column and no interactions: both counterfactual designs are
# the same matrix, so every effect estimate is exactly 0.0.
FLAT = dict(BASE, models=[{"family": "linear_wls", "label": "flat",
                           "include_treatment": False, "interactions": False}])


def levels_by(score):
    """Four equal levels by descending ``score``, 4 = the top quarter."""
    out = np.empty(N, dtype=np.int64)
    out[np.argsort(-score, kind="stable")] = np.repeat([4, 3, 2, 1], N // 4)
    return out.tolist()


def drive(tmp_path, command, config, d: Dataset):
    """Exit code and output directory of ``command --data`` on ``d``."""
    save_dataset(d, tmp_path / "d.csv")
    (tmp_path / "s.json").write_text(json.dumps({"treatment": "a", "outcome": "y"}))
    (tmp_path / "c.json").write_text(json.dumps(config))
    out = tmp_path / command
    rc = main([command, "--config", str(tmp_path / "c.json"), "--data", str(tmp_path / "d.csv"),
               "--schema", str(tmp_path / "s.json"), "--out", str(out)])
    return rc, out


def ranking_rows(out):
    return [line.split(",") for line in (out / "ranking.csv").read_text().splitlines()[2:]]


def separable() -> Dataset:
    """x0 > 0 decides the treatment; the outcome is noiseless with effect 2 * x1."""
    a = (X[:, 0] > 0).astype(np.int64)
    return Dataset(X, a, X[:, 0] + 2.0 * a * X[:, 1])


@pytest.mark.parametrize("command", ["rank", "run"])
def test_separable_treatment(command, tmp_path, capsys):
    # The propensity optimum diverges, its scores stay inside (0, 1) by the
    # |eta| <= 30 cap, and the noiseless outcome is still fit exactly.
    rc, out = drive(tmp_path, command, LINEAR, separable())
    assert rc == 0 and capsys.readouterr().err == ""
    assert [int(r[4]) for r in ranking_rows(out)] == levels_by(X[:, 1])
    if command == "run":
        report = json.loads((out / "report.json").read_text())
        assert report["models"][0]["error"] is None


def test_separable_treatment_fit_is_reported_unconverged(tmp_path):
    rc, out = drive(tmp_path, "analyze", LINEAR, separable())
    assert rc == 0
    fit = json.loads((out / "propensity.json").read_text())
    assert fit["converged"] is False and fit["n_iter"] == 500


@pytest.mark.parametrize("command", ["rank", "run"])
def test_constant_covariate_column(command, tmp_path, capsys):
    # x2 == 1 duplicates the intercept: the propensity fit standardizes it
    # to zeros and lstsq takes the minimum-norm solution of the outcome fit.
    Xc = X.copy()
    Xc[:, 2] = 1.0
    rc, out = drive(tmp_path, command, LINEAR, Dataset(Xc, A, Xc[:, 0] + 2.0 * A * Xc[:, 1]))
    assert rc == 0 and capsys.readouterr().err == ""
    assert [int(r[4]) for r in ranking_rows(out)] == levels_by(X[:, 1])


@pytest.mark.parametrize("command", ["rank", "run"])
def test_tied_effect_estimates(command, tmp_path, capsys):
    # Every estimate is 0.0, so ties go to the lower index: rank = index + 1
    # and the first quarter of the units holds the top level.
    rc, out = drive(tmp_path, command, FLAT, Dataset(X, A, X[:, 0] + A + NOISE))
    assert rc == 0 and capsys.readouterr().err == ""
    rows = ranking_rows(out)
    assert {r[2] for r in rows} == {"0.0"}
    assert [int(r[3]) for r in rows] == list(range(1, N + 1))
    assert [int(r[4]) for r in rows] == np.repeat([4, 3, 2, 1], N // 4).tolist()
    top_10 = [int(r[5]) for r in rows]
    assert top_10 == [1] * (N // 10) + [0] * (N - N // 10)


@pytest.mark.parametrize("command", ["run", "validate"])
def test_covariate_count_the_campaign_cannot_match(command, tmp_path, capsys, monkeypatch):
    # The campaign would be simulated with 8 covariates, the CSV has 4: a
    # config error before the cohort is prepared, and no output directory is made.
    def no_fit(*args):
        raise AssertionError("a cohort was prepared")
    monkeypatch.setattr(sensitivity, "prepare_cohort", no_fit)
    rc, out = drive(tmp_path, command, dict(LINEAR, sim={"n": 400, "k": 8}),
                    Dataset(X, A, X[:, 0] + A + NOISE))
    assert rc == 1
    assert capsys.readouterr().err == (
        "config error: the dataset has 4 covariates but the campaign is simulated with "
        "sim.k = 8; set sim.k to 4\n")
    assert not out.exists()
