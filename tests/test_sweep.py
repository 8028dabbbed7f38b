"""The draw-major sensitivity sweep: every placebo and confounded cohort is
prepared once and shared by all models, with the same numbers and the same
per-model failures as running each model on its own."""
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import proxyrank.analysis as analysis
import proxyrank.propensity as propensity
import proxyrank.sensitivity as sensitivity
from proxyrank import (AnalysisConfig, ConfounderConfig, ConfoundingRecord, ModelError,
                       ModelSpec, RunConfig, confounding_overlap, generate_confounder,
                       overlap_fraction, placebo_test, rank_rmse, run_analysis, run_pipeline)
from proxyrank.cli import main
from proxyrank.rng import derive_seed, substream

SPECS = [ModelSpec(family="linear_wls", label="lr"),
         ModelSpec(family="svr_linear", hyperparams={"epochs": 3}, label="svr")]
CONFIGS = [ConfounderConfig(alpha=1e3, epsilon=1e6),
           ConfounderConfig(alpha=1e5, epsilon=4e6)]
ACFG = AnalysisConfig()

TWO_MODELS = {"sim": {"n": 600, "k": 8}, "sensitivity_runs": 2, "placebo_bootstrap": 30,
              "sensitivity_configs": [{"alpha": 1000.0, "epsilon": 1000000.0}],
              "models": [{"family": "linear_wls", "label": "ok"},
                         {"family": "svr_linear", "label": "bad",
                          "hyperparams": {"epochs": 3}}]}


def oracle_records(d, spec, runs, seed):
    """The confounder sweep of one model, one run_analysis per draw."""
    base = run_analysis(d, spec, ACFG)
    records = []
    for ci, ccfg in enumerate(CONFIGS):
        for r in range(runs):
            draw = replace(ccfg, seed=derive_seed(seed, "confounder-run", ci, r))
            u, corr_a, corr_y = generate_confounder(d, draw)
            result = run_analysis(d.with_covariate(f"u_synth_{ci}_{r}", u), spec, ACFG)
            records.append(ConfoundingRecord(
                config_index=ci, alpha=ccfg.alpha, epsilon=ccfg.epsilon, run=r,
                corr_u_a=corr_a, corr_u_y=corr_y,
                overlap=overlap_fraction(base.ites.ite, result.ites.ite),
                rank_rmse_vs_baseline=rank_rmse(base.ranked.level, result.ranked.level)))
    return records


def oracle_placebo(d, spec, seed, n_bootstrap):
    """The placebo test of one model: (to_dict(), levels)."""
    base = run_analysis(d, spec, ACFG)
    fake = (substream(seed, "placebo-treatment").random(d.n) < 0.5).astype(np.int64)
    result = run_analysis(d.with_treatment(fake), spec, ACFG)
    prep = result.prepared
    y, a, e = prep.trimmed.outcome, prep.trimmed.treatment, prep.fit.scores

    def ate(y, a, w):
        t = a == 1
        return float(np.average(y[t], weights=w[t]) - np.average(y[~t], weights=w[~t]))

    rng = substream(seed, "placebo-bootstrap")
    draws = []
    for _ in range(n_bootstrap):
        idx = rng.integers(0, len(a), size=len(a))
        ab, yb, eb = a[idx], y[idx], e[idx]
        if ab.min() == ab.max():
            draws.append(np.nan)
            continue
        p = float(ab.mean())
        draws.append(ate(yb, ab, np.where(ab == 1, p / eb, (1.0 - p) / (1.0 - eb))))
    return ({"ate_estimate": ate(y, a, prep.weights),
             "ate_se": float(np.nanstd(draws, ddof=1)),
             "rank_rmse_vs_original": rank_rmse(result.ranked.level, base.ranked.level)},
            result.ranked.level)


def test_confounding_sweep_matches_per_model_oracle(small_sim):
    d = small_sim.observed
    reports = confounding_overlap(d, SPECS, CONFIGS, runs=2, cfg=ACFG, seed=23)
    for spec, report in zip(SPECS, reports):
        expected = oracle_records(d, spec, runs=2, seed=23)
        assert len(report.records) == len(expected) == 4
        for got, want in zip(report.records, expected):
            assert got == want


def test_placebo_sweep_matches_per_model_oracle(small_sim):
    d = small_sim.observed
    results = placebo_test(d, SPECS, ACFG, seed=31, n_bootstrap=40)
    for spec, res in zip(SPECS, results):
        summary, levels = oracle_placebo(d, spec, seed=31, n_bootstrap=40)
        assert res.to_dict() == summary
        np.testing.assert_array_equal(res.levels, levels)


def fail_on_confounded(label):
    """analyze_model that raises for ``label`` on any confounded cohort."""
    real = sensitivity.analyze_model

    def analyze(prepared, spec, cfg=ACFG):
        if spec.label == label and any(name.startswith("u_synth")
                                       for name in prepared.full.covariate_names):
            raise ModelError("injected failure")
        return real(prepared, spec, cfg)
    return analyze


def test_failing_model_leaves_the_others_alone(monkeypatch):
    solo = run_pipeline(RunConfig.from_dict(dict(TWO_MODELS, models=TWO_MODELS["models"][:1])))
    monkeypatch.setattr(sensitivity, "analyze_model", fail_on_confounded("bad"))
    both = run_pipeline(RunConfig.from_dict(TWO_MODELS))
    ok, bad = both.model_reports
    assert ok.summary_dict() == solo.model_reports[0].summary_dict()
    assert ok.sensitivity.to_dict() == solo.model_reports[0].sensitivity.to_dict()
    assert bad.error == "ModelError: injected failure"
    assert bad.placebo is not None  # the placebo cohort has no synthetic confounder
    assert bad.sensitivity is None and bad.iv is None


def test_cohort_failure_ends_every_model(monkeypatch):
    def broken(d, cfg):
        raise ModelError("no confounder today")
    monkeypatch.setattr(sensitivity, "generate_confounder", broken)
    report = run_pipeline(RunConfig.from_dict(TWO_MODELS))
    for mr in report.model_reports:
        assert mr.error == "ModelError: no confounder today"
        assert mr.analysis is not None and mr.placebo is not None
        assert mr.sensitivity is None


def count_calls(monkeypatch, fn, log: Path):
    """Count calls of ``fn`` through every proxyrank module that holds it.

    Each call appends one byte to ``log``, so calls made in forked sweep
    workers count too; returns a function that reads the count."""
    def counted(*args, **kwargs):
        with open(log, "ab") as fh:
            fh.write(b".")
        return fn(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name == "proxyrank" or name.startswith("proxyrank."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return lambda: log.stat().st_size if log.exists() else 0


@pytest.mark.parametrize("command,balance_calls", [("run", 1), ("sensitivity", 0)])
def test_each_cohort_prepared_once(command, balance_calls, monkeypatch, tmp_path):
    cfg = RunConfig()
    draws = len(cfg.sensitivity_configs) * cfg.sensitivity_runs
    prepare = count_calls(monkeypatch, analysis.prepare_cohort, tmp_path / "prepare")
    balance = count_calls(monkeypatch, propensity.balance_report, tmp_path / "balance")
    confounders = count_calls(monkeypatch, sensitivity.generate_confounder,
                              tmp_path / "confounders")
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"sim": {"n": 600, "k": 8}}))
    assert main([command, "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0
    assert prepare() == 2 + draws  # baseline, placebo, one per confounder draw
    assert balance() == balance_calls
    assert confounders() == draws
