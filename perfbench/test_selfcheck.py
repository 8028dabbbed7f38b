"""Self-check of the benchmark at tiny n: every metric named in BENCHMARK.json
is emitted with its unit, and the traced call counts are exact.

Run from the repository root: python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_N = {"reference_run": 600, "tree_rank": 600, "ingest_50k": 1500}


def _run(name: str, trace: bool, tmp_path: Path) -> dict:
    work = tmp_path / f"{name}-{int(trace)}"
    work.mkdir()
    result, info = run.run_workload(name, 7, 0.01, trace, work, n=TINY_N[name])
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY_N))
def test_end_to_end_metrics_emitted_with_units(name, tmp_path):
    metrics = _run(name, False, tmp_path)
    assert {k: v["unit"] for k, v in metrics.items()} == _expected("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: _run(name, True, tmp) for name in TINY_N}


def test_per_layer_metrics_emitted_with_units(traced):
    for metrics in traced.values():
        assert {k: v["unit"] for k, v in metrics.items()} == _expected("per_layer")


def test_reference_run_counts(traced):
    m = {k: v["value"] for k, v in traced["reference_run"].items()}
    assert m["propensity.fit_propensity.calls"] == 21
    assert m["propensity.balance_report.calls"] == 21
    assert m["analysis.prepare_cohort.calls"] == 21
    assert m["outcomes.fit.linear_wls.calls"] + m["outcomes.fit.svr_linear.calls"] == 22
    assert m["outcomes.compute_ite.calls"] == 24
    assert m["sensitivity.generate_confounder.calls"] == 18
    assert m["analysis.prepare_cohort.distinct_ratio"] == pytest.approx(11 / 21)
    assert m["sensitivity.generate_confounder.distinct_ratio"] == pytest.approx(9 / 18)
    assert m["propensity.balance_report.used_ratio"] == pytest.approx(1 / 21)
    assert m["trees.RegressionTree.fit.calls"] == 0


def test_tree_rank_counts(traced):
    m = {k: v["value"] for k, v in traced["tree_rank"].items()}
    assert m["trees.RegressionTree.fit.calls"] == 31
    assert m["outcomes.fit.tree.calls"] == m["outcomes.fit.forest.calls"] == 1
    assert m["outcomes.fit.boosted_trees.calls"] == 1
    assert m["propensity.fit_propensity.calls"] == 1
    assert m["trees.nodes"] > 31


def test_ingest_counts(traced):
    m = {k: v["value"] for k, v in traced["ingest_50k"].items()}
    assert m["data.load_dataset.calls"] == 1
    assert m["data.load_dataset.mb"] > 0
    assert m["setup.data.save_dataset.calls"] == 2  # observed.csv and oracle.csv
    assert m["propensity.balance_report.used_ratio"] == 1.0
    assert m["simulate.simulate_cohort.calls"] == 0
