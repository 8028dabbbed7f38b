"""The public names of proxyrank, and the ones the benchmark tracer binds."""
import importlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import proxyrank
import proxyrank.cli as cli
import proxyrank.parallel as parallel
from proxyrank import Dataset, IVExperiment
from proxyrank.trees import GradientBoostedTrees, RandomForest, RegressionTree

# Removed because nothing in the method called them; each must stay gone.
DELETED = ("predict_scores", "SplitSpec", "train_validation_split", "save_model",
           "load_model", "select_top_percentile", "stabilized_weights")
# Removed with the linked-node form of a fitted tree, which only the
# preorder arrays now hold; each must stay gone.
DELETED_TREE_API = ((proxyrank.trees, "_preorder"), (proxyrank.trees._Node, "to_dict"),
                    (proxyrank.trees._Node, "is_leaf"), (RegressionTree, "to_dict"),
                    (RandomForest, "to_dict"), (GradientBoostedTrees, "to_dict"))
# Removed when each outcome family took its own fit, when the tree gain bound
# became relative to the node, and when a campaign's ranking became an
# argument of validate_ranking_splits; each must stay gone.
DELETED_INTERNALS = ((proxyrank.outcomes, "_fit_linear_wls"),
                     (proxyrank.outcomes, "_fit_poisson"), (proxyrank.trees, "_MIN_GAIN"),
                     (IVExperiment, "with_predicted_ite"), (IVExperiment, "predicted_ite"))


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    for module, attr, *_ in _tracer().TARGETS:
        obj = importlib.import_module(f"proxyrank.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)


# Spans each traced command records at least once, in-process: every hook
# of these targets reads its arguments or result (a tree fit's linked nodes,
# a fit's n_iter, the balance rows, the IV records, a cohort and its config).
TREE_MODELS = [{"family": "tree", "label": "tree", "hyperparams": {"max_depth": 4}},
               {"family": "forest", "label": "forest", "hyperparams": {"n_trees": 3}},
               {"family": "boosted_trees", "label": "boosted_trees",
                "hyperparams": {"n_rounds": 3}}]
FIT = ("cli.main", "analysis.prepare_cohort", "propensity.fit_propensity",
       "analysis.analyze_model", "outcomes.compute_ite", "ranking.rank_and_bucket")
TRACED = {
    "rank": (["--config", "{tmp}/trees.json"],
             {*FIT, "simulate.simulate_cohort", "outcomes.fit.tree", "outcomes.fit.forest",
              "outcomes.fit.boosted_trees", "trees.RegressionTree.fit",
              "trees.RegressionTree.predict"}),
    "run": (["--config", "{tmp}/run.json"],
            {*FIT, "simulate.simulate_cohort", "pipeline.run_pipeline", "pipeline.emit_report",
             "pipeline.write_csv", "propensity.balance_report", "outcomes.fit.linear_wls",
             "outcomes.fit.svr_linear", "sensitivity.generate_confounder",
             "validation.simulate_campaign", "validation.validate_ranking_splits"}),
    "analyze": (["--config", "{tmp}/run.json", "--data", "{tmp}/sim/observed.csv",
                 "--schema", "{tmp}/sim/observed_schema.json"],
                {*FIT, "data.load_dataset", "pipeline.write_csv", "propensity.balance_report",
                 "outcomes.fit.linear_wls", "outcomes.fit.svr_linear"}),
}


@pytest.mark.parametrize("command", list(TRACED))
def test_tracer_hooks_read_what_the_commands_pass(command, monkeypatch, tmp_path):
    (tmp_path / "trees.json").write_text(json.dumps({"sim": {"n": 300, "k": 8},
                                                     "models": TREE_MODELS}))
    (tmp_path / "run.json").write_text(json.dumps({"sim": {"n": 200, "k": 8}}))
    monkeypatch.setattr(parallel, "_max_workers", lambda: 1)  # every span in this process
    if command == "analyze":
        assert cli.main(["simulate", "--config", str(tmp_path / "run.json"),
                         "--out", str(tmp_path / "sim")]) == 0
    args, expected = TRACED[command]
    args = [arg.format(tmp=tmp_path) for arg in args]
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        rc = cli.main([command, *args, "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert expected - {span["name"] for span in tracer.spans} == set()
    trees = [span["attrs"]["nodes"] for span in tracer.spans
             if span["name"] == "trees.RegressionTree.fit"]
    assert all(nodes > 0 for nodes in trees)


def test_tracer_reads_the_path_save_dataset_writes(tmp_path):
    # no traced command writes a dataset; the set-up of a CSV workload does
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        proxyrank.data.save_dataset(Dataset(np.eye(3), [0, 1, 0], [1.0, 2.0, 3.0]),
                                    tmp_path / "d.csv")
    finally:
        tracer.uninstall()
    (span,) = [span for span in tracer.spans if span["name"] == "data.save_dataset"]
    assert span["attrs"]["bytes"] == (tmp_path / "d.csv").stat().st_size > 0


def test_tracer_counts_every_stored_node():
    # the tracer walks a fitted tree's linked nodes, a view of its arrays
    count = _tracer()._count_nodes
    rng = np.random.default_rng(0)
    F, y, w = rng.standard_normal((300, 4)), rng.standard_normal(300), np.ones(300)
    for model in (RandomForest(n_trees=3, min_samples_leaf=3).fit(F, y, w),
                  GradientBoostedTrees(n_rounds=3, max_depth=3).fit(F, y, w)):
        assert [count(t.root) for t in model.trees] == [len(t.nodes[0]) for t in model.trees]
        assert all(len(t.nodes[0]) > 1 for t in model.trees)


def test_exported_names_resolve():
    assert [name for name in proxyrank.__all__ if not hasattr(proxyrank, name)] == []


def test_deleted_names_not_exported():
    for name in DELETED:
        assert name not in proxyrank.__all__
        assert not hasattr(proxyrank, name)


def test_readme_export_paragraph_names_exported_names():
    lead = "The package exports the names in `proxyrank.__all__`"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index(lead) + len(lead)
    names = re.findall(r"`([^`]+)`", readme[start:readme.index("\n\n", start)])
    assert len(names) > 10
    assert [name for name in names if name not in proxyrank.__all__] == []


def test_deleted_tree_api_stays_deleted():
    assert [(owner.__name__, attr) for owner, attr in DELETED_TREE_API
            if hasattr(owner, attr)] == []
    assert RegressionTree.root.fset is None  # the tracer's view is read-only


def test_deleted_internals_stay_deleted():
    assert [(owner.__name__, attr) for owner, attr in DELETED_INTERNALS
            if hasattr(owner, attr)] == []
