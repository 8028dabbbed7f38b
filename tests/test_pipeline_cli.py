import contextlib
import hashlib
import io
import json
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

from proxyrank import (FAMILIES, ConfigError, Dataset, RunConfig, StageError, emit_report,
                       parallel, pipeline, run_pipeline, save_dataset)
from proxyrank.cli import main
from proxyrank.pipeline import REPORT_FILES

from conftest import BAD_SCHEMAS, TINY


BAD_MODELS = [
    ({"family": "frest"}, "unknown family"),
    ({"family": "boosted_trees", "hyperparams": {"n_round": 5}}, "n_round"),
    ({"family": "svr_linear", "hyperparams": {"epoch": 5}}, "epoch"),
    ({"family": "forest", "hyperparams": {"n_trees": 0}}, "n_trees"),
    ({"family": "linear_wls", "hyperparams": {"l2": -1}}, "l2 must be >= 0"),
    ({"family": "svr_linear", "hyperparams": {"C": 0}}, "C > 0"),
    ({"family": "svr_linear", "hyperparams": {"epsilon": -0.5}}, "epsilon >= 0"),
    ({"family": "linear_wls", "hyperparams": {"l2": "big"}}, "bad linear_wls hyperparams"),
    ({"family": "linear_sgd"}, "unknown family"),
    # NaN (JSON's NaN literal) and values of the wrong kind
    ({"family": "svr_linear", "hyperparams": {"epsilon": float("nan")}}, "epsilon >= 0"),
    ({"family": "svr_linear", "hyperparams": {"C": float("nan")}}, "C > 0"),
    ({"family": "linear_wls", "hyperparams": {"l2": float("nan")}}, "l2 must be >= 0"),
    ({"family": "tree", "hyperparams": {"max_depth": float("nan")}}, "max_depth"),
    ({"family": "tree", "hyperparams": {"min_samples_leaf": float("nan")}}, "min_samples_leaf"),
    ({"family": "forest", "hyperparams": {"n_trees": float("nan")}}, "n_trees"),
    ({"family": "svr_linear", "hyperparams": {"epochs": 2.5}}, "epochs must be an integer >= 1"),
    ({"family": "svr_linear", "hyperparams": {"epochs": 0}}, "epochs must be an integer >= 1"),
    ({"family": "svr_linear", "hyperparams": {"batch_size": 2.5}},
     "batch_size must be an integer >= 1"),
    ({"family": "svr_linear", "hyperparams": {"batch_size": 0}},
     "batch_size must be an integer >= 1"),
    ({"family": "svr_linear", "hyperparams": {"lr0": 0}}, "lr0 > 0"),
    ({"family": "svr_linear", "hyperparams": {"seed": 1.5}}, "seed must be an integer"),
    ({"family": "tree", "hyperparams": {"seed": 1.5}}, "seed must be an integer"),
    # tree counts and sizes are integers, and boosting needs a round
    ({"family": "forest", "hyperparams": {"n_trees": 2.5}},
     "n_trees must be an integer >= 1, got 2.5"),
    ({"family": "boosted_trees", "hyperparams": {"n_rounds": 2.5}},
     "n_rounds must be an integer >= 1, got 2.5"),
    ({"family": "boosted_trees", "hyperparams": {"n_rounds": 0}},
     "n_rounds must be an integer >= 1, got 0"),
    ({"family": "tree", "hyperparams": {"min_samples_leaf": 2.5}},
     "min_samples_leaf must be an integer >= 1, got 2.5"),
    ({"family": "tree", "hyperparams": {"max_depth": 2.5}},
     "max_depth must be None or an integer >= 0, got 2.5"),
    ({"family": "tree", "hyperparams": {"max_features": 2.5}},
     "max_features must be None or an integer >= 1, got 2.5"),
    ({"family": "forest", "hyperparams": {"max_depth": 2.5}},
     "max_depth must be None or an integer >= 0, got 2.5"),
    # grad_clip 0 would zero every step, and -1 reverse it
    ({"family": "svr_linear", "hyperparams": {"grad_clip": 0}}, "grad_clip must be None or > 0"),
    ({"family": "svr_linear", "hyperparams": {"grad_clip": -1}}, "grad_clip must be None or > 0"),
    ({"family": "svr_linear", "hyperparams": {"grad_clip": "x"}}, "bad svr_linear hyperparams"),
    ({"family": "poisson", "hyperparams": {"tol": 0}}, "poisson requires tol > 0"),
    ({"family": "poisson", "hyperparams": {"tol": float("nan")}}, "poisson requires tol > 0"),
    ({"family": "poisson", "hyperparams": {"tol": "x"}}, "bad poisson hyperparams"),
    ({"family": "poisson", "hyperparams": {"max_iter": 2.5}},
     "max_iter must be an integer >= 1, got 2.5"),
    ({"family": "poisson", "hyperparams": {"max_iter": 0}},
     "max_iter must be an integer >= 1, got 0"),
    # no family has a boolean hyperparameter
    ({"family": "linear_wls", "hyperparams": {"l2": True}},
     r"linear_wls hyperparams \['l2'\] must be numbers, not booleans"),
    ({"family": "svr_linear", "hyperparams": {"C": True, "epsilon": False}},
     r"svr_linear hyperparams \['C', 'epsilon'\] must be numbers"),
    ({"family": "svr_linear", "hyperparams": {"lr0": True}}, "must be numbers, not booleans"),
    ({"family": "boosted_trees", "hyperparams": {"shrinkage": True}},
     "must be numbers, not booleans"),
    # a tree model's fitted state is not a hyperparameter
    ({"family": "tree", "hyperparams": {"root": None}},
     r"^models\[0\]: tree does not accept hyperparams \['root'\]; it accepts "
     r"\['max_depth', 'min_samples_leaf', 'max_features', 'seed'\]$"),
    ({"family": "tree", "hyperparams": {"nodes": None}},
     r"tree does not accept hyperparams \['nodes'\]"),
    ({"family": "forest", "hyperparams": {"trees": []}},
     r"forest does not accept hyperparams \['trees'\]"),
    ({"family": "boosted_trees", "hyperparams": {"base_value": 1.0, "train_losses": []}},
     r"boosted_trees does not accept hyperparams \['base_value', 'train_losses'\]"),
    # infinity, which JSON reads, configures nothing either
    ({"family": "linear_wls", "hyperparams": {"l2": float("inf")}},
     r"^models\[0\]: linear_wls hyperparams \['l2'\] must be finite$"),
    ({"family": "svr_linear", "hyperparams": {"lr0": float("inf"), "C": float("-inf")}},
     r"svr_linear hyperparams \['C', 'lr0'\] must be finite"),
]

# Out-of-range run settings; each would otherwise fail only at fit time, or
# run to a degenerate result.
BAD_CONFIGS = [
    ({"analysis": {"trim_lo": 0.9, "trim_hi": 0.1}}, "trim_lo < trim_hi"),
    ({"analysis": {"n_levels": 0}}, "n_levels must be >= 1"),
    ({"analysis": {"propensity_l2": -1}}, "propensity_l2 must be >= 0"),
    ({"analysis": {"report_range": [5, 1]}}, "report_range"),
    ({"k_grid": [0]}, "k_grid"),
    ({"k_grid": []}, "k_grid"),
    ({"placebo_bootstrap": 0}, "placebo_bootstrap must be >= 2"),
    # no confounder draw leaves the report's mean rank RMSE a NaN
    ({"sensitivity_configs": []}, "at least one sensitivity config"),
    ({"sensitivity_configs": [{"epsilon": 0}]}, "epsilon must be > 0"),
    ({"sensitivity_configs": [{"posterior_mode": "median"}]}, "posterior_mode"),
    # each run's confounder seed derives from master_seed, so this one would configure nothing
    ({"sensitivity_configs": [{}, {"seed": 7}]},
     r"^sensitivity_configs\[1\]: seed must be 0, got 7; each confounder draw's seed "
     r"derives from master_seed$"),
    # values of the wrong type
    ({"analysis": {"trim_lo": "x"}}, "analysis.trim_lo must be a number"),
    ({"analysis": {"n_levels": "4"}}, "analysis.n_levels must be an integer"),
    ({"analysis": {"n_levels": 4.0}}, "analysis.n_levels must be an integer"),
    ({"analysis": {"report_range": [0, "x"]}}, "analysis.report_range must be a list"),
    ({"analysis": 5}, "analysis must be an object"),
    ({"sim": [1]}, "sim must be an object"),
    ({"sensitivity_runs": "two"}, "sensitivity_runs must be an integer"),
    ({"placebo_bootstrap": "many"}, "placebo_bootstrap must be an integer"),
    ({"k_grid": "abc"}, "k_grid must be a list of numbers"),
    ({"k_grid": 5}, "k_grid must be a list of numbers"),
    ({"campaign_exposure": "x"}, "campaign_exposure must be a number"),
    ({"master_seed": "x"}, "master_seed must be an integer"),
    ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
    ({"sensitivity_runs": 2.7}, "sensitivity_runs must be an integer, got 2.7"),
    ({"sensitivity_runs": "5"}, "sensitivity_runs must be an integer, got '5'"),
    ({"k_grid": ["5"]}, "k_grid must be a list of numbers"),
    ({"models": [{"family": "linear_wls", "causal": "no"}]},
     r"models\[0\]\.causal must be a boolean, got 'no'"),
    ({"models": [5]}, r"models\[0\] must be an object, got 5"),
    ({"sim": {"embed_groups": "no"}}, "sim.embed_groups must be a boolean"),
    ({"sim": {"cate_levels": "abc"}}, "sim.cate_levels must be a list of numbers"),
    ({"sim": {"n": 100.5}}, "sim.n must be an integer, got 100.5"),
    ({"sim": {"n": "x"}}, "sim.n must be an integer, got 'x'"),
    ({"sim": {"nn": 1}}, r"unknown config keys: \['sim.nn'\]"),
    ({"sensitivity_configs": [{"alpha": "x"}]},
     r"sensitivity_configs\[0\]\.alpha must be a number, got 'x'"),
    ({"analysis": {"report_range": [0, float("inf")]}},
     "analysis.report_range must be a list of 2 numbers"),
    # two models with one label would share every output row and key
    ({"models": [{"family": "linear_wls"},
                 {"family": "linear_wls", "hyperparams": {"l2": 5.0}}]},
     "two models are named 'iptw_linear_wls'"),
    # interactions (on by default) need the treatment column
    ({"models": [{"family": "linear_wls", "include_treatment": False}]},
     r"models\[0\]: interaction features require the treatment column"),
    # a repeated k would repeat a ranking.csv column, which load_dataset refuses
    ({"k_grid": [10, 10]}, r"k_grid must not repeat a value, got \[10.0, 10.0\]"),
    ({"analysis": {"propensity_max_iter": 0}}, "propensity_max_iter must be >= 1"),
    ({"analysis": {"propensity_tol": -1}}, "propensity_tol must be > 0"),
    ({"sim": {"k": -1, "embed_groups": False}}, "k must be >= 0"),
    # a section's own range error names the section, once
    ({"sim": {"k": -1, "embed_groups": False}}, r"^sim: k must be >= 0$"),
    ({"sim": {"n": 0}}, r"^sim: n must be positive$"),
    ({"analysis": {"propensity_tol": -1}}, r"^analysis: propensity_tol must be > 0$"),
    ({"analysis": {"trim_lo": 0.9, "trim_hi": 0.1}},
     r"^analysis: trim_lo and trim_hi need 0 <= trim_lo < trim_hi <= 1$"),
    ({"models": [{"family": "linear_wls"}, {"family": "svr_linear", "hyperparams": {"C": 0}}]},
     r"^models\[1\]: svr_linear requires C > 0 and epsilon >= 0$"),
    # a tree on [x | a] crosses a with x itself, so interactions: false would
    # configure nothing
    ({"models": [{"family": "linear_wls"}, {"family": "forest", "interactions": False}]},
     r"^models\[1\]: tree families cross the treatment with x themselves: "
     r"interactions: false needs include_treatment: false$"),
]

# The hyperparameters each family accepts, in the order its error lists them.
ACCEPTED = {
    "linear_wls": ["l2"],
    "poisson": ["tol", "max_iter"],
    "svr_linear": ["epsilon", "C", "lr0", "epochs", "batch_size", "grad_clip", "seed"],
    "tree": ["max_depth", "min_samples_leaf", "max_features", "seed"],
    "forest": ["n_trees", "min_samples_leaf", "max_depth", "seed"],
    "boosted_trees": ["n_rounds", "max_depth", "shrinkage", "min_samples_leaf", "seed"],
}


def balance_numbers(path: Path) -> list[float]:
    """Every SMD cell of a balance.csv, parsed with float()."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "covariate,smd_before,smd_after,flagged"
    return [float(cell) for ln in lines[1:] for cell in ln.split(",")[1:3]]


def hash_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


@pytest.fixture(scope="module")
def tiny_report():
    return run_pipeline(RunConfig.from_dict(TINY))


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Output directories of `run` and each subcommand on TINY, named after
    the command; a `_data` suffix marks a run on the simulated observed.csv
    via --data."""
    root = tmp_path_factory.mktemp("cli")
    cfgp = root / "cfg.json"
    cfgp.write_text(json.dumps(TINY))
    assert main(["simulate", "--config", str(cfgp), "--out", str(root / "sim")]) == 0
    data = ["--data", str(root / "sim" / "observed.csv"),
            "--schema", str(root / "sim" / "observed_schema.json")]
    for cmd in ("run", "analyze", "balance", "sensitivity", "validate"):
        assert main([cmd, "--config", str(cfgp), "--out", str(root / cmd)]) == 0
    for cmd in ("run", "rank"):
        assert main([cmd, "--config", str(cfgp), *data,
                     "--out", str(root / f"{cmd}_data")]) == 0
    return root


class TestRunConfig:
    def test_empty_config_is_golden_defaults(self):
        cfg = RunConfig.from_dict({})
        assert cfg.sim.n == 10_000 and cfg.sim.k == 50
        assert [m.label for m in cfg.models] == ["iptw_linear", "iptw_svr"]
        assert len(cfg.sensitivity_configs) == 3
        assert cfg.campaign_exposure == 0.661

    def test_missing_model_list_rejected_before_computation(self):
        with pytest.raises(ConfigError, match="at least one outcome model"):
            RunConfig.from_dict({"models": []})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"modles": []})

    @pytest.mark.parametrize("model,match", BAD_MODELS)
    def test_bad_model_spec_rejected_at_load(self, model, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict({"models": [model]})

    @pytest.mark.parametrize("fragment,match", BAD_CONFIGS)
    def test_bad_setting_rejected_at_load(self, fragment, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_dict(fragment)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unknown_hyperparam_lists_the_accepted_ones(self, family):
        with pytest.raises(ConfigError, match=re.escape(
                f"{family} does not accept hyperparams ['bogus']; "
                f"it accepts {ACCEPTED[family]}")):
            RunConfig.from_dict({"models": [{"family": family, "hyperparams": {"bogus": 1}}]})

    def test_config_hash_stable_and_sensitive(self):
        c1 = RunConfig.from_dict(TINY)
        c2 = RunConfig.from_dict(TINY)
        assert c1.config_hash() == c2.config_hash()
        changed = dict(TINY, master_seed=99)
        assert RunConfig.from_dict(changed).config_hash() != c1.config_hash()


class TestRunPipeline:
    def test_two_model_structure(self, tiny_report):
        assert [m.label for m in tiny_report.model_reports] == ["iptw_linear", "iptw_svr"]
        for m in tiny_report.model_reports:
            assert m.error is None
            assert m.rank_rmse_vs_truth is not None
            assert m.placebo is not None
            assert m.sensitivity is not None and len(m.sensitivity.records) == 1
            assert m.iv is not None

    def test_failed_branch_recorded_others_continue(self):
        cfg_dict = dict(TINY)
        cfg_dict["models"] = [
            {"family": "poisson", "causal": True, "label": "bad_poisson"},
            {"family": "linear_wls", "causal": True, "label": "ok_linear"},
        ]
        report = run_pipeline(RunConfig.from_dict(cfg_dict))
        by_label = {m.label: m for m in report.model_reports}
        # the simulated outcome has negative values: poisson branch fails
        assert by_label["bad_poisson"].error is not None
        assert by_label["ok_linear"].error is None

    def test_non_causal_counterpart_runs(self):
        cfg_dict = dict(TINY)
        cfg_dict["models"] = [{"family": "linear_wls", "causal": False, "label": "plain"}]
        report = run_pipeline(RunConfig.from_dict(cfg_dict))
        assert report.model_reports[0].error is None

    def test_estimation_never_sees_ground_truth(self, tiny_report):
        # evaluation reads the oracle; every fitting stage gets the masked view
        for m in tiny_report.model_reports:
            assert m.analysis.prepared.full.ground_truth is None
            assert m.analysis.prepared.trimmed.ground_truth is None
        assert tiny_report.true_levels is not None  # oracle used for scoring only


class TestEmitReport:
    def test_full_manifest(self, tiny_report, tmp_path):
        manifest = emit_report(tiny_report, tmp_path / "out")
        assert sorted(manifest) == ["balance.csv", "cate_by_k.csv", "overlap.csv",
                                    "ranking.csv", "report.json", "sensitivity.json",
                                    "summary.md"]
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_manifest_lists_only_report_files(self, tiny_report, tmp_path):
        assert set(emit_report(tiny_report, tmp_path / "out")) <= set(REPORT_FILES)

    def test_rerun_hashes_identical(self, tmp_path):
        cfg = RunConfig.from_dict(TINY)
        m1 = emit_report(run_pipeline(cfg), tmp_path / "a")
        m2 = emit_report(run_pipeline(cfg), tmp_path / "b")
        assert m1 == m2

    def test_config_hash_in_every_file(self, tiny_report, tmp_path):
        emit_report(tiny_report, tmp_path / "out")
        chash = tiny_report.config_hash
        for p in (tmp_path / "out").iterdir():
            if p.name == "manifest.json":
                continue
            text = p.read_text(encoding="utf-8")
            assert chash in text.splitlines()[0] or f'"config_hash": "{chash}"' in text

    def test_empty_report_writes_report_json_only(self, tmp_path):
        from proxyrank.pipeline import RunReport
        cfg = RunConfig.from_dict(TINY)
        empty = RunReport(config=cfg, config_hash=cfg.config_hash(), n=0, k=0,
                          true_levels=None, model_reports=[])
        manifest = emit_report(empty, tmp_path / "e")
        assert sorted(manifest) == ["report.json"]

    def test_unwritable_directory_names_path(self, tiny_report, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("directory permissions do not bind the root user")
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        try:
            with pytest.raises(StageError, match="locked"):
                emit_report(tiny_report, locked)
        finally:
            locked.chmod(stat.S_IRWXU)

    def test_balance_cells_are_plain_numbers(self, tiny_report, tmp_path):
        emit_report(tiny_report, tmp_path / "out")
        assert len(balance_numbers(tmp_path / "out" / "balance.csv")) == 2 * 8

    def test_report_numbers_trace_to_csvs(self, tiny_report, tmp_path):
        out = tmp_path / "out"
        emit_report(tiny_report, out)
        payload = json.loads((out / "report.json").read_text())
        ranking_lines = (out / "ranking.csv").read_text().splitlines()
        header = ranking_lines[1].split(",")
        li, ti = header.index("level"), header.index("true_level")
        for m in payload["models"]:
            rows = [l.split(",") for l in ranking_lines[2:]
                    if l.startswith(m["label"] + ",")]
            rmse = np.sqrt(np.mean([(float(r[li]) - float(r[ti])) ** 2 for r in rows]))
            assert rmse == pytest.approx(m["rank_rmse_vs_truth"], abs=1e-12)


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_simulate_roundtrip(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(TINY))
        assert self.run_cli("simulate", "--config", str(cfgp),
                            "--out", str(tmp_path / "sim")) == 0
        from proxyrank import load_dataset, load_schema
        d = load_dataset(tmp_path / "sim" / "observed.csv",
                         load_schema(tmp_path / "sim" / "observed_schema.json"))
        assert (d.n, d.k) == (600, 8)
        oracle = load_dataset(tmp_path / "sim" / "oracle.csv",
                              load_schema(tmp_path / "sim" / "oracle_schema.json"))
        assert oracle.ground_truth is not None

    def test_run_and_exit_codes(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(TINY))
        assert self.run_cli("run", "--config", str(cfgp),
                            "--out", str(tmp_path / "run")) == 0
        files = {p.name for p in (tmp_path / "run").iterdir()}
        assert files == {"report.json", "ranking.csv", "balance.csv",
                         "sensitivity.json", "overlap.csv", "cate_by_k.csv",
                         "summary.md", "manifest.json"}

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"models": []}))
        assert self.run_cli("run", "--config", str(bad),
                            "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("model", [m for m, _ in BAD_MODELS])
    def test_bad_model_spec_exit_code(self, model, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(TINY, models=[model])))
        assert self.run_cli("rank", "--config", str(cfgp),
                            "--out", str(tmp_path / "r")) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), "x", True, float("inf")],
                             ids=["nan", "str", "true", "inf"])
    @pytest.mark.parametrize("family,name",
                             [(f, name) for f in FAMILIES for name in ACCEPTED[f]])
    def test_every_hyperparam_rejects_nan_str_and_bool_at_load(self, family, name, value,
                                                               tmp_path, capsys):
        """Exit 1 at load, for every name of every family: never a fit that
        fails (exit 2) or runs on a value that configures nothing."""
        model = {"family": family, "label": "m", "hyperparams": {name: value}}
        with pytest.raises(ConfigError, match=r"^models\[0\]: "):
            RunConfig.from_dict({"models": [model]})
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(TINY, models=[model])))
        assert self.run_cli("rank", "--config", str(cfgp),
                            "--out", str(tmp_path / "r")) == 1
        assert capsys.readouterr().err.startswith("config error: models[0]: ")

    @pytest.mark.parametrize("fragment", [f for f, _ in BAD_CONFIGS])
    def test_bad_setting_exit_code(self, fragment, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(TINY, **fragment)))
        assert self.run_cli("rank", "--config", str(cfgp),
                            "--out", str(tmp_path / "r")) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path):
        assert self.run_cli("run", "--config", str(tmp_path / "nope.json"),
                            "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("content,problem", [("[1, 2]", "root must be a JSON object"),
                                                 ("{bad", "is not valid JSON"),
                                                 (b"\xff\xfe{}", "is not valid JSON")])
    @pytest.mark.parametrize("command,flag,what", [("run", "--config", "config"),
                                                   ("report", "--from", "report")])
    def test_bad_json_file_exit_code(self, command, flag, what, content, problem,
                                     tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_bytes(content.encode() if isinstance(content, str) else content)
        assert self.run_cli(command, flag, str(src), "--out", str(tmp_path / "x")) == 1
        assert f"config error: {what} {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [("run", "--config"), ("analyze", "--schema"),
                                              ("analyze", "--data"), ("report", "--from")])
    def test_unreadable_input_file_exit_code(self, cli_outputs, command, flag, tmp_path,
                                             capsys):
        """A directory where an input file belongs is a config error naming it."""
        inputs = {}
        if command == "analyze":
            inputs = {"--data": str(cli_outputs / "sim" / "observed.csv"),
                      "--schema": str(cli_outputs / "sim" / "observed_schema.json")}
        inputs[flag] = str(tmp_path)
        argv = [arg for pair in inputs.items() for arg in pair]
        assert self.run_cli(command, *argv, "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f" file {tmp_path}: " in err

    @pytest.mark.parametrize("command", ["simulate", "analyze", "balance", "rank",
                                         "sensitivity", "validate", "run", "report"])
    def test_out_naming_a_file_exit_code(self, command, tmp_path, capsys):
        """A file where the output directory belongs is a stage failure
        naming it, for every user, root included."""
        out = tmp_path / "out"
        out.write_text("")
        (tmp_path / "report.json").write_text("{}")
        inputs = ["--from", str(tmp_path / "report.json")] if command == "report" else []
        assert self.run_cli(command, *inputs, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"stage failure: StageError: output directory {out} "
                              f"is not writable: ")
        assert err.count("\n") == 1  # one line, no traceback
        assert out.read_text() == ""

    def test_stage_failure_exit_code(self, tmp_path):
        cfg_dict = dict(TINY)
        cfg_dict["models"] = [{"family": "poisson", "label": "bad"}]
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(cfg_dict))
        assert self.run_cli("run", "--config", str(cfgp),
                            "--out", str(tmp_path / "r")) == 2

    @pytest.mark.parametrize("schema,match", BAD_SCHEMAS)
    def test_bad_schema_map_exit_code(self, cli_outputs, schema, match, tmp_path, capsys):
        (tmp_path / "s.json").write_text(json.dumps(schema))
        assert self.run_cli("analyze", "--data", str(cli_outputs / "sim" / "observed.csv"),
                            "--schema", str(tmp_path / "s.json"),
                            "--out", str(tmp_path / "an")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and match in err

    @pytest.mark.parametrize("command", ["analyze", "balance", "rank", "sensitivity",
                                         "validate", "run"])
    def test_bad_schema_leaves_no_output_directory(self, cli_outputs, command, tmp_path,
                                                   capsys):
        """Every input is read and checked before --out is made."""
        (tmp_path / "s.json").write_text(json.dumps(
            {"treatment": "a", "outcome": "y", "covariate": ["x0"]}))
        out = tmp_path / "fresh" / "out"
        assert self.run_cli(command, "--config", str(cli_outputs / "cfg.json"),
                            "--data", str(cli_outputs / "sim" / "observed.csv"),
                            "--schema", str(tmp_path / "s.json"), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(
            "config error: unknown schema keys: 'covariate' ")
        assert not (tmp_path / "fresh").exists()

    def test_trimming_that_empties_an_arm_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = np.ones(200, dtype=np.int64)
        X = rng.standard_normal((200, 3))
        a[7], X[7] = 0, -5.0  # the one control unit gets the lowest score: trimmed
        save_dataset(Dataset(X, a, X[:, 0] + rng.standard_normal(200)), tmp_path / "d.csv")
        (tmp_path / "s.json").write_text(json.dumps({"treatment": "a", "outcome": "y"}))
        assert self.run_cli("analyze", "--data", str(tmp_path / "d.csv"),
                            "--schema", str(tmp_path / "s.json"),
                            "--out", str(tmp_path / "an")) == 2
        assert "stage failure: FitError: trimming would remove an entire treatment arm" in \
            capsys.readouterr().err

    def test_seed_override_changes_outputs(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(TINY))
        self.run_cli("simulate", "--config", str(cfgp), "--out", str(tmp_path / "s1"))
        self.run_cli("simulate", "--config", str(cfgp), "--seed", "777",
                     "--out", str(tmp_path / "s2"))
        a = (tmp_path / "s1" / "observed.csv").read_text()
        b = (tmp_path / "s2" / "observed.csv").read_text()
        assert a != b

    def test_balance_and_rank_on_external_data(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(TINY))
        self.run_cli("simulate", "--config", str(cfgp), "--out", str(tmp_path / "sim"))
        rc = self.run_cli("rank", "--config", str(cfgp),
                          "--data", str(tmp_path / "sim" / "observed.csv"),
                          "--schema", str(tmp_path / "sim" / "observed_schema.json"),
                          "--out", str(tmp_path / "rank"))
        assert rc == 0
        lines = (tmp_path / "rank" / "ranking.csv").read_text().splitlines()
        assert lines[1].startswith("model,index,ite,rank,level,top_10")
        assert self.run_cli("balance", "--config", str(cfgp),
                            "--data", str(tmp_path / "sim" / "observed.csv"),
                            "--schema", str(tmp_path / "sim" / "observed_schema.json"),
                            "--out", str(tmp_path / "bal")) == 0
        assert len(balance_numbers(tmp_path / "bal" / "balance.csv")) == 2 * 8

    def test_analyze_sensitivity_validate(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(TINY))
        assert self.run_cli("analyze", "--config", str(cfgp),
                            "--out", str(tmp_path / "an")) == 0
        assert (tmp_path / "an" / "ite.csv").exists()
        assert (tmp_path / "an" / "propensity.json").exists()
        assert self.run_cli("sensitivity", "--config", str(cfgp),
                            "--out", str(tmp_path / "se")) == 0
        assert (tmp_path / "se" / "overlap.csv").exists()
        assert self.run_cli("validate", "--config", str(cfgp),
                            "--out", str(tmp_path / "va")) == 0
        header = (tmp_path / "va" / "cate_by_k.csv").read_text().splitlines()[1]
        assert header == "model,k,group,n,first_stage,cate,se,separated"

    def test_echoed_config_reproduces_run(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(TINY))
        assert self.run_cli("run", "--config", str(cfgp), "--seed", "5",
                            "--out", str(tmp_path / "first")) == 0
        echo = json.loads((tmp_path / "first" / "report.json").read_text())["config"]
        (tmp_path / "echo.json").write_text(json.dumps(echo))
        assert self.run_cli("run", "--config", str(tmp_path / "echo.json"),
                            "--out", str(tmp_path / "again")) == 0
        assert hash_dir(tmp_path / "again") == hash_dir(tmp_path / "first")

    def test_report_regeneration(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(TINY))
        self.run_cli("run", "--config", str(cfgp), "--out", str(tmp_path / "run"))
        before = (tmp_path / "run" / "summary.md").read_text()
        assert self.run_cli("report", "--from", str(tmp_path / "run" / "report.json"),
                            "--out", str(tmp_path / "run")) == 0
        after = (tmp_path / "run" / "summary.md").read_text()
        assert before == after

    @pytest.mark.parametrize("edit,problem", [
        (lambda p: p.update(models=[1]), "report models[0] must be an object"),
        (lambda p: p.update(models={"iptw_linear": {}}), "report models must be a list"),
        (lambda p: p["models"][1]["placebo"].update(ate_estimate="0.1"),
         "report models[1].placebo.ate_estimate must be a number, not '0.1'"),
        (lambda p: p["models"][0].update(placebo=[0.1]),
         "report models[0].placebo must be an object"),
        (lambda p: p["models"][0].update(iv_separated_fraction="all"),
         "report models[0].iv_separated_fraction must be a number"),
        # a JSON boolean is not a number, though Python's bool is an int
        (lambda p: p["models"][0].update(rank_rmse_vs_truth=True),
         "report models[0].rank_rmse_vs_truth must be a number, not True"),
        (lambda p: p["models"][1]["placebo"].update(ate_estimate=False),
         "report models[1].placebo.ate_estimate must be a number, not False"),
        (lambda p: p["models"][0].update(iv_separated_fraction=True),
         "report models[0].iv_separated_fraction must be a number, not True"),
    ])
    def test_malformed_report_exit_code(self, cli_outputs, tmp_path, capsys, edit, problem):
        payload = json.loads((cli_outputs / "run" / "report.json").read_text())
        edit(payload)
        src = tmp_path / "report.json"
        src.write_text(json.dumps(payload))
        assert self.run_cli("report", "--from", str(src), "--out", str(tmp_path / "out")) == 1
        assert f"config error: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.md").exists()

    def test_report_refuses_files_of_another_run(self, cli_outputs, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(TINY))
        other = tmp_path / "other"
        assert self.run_cli("run", "--config", str(cfgp), "--seed", "5",
                            "--out", str(other)) == 0
        before = hash_dir(other)
        src = cli_outputs / "run" / "report.json"
        assert self.run_cli("report", "--from", str(src), "--out", str(other)) == 1
        err = capsys.readouterr().err
        assert f"config error: report file {other / 'report.json'} carries config hash" in err
        assert hash_dir(other) == before
        # One stale CSV is enough; a directory holding none of the files is fine.
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        (mixed / "overlap.csv").write_bytes((other / "overlap.csv").read_bytes())
        assert self.run_cli("report", "--from", str(src), "--out", str(mixed)) == 1
        assert f"report file {mixed / 'overlap.csv'}" in capsys.readouterr().err
        (mixed / "overlap.csv").unlink()
        assert self.run_cli("report", "--from", str(src), "--out", str(mixed)) == 0
        assert json.loads((mixed / "manifest.json").read_text()).keys() == {"summary.md"}

    def test_negative_compliance_with_its_own_table(self, tmp_path):
        # the campaign draws A from the configured table, as the cohort does
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"sim": {"n": 2000, "k": 6, "mode": "negative_compliance",
                                            "compliance_table": [0.35, 0.65]},
                                    "sensitivity_runs": 1, "placebo_bootstrap": 5}))
        for command in ("run", "validate"):
            out = tmp_path / command
            assert self.run_cli(command, "--config", str(cfgp), "--out", str(out)) == 0
            lines = (out / "cate_by_k.csv").read_text().splitlines()[2:]
            assert lines and all(float(line.split(",")[4]) < 0 for line in lines)

    def test_no_threshold_measured(self, tmp_path):
        # at n=300 every high group has fewer than 50 units in an arm
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"sim": {"n": 300, "k": 6}}))
        assert self.run_cli("run", "--config", str(cfgp), "--out", str(tmp_path / "run")) == 0
        models = json.loads((tmp_path / "run" / "report.json").read_text())["models"]
        assert [set(m["iv_separation"].values()) for m in models] == [{None}] * len(models)
        assert [m["iv_separated_fraction"] for m in models] == [None] * len(models)
        summary = (tmp_path / "run" / "summary.md").read_text()
        assert summary.count("- campaign separation: no threshold measured\n") == len(models)
        assert "% of thresholds" not in summary
        assert self.run_cli("report", "--from", str(tmp_path / "run" / "report.json"),
                            "--out", str(tmp_path / "again")) == 0
        assert (tmp_path / "again" / "summary.md").read_text() == summary


@pytest.mark.parametrize("command,run_dir,name", [
    ("rank_data", "run_data", "ranking.csv"),
    ("balance", "run", "balance.csv"),
    ("analyze", "run", "balance.csv"),
    ("validate", "run", "cate_by_k.csv"),
    ("sensitivity", "run", "sensitivity.json"),
    ("sensitivity", "run", "overlap.csv"),
])
def test_subcommand_file_equals_run(cli_outputs, command, run_dir, name):
    assert (cli_outputs / command / name).read_bytes() == \
        (cli_outputs / run_dir / name).read_bytes()


class TestCampaignFailure:
    """The campaign stage raising: every model branch records it, nothing
    is validated, and both commands that draw a campaign exit 2."""

    @pytest.fixture
    def broken_campaign_cfg(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("injected campaign failure")

        monkeypatch.setattr(pipeline, "simulate_campaign", fail)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(TINY))
        return cfgp

    def test_run_records_failure_on_every_model(self, broken_campaign_cfg, tmp_path):
        report = run_pipeline(RunConfig.from_json(broken_campaign_cfg))
        assert [m.error for m in report.model_reports] == \
            ["campaign stage failed: injected campaign failure"] * 2
        manifest = emit_report(report, tmp_path / "out")
        assert "cate_by_k.csv" not in manifest
        assert not (tmp_path / "out" / "cate_by_k.csv").exists()
        assert main(["run", "--config", str(broken_campaign_cfg),
                     "--out", str(tmp_path / "cli")]) == 2

    def test_validate_exits_2(self, broken_campaign_cfg, tmp_path, capsys):
        assert main(["validate", "--config", str(broken_campaign_cfg),
                     "--out", str(tmp_path / "va")]) == 2
        assert "stage failure: RuntimeError: injected campaign failure" in \
            capsys.readouterr().err


def run_and_validate(tmp_path, name: str) -> dict:
    """Exit code, stdout, stderr (the output directory written as OUT) and
    output files of `run` and `validate` on TINY, in ``tmp_path / name``."""
    (tmp_path / "cfg.json").write_text(json.dumps(TINY))
    results = {}
    for command in ("run", "validate"):
        out = tmp_path / name / command
        with contextlib.redirect_stdout(io.StringIO()) as stdout, \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            rc = main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        results[command] = (rc, stdout.getvalue().replace(str(out), "OUT"),
                            stderr.getvalue().replace(str(out), "OUT"), files)
    return results


@pytest.mark.parametrize("failing", ["iptw_linear", "iptw_svr"])
def test_one_model_failing_validation_on_the_pool(failing, tmp_path, monkeypatch):
    """A model whose IV check raises records it and the other keeps its
    check, with the same report, stdout and stderr on 1 and 2 workers."""
    validate = pipeline.validate_model

    def fail_one(mr, campaign, k_grid):
        if mr.label == failing:
            raise ValueError(f"injected validation failure of {mr.label}")
        return validate(mr, campaign, k_grid)
    monkeypatch.setattr(pipeline, "validate_model", fail_one)
    by_workers = {}
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "_max_workers", lambda: workers)
        by_workers[workers] = run_and_validate(tmp_path, f"w{workers}")
    assert by_workers[1] == by_workers[2]
    results = by_workers[1]
    rc, _, err, files = results["run"]
    assert rc == 2 and err == f"model branches failed: {failing}\n"
    models = {m["label"]: m for m in json.loads(files["report.json"])["models"]}
    other, = set(models) - {failing}
    assert models[failing]["error"] == f"ValueError: injected validation failure of {failing}"
    assert "iv_separation" not in models[failing]
    assert models[other]["error"] is None and "iv_separation" in models[other]
    assert {line.split(",")[0] for line in files["cate_by_k.csv"].decode().splitlines()[2:]} \
        == {other}
    rc, out, err, files = results["validate"]
    assert (rc, out, files) == (2, "", {})
    assert err == f"stage failure: ValueError: injected validation failure of {failing}\n"


def test_parent_draws_no_campaign_on_two_workers(cli_outputs, tmp_path, monkeypatch):
    """The campaign is drawn and scored only on the workers."""
    parent, draw = os.getpid(), pipeline.simulate_campaign

    def on_a_worker_only(*args, **kwargs):
        if os.getpid() == parent:
            raise RuntimeError("the parent drew the campaign")
        return draw(*args, **kwargs)
    monkeypatch.setattr(pipeline, "simulate_campaign", on_a_worker_only)
    monkeypatch.setattr(parallel, "_max_workers", lambda: 2)
    results = run_and_validate(tmp_path, "out")
    for command in ("run", "validate"):
        rc, _, err, files = results[command]
        assert (rc, err) == (0, "")
        assert files["cate_by_k.csv"] == (cli_outputs / "run" / "cate_by_k.csv").read_bytes()
