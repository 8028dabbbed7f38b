"""ite.csv and ranking.csv streamed: each model's rows are formatted in its
own row ranges once it has arrived, while later models are still being
fitted; a streamed file has the bytes of writing every model at once, and a
model that fails leaves neither the file nor a temporary one, nor a worker."""
import json
import multiprocessing
import os
from contextlib import closing

import pytest

import proxyrank.data as data
import proxyrank.parallel as parallel
import proxyrank.sensitivity as sensitivity
from proxyrank import ModelError
from proxyrank.cli import main
from proxyrank.pipeline import write_model_rows

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the ranges run on forked workers")

# Two models on 400 units: with ranges of 64 rows, each model's 400 rows of
# ite.csv and ranking.csv are formatted in six, the last of rows 320-399.
CONFIG = {"sim": {"n": 400, "k": 8},
          "models": [{"family": "linear_wls", "label": "lin"},
                     {"family": "svr_linear", "label": "svr", "hyperparams": {"epochs": 3}}]}
FILES = {"analyze": "ite.csv", "rank": "ranking.csv"}


def model_rows(label: str, a: int, b: int) -> str:
    return "".join(f"{label},{i},{i * 0.1!r}\n" for i in range(a, b))


@pytest.mark.parametrize("block", [8, 16, 64])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_streamed_file_has_the_bytes_of_all_models_at_once(block, workers, ranges, tmp_path):
    ranges(workers, block)
    labels, n = ["m0", "m1", "m2"], 50  # no block size divides n
    want = "# config_hash=abc\nmodel,index,value\n" + "".join(
        model_rows(label, 0, n) for label in labels)
    for name, models in [("whole.csv", list(labels)), ("streamed.csv", iter(labels))]:
        got = write_model_rows(tmp_path / name, "abc", ["model", "index", "value"], n,
                               models, model_rows)
        assert got == labels
        assert (tmp_path / name).read_text() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["streamed.csv", "whole.csv"]


def spy_on_reads(monkeypatch, module, log: list) -> None:
    """Log the name of each task of ``module``'s ``iter_tasks`` as the
    parent reads its result."""
    real = module.iter_tasks

    def iter_tasks(names, run):
        with closing(real(names, run)) as values:
            for name, value in zip(names, values):
                log.append(name)
                yield value
    monkeypatch.setattr(module, "iter_tasks", iter_tasks)


@pytest.mark.parametrize("command", ["analyze", "rank"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_model_formatted_before_second_model_is_read(command, workers, ranges,
                                                           monkeypatch, tmp_path):
    ranges(workers, 64)
    log = []
    spy_on_reads(monkeypatch, sensitivity, log)  # the baselines
    spy_on_reads(monkeypatch, data, log)  # the row ranges
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    assert main([command, "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "out")]) == 0
    name = FILES[command]
    first, rest = ([f"rows {lo}-{lo + 63} of model {j} in {name}" for lo in range(0, 320, 64)]
                   + [f"rows 320-399 of model {j} in {name}"] for j in (0, 1))
    if command == "analyze":  # the balance task, read once the models are written
        rest.append("the covariate balance of the observed cohort")
    assert log == ["the baseline of model 'lin'", *first, "the baseline of model 'svr'", *rest]


@pytest.mark.parametrize("command", ["analyze", "rank"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_second_model_failing_leaves_no_file(command, workers, ranges, monkeypatch, tmp_path,
                                             capsys):
    ranges(workers, 64)
    real = sensitivity.analyze_model

    def analyze(prepared, spec, cfg):
        if spec.label == "svr":
            raise ModelError("injected failure")
        return real(prepared, spec, cfg)
    monkeypatch.setattr(sensitivity, "analyze_model", analyze)
    log = []
    spy_on_reads(monkeypatch, data, log)
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    rc = main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "stage failure: ModelError: injected failure\n"
    assert len(log) == 6  # the first model's rows went to the temporary file
    assert list((tmp_path / "out").iterdir()) == []
    assert multiprocessing.active_children() == []
