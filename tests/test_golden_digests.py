"""Output bytes pinned across commits: the SHA-256 of every output file, of
stdout and stderr, and the exit code of a fixed set of CLI runs, recorded in
``tests/golden_digests.json``.

The bytes depend on the numpy version, the machine and the BLAS thread
count, not on the worker count, so the digests are keyed by those three.
On a recorded fingerprint any difference fails and names the run and the
file; on another one the test is skipped, and the reason names the
fingerprint.

A change that moves bytes on purpose re-records the digests in the same
commit and says which files moved and why:

    PYTHONPATH=src python tests/test_golden_digests.py

which replaces the entry of this host's fingerprint. Never re-record to make
a failure pass.
"""
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import proxyrank  # before numpy: pins the BLAS thread count

import numpy as np
import pytest

from proxyrank.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.json")

SMALL = {"sim": {"n": 400}}
TREES = {"sim": {"n": 2000}, "models": [
    {"family": "tree", "label": "tree"},
    {"family": "forest", "hyperparams": {"n_trees": 10}, "label": "forest"},
    {"family": "boosted_trees", "hyperparams": {"n_rounds": 20}, "label": "boosted_trees"}]}
# The simulated outcome takes negative values, so the poisson branch fails.
FAILS = {"sim": {"n": 400, "k": 8}, "sensitivity_runs": 1, "placebo_bootstrap": 20,
         "sensitivity_configs": [{"alpha": 1000.0, "epsilon": 1000000.0}],
         "models": [{"family": "linear_wls", "label": "lin"},
                    {"family": "poisson", "label": "poisson"}]}
# (name, config or None, argv before --out); a name that the next runs read
# from is given as {name} and resolved to its output directory.
RUNS = [
    ("run_seed_1", None, ["run", "--seed", "1"]),
    ("rank_trees_n2000", TREES, ["rank", "--seed", "1"]),
    ("simulate_n400", SMALL, ["simulate", "--seed", "1"]),
    ("analyze_data_n400", SMALL, ["analyze", "--data", "{simulate_n400}/observed.csv",
                                  "--schema", "{simulate_n400}/observed_schema.json"]),
    ("run_data_n400", SMALL, ["run", "--data", "{simulate_n400}/observed.csv",
                              "--schema", "{simulate_n400}/observed_schema.json"]),
    ("run_branch_fails", FAILS, ["run", "--seed", "1"]),
]


def fingerprint() -> str:
    """What the output bytes depend on besides the code."""
    return (f"numpy {np.__version__}, {platform.machine()}, "
            f"BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS')}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(work: Path) -> dict:
    """Every run of ``RUNS`` in ``work``: its exit code and the SHA-256 of its
    stdout, stderr (with ``work`` written as WORK) and output files."""
    dirs = {name: str(work / name) for name, _, _ in RUNS}
    outs = {}
    for name, config, argv in RUNS:
        out = work / name
        args = [a.format(**dirs) for a in argv]
        if config is not None:
            (work / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
            args += ["--config", str(work / f"{name}.json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = main(args + ["--out", str(out)])
        outs[name] = {
            "exit": rc,
            "stdout": _sha(stdout.getvalue().replace(str(work), "WORK").encode()),
            "stderr": _sha(stderr.getvalue().replace(str(work), "WORK").encode()),
            "files": {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}}
    return outs


def test_output_bytes_match_the_recorded_digests(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    key = fingerprint()
    if key not in recorded:
        pytest.skip(f"no digests recorded for {key}")
    expected, found = recorded[key], digests(tmp_path)
    moved = []
    for run, want in expected.items():
        got = found[run]
        for field in ("exit", "stdout", "stderr"):
            if got[field] != want[field]:
                moved.append(f"{run}: {field}")
        for name in sorted(set(want["files"]) | set(got["files"])):
            if want["files"].get(name) != got["files"].get(name):
                moved.append(f"{run}: {name}")
    assert not moved, "output bytes differ from the recorded digests: " + ", ".join(moved)


def test_an_unrecorded_fingerprint_is_skipped_and_named(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")  # read, not applied: numpy is loaded
    with pytest.raises(pytest.skip.Exception, match=r"numpy \S+, \S+, BLAS threads 7$"):
        test_output_bytes_match_the_recorded_digests(tmp_path)


if __name__ == "__main__":  # re-record this host's entry
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        recorded[fingerprint()] = digests(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {fingerprint()} in {GOLDEN}", file=sys.stderr)
