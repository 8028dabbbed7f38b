"""Workload definitions and the checks applied to every op's output.

Each workload is one ``proxyrank`` CLI command on inputs made from the
workload seed. The seed becomes the program's ``--seed``; the program sees
only the generated config JSON, the CSV (``ingest_50k``) and that seed.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

DEFAULT_N = 10_000  # SimConfig's default cohort size
WARMUP_N = 300

TREE_MODELS = [
    {"family": "tree", "label": "tree"},
    {"family": "forest", "hyperparams": {"n_trees": 10}, "label": "forest"},
    {"family": "boosted_trees", "hyperparams": {"n_rounds": 20}, "label": "boosted_trees"},
]
RUN_FILES = {"report.json", "ranking.csv", "balance.csv", "sensitivity.json",
             "overlap.csv", "cate_by_k.csv", "summary.md"}


@dataclass(frozen=True)
class Workload:
    command: str                # run | rank | analyze
    n: int                      # cohort size of a timed op
    branches: tuple[str, ...]   # model branch labels the op must report
    extra: dict = field(default_factory=dict)

    def config(self, n: int) -> dict:
        """The run config for a cohort of ``n`` units; ``{}`` at the default."""
        return {**self.extra, **({} if n == DEFAULT_N else {"sim": {"n": n}})}


WORKLOADS = {
    "reference_run": Workload("run", DEFAULT_N, ("iptw_linear", "iptw_svr")),
    "tree_rank": Workload("rank", DEFAULT_N, tuple(m["label"] for m in TREE_MODELS),
                          {"models": TREE_MODELS}),
    "ingest_50k": Workload("analyze", 50_000, ("iptw_linear", "iptw_svr")),
}


def plan(w: Workload, seed: int, work: Path, n: int) -> dict:
    """Write the inputs' config files and return the worker spec (argv lists
    for input generation, warm-up and the timed op)."""
    s = str(seed)
    cfg, warm_cfg = work / "config.json", work / "warmup_config.json"
    cfg.write_text(json.dumps(w.config(n)), encoding="utf-8")
    warm_cfg.write_text(json.dumps(w.config(WARMUP_N)), encoding="utf-8")
    warm = ["--config", str(warm_cfg), "--seed", s, "--out", str(work / "warmup_out")]
    if w.command != "analyze":
        return {"gen": [], "warmup": [w.command] + warm,
                "op": [w.command, "--config", str(cfg), "--seed", s]}
    # The small warm-up cohort is simulated in-process; only the timed op
    # reads a CSV, the one written by the input generation.
    data = work / "data"
    return {"gen": [["simulate", "--config", str(cfg), "--seed", s, "--out", str(data)]],
            "warmup": ["analyze"] + warm,
            "op": ["analyze", "--data", str(data / "observed.csv"),
                   "--schema", str(data / "observed_schema.json"), "--seed", s]}


def true_levels(w: Workload, seed: int, n: int) -> np.ndarray:
    """The simulator's ground-truth effect level of every unit of the cohort."""
    from proxyrank.pipeline import RunConfig
    from proxyrank.simulate import ground_truth_rank, simulate_cohort

    cfg = replace(RunConfig.from_dict(w.config(n)), master_seed=seed)
    return ground_truth_rank(simulate_cohort(cfg.resolved_sim()))


def bucket_levels(ite: np.ndarray, n_levels: int) -> np.ndarray:
    """Equal-size effect buckets (1 = smallest effects), ties broken by index;
    the lower levels absorb the remainder, as ranking.rank_and_bucket does."""
    n = len(ite)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), -ite))] = np.arange(1, n + 1)
    base, rem = divmod(n, n_levels)
    sizes = np.full(n_levels, base)
    sizes[:rem] += 1
    return np.searchsorted(np.cumsum(sizes), n - rank, side="right") + 1


def _csv_columns(path: Path, names: tuple[str, ...]) -> dict[str, dict[str, np.ndarray]]:
    """Per model label, the named columns of a ``model,index,...`` CSV."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    cols = [header.index(c) for c in names]
    by_model: dict[str, list[list[str]]] = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        by_model.setdefault(cells[0], []).append([cells[j] for j in cols])
    return {m: {c: np.array([r[i] for r in rows], dtype=float) for i, c in enumerate(names)}
            for m, rows in by_model.items()}


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


class CheckFailed(Exception):
    pass


def _branch_levels(w: Workload, out: Path, rc: int, truth: np.ndarray) -> dict:
    """Predicted effect level of every unit, per model branch, after checking
    the exit code and the op's files."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    if w.command == "run":
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        if set(manifest) != RUN_FILES:
            raise CheckFailed(f"manifest lists {sorted(manifest)}")
        for name, digest in manifest.items():
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
                raise CheckFailed(f"{name} does not match its manifest hash")
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        errors = [m["error"] for m in report["models"] if m["error"]]
        if errors:
            raise CheckFailed(f"model-branch errors: {errors}")
    if w.command == "analyze":
        for name in ("balance.csv", "propensity.json"):
            if not (out / name).is_file():
                raise CheckFailed(f"{name} missing")
        cols = _csv_columns(out / "ite.csv", ("index", "ite"))
        for c in cols.values():
            c["level"] = bucket_levels(c["ite"], len(np.unique(truth)))
    else:
        cols = _csv_columns(out / "ranking.csv", ("index", "level"))
    if tuple(cols) != w.branches:
        raise CheckFailed(f"model branches {tuple(cols)}, expected {w.branches}")
    for label, c in cols.items():
        if not np.array_equal(c["index"], np.arange(len(truth))):
            raise CheckFailed(f"{label}: rows do not cover units 0..{len(truth) - 1} in order")
    return {label: c["level"] for label, c in cols.items()}


def check_op(w: Workload, out: Path, rc: int, truth: np.ndarray) -> dict:
    """Check one op; return ok, the failure reason, the digest of its output
    files, and the mean over branches of rank RMSE and level match."""
    try:
        levels = _branch_levels(w, out, rc, truth)
    except CheckFailed as exc:
        return {"ok": False, "reason": str(exc)}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"ok": False, "reason": f"unreadable output: {exc!r}"}
    return {"ok": True, "reason": None, "digest": _digest(out),
            "rank_rmse": float(np.mean([np.sqrt(np.mean((p - truth) ** 2))
                                        for p in levels.values()])),
            "level_match": float(np.mean([np.mean(p == truth) for p in levels.values()]))}
