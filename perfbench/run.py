"""proxyrank benchmark: time one CLI workload and check every op's output.

Run from the repository root:

    python3 perfbench/run.py --workload reference_run --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
holds informational fields (environment, per-op times, output digest,
whether the outputs match the seed commit). Both are also written to
``.perfbench_out/``. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, check_op, plan, true_levels

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUPS = 5          # worker start-ups per run; setup_s uses their median
DEADLINE_S = 170.0  # a run must end within 180 s
# One BLAS thread: on a 2-vCPU host a second thread made no op faster (the
# CLI's BLAS calls are small) but made op times spread ~40% more across ops.
BLAS_THREADS = 1

E2E_UNITS = {"op_p50_s": "s", "units_per_s": "units/s", "setup_s": "s",
             "peak_rss_mb": "MB", "ok_frac": "ratio", "rank_level_match": "ratio"}


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(work: Path, index: int, roles: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    result = work / f"worker{index}.json"
    log = work / f"worker{index}.log"
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(work / "spec.json"), str(result), repr(t0),
             *roles], stdout=fh, stderr=subprocess.STDOUT, env=_worker_env(), cwd=work)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {index} did not finish before the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
        raise BenchError(f"worker {index} exited {rc}: " + " | ".join(tail))
    return json.loads(result.read_text(encoding="utf-8"))


def _environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 n: int | None = None) -> tuple[dict, dict]:
    """Set up, run and check one workload; return (result line, info).

    ``n`` overrides the cohort size of the timed op (the self-check uses a
    tiny one); the command line always runs the workload's own n.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # true_levels uses the package's simulator
    deadline = time.monotonic() + DEADLINE_S
    w = WORKLOADS[name]
    n = n or w.n
    spec = plan(w, seed, work, n)
    spec.update(src=str(SRC), out_base=str(work / "ops"), seconds=seconds, trace=trace)
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    truth = true_levels(w, seed, n)

    # Worker 0 generates the inputs; the last worker runs the timed ops.
    workers = [_spawn(work, i, ["--gen"] * (i == 0) + ["--ops"] * (i == SETUPS - 1),
                      deadline) for i in range(SETUPS)]
    startups = [r["startup_s"] for r in workers]
    gen_s = workers[0]["gen_s"]
    final = workers[-1]
    ops = final["ops"]
    checks = [check_op(w, Path(op["out"]), op["rc"], truth) for op in ops]
    failed = sum(not c["ok"] for c in checks)
    digests = {c["digest"] for c in checks if c["ok"]}
    plain = [op["s"] for op in ops if not op.get("traced")]
    traced = [op["s"] for op in ops if op.get("traced")]
    good = [c for c in checks if c["ok"]]

    if trace:
        metrics = tracer.summarize(workers[0].get("spans", []), final["spans"],
                                   [Path(op["out"]) for op in ops if op.get("traced")],
                                   plain, traced)
        units = dict(tracer.metric_names())
    else:
        metrics = {
            "op_p50_s": statistics.median(plain),
            "units_per_s": n * len(w.branches) * len(plain) / sum(plain),
            "setup_s": gen_s + statistics.median(startups),
            "peak_rss_mb": final["peak_rss_mb"],
            "ok_frac": (len(ops) - failed) / len(ops),
            "rank_level_match": good[0]["level_match"] if good else 0.0,
        }
        units = E2E_UNITS
    result = {"correct": failed == 0 and len(digests) == 1, "attempted": len(ops),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    digest = digests.pop() if len(digests) == 1 else None
    baseline = json.loads((HERE / "seed_digests.json").read_text(encoding="utf-8"))
    known = baseline.get(name, {}).get(str(seed)) if n == w.n else None
    info = {"workload": name, "n": n, "trace": trace,
            "env": _environment(seed),
            "op_s": [op["s"] for op in ops], "traced": [bool(op.get("traced")) for op in ops],
            "setup_parts_s": {"gen": gen_s, "startups": startups},
            "failures": [c["reason"] for c in checks if not c["ok"]],
            "rank_rmse": good[0]["rank_rmse"] if good else None,
            "output_digest": digest,
            "matches_seed_commit": None if known is None or digest is None else digest == known}
    if trace:
        info["spans"] = {"setup": workers[0].get("spans", []), "ops": final["spans"]}
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "proxyrank" / "cli.py").is_file():
        print(f"perfbench: no proxyrank sources at {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, info = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"result": result, "info": info}, indent=1), encoding="utf-8")
    info.pop("spans", None)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
