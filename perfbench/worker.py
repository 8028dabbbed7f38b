"""One benchmark process: start up (import and a warm-up op on a small
cohort), optionally generate the inputs, and optionally run timed ops
through ``proxyrank.cli.main`` one at a time.

Usage: python3 worker.py SPEC.json RESULT.json T0 [--gen] [--ops]

``T0`` is the parent's ``time.monotonic()`` just before it spawned this
process (CLOCK_MONOTONIC is system-wide, so start-up includes interpreter
launch). The result JSON holds the start-up time, the input-generation time,
each op's wall time and exit code, the peak RSS and, when tracing, the spans.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _timed_ops(cli, spec: dict, window: float, first: int, tracer=None) -> list[dict]:
    """Closed loop: start the next op while the window has time left."""
    ops = []
    start = time.monotonic()
    while not ops or time.monotonic() - start < window:
        if tracer:
            tracer.op = len(ops)
        out = Path(spec["out_base"]) / f"op{first + len(ops)}"
        t = time.perf_counter()
        rc = cli.main(spec["op"] + ["--out", str(out)])
        ops.append({"out": str(out), "rc": rc, "s": time.perf_counter() - t})
    return ops


def main(argv: list[str]) -> int:
    spec_path, result_path, t0 = argv[0], argv[1], float(argv[2])
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import proxyrank.cli as cli
    from tracer import Tracer

    tracer = Tracer() if spec["trace"] else None
    result: dict = {"gen_s": 0.0, "ops": []}
    sync_s = 0.0
    if "--gen" in argv:
        if tracer:
            tracer.install()
        t = time.perf_counter()
        for gen_argv in spec["gen"]:
            if cli.main(gen_argv) != 0:
                raise SystemExit(f"input generation failed: {gen_argv}")
        result["gen_s"] = time.perf_counter() - t
        if tracer:
            tracer.uninstall()
        # Write the generated files back now, untimed, rather than while
        # the timed ops run.
        t = time.perf_counter()
        os.sync()
        sync_s = time.perf_counter() - t
    if cli.main(spec["warmup"]) != 0:
        raise SystemExit(f"warm-up failed: {spec['warmup']}")
    result["startup_s"] = time.monotonic() - t0 - result["gen_s"] - sync_s

    if "--ops" in argv:
        window = spec["seconds"] / 2 if tracer else spec["seconds"]
        ops = _timed_ops(cli, spec, window, 0)
        if tracer:
            tracer.install()
            for op in _timed_ops(cli, spec, window, len(ops), tracer):
                op["traced"] = True
                ops.append(op)
            tracer.uninstall()
        result["ops"] = ops
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
