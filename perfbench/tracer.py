"""Span tracing of proxyrank layers, installed from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the wrapper
at every module attribute of the ``proxyrank`` package that holds the
original, so calls made through any import site (``cli`` and ``pipeline``
both import ``prepare_cohort`` from ``analysis``, ``sensitivity`` imports
``run_analysis``) are recorded. ``RegressionTree.fit``/``.predict`` are
patched on the class. Spans are kept in memory; the worker writes them out
when it ends and ``summarize`` turns them into per-layer metrics.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import os
import statistics
import sys
import time
from pathlib import Path


def _dataset_key(d) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (d.covariates, d.treatment, d.outcome):
        h.update(memoryview(arr).cast("B"))
    h.update(repr(d.covariate_names).encode())
    return h.hexdigest()


def balance_key(rows) -> str:
    """Digest of (covariate, smd_before, smd_after) triples.

    Shared by the balance_report hook and the balance.csv reader, so a report
    counts as used exactly when its numbers reached the file.
    """
    triples = [(str(c), float(b), float(a)) for c, b, a in rows]
    return hashlib.sha1(repr(triples).encode()).hexdigest()


def _count_nodes(node) -> int:
    if node is None:
        return 0
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)


# Hooks run after the wrapped call returns, outside its span, and fill the
# span's attributes from the bound arguments and the result.
def _after_file(attrs, args, result):
    attrs["bytes"] = os.path.getsize(args["path"])


def _after_prepare(attrs, args, result):
    attrs["key"] = _dataset_key(args["d"])


def _after_fit(attrs, args, result):
    attrs["iters"] = int(result.n_iter)


def _after_balance(attrs, args, result):
    attrs["key"] = balance_key((r.covariate, r.smd_before, r.smd_after)
                               for r in result.rows)


def _after_tree_fit(attrs, args, result):
    attrs["nodes"] = _count_nodes(result.root)


def _after_confounder(attrs, args, result):
    attrs["key"] = _dataset_key(args["d"]) + repr(args["cfg"])


def _after_iv(attrs, args, result):
    attrs["records"] = len(result.records)
    attrs["skipped"] = sum(rec.estimate is None for rec in result.records)


def _fit_outcome_name(args) -> str:
    return f"outcomes.fit.{args['family']}"


# (module, attribute, span name or callable of the bound arguments, hook)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("pipeline", "emit_report", "pipeline.emit_report", None),
    ("pipeline", "write_csv", "pipeline.write_csv", _after_file),
    ("analysis", "prepare_cohort", "analysis.prepare_cohort", _after_prepare),
    ("analysis", "analyze_model", "analysis.analyze_model", None),
    ("analysis", "run_analysis", "analysis.run_analysis", None),
    ("propensity", "fit_propensity", "propensity.fit_propensity", _after_fit),
    ("propensity", "trim_extremes", "propensity.trim_extremes", None),
    ("propensity", "balance_report", "propensity.balance_report", _after_balance),
    ("outcomes", "fit_outcome_model", _fit_outcome_name, _after_fit),
    ("outcomes", "compute_ite", "outcomes.compute_ite", None),
    ("trees", "RegressionTree.fit", "trees.RegressionTree.fit", _after_tree_fit),
    ("trees", "RegressionTree.predict", "trees.RegressionTree.predict", None),
    ("ranking", "rank_and_bucket", "ranking.rank_and_bucket", None),
    ("sensitivity", "placebo_test", "sensitivity.placebo_test", None),
    ("sensitivity", "confounding_overlap", "sensitivity.confounding_overlap", None),
    ("sensitivity", "generate_confounder", "sensitivity.generate_confounder",
     _after_confounder),
    ("validation", "simulate_campaign", "validation.simulate_campaign", None),
    ("validation", "validate_ranking_splits", "validation.validate_ranking_splits",
     _after_iv),
    ("data", "load_dataset", "data.load_dataset", _after_file),
    ("data", "save_dataset", "data.save_dataset", _after_file),
    ("simulate", "simulate_cohort", "simulate.simulate_cohort", None),
)

# Spans reported per timed op, in report order.
OP_SPANS = (
    "cli.main", "pipeline.run_pipeline", "pipeline.emit_report", "pipeline.write_csv",
    "analysis.prepare_cohort", "analysis.analyze_model", "analysis.run_analysis",
    "propensity.fit_propensity", "propensity.trim_extremes", "propensity.balance_report",
    "outcomes.fit.linear_wls", "outcomes.fit.svr_linear", "outcomes.fit.tree",
    "outcomes.fit.forest", "outcomes.fit.boosted_trees", "outcomes.compute_ite",
    "trees.RegressionTree.fit", "trees.RegressionTree.predict", "ranking.rank_and_bucket",
    "sensitivity.placebo_test", "sensitivity.confounding_overlap",
    "sensitivity.generate_confounder", "validation.simulate_campaign",
    "validation.validate_ranking_splits", "data.load_dataset", "simulate.simulate_cohort",
)
# Spans of the traced input generation. Only ingest_50k generates its
# inputs with the program, and there it is the only place a dataset is written.
SETUP_SPANS = ("cli.main", "simulate.simulate_cohort", "data.save_dataset")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _balance_used(t: dict, out_dir: Path) -> float:
    written = _read_balance_csv(out_dir / "balance.csv")
    return _ratio(t["keys"].count(written), t["calls"])


def _attr_sum(key: str, scale: float = 1.0):
    return lambda t, out: t["attrs"].get(key, 0) * scale


def _distinct(t: dict, out_dir: Path) -> float:
    return _ratio(len(set(t["keys"])), t["calls"])


# Extra metric per span: (metric name, unit, value from the span totals and
# the op's output directory).
EXTRAS = {
    "pipeline.write_csv": ("pipeline.write_csv.mb", "MB", _attr_sum("bytes", 1e-6)),
    "analysis.prepare_cohort": ("analysis.prepare_cohort.distinct_ratio", "ratio", _distinct),
    "propensity.fit_propensity": ("propensity.fit_propensity.iters", "count",
                                  _attr_sum("iters")),
    "propensity.balance_report": ("propensity.balance_report.used_ratio", "ratio",
                                  _balance_used),
    "trees.RegressionTree.fit": ("trees.nodes", "count", _attr_sum("nodes")),
    "sensitivity.generate_confounder": ("sensitivity.generate_confounder.distinct_ratio",
                                        "ratio", _distinct),
    "validation.validate_ranking_splits": (
        "validation.validate_ranking_splits.skipped_ratio", "ratio",
        lambda t, out: _ratio(t["attrs"].get("skipped", 0), t["attrs"].get("records", 0))),
    "data.load_dataset": ("data.load_dataset.mb", "MB", _attr_sum("bytes", 1e-6)),
    **{span: (f"{span}.iters", "count", _attr_sum("iters"))
       for span in OP_SPANS if span.startswith("outcomes.fit.")},
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span in OP_SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.s", "s"), (f"{span}.self_s", "s")]
        if span in EXTRAS:
            out.append(EXTRAS[span][:2])
    for span in SETUP_SPANS:
        out += [(f"setup.{span}.calls", "count"), (f"setup.{span}.s", "s"),
                (f"setup.{span}.self_s", "s")]
    out += [("setup.data.save_dataset.mb", "MB"),
            ("trace.ops", "count"), ("trace.overhead_frac", "ratio")]
    return out


class Tracer:
    """Records one span per call of each target; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, after):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if after is not None or callable(name):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span = {"name": name(bound.arguments) if callable(name) else name,
                    "parent": tracer._stack[-1] if tracer._stack else -1,
                    "op": tracer.op, "attrs": {}}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(span["attrs"], bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "proxyrank" or n.startswith("proxyrank.")]
        for modname, attr, name, after in TARGETS:
            owner = sys.modules[f"proxyrank.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, after))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def _read_balance_csv(path: Path) -> str | None:
    if not path.exists():
        return None
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")][1:]
    # balance.csv cells may read "np.float64(<repr>)"; accept both spellings.
    unwrap = (lambda cell: cell.removeprefix("np.float64(").removesuffix(")"))
    return balance_key((c, unwrap(b), unwrap(a))
                       for c, b, a, *_ in (ln.split(",") for ln in lines))


def _totals(spans: list[dict], selected) -> dict[str, dict]:
    """Per span name over the ``selected`` span indices: calls, inclusive and
    self seconds, summed attributes, and the list of keys."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for i in selected:
        s = spans[i]
        t = out.setdefault(s["name"], _empty())
        dur = s["end"] - s["start"]
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child[i]
        for k, v in s["attrs"].items():
            if k == "key":
                t["keys"].append(v)
            else:
                t["attrs"][k] = t["attrs"].get(k, 0) + v
    return out


def _empty() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": {}, "keys": []}


def _op_metrics(spans: list[dict], op: int, out_dir: Path) -> dict[str, float]:
    tot = _totals(spans, [i for i, s in enumerate(spans) if s["op"] == op])
    m: dict[str, float] = {}
    for span in OP_SPANS:
        t = tot.get(span, _empty())
        for field in ("calls", "s", "self_s"):
            m[f"{span}.{field}"] = t[field]
        if span in EXTRAS:
            name, _, value = EXTRAS[span]
            m[name] = value(t, out_dir)
    return m


def summarize(setup_spans: list[dict], op_spans: list[dict], op_dirs: list[Path],
              untraced_s: list[float], traced_s: list[float]) -> dict[str, float]:
    """Per-layer metrics: the median over traced ops of each op's totals,
    the traced input generation, and the tracing overhead."""
    per_op = [_op_metrics(op_spans, i, d) for i, d in enumerate(op_dirs)]
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    setup = _totals(setup_spans, range(len(setup_spans)))
    for span in SETUP_SPANS:
        t = setup.get(span, _empty())
        for field in ("calls", "s", "self_s"):
            metrics[f"setup.{span}.{field}"] = t[field]
    save = setup.get("data.save_dataset", _empty())
    metrics["setup.data.save_dataset.mb"] = save["attrs"].get("bytes", 0) * 1e-6
    metrics["trace.ops"] = len(op_dirs)
    metrics["trace.overhead_frac"] = (statistics.median(traced_s)
                                      / statistics.median(untraced_s) - 1.0)
    return metrics
