"""Command-line interface.

Subcommands: simulate, analyze, balance, rank, sensitivity, validate, run,
report. Every writing command takes --out; --config points at a JSON run
config (fully defaulted when omitted) and --seed overrides its master seed.
Exit codes: 0 success, 1 config error, 2 stage failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import analyze_model, prepare_cohort
from .data import Dataset, SchemaError, load_dataset, load_schema, save_dataset
from .outcomes import compute_ite
from .pipeline import (RunConfig, emit_report, run_pipeline, sweep_models, write_csv,
                       write_sensitivity)
from .ranking import select_top_percentile
from .simulate import ConfigError, simulate_cohort
from .rng import derive_seed
from .validation import simulate_campaign, validate_ranking_splits

_CONFIG_ERRORS = (ConfigError, SchemaError, json.JSONDecodeError)


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_for(cfg: RunConfig, args) -> Dataset:
    if getattr(args, "data", None):
        if not getattr(args, "schema", None):
            raise ConfigError("--data requires --schema (JSON column-role map)")
        return load_dataset(args.data, load_schema(args.schema))
    return simulate_cohort(cfg.resolved_sim()).observed


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    chash = cfg.config_hash()
    sim_out = simulate_cohort(cfg.resolved_sim())
    schema_obs = save_dataset(sim_out.observed, out / "observed.csv",
                              header_comment=f"config_hash={chash}")
    (out / "observed_schema.json").write_text(
        json.dumps({"config_hash": chash, **schema_obs}, sort_keys=True, indent=1),
        encoding="utf-8")
    schema_or = save_dataset(sim_out.oracle, out / "oracle.csv",
                             include_ground_truth=True,
                             header_comment=f"config_hash={chash}")
    (out / "oracle_schema.json").write_text(
        json.dumps({"config_hash": chash, **schema_or}, sort_keys=True, indent=1),
        encoding="utf-8")
    echo = {"config_hash": chash, "master_seed": cfg.master_seed,
            "version": __version__, "sim": asdict(cfg.resolved_sim())}
    (out / "sim_config.json").write_text(json.dumps(echo, sort_keys=True, indent=1),
                                         encoding="utf-8")
    print(f"wrote observed.csv, oracle.csv, sim_config.json to {out}")
    return 0


def _prepared_and_models(cfg: RunConfig, d: Dataset):
    prepared = prepare_cohort(d, cfg.analysis)
    return prepared, [(spec, analyze_model(prepared, spec, cfg.analysis))
                      for spec in cfg.models]


def _write_balance(out: Path, chash: str, prepared) -> None:
    balance = prepared.balance
    rows = [[r.covariate, repr(r.smd_before), repr(r.smd_after),
             int(r.smd_after > balance.threshold)] for r in balance.rows]
    write_csv(out / "balance.csv", chash,
               ["covariate", "smd_before", "smd_after", "flagged"], rows)


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    chash = cfg.config_hash()
    d = _dataset_for(cfg, args)
    prepared, results = _prepared_and_models(cfg, d)
    rows = []
    for spec, res in results:
        y1, y0 = res.ites.y_hat_1, res.ites.y_hat_0
        if cfg.analysis.report_range is not None:
            lo, hi = cfg.analysis.report_range
            y1, y0 = np.clip(y1, lo, hi), np.clip(y0, lo, hi)
        for i in range(res.ites.index.size):
            rows.append([spec.name(), i, repr(float(y1[i] - y0[i])),
                         repr(float(y1[i])), repr(float(y0[i]))])
    write_csv(out / "ite.csv", chash, ["model", "index", "ite", "y_hat_1", "y_hat_0"], rows)
    _write_balance(out, chash, prepared)
    fit = prepared.fit
    (out / "propensity.json").write_text(json.dumps({
        "config_hash": chash, "marginal": fit.marginal, "converged": fit.converged,
        "n_iter": fit.n_iter, "grad_norm": fit.grad_norm,
        "intercept": fit.intercept, "coefficients": fit.coefficients.tolist(),
        "n_after_trim": prepared.trimmed.n, "n_before_trim": prepared.full.n,
    }, sort_keys=True, indent=1), encoding="utf-8")
    print(f"wrote ite.csv, balance.csv, propensity.json to {out}")
    return 0


def cmd_balance(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    d = _dataset_for(cfg, args)
    prepared = prepare_cohort(d, cfg.analysis)
    _write_balance(out, cfg.config_hash(), prepared)
    print(f"wrote balance.csv to {out}")
    return 0


def cmd_rank(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    chash = cfg.config_hash()
    d = _dataset_for(cfg, args)
    _, results = _prepared_and_models(cfg, d)
    header = ["model", "index", "ite", "rank", "level"]
    header += [f"top_{int(k) if float(k).is_integer() else k}" for k in cfg.k_grid]
    rows = []
    for spec, res in results:
        ranked = res.ranked
        tops = []
        for k in cfg.k_grid:
            flags = np.zeros(ranked.n, dtype=int)
            flags[select_top_percentile(ranked, k)] = 1
            tops.append(flags)
        for i in range(ranked.n):
            rows.append([spec.name(), i, repr(float(ranked.ite[i])), int(ranked.rank[i]),
                         int(ranked.level[i])] + [int(f[i]) for f in tops])
    write_csv(out / "ranking.csv", chash, header, rows)
    print(f"wrote ranking.csv to {out}")
    return 0


def cmd_sensitivity(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    d = _dataset_for(cfg, args)
    swept = sweep_models(d, cfg)
    for _, exc in swept:  # the first model to fail ends the command
        if exc is not None:
            raise exc
    write_sensitivity(out, cfg.config_hash(), [mr for mr, _ in swept])
    print(f"wrote sensitivity.json, overlap.csv to {out}")
    return 0


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    chash = cfg.config_hash()
    d = _dataset_for(cfg, args)
    _, results = _prepared_and_models(cfg, d)
    campaign = simulate_campaign(replace(cfg.resolved_sim(),
                                         seed=derive_seed(cfg.master_seed, "campaign")),
                                 exposure=cfg.campaign_exposure)
    rows = []
    for spec, res in results:
        predicted = compute_ite(res.model, campaign.data).ite
        iv = validate_ranking_splits(campaign.with_predicted_ite(predicted),
                                     k_grid=cfg.k_grid)
        for rec in iv.records:
            if rec.estimate is None:
                rows.append([spec.name(), rec.k, rec.group, 0, "", "", "", rec.skipped or ""])
            else:
                est = rec.estimate
                sep = iv.separation.get(rec.k)
                rows.append([spec.name(), rec.k, rec.group, est.n_group,
                             repr(est.first_stage), repr(est.cate), repr(est.se),
                             "" if sep is None else int(sep)])
    write_csv(out / "cate_by_k.csv", chash,
               ["model", "k", "group", "n", "first_stage", "cate", "se", "separated"],
               rows)
    print(f"wrote cate_by_k.csv to {out}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    dataset = None
    if getattr(args, "data", None):
        dataset = _dataset_for(cfg, args)
    report = run_pipeline(cfg, dataset=dataset)
    manifest = emit_report(report, out)
    failed = [m.label for m in report.model_reports if m.error]
    print(f"wrote {len(manifest)} files to {out} (manifest.json)")
    if failed:
        print(f"model branches failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    from .pipeline import summary_from_payload
    src = Path(args.from_report)
    if not src.exists():
        raise ConfigError(f"report file not found: {src}")
    payload = json.loads(src.read_text(encoding="utf-8"))
    out = _outdir(args)
    (out / "summary.md").write_text(summary_from_payload(payload), encoding="utf-8")
    import hashlib
    known = ["report.json", "ranking.csv", "balance.csv", "sensitivity.json",
             "overlap.csv", "cate_by_k.csv", "summary.md"]
    manifest = {}
    for name in known:
        p = out / name
        if p.exists():
            manifest[name] = hashlib.sha256(p.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1),
                                       encoding="utf-8")
    print(f"wrote summary.md, manifest.json to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxyrank",
        description="Rank individuals by the estimated causal effect of a proxy treatment.")
    parser.add_argument("--version", action="version", version=f"proxyrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, data_opts=False, needs_out=True):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON run config (defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        if data_opts:
            p.add_argument("--data", help="input cohort CSV (instead of simulating)")
            p.add_argument("--schema", help="JSON column-role map for --data")
        p.set_defaults(fn=fn)
        return p

    add("simulate", cmd_simulate, "generate a cohort: observed.csv, oracle.csv, config echo")
    add("analyze", cmd_analyze, "fit propensity and outcome models: ite.csv, balance.csv",
        data_opts=True)
    add("balance", cmd_balance, "covariate balance before/after weighting: balance.csv",
        data_opts=True)
    add("rank", cmd_rank, "per-unit effect ranking: ranking.csv", data_opts=True)
    add("sensitivity", cmd_sensitivity,
        "placebo and synthetic-confounder stability: sensitivity.json, overlap.csv",
        data_opts=True)
    add("validate", cmd_validate, "campaign IV validation: cate_by_k.csv", data_opts=True)
    add("run", cmd_run, "all stages plus report emission", data_opts=True)
    rp = sub.add_parser("report", help="regenerate summary.md and manifest from report.json")
    rp.add_argument("--from", dest="from_report", required=True, help="existing report.json")
    rp.add_argument("--out", required=True, help="output directory")
    rp.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"stage failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
