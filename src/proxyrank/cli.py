"""Command-line interface.

Subcommands: simulate, analyze, balance, rank, sensitivity, validate, run,
report. Every writing command takes --out; --config points at a JSON run
config (fully defaulted when omitted) and --seed overrides its master seed.
Exit codes: 0 success, 1 config error, 2 stage failure.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import closing
from dataclasses import asdict, replace
from itertools import repeat

import numpy as np

from . import __version__
from .data import Dataset, SchemaError, load_dataset, load_schema, save_simulated
from .pipeline import (REPORT_FILES, CampaignDrawError, RunConfig, analyze_models,
                       check_campaign_covariates, config_hash_of, emit_report, output_dir,
                       read_json_object, run_pipeline, sweep_models, validate_models,
                       write_balance, write_cate_by_k, write_json, write_manifest,
                       write_model_rows, write_ranking, write_sensitivity, write_summary)
from .sensitivity import prepare_on_worker
from .simulate import ConfigError, simulate_cohort

_CONFIG_ERRORS = (ConfigError, SchemaError)


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


def _dataset_for(cfg: RunConfig, args) -> Dataset:
    if getattr(args, "data", None):
        if not getattr(args, "schema", None):
            raise ConfigError("--data requires --schema (JSON column-role map)")
        return load_dataset(args.data, load_schema(args.schema))
    return simulate_cohort(cfg.resolved_sim()).observed


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = output_dir(args.out)
    chash = cfg.config_hash()
    sim_out = simulate_cohort(cfg.resolved_sim())
    schema_obs, schema_or = save_simulated(sim_out.oracle, out / "observed.csv",
                                           out / "oracle.csv",
                                           header_comment=f"config_hash={chash}")
    write_json(out / "observed_schema.json", {"config_hash": chash, **schema_obs})
    write_json(out / "oracle_schema.json", {"config_hash": chash, **schema_or})
    write_json(out / "sim_config.json",
               {"config_hash": chash, "master_seed": cfg.master_seed,
                "version": __version__, "sim": asdict(cfg.resolved_sim())})
    print(f"wrote observed.csv, oracle.csv, sim_config.json to {out}")
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    d = _dataset_for(cfg, args)
    out = output_dir(args.out)
    chash = cfg.config_hash()
    report_range = cfg.analysis.report_range

    def rows(report, a: int, b: int) -> str:
        ites = report.analysis.ites
        y1, y0 = ites.y_hat_1[a:b], ites.y_hat_0[a:b]
        if report_range is not None:
            y1, y0 = np.clip(y1, *report_range), np.clip(y0, *report_range)
        return "".join(map("{},{},{!r},{!r},{!r}\n".format, repeat(report.label, b - a),
                           range(a, b), (y1 - y0).tolist(), y1.tolist(), y0.tolist()))
    with closing(analyze_models(d, cfg, balance=True)) as models:
        reports = write_model_rows(out / "ite.csv", chash,
                                   ["model", "index", "ite", "y_hat_1", "y_hat_0"],
                                   d.n, models, rows)
    prepared = reports[0].analysis.prepared
    write_balance(out, chash, prepared.balance)
    fit = prepared.fit
    write_json(out / "propensity.json", {
        "config_hash": chash, "marginal": fit.marginal, "converged": fit.converged,
        "n_iter": fit.n_iter, "grad_norm": fit.grad_norm,
        "intercept": fit.intercept, "coefficients": fit.coefficients.tolist(),
        "n_after_trim": len(prepared.keep), "n_before_trim": prepared.full.n,
    })
    print(f"wrote ite.csv, balance.csv, propensity.json to {out}")
    return 0


def cmd_balance(args) -> int:
    cfg = _load_config(args)
    d = _dataset_for(cfg, args)
    out = output_dir(args.out)
    # The cohort is prepared and its balance computed on a worker of its own,
    # which sends back only the balance report.
    balance = prepare_on_worker(d, cfg.analysis, lambda prepared: prepared.balance)
    if isinstance(balance, Exception):
        raise balance
    write_balance(out, cfg.config_hash(), balance)
    print(f"wrote balance.csv to {out}")
    return 0


def cmd_rank(args) -> int:
    cfg = _load_config(args)
    d = _dataset_for(cfg, args)
    out = output_dir(args.out)
    with closing(analyze_models(d, cfg)) as reports:
        write_ranking(out, cfg.config_hash(), reports, cfg.k_grid, d.n)
    print(f"wrote ranking.csv to {out}")
    return 0


def cmd_sensitivity(args) -> int:
    cfg = _load_config(args)
    d = _dataset_for(cfg, args)
    out = output_dir(args.out)
    swept = sweep_models(d, cfg)
    for _, exc in swept:  # the first model to fail ends the command
        if exc is not None:
            raise exc
    write_sensitivity(out, cfg.config_hash(), [mr for mr, _ in swept])
    print(f"wrote sensitivity.json, overlap.csv to {out}")
    return 0


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    d = _dataset_for(cfg, args)
    check_campaign_covariates(cfg, d)
    out = output_dir(args.out)
    reports = list(analyze_models(d, cfg))
    with closing(validate_models(reports, cfg)) as results:
        for m, iv in zip(reports, results):  # the first failure ends the command
            if isinstance(iv, Exception):
                raise iv.args[0] if isinstance(iv, CampaignDrawError) else iv
            m.iv = iv
    write_cate_by_k(out, cfg.config_hash(), reports)
    print(f"wrote cate_by_k.csv to {out}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    dataset = None
    if getattr(args, "data", None):
        dataset = _dataset_for(cfg, args)
        check_campaign_covariates(cfg, dataset)
    out = output_dir(args.out)
    report = run_pipeline(cfg, dataset=dataset)
    manifest = emit_report(report, out)
    failed = [m.label for m in report.model_reports if m.error]
    print(f"wrote {len(manifest)} files to {out} (manifest.json)")
    if failed:
        print(f"model branches failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    payload = read_json_object(args.from_report, "report")
    out = output_dir(args.out)
    chash = payload.get("config_hash")
    for name in REPORT_FILES:
        if name != "summary.md" and (out / name).exists():
            found = config_hash_of(out / name)
            if found != chash:
                raise ConfigError(f"report file {out / name} carries config hash {found}, "
                                  f"not the report's {chash}")
    write_summary(out, payload)
    write_manifest(out, [out / name for name in REPORT_FILES if (out / name).exists()])
    print(f"wrote summary.md, manifest.json to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxyrank",
        description="Rank individuals by the estimated causal effect of a proxy treatment.")
    parser.add_argument("--version", action="version", version=f"proxyrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, data_opts=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON run config (defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
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
