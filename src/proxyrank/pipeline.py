"""End-to-end runs from a single JSON-able config: simulate, fit, rank,
placebo, confounder sweep, campaign validation, and machine-readable outputs.

A fully defaulted config reproduces the reference simulation study: a clean
10k-unit cohort, an IPTW-weighted linear model with interactions next to an
IPTW-weighted linear SVR, a three-point confounder ladder, and a simulated
campaign with 66.1% exposure. Identical config and seed give byte-identical
output files.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterator
from contextlib import closing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import partial
from itertools import repeat
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .analysis import AnalysisConfig, AnalysisResult, ModelSpec
from .data import Dataset, map_row_ranges, read_json, written_whole
from .outcomes import compute_ite
from .ranking import rank_rmse, top_count
from .rng import derive_seed
from .parallel import StageError, iter_tasks
from .propensity import BalanceReport
from .sensitivity import (ConfounderConfig, PlaceboResult, SensitivityReport,
                          analyze_baselines, sensitivity_sweep)
from .simulate import ConfigError, SimConfig, ground_truth_rank, simulate_cohort
from .validation import (DEFAULT_K_GRID, IVExperiment, IVResult, simulate_campaign,
                         validate_ranking_splits)


# Every file a run can emit besides manifest.json; the manifest lists those
# of them that were written.
REPORT_FILES = ("report.json", "ranking.csv", "balance.csv", "sensitivity.json",
                "overlap.csv", "cate_by_k.csv", "summary.md")


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object stored at ``path``. Raises ConfigError, naming the file
    as ``what``, when it cannot be read, is not valid JSON, or holds no object."""
    raw = read_json(path, what, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} root must be a JSON object")
    return raw


# Each scalar field type of the config classes: the JSON values it takes and
# what an error calls it. A float field also takes an integer.
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"),
            bool: (bool, "a boolean"), str: (str, "a string"), dict: (dict, "an object")}


def _describe(tp) -> str:
    if get_origin(tp) is tuple:
        args = get_args(tp)
        size = "" if args[-1] is Ellipsis else f"{len(args)} "
        return f"a list of {size}{_SCALARS[args[0]][1].split()[-1]}s"
    return _SCALARS[tp][1]


def _scalar(tp, value):
    """``value`` stored as ``tp``, a scalar type or a tuple of one; raises
    TypeError (or OverflowError) when its JSON type does not fit."""
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if not isinstance(value, (list, tuple)) or (args[-1] is not Ellipsis
                                                      and len(value) != len(args)):
            raise TypeError
        return tuple(_scalar(args[0], v) for v in value)
    if (isinstance(value, bool) != (tp is bool) or not isinstance(value, _SCALARS[tp][0])
            or tp is float and not math.isfinite(value)):
        raise TypeError
    return float(value) if tp is float else value


def _load(tp, value, key: str):
    """JSON ``value`` as a value of the annotated type ``tp`` of the field at
    dotted ``key``: a config dataclass from an object, whose fields are
    loaded in turn; a tuple from a list; a float from any finite number.
    Raises ConfigError naming the key for a value of the wrong JSON type, a
    key its class has no field for, or a range error of the section."""
    if get_origin(tp) is UnionType:  # ``X | None``
        if value is None:
            return None
        (tp,) = [t for t in get_args(tp) if t is not type(None)]
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object, got {value!r}")
        hints = get_type_hints(tp)
        prefix = f"{key}." if key else ""
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise ConfigError(f"unknown config keys: {[prefix + k for k in unknown]}")
        kwargs = {k: _load(hints[k], v, prefix + k) for k, v in value.items()}
        try:
            return tp(**kwargs)
        except ValueError as exc:  # a range check of this section, ConfigError included
            raise ConfigError(f"{key}: {exc}" if key else str(exc)) from None
    if get_origin(tp) is tuple and is_dataclass(get_args(tp)[0]):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list of objects, got {value!r}")
        return tuple(_load(get_args(tp)[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    try:
        return _scalar(tp, value)
    except (TypeError, OverflowError):
        raise ConfigError(f"{key} must be {_describe(tp)}, got {value!r}") from None


def _default_models() -> tuple[ModelSpec, ...]:
    return (ModelSpec(family="linear_wls", causal=True, label="iptw_linear"),
            ModelSpec(family="svr_linear", causal=True, label="iptw_svr"))


def _default_confounders() -> tuple[ConfounderConfig, ...]:
    return (ConfounderConfig(alpha=1e5, epsilon=40 * 1e5),
            ConfounderConfig(alpha=1e5, epsilon=100 * 1e5),
            ConfounderConfig(alpha=1e3, epsilon=1700 * 1e3))


@dataclass(frozen=True)
class RunConfig:
    """Everything one end-to-end run needs. ``asdict`` gives its JSON form,
    and ``from_dict`` reads that form back to an equal config."""

    master_seed: int = 2024
    sim: SimConfig = field(default_factory=SimConfig)
    sim_seed_explicit: bool = False
    models: tuple[ModelSpec, ...] = field(default_factory=_default_models)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    sensitivity_configs: tuple[ConfounderConfig, ...] = field(default_factory=_default_confounders)
    sensitivity_runs: int = 3
    placebo_bootstrap: int = 200
    k_grid: tuple[float, ...] = DEFAULT_K_GRID
    campaign_exposure: float = 0.661

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigError("config must declare at least one outcome model")
        labels = set()
        for spec in self.models:
            if spec.name() in labels:
                raise ConfigError(f"two models are named {spec.name()!r}")
            labels.add(spec.name())
        if not self.sensitivity_configs:  # the report's mean rank RMSE needs a draw
            raise ConfigError("config must declare at least one sensitivity config")
        for i, c in enumerate(self.sensitivity_configs):  # each run derives its own seed
            if c.seed != 0:
                raise ConfigError(f"sensitivity_configs[{i}]: seed must be 0, got {c.seed!r}; "
                                  "each confounder draw's seed derives from master_seed")
        if self.sensitivity_runs < 1:
            raise ConfigError("sensitivity_runs must be >= 1")
        if not 0.0 < self.campaign_exposure < 1.0:
            raise ConfigError("campaign_exposure must lie in (0, 1)")
        if self.placebo_bootstrap < 2:  # a bootstrap SE needs two draws
            raise ConfigError("placebo_bootstrap must be >= 2")
        if not self.k_grid or not all(0.0 < k <= 100.0 for k in self.k_grid):
            raise ConfigError(f"k_grid must hold values in (0, 100], got {list(self.k_grid)}")
        if len(set(self.k_grid)) != len(self.k_grid):  # one ranking.csv column each
            raise ConfigError(f"k_grid must not repeat a value, got {list(self.k_grid)}")

    def resolved_sim(self) -> SimConfig:
        if self.sim_seed_explicit:
            return self.sim
        return replace(self.sim, seed=derive_seed(self.master_seed, "sim"))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The config of a JSON object (see ``_load``). An absent
        ``sim_seed_explicit`` is true when ``sim`` sets a ``seed``."""
        sim = raw.get("sim")
        seed_set = isinstance(sim, dict) and "seed" in sim
        return _load(cls, {"sim_seed_explicit": seed_set, **raw}, "")

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(read_json_object(path, "config"))

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class ModelReport:
    """Everything recorded for one model branch of a run."""

    label: str
    family: str
    causal: bool
    error: str | None = None
    rank_rmse_vs_truth: float | None = None
    placebo: PlaceboResult | None = None
    sensitivity: SensitivityReport | None = None
    iv: IVResult | None = None
    analysis: AnalysisResult | None = None

    def summary_dict(self) -> dict:
        out = {"label": self.label, "family": self.family, "causal": self.causal,
               "error": self.error, "rank_rmse_vs_truth": self.rank_rmse_vs_truth}
        if self.placebo is not None:
            out["placebo"] = self.placebo.to_dict()
        if self.sensitivity is not None:
            out["sensitivity_summaries"] = [asdict(s) for s in self.sensitivity.summaries]
            out["mean_confounded_rank_rmse"] = self.sensitivity.mean_rank_rmse()
        if self.iv is not None:
            out["iv_separation"] = {str(k): v for k, v in self.iv.separation.items()}
            out["iv_separated_fraction"] = self.iv.separated_fraction()
        return out


@dataclass
class RunReport:
    config: RunConfig
    config_hash: str
    n: int
    k: int
    true_levels: np.ndarray | None
    model_reports: list[ModelReport] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"config_hash": self.config_hash,
                "master_seed": self.config.master_seed,
                "version": __version__,
                "n": self.n, "k": self.k,
                "config": asdict(self.config),
                "models": [m.summary_dict() for m in self.model_reports]}


def run_pipeline(cfg: RunConfig, dataset: Dataset | None = None) -> RunReport:
    """Execute every stage for every model; a stage error aborts only that
    model's branch and is recorded in the report.

    When ``dataset`` is given it replaces the simulated observed cohort (no
    oracle metrics in that case).
    """
    if dataset is None:
        sim_out = simulate_cohort(cfg.resolved_sim())
        observed = sim_out.observed
        true_levels = ground_truth_rank(sim_out)
    else:
        observed = dataset
        true_levels = (ground_truth_rank(dataset) if dataset.ground_truth is not None
                       else None)

    check_campaign_covariates(cfg, observed)
    report = RunReport(config=cfg, config_hash=cfg.config_hash(),
                       n=observed.n, k=observed.k, true_levels=true_levels)
    for mr, exc in sweep_models(observed, cfg, balance=True):  # emit_report writes it
        report.model_reports.append(mr)
        if mr.analysis is not None and true_levels is not None:
            mr.rank_rmse_vs_truth = rank_rmse(mr.analysis.ranked.level, true_levels)
        if exc is not None:
            mr.error = f"{type(exc).__name__}: {exc}"
    swept = [mr for mr in report.model_reports if mr.error is None]
    for mr, iv in zip(swept, validate_models(swept, cfg)):
        if isinstance(iv, CampaignDrawError):
            mr.error = f"campaign stage failed: {iv.args[0]}"
        elif isinstance(iv, Exception):
            mr.error = f"{type(iv).__name__}: {iv}"
        else:
            mr.iv = iv
    return report


def check_campaign_covariates(cfg: RunConfig, observed: Dataset) -> None:
    """Raise ConfigError unless the campaign of ``cfg``, simulated with
    ``sim.k`` covariates, has as many as ``observed``: every model fit on
    ``observed`` predicts on the campaign."""
    if observed.k != cfg.sim.k:
        raise ConfigError(f"the dataset has {observed.k} covariates but the campaign is "
                          f"simulated with sim.k = {cfg.sim.k}; set sim.k to {observed.k}")


def draw_campaign(cfg: RunConfig) -> IVExperiment:
    """The randomized campaign of ``cfg``: a fresh cohort from the run's own
    campaign seed."""
    return simulate_campaign(replace(cfg.resolved_sim(),
                                     seed=derive_seed(cfg.master_seed, "campaign")),
                             exposure=cfg.campaign_exposure)


def validate_model(mr: ModelReport, campaign: IVExperiment, k_grid) -> IVResult:
    """IV check of the model's ranking: its effect predictions on the
    campaign cohort, split at each top-k% threshold."""
    predicted = compute_ite(mr.analysis.model, campaign.data).ite
    return validate_ranking_splits(campaign, predicted, k_grid=k_grid)


class CampaignDrawError(Exception):
    """Drawing the campaign of an IV task raised ``args[0]``."""


def validate_models(reports: list[ModelReport], cfg: RunConfig) -> Iterator:
    """The IV check of each of ``reports`` on the campaign of ``cfg``, one
    task of ``iter_tasks`` per report, yielded in report order as read.

    Each task draws the campaign itself (``draw_campaign``) and yields
    ``validate_model``'s IVResult or the exception it raised; a draw that
    raised is yielded as a CampaignDrawError holding its exception. The draw
    is deterministic, so every task scores the same cohort, and this process
    draws none unless the tasks run in it (one CPU), one at a time. Close
    the iterator (``contextlib.closing``) to stop early.
    """
    def run(t: int):
        try:
            campaign = draw_campaign(cfg)
        except Exception as exc:
            return CampaignDrawError(exc.with_traceback(None))
        return validate_model(reports[t], campaign, cfg.k_grid)
    return iter_tasks([f"the campaign validation of model {m.label!r}" for m in reports], run)


def analyze_models(observed: Dataset, cfg: RunConfig, balance: bool = False):
    """Every model's baseline analysis of ``observed``, on one prepared
    cohort, yielded in config order as each result is read, as reports with
    ``analysis`` filled. Raises the exception of the first model that
    failed as soon as it is read, and kills the workers of later models.
    ``balance`` is that of ``analyze_baselines``."""
    with closing(analyze_baselines(observed, list(cfg.models), cfg.analysis,
                                   balance)) as baselines:
        # baselines first: after the last model zip resumes it once more,
        # which reads the balance task
        for base, spec in zip(baselines, cfg.models):
            if isinstance(base, Exception):
                raise base
            yield ModelReport(label=spec.name(), family=spec.family, causal=spec.causal,
                              analysis=base)


def sweep_models(observed: Dataset, cfg: RunConfig,
                 balance: bool = False) -> list[tuple[ModelReport, Exception | None]]:
    """Baseline analysis, placebo test and confounder sweep of every model,
    as one pool (``sensitivity_sweep``): the baselines, on one prepared
    cohort (with ``balance`` its covariate balance too, as in
    ``analyze_baselines``), the placebo cohort and every confounded cohort,
    each prepared once for all models. Returns, per model of ``cfg``, its
    report with ``analysis``, ``placebo`` and ``sensitivity`` filled as far
    as the model got, and the exception that ended its branch (None if none
    did)."""
    specs = list(cfg.models)
    baselines, swept = sensitivity_sweep(
        observed, specs, list(cfg.sensitivity_configs), runs=cfg.sensitivity_runs,
        cfg=cfg.analysis, placebo_seed=derive_seed(cfg.master_seed, "placebo"),
        seed=derive_seed(cfg.master_seed, "sensitivity"), n_bootstrap=cfg.placebo_bootstrap,
        balance=balance)
    return [(ModelReport(label=spec.name(), family=spec.family, causal=spec.causal,
                         analysis=None if isinstance(base, Exception) else base,
                         placebo=placebo, sensitivity=sens), exc)
            for spec, base, (placebo, sens, exc) in zip(specs, baselines, swept)]


def _report_number(entry: dict, key: str, at: str):
    """``entry[key]`` if it is a JSON number (``true`` and ``false`` are not);
    else a ConfigError naming it."""
    value = entry.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise ConfigError(f"report {at}.{key} must be a number, not {value!r}")


def summary_from_payload(payload: dict) -> str:
    """Human-readable summary.md from a report.json-shaped dict. Raises
    ConfigError when an entry it prints has the wrong type."""
    models = payload.get("models", [])
    if not isinstance(models, list):
        raise ConfigError("report models must be a list")
    lines = [f"# Run summary (config {payload.get('config_hash', '?')})", "",
             f"master_seed: {payload.get('master_seed', '?')}",
             f"version: {payload.get('version', '?')}",
             f"cohort: n={payload.get('n', '?')}, k={payload.get('k', '?')}", ""]
    for i, m in enumerate(models):
        at = f"models[{i}]"
        if not isinstance(m, dict):
            raise ConfigError(f"report {at} must be an object")
        lines.append(f"## {m.get('label')}")
        if m.get("error"):
            lines.append(f"- status: FAILED ({m['error']})")
        else:
            lines.append("- status: ok")
        if m.get("rank_rmse_vs_truth") is not None:
            lines.append(f"- rank RMSE vs ground truth: "
                         f"{_report_number(m, 'rank_rmse_vs_truth', at):.4f}")
        if m.get("placebo"):
            placebo, at_p = m["placebo"], f"{at}.placebo"
            if not isinstance(placebo, dict):
                raise ConfigError(f"report {at_p} must be an object")
            lines.append(f"- placebo ATE: {_report_number(placebo, 'ate_estimate', at_p):.4f} "
                         f"(bootstrap se {_report_number(placebo, 'ate_se', at_p):.4f})")
            lines.append(f"- placebo rank RMSE vs original: "
                         f"{_report_number(placebo, 'rank_rmse_vs_original', at_p):.4f}")
        if m.get("mean_confounded_rank_rmse") is not None:
            lines.append(f"- mean confounded rank RMSE vs baseline: "
                         f"{_report_number(m, 'mean_confounded_rank_rmse', at):.4f}")
        if m.get("iv_separated_fraction") is not None:
            lines.append(f"- campaign separation: "
                         f"{_report_number(m, 'iv_separated_fraction', at):.0%} of thresholds")
        elif "iv_separated_fraction" in m:
            lines.append("- campaign separation: no threshold measured")
        lines.append("")
    return "\n".join(lines)


_HASH_LINE = "# config_hash="


def _csv_head(config_hash: str, header: list[str]) -> str:
    """The first two lines of a run CSV: the config-hash line and the header."""
    return f"{_HASH_LINE}{config_hash}\n{','.join(header)}\n"


def write_csv(path: Path, config_hash: str, header: list[str], rows) -> None:
    """Write a run CSV through ``written_whole``: ``_csv_head``, then each row's
    cells joined by commas."""
    with written_whole([path]) as (fh,):
        fh.write(_csv_head(config_hash, header).encode("utf-8"))
        fh.writelines((",".join(map(str, row)) + "\n").encode("utf-8") for row in rows)


def config_hash_of(path: Path) -> str | None:
    """The config hash a run file carries: a CSV's first line or a JSON
    file's ``config_hash`` key; None when it carries none."""
    try:
        with open(path, encoding="utf-8") as fh:
            if path.suffix == ".csv":
                first = fh.readline().rstrip("\n")
                return first.removeprefix(_HASH_LINE) if first.startswith(_HASH_LINE) else None
            payload = json.load(fh)
    except ValueError:  # not UTF-8 or not JSON
        return None
    return payload.get("config_hash") if isinstance(payload, dict) else None


def write_json(path: Path, payload: dict) -> None:
    with written_whole([path]) as (fh,):
        fh.write(json.dumps(payload, sort_keys=True, indent=1).encode("utf-8"))


def write_model_rows(path: Path, config_hash: str, header: list[str], n: int,
                     models, rows) -> list:
    """Write a run CSV of each model's rows in turn: the config-hash line,
    the header, then the ``n`` rows of each item of ``models``, where
    ``rows(model, a, b)`` is the text of ``model``'s rows ``a`` to ``b - 1``.

    ``models``, which may be a generator of models as their results are
    read, is read one model at a time, and each model's rows are formatted
    in its own row ranges of ``map_row_ranges``, on a pool of their own,
    before the next model is read; model ``j``'s ranges are named ``model j
    in <file name>``. The file is written through ``written_whole``, so a
    failure, in a model or in formatting, leaves no file. Returns the
    models, in order.
    """
    arrived = []
    with written_whole([path]) as (fh,):
        fh.write(_csv_head(config_hash, header).encode("utf-8"))
        for model in models:
            with closing(map_row_ranges(n, f"model {len(arrived)} in {path.name}",
                                        partial(rows, model))) as chunks:
                for chunk in chunks:
                    fh.write(chunk.encode("utf-8"))
            arrived.append(model)
    return arrived


def write_ranking(out: Path, config_hash: str, reports, k_grid, n: int,
                  true_levels: np.ndarray | None = None) -> Path:
    """Write ranking.csv: per model and unit the effect estimate, rank and
    level, the true level when ``true_levels`` is given, and a 0/1 flag per
    top-k% threshold of ``k_grid``: the units ranked 1 to ``top_count``,
    which are ``top_fraction_indices``. The rows go through
    ``write_model_rows``: ``reports`` is a list, or an iterable of reports
    as they arrive, that each rank ``n`` units."""
    header = ["model", "index", "ite", "rank", "level"]
    if true_levels is not None:
        header.append("true_level")
    header += [f"top_{int(k) if float(k).is_integer() else k}" for k in k_grid]
    row = ("{},{},{!r}" + ",{}" * (len(header) - 3) + "\n").format
    tops = [top_count(n, k) for k in k_grid]

    def rows(report: ModelReport, a: int, b: int) -> str:
        ranked = report.analysis.ranked
        rank = ranked.rank[a:b]
        columns = [rank, ranked.level[a:b]]
        if true_levels is not None:
            columns.append(true_levels[a:b])
        columns += [(rank <= m).astype(np.int64) for m in tops]
        return "".join(map(row, repeat(report.label, b - a), range(a, b),
                           ranked.ite[a:b].tolist(), *(c.tolist() for c in columns)))
    write_model_rows(out / "ranking.csv", config_hash, header, n, reports, rows)
    return out / "ranking.csv"


def write_balance(out: Path, config_hash: str, balance: BalanceReport) -> Path:
    """Write balance.csv: each covariate's SMD before and after weighting."""
    rows = [[r.covariate, repr(r.smd_before), repr(r.smd_after),
             int(r.smd_after > balance.threshold)] for r in balance.rows]
    write_csv(out / "balance.csv", config_hash,
              ["covariate", "smd_before", "smd_after", "flagged"], rows)
    return out / "balance.csv"


def write_sensitivity(out: Path, config_hash: str,
                      reports: list[ModelReport]) -> list[Path]:
    """Write sensitivity.json and overlap.csv for reports that have a sweep."""
    write_json(out / "sensitivity.json",
               {"config_hash": config_hash,
                "models": {m.label: m.sensitivity.to_dict() for m in reports}})
    rows = []
    for m in reports:
        for rec in m.sensitivity.records:
            rows.append([m.label, rec.config_index, rec.run, repr(rec.overlap),
                         repr(rec.rank_rmse_vs_baseline), repr(rec.corr_u_a),
                         repr(rec.corr_u_y)])
    write_csv(out / "overlap.csv", config_hash,
              ["model", "config", "run", "overlap", "rank_rmse", "corr_u_a", "corr_u_y"],
              rows)
    return [out / "sensitivity.json", out / "overlap.csv"]


def write_cate_by_k(out: Path, config_hash: str, reports: list[ModelReport]) -> Path:
    """Write cate_by_k.csv: each model's high/low Wald estimates per
    threshold, or the reason a group was skipped."""
    rows = []
    for m in reports:
        for rec in m.iv.records:
            if rec.estimate is None:
                rows.append([m.label, rec.k, rec.group, 0, "", "", "", rec.skipped or ""])
            else:
                est = rec.estimate
                sep = m.iv.separation.get(rec.k)
                rows.append([m.label, rec.k, rec.group, est.n_group,
                             repr(est.first_stage), repr(est.cate), repr(est.se),
                             "" if sep is None else int(sep)])
    write_csv(out / "cate_by_k.csv", config_hash,
              ["model", "k", "group", "n", "first_stage", "cate", "se", "separated"], rows)
    return out / "cate_by_k.csv"


def write_summary(out: Path, payload: dict) -> Path:
    """Write summary.md from a report.json-shaped dict."""
    with written_whole([out / "summary.md"]) as (fh,):
        fh.write(summary_from_payload(payload).encode("utf-8"))
    return out / "summary.md"


def write_manifest(out: Path, paths: list[Path]) -> dict:
    """Write manifest.json, mapping each file's name to its SHA-256, read in
    blocks of 256 KiB rather than whole; return the mapping."""
    manifest = {}
    for p in paths:
        with open(p, "rb") as fh:
            digest = hashlib.sha256()
            for block in iter(partial(fh.read, 1 << 18), b""):
                digest.update(block)
        manifest[p.name] = digest.hexdigest()
    write_json(out / "manifest.json", manifest)
    return manifest


def output_dir(outdir: str | Path) -> Path:
    """``outdir`` as a path, made with its parents when missing. Raises
    StageError when it cannot be made or written to, as when it names a
    file."""
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise StageError(f"output directory {out} is not writable: {exc}") from None
    return out


def emit_report(report: RunReport, outdir: str | Path) -> dict:
    """Write report.json plus per-stage CSVs and summary.md; return a manifest.

    Every emitted file carries the config hash in its first line (JSON files
    as a top-level key). The manifest maps file names to SHA-256 hashes and
    is also written as manifest.json.
    """
    out = output_dir(outdir)
    chash = report.config_hash
    write_json(out / "report.json", report.to_dict())
    written = [out / "report.json"]
    ok_models = [m for m in report.model_reports if m.analysis is not None]
    if ok_models:
        written.append(write_ranking(out, chash, ok_models, report.config.k_grid,
                                     report.n, report.true_levels))
        written.append(write_balance(out, chash, ok_models[0].analysis.prepared.balance))
    sens_models = [m for m in report.model_reports if m.sensitivity is not None]
    if sens_models:
        written += write_sensitivity(out, chash, sens_models)
    iv_models = [m for m in report.model_reports if m.iv is not None]
    if iv_models:
        written.append(write_cate_by_k(out, chash, iv_models))
    if report.model_reports:
        written.append(write_summary(out, report.to_dict()))
    return write_manifest(out, written)
