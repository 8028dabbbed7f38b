"""Refutation and sensitivity tests: placebo treatment, synthetic unobserved
confounders from a per-arm Gaussian posterior, and ranking-stability metrics.

The placebo test replaces the treatment with a fair coin and expects the
effect estimate to collapse to zero. The confounder test draws a synthetic
U whose per-arm posterior mean blends a treatment-dependent prior with the
arm's pooled outcomes, so U correlates with both treatment and outcome by
construction; appending it to the feature set and re-running the analysis
measures how much the ranking moves.

Neither the placebo cohort nor the confounder draws depend on the model, so
both tests take a list of models and run cohort-major: each cohort is drawn
and prepared once, every model is analyzed on it, and it is dropped before
the next one is drawn. The baselines both tests compare against (one model
per task, on the observed cohort prepared once) and the cohorts are one task
list of ``parallel.iter_tasks``, whose workers take the tasks on demand and
which turns a task's exception into its value. A cohort's worker sends back
each model's effects and levels; the records are made from them in task
order, which gives the values and errors of running the tasks one by one.
"""
from __future__ import annotations

from collections.abc import Callable
from contextlib import closing
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import islice

import numpy as np

from .analysis import AnalysisConfig, ModelSpec, PreparedCohort, analyze_model, prepare_cohort
from .data import Dataset, DataValidationError
from .parallel import iter_tasks, on_worker
from .propensity import ipw_weights
from .ranking import rank_rmse
from .rng import derive_seed, substream

POSTERIOR_MODES = ("conjugate_corrected", "sum_scaled")


@dataclass(frozen=True)
class ConfounderConfig:
    """Synthetic-confounder generator settings.

    ``alpha`` offsets the prior mean (u0 = alpha + a); ``epsilon`` is the
    shared prior/likelihood variance scale; larger epsilon means a weaker
    induced effect. ``posterior_mode`` selects the posterior-mean formula:

    * ``conjugate_corrected`` (default): u* = (u0 + sum(y)) / (N_a + 1),
      the standard Gaussian-conjugate result with equal variances;
    * ``sum_scaled``: u* = (u0 + N_a * sum(y)) / (N_a + 1), a variant whose
      mean grows with the arm size, kept for fidelity with reported
      configurations that used it.

    Either way the posterior variance is epsilon / (N_a + 1).
    """

    alpha: float = 1e5
    epsilon: float = 4e6
    posterior_mode: str = "conjugate_corrected"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise DataValidationError("epsilon must be > 0")
        if self.posterior_mode not in POSTERIOR_MODES:
            raise DataValidationError(
                f"posterior_mode must be one of {POSTERIOR_MODES}")


def posterior_parameters(cfg: ConfounderConfig, arm: int, n_arm: int,
                         outcome_sum: float) -> tuple[float, float]:
    """(u*, epsilon*) of the arm's posterior."""
    if n_arm <= 0:
        raise DataValidationError(f"treatment arm {arm} is empty")
    u0 = cfg.alpha + arm
    if cfg.posterior_mode == "conjugate_corrected":
        u_star = (u0 + outcome_sum) / (n_arm + 1)
    else:
        u_star = (u0 + n_arm * outcome_sum) / (n_arm + 1)
    return u_star, cfg.epsilon / (n_arm + 1)


def generate_confounder(d: Dataset, cfg: ConfounderConfig) -> tuple[np.ndarray, float, float]:
    """Sample a per-unit confounder from its arm's posterior.

    Returns (U, corr(U, A), corr(U, Y)); the first correlation is
    point-biserial, the second Pearson.
    """
    a = d.treatment
    y = d.outcome
    u = np.empty(d.n)
    for arm in (0, 1):
        mask = a == arm
        n_arm = int(mask.sum())
        u_star, eps_star = posterior_parameters(cfg, arm, n_arm, float(y[mask].sum()))
        u[mask] = substream(cfg.seed, "confounder", arm).normal(
            u_star, np.sqrt(eps_star), n_arm)

    def corr(x, z):
        sx, sz = x.std(), z.std()
        if sx == 0.0 or sz == 0.0:
            return 0.0
        return float(np.corrcoef(x, z)[0, 1])

    return u, corr(u, a.astype(float)), corr(u, y)


def overlap_fraction(baseline_scores: np.ndarray, new_scores: np.ndarray) -> float:
    """Fraction of baseline strictly-above-median units still above the new median."""
    b = np.asarray(baseline_scores, dtype=np.float64)
    s = np.asarray(new_scores, dtype=np.float64)
    if b.shape != s.shape:
        raise DataValidationError("score sequences differ in length")
    base_top = b > np.median(b)
    if not base_top.any():
        return 1.0  # nothing selected at baseline: trivially stable
    new_top = s > np.median(s)
    return float((base_top & new_top).sum() / base_top.sum())


@dataclass(frozen=True)
class PlaceboResult:
    ate_estimate: float
    ate_se: float
    rank_rmse_vs_original: float
    levels: np.ndarray

    def to_dict(self) -> dict:
        return {"ate_estimate": self.ate_estimate, "ate_se": self.ate_se,
                "rank_rmse_vs_original": self.rank_rmse_vs_original}


def _weighted_ate(y: np.ndarray, a: np.ndarray, w: np.ndarray) -> float:
    treated = a == 1
    return float(np.average(y[treated], weights=w[treated])
                 - np.average(y[~treated], weights=w[~treated]))


def _analyze_cohort(prepare: Callable[[AnalysisConfig], tuple], specs: list[ModelSpec],
                    cfg: AnalysisConfig) -> tuple:
    """Draw and prepare a cohort (``prepare(cfg)`` returns (key, prepared
    cohort)) and analyze every spec on it: the key and, per spec, its
    (effects, levels) or the exception its analysis raised. A failed draw or
    preparation raises."""
    key, prepared = prepare(cfg)
    out = []
    for spec in specs:
        try:
            result = analyze_model(prepared, spec, cfg)
            out.append((result.ites.ite, result.ranked.level))
        except Exception as exc:
            out.append(exc.with_traceback(None))
    return key, out


def _sweep(d: Dataset, specs: list[ModelSpec], cfg: AnalysisConfig, tasks: list[tuple],
           baselines: list | None = None, balance: bool = False) -> tuple[list, list]:
    """The cohort-major loop behind ``placebo_test``, ``confounding_overlap``
    and ``sensitivity_sweep``. A task is one cohort as (name, prepare,
    record): ``prepare`` is that of ``_analyze_cohort``, on a worker, and
    ``record(key, ite, level, baseline)`` makes a spec's record here, as
    soon as the cohort is read. Without ``baselines``, they (with
    ``balance``, as in ``analyze_baselines``) and the cohorts are one task
    list, and every spec is analyzed on every cohort; given them, only the
    specs whose baseline is not an exception are. Returns the baselines
    and, per spec, its records up to its first failure and the exception
    that ended it (None if none did): its baseline's, else the first in task
    order, where a cohort that fails to draw or prepare ends every spec.
    These are the values and errors of running the tasks one by one.
    """
    if baselines is None:
        fitted = list(range(len(specs)))
        values = analyze_baselines(d, specs, cfg, balance, [
            (name, partial(_analyze_cohort, prepare, specs, cfg)) for name, prepare, _ in tasks])
        baselines = list(islice(values, len(specs)))
    else:
        fitted = [i for i, b in enumerate(baselines) if not isinstance(b, Exception)]
        values = iter_tasks([name for name, _, _ in tasks], lambda c: _analyze_cohort(
            tasks[c][1], [specs[i] for i in fitted], cfg))
    records = [[] for _ in specs]
    errors = [b if isinstance(b, Exception) else None for b in baselines]

    def add(result, record) -> None:  # the only reference to a cohort's arrays
        for j, i in enumerate(fitted):
            value = result if isinstance(result, Exception) else result[1][j]
            if errors[i] is None and isinstance(value, Exception):
                errors[i] = value
            elif errors[i] is None:
                records[i].append(record(result[0], *value, baselines[i]))
    with closing(values):  # with no spec left, the pool stops here
        for _, _, record in tasks if any(e is None for e in errors) else []:
            add(next(values), record)
    return baselines, list(zip(records, errors))


def prepare_on_worker(d: Dataset, cfg: AnalysisConfig,
                      read: Callable[[PreparedCohort], object]) -> object:
    """``read(prepare_cohort(d, cfg))``, or the exception it raised, computed
    on a forked worker of its own (``on_worker``: in-process with one CPU or
    without fork). This process receives only what ``read`` returns, so
    neither the propensity design nor a trimmed copy of ``d`` that ``read``
    builds lives in it."""
    return on_worker("the preparation of the observed cohort",
                     lambda: read(prepare_cohort(d, cfg)))


def analyze_baselines(d: Dataset, specs: list[ModelSpec],
                      cfg: AnalysisConfig = AnalysisConfig(), balance: bool = False,
                      then: list[tuple[str, Callable[[], object]]] = ()):
    """Every spec's analysis of ``d``, all on one prepared cohort, yielded in
    spec order as each result is read: an ``AnalysisResult`` or the
    exception its analysis raised (every spec gets the exception of
    preparing the cohort, if that fails).

    The cohort is prepared once, on a forked worker of its own
    (``prepare_on_worker``), which sends back only the propensity fit, the
    indices of the trimmed rows and the weights, so neither the propensity
    design nor a trimmed copy of the cohort lives in this process. The specs
    are then tasks of ``iter_tasks``, whose workers inherit the prepared
    cohort, build their own trimmed cohort and send back only the spec's
    model, effects and ranking. A worker that dies, or cannot return its
    result, raises ``StageError``. Close the generator
    (``contextlib.closing``) to stop early: the workers are killed.

    With ``balance``, one more task computes the covariate balance and
    fills ``PreparedCohort.balance`` once the last spec has been yielded and
    the generator is resumed; if it raises, the field is left unset, and its
    first read raises again. Each (name, run) of ``then`` is one more task
    of the pool, its value yielded after the baselines; it first drops the
    trimmed cohort a baseline may have cached on its worker.
    """
    # A worker sends back its prepared cohort or result without the cohort.
    value = prepare_on_worker(d, cfg, lambda prepared: replace(prepared, full=None))
    if isinstance(value, Exception):
        yield from [value] * len(specs)
        return
    prepared = replace(value, full=d)
    names = [f"the baseline of model {spec.name()!r}" for spec in specs]
    if balance:
        names.append("the covariate balance of the observed cohort")
    first = len(names)

    def run(t: int):
        if t < len(specs):
            return replace(analyze_model(prepared, specs[t], cfg), prepared=None)
        if t < first:  # the balance task
            return prepared.balance
        vars(prepared).pop("trimmed", None)
        return then[t - first][1]()
    with closing(iter_tasks(names + [name for name, _ in then], run)) as values:
        for _, value in zip(specs, values):
            yield value if isinstance(value, Exception) else replace(value, prepared=prepared)
        if balance and not isinstance(value := next(values), Exception):
            prepared.balance = value
        yield from values


def _placebo_ate(prepared, seed: int, n_bootstrap: int) -> tuple[float, float]:
    """Stabilized-IPTW ATE of the placebo cohort and its bootstrap SE."""
    trimmed = prepared.trimmed
    y, a = trimmed.outcome, trimmed.treatment
    ate = _weighted_ate(y, a, prepared.weights)
    scores = prepared.fit.scores
    rng = substream(seed, "placebo-bootstrap")
    draws = np.empty(n_bootstrap)
    m = trimmed.n
    for b in range(n_bootstrap):
        idx = rng.integers(0, m, size=m)
        ab, yb, eb = a[idx], y[idx], scores[idx]
        if ab.min() == ab.max():
            draws[b] = np.nan  # degenerate resample, excluded below
            continue
        draws[b] = _weighted_ate(yb, ab, ipw_weights(ab, eb, float(ab.mean())))
    return ate, float(np.nanstd(draws, ddof=1))


def _placebo_task(d: Dataset, seed: int, n_bootstrap: int) -> tuple:
    """The placebo cohort: ``d`` with a fair-coin treatment. Its key is its
    ATE and SE, which depend on no model and are computed once."""
    def prepare(cfg):
        fake = (substream(seed, "placebo-treatment").random(d.n) < 0.5).astype(np.int64)
        prepared = prepare_cohort(d.with_treatment(fake), cfg)
        return _placebo_ate(prepared, seed, n_bootstrap), prepared

    def record(key, ite, level, base):
        return PlaceboResult(ate_estimate=key[0], ate_se=key[1],
                             rank_rmse_vs_original=rank_rmse(level, base.ranked.level),
                             levels=level)
    return "the placebo cohort", prepare, record


def placebo_test(d: Dataset, specs: list[ModelSpec],
                 cfg: AnalysisConfig = AnalysisConfig(), seed: int = 0,
                 baselines: list | None = None, n_bootstrap: int = 200) -> list:
    """Re-run every spec's analysis with one fair-coin treatment.

    Reports the stabilized-IPTW ATE of the placebo treatment with a seeded
    bootstrap standard error (scores held fixed, marginal re-estimated per
    resample) and the rank RMSE of each placebo ranking against the spec's
    original one. A sound estimator shows an ATE within noise of zero. The
    placebo cohort is prepared once, and its ATE and SE, which depend on no
    model, are computed once. ``baselines`` are the specs' analyses of ``d``
    (``analyze_baselines``; run on the same pool when omitted); a spec whose
    entry is an exception is not run and gets it back. Returns one
    ``PlaceboResult`` per spec, or the exception that ended the spec."""
    task = _placebo_task(d, seed, n_bootstrap)
    return [values[0] if exc is None else exc
            for values, exc in _sweep(d, specs, cfg, [task], baselines)[1]]


@dataclass(frozen=True)
class ConfoundingRecord:
    config_index: int
    alpha: float
    epsilon: float
    run: int
    corr_u_a: float
    corr_u_y: float
    overlap: float
    rank_rmse_vs_baseline: float


@dataclass(frozen=True)
class ConfoundingSummary:
    config_index: int
    alpha: float
    epsilon: float
    mean_overlap: float
    sd_overlap: float
    mean_rank_rmse: float
    sd_rank_rmse: float


@dataclass(frozen=True)
class SensitivityReport:
    placebo: PlaceboResult | None
    records: tuple[ConfoundingRecord, ...]
    summaries: tuple[ConfoundingSummary, ...]

    def mean_rank_rmse(self) -> float:
        return float(np.mean([r.rank_rmse_vs_baseline for r in self.records]))

    def to_dict(self) -> dict:
        return {"placebo": self.placebo.to_dict() if self.placebo else None,
                "confounding": [asdict(r) for r in self.records],
                "summaries": [asdict(s) for s in self.summaries]}


def _summarize(records: list[ConfoundingRecord], configs: list[ConfounderConfig],
               placebo: PlaceboResult | None = None) -> SensitivityReport:
    summaries = []
    for ci, ccfg in enumerate(configs):
        sub = [rec for rec in records if rec.config_index == ci]
        ov = np.array([rec.overlap for rec in sub])
        rr = np.array([rec.rank_rmse_vs_baseline for rec in sub])
        summaries.append(ConfoundingSummary(
            config_index=ci, alpha=ccfg.alpha, epsilon=ccfg.epsilon,
            mean_overlap=float(ov.mean()), sd_overlap=float(ov.std(ddof=1)) if len(ov) > 1 else 0.0,
            mean_rank_rmse=float(rr.mean()), sd_rank_rmse=float(rr.std(ddof=1)) if len(rr) > 1 else 0.0))
    return SensitivityReport(placebo=placebo, records=tuple(records),
                             summaries=tuple(summaries))


def _confounder_tasks(d: Dataset, configs: list[ConfounderConfig], runs: int,
                      seed: int) -> list[tuple]:
    """One task per (config, run): ``d`` with a synthetic confounder drawn
    from a seed that depends on (seed, config index, run index) only. Its
    key is the confounder's correlations with the treatment and outcome."""
    def task(ci: int, r: int) -> tuple:
        def prepare(cfg):
            draw_cfg = replace(configs[ci], seed=derive_seed(seed, "confounder-run", ci, r))
            u, corr_a, corr_y = generate_confounder(d, draw_cfg)
            return (corr_a, corr_y), prepare_cohort(d.with_covariate(f"u_synth_{ci}_{r}", u),
                                                    cfg)

        def record(key, ite, level, base):
            return ConfoundingRecord(
                config_index=ci, alpha=configs[ci].alpha, epsilon=configs[ci].epsilon,
                run=r, corr_u_a=key[0], corr_u_y=key[1],
                overlap=overlap_fraction(base.ites.ite, ite),
                rank_rmse_vs_baseline=rank_rmse(base.ranked.level, level))
        return f"the confounder cohort of config {ci}, run {r}", prepare, record
    return [task(ci, r) for ci in range(len(configs)) for r in range(runs)]


def confounding_overlap(d: Dataset, specs: list[ModelSpec],
                        configs: list[ConfounderConfig], runs: int = 3,
                        cfg: AnalysisConfig = AnalysisConfig(), seed: int = 0,
                        baselines: list | None = None) -> list:
    """Append a synthetic confounder, re-run every spec's analysis, measure
    stability.

    For each (config, run) a confounder is drawn from a seed that depends on
    (seed, config index, run index) only, never on the model, so every spec
    faces identical draws. Each confounded cohort is drawn and prepared once
    and analyzed with every spec. Reports the overlap of strictly-above-median
    units and the rank RMSE between baseline and confounded-run levels.
    ``baselines`` are as in ``placebo_test``. Returns one
    ``SensitivityReport`` per spec, or the exception that ended the spec.
    """
    tasks = _confounder_tasks(d, configs, runs, seed)
    return [_summarize(values, configs) if exc is None else exc
            for values, exc in _sweep(d, specs, cfg, tasks, baselines)[1]]


def sensitivity_sweep(d: Dataset, specs: list[ModelSpec], configs: list[ConfounderConfig],
                      runs: int, cfg: AnalysisConfig, placebo_seed: int, seed: int,
                      n_bootstrap: int, balance: bool = False) -> tuple[list, list[tuple]]:
    """Every spec's baseline (``analyze_baselines``, with its ``balance``),
    ``placebo_test`` and ``confounding_overlap`` as one task list, on one
    pool. Returns the baselines and, per spec, (placebo result or None,
    sensitivity report or None, exception or None): a spec whose placebo
    failed has neither, and one that failed on a confounded cohort keeps
    its placebo result."""
    tasks = [_placebo_task(d, placebo_seed, n_bootstrap),
             *_confounder_tasks(d, configs, runs, seed)]
    baselines, swept = _sweep(d, specs, cfg, tasks, balance=balance)
    return baselines, [(values[0] if values else None,
                        _summarize(values[1:], configs, values[0]) if exc is None else None, exc)
                       for values, exc in swept]
