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
the next one is drawn. The cohorts, and the baselines both tests compare
against (one model per task, on the observed cohort prepared once), are the
tasks of ``parallel.iter_tasks``; the records merge in task order, which gives
the values and errors of running the tasks one by one.
"""
from __future__ import annotations

from collections.abc import Callable
from contextlib import closing
from dataclasses import asdict, dataclass, replace

import numpy as np

from .analysis import (AnalysisConfig, AnalysisResult, ModelSpec, PreparedCohort, analyze_model,
                       prepare_cohort)
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


def _analyze_cohort(draw: Callable[[], tuple],
                    record: Callable[[int, object, AnalysisResult], object],
                    specs: list[ModelSpec], live: list[int], cfg: AnalysisConfig):
    """Draw a cohort (``draw()`` returns (key, dataset)), prepare it once and
    record each spec of ``live`` on it as ``record(i, key, result)``.
    Returns one value or exception per live spec, or the exception that
    drawing or preparing the cohort raised."""
    try:
        key, cohort = draw()
        prepared = prepare_cohort(cohort, cfg)
    except Exception as exc:
        return exc.with_traceback(None)  # hold no frame of the cohort
    out = []
    for i in live:
        try:
            out.append(record(i, key, analyze_model(prepared, specs[i], cfg)))
        except Exception as exc:
            out.append(exc.with_traceback(None))
    return out


def _sweep(tasks: list[tuple], specs: list[ModelSpec], baselines: list,
           cfg: AnalysisConfig) -> list[tuple[list, Exception | None]]:
    """The cohort-major loop behind ``placebo_test``, ``confounding_overlap``
    and ``sensitivity_sweep``.

    A task is one cohort as (name, draw, record): ``_analyze_cohort`` takes
    the last two, and ``name`` says which cohort it is in an error. Each
    cohort is drawn and prepared once, and every spec whose entry in
    ``baselines`` is not an exception is analyzed on it; the tasks
    run on forked workers (``iter_tasks``), so only one cohort per worker is
    alive at a time. Returns, per spec, its records in task order up to its
    first failure, and the exception that ended it (None if none did): its
    baseline's exception, else the first in task order, where a cohort that
    fails to draw or prepare ends every spec with its error. These are the
    values and errors of running the tasks one by one.
    """
    records = [[] for _ in specs]
    errors = [b if isinstance(b, Exception) else None for b in baselines]
    live = [i for i, e in enumerate(errors) if e is None]
    if not live:
        return list(zip(records, errors))
    for result in iter_tasks([name for name, _, _ in tasks],
                             lambda t: _analyze_cohort(*tasks[t][1:], specs, live, cfg)):
        for j, i in enumerate(live):
            if errors[i] is not None:
                continue
            value = result if isinstance(result, Exception) else result[j]
            if isinstance(value, Exception):
                errors[i] = value
            else:
                records[i].append(value)
    return list(zip(records, errors))


def _baseline(prepared, spec: ModelSpec, cfg: AnalysisConfig):
    """``spec``'s analysis of ``prepared`` as (model, ites, ranked), without
    the cohort a worker would otherwise send back; or the exception the
    analysis raised."""
    try:
        result = analyze_model(prepared, spec, cfg)
    except Exception as exc:
        return exc.with_traceback(None)  # hold no frame of the cohort
    return result.model, result.ites, result.ranked


def _balance(prepared):
    """``prepared``'s covariate balance, or the exception computing it raised."""
    try:
        return prepared.balance
    except Exception as exc:
        return exc.with_traceback(None)  # hold no frame of the cohort


def _prepare(d: Dataset, cfg: AnalysisConfig):
    """``d`` prepared, as what a prepared cohort holds besides ``d``: its
    (fit, keep, weights); or the exception preparing it raised."""
    try:
        prepared = prepare_cohort(d, cfg)
    except Exception as exc:
        return exc.with_traceback(None)  # hold no frame of the cohort
    return prepared.fit, prepared.keep, prepared.weights


def analyze_baselines(d: Dataset, specs: list[ModelSpec],
                      cfg: AnalysisConfig = AnalysisConfig(), balance: bool = False):
    """Every spec's analysis of ``d``, all on one prepared cohort, yielded in
    spec order as each result is read.

    The cohort is prepared once, on a forked worker of its own
    (``on_worker``: in-process with one CPU or without fork), which sends
    back only the propensity fit, the indices of the trimmed rows and the
    weights, so the propensity design and the trimmed copy of the cohort
    never live in this process. The specs are then dealt to forked workers,
    which inherit the prepared cohort; each builds its own trimmed cohort,
    sends back only its spec's model, effects and ranking, and every result
    refers to this process's prepared cohort. Yields one ``AnalysisResult``
    per spec, or the exception its analysis raised (every spec gets the
    exception of preparing the cohort, if that fails); these are the
    baselines the sweeps compare against. A worker that dies raises
    ``StageError``. Close the generator (``contextlib.closing``) to stop
    early: the workers still running are killed.

    With ``balance``, one more task after the specs computes the prepared
    cohort's covariate balance, dealt round-robin like the others (on two
    workers, behind the first spec), and fills ``PreparedCohort.balance``
    once the last spec has been yielded and the generator is resumed. If it
    raises, the field is left unset, and its first read raises again.
    """
    value = on_worker("the preparation of the observed cohort", lambda: _prepare(d, cfg))
    if isinstance(value, Exception):
        yield from [value] * len(specs)
        return
    fit, keep, weights = value
    prepared = PreparedCohort(full=d, keep=keep, fit=fit, weights=weights,
                              balance_threshold=cfg.balance_threshold)
    names = [f"the baseline of model {spec.name()!r}" for spec in specs]
    if balance:
        names.append("the covariate balance of the observed cohort")

    def run(t: int):
        return _baseline(prepared, specs[t], cfg) if t < len(specs) else _balance(prepared)
    with closing(iter_tasks(names, run)) as values:
        for spec, value in zip(specs, values):
            yield value if isinstance(value, Exception) else AnalysisResult(prepared, spec,
                                                                             *value)
        for value in values:  # the balance task, if any
            if not isinstance(value, Exception):
                prepared.balance = value


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


def _placebo_task(d: Dataset, baselines: list, seed: int, n_bootstrap: int) -> tuple:
    """The placebo cohort: ``d`` with a fair-coin treatment. Its ATE and SE
    depend on no model and are computed once, at the first record."""
    ate_se = None

    def draw():
        fake = (substream(seed, "placebo-treatment").random(d.n) < 0.5).astype(np.int64)
        return None, d.with_treatment(fake)

    def record(i, key, result):
        nonlocal ate_se
        if ate_se is None:
            ate_se = _placebo_ate(result.prepared, seed, n_bootstrap)
        return PlaceboResult(
            ate_estimate=ate_se[0], ate_se=ate_se[1],
            rank_rmse_vs_original=rank_rmse(result.ranked.level, baselines[i].ranked.level),
            levels=result.ranked.level)
    return "the placebo cohort", draw, record


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
    (``analyze_baselines``; computed here when omitted); a spec whose entry
    is an exception is not run and gets that exception back. Returns one
    ``PlaceboResult`` per spec, or the exception that ended the spec.
    """
    if baselines is None:
        baselines = list(analyze_baselines(d, specs, cfg))
    task = _placebo_task(d, baselines, seed, n_bootstrap)
    return [values[0] if exc is None else exc
            for values, exc in _sweep([task], specs, baselines, cfg)]


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


def _confounder_tasks(d: Dataset, baselines: list, configs: list[ConfounderConfig],
                      runs: int, seed: int) -> list[tuple]:
    """One task per (config, run): ``d`` with a synthetic confounder drawn
    from a seed that depends on (seed, config index, run index) only."""
    def task(ci: int, r: int) -> tuple:
        def draw():
            draw_cfg = replace(configs[ci], seed=derive_seed(seed, "confounder-run", ci, r))
            u, corr_a, corr_y = generate_confounder(d, draw_cfg)
            return (corr_a, corr_y), d.with_covariate(f"u_synth_{ci}_{r}", u)

        def record(i, key, result):
            base = baselines[i]
            return ConfoundingRecord(
                config_index=ci, alpha=configs[ci].alpha, epsilon=configs[ci].epsilon,
                run=r, corr_u_a=key[0], corr_u_y=key[1],
                overlap=overlap_fraction(base.ites.ite, result.ites.ite),
                rank_rmse_vs_baseline=rank_rmse(base.ranked.level, result.ranked.level))
        return f"the confounder cohort of config {ci}, run {r}", draw, record
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
    if baselines is None:
        baselines = list(analyze_baselines(d, specs, cfg))
    tasks = _confounder_tasks(d, baselines, configs, runs, seed)
    return [_summarize(values, configs) if exc is None else exc
            for values, exc in _sweep(tasks, specs, baselines, cfg)]


def sensitivity_sweep(d: Dataset, specs: list[ModelSpec], configs: list[ConfounderConfig],
                      runs: int, cfg: AnalysisConfig, placebo_seed: int, seed: int,
                      baselines: list, n_bootstrap: int) -> list[tuple]:
    """``placebo_test`` and ``confounding_overlap`` as one sweep: the placebo
    cohort and every confounded cohort are one task list, so they share the
    workers. Returns, per spec, (placebo result or None, sensitivity report
    or None, exception or None): a spec whose placebo failed has neither,
    and one that failed on a confounded cohort keeps its placebo result.
    """
    tasks = [_placebo_task(d, baselines, placebo_seed, n_bootstrap),
             *_confounder_tasks(d, baselines, configs, runs, seed)]
    out = []
    for values, exc in _sweep(tasks, specs, baselines, cfg):
        placebo = values[0] if values else None
        report = _summarize(values[1:], configs, placebo) if exc is None else None
        out.append((placebo, report, exc))
    return out
