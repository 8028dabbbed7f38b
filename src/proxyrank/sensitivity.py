"""Refutation and sensitivity tests: placebo treatment, synthetic unobserved
confounders from a per-arm Gaussian posterior, and ranking-stability metrics.

The placebo test replaces the treatment with a fair coin and expects the
effect estimate to collapse to zero. The confounder test draws a synthetic
U whose per-arm posterior mean blends a treatment-dependent prior with the
arm's pooled outcomes, so U correlates with both treatment and outcome by
construction; appending it to the feature set and re-running the analysis
measures how much the ranking moves.

Neither the placebo cohort nor the confounder draws depend on the model, so
both tests take a list of models and run draw-major: each cohort is drawn
and prepared once, every model is analyzed on it, and it is dropped before
the next one is drawn.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .analysis import AnalysisConfig, ModelSpec, analyze_model, prepare_cohort
from .data import Dataset, DataValidationError
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


def _sweep(cohorts, specs: list[ModelSpec], baselines: list, cfg: AnalysisConfig,
           record) -> list:
    """The draw-major loop behind ``analyze_baselines``, ``placebo_test`` and
    ``confounding_overlap``: the cohort is the outer loop, the model the inner.

    ``cohorts`` yields (key, dataset) pairs and is drawn one at a time. Each
    dataset is prepared once, every spec still running is analyzed on it, and
    ``record(i, key, result)`` turns spec i's result into a value. Returns,
    per spec, the list of its values or the exception that ended it. A spec
    whose entry in ``baselines`` is an exception is not run and keeps it; a
    failing fit or record ends only its own spec; a failure to draw or
    prepare a cohort ends every spec still running, with the error each of
    them would have met when run on its own.
    """
    out = [b if isinstance(b, Exception) else [] for b in baselines]
    cohorts = iter(cohorts)
    while live := [i for i, o in enumerate(out) if isinstance(o, list)]:
        try:
            item = next(cohorts, None)
            if item is None:
                break
            key, cohort = item
            prepared = prepare_cohort(cohort, cfg)
        except Exception as exc:
            for i in live:
                out[i] = exc.with_traceback(None)  # hold no frame of the cohort
            break
        for i in live:
            try:
                out[i].append(record(i, key, analyze_model(prepared, specs[i], cfg)))
            except Exception as exc:
                out[i] = exc.with_traceback(None)
        del item, cohort, prepared  # only one sweep cohort is alive at a time
    return out


def analyze_baselines(d: Dataset, specs: list[ModelSpec],
                      cfg: AnalysisConfig = AnalysisConfig()) -> list:
    """Every spec's analysis of ``d``, all on one prepared cohort.

    Returns one ``AnalysisResult`` per spec, or the exception its analysis
    raised; these are the baselines the sweeps compare against.
    """
    out = _sweep([(None, d)], specs, [None] * len(specs), cfg,
                 lambda i, key, result: result)
    return [o if isinstance(o, Exception) else o[0] for o in out]


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
        p = float(ab.mean())
        wb = np.where(ab == 1, p / eb, (1.0 - p) / (1.0 - eb))
        draws[b] = _weighted_ate(yb, ab, wb)
    return ate, float(np.nanstd(draws, ddof=1))


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
        baselines = analyze_baselines(d, specs, cfg)
    placebo_a = (substream(seed, "placebo-treatment").random(d.n) < 0.5).astype(np.int64)
    ate_se = None

    def record(i, key, result):
        nonlocal ate_se
        if ate_se is None:
            ate_se = _placebo_ate(result.prepared, seed, n_bootstrap)
        return PlaceboResult(
            ate_estimate=ate_se[0], ate_se=ate_se[1],
            rank_rmse_vs_original=rank_rmse(result.ranked.level, baselines[i].ranked.level),
            levels=result.ranked.level)

    out = _sweep([(None, d.with_treatment(placebo_a))], specs, baselines, cfg, record)
    return [o if isinstance(o, Exception) else o[0] for o in out]


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


def _summarize(records: list[ConfoundingRecord],
               configs: list[ConfounderConfig]) -> SensitivityReport:
    summaries = []
    for ci, ccfg in enumerate(configs):
        sub = [rec for rec in records if rec.config_index == ci]
        ov = np.array([rec.overlap for rec in sub])
        rr = np.array([rec.rank_rmse_vs_baseline for rec in sub])
        summaries.append(ConfoundingSummary(
            config_index=ci, alpha=ccfg.alpha, epsilon=ccfg.epsilon,
            mean_overlap=float(ov.mean()), sd_overlap=float(ov.std(ddof=1)) if len(ov) > 1 else 0.0,
            mean_rank_rmse=float(rr.mean()), sd_rank_rmse=float(rr.std(ddof=1)) if len(rr) > 1 else 0.0))
    return SensitivityReport(placebo=None, records=tuple(records),
                             summaries=tuple(summaries))


def confounding_overlap(d: Dataset, specs: list[ModelSpec],
                        configs: list[ConfounderConfig], runs: int = 3,
                        cfg: AnalysisConfig = AnalysisConfig(), seed: int = 0,
                        baselines: list | None = None) -> list:
    """Append a synthetic confounder, re-run every spec's analysis, measure
    stability.

    For each (config, run) a confounder is drawn from a seed that depends on
    (seed, config index, run index) only, never on the model, so every spec
    faces identical draws. Each confounded cohort is drawn and prepared once
    and analyzed with every spec before the next is drawn. Reports the
    overlap of strictly-above-median units and the rank RMSE between
    baseline and confounded-run levels. ``baselines`` are as in
    ``placebo_test``. Returns one ``SensitivityReport`` per spec, or the
    exception that ended the spec.
    """
    if baselines is None:
        baselines = analyze_baselines(d, specs, cfg)

    def cohorts():
        for ci, ccfg in enumerate(configs):
            for r in range(runs):
                draw_cfg = replace(ccfg, seed=derive_seed(seed, "confounder-run", ci, r))
                u, corr_a, corr_y = generate_confounder(d, draw_cfg)
                yield (ci, r, corr_a, corr_y), d.with_covariate(f"u_synth_{ci}_{r}", u)

    def record(i, key, result):
        ci, r, corr_a, corr_y = key
        base = baselines[i]
        return ConfoundingRecord(
            config_index=ci, alpha=configs[ci].alpha, epsilon=configs[ci].epsilon, run=r,
            corr_u_a=corr_a, corr_u_y=corr_y,
            overlap=overlap_fraction(base.ites.ite, result.ites.ite),
            rank_rmse_vs_baseline=rank_rmse(base.ranked.level, result.ranked.level))

    out = _sweep(cohorts(), specs, baselines, cfg, record)
    return [o if isinstance(o, Exception) else _summarize(o, configs) for o in out]
