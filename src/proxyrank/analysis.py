"""Single-model analysis chain: propensity, trimming, weighting, outcome fit,
per-unit effects, ranking.

The model is fit on the trimmed cohort; effect estimates and the ranking
cover the full input cohort (trimming shapes the fit, not the population
being ranked).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import Dataset
from .outcomes import (FeatureMap, ITETable, OutcomeModel, compute_ite, fit_outcome_model,
                       make_estimator)
from .propensity import (BalanceReport, PropensityFit, balance_report, fit_propensity,
                         ipw_weights, trim_rows)
from .ranking import RankedCohort, rank_and_bucket
from .simulate import ConfigError


@dataclass(frozen=True)
class ModelSpec:
    """One outcome model to run: family, hyperparameters, and IPTW on/off.

    ``causal=False`` keeps the identical chain but uses unit weights, giving
    the plain (non-causal) regression counterpart.
    """

    family: str = "linear_wls"
    hyperparams: dict = field(default_factory=dict)
    causal: bool = True
    include_treatment: bool = True
    interactions: bool = True
    label: str = ""

    def __post_init__(self) -> None:  # the one check of a spec: raises ModelError
        self.feature_map().check(make_estimator(self.family, self.hyperparams))

    def name(self) -> str:
        if self.label:
            return self.label
        prefix = "iptw_" if self.causal else ""
        return prefix + self.family

    def feature_map(self) -> FeatureMap:
        return FeatureMap(include_treatment=self.include_treatment,
                          interactions=self.interactions)


@dataclass(frozen=True)
class AnalysisConfig:
    """Shared (model-independent) analysis stages and their parameters.

    ``report_range`` optionally clamps emitted counterfactual predictions to
    a known outcome range (for bounded outcomes such as day counts); models
    themselves never clamp.
    """

    trim_lo: float = 0.01
    trim_hi: float = 0.99
    propensity_l2: float = 0.0
    propensity_tol: float = 1e-6
    propensity_max_iter: int = 500
    n_levels: int = 4
    balance_threshold: float = 0.2
    report_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.trim_lo < self.trim_hi <= 1.0:
            raise ConfigError("trim_lo and trim_hi need 0 <= trim_lo < trim_hi <= 1")
        if not self.propensity_l2 >= 0.0:
            raise ConfigError("propensity_l2 must be >= 0")
        if not self.propensity_tol > 0.0:
            raise ConfigError("propensity_tol must be > 0")
        if not self.propensity_max_iter >= 1:
            raise ConfigError("propensity_max_iter must be >= 1")
        if not self.n_levels >= 1:
            raise ConfigError("n_levels must be >= 1")
        if self.report_range is not None and not (len(self.report_range) == 2
                                                  and self.report_range[0] < self.report_range[1]):
            raise ConfigError(f"report_range must be [lo, hi] with lo < hi, "
                              f"got {list(self.report_range)}")


@dataclass
class PreparedCohort:
    """Propensity fit, trimmed rows and stabilized weights (model-free).

    ``keep`` holds the indices of the rows of ``full`` that survive
    trimming, in row order; ``fit`` and ``weights`` cover those rows only.
    The trimmed cohort itself is built on first read, in whichever process
    reads it: a forked worker that fits a model builds its own copy, and the
    process that prepared the cohort need never hold one.
    """

    full: Dataset
    keep: np.ndarray
    fit: PropensityFit
    weights: np.ndarray
    balance_threshold: float

    @cached_property
    def trimmed(self) -> Dataset:
        """The rows of ``full`` that survive trimming."""
        return self.full.subset(self.keep)

    @cached_property
    def balance(self) -> BalanceReport:
        """Covariate balance of the weighted, trimmed cohort, computed on first
        read: the sensitivity sweep's cohorts never need it."""
        return balance_report(self.trimmed, self.weights, self.balance_threshold)


@dataclass
class AnalysisResult:
    prepared: PreparedCohort
    spec: ModelSpec
    model: OutcomeModel
    ites: ITETable
    ranked: RankedCohort


def prepare_cohort(d: Dataset, cfg: AnalysisConfig = AnalysisConfig()) -> PreparedCohort:
    fit = fit_propensity(d, l2=cfg.propensity_l2, tol=cfg.propensity_tol,
                         max_iter=cfg.propensity_max_iter)
    keep, fit_t = trim_rows(fit, d.treatment, cfg.trim_lo, cfg.trim_hi)
    weights = ipw_weights(d.treatment[keep], fit_t.scores, fit_t.marginal)
    return PreparedCohort(full=d, keep=keep, fit=fit_t, weights=weights,
                          balance_threshold=cfg.balance_threshold)


def analyze_model(prepared: PreparedCohort, spec: ModelSpec,
                  cfg: AnalysisConfig = AnalysisConfig()) -> AnalysisResult:
    weights = prepared.weights if spec.causal else np.ones(len(prepared.keep))
    model = fit_outcome_model(prepared.trimmed, weights, spec.family,
                              feature_map=spec.feature_map(), **spec.hyperparams)
    ites = compute_ite(model, prepared.full)
    ranked = rank_and_bucket(ites.ite, cfg.n_levels)
    return AnalysisResult(prepared=prepared, spec=spec, model=model,
                          ites=ites, ranked=ranked)


def run_analysis(d: Dataset, spec: ModelSpec,
                 cfg: AnalysisConfig = AnalysisConfig()) -> AnalysisResult:
    """Full chain for one model on one cohort."""
    return analyze_model(prepare_cohort(d, cfg), spec, cfg)
