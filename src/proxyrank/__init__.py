"""proxyrank: rank individuals by the estimated causal effect of a proxy treatment.

Workflow: simulate or load a cohort, fit a logistic treatment model, trim
extreme scores, weight by stabilized inverse propensity, fit a weighted
outcome regressor, rank per-unit effect estimates, then stress the result
with placebo and synthetic-confounder sensitivity analyses and (for
simulated campaigns) an instrumental-variable validation.
"""

__version__ = "0.1.0"

from . import parallel  # first: it pins the BLAS threads before numpy loads
from .analysis import (AnalysisConfig, AnalysisResult, ModelSpec, PreparedCohort,
                       analyze_model, prepare_cohort, run_analysis)
from .data import (Dataset, DataValidationError, GroundTruth, SchemaError,
                   load_dataset, load_schema, save_dataset)
from .outcomes import (FAMILIES, FeatureMap, ITETable, ModelError, OutcomeModel,
                       compute_ite, fit_outcome_model)
from .pipeline import (ModelReport, RunConfig, RunReport, StageError,
                       emit_report, run_pipeline)
from .propensity import (BalanceReport, BalanceRow, FitError, PropensityFit,
                         balance_report, fit_propensity, trim_extremes)
from .ranking import (RankedCohort, RankingError, rank_and_bucket, rank_rmse,
                      spearman_correlation, top_fraction_indices)
from .sensitivity import (ConfounderConfig, ConfoundingRecord, ConfoundingSummary,
                          PlaceboResult, SensitivityReport, confounding_overlap,
                          generate_confounder, overlap_fraction, placebo_test,
                          posterior_parameters)
from .simulate import (MODES, ConfigError, SimConfig, SimOutput,
                       ground_truth_rank, simulate_cohort)
from .validation import (IVExperiment, IVResult, WaldEstimate, WeakInstrumentError,
                         simulate_campaign, validate_ranking_splits, wald_2sls)

__all__ = [
    "__version__",
    "AnalysisConfig", "AnalysisResult", "ModelSpec", "PreparedCohort",
    "analyze_model", "prepare_cohort", "run_analysis",
    "Dataset", "DataValidationError", "GroundTruth", "SchemaError",
    "load_dataset", "load_schema", "save_dataset",
    "FAMILIES", "FeatureMap", "ITETable", "ModelError", "OutcomeModel",
    "compute_ite", "fit_outcome_model",
    "ModelReport", "RunConfig", "RunReport", "StageError",
    "emit_report", "run_pipeline",
    "BalanceReport", "BalanceRow", "FitError", "PropensityFit",
    "balance_report", "fit_propensity", "trim_extremes",
    "RankedCohort", "RankingError", "rank_and_bucket", "rank_rmse",
    "spearman_correlation", "top_fraction_indices",
    "ConfounderConfig", "ConfoundingRecord", "ConfoundingSummary",
    "PlaceboResult", "SensitivityReport", "confounding_overlap",
    "generate_confounder", "overlap_fraction", "placebo_test",
    "posterior_parameters",
    "MODES", "ConfigError", "SimConfig", "SimOutput",
    "ground_truth_rank", "simulate_cohort",
    "IVExperiment", "IVResult", "WaldEstimate", "WeakInstrumentError",
    "simulate_campaign", "validate_ranking_splits", "wald_2sls",
]
