"""Instrumental-variable validation of a ranking on a randomized campaign.

A simulated campaign randomizes the encouragement z, lets the proxy action A
follow the compliance table, and realizes the outcome through A. Splitting
the cohort at a predicted-effect threshold and estimating each side's effect
with the Wald ratio (intent-to-treat divided by compliance) checks whether
the high group truly out-responds the low group at every threshold.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, DataValidationError, GroundTruth
from .ranking import _descending_ranks, top_count
from .rng import substream
from .simulate import ConfigError, SimConfig, draw_outcomes, draw_proxy


class WeakInstrumentError(ValueError):
    pass


@dataclass(frozen=True)
class IVExperiment:
    """A cohort with a randomized instrument."""

    data: Dataset
    z: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z)  # checked as given, then stored as int64
        if len(z) != self.data.n:
            raise DataValidationError("z length differs from dataset length")
        if self.data.n and not np.isin(z, (0, 1)).all():
            raise DataValidationError("z must be 0/1")
        z = np.asarray(z, dtype=np.int64)
        if self.data.n and z.min() == z.max():
            raise DataValidationError("single-arm instrument: both z arms are required")
        object.__setattr__(self, "z", z)


def simulate_campaign(cfg: SimConfig, exposure: float = 0.661) -> IVExperiment:
    """Draw a fresh cohort where z ~ Bernoulli(exposure) independent of X.

    Unlike the observational generator, the campaign realizes the outcome
    through the proxy action: y = y1 if A=1 else y0, with A drawn from the
    compliance table conditional on the randomized z. The group effect is
    therefore the effect of A, z is a clean instrument, and the Wald ratio
    within any subgroup targets that subgroup's mean effect. The campaign has
    no hidden U: its outcomes are those of clean mode, and A follows the
    configured ``compliance_table``, or the clean table when none is set.
    """
    if not 0.0 < exposure < 1.0:
        raise ConfigError("exposure must lie in (0, 1)")
    clean = replace(cfg, mode="clean", compliance_table=None)
    X, names, groups, _, y0, y1 = draw_outcomes(clean)
    z = (substream(cfg.seed, "campaign-z").random(cfg.n) < exposure).astype(np.int64)
    a = draw_proxy(clean if cfg.compliance_table is None else cfg, z,
                   substream(cfg.seed, "campaign-a").random(cfg.n))
    y = np.where(a == 1, y1, y0)
    cate = np.asarray(cfg.cate_levels, dtype=float)
    gt = GroundTruth(true_group=groups + 1, true_cate=cate[groups], y0=y0, y1=y1, z=z)
    data = Dataset(X, a, y, names, gt)
    return IVExperiment(data=data, z=z)


@dataclass(frozen=True)
class WaldEstimate:
    cate: float
    se: float
    first_stage: float
    n_group: int
    n_z1: int
    n_z0: int


def wald_2sls(e: IVExperiment, group: np.ndarray | None = None,
              min_first_stage: float = 0.01) -> WaldEstimate:
    """Wald ratio within a group: (E[Y|z=1] - E[Y|z=0]) / (E[A|z=1] - E[A|z=0]).

    With a single randomized binary instrument and no covariates this equals
    two-stage least squares. The standard error comes from the delta method
    over the four arm means. A first stage below ``min_first_stage`` in
    absolute value raises :class:`WeakInstrumentError`.
    """
    idx = np.arange(e.data.n) if group is None else np.asarray(group)
    z = e.z[idx]
    y = e.data.outcome[idx]
    a = e.data.treatment[idx].astype(np.float64)
    n1 = int((z == 1).sum())
    n0 = int((z == 0).sum())
    if n1 == 0 or n0 == 0:
        raise DataValidationError("group contains a single instrument arm")
    y1, y0 = y[z == 1], y[z == 0]
    a1, a0 = a[z == 1], a[z == 0]
    dy = float(y1.mean() - y0.mean())
    da = float(a1.mean() - a0.mean())
    if abs(da) < min_first_stage:
        raise WeakInstrumentError(
            f"first stage {da:.4g} is below {min_first_stage}: instrument too weak")
    wald = dy / da

    def arm_var(v):
        return float(v.var(ddof=1)) / len(v) if len(v) > 1 else 0.0

    def arm_cov(u, v):
        if len(u) < 2:
            return 0.0
        return float(np.cov(u, v, ddof=1)[0, 1]) / len(u)

    var_dy = arm_var(y1) + arm_var(y0)
    var_da = arm_var(a1) + arm_var(a0)
    cov = arm_cov(y1, a1) + arm_cov(y0, a0)
    var_wald = (var_dy / da ** 2 + dy ** 2 * var_da / da ** 4
                - 2.0 * dy * cov / da ** 3)
    se = float(np.sqrt(max(var_wald, 0.0)))
    return WaldEstimate(cate=wald, se=se, first_stage=da,
                        n_group=len(idx), n_z1=n1, n_z0=n0)


@dataclass(frozen=True)
class IVGroupRecord:
    k: float
    group: str  # "high" or "low"
    estimate: WaldEstimate | None
    skipped: str | None = None


@dataclass(frozen=True)
class IVResult:
    """Per-threshold high/low effect estimates and separation flags."""

    records: tuple[IVGroupRecord, ...]
    separation: dict  # k -> bool | None (None when a side was skipped)

    def separated_fraction(self) -> float | None:
        """The share of measured thresholds where the high group out-responds
        the low one; None when no threshold was measured."""
        flags = [v for v in self.separation.values() if v is not None]
        return float(np.mean(flags)) if flags else None


DEFAULT_K_GRID = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0)


def validate_ranking_splits(e: IVExperiment, predicted_ite: np.ndarray,
                            k_grid=DEFAULT_K_GRID, min_arm: int = 50) -> IVResult:
    """Wald estimates for top-k / rest splits of the ranking of
    ``predicted_ite``, one predicted effect per unit of the campaign ``e``.

    Groups with fewer than ``min_arm`` units in either instrument arm are
    skipped with a note rather than estimated.
    """
    n = e.data.n
    predicted_ite = np.asarray(predicted_ite, dtype=np.float64)
    if len(predicted_ite) != n:
        raise DataValidationError("predicted_ite length differs from dataset length")
    rank = _descending_ranks(predicted_ite)  # high at k: top_fraction_indices
    records = []
    separation: dict = {}
    for k in k_grid:
        m = top_count(n, k)
        high, low = np.flatnonzero(rank <= m), np.flatnonzero(rank > m)
        estimates = {}
        for name, idx in (("high", high), ("low", low)):
            if idx.size == 0:
                records.append(IVGroupRecord(k=k, group=name, estimate=None,
                                             skipped="empty group"))
                estimates[name] = None
                continue
            zg = e.z[idx]
            n1, n0 = int((zg == 1).sum()), int((zg == 0).sum())
            if min(n1, n0) < min_arm:
                records.append(IVGroupRecord(
                    k=k, group=name, estimate=None,
                    skipped=f"instrument arm below {min_arm} units ({n1}/{n0})"))
                estimates[name] = None
                continue
            est = wald_2sls(e, idx)
            records.append(IVGroupRecord(k=k, group=name, estimate=est))
            estimates[name] = est
        if estimates.get("high") is not None and estimates.get("low") is not None:
            separation[k] = bool(estimates["high"].cate > estimates["low"].cate)
        else:
            separation[k] = None
    return IVResult(records=tuple(records), separation=separation)
