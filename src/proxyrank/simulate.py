"""Synthetic cohorts with known group-level effects of a hidden target treatment.

The generator draws covariates, assigns every unit to an effect group with a
known conditional effect, realizes potential outcomes under the hidden
assignment Z, and emits an observed proxy treatment A from a compliance
table conditional on Z. Two assumption-violation variants are provided:

* ``confounded`` injects a hidden U into both the outcome and the
  A-assignment logit, then masks it, breaking ignorability.
* ``negative_compliance`` uses a table where Z discourages A, so the
  A-based effect ranking comes out reversed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DataValidationError, GroundTruth, row_ranges
from .propensity import _sigmoid
from .rng import substream


class ConfigError(ValueError):
    pass


MODES = ("clean", "confounded", "negative_compliance")

# Compliance defaults per mode. The clean table is strong (lift 0.8) so the
# proxy ranking is sharply identified at n=10k; the negative table is a mild
# inversion (lift -0.3) so the reversal is noisy rather than exact. A full
# swap of the clean table makes the reversed ranking nearly perfect, which is
# neither realistic nor useful as a diagnostic target.
_DEFAULT_COMPLIANCE = {
    "clean": (0.9, 0.1),
    "confounded": (0.9, 0.1),
    "negative_compliance": (0.35, 0.65),
}


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


@dataclass(frozen=True)
class SimConfig:
    """Configuration for one simulated cohort.

    Attributes
    ----------
    n, k : int
        Unit count and covariate dimension (the group indicator block is
        embedded in the k columns, see ``embed_groups``).
    cate_levels : tuple of float
        Group-level effect of the hidden treatment Z on the outcome.
    coef_values, coef_probs : tuples
        Support and selection probabilities for the integer outcome
        coefficients.
    noise_sd : float
        Std of the additive Gaussian outcome noise.
    compliance_table : (float, float) or None
        (P(A=1 | Z=1), P(A=1 | Z=0)); None picks the per-mode default.
    z_assignment_prob : float
        Marginal P(Z=1) for the hidden assignment.
    z_covariate_strength : float
        When > 0, the Z-assignment logit gains a dense covariate index of
        this strength, making X a genuine observed confounder of A and Y.
    mode : str
        "clean", "confounded", or "negative_compliance".
    confounder_strength : float
        Coefficient of the hidden U in the outcome and (when
        ``confound_treatment``) in the A-assignment logit.
    confound_treatment : bool
        When False, U enters only the outcome: a pure noise variable rather
        than a confounder, kept for comparison runs.
    embed_groups : bool
        Append a one-hot group-indicator block as the last len(cate_levels)
        covariate columns. Without it the effect group is independent of X
        and no model can rank units better than chance.
    """

    n: int = 10_000
    k: int = 50
    cate_levels: tuple[float, ...] = (10.0, 20.0, 30.0, 40.0)
    coef_values: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0)
    coef_probs: tuple[float, ...] = (0.40, 0.30, 0.15, 0.10, 0.05)
    noise_sd: float = 1.0
    compliance_table: tuple[float, float] | None = None
    z_assignment_prob: float = 0.5
    z_covariate_strength: float = 0.0
    mode: str = "clean"
    confounder_strength: float = 2.0
    confound_treatment: bool = True
    embed_groups: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n <= 0:
            raise ConfigError("n must be positive")
        if self.k < 0:
            raise ConfigError("k must be >= 0")
        if len(self.cate_levels) < 1:
            raise ConfigError("need at least one effect group")
        if self.embed_groups and self.k < len(self.cate_levels):
            raise ConfigError("k must be at least len(cate_levels) to embed group indicators")
        if len(self.coef_values) != len(self.coef_probs):
            raise ConfigError("coef_values and coef_probs lengths differ")
        if abs(sum(self.coef_probs) - 1.0) > 1e-9 or min(self.coef_probs) < 0:
            raise ConfigError("coef_probs must be a probability vector")
        if self.noise_sd < 0:
            raise ConfigError("noise_sd must be >= 0")
        if not 0.0 < self.z_assignment_prob < 1.0:
            raise ConfigError("z_assignment_prob must lie in (0, 1)")
        p11, p10 = self.compliance()
        for p in (p11, p10):
            if not 0.0 < p < 1.0:
                raise ConfigError("compliance probabilities must lie in (0, 1)")
        if self.mode in ("clean", "confounded") and not p11 > p10:
            raise ConfigError("clean/confounded modes require positive compliance "
                              f"(got P(A|Z=1)={p11}, P(A|Z=0)={p10})")
        if self.mode == "negative_compliance" and not p11 < p10:
            raise ConfigError("negative_compliance mode requires P(A|Z=1) < P(A|Z=0)")

    def compliance(self) -> tuple[float, float]:
        if self.compliance_table is not None:
            return self.compliance_table
        return _DEFAULT_COMPLIANCE[self.mode]

    @property
    def n_groups(self) -> int:
        return len(self.cate_levels)


@dataclass(frozen=True)
class SimOutput:
    """Observed (masked) and oracle views of one simulated cohort.

    ``observed`` carries X, A, Y only. ``oracle`` is the same rows plus the
    full ground-truth record; ``hidden_confounder`` is the masked U draw
    (zeros outside confounded mode).
    """

    observed: Dataset
    oracle: Dataset
    hidden_confounder: np.ndarray
    config: SimConfig


def draw_outcomes(cfg: SimConfig):
    """Covariates and potential outcomes of a cohort, each random piece from
    its own named substream.

    Returns (X, names, groups, u, y0, y1): groups are the 0-based effect
    groups, u is the standard-normal hidden confounder draw, and y1 adds the
    group effect to y0. In confounded mode U enters y0 with coefficient
    ``confounder_strength``.

    X is one (n, k) array, filled in place: the noise columns are drawn
    from the ``"x"`` substream one row range (``row_ranges``) at a time,
    which continues one stream, so X holds the values of a single
    (n, noise columns) draw, and the one-hot group columns are set in X.
    """
    n, k, L = cfg.n, cfg.k, cfg.n_groups
    seed = cfg.seed
    noise_dims = k - L if cfg.embed_groups else k
    X = np.zeros((n, k))
    x_stream = substream(seed, "x")
    for lo, hi in row_ranges(n):
        X[lo:hi, :noise_dims] = x_stream.standard_normal((hi - lo, noise_dims))
    names = tuple(f"x{j}" for j in range(noise_dims))
    groups = np.tile(np.arange(L), n // L + 1)[:n]
    substream(seed, "groups").shuffle(groups)
    if cfg.embed_groups:
        X[np.arange(n), noise_dims + groups] = 1.0
        names += tuple(f"g{j}" for j in range(L))
    beta = substream(seed, "beta").choice(
        np.asarray(cfg.coef_values, dtype=float), size=k, p=cfg.coef_probs)
    u = substream(seed, "u").standard_normal(n)
    y0 = X @ beta + substream(seed, "eps").normal(0.0, cfg.noise_sd, n)
    if cfg.mode == "confounded":
        y0 = y0 + cfg.confounder_strength * u
    y1 = y0 + np.asarray(cfg.cate_levels, dtype=float)[groups]
    return X, names, groups, u, y0, y1


def draw_proxy(cfg: SimConfig, z: np.ndarray, draw: np.ndarray,
               shift: float | np.ndarray = 0.0) -> np.ndarray:
    """Proxy treatment A given the assignment z: A = 1 where ``draw``
    (uniform on [0, 1)) falls below the compliance-table probability
    P(A=1 | z), its logit moved by ``shift``."""
    p11, p10 = cfg.compliance()
    a_logit = np.where(z == 1, _logit(p11), _logit(p10)) + shift
    return (draw < _sigmoid(a_logit)).astype(np.int64)


def simulate_cohort(cfg: SimConfig) -> SimOutput:
    """Generate one cohort; bit-identical for identical (config, seed).

    Potential outcomes are indexed by the hidden assignment Z: the baseline
    is a linear function of the covariates plus Gaussian noise, and the
    treated outcome adds the unit's group effect. A is drawn from the
    compliance table conditional on Z; the observed outcome is the potential
    outcome selected by Z. In confounded mode a standard-normal U is added
    to the outcome with coefficient ``confounder_strength`` and (by default)
    shifts the A-assignment logit by the same coefficient before masking.
    """
    X, names, groups, u, y0, y1 = draw_outcomes(cfg)
    z_logit = np.full(cfg.n, _logit(cfg.z_assignment_prob))
    if cfg.z_covariate_strength > 0.0:
        direction = substream(cfg.seed, "z_direction").standard_normal(cfg.k) / np.sqrt(cfg.k)
        z_logit = z_logit + cfg.z_covariate_strength * (X @ direction)
    z = (substream(cfg.seed, "z").random(cfg.n) < _sigmoid(z_logit)).astype(np.int64)

    confounded = cfg.mode == "confounded"
    # No recalibration: the U shift attenuates the marginal compliance,
    # which is exactly the ignorability violation being simulated.
    a = draw_proxy(cfg, z, substream(cfg.seed, "a").random(cfg.n),
                   cfg.confounder_strength * u if confounded and cfg.confound_treatment
                   else 0.0)

    y = np.where(z == 1, y1, y0)
    cate = np.asarray(cfg.cate_levels, dtype=float)
    gt = GroundTruth(true_group=groups + 1, true_cate=cate[groups], y0=y0, y1=y1, z=z)
    oracle = Dataset(X, a, y, names, gt)
    observed = oracle.without_ground_truth()
    hidden = u if confounded else np.zeros(cfg.n)
    return SimOutput(observed=observed, oracle=oracle,
                     hidden_confounder=hidden, config=cfg)


def ground_truth_rank(out: SimOutput | Dataset) -> np.ndarray:
    """Per-unit effect level (1..L): smallest group effect is level 1.

    Groups with equal effects share a level.
    """
    oracle = out.oracle if isinstance(out, SimOutput) else out
    if oracle.ground_truth is None:
        raise DataValidationError("ground truth is required to compute true levels")
    cate = oracle.ground_truth.true_cate
    return (np.searchsorted(np.unique(cate), cate) + 1).astype(np.int64)
