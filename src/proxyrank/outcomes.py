"""Weighted outcome regressors f(x, a) and per-unit effect estimates.

Every family minimizes a weighted empirical loss sum_i w_i * L(y_i, f(x_i, a_i));
with unit weights each fit reduces exactly to the ordinary (non-causal)
regression. The per-unit effect estimate is f(x, 1) - f(x, 0), with both
counterfactual predictions retained. ``ESTIMATORS`` maps each family to
its estimator class.

Linear-type families use a design of [1 | x | a | a*x] by default; without
the interaction block they cannot express heterogeneous effects (their
estimate is the same for every unit). Tree families learn interactions
natively. Note that ``svr_linear`` consumes features on their raw scale, as
SVM implementations conventionally do; standardize covariates first if they
live on wildly different scales.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import Dataset, row_ranges
from .rng import substream
from .trees import (GradientBoostedTrees, RandomForest, RegressionTree, _TreeModel,
                    _check_count, _is_integer)


class ModelError(ValueError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ModelError(message)


@dataclass(frozen=True)
class FeatureMap:
    """How (x, a) is encoded for the linear-type families.

    ``include_treatment`` appends the treatment column; ``interactions``
    additionally appends the full a*x block. Tree families receive [x | a]
    raw (or [x] when the treatment column is excluded).
    """

    include_treatment: bool = True
    interactions: bool = True

    def __post_init__(self) -> None:
        if self.interactions and not self.include_treatment:
            raise ModelError("interaction features require the treatment column")

    def design(self, X: np.ndarray, a: np.ndarray) -> np.ndarray:
        """[1 | x | a | a*x], filled in place: no column block is built twice."""
        n, k = X.shape
        D = np.empty((n, 1 + k + self.include_treatment + k * self.interactions))
        D[:, 0] = 1.0
        D[:, 1:k + 1] = X
        if self.include_treatment:
            D[:, k + 1] = a
        if self.interactions:
            np.multiply(a[:, None], X, out=D[:, k + 2:])
        return D

    def features(self, estimator, X: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The design, or [x | a] raw when ``estimator`` is a tree model."""
        if not isinstance(estimator, _TreeModel):
            return self.design(X, a)
        return np.hstack([X, a[:, None].astype(np.float64)]) if self.include_treatment else X

    def check(self, estimator) -> None:
        """Raise ModelError if ``interactions: false`` would configure nothing:
        a tree on [x | a] crosses a with x itself."""
        if isinstance(estimator, _TreeModel) and self.include_treatment and not self.interactions:
            raise ModelError("tree families cross the treatment with x themselves: "
                             "interactions: false needs include_treatment: false")

    def heterogeneous(self, estimator) -> bool:
        """Can a fit on ``features`` vary its effect by unit? Trees cross a with x themselves."""
        return self.interactions or (self.include_treatment and isinstance(estimator, _TreeModel))


@dataclass
class OutcomeModel:
    """A fitted regressor supporting counterfactual prediction for both arms."""

    family: str
    feature_map: FeatureMap
    n_features: int
    final_loss: float
    _predictor: object = field(repr=False)

    loss_kind = property(lambda self: self._predictor.loss_kind)
    n_iter = property(lambda self: self._predictor.n_iter)
    params = property(lambda self: vars(self._predictor))  # hyperparameters and fitted state
    heterogeneous = property(lambda self: self.feature_map.heterogeneous(self._predictor))

    def predict(self, X: np.ndarray, a: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        a = np.asarray(a)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ModelError(f"expected {self.n_features} covariates, got "
                             f"{X.shape[1] if X.ndim == 2 else 'non-matrix'}")
        return self._predictor.predict(self.feature_map.features(self._predictor, X, a))


def _poisson_deviance(y, mu, w):
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(y / mu), 0.0)
    return float(2.0 * np.sum(w * (term - (y - mu))))


def _fit_svr(D, y, w, epsilon=0.1, C=1.0, lr0=0.1, epochs=30, batch_size=64,
             grad_clip=1.0, seed=0):
    """Primal epsilon-insensitive subgradient descent (last iterate), as
    ``(theta, y_mean, y_scale, steps)``.

    The outcome is standardized internally so the default step sizes are
    scale-free in y; the design is consumed raw.

    Each step gathers its batch rows once and weights each by
    ``copysign(w, resid)`` outside the epsilon tube and by zero inside it, so
    the data term is one BLAS product ``c @ Db`` over the whole batch.
    ``tests/svr_oracle.py`` computes the same product on its own gather and
    must match this bit for bit.
    """
    y_mean, y_scale = float(y.mean()), float(y.std()) or 1.0
    yn = (y - y_mean) / y_scale
    wn = w / w.mean()
    n, p = D.shape
    lam = 1.0 / (C * n)
    theta = np.zeros(p)
    rng = substream(seed, "svr")
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        yo, wo = yn[order], wn[order]
        for s in range(0, n, batch_size):
            e = s + batch_size
            Db = D.take(order[s:e], axis=0)
            t += 1
            resid = yo[s:e] - Db @ theta
            c = np.copysign(wo[s:e], resid)
            c *= np.abs(resid) > epsilon  # zero the rows inside the tube
            grad = lam * theta
            grad[0] = 0.0  # intercept unpenalized
            grad -= (c @ Db) / len(resid)
            if grad_clip is not None:
                norm = math.sqrt(grad @ grad)
                if norm > grad_clip:
                    grad *= grad_clip / norm
            grad *= lr0 / math.sqrt(t)
            theta -= grad
    return theta, y_mean, y_scale, t


@dataclass
class LinearWLS:
    """Closed-form weighted least squares; ``l2`` penalizes all but the intercept."""

    l2: float = 0.0
    loss_kind = "squared_error"
    n_iter = 1

    def __post_init__(self) -> None:
        _require(self.l2 >= 0, "l2 must be >= 0")

    def fit(self, D: np.ndarray, y: np.ndarray, w: np.ndarray) -> "LinearWLS":
        if self.l2 == 0.0:
            sq = np.sqrt(w)
            self.coefficients = np.linalg.lstsq(D * sq[:, None], y * sq, rcond=None)[0]
        else:
            pen = np.full(D.shape[1], self.l2)
            pen[0] = 0.0  # intercept unpenalized
            self.coefficients = np.linalg.solve(D.T @ (D * w[:, None]) + np.diag(pen),
                                                D.T @ (w * y))
        return self

    def predict(self, D: np.ndarray) -> np.ndarray:
        return D @ self.coefficients

    def loss(self, D: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
        return float(np.sum(w * (y - self.predict(D)) ** 2))


@dataclass
class PoissonRegression:
    """Log-link Poisson regression by IRLS, for non-negative outcomes."""

    tol: float = 1e-8
    max_iter: int = 100
    loss_kind = "poisson_deviance"

    def __post_init__(self) -> None:
        _require(self.tol > 0, "poisson requires tol > 0")
        _check_count("max_iter", self.max_iter, 1)

    def fit(self, D: np.ndarray, y: np.ndarray, w: np.ndarray) -> "PoissonRegression":
        _require(not (y < 0).any(), "poisson family requires non-negative outcomes")
        p = D.shape[1]
        self.coefficients = np.zeros(p)
        self.coefficients[0] = np.log(max(np.average(y, weights=w), 1e-8))
        dev = self.loss(D, y, w)
        self.n_iter = 0
        while self.n_iter < self.max_iter:
            mu = self.predict(D)
            grad = D.T @ (w * (y - mu))
            if np.max(np.abs(grad)) < self.tol * max(1.0, abs(dev)):
                break
            step = np.linalg.solve(D.T @ (D * (w * mu)[:, None]) + 1e-10 * np.eye(p), grad)
            self.n_iter += 1
            # step halving keeps the deviance non-increasing
            coef, scale = self.coefficients, 1.0
            while scale > 1e-8:
                self.coefficients = coef + scale * step
                new_dev = self.loss(D, y, w)
                if new_dev <= dev + 1e-12:
                    dev = new_dev
                    break
                scale *= 0.5
            else:
                self.coefficients = coef
                break
        return self

    def predict(self, D: np.ndarray) -> np.ndarray:
        return np.exp(np.clip(D @ self.coefficients, -30.0, 30.0))

    def loss(self, D: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
        return _poisson_deviance(y, self.predict(D), w)


@dataclass
class LinearSVR:
    """Linear epsilon-insensitive regression by subgradient descent (``_fit_svr``)."""

    epsilon: float = 0.1
    C: float = 1.0
    lr0: float = 0.1
    epochs: int = 30
    batch_size: int = 64
    grad_clip: float | None = 1.0
    seed: int = 0
    loss_kind = "epsilon_insensitive"

    def __post_init__(self) -> None:
        _require(self.C > 0 and self.epsilon >= 0, "svr_linear requires C > 0 and epsilon >= 0")
        _require(self.lr0 > 0, "svr_linear requires lr0 > 0")
        for name, value in (("epochs", self.epochs), ("batch_size", self.batch_size)):
            _require(_is_integer(value) and value >= 1,
                     f"svr_linear {name} must be an integer >= 1")
        _require(_is_integer(self.seed), "svr_linear seed must be an integer")
        _require(self.grad_clip is None or self.grad_clip > 0,
                 "svr_linear grad_clip must be None or > 0")

    def fit(self, D: np.ndarray, y: np.ndarray, w: np.ndarray) -> "LinearSVR":
        self.theta, self.y_mean, self.y_scale, self.n_iter = _fit_svr(D, y, w, **asdict(self))
        return self

    def predict(self, D: np.ndarray) -> np.ndarray:
        return D @ self.theta * self.y_scale + self.y_mean

    def loss(self, D: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
        resid = (y - self.y_mean) / self.y_scale - D @ self.theta  # on the kernel's scale
        return float(np.sum(w * np.maximum(np.abs(resid) - self.epsilon, 0.0)))


# The one place a family is decided. Each estimator checks its hyperparameters
# when built and has fit(F, y, w), predict(F), loss(F, y, w), loss_kind, n_iter.
ESTIMATORS = {"linear_wls": LinearWLS, "poisson": PoissonRegression, "svr_linear": LinearSVR,
              "tree": RegressionTree, "forest": RandomForest, "boosted_trees": GradientBoostedTrees}
FAMILIES = tuple(ESTIMATORS)


def make_estimator(family: str, hyperparams: dict):
    """The unfitted estimator of ``family``; raises ModelError for a bad name or value."""
    _require(family in ESTIMATORS, f"unknown family {family!r}; choose from {FAMILIES}")
    accepted = [f.name for f in fields(ESTIMATORS[family]) if f.init]
    unknown = sorted(set(hyperparams) - set(accepted))
    _require(not unknown, f"{family} does not accept hyperparams {unknown}; "
                          f"it accepts {accepted}")
    flags = sorted(name for name, value in hyperparams.items() if isinstance(value, bool))
    _require(not flags, f"{family} hyperparams {flags} must be numbers, not booleans")
    infinite = sorted(n for n, v in hyperparams.items() if isinstance(v, float) and math.isinf(v))
    _require(not infinite, f"{family} hyperparams {infinite} must be finite")
    try:
        return ESTIMATORS[family](**hyperparams)
    except (TypeError, ValueError) as exc:  # a ModelError keeps its own text
        raise exc if isinstance(exc, ModelError) else ModelError(
            f"bad {family} hyperparams: {exc}") from None


def fit_outcome_model(d: Dataset, weights: np.ndarray | None = None, family: str = "linear_wls",
                      feature_map: FeatureMap | None = None, **hyperparams) -> OutcomeModel:
    """Fit a weighted outcome regressor of the requested family.

    ``weights=None`` or all-ones gives exactly the ordinary regression fit.
    Weights must be positive. Rescaling them all by a constant does not
    change the fitted model, except for ``linear_wls`` with ``l2 > 0`` (its
    penalty is absolute) and ``poisson`` (its start value and stop rule are
    not scale-free); ``poisson`` also varies with the outcome's scale.
    ``tests/test_equivariance.py`` checks these contracts to the bit.
    """
    est = make_estimator(family, hyperparams)
    fm = feature_map or FeatureMap()
    fm.check(est)
    w = np.ones(d.n) if weights is None else np.asarray(weights, dtype=np.float64)
    _require(len(w) == d.n, "weights length differs from dataset length")
    _require(d.n > 0, "cannot fit on an empty dataset")
    _require(w.min() > 0.0, "weights must be positive")  # NaN is not
    F = fm.features(est, d.covariates, d.treatment)
    est.fit(F, d.outcome, w)
    return OutcomeModel(family=family, feature_map=fm, n_features=d.k,
                        final_loss=est.loss(F, d.outcome, w), _predictor=est)


@dataclass(frozen=True)
class ITETable:
    """Per-unit effect estimates with both counterfactual predictions."""

    ite: np.ndarray
    y_hat_1: np.ndarray
    y_hat_0: np.ndarray


def compute_ite(model: OutcomeModel, d: Dataset) -> ITETable:
    """Per-unit f(x, 1) - f(x, 0) for every row of ``d``.

    Both arms are predicted one ``row_ranges`` range at a time, so no
    design of the whole cohort is built, and the bits are those of one
    whole-cohort product. Trees predict row by row. A BLAS matrix-vector
    product works through its rows in small groups and may round a group's
    tail rows differently, so a range cut at another row can change last
    bits. Every range starts at a multiple of the power-of-two
    ``_BLOCK_ROWS``, all but the last hold exactly that many rows and the
    last ends where the cohort does, so each row falls in the group it falls
    in within the whole product. numpy sends a one-row product to ``dot``
    instead, and only a one-row cohort has a one-row range.
    """
    if d.k != model.n_features:
        raise ModelError(f"model expects {model.n_features} covariates, dataset has {d.k}")
    y1, y0 = np.empty(d.n), np.empty(d.n)
    for lo, hi in row_ranges(d.n):
        X = d.covariates[lo:hi]
        y1[lo:hi] = model.predict(X, np.ones(hi - lo, dtype=np.int64))
        y0[lo:hi] = model.predict(X, np.zeros(hi - lo, dtype=np.int64))
    return ITETable(ite=y1 - y0, y_hat_1=y1, y_hat_0=y0)
