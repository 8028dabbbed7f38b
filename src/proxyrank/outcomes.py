"""Weighted outcome regressors f(x, a) and per-unit effect estimates.

Every family minimizes a weighted empirical loss sum_i w_i * L(y_i, f(x_i, a_i));
with unit weights each fit reduces exactly to the ordinary (non-causal)
regression. The per-unit effect estimate is f(x, 1) - f(x, 0), with both
counterfactual predictions retained.

Families
--------
linear_wls      closed-form weighted least squares
poisson         log-link Poisson regression (IRLS), for non-negative outcomes
svr_linear      linear epsilon-insensitive regression by subgradient descent
tree / forest / boosted_trees
                weighted CART variants consuming (x, a) raw

Linear-type families use a design of [1 | x | a | a*x] by default; without
the interaction block they cannot express heterogeneous effects (their
estimate is the same for every unit). Tree families learn interactions
natively. Note that ``svr_linear`` consumes features on their raw scale, as
SVM implementations conventionally do; standardize covariates first if they
live on wildly different scales.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .rng import substream
from .trees import GradientBoostedTrees, RandomForest, RegressionTree, _is_integer

FAMILIES = ("linear_wls", "poisson", "svr_linear", "tree", "forest", "boosted_trees")
_TREE_CLASSES = {"tree": RegressionTree, "forest": RandomForest,
                 "boosted_trees": GradientBoostedTrees}
_TREE_FAMILIES = tuple(_TREE_CLASSES)

_LOSS_KIND = {
    "linear_wls": "squared_error",
    "poisson": "poisson_deviance",
    "svr_linear": "epsilon_insensitive",
    "tree": "squared_error",
    "forest": "squared_error",
    "boosted_trees": "squared_error",
}


class ModelError(ValueError):
    pass


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
        cols = [np.ones((len(a), 1)), X]
        if self.include_treatment:
            cols.append(a.reshape(-1, 1).astype(np.float64))
        if self.interactions:
            cols.append(a.reshape(-1, 1) * X)
        return np.hstack(cols)

    def tree_design(self, X: np.ndarray, a: np.ndarray) -> np.ndarray:
        if self.include_treatment:
            return np.hstack([X, a.reshape(-1, 1).astype(np.float64)])
        return np.asarray(X, dtype=np.float64)


@dataclass
class OutcomeModel:
    """A fitted regressor supporting counterfactual prediction for both arms."""

    family: str
    feature_map: FeatureMap
    n_features: int
    params: dict
    loss_kind: str
    final_loss: float
    n_iter: int
    _predictor: object = field(default=None, repr=False)

    @property
    def heterogeneous(self) -> bool:
        """Whether the model can express unit-varying effects."""
        return (self.family in _TREE_FAMILIES and self.feature_map.include_treatment) \
            or self.feature_map.interactions

    def predict(self, X: np.ndarray, a: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        a = np.asarray(a)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ModelError(f"expected {self.n_features} covariates, got "
                             f"{X.shape[1] if X.ndim == 2 else 'non-matrix'}")
        if self.family in _TREE_FAMILIES:
            return self._predictor.predict(self.feature_map.tree_design(X, a))
        D = self.feature_map.design(X, a)
        if self.family == "linear_wls":
            return D @ np.asarray(self.params["coefficients"])
        if self.family == "poisson":
            eta = D @ np.asarray(self.params["coefficients"])
            return np.exp(np.clip(eta, -30.0, 30.0))
        if self.family == "svr_linear":
            theta = np.asarray(self.params["theta"])
            return D @ theta * self.params["y_scale"] + self.params["y_mean"]
        raise ModelError(f"unknown family {self.family!r}")


# Out-of-range hyperparameter values of the non-tree families:
# family -> ((name, is_bad, message), ...). The tree classes check their own.
# Each test is written so that NaN is out of range.
_BAD_VALUES = {
    "linear_wls": (("l2", lambda v: not v >= 0, "l2 must be >= 0"),),
    "svr_linear": (
        ("C", lambda v: not v > 0, "svr_linear requires C > 0 and epsilon >= 0"),
        ("epsilon", lambda v: not v >= 0, "svr_linear requires C > 0 and epsilon >= 0"),
        ("lr0", lambda v: not v > 0, "svr_linear requires lr0 > 0"),
        ("epochs", lambda v: not (_is_integer(v) and v >= 1),
         "svr_linear epochs must be an integer >= 1"),
        ("batch_size", lambda v: not (_is_integer(v) and v >= 1),
         "svr_linear batch_size must be an integer >= 1"),
        ("seed", lambda v: not _is_integer(v), "svr_linear seed must be an integer")),
}


def _check_values(family: str, hyperparams: dict) -> None:
    """Raise ModelError for an out-of-range value in ``hyperparams``; names
    it does not hold are not checked. ``fit_outcome_model`` calls this with
    its arguments and ``check_hyperparams`` with a config's."""
    for name, is_bad, message in _BAD_VALUES.get(family, ()):
        if name in hyperparams and is_bad(hyperparams[name]):
            raise ModelError(message)


def _fit_linear_wls(D, y, w, l2=0.0):
    sq = np.sqrt(w)
    if l2 == 0.0:
        coef, *_ = np.linalg.lstsq(D * sq[:, None], y * sq, rcond=None)
    else:
        A = D.T @ (D * w[:, None])
        pen = np.full(D.shape[1], l2)
        pen[0] = 0.0  # intercept unpenalized
        coef = np.linalg.solve(A + np.diag(pen), D.T @ (w * y))
    resid = y - D @ coef
    return coef, float(np.sum(w * resid ** 2))


def _poisson_deviance(y, mu, w):
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(y / mu), 0.0)
    return float(2.0 * np.sum(w * (term - (y - mu))))


def _fit_poisson(D, y, w, tol=1e-8, max_iter=100):
    if (y < 0).any():
        raise ModelError("poisson family requires non-negative outcomes")
    n, p = D.shape
    coef = np.zeros(p)
    coef[0] = np.log(max(np.average(y, weights=w), 1e-8))
    dev = _poisson_deviance(y, np.exp(np.clip(D @ coef, -30, 30)), w)
    it = 0
    for it in range(1, max_iter + 1):
        eta = np.clip(D @ coef, -30.0, 30.0)
        mu = np.exp(eta)
        grad = D.T @ (w * (y - mu))
        if np.max(np.abs(grad)) < tol * max(1.0, abs(dev)):
            it -= 1
            break
        H = D.T @ (D * (w * mu)[:, None]) + 1e-10 * np.eye(p)
        step = np.linalg.solve(H, grad)
        # step halving keeps the deviance non-increasing
        scale = 1.0
        while scale > 1e-8:
            trial = coef + scale * step
            new_dev = _poisson_deviance(y, np.exp(np.clip(D @ trial, -30, 30)), w)
            if new_dev <= dev + 1e-12:
                coef, dev = trial, new_dev
                break
            scale *= 0.5
        else:
            break
    return coef, dev, it


def _fit_svr(D, y, w, epsilon=0.1, C=1.0, lr0=0.1, epochs=30, batch_size=64,
             grad_clip=1.0, seed=0):
    """Primal epsilon-insensitive subgradient descent (last iterate).

    The outcome is standardized internally so the default step sizes are
    scale-free in y; the design is consumed raw.

    Each step gathers its batch rows once and sums them in order, weighted
    by ``copysign(w, resid)`` outside the tube and by zero inside it. With
    positive weights this equals summing only the outside rows weighted by
    ``w * sign(resid)``: an inside row adds a signed zero, which can flip
    only the sign of a zero sum, and ``theta`` (never -0.0) absorbs that.
    ``np.add.reduce`` over axis 0 adds row after row when there are two or
    more columns; a single column it sums pairwise, where the zero rows
    would regroup the additions, so a one-column design keeps only its
    outside rows. A BLAS ``c @ Db`` or an einsum (a fused multiply-add on
    some builds) would round differently. ``tests/svr_oracle.py`` holds the
    masked form this must match bit for bit.
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
            Db = D.take(order[s:e], axis=0)  # a copy, scaled in place below
            t += 1
            resid = yo[s:e] - Db @ theta
            c = np.copysign(wo[s:e], resid)
            outside = np.abs(resid) > epsilon
            if p == 1:
                Db, c = Db[outside], c[outside]
            else:
                c *= outside  # zero the rows inside the tube
            Db *= c[:, None]
            grad = lam * theta
            grad[0] = 0.0  # intercept unpenalized
            grad -= np.add.reduce(Db, axis=0) / len(resid)
            if grad_clip is not None:
                norm = math.sqrt(grad @ grad)
                if norm > grad_clip:
                    grad *= grad_clip / norm
            grad *= lr0 / math.sqrt(t)
            theta -= grad
    resid = yn - D @ theta
    loss = float(np.sum(w * np.maximum(np.abs(resid) - epsilon, 0.0)))
    params = {"theta": theta, "y_mean": y_mean, "y_scale": y_scale,
              "epsilon": epsilon, "C": C}
    return params, loss, t


_FITTERS = {"linear_wls": _fit_linear_wls, "poisson": _fit_poisson, "svr_linear": _fit_svr}


def check_hyperparams(family: str, hyperparams: dict) -> None:
    """Raise ModelError unless ``family`` is known, accepts every name in
    ``hyperparams``, and accepts each value. Tree families check the values
    by constructing the estimator; the others with ``_check_values``."""
    if family not in FAMILIES:
        raise ModelError(f"unknown family {family!r}; choose from {FAMILIES}")
    if not isinstance(hyperparams, dict):
        raise ModelError(f"{family} hyperparams must be an object, got {hyperparams!r}")
    if family in _TREE_CLASSES:
        try:
            _TREE_CLASSES[family](**hyperparams)
        except (TypeError, ValueError) as exc:
            raise ModelError(f"bad {family} hyperparams: {exc}") from None
        return
    accepted = list(inspect.signature(_FITTERS[family]).parameters)[3:]  # after D, y, w
    unknown = sorted(set(hyperparams) - set(accepted))
    if unknown:
        raise ModelError(f"{family} does not accept hyperparams {unknown}; "
                         f"it accepts {accepted}")
    try:
        _check_values(family, hyperparams)
    except TypeError as exc:
        raise ModelError(f"bad {family} hyperparams: {exc}") from None


def fit_outcome_model(d: Dataset, weights: np.ndarray | None = None,
                      family: str = "linear_wls",
                      feature_map: FeatureMap | None = None,
                      **hyperparams) -> OutcomeModel:
    """Fit a weighted outcome regressor of the requested family.

    ``weights=None`` or all-ones gives exactly the ordinary regression fit.
    Weights must be positive; rescaling them all by a constant does not
    change the fitted model.
    """
    if family not in FAMILIES:
        raise ModelError(f"unknown family {family!r}; choose from {FAMILIES}")
    _check_values(family, hyperparams)
    fm = feature_map or FeatureMap()
    X, a, y = d.covariates, d.treatment, d.outcome
    w = np.ones(d.n) if weights is None else np.asarray(weights, dtype=np.float64)
    if len(w) != d.n:
        raise ModelError("weights length differs from dataset length")
    if d.n == 0:
        raise ModelError("cannot fit on an empty dataset")
    if w.min() <= 0.0:
        raise ModelError("weights must be positive")

    if family in _TREE_FAMILIES:
        F = fm.tree_design(X, a)
        if family == "tree":
            predictor = RegressionTree(**hyperparams).fit(F, y, w)
            n_iter = 1
        elif family == "forest":
            predictor = RandomForest(**hyperparams).fit(F, y, w)
            n_iter = predictor.n_trees
        else:
            predictor = GradientBoostedTrees(**hyperparams).fit(F, y, w)
            n_iter = predictor.n_rounds
        resid = y - predictor.predict(F)
        model = OutcomeModel(family=family, feature_map=fm, n_features=d.k,
                             params={}, loss_kind=_LOSS_KIND[family],
                             final_loss=float(np.sum(w * resid ** 2)), n_iter=n_iter)
        model._predictor = predictor
        return model

    D = fm.design(X, a)
    if family == "linear_wls":
        coef, loss = _fit_linear_wls(D, y, w, **hyperparams)
        params, n_iter = {"coefficients": coef}, 1
    elif family == "poisson":
        coef, loss, n_iter = _fit_poisson(D, y, w, **hyperparams)
        params = {"coefficients": coef}
    else:
        params, loss, n_iter = _fit_svr(D, y, w, **hyperparams)
    return OutcomeModel(family=family, feature_map=fm, n_features=d.k,
                        params=params, loss_kind=_LOSS_KIND[family],
                        final_loss=loss, n_iter=n_iter)


@dataclass(frozen=True)
class ITETable:
    """Per-unit effect estimates with both counterfactual predictions."""

    ite: np.ndarray
    y_hat_1: np.ndarray
    y_hat_0: np.ndarray


def compute_ite(model: OutcomeModel, d: Dataset) -> ITETable:
    """Per-unit f(x, 1) - f(x, 0) for every row of ``d``."""
    if d.k != model.n_features:
        raise ModelError(f"model expects {model.n_features} covariates, dataset has {d.k}")
    ones = np.ones(d.n, dtype=np.int64)
    y1 = model.predict(d.covariates, ones)
    y0 = model.predict(d.covariates, np.zeros(d.n, dtype=np.int64))
    return ITETable(ite=y1 - y0, y_hat_1=y1, y_hat_0=y0)
