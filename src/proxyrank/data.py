"""Immutable dataset representation, CSV ingestion, and train/validation splitting.

A :class:`Dataset` is a validated, read-only table of covariates, a binary
treatment column, and a real outcome column, optionally carrying per-unit
ground truth (used only by evaluation code, never by estimators).
"""
from __future__ import annotations

import csv
import json
import math
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .rng import substream


class SchemaError(ValueError):
    """A column map or config does not describe the data on disk."""


class DataValidationError(ValueError):
    """Cell-level problems: NaNs, non-binary treatment, length mismatches."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GroundTruth:
    """Per-unit oracle columns available only in simulated data.

    ``y0``/``y1`` are the potential outcomes, ``true_cate`` their difference,
    ``true_group`` the 1-based effect-group id, and ``z`` the hidden target
    assignment. Estimators must never read these; evaluation code may.
    """

    true_group: np.ndarray
    true_cate: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "true_group", _readonly(np.asarray(self.true_group, dtype=np.int64)))
        object.__setattr__(self, "true_cate", _readonly(np.asarray(self.true_cate, dtype=np.float64)))
        object.__setattr__(self, "y0", _readonly(np.asarray(self.y0, dtype=np.float64)))
        object.__setattr__(self, "y1", _readonly(np.asarray(self.y1, dtype=np.float64)))
        object.__setattr__(self, "z", _readonly(np.asarray(self.z, dtype=np.int64)))
        n = len(self.true_group)
        for name in ("true_cate", "y0", "y1", "z"):
            if len(getattr(self, name)) != n:
                raise DataValidationError(f"ground-truth column '{name}' has length "
                                          f"{len(getattr(self, name))}, expected {n}")
        if n and not np.isin(self.z, (0, 1)).all():
            raise DataValidationError("ground-truth z must be 0/1")
        if n and (self.true_group < 1).any():
            raise DataValidationError("true_group ids must be >= 1")
        gap = np.abs(self.y1 - self.y0 - self.true_cate)
        if n and float(gap.max()) > 1e-9:
            i = int(gap.argmax())
            raise DataValidationError(
                f"y1 - y0 != true_cate at row {i} (difference {gap[i]:.3g})")

    def subset(self, idx: np.ndarray) -> "GroundTruth":
        return GroundTruth(self.true_group[idx], self.true_cate[idx],
                           self.y0[idx], self.y1[idx], self.z[idx])


@dataclass(frozen=True)
class Dataset:
    """Validated immutable cohort: covariates X, binary treatment, outcome.

    All arrays are copied and marked read-only at construction; every
    operation in this package returns new values, so any two operations can
    run concurrently on the same dataset.
    """

    covariates: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    covariate_names: tuple[str, ...] = ()
    ground_truth: GroundTruth | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.covariates, dtype=np.float64)
        if X.ndim != 2:
            raise DataValidationError("covariates must be a 2-D matrix")
        a = np.asarray(self.treatment, dtype=np.int64)
        y = np.asarray(self.outcome, dtype=np.float64)
        n = X.shape[0]
        if len(a) != n or len(y) != n:
            raise DataValidationError(
                f"column lengths differ: covariates {n}, treatment {len(a)}, outcome {len(y)}")
        if n:
            if not np.isfinite(X).all():
                rows = np.flatnonzero(~np.isfinite(X).all(axis=1))
                raise DataValidationError(f"non-finite covariate value at row {rows[0]}")
            if not np.isfinite(y).all():
                rows = np.flatnonzero(~np.isfinite(y))
                raise DataValidationError(f"non-finite outcome value at row {rows[0]}")
            if not np.isin(a, (0, 1)).all():
                rows = np.flatnonzero(~np.isin(a, (0, 1)))
                raise DataValidationError(
                    f"treatment must be 0 or 1; offending row {rows[0]}")
        names = tuple(self.covariate_names) or tuple(f"x{j}" for j in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise SchemaError(f"{len(names)} covariate names for {X.shape[1]} columns")
        if self.ground_truth is not None and len(self.ground_truth.y0) != n:
            raise DataValidationError("ground-truth length differs from dataset length")
        object.__setattr__(self, "covariates", _readonly(X))
        object.__setattr__(self, "treatment", _readonly(a))
        object.__setattr__(self, "outcome", _readonly(y))
        object.__setattr__(self, "covariate_names", names)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def k(self) -> int:
        return self.covariates.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        """A new dataset holding the given rows (original order of ``idx``)."""
        idx = np.asarray(idx)
        gt = self.ground_truth.subset(idx) if self.ground_truth is not None else None
        return Dataset(self.covariates[idx], self.treatment[idx], self.outcome[idx],
                       self.covariate_names, gt)

    def with_treatment(self, treatment: np.ndarray) -> "Dataset":
        return replace(self, treatment=treatment)

    def with_covariate(self, name: str, column: np.ndarray) -> "Dataset":
        """A new dataset with one extra covariate column appended."""
        col = np.asarray(column, dtype=np.float64).reshape(-1, 1)
        return Dataset(np.hstack([self.covariates, col]), self.treatment, self.outcome,
                       self.covariate_names + (name,), self.ground_truth)

    def without_ground_truth(self) -> "Dataset":
        return replace(self, ground_truth=None)


_GT_FIELDS = ("true_group", "true_cate", "y0", "y1", "z")


def load_schema(path: str | Path) -> dict:
    """Read a JSON sidecar mapping column roles to CSV column names."""
    p = Path(path)
    if not p.exists():
        raise SchemaError(f"schema file not found: {p}")
    with open(p, encoding="utf-8") as fh:
        schema = json.load(fh)
    for role in ("treatment", "outcome"):
        if role not in schema:
            raise SchemaError(f"schema is missing the '{role}' role")
    return schema


def _parse_cell(raw: str, column: str, row: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataValidationError(
            f"unparseable value {raw!r} in column '{column}' at row {row}") from None
    if math.isnan(value) or math.isinf(value):
        raise DataValidationError(f"non-finite value in column '{column}' at row {row}")
    return value


# Characters numpy's float parser strips as whitespace but ``float()`` rejects.
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))


def _fast_table(body: list[str], width: int) -> np.ndarray | None:
    """The body lines as a (rows, width) float64 table, parsed in C, or None
    when the per-cell scan must decide instead.

    ``np.loadtxt`` converts with ``PyOS_string_to_double``, the converter of
    ``float()``, so an accepted table is bit-identical to the per-cell scan.
    It is accepted only where the two provably agree: no quoting (a quote
    makes a cell unparseable), one row per line (``loadtxt`` skips blank
    lines, hence the shape check), no cell the csv module would refuse as
    too long, and every value finite. Anything else, including every
    error, is left to the scan and its messages; the treatment check that
    follows either path finds the same first bad row.
    """
    if (not body or not _BLANK_LINES.isdisjoint(body)
            or max(map(len, body)) > csv.field_size_limit()
            or any(c in line for line in body for c in _NUMPY_ONLY_SPACES)):
        return None
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, quotechar=None,
                           dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(body), width) or not np.isfinite(table).all():
        return None
    return table


def load_dataset(path: str | Path, schema: dict) -> Dataset:
    """Load a CSV (header row required, one unit per row) into a Dataset.

    ``schema`` maps roles to column names:
    ``{"treatment": ..., "outcome": ..., "covariates": [...],
    "ground_truth": {"true_group": ..., ...}}``. When ``covariates`` is
    omitted, every column not claimed by another role is used, in file order.
    Row indices in error messages are 0-based data rows (the header is not
    counted). Row order is preserved. Lines starting with ``#`` are skipped.

    An all-numeric, all-finite file is parsed in C; any other file (quoted
    or non-numeric cells, ragged or blank rows, non-finite values) is
    scanned cell by cell with ``float()``. Both give the same arrays, bit
    for bit, and the scan gives every error message.
    """
    p = Path(path)
    if not p.exists():
        raise SchemaError(f"data file not found: {p}")
    with open(p, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataValidationError("no data rows") from None
    width = len(header)
    table = _fast_table(lines[reader.line_num:], width)
    if table is None:
        rows = list(reader)
        if not rows:
            raise DataValidationError("no data rows")
        long_row = next((i for i, row in enumerate(rows) if len(row) > width), None)
        if long_row is not None:
            raise DataValidationError(f"row {long_row} has {len(rows[long_row])} cells; "
                                      f"the header has {width}")

    col_index = {name: j for j, name in enumerate(header)}
    tre_col = schema["treatment"]
    out_col = schema["outcome"]
    gt_map = schema.get("ground_truth") or {}
    claimed = {tre_col, out_col, *gt_map.values()}
    cov_cols = schema.get("covariates")
    if cov_cols is None:
        cov_cols = [c for c in header if c not in claimed]
    for col in [tre_col, out_col, *cov_cols, *gt_map.values()]:
        if col not in col_index:
            raise SchemaError(f"missing column '{col}'")

    def column(name: str) -> np.ndarray:
        j = col_index[name]
        if table is not None:
            return table[:, j]
        out = np.empty(len(rows))
        for i, row in enumerate(rows):
            if j >= len(row):
                raise DataValidationError(f"row {i} is short: no value for column '{name}'")
            out[i] = _parse_cell(row[j], name, i)
        return out

    a = column(tre_col)
    bad = np.flatnonzero(~np.isin(a, (0.0, 1.0)))
    if bad.size:
        raise DataValidationError(
            f"treatment column '{tre_col}' has non-binary value {a[bad[0]]:g} at row {bad[0]}")
    y = column(out_col)
    X = np.column_stack([column(c) for c in cov_cols]) if cov_cols else np.empty((len(a), 0))

    gt = None
    if gt_map:
        missing = [f for f in _GT_FIELDS if f not in gt_map]
        if missing:
            raise SchemaError(f"ground_truth map is missing roles: {missing}")
        gt = GroundTruth(*(column(gt_map[f]) for f in _GT_FIELDS))
    return Dataset(X, a.astype(np.int64), y, tuple(cov_cols), gt)


# Rows formatted per write: bounds the cell strings alive at once.
_BLOCK_ROWS = 4096


def _text_rows(columns: list[np.ndarray]) -> list[str]:
    """Each row of ``columns`` as comma-joined cells. ``repr`` of a Python
    float round-trips binary64 exactly; of a Python int it is its digits."""
    return list(map(",".join, zip(*(map(repr, c.tolist()) for c in columns))))


def _write_csvs(d: Dataset, targets: list[tuple[Path, bool]], treatment_col: str,
                outcome_col: str, header_comment: str | None) -> list[dict]:
    """Write ``d`` to each (path, include_ground_truth) target and return each
    target's schema map. Every cell is formatted once, however many targets
    it goes to."""
    any_gt = any(with_gt for _, with_gt in targets)
    if any_gt and d.ground_truth is None:
        raise DataValidationError("dataset has no ground truth to write")
    names = list(d.covariate_names)
    schemas = []
    with ExitStack() as stack:
        files = []
        for path, with_gt in targets:
            header = names + [treatment_col, outcome_col]
            schema = {"treatment": treatment_col, "outcome": outcome_col, "covariates": names}
            if with_gt:
                header += list(_GT_FIELDS)
                schema["ground_truth"] = {f: f for f in _GT_FIELDS}
            fh = stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
            if header_comment:
                fh.write(f"# {header_comment}\n")
            csv.writer(fh).writerow(header)  # numeric cells never need quoting
            files.append((fh, with_gt))
            schemas.append(schema)
        for lo in range(0, d.n, _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            rows = _text_rows([*d.covariates[block].T, d.treatment[block], d.outcome[block]])
            if any_gt:
                gt_rows = _text_rows([getattr(d.ground_truth, f)[block] for f in _GT_FIELDS])
                rows_gt = list(map(",".join, zip(rows, gt_rows)))
            for fh, with_gt in files:
                fh.write("\r\n".join(rows_gt if with_gt else rows))
                fh.write("\r\n")
    return schemas


def save_dataset(d: Dataset, path: str | Path,
                 treatment_col: str = "a", outcome_col: str = "y",
                 include_ground_truth: bool = False,
                 header_comment: str | None = None) -> dict:
    """Write a dataset as CSV and return the matching schema map.

    Floats are written with full round-trip precision so a save/load cycle
    reproduces the dataset bit for bit.
    """
    return _write_csvs(d, [(Path(path), include_ground_truth)], treatment_col, outcome_col,
                       header_comment)[0]


def save_simulated(oracle: Dataset, observed_path: str | Path, oracle_path: str | Path,
                   header_comment: str | None = None) -> tuple[dict, dict]:
    """Write a simulated cohort as two CSVs and return their schema maps: the
    observed file (covariates, ``a``, ``y``) and the oracle file (the same
    rows followed by the ground truth).

    The bytes equal ``save_dataset`` of ``oracle.without_ground_truth()`` and
    of ``oracle`` with ``include_ground_truth=True``; the shared cells are
    formatted once.
    """
    observed, full = _write_csvs(oracle, [(Path(observed_path), False),
                                          (Path(oracle_path), True)], "a", "y", header_comment)
    return observed, full


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/validation split: fraction held out and a seed."""

    validation_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.validation_fraction < 1.0:
            raise SchemaError("validation_fraction must lie in [0, 1)")


def train_validation_split(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition the rows into (train, validation) deterministically.

    Train gets round(n * (1 - f)) units, validation the remainder; the two
    index sets are disjoint and their union is the full index set. Within
    each part the original row order is kept.
    """
    f = spec.validation_fraction
    if f > 0.0 and d.n < 2:
        raise DataValidationError("need at least 2 rows to hold out a validation set")
    if f == 0.0:
        return d, d.subset(np.array([], dtype=np.int64))
    n_train = int(round(d.n * (1.0 - f)))
    perm = substream(spec.seed, "split").permutation(d.n)
    train_idx = np.sort(perm[:n_train])
    val_idx = np.sort(perm[n_train:])
    return d.subset(train_idx), d.subset(val_idx)
