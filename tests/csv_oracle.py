"""Reference CSV reader and writer for the equivalence tests: one cell at a time.

``load_dataset`` parses every cell of every used column with ``float()``
after ``csv.reader`` has split the file; ``save_dataset`` formats every cell
with ``repr(float(v))`` and writes each row through ``csv.writer``. These are
the semantics the column-wise reader and writer in ``proxyrank.data`` must
reproduce exactly (same arrays and names, same exception type and message,
same bytes), kept here (not in the package) purely as a test oracle.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from proxyrank.data import (_GT_FIELDS, Dataset, DataValidationError, GroundTruth,
                            SchemaError)


def _parse_cell(raw: str, column: str, row: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataValidationError(
            f"unparseable value {raw!r} in column '{column}' at row {row}") from None
    if math.isnan(value) or math.isinf(value):
        raise DataValidationError(f"non-finite value in column '{column}' at row {row}")
    return value


def load_dataset(path: str | Path, schema: dict) -> Dataset:
    p = Path(path)
    if not p.exists():
        raise SchemaError(f"data file not found: {p}")
    with open(p, newline="", encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError("no data rows") from None
        rows = list(reader)
    if not rows:
        raise DataValidationError("no data rows")
    width = len(header)
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
    X = np.column_stack([column(c) for c in cov_cols]) if cov_cols else np.empty((len(rows), 0))

    gt = None
    if gt_map:
        missing = [f for f in _GT_FIELDS if f not in gt_map]
        if missing:
            raise SchemaError(f"ground_truth map is missing roles: {missing}")
        gt = GroundTruth(*(column(gt_map[f]) for f in _GT_FIELDS))
    return Dataset(X, a.astype(np.int64), y, tuple(cov_cols), gt)


def _fmt(v: float) -> str:
    return repr(float(v))


def save_dataset(d: Dataset, path: str | Path,
                 treatment_col: str = "a", outcome_col: str = "y",
                 include_ground_truth: bool = False,
                 header_comment: str | None = None) -> dict:
    p = Path(path)
    names = list(d.covariate_names)
    header = names + [treatment_col, outcome_col]
    gt_map = {}
    if include_ground_truth:
        if d.ground_truth is None:
            raise DataValidationError("dataset has no ground truth to write")
        gt_map = {f: f for f in _GT_FIELDS}
        header += list(_GT_FIELDS)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(d.n):
            row = [_fmt(v) for v in d.covariates[i]]
            row.append(str(int(d.treatment[i])))
            row.append(_fmt(d.outcome[i]))
            if include_ground_truth:
                gt = d.ground_truth
                row += [str(int(gt.true_group[i])), _fmt(gt.true_cate[i]),
                        _fmt(gt.y0[i]), _fmt(gt.y1[i]), str(int(gt.z[i]))]
            writer.writerow(row)
    schema = {"treatment": treatment_col, "outcome": outcome_col, "covariates": names}
    if gt_map:
        schema["ground_truth"] = gt_map
    return schema
