"""Immutable dataset representation and CSV input/output.

A :class:`Dataset` is a validated, read-only table of covariates, a binary
treatment column, and a real outcome column, optionally carrying per-unit
ground truth (used only by evaluation code, never by estimators).
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .parallel import iter_tasks


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
        # The whole-number columns are checked as given, then stored as int64.
        group, z = np.asarray(self.true_group), np.asarray(self.z)
        object.__setattr__(self, "true_cate", _readonly(np.asarray(self.true_cate, dtype=np.float64)))
        object.__setattr__(self, "y0", _readonly(np.asarray(self.y0, dtype=np.float64)))
        object.__setattr__(self, "y1", _readonly(np.asarray(self.y1, dtype=np.float64)))
        n = len(group)
        for name, column in (("true_cate", self.true_cate), ("y0", self.y0), ("y1", self.y1),
                             ("z", z)):
            if len(column) != n:
                raise DataValidationError(f"ground-truth column '{name}' has length "
                                          f"{len(column)}, expected {n}")
        for name in ("true_cate", "y0", "y1"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise DataValidationError(
                    f"non-finite ground-truth value in column '{name}' at row {bad[0]}")
        if n and not np.isin(z, (0, 1)).all():
            raise DataValidationError("ground-truth z must be 0/1")
        if n and group.dtype.kind not in "biu":
            bad = np.flatnonzero(~(np.abs(group) < 2.0**63) | (group != np.trunc(group)))
            if bad.size:
                raise DataValidationError(
                    f"ground-truth column 'true_group' has value {group[bad[0]]:g} at row "
                    f"{bad[0]}, which is not an int64 whole number")
        object.__setattr__(self, "true_group", _readonly(np.asarray(group, dtype=np.int64)))
        object.__setattr__(self, "z", _readonly(np.asarray(z, dtype=np.int64)))
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

    The arrays are stored C-contiguous, float64 (int64 treatment) and
    read-only: an input already of that kind is kept, not copied, so the
    caller's own array becomes read-only. Every operation in this package
    returns new values, so any two operations can run concurrently on it.
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
        a = np.asarray(self.treatment)  # checked as given, then stored as int64
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
        object.__setattr__(self, "treatment", _readonly(np.asarray(a, dtype=np.int64)))
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
# The keys of a schema: its roles, and the config hash ``simulate`` records.
_SCHEMA_KEYS = ("treatment", "outcome", "covariates", "ground_truth", "config_hash")


def _check_schema(schema: dict) -> None:
    """Raise SchemaError unless ``schema`` is a role map ``load_dataset`` can
    use: an object with string ``treatment`` and ``outcome`` columns, an
    optional list of string ``covariates``, an optional object of string
    ``ground_truth`` columns keyed by ``_GT_FIELDS`` and an optional
    ``config_hash``, with no other key, where no column has two roles. An
    optional role that is absent or null is not given."""
    if not isinstance(schema, dict):
        raise SchemaError(f"schema must be a JSON object mapping roles to columns, "
                          f"got {type(schema).__name__}")
    unknown = [key for key in schema if key not in _SCHEMA_KEYS]
    if unknown:
        raise SchemaError(f"unknown schema keys: {', '.join(map(repr, unknown))} "
                          f"(known: {', '.join(_SCHEMA_KEYS)})")
    for role in ("treatment", "outcome"):
        if role not in schema:
            raise SchemaError(f"schema is missing the '{role}' role")
    cov_cols = schema.get("covariates")
    if cov_cols is not None and not (isinstance(cov_cols, list)
                                     and all(isinstance(c, str) for c in cov_cols)):
        raise SchemaError(f"schema role 'covariates' must be a list of column names, "
                          f"got {cov_cols!r}")
    gt_map = schema.get("ground_truth")
    if gt_map is None:
        gt_map = {}
    elif not isinstance(gt_map, dict):
        raise SchemaError(f"schema role 'ground_truth' must map roles to column names, "
                          f"got {gt_map!r}")
    unknown = [role for role in gt_map if role not in _GT_FIELDS]
    if unknown:
        raise SchemaError(f"unknown ground_truth roles: {', '.join(map(repr, unknown))} "
                          f"(known: {', '.join(_GT_FIELDS)})")
    roles = [("treatment", schema["treatment"]), ("outcome", schema["outcome"]),
             *(("covariates", c) for c in cov_cols or ()),
             *((f"ground_truth.{r}", c) for r, c in gt_map.items())]
    role_of: dict = {}
    for role, col in roles:
        if not isinstance(col, str):
            raise SchemaError(f"schema role '{role}' must be a column name, got {col!r}")
        if col in role_of:
            if role == role_of[col] == "covariates":
                raise SchemaError(f"covariate column '{col}' is listed twice")
            raise SchemaError(f"column '{col}' has two roles: "
                              f"'{role_of[col]}' and '{role}'")
        role_of[col] = role


def open_input(path: str | Path, what: str, error: type[Exception], **how):
    """``open(path, **how)``. Raises ``error``, naming the file as ``what``,
    when it is missing or cannot be opened."""
    p = Path(path)
    if not p.exists():
        raise error(f"{what} file not found: {p}")
    try:
        return open(p, **how)
    except OSError as exc:
        raise error(f"cannot read {what} file {p}: {exc.strerror}") from None


def read_json(path: str | Path, what: str, error: type[Exception]):
    """The JSON value stored at ``path``. Raises ``error``, naming the file
    as ``what``, when it is missing, cannot be opened, or is not UTF-8 JSON."""
    with open_input(path, what, error, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error(f"{what} is not valid JSON: {exc}") from None


def load_schema(path: str | Path) -> dict:
    """Read a JSON sidecar mapping column roles to CSV column names."""
    schema = read_json(path, "schema", SchemaError)
    _check_schema(schema)
    return schema


def _parse_cell(record: list[str], j: int, column: str, row: int) -> float:
    """Cell ``j`` of ``record``, data row ``row``, as ``float()`` reads it.
    Raises DataValidationError when there is none or it is not finite."""
    if j >= len(record):
        raise DataValidationError(f"row {row} is short: no value for column '{column}'")
    try:
        value = float(record[j])
    except ValueError:
        raise DataValidationError(
            f"unparseable value {record[j]!r} in column '{column}' at row {row}") from None
    if not math.isfinite(value):
        raise DataValidationError(f"non-finite value in column '{column}' at row {row}")
    return value


# Characters numpy's float parser strips as whitespace but ``float()`` rejects.
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))


def _parse_rows(body: list[str], width: int) -> np.ndarray | None:
    """The lines as a (rows, width) float64 table, parsed in C, or None when
    the csv module must split them instead.

    ``np.loadtxt`` converts with ``PyOS_string_to_double``, the converter of
    ``float()``, so an accepted table is bit-identical to a cell-by-cell
    parse. It is accepted only where the two provably agree: no quoting (a
    quote makes a cell unparseable), one row per line (``loadtxt`` skips blank
    lines, hence the shape check), no cell the csv module would refuse as
    too long, and every value finite. Each check holds line by line, so a
    body is accepted exactly when each of its ranges is.
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


def _read_header(fh) -> tuple[list[str], int]:
    """The header row of the binary CSV file ``fh``, read as the csv module
    reads the whole file, and the byte offset where the body starts. Raises
    DataValidationError when there is no header, and the decode or csv error
    of a header that is not UTF-8 or that the csv module refuses."""
    taken = 0  # bytes of the lines the csv reader has taken

    def lines():
        nonlocal taken
        for raw in fh:  # up to each b"\n"; a bare "\r" ends a line inside
            for line in io.StringIO(raw.decode("utf-8"), newline=""):
                taken += len(line.encode("utf-8"))
                if not line.startswith("#"):
                    yield line
    try:
        return next(csv.reader(lines())), taken
    except StopIteration:
        raise DataValidationError("no data rows") from None


# Bytes per read of the scan that finds where each row range of a body starts.
_SCAN_BYTES = 1 << 20


def _range_starts(fh, start: int, every: int) -> tuple[list[int], int, int]:
    """Scan the binary file ``fh`` from byte ``start`` to its end: the byte
    offsets where lines ``0, every, 2 * every, ...`` start, the number of
    lines and the end offset. A line ends at each ``\\n`` byte, and a last
    line may have none."""
    fh.seek(start)
    starts, n_lines, pos, last = [start], 0, start, b"\n"
    while block := fh.read(_SCAN_BYTES):
        ends = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
        # Line L starts right after the L-th "\n" of the body.
        firsts = np.arange(len(starts) * every, n_lines + len(ends) + 1, every)
        starts += (pos + 1 + ends[firsts - n_lines - 1]).tolist()
        n_lines += len(ends)
        pos += len(block)
        last = block[-1:]
    return starts, n_lines + int(last != b"\n"), pos


def _parse_range(lines: Iterable[str], width: int, wanted: list[int], names: list[str],
                 errors: dict | None = None) -> np.ndarray | None:
    """The columns ``wanted``, named ``names``, of the body lines ``lines`` as
    one (rows, len(wanted)) float64 table.

    A worker's range is a list of lines (``errors`` None). It is parsed in C
    by ``_parse_rows`` where that accepts it, else split by the csv module
    with one ``"\\n"`` line appended, which reads as the empty record ``[]``
    unless a quoted cell is still open at the range's end. The range then
    declines (None), as it does when it holds any error. The whole body,
    streamed, is split by the csv module as the file reads, and its errors
    go into ``errors``: the first row longer than the header at key None,
    and the first bad cell of each column at its name. Records are parsed
    ``_BLOCK_ROWS`` at a time, each wanted cell by ``_parse_cell``.
    """
    if errors is None:
        table = _parse_rows(lines, width)
        if table is not None:
            return np.take(table, wanted, axis=1)
        try:
            *records, last = csv.reader([*lines, "\n"])
        except csv.Error:
            return None
        if last:
            return None
    found = {} if errors is None else errors
    records, parts, rows = iter(records if errors is None else csv.reader(lines)), [], 0
    while chunk := list(islice(records, _BLOCK_ROWS)):
        long = next((i for i, record in enumerate(chunk) if len(record) > width), None)
        if long is not None:
            found.setdefault(None, f"row {rows + long} has {len(chunk[long])} cells; "
                                   f"the header has {width}")
        part = np.empty((len(chunk), len(wanted)))
        for k, (j, name) in enumerate(zip(wanted, names)):
            try:
                part[:, k] = [_parse_cell(r, j, name, i) for i, r in enumerate(chunk, rows)]
            except DataValidationError as exc:
                found.setdefault(name, str(exc))
        parts.append(part)
        rows += len(chunk)
    if errors is None and found:
        return None
    return np.concatenate(parts) if parts else np.empty((0, len(wanted)))


def _read_body(p: Path, fh, start: int, col_index: dict[str, int], scalars: list[str],
               covariates: list[str]) -> tuple[list[np.ndarray], np.ndarray, dict]:
    """The ``scalars`` columns of the body of ``p``, from byte ``start``, one
    float64 array each, its ``covariates`` columns as one (rows, k) matrix,
    and the errors ``_parse_range`` finds in it.

    Each range of ``_BLOCK_ROWS`` body lines (``_range_starts``) is a task of
    ``map_row_ranges``: it reads and decodes its own bytes (or declines),
    splits them as a file opened with ``newline=""`` does, drops the ``#``
    lines and parses the rest with ``_parse_range``. A range starts right
    after a ``\\n`` byte, which never cuts a UTF-8 character or a ``\\r\\n``.
    The parent copies each range into the arrays, sized by the body's
    ``\\n`` lines, as it arrives: they grow where bare ``\\r`` line ends give
    more lines, and are cut in place to the rows read. Once a range declines,
    the body is read again, streamed from ``fh`` as one range.
    """
    every, width = _BLOCK_ROWS, len(col_index)
    names = [*scalars, *covariates]
    wanted = [col_index[c] for c in names]
    starts, n_lines, end = _range_starts(fh, start, every)

    def parse(lo: int, hi: int) -> np.ndarray | None:
        first = starts[lo // every]
        with open(p, "rb") as part:
            part.seek(first)
            raw = part.read((starts[hi // every] if hi < n_lines else end) - first)
        try:
            text = io.StringIO(raw.decode("utf-8"), newline="")
        except UnicodeDecodeError:
            return None
        return _parse_range([line for line in text if not line.startswith("#")],
                            width, wanted, names)
    columns = [np.empty(n_lines) for _ in scalars]
    X = np.empty((n_lines, len(covariates)))

    def resize(n: int) -> None:  # in place: no view of another buffer is kept
        for array in (*columns, X):
            array.resize((n, *array.shape[1:]), refcheck=False)
    rows, errors = 0, {}
    with closing(map_row_ranges(n_lines, p.name, parse)) as ranges:
        for (lo, hi), part in zip(row_ranges(n_lines), ranges):
            if part is None:  # the next zip step ends the loop
                ranges.close()
                fh.seek(start)
                with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
                    part = _parse_range((line for line in text if not line.startswith("#")),
                                        width, wanted, names, errors)
                rows, hi = 0, n_lines
            m = len(part)
            if rows + m > len(X):  # a bare "\r" ended a line: more lines than "\n"s
                resize(rows + m + n_lines - hi)
            for j, column in enumerate(columns):
                column[rows:rows + m] = part[:, j]
            X[rows:rows + m] = part[:, len(scalars):]
            rows += m
    resize(rows)  # "#" lines left out
    return columns, X, errors


def _not_utf8(p: Path) -> DataValidationError | None:
    """The error for a file that is not UTF-8, or None when every line
    decodes. It names the first line that does not decode: the header, a
    0-based data row as the csv module counts them, or a comment line
    before one of those."""
    bad = None
    records = 0  # records the csv reader has completed, the header included

    def lines():
        nonlocal bad
        for line in fh:
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = (records, line.startswith("#"), exc.reason)
                return
            if not line.startswith("#"):
                yield line
    with open(p, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for _ in csv.reader(lines()):
            records += 1
    if bad is None:
        return None
    record, comment, reason = bad
    where = "the header" if record == 0 else f"row {record - 1}"
    return DataValidationError(
        f"{'a comment line before ' if comment else ''}{where} is not UTF-8 ({reason})")


def load_dataset(path: str | Path, schema: dict) -> Dataset:
    """Load a CSV (header row required, one unit per row) into a Dataset.

    ``schema`` maps roles to column names:
    ``{"treatment": ..., "outcome": ..., "covariates": [...],
    "ground_truth": {"true_group": ..., ...}}``. When ``covariates`` is
    omitted, every column not claimed by another role is used, in file order.
    Row indices in error messages are 0-based data rows (the header is not
    counted). Row order is preserved. Lines starting with ``#`` are skipped.
    A file that is not UTF-8 raises DataValidationError naming its first
    undecodable row, whatever else is wrong with it.

    Each range of the body is parsed on the worker pool, by the worker that
    reads it from the file: in C where it is all-numeric and all-finite, else
    with the csv module and ``float()``. This process copies each range's
    role columns into the final arrays as it arrives, so it holds the cohort
    once. A range that holds an error, or ends inside a quoted cell, has the
    body streamed through the csv module once, as one range, which finds
    every error in the order of a row-by-row scan of the whole file.
    """
    _check_schema(schema)
    p = Path(path)
    with open_input(p, "data", SchemaError, mode="rb") as fh:
        try:
            header, start = _read_header(fh)
            col_index = {name: j for j, name in enumerate(header)}
            if len(col_index) != len(header):
                dup = next(name for j, name in enumerate(header) if col_index[name] != j)
                raise SchemaError(f"duplicate column name {dup!r} in header")
            gt_map = schema.get("ground_truth") or {}
            scalars = [schema["treatment"], schema["outcome"], *gt_map.values()]
            cov_cols = schema.get("covariates")  # by default, every other column
            if cov_cols is None:
                cov_cols = [c for c in header if c not in scalars]
            tre_col, out_col, *gt_cols = scalars
            absent = [c for c in [tre_col, out_col, *cov_cols, *gt_cols] if c not in col_index]
            # With a role's column missing, the body is still read: a long row comes first.
            columns, X, errors = _read_body(p, fh, start, col_index, [] if absent else scalars,
                                            [] if absent else cov_cols)
        except (ValueError, csv.Error):  # what the file's content can raise
            error = _not_utf8(p)
            if error is None:
                raise
            raise error from None
    if not len(X):
        raise DataValidationError("no data rows")
    if None in errors:
        raise DataValidationError(errors[None])
    if absent:
        raise SchemaError(f"missing column '{absent[0]}'")

    def column(name: str) -> np.ndarray | None:
        if name in errors:
            raise DataValidationError(errors[name])
        return columns[scalars.index(name)] if name in scalars else None

    a = column(tre_col)
    bad = np.flatnonzero(~np.isin(a, (0.0, 1.0)))
    if bad.size:
        raise DataValidationError(
            f"treatment column '{tre_col}' has non-binary value {a[bad[0]]:g} at row {bad[0]}")
    y = column(out_col)
    for c in cov_cols:
        column(c)  # its first bad cell, if any

    gt = None
    if gt_map:
        missing = [f for f in _GT_FIELDS if f not in gt_map]
        if missing:
            raise SchemaError(f"ground_truth map is missing roles: {missing}")
        gt = GroundTruth(*(column(gt_map[f]) for f in _GT_FIELDS))
    return Dataset(X, a.astype(np.int64), y, tuple(cov_cols), gt)


# Rows per range of a table that is predicted, formatted or parsed range by
# range. A power of two: ``outcomes.compute_ite`` relies on it for its bits.
_BLOCK_ROWS = 4096


def row_ranges(n_rows: int) -> list[tuple[int, int]]:
    """The contiguous row ranges ``[lo, hi)`` that cover ``range(n_rows)``, in
    row order: every range holds ``_BLOCK_ROWS`` rows except the last, which
    takes the rest (up to ``2 * _BLOCK_ROWS - 1``). Only a table of one row
    has a range of one row."""
    starts = list(range(0, n_rows, _BLOCK_ROWS))[:max(1, n_rows // _BLOCK_ROWS)]
    return list(zip(starts, starts[1:] + [n_rows]))


def map_row_ranges(n_rows: int, what: str, run: Callable[[int, int], object],
                   which: slice = slice(None)) -> Iterator:
    """Yield ``run(lo, hi)`` for the ranges ``row_ranges(n_rows)[which]``
    (all of them by default), in row order, computed on the worker pool.

    A single range is a single task, run in-process. The ranges are tasks of
    ``parallel.iter_tasks``, named ``rows lo-(hi-1) of <what>`` in its
    errors. The first range that raises, in row order, raises its exception
    here after every earlier range, for any worker count; close the iterator
    (``contextlib.closing``) to stop early.
    """
    bounds = row_ranges(n_rows)[which]
    with closing(iter_tasks([f"rows {lo}-{hi - 1} of {what}" for lo, hi in bounds],
                            lambda t: run(*bounds[t]))) as values:
        for value in values:
            if isinstance(value, Exception):
                raise value
            yield value


@contextmanager
def written_whole(paths: list[Path]) -> Iterator[list]:
    """Open a temporary file for binary writing next to each of ``paths``,
    named ``.<name>.<pid>.tmp``, and yield them. When the block completes,
    each is renamed to its path; when it raises, they are all removed. So an
    interrupted write leaves no partial file under a target's name."""
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open(temp, "wb")) for temp in temps]
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def _text_rows(columns: list[np.ndarray]) -> list[str]:
    """Each row of ``columns`` as comma-joined cells. ``repr`` of a Python
    float round-trips binary64 exactly; of a Python int it is its digits."""
    return list(map(",".join, zip(*(map(repr, c.tolist()) for c in columns))))


def _write_csvs(d: Dataset, targets: list[tuple[Path, bool]],
                header_comment: str | None) -> list[dict]:
    """Write ``d`` to each (path, include_ground_truth) target, with columns
    ``a`` and ``y`` after the covariates, and return each target's schema
    map.

    The row ranges of ``map_row_ranges`` are formatted on the worker pool,
    every cell once however many targets it goes to, and written in row
    order, each target through ``written_whole``.
    """
    any_gt = any(with_gt for _, with_gt in targets)
    if any_gt and d.ground_truth is None:
        raise DataValidationError("dataset has no ground truth to write")
    names = list(d.covariate_names)
    heads, schemas = [], []
    for path, with_gt in targets:
        header = names + ["a", "y"]
        schema = {"treatment": "a", "outcome": "y", "covariates": names}
        if with_gt:
            header += list(_GT_FIELDS)
            schema["ground_truth"] = {f: f for f in _GT_FIELDS}
        text = io.StringIO(newline="")
        if header_comment:
            text.write(f"# {header_comment}\n")
        csv.writer(text).writerow(header)  # numeric cells never need quoting
        heads.append(text.getvalue().encode("utf-8"))
        schemas.append(schema)

    def range_text(lo: int, hi: int) -> list[bytes]:
        rows = _text_rows([*d.covariates[lo:hi].T, d.treatment[lo:hi], d.outcome[lo:hi]])
        if any_gt:
            gt_rows = _text_rows([getattr(d.ground_truth, f)[lo:hi] for f in _GT_FIELDS])
            rows_gt = list(map(",".join, zip(rows, gt_rows)))
        return [("\r\n".join(rows_gt if with_gt else rows) + "\r\n").encode("utf-8")
                for _, with_gt in targets]

    ranges = map_row_ranges(d.n, " and ".join(path.name for path, _ in targets), range_text)
    with written_whole([path for path, _ in targets]) as files, closing(ranges):
        for fh, head in zip(files, heads):
            fh.write(head)
        for texts in ranges:
            for fh, text in zip(files, texts):
                fh.write(text)
    return schemas


def save_dataset(d: Dataset, path: str | Path, *, include_ground_truth: bool = False,
                 header_comment: str | None = None) -> dict:
    """Write a dataset as CSV, the treatment in column ``a`` and the outcome
    in ``y``, and return the matching schema map.

    Floats are written with full round-trip precision so a save/load cycle
    reproduces the dataset bit for bit.
    """
    return _write_csvs(d, [(Path(path), include_ground_truth)], header_comment)[0]


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
                                          (Path(oracle_path), True)], header_comment)
    return observed, full
