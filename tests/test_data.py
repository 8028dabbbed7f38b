import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyrank import (Dataset, DataValidationError, GroundTruth, SchemaError, data,
                       load_dataset, load_schema, save_dataset)
from proxyrank.cli import main
from proxyrank.validation import IVExperiment

from conftest import BAD_SCHEMAS, make_dataset


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


SCHEMA = {"treatment": "a", "outcome": "y", "covariates": ["x0", "x1"]}


class TestLoad:
    def test_fixture_roundtrip(self, tmp_path):
        csv = write_csv(tmp_path / "d.csv",
                        "id,x0,x1,a,y\n"
                        "u1,0.5,-1.25,1,3.0\n"
                        "u2,0.125,2.0,0,1.5\n"
                        "u3,-0.75,0.0,1,0.0\n")
        d = load_dataset(csv, SCHEMA)
        assert (d.n, d.k) == (3, 2)
        assert d.covariate_names == ("x0", "x1")
        # write-then-read reproduces the dataset exactly
        schema2 = save_dataset(d, tmp_path / "d2.csv")
        d2 = load_dataset(tmp_path / "d2.csv", schema2)
        np.testing.assert_array_equal(d.covariates, d2.covariates)
        np.testing.assert_array_equal(d.treatment, d2.treatment)
        np.testing.assert_array_equal(d.outcome, d2.outcome)

    def test_full_precision_roundtrip(self, tmp_path):
        d = make_dataset(n=25, k=4, seed=3)
        schema = save_dataset(d, tmp_path / "d.csv")
        d2 = load_dataset(tmp_path / "d.csv", schema)
        assert (d.covariates == d2.covariates).all()
        assert (d.outcome == d2.outcome).all()

    def test_empty_file(self, tmp_path):
        csv = write_csv(tmp_path / "e.csv", "")
        with pytest.raises(DataValidationError, match="no data rows"):
            load_dataset(csv, SCHEMA)

    def test_header_only(self, tmp_path):
        csv = write_csv(tmp_path / "h.csv", "x0,x1,a,y\n")
        with pytest.raises(DataValidationError, match="no data rows"):
            load_dataset(csv, SCHEMA)

    def test_non_binary_treatment_names_row(self, tmp_path):
        csv = write_csv(tmp_path / "t.csv",
                        "x0,x1,a,y\n0.0,0.0,1,1.0\n0.0,0.0,2,1.0\n")
        with pytest.raises(DataValidationError, match="row 1"):
            load_dataset(csv, SCHEMA)

    def test_unparseable_cell_names_row(self, tmp_path):
        csv = write_csv(tmp_path / "u.csv",
                        "x0,x1,a,y\n0.0,oops,1,1.0\n")
        with pytest.raises(DataValidationError, match="row 0"):
            load_dataset(csv, SCHEMA)

    def test_nan_cell_rejected(self, tmp_path):
        csv = write_csv(tmp_path / "n.csv",
                        "x0,x1,a,y\n0.0,nan,1,1.0\n")
        with pytest.raises(DataValidationError, match="row 0"):
            load_dataset(csv, SCHEMA)

    def test_missing_column(self, tmp_path):
        csv = write_csv(tmp_path / "m.csv", "x0,a,y\n0.0,1,1.0\n")
        with pytest.raises(SchemaError, match="x1"):
            load_dataset(csv, SCHEMA)

    def test_short_row_names_row(self, tmp_path):
        csv = write_csv(tmp_path / "s.csv",
                        "x0,x1,a,y\n0.0,1.0,1,2.0\n0.0,1.0,1\n")
        with pytest.raises(DataValidationError, match="row 1"):
            load_dataset(csv, SCHEMA)

    def test_long_row_names_row(self, tmp_path):
        csv = write_csv(tmp_path / "l.csv",
                        "x0,x1,a,y\n0.0,1.0,1,2.0\n0.0,1.0,1,2.0,99\n")
        with pytest.raises(DataValidationError, match="row 1 has 5 cells; the header has 4"):
            load_dataset(csv, SCHEMA)

    @pytest.mark.parametrize("line", ["", "  \t"], ids=["blank", "whitespace"])
    def test_blank_body_line_is_a_short_row(self, tmp_path, line):
        csv = write_csv(tmp_path / "b.csv",
                        f"x0,x1,a,y\n0.0,1.0,1,2.0\n{line}\n0.5,1.0,0,2.0\n")
        with pytest.raises(DataValidationError,
                           match="^row 1 is short: no value for column 'a'$"):
            load_dataset(csv, SCHEMA)

    def test_comment_line_mid_file_skipped(self, tmp_path):
        csv = write_csv(tmp_path / "m.csv",
                        "x0,x1,a,y\n0.5,1.5,0,2.0\n# 9,9,9,9\n0.25,1,1,0\n")
        d = load_dataset(csv, SCHEMA)
        assert d.covariates.tolist() == [[0.5, 1.5], [0.25, 1.0]]
        assert d.treatment.tolist() == [0, 1]

    def test_string_id_column_loads(self, tmp_path):
        csv = write_csv(tmp_path / "i.csv",
                        "id,x0,x1,a,y\nu1,0.5,-1.25,1,3.0\n\"u,2\",0.125,2.0,0,1.5\n")
        d = load_dataset(csv, SCHEMA)
        assert d.covariates.tolist() == [[0.5, -1.25], [0.125, 2.0]]
        assert d.outcome.tolist() == [3.0, 1.5]
        with pytest.raises(DataValidationError, match="unparseable value 'u1' in column 'id'"):
            load_dataset(csv, {"treatment": "a", "outcome": "y"})

    @pytest.mark.parametrize("body", ["1,2,0,3\n", "\"1\",2,0,3\n"], ids=["fast", "scan"])
    def test_duplicate_header_name_rejected(self, tmp_path, body):
        csv = write_csv(tmp_path / "d.csv", "x0,x0,a,y\n" + body)
        with pytest.raises(SchemaError, match="^duplicate column name 'x0' in header$"):
            load_dataset(csv, {"treatment": "a", "outcome": "y"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="not found"):
            load_dataset(tmp_path / "nope.csv", SCHEMA)

    def test_covariates_default_to_unclaimed_columns(self, tmp_path):
        csv = write_csv(tmp_path / "c.csv", "x0,x1,a,y\n0.5,1.5,0,2.0\n0,1,1,0\n")
        d = load_dataset(csv, {"treatment": "a", "outcome": "y"})
        assert d.covariate_names == ("x0", "x1")

    def test_null_ground_truth_is_none(self, tmp_path):
        csv = write_csv(tmp_path / "n.csv", "x0,x1,a,y\n0.5,1.5,0,2.0\n0,1,1,0\n")
        assert load_dataset(csv, dict(SCHEMA, ground_truth=None)).ground_truth is None

    def test_comment_lines_skipped(self, tmp_path):
        csv = write_csv(tmp_path / "cc.csv",
                        "# config_hash=abc\nx0,x1,a,y\n0.5,1.5,0,2.0\n0,1,1,0\n")
        assert load_dataset(csv, SCHEMA).n == 2

    def test_schema_sidecar(self, tmp_path):
        (tmp_path / "s.json").write_text(json.dumps(SCHEMA))
        assert load_schema(tmp_path / "s.json")["treatment"] == "a"
        with pytest.raises(SchemaError):
            load_schema(tmp_path / "missing.json")
        (tmp_path / "bad.json").write_text(json.dumps({"outcome": "y"}))
        with pytest.raises(SchemaError, match="treatment"):
            load_schema(tmp_path / "bad.json")
        (tmp_path / "broken.json").write_text("{bad")
        with pytest.raises(SchemaError, match="^schema is not valid JSON: "):
            load_schema(tmp_path / "broken.json")
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
        with pytest.raises(SchemaError, match="^schema is not valid JSON: 'utf-8' codec"):
            load_schema(tmp_path / "binary.json")

    @pytest.mark.parametrize("schema,match", BAD_SCHEMAS)
    def test_bad_schema_map_rejected(self, tmp_path, schema, match):
        csv = write_csv(tmp_path / "d.csv", "x0,x1,a,y,z\n0.5,1.5,0,2.0,1\n0,1,1,0,0\n")
        with pytest.raises(SchemaError, match=match):
            load_dataset(csv, schema)
        (tmp_path / "s.json").write_text(json.dumps(schema))
        with pytest.raises(SchemaError, match=match):
            load_schema(tmp_path / "s.json")


class TestDatasetInvariants:
    def test_immutability(self, toy_dataset):
        with pytest.raises((ValueError, RuntimeError)):
            toy_dataset.covariates[0, 0] = 99.0
        with pytest.raises((ValueError, RuntimeError)):
            toy_dataset.outcome[0] = 99.0

    def test_arrays_of_the_stored_kind_are_kept_not_copied(self):
        X, a, y = np.zeros((3, 2)), np.array([0, 1, 0], dtype=np.int64), np.ones(3)
        d = Dataset(X, a, y)
        assert d.covariates is X and d.treatment is a and d.outcome is y
        assert not (X.flags.writeable or a.flags.writeable or y.flags.writeable)
        F = np.asfortranarray(np.zeros((3, 2)))  # any other kind is copied
        assert Dataset(F, a, y).covariates is not F and F.flags.writeable

    @pytest.mark.parametrize("make,message", [
        (lambda: Dataset(np.zeros((2, 1)), [0, 0.5], [0.0, 0.0]),
         "treatment must be 0 or 1; offending row 1"),
        (lambda: Dataset(np.zeros((2, 1)), [1.7, 0], [0.0, 0.0]),
         "treatment must be 0 or 1; offending row 0"),
        (lambda: GroundTruth([4.5, 1], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0, 1]),
         "ground-truth column 'true_group' has value 4.5 at row 0, which is not an int64 "
         "whole number"),
        (lambda: GroundTruth([1, 1e300], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0, 1]),
         "ground-truth column 'true_group' has value 1e+300 at row 1, which is not an int64 "
         "whole number"),
        (lambda: GroundTruth([1, 2], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0, 0.5]),
         "ground-truth z must be 0/1"),
        (lambda: IVExperiment(make_dataset(n=4), [0, 1, 0.5, 1]), "z must be 0/1")])
    def test_whole_number_columns_are_checked_before_the_cast(self, make, message):
        with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
            make()

    def test_with_covariate_returns_new(self, toy_dataset):
        d2 = toy_dataset.with_covariate("extra", np.zeros(toy_dataset.n))
        assert d2.k == toy_dataset.k + 1
        assert toy_dataset.k == 3

    def test_length_mismatch(self):
        with pytest.raises(DataValidationError, match="lengths differ"):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), np.zeros(3))

    def test_ground_truth_consistency(self):
        n = 4
        with pytest.raises(DataValidationError, match="true_cate"):
            GroundTruth(true_group=np.ones(n), true_cate=np.full(n, 2.0),
                        y0=np.zeros(n), y1=np.full(n, 2.5), z=np.zeros(n))
        gt = GroundTruth(true_group=np.ones(n), true_cate=np.full(n, 2.0),
                         y0=np.zeros(n), y1=np.full(n, 2.0), z=np.zeros(n))
        assert gt.true_cate[0] == 2.0

    @pytest.mark.parametrize("column", ["true_cate", "y0", "y1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ground_truth_non_finite_rejected(self, column, bad):
        cols = {"true_group": np.ones(3), "true_cate": np.ones(3), "y0": np.zeros(3),
                "y1": np.ones(3), "z": np.zeros(3)}
        cols[column][1] = bad
        with pytest.raises(DataValidationError,
                           match=f"^non-finite ground-truth value in column '{column}' at row 1$"):
            GroundTruth(**cols)


def test_run_refuses_a_fractional_true_group(tmp_path, capsys):
    """An oracle CSV whose first true_group cell reads 4.5 is refused, not
    read as group 4."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"n": 300, "k": 4}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    path = tmp_path / "sim" / "oracle.csv"
    comment, header, first, rest = path.read_text().split("\n", 3)
    cells = first.split(",")
    cells[header.split(",").index("true_group")] = "4.5"
    path.write_text("\n".join([comment, header, ",".join(cells), rest]))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--data", str(path),
                 "--schema", str(tmp_path / "sim" / "oracle_schema.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("stage failure: DataValidationError: ground-truth column "
                                       "'true_group' has value 4.5 at row 0, which is not an "
                                       "int64 whole number\n")


@settings(max_examples=300, deadline=None)
@given(block=st.sampled_from([2, 3, 8, data._BLOCK_ROWS]), draw=st.data())
def test_row_ranges_contract(block, draw):
    """The ranges cover ``[0, n)`` in order, each starts at a multiple of
    the block, every one but the last holds a block, the last fewer than two
    blocks, and only a table of one row has a one-row range."""
    n = draw.draw(st.integers(0, 5 * block) | st.sampled_from([0, 1, block - 1, block,
                                                               2 * block - 1, 2 * block]))
    with mock.patch.object(data, "_BLOCK_ROWS", block):
        got = data.row_ranges(n)
    bounds = [0, *(hi for _, hi in got)]
    assert [lo for lo, _ in got] == bounds[:-1] and bounds[-1] == n
    assert (got == []) == (n == 0)
    assert all(lo % block == 0 for lo, _ in got)
    assert all(hi - lo == block for lo, hi in got[:-1])
    assert all(0 < hi - lo < 2 * block for lo, hi in got)
    assert any(hi - lo == 1 for lo, hi in got) == (n == 1)
