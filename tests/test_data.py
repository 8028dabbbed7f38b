import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyrank import (Dataset, DataValidationError, GroundTruth, SchemaError,
                       SplitSpec, load_dataset, load_schema, save_dataset,
                       train_validation_split)

from conftest import make_dataset


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="not found"):
            load_dataset(tmp_path / "nope.csv", SCHEMA)

    def test_covariates_default_to_unclaimed_columns(self, tmp_path):
        csv = write_csv(tmp_path / "c.csv", "x0,x1,a,y\n0.5,1.5,0,2.0\n0,1,1,0\n")
        d = load_dataset(csv, {"treatment": "a", "outcome": "y"})
        assert d.covariate_names == ("x0", "x1")

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


class TestDatasetInvariants:
    def test_immutability(self, toy_dataset):
        with pytest.raises((ValueError, RuntimeError)):
            toy_dataset.covariates[0, 0] = 99.0
        with pytest.raises((ValueError, RuntimeError)):
            toy_dataset.outcome[0] = 99.0

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


class TestSplit:
    def test_ninety_ten_split_sizes(self):
        d = make_dataset(n=1000, k=2)
        train, val = train_validation_split(d, SplitSpec(0.10, seed=1))
        assert (train.n, val.n) == (900, 100)

    def test_zero_fraction_identity(self, toy_dataset):
        train, val = train_validation_split(toy_dataset, SplitSpec(0.0, seed=5))
        assert train.n == toy_dataset.n and val.n == 0
        np.testing.assert_array_equal(train.covariates, toy_dataset.covariates)

    def test_fraction_one_rejected(self):
        with pytest.raises(SchemaError):
            SplitSpec(1.0, seed=0)

    def test_determinism_and_partition(self):
        d = make_dataset(n=57, k=2, seed=9)
        spec = SplitSpec(0.25, seed=42)
        t1, v1 = train_validation_split(d, spec)
        t2, v2 = train_validation_split(d, spec)
        np.testing.assert_array_equal(t1.outcome, t2.outcome)
        np.testing.assert_array_equal(v1.outcome, v2.outcome)
        # disjoint and complete: outcomes are unique in this fixture
        merged = np.sort(np.concatenate([t1.outcome, v1.outcome]))
        np.testing.assert_array_equal(merged, np.sort(d.outcome))

    def test_single_row_guard(self):
        d = make_dataset(n=2, k=2).subset(np.array([0]))
        with pytest.raises(DataValidationError):
            train_validation_split(d, SplitSpec(0.5, seed=0))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 80), f=st.floats(0.01, 0.9), seed=st.integers(0, 2**32 - 1))
    def test_split_is_bijection_on_indices(self, n, f, seed):
        d = Dataset(np.arange(n, dtype=float).reshape(-1, 1),
                    np.resize([0, 1], n), np.arange(n, dtype=float))
        train, val = train_validation_split(d, SplitSpec(f, seed))
        assert train.n == int(round(n * (1 - f)))
        assert train.n + val.n == n
        merged = np.sort(np.concatenate([train.outcome, val.outcome]))
        np.testing.assert_array_equal(merged, np.arange(n, dtype=float))
