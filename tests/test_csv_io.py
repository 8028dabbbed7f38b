"""The column-wise CSV reader and writer against the per-cell reference.

``tests/csv_oracle.py`` keeps the cell-at-a-time ``load_dataset`` and
``save_dataset``. The reader must return bit-equal arrays and names, or raise
the same exception type with the same message, on any text; the writers must
produce the same bytes.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
from proxyrank import (Dataset, GroundTruth, SimConfig, load_dataset, save_dataset,
                       simulate_cohort)
from proxyrank.cli import main
from proxyrank.data import _fast_table, save_simulated

HEADER = ["x0", "x1", "a", "y"]
SCHEMAS = [{"treatment": "a", "outcome": "y", "covariates": ["x0", "x1"]},
           {"treatment": "a", "outcome": "y"}]  # every unclaimed column, incl. an id

finite = st.floats(allow_nan=False, allow_infinity=False)
# Cells on which the fast parse and float() may disagree, or that only the
# csv module reads as intended, by kind.
ODD_CELLS = st.one_of(
    st.sampled_from(["nan", "-inf", "inf", "infinity", "NaN", "1e400", "-1e400"]),
    st.sampled_from([" 1.5 ", "\t0", "\xa01", "1\x1c", "\x1f0", "\x1e1", "1\x1d", "١",
                     "٤.5"]),
    st.sampled_from(['"0.5"', '"1"', '"1,5"', '"a\nb"', '"2\r\n3"', '"', '1"2']),
    st.sampled_from(["1_0", "0x10", "1e5 2", "1\x00", "1e", "", " ", "abc", "u7"]),
    st.sampled_from([".5", "5.", "+1", "-0.0", "2", "0.5", "1.0", "1e-320"]))
EXTRA_LINES = ["", " ", "  \t", "# mid-file comment", "#", ",", "x0,x1,a,y", '"']
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def csv_texts(draw):
    header = list(HEADER)
    if draw(st.integers(0, 3)) == 0:
        header.insert(draw(st.integers(0, len(header))), "id")
    n = draw(st.integers(1, 4))
    rows = []
    for i in range(n):
        cells = {"x0": repr(draw(finite)), "x1": repr(draw(finite)),
                 "a": draw(st.sampled_from(["0", "1"])), "y": repr(draw(finite)),
                 "id": f"u{i}"}
        rows.append([cells[c] for c in header])
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["cell", "cell", "short", "long"]))
        # A ragged row, or every row cut or extended alike.
        chosen = rows if draw(st.booleans()) else [rows[draw(st.integers(0, n - 1))]]
        for row in chosen:
            if kind == "cell":
                row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
            elif kind == "short" and row:
                row.pop()
            elif kind == "long":
                row.append(draw(st.sampled_from(["0", "1.5", ""])))
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(EXTRA_LINES)))
    if draw(st.booleans()):
        lines.insert(0, "# config_hash=abc")
    ends = draw(st.lists(st.sampled_from(ENDINGS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome_of(load, path, schema):
    """("ok", arrays and names) or ("raised", type, message) of one load."""
    try:
        d = load(path, schema)
    except Exception as exc:  # compared with the oracle's, whatever it is
        return ("raised", type(exc), str(exc))
    gt = d.ground_truth
    arrays = [d.covariates, d.treatment, d.outcome]
    if gt is not None:
        arrays += [gt.true_group, gt.true_cate, gt.y0, gt.y1, gt.z]
    return ("ok", d.covariate_names, gt is None,
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def assert_same_load(path, schema):
    assert outcome_of(load_dataset, path, schema) == \
        outcome_of(csv_oracle.load_dataset, path, schema)


@pytest.mark.filterwarnings("error:loadtxt:UserWarning")
class TestLoadMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(), schema=st.sampled_from(SCHEMAS))
    def test_adversarial_text(self, tmp_path_factory, text, schema):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_load(path, schema)

    @pytest.mark.parametrize("text", [
        "",
        "x0,x1,a,y\n",
        "# only a comment\n",
        "x0,x1,a,y\n\n",
        "x0,x1,a,y\n\n\n",
        "x0,x1,a,y\n \n",
        '"x0","x1","a","y"\n1,2,0,3\n',
        '"x0\n",x1,a,y\n1,2,0,3\n',
        "x0,x1,a,y\n1,2,0,3\n# 1,2,0,3\n4,5,1,6\n",
        "x0,x1,a,y\n1,2,0,3\n4,5,2,6\n",
        "x0,x1,a,y\n1,2,0.5,3\n",
        "x0,x1,a,y\n1,2,0,nan\n",
        "x0,x1,a,y\n1,2,0,3\n4,5,1,6,7\n",
        "x0,x1,a,y\n1,2,0,3\n4,5,1\n",
        "x0,x1,a,y,z\n1,2,0,3,nan\n",
        "x0,x1,a,y\n1\x1c,2,0,3\n",
        "x0,x1,a,y\n1,2,0,3\r\n4,5,1,6\r4,5,1,6",
        pytest.param("x0,x1,a,y\n1," + "0" * 131_073 + "1,0,3\n", id="over_field_limit"),
    ])
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        for schema in SCHEMAS:
            assert_same_load(path, schema)

    def test_ground_truth_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,a,y,g,c,y0,y1,z\n0.5,1,2.0,1,1.5,0.5,2.0,1\n"
                        "0.5,0,2.0,3,1.5,0.5,2.0,0\n0.5,0,2.0,0,1.5,0.5,2.0,0\n")
        schema = {"treatment": "a", "outcome": "y",
                  "ground_truth": dict(zip(("true_group", "true_cate", "y0", "y1", "z"),
                                           ("g", "c", "y0", "y1", "z")))}
        assert_same_load(path, schema)  # true_group 0 at row 2: the same error
        path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
        assert_same_load(path, schema)


class TestFastPath:
    """The C parse takes clean files and leaves everything else to the scan."""

    def test_clean_file_is_parsed_in_c(self):
        table = _fast_table(["1.5,-0.0,1,2e-308\r\n", "3,4,0,5"], 4)
        assert table.tolist() == [[1.5, -0.0, 1.0, 2e-308], [3.0, 4.0, 0.0, 5.0]]

    @pytest.mark.parametrize("body", [
        [], ["1,2,0,3\n", "\n"], ["1,2,0,3\n", "\r\n", "1,2,0,3\n"], ["1,2,0\n"],
        ["1,2,0,3,4\n"], ['1,"2",0,3\n'], ["1,2,0,nan\n"], ["1,2,0,1e400\n"],
        ["1,2\x1c,0,3\n"], ["u1,2,0,3\n"], ["1_0,2,0,3\n"], ["1,2,0,3\n", "1,2,0,3,4\n"],
        pytest.param(["1," + "0" * 131_073 + ",0,3\n"], id="over_field_limit"),
    ])
    def test_other_bodies_are_scanned(self, body):
        assert _fast_table(body, 4) is None


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
           1e-5, 1e-4, 0.0001, 9.999999999999999e-05, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1, 1 / 3]
values = st.one_of(finite, st.sampled_from(SPECIAL))
moderate = st.floats(min_value=-1e300, max_value=1e300).map(float)
NAMES = ["x0", "a,b", 'q"t', " lead", "plain", "x\ny", "é"]


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 12))
    k = draw(st.integers(0, 4))
    X = np.array(draw(st.lists(values, min_size=n * k, max_size=n * k)),
                 dtype=np.float64).reshape(n, k)
    a = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    names = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=k, max_size=k,
                                unique=True)))
    y0 = np.array(draw(st.lists(moderate, min_size=n, max_size=n)), dtype=np.float64)
    y1 = np.array(draw(st.lists(moderate, min_size=n, max_size=n)), dtype=np.float64)
    groups = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Dataset(X, a, y, names, GroundTruth(groups, y1 - y0, y0, y1, z))


class TestSaveMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(d=datasets(), with_gt=st.booleans(),
           comment=st.sampled_from([None, "config_hash=abc"]))
    def test_save_dataset_bytes(self, tmp_path_factory, d, with_gt, comment):
        tmp = tmp_path_factory.mktemp("save")
        got = save_dataset(d, tmp / "new.csv", include_ground_truth=with_gt,
                           header_comment=comment)
        want = csv_oracle.save_dataset(d, tmp / "old.csv", include_ground_truth=with_gt,
                                       header_comment=comment)
        assert got == want
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(d=datasets())
    def test_save_simulated_bytes(self, tmp_path_factory, d):
        tmp = tmp_path_factory.mktemp("sim")
        got = save_simulated(d, tmp / "obs.csv", tmp / "ora.csv", header_comment="h")
        want = (csv_oracle.save_dataset(d.without_ground_truth(), tmp / "obs0.csv",
                                        header_comment="h"),
                csv_oracle.save_dataset(d, tmp / "ora0.csv", include_ground_truth=True,
                                        header_comment="h"))
        assert got == want
        assert (tmp / "obs.csv").read_bytes() == (tmp / "obs0.csv").read_bytes()
        assert (tmp / "ora.csv").read_bytes() == (tmp / "ora0.csv").read_bytes()

    def test_rows_across_write_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 9_000  # more than two blocks of rows
        y0, y1 = rng.standard_normal(n), rng.standard_normal(n)
        gt = GroundTruth(rng.integers(1, 5, n), y1 - y0, y0, y1, rng.integers(0, 2, n))
        d = Dataset(rng.standard_normal((n, 2)), rng.integers(0, 2, n),
                    rng.standard_normal(n), ("u", "v"), gt)
        save_simulated(d, tmp_path / "obs.csv", tmp_path / "ora.csv")
        csv_oracle.save_dataset(d.without_ground_truth(), tmp_path / "obs0.csv")
        csv_oracle.save_dataset(d, tmp_path / "ora0.csv", include_ground_truth=True)
        assert (tmp_path / "obs.csv").read_bytes() == (tmp_path / "obs0.csv").read_bytes()
        assert (tmp_path / "ora.csv").read_bytes() == (tmp_path / "ora0.csv").read_bytes()

    def test_missing_ground_truth_writes_nothing(self, tmp_path):
        d = Dataset(np.zeros((2, 1)), [0, 1], [0.0, 1.0])
        with pytest.raises(ValueError, match="no ground truth to write"):
            save_simulated(d, tmp_path / "obs.csv", tmp_path / "ora.csv")
        assert not any(tmp_path.iterdir())

    @settings(max_examples=40, deadline=None)
    @given(d=datasets())
    def test_roundtrip_is_exact(self, tmp_path_factory, d):
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        schema = save_dataset(d, path, include_ground_truth=True)
        assert_same_load(path, schema)
        if d.n:
            assert outcome_of(load_dataset, path, schema) == \
                outcome_of(lambda *_: d, path, schema)


def test_simulate_files_equal_frozen_writer(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"n": 300, "k": 6, "seed": 4}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    sim = simulate_cohort(SimConfig(n=300, k=6, seed=4))
    chash = json.loads((tmp_path / "sim" / "sim_config.json").read_text())["config_hash"]
    obs = csv_oracle.save_dataset(sim.observed, tmp_path / "obs.csv",
                                  header_comment=f"config_hash={chash}")
    ora = csv_oracle.save_dataset(sim.oracle, tmp_path / "ora.csv", include_ground_truth=True,
                                  header_comment=f"config_hash={chash}")
    assert (tmp_path / "sim" / "observed.csv").read_bytes() == (tmp_path / "obs.csv").read_bytes()
    assert (tmp_path / "sim" / "oracle.csv").read_bytes() == (tmp_path / "ora.csv").read_bytes()
    for name, schema in (("observed_schema.json", obs), ("oracle_schema.json", ora)):
        assert json.loads((tmp_path / "sim" / name).read_text()) == \
            {"config_hash": chash, **schema}
