"""The column-wise CSV reader and writer against the per-cell reference.

``tests/csv_oracle.py`` keeps the cell-at-a-time ``load_dataset`` and
``save_dataset``. The reader must return bit-equal arrays and names, or raise
the same exception type with the same message, on any text; the writers must
produce the same bytes.
"""
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_oracle
from proxyrank import (Dataset, GroundTruth, RunConfig, SimConfig, data, ground_truth_rank,
                       load_dataset, pipeline, save_dataset, simulate_cohort,
                       top_fraction_indices)
from proxyrank.data import DataValidationError
from proxyrank.cli import main
from proxyrank.data import _parse_rows, save_simulated

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
        table = _parse_rows(["1.5,-0.0,1,2e-308\r\n", "3,4,0,5"], 4)
        assert table.tolist() == [[1.5, -0.0, 1.0, 2e-308], [3.0, 4.0, 0.0, 5.0]]

    @pytest.mark.parametrize("body", [
        [], ["1,2,0,3\n", "\n"], ["1,2,0,3\n", "\r\n", "1,2,0,3\n"], ["1,2,0\n"],
        ["1,2,0,3,4\n"], ['1,"2",0,3\n'], ["1,2,0,nan\n"], ["1,2,0,1e400\n"],
        ["1,2\x1c,0,3\n"], ["u1,2,0,3\n"], ["1_0,2,0,3\n"], ["1,2,0,3\n", "1,2,0,3,4\n"],
        pytest.param(["1," + "0" * 131_073 + ",0,3\n"], id="over_field_limit"),
    ])
    def test_other_bodies_are_scanned(self, body):
        assert _parse_rows(body, 4) is None


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


# Cells of the run files' rows: labels, ints (Python and numpy), repr'd
# floats, empty cells and flags.
RUN_CELLS = st.one_of(st.text(alphabet="abc_xyz019", max_size=8), st.integers(),
                      st.integers(-5, 5).map(np.int64), finite.map(repr), st.booleans(),
                      st.just(""), st.none())


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.lists(RUN_CELLS, max_size=6).map(tuple), max_size=12))
def test_write_csv_bytes_equal_generator_join(tmp_path_factory, rows):
    """``write_csv`` joins each row with ``map(str, row)``; the bytes are those
    of the per-cell generator it replaced."""
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    pipeline.write_csv(path, "0123abcd", ["model", "k"], iter(rows))
    lines = ["# config_hash=0123abcd", "model,k"]
    lines += [",".join(str(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_write_csv_whose_rows_raise_leaves_no_file(tmp_path):
    def rows():
        yield ("a", 1)
        raise ValueError("bad row")
    with pytest.raises(ValueError, match="bad row"):
        pipeline.write_csv(tmp_path / "overlap.csv", "0123abcd", ["model", "k"], rows())
    assert list(tmp_path.iterdir()) == []  # neither the target nor a .tmp


WHOLE_WRITERS = {
    "report.json": lambda out: pipeline.write_json(out / "report.json", {"config_hash": "new"}),
    "summary.md": lambda out: pipeline.write_summary(out, {"config_hash": "new", "models": []}),
}


@pytest.mark.parametrize("name", list(WHOLE_WRITERS))
def test_failed_json_and_summary_writes_keep_the_old_file(tmp_path, monkeypatch, name):
    (tmp_path / name).write_bytes(b"old bytes")

    def replace(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(data.os, "replace", replace)
    with pytest.raises(OSError, match="No space left"):
        WHOLE_WRITERS[name](tmp_path)
    assert (tmp_path / name).read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def random_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    y0, y1 = rng.standard_normal(n), rng.standard_normal(n)
    gt = GroundTruth(rng.integers(1, 5, n), y1 - y0, y0, y1, rng.integers(0, 2, n))
    return Dataset(rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-5, 5, (n, 3)),
                   rng.integers(0, 2, n), rng.standard_normal(n), ("u", "v", "w"), gt)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the ranges run on forked workers")
class TestRangesOnThePool:
    """Tables cut into row ranges of 4 rows, formatted and parsed on 1 to 3
    workers: a table of 7 rows or fewer is one range."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 3, 7, 8, 13])
    def test_save_bytes_equal_oracle(self, ranges, tmp_path, workers, n):
        d = random_dataset(n)
        ranges(workers, 4)
        got = (save_simulated(d, tmp_path / "obs.csv", tmp_path / "ora.csv", header_comment="h"),
               save_dataset(d, tmp_path / "gt.csv", include_ground_truth=True))
        want = (csv_oracle.save_dataset(d.without_ground_truth(), tmp_path / "obs0.csv",
                                        header_comment="h"),
                csv_oracle.save_dataset(d, tmp_path / "ora0.csv", include_ground_truth=True,
                                        header_comment="h"),
                csv_oracle.save_dataset(d, tmp_path / "gt0.csv", include_ground_truth=True))
        assert got == (want[:2], want[2])
        for new, old in (("obs", "obs0"), ("ora", "ora0"), ("gt", "gt0")):
            assert (tmp_path / f"{new}.csv").read_bytes() == \
                (tmp_path / f"{old}.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{name}.csv" for name in ("obs", "obs0", "ora", "ora0", "gt", "gt0"))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 7, 8, 13])
    def test_load_equals_oracle(self, ranges, tmp_path, workers, n):
        path = tmp_path / "d.csv"
        schema = csv_oracle.save_dataset(random_dataset(n), path, include_ground_truth=True,
                                         header_comment="h")
        ranges(workers, 4)
        assert_same_load(path, schema)
        assert outcome_of(load_dataset, path, schema)[0] == "ok"

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("bad,message", [
        ("nan", "non-finite value in column 'y' at row 12"),
        ('"0.5"', None),  # the scan reads a quoted cell: no error
        ('"u12"', "unparseable value 'u12' in column 'y' at row 12"),
        ("short", "row 12 is short: no value for column 'y'")])
    def test_bad_cell_in_the_last_range(self, ranges, tmp_path, workers, bad, message):
        lines = [",".join(HEADER)] + [f"{i},{i / 3!r},{i % 2},{i * 1.5!r}" for i in range(13)]
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ("" if bad == "short" else f",{bad}")
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        ranges(workers, 4)  # rows 8-12 are the last of three ranges
        for schema in SCHEMAS:
            assert_same_load(path, schema)
        got = outcome_of(load_dataset, path, SCHEMAS[0])
        if message is None:
            assert got[0] == "ok"
        else:
            assert got == ("raised", DataValidationError, message)


# Two models on 90 units: 180 stacked rows in ranges of 16, where rows 80-95
# straddle the boundary between the models.
MODEL_ROWS = {"sim": {"n": 90, "k": 4}, "k_grid": [10.0, 33.3, 50.0, 100.0],
              "analysis": {"report_range": [0.0, 20.0]}}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the ranges run on forked workers")
class TestModelRowsOnThePool:
    """ranking.csv and ite.csv, formatted range by range from each model's
    own arrays on 1 to 3 workers, against rows built one cell at a time."""

    @pytest.fixture(scope="class")
    def analyzed(self):
        cfg = RunConfig.from_dict(MODEL_ROWS)
        sim = simulate_cohort(cfg.resolved_sim())
        return cfg, sim, list(pipeline.analyze_models(sim.observed, cfg))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ranking_bytes(self, analyzed, ranges, tmp_path, workers):
        cfg, sim, reports = analyzed
        true_levels = ground_truth_rank(sim)
        ranges(workers, 16)
        pipeline.write_ranking(tmp_path, "0123abcd", reports, cfg.k_grid, sim.observed.n,
                               len(reports), true_levels)
        lines = ["# config_hash=0123abcd", "model,index,ite,rank,level,true_level,"
                 "top_10,top_33.3,top_50,top_100"]
        for m in reports:
            ranked = m.analysis.ranked
            tops = [set(top_fraction_indices(ranked.ite, k).tolist()) for k in cfg.k_grid]
            lines += [",".join([m.label, str(i), repr(float(ranked.ite[i])),
                                str(int(ranked.rank[i])), str(int(ranked.level[i])),
                                str(int(true_levels[i])), *(str(int(i in t)) for t in tops)])
                      for i in range(ranked.n)]
        assert (tmp_path / "ranking.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ite_bytes_with_report_range(self, analyzed, ranges, tmp_path, workers):
        cfg, _, reports = analyzed
        (tmp_path / "cfg.json").write_text(json.dumps(MODEL_ROWS))
        ranges(workers, 16)
        assert main(["analyze", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 0
        lo, hi = cfg.analysis.report_range
        lines = [f"# config_hash={cfg.config_hash()}", "model,index,ite,y_hat_1,y_hat_0"]
        clipped = 0
        for m in reports:
            ites = m.analysis.ites
            for i, (y1, y0) in enumerate(zip(ites.y_hat_1.tolist(), ites.y_hat_0.tolist())):
                c1, c0 = min(max(y1, lo), hi), min(max(y0, lo), hi)
                clipped += (c1, c0) != (y1, y0)
                lines.append(f"{m.label},{i},{c1 - c0!r},{c1!r},{c0!r}")
        assert clipped and len(lines) == 2 + 180
        assert (tmp_path / "out" / "ite.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def body_text(rows, ends="\n", final=True):
    """The header and ``rows`` after a comment line, each line ended by the
    next of ``ends`` in turn; without a last line end unless ``final``."""
    lines = ["# config_hash=h", ",".join(HEADER), *rows]
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    return text if final else text.rstrip("\r\n")


ROWS = [f"{i},{i / 3!r},{i % 2},{i * 1.5!r}" for i in range(13)]
# Two unused columns, n1 and n2. Body lines 3 and 4 are one record: line 3
# holds two quotes, yet its second opens a quoted cell that line 4 closes.
NOTE_ROWS = [f"{i},n,n,{i / 3!r},{i % 2},{i * 1.5!r}" for i in range(13)]
NOTE_ROWS[3:5] = ['3,a"b,"c', 'd",1.0,1,4.5']
# Files whose body is cut into ranges of physical lines: with ranges of 4
# lines, body lines 4 and 8 start a range.
RANGE_FILES = {
    "lf": body_text(ROWS),
    "crlf": body_text(ROWS, "\r\n"),
    "bare_cr": body_text(ROWS, "\r"),
    "mixed_ends": body_text(ROWS, ["\n", "\r\n", "\r", "\r\n"]),
    "no_last_newline": body_text(ROWS, final=False),
    "crlf_no_last_newline": body_text(ROWS, "\r\n", final=False),
    "comment_mid_body": body_text(ROWS[:6] + ["# mid-body"] + ROWS[6:]),
    "comment_at_range_start": body_text(ROWS[:4] + ["# range start"] + ROWS[4:]),
    "comments_fill_a_range": body_text(ROWS[:4] + ["#"] * 4 + ROWS[4:]),
    "blank_line_at_range_boundary": body_text(ROWS[:4] + [""] + ROWS[4:]),
    "blank_last_line": body_text(ROWS + [""]),
    "quoted_multiline_header": '"x0\r\n",x1,a,y\r\n' + "\r\n".join(ROWS) + "\r\n",
    "comment_inside_quoted_header": '# c\n"x0\n# dropped\nx0",x1,a,y\n' + "\n".join(ROWS),
    "header_only": body_text([]),
    "comments_only_body": body_text(["# a", "# b"]),
    "non_ascii_header": "é,x1,a,y\n" + "\n".join(ROWS) + "\n",
    "quoted_cells_in_several_ranges": body_text(
        [f'{i},"{i / 3!r}",{i % 2},"{i * 1.5!r}"' if i % 3 == 1 else row
         for i, row in enumerate(ROWS)]),
    "non_finite_in_a_late_range": body_text(ROWS[:11] + ["11,3.5,1,inf"] + ROWS[12:]),
    "quote_pair_straddles_a_boundary": "# h\nx0,n1,n2,x1,a,y\n" + "\n".join(NOTE_ROWS) + "\n",
    "last_line_opens_a_quote": body_text(ROWS + ['13,4.5,1,"19.5']),
}
# The files the csv module reads in ranges of 4 lines, because the C step
# declines a range; the others are parsed in C. A body with no line to parse
# (header_only, comments_only_body) needs neither.
SCANNED = {"blank_line_at_range_boundary", "blank_last_line", "quoted_cells_in_several_ranges",
           "non_finite_in_a_late_range", "quote_pair_straddles_a_boundary",
           "last_line_opens_a_quote"}
# (workers, range lines, bytes per read of the parent's scan)
RANGE_SETTINGS = [(1, 4, 1 << 20), (2, 4, 5), (3, 4, 1 << 20), (2, 1, 1 << 20), (3, 1, 7)]


def spy_on_csv_ranges(monkeypatch) -> list:
    """The range bodies with a line that ``_parse_rows`` declines, so that
    the csv module must split them, as seen in this process: every range,
    with one worker."""
    scanned, parse_rows = [], data._parse_rows

    def spy(body, width):
        table = parse_rows(body, width)
        if table is None and body:
            scanned.append(body)
        return table
    monkeypatch.setattr(data, "_parse_rows", spy)
    return scanned


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the ranges run on forked workers")
class TestRangesReadFromTheFile:
    """Each worker reads its range of body lines from the file itself; the
    parent reads the header and finds where each range starts."""

    @pytest.mark.parametrize("workers,block,scan", RANGE_SETTINGS)
    @pytest.mark.parametrize("name", list(RANGE_FILES))
    def test_load_equals_oracle(self, ranges, monkeypatch, tmp_path, name, workers, block,
                                scan):
        path = tmp_path / "d.csv"
        path.write_bytes(RANGE_FILES[name].encode("utf-8"))
        ranges(workers, block)
        monkeypatch.setattr(data, "_SCAN_BYTES", scan)
        scanned = spy_on_csv_ranges(monkeypatch)
        for schema in SCHEMAS:
            assert_same_load(path, schema)
        if workers == 1:
            assert bool(scanned) == (name in SCANNED)

    @pytest.mark.filterwarnings("error:loadtxt:UserWarning")
    @pytest.mark.parametrize("workers,block", [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts(), schema=st.sampled_from(SCHEMAS))
    def test_adversarial_text_in_ranges(self, ranges, tmp_path_factory, workers, block, text,
                                        schema):
        # Ranges of one to three lines: a quoted line break, a blank line or
        # a bad cell falls in any range, and often on a boundary.
        ranges(workers, block)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_load(path, schema)

    def test_quote_pair_across_a_boundary_is_one_record(self, ranges, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(RANGE_FILES["quote_pair_straddles_a_boundary"].encode())
        ranges(2, 4)
        d = load_dataset(path, SCHEMAS[0])
        assert d.n == 12 and d.covariates[3].tolist() == [3.0, 1.0] and d.outcome[3] == 4.5
        assert d.covariates[4].tolist() == [5.0, 5 / 3]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bare_cr", [False, True])
    def test_comments_in_several_ranges_load_into_exact_arrays(self, ranges, monkeypatch,
                                                               tmp_path, workers, bare_cr):
        # Ranges of 64 lines: 20 "#" lines fall in all five ranges of the
        # 320-line body of 300 rows with ground truth. With every other line
        # ended by a bare "\r", the ranges hold more lines than "\n"s.
        path = tmp_path / "d.csv"
        schema = csv_oracle.save_dataset(random_dataset(300), path, include_ground_truth=True,
                                         header_comment="h")
        head, header, *rows = path.read_text().splitlines()
        for i in range(20):
            rows.insert(16 * i, f"# comment {i}")
        ends = ["\r\n", "\r" if bare_cr else "\r\n"]
        path.write_bytes("".join(line + ends[i % 2]
                                 for i, line in enumerate([head, header, *rows])).encode())
        ranges(workers, 64)
        scanned = spy_on_csv_ranges(monkeypatch)
        assert_same_load(path, schema)
        d = load_dataset(path, schema)
        if workers == 1:
            assert not scanned
        # X owns a buffer of exactly n x k: no view of a longer one
        assert d.covariates.base is None and d.covariates.nbytes == 300 * 3 * 8
        assert d.outcome.base is None and d.outcome.nbytes == 300 * 8

    @pytest.mark.parametrize("scan", [1, 2, 5, 1 << 20])
    def test_range_starts(self, monkeypatch, tmp_path, scan):
        # Lines end at each b"\n" only: "bb\r\rccc\n" is one of them.
        path = tmp_path / "d.csv"
        path.write_bytes(b"h\na\r\nbb\r\rccc\n\nd")
        monkeypatch.setattr(data, "_SCAN_BYTES", scan)
        with open(path, "rb") as fh:
            assert data._range_starts(fh, 2, 1) == ([2, 5, 13, 14], 4, 15)
            assert data._range_starts(fh, 2, 2) == ([2, 13], 4, 15)
            assert data._range_starts(fh, 2, 3) == ([2, 14], 4, 15)
            assert data._range_starts(fh, 2, 5) == ([2], 4, 15)
            assert data._range_starts(fh, 14, 1) == ([14], 1, 15)
            assert data._range_starts(fh, 15, 1) == ([15], 0, 15)
        # After a last "\n" no line starts, though the offset of the end is
        # listed where the next line would start.
        path.write_bytes(b"h\na\n")
        with open(path, "rb") as fh:
            assert data._range_starts(fh, 2, 1) == ([2, 4], 1, 4)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("where,message", [
        ("row", "row 12 is not UTF-8 (invalid start byte)"),
        ("header", "the header is not UTF-8 (invalid start byte)"),
        ("comment", "a comment line before row 9 is not UTF-8 (invalid start byte)"),
        ("first_comment", "a comment line before the header is not UTF-8 "
                          "(invalid continuation byte)"),
        ("quoted_cell", "row 5 is not UTF-8 (invalid start byte)"),
        # a header that repeats a column does not hide the body's bad byte
        ("repeated_header", "row 12 is not UTF-8 (invalid start byte)")])
    def test_not_utf8_names_its_row(self, ranges, tmp_path, capsys, workers, where, message):
        text = body_text(ROWS).encode("utf-8")
        lines = text.split(b"\n")  # the comment line, the header, rows 0-12
        if where == "row":
            lines[14] += b"\xff"
        elif where == "header":
            lines[1] = lines[1].replace(b"x1", b"x\xff")
        elif where == "comment":
            lines.insert(11, b"# \xff")
        elif where == "first_comment":
            lines[0] += b"\xc3("
        elif where == "repeated_header":
            lines[1] = lines[1].replace(b"x1", b"x0")
            lines[14] += b"\xff"
        else:  # the second line of a quoted cell of row 5
            lines[7] = b'5,"1.6\n\xff",1,7.5'
        path = tmp_path / "d.csv"
        path.write_bytes(b"\n".join(lines))
        ranges(workers, 4)  # rows 8-12 are the last of three ranges
        for schema in SCHEMAS:
            assert outcome_of(load_dataset, path, schema) == \
                ("raised", DataValidationError, message)
        (tmp_path / "schema.json").write_text(json.dumps(SCHEMAS[0]))
        assert main(["analyze", "--data", str(path), "--schema", str(tmp_path / "schema.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"stage failure: DataValidationError: {message}\n"

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parent_reads_no_body_line(self, ranges, monkeypatch, tmp_path, workers):
        """In the parent, the file yields the comment and header lines and
        then only reads of at most ``_SCAN_BYTES``; the workers read the body."""
        path = tmp_path / "d.csv"
        schema = csv_oracle.save_dataset(random_dataset(40), path, include_ground_truth=True,
                                         header_comment="h")
        head = path.read_bytes().split(b"\n", 2)
        parent, got = os.getpid(), []

        class Spy:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def __iter__(self):
                for line in self.fh:
                    got.append(("line", len(line)))
                    yield line

            def read(self, size=-1):
                block = self.fh.read(size)
                got.append(("read", len(block)))
                return block

            def __getattr__(self, name):
                return getattr(self.fh, name)

        def spy_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            return Spy(fh) if os.getpid() == parent else fh
        monkeypatch.setattr(data, "open", spy_open, raising=False)
        monkeypatch.setattr(data, "_SCAN_BYTES", 256)
        ranges(workers, 4)
        assert_same_load(path, schema)
        lines = [size for kind, size in got if kind == "line"]
        reads = [size for kind, size in got if kind == "read"]
        assert lines == [len(head[0]) + 1, len(head[1]) + 1]
        assert max(reads) == 256 and path.stat().st_size > 10 * 256


def test_quoted_cells_load_within_a_few_times_the_arrays(ranges, tmp_path):
    """One worker, ranges of 256 rows, a quoted cell every 300 rows: each
    range is split by the csv module on its own, so the load's traced peak
    stays a small multiple of the arrays it returns."""
    rng = np.random.default_rng(0)
    d = Dataset(rng.standard_normal((6000, 10)), rng.integers(0, 2, 6000),
                rng.standard_normal(6000))
    path = tmp_path / "d.csv"
    schema = save_dataset(d, path)
    header, *rows = path.read_text().splitlines()
    for i in range(0, len(rows), 300):
        rows[i] = '"{}",{}'.format(*rows[i].split(",", 1))
    path.write_text("\n".join([header, *rows]) + "\n")
    ranges(1, 256)
    tracemalloc.start()
    try:
        got = load_dataset(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome_of(lambda *_: got, path, schema) == outcome_of(lambda *_: d, path, schema)
    assert peak < 6 * (got.covariates.nbytes + got.treatment.nbytes + got.outcome.nbytes)


def test_killed_simulate_leaves_no_partial_csv(tmp_path):
    # The process dies after writing the first 64-row range of each file.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"n": 300, "k": 6}}))
    script = ("import os, signal, sys\n"
              "import proxyrank.data as data, proxyrank.parallel as parallel\n"
              "from proxyrank.cli import main\n"
              "parallel._max_workers = lambda: 1\n"
              "data._BLOCK_ROWS = 64\n"
              "real, calls = data._text_rows, []\n"
              "def text_rows(columns):\n"
              "    calls.append(1)\n"
              "    if len(calls) == 3:\n"
              "        os.kill(os.getpid(), signal.SIGKILL)\n"
              "    return real(columns)\n"
              "data._text_rows = text_rows\n"
              "main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(data.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
                          env=env, capture_output=True)
    assert proc.returncode == -signal.SIGKILL
    left = {p.name for p in (tmp_path / "out").iterdir()}
    assert "observed.csv" not in left and "oracle.csv" not in left
    assert left  # the temporary files a killed process cannot remove
