"""The baselines and the sensitivity sweep on forked workers: the same bytes
for any worker count, a worker that dies or cannot return its result ends
the op with exit 2 and a StageError naming its model or cohort, and no
worker outlives the op."""
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

import pytest

import proxyrank.cli as cli
import proxyrank.data as data
import proxyrank.parallel as parallel
import proxyrank.propensity as propensity
import proxyrank.sensitivity as sensitivity
from proxyrank import (AnalysisConfig, ConfounderConfig, ModelError, ModelSpec, RunConfig,
                       ground_truth_rank, load_dataset, load_schema)
from proxyrank.cli import main
from proxyrank.pipeline import analyze_models
from proxyrank.ranking import top_fraction_indices

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the sweep forks its workers")

# Two confounder configs x two runs plus the placebo cohort: five tasks.
CONFIG = {"sim": {"n": 400, "k": 8}, "sensitivity_runs": 2, "placebo_bootstrap": 20,
          "sensitivity_configs": [{"alpha": 1000.0, "epsilon": 1000000.0},
                                  {"alpha": 100000.0, "epsilon": 4000000.0}],
          "models": [{"family": "linear_wls", "label": "lin"},
                     {"family": "svr_linear", "label": "svr", "hyperparams": {"epochs": 3}}]}
# The three tree families next to the closed-form fit: four baseline tasks,
# so one of three workers owes two.
TREES = dict(CONFIG, models=[
    {"family": "tree", "label": "tree", "hyperparams": {"max_depth": 4}},
    {"family": "forest", "label": "forest", "hyperparams": {"n_trees": 3}},
    {"family": "boosted_trees", "label": "boosted_trees", "hyperparams": {"n_rounds": 3}},
    {"family": "linear_wls", "label": "lin"}])
# The simulated outcome takes negative values, so the poisson fit raises.
POISSON = dict(CONFIG, models=[{"family": "linear_wls", "label": "lin"},
                               {"family": "poisson", "label": "poisson"}])
# Trimming to the lower scores removes the treated arm from a cohort whose
# confounder separates the arms (sum_scaled with a tiny epsilon) and from no
# other cohort.
CONFIG_CONFOUNDER_FAILS = dict(
    CONFIG, analysis={"trim_lo": 0.05, "trim_hi": 0.45},
    sensitivity_configs=[{"alpha": 1000.0, "epsilon": 1000000.0},
                         {"alpha": 100000.0, "epsilon": 1.0, "posterior_mode": "sum_scaled"}])
# ite.csv and ranking.csv with clipped counterfactual predictions.
REPORT_RANGE = dict(CONFIG, analysis={"report_range": [0.0, 20.0]})
# Every variable that sets a BLAS thread count, and the import path of a
# subprocess that runs proxyrank.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(sensitivity.__file__).parents[1])


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt: unpickling calls the class with the
    one message argument."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


@pytest.fixture
def time_limit():
    """Turn a hang into a failure: past 60 s, a TimeoutError is raised in the
    test, where ``main`` reports it as a stage failure."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "_max_workers", lambda: n)


def subprocess_env(**blas):
    """This process's environment without a BLAS variable, plus ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    return dict(env, PYTHONPATH=SRC, **blas)


def run_cli(tmp_path, capsys, command, config, name):
    cfgp = tmp_path / f"{name}.json"
    cfgp.write_text(json.dumps(config))
    rc = main([command, "--config", str(cfgp), "--out", str(tmp_path / name)])
    assert multiprocessing.active_children() == []
    captured = capsys.readouterr()
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted((tmp_path / name).iterdir())}
    return rc, captured.out.replace(str(tmp_path / name), "OUT"), captured.err, files


def in_confounded_cohort(prepared, config_index, run):
    return f"u_synth_{config_index}_{run}" in prepared.full.covariate_names


@pytest.mark.parametrize("command,config", [
    ("run", CONFIG), ("sensitivity", CONFIG), ("run", CONFIG_CONFOUNDER_FAILS),
    ("rank", CONFIG), ("analyze", CONFIG), ("validate", CONFIG), ("run", TREES),
    ("rank", TREES), ("analyze", TREES), ("analyze", REPORT_RANGE), ("run", REPORT_RANGE)])
def test_same_bytes_for_one_two_and_three_workers(command, config, monkeypatch, tmp_path,
                                                  capsys):
    # Ranges of 64 rows: ranking.csv and ite.csv are formatted in several.
    monkeypatch.setattr(data, "_BLOCK_ROWS", 64)
    outs = []
    for n in (1, 2, 3):
        workers(monkeypatch, n)
        outs.append(run_cli(tmp_path, capsys, command, config, f"w{n}"))
    assert outs[0] == outs[1] == outs[2]
    if config is CONFIG_CONFOUNDER_FAILS:
        rc, _, err, _ = outs[0]
        assert rc == 2 and err == "model branches failed: lin, svr\n"
        report = json.loads((tmp_path / "w1" / "report.json").read_text())
        for m in report["models"]:
            assert m["error"] == "FitError: trimming would remove an entire treatment arm"
            assert "placebo" in m  # the placebo cohort keeps both arms
    else:
        assert outs[0][0] == 0


def test_model_failing_on_some_cohorts_same_for_any_worker_count(monkeypatch, tmp_path,
                                                                  capsys):
    real = sensitivity.analyze_model

    def analyze(prepared, spec, cfg):
        if spec.label == "svr" and in_confounded_cohort(prepared, 1, 0):
            raise ModelError("injected failure on config 1")
        return real(prepared, spec, cfg)
    monkeypatch.setattr(sensitivity, "analyze_model", analyze)
    outs = []
    for n in (1, 3):
        workers(monkeypatch, n)
        outs.append(run_cli(tmp_path, capsys, "run", CONFIG, f"w{n}"))
    assert outs[0] == outs[1]
    assert outs[0][0] == 2 and outs[0][2] == "model branches failed: svr\n"
    report = json.loads((tmp_path / "w1" / "report.json").read_text())
    assert [m["error"] for m in report["models"]] == [
        None, "ModelError: injected failure on config 1"]


@pytest.mark.parametrize("command", ["run", "rank"])
def test_model_raising_in_a_worker_fails_as_in_process(command, monkeypatch, tmp_path, capsys):
    outs = []
    for n in (1, 2):
        workers(monkeypatch, n)
        outs.append(run_cli(tmp_path, capsys, command, POISSON, f"w{n}"))
    assert outs[0] == outs[1]
    assert outs[0][0] == 2
    assert outs[0][2] == {
        "run": "model branches failed: poisson\n",
        "rank": "stage failure: ModelError: poisson family requires non-negative outcomes\n",
    }[command]
    if command == "run":
        report = json.loads((tmp_path / "w2" / "report.json").read_text())
        assert [m["error"] for m in report["models"]] == [
            None, "ModelError: poisson family requires non-negative outcomes"]


def test_public_sweeps_match_in_process(monkeypatch, small_sim):
    d = small_sim.observed
    specs = [ModelSpec(family="linear_wls", label="lr"),
             ModelSpec(family="svr_linear", hyperparams={"epochs": 3}, label="svr")]
    configs = [ConfounderConfig(alpha=1e3, epsilon=1e6), ConfounderConfig(alpha=1e5, epsilon=4e6)]
    acfg = AnalysisConfig()

    def sweeps():
        conf = sensitivity.confounding_overlap(d, specs, configs, runs=2, cfg=acfg, seed=5)
        placebo = sensitivity.placebo_test(d, specs, acfg, seed=7, n_bootstrap=20)
        return ([c.to_dict() for c in conf],
                [(p.to_dict(), p.levels.tolist()) for p in placebo])
    workers(monkeypatch, 1)
    serial = sweeps()
    workers(monkeypatch, 3)  # one worker owes two of the four cohorts
    assert sweeps() == serial


def test_killed_worker_is_a_stage_error(monkeypatch, tmp_path, capsys, time_limit):
    parent = os.getpid()
    real = sensitivity.analyze_model

    def analyze(prepared, spec, cfg):
        if os.getpid() != parent and in_confounded_cohort(prepared, 0, 1):
            os.kill(os.getpid(), signal.SIGKILL)
        return real(prepared, spec, cfg)
    monkeypatch.setattr(sensitivity, "analyze_model", analyze)
    workers(monkeypatch, 2)
    rc, _, err, _ = run_cli(tmp_path, capsys, "run", CONFIG, "out")
    assert rc == 2
    assert err == ("stage failure: StageError: the worker died running the "
                   "confounder cohort of config 0, run 1 (exit code -9)\n")


@pytest.mark.parametrize("command", ["rank", "run"])
def test_killed_baseline_worker_is_a_stage_error(command, monkeypatch, tmp_path, capsys,
                                                 time_limit):
    parent = os.getpid()
    real = sensitivity.analyze_model

    def analyze(prepared, spec, cfg):
        if os.getpid() != parent and spec.label == "forest":
            os.kill(os.getpid(), signal.SIGKILL)
        return real(prepared, spec, cfg)
    monkeypatch.setattr(sensitivity, "analyze_model", analyze)
    workers(monkeypatch, 2)
    rc, _, err, _ = run_cli(tmp_path, capsys, command, TREES, "out")
    assert rc == 2
    assert err == ("stage failure: StageError: the worker died running the baseline of "
                   "model 'forest' (exit code -9)\n")


def test_unpicklable_baseline_is_a_stage_error(monkeypatch, tmp_path, capsys, time_limit):
    real = sensitivity.analyze_model

    def analyze(prepared, spec, cfg):
        result = real(prepared, spec, cfg)
        if spec.label == "forest":
            result.model.params["hook"] = lambda: None
        return result
    monkeypatch.setattr(sensitivity, "analyze_model", analyze)
    workers(monkeypatch, 2)
    rc, _, err, _ = run_cli(tmp_path, capsys, "analyze", TREES, "out")
    assert rc == 2
    assert err.startswith("stage failure: StageError: the worker cannot return the baseline "
                          "of model 'forest': ")


def test_unpicklable_result_is_a_stage_error(monkeypatch, tmp_path, capsys, time_limit):
    monkeypatch.setattr(sensitivity, "overlap_fraction", lambda base, new: lambda: None)
    workers(monkeypatch, 2)
    rc, _, err, _ = run_cli(tmp_path, capsys, "sensitivity", CONFIG, "out")
    assert rc == 2
    assert err.startswith("stage failure: StageError: the worker cannot return the "
                          "confounder cohort of config 0, run 0: ")


@pytest.mark.parametrize("command", ["rank", "run"])
def test_unrebuildable_baseline_is_a_stage_error(command, monkeypatch, tmp_path, capsys,
                                                 time_limit):
    # The one difference from a serial run: in-process, the model fails with
    # its own error.
    real = sensitivity.analyze_model

    def analyze(prepared, spec, cfg):
        if spec.label == "svr":
            raise TwoArgError("svr", "injected")
        return real(prepared, spec, cfg)
    monkeypatch.setattr(sensitivity, "analyze_model", analyze)
    workers(monkeypatch, 1)
    rc, _, err, _ = run_cli(tmp_path, capsys, command, CONFIG, "w1")
    assert rc == 2 and err == {"run": "model branches failed: svr\n",
                               "rank": "stage failure: TwoArgError: svr: injected\n"}[command]
    workers(monkeypatch, 2)
    rc, _, err, _ = run_cli(tmp_path, capsys, command, CONFIG, "w2")
    assert rc == 2
    assert err.startswith("stage failure: StageError: cannot read the result of the baseline "
                          "of model 'svr': TypeError: ")


def test_failing_op_leaves_no_worker(monkeypatch, tmp_path, capsys, time_limit):
    def broken(d, cfg):
        raise ModelError("no confounder today")
    monkeypatch.setattr(sensitivity, "generate_confounder", broken)
    workers(monkeypatch, 2)
    rc, _, err, _ = run_cli(tmp_path, capsys, "sensitivity", CONFIG, "out")
    assert rc == 2 and err == "stage failure: ModelError: no confounder today\n"


@pytest.mark.parametrize("threads,cpus", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2), ({"OMP_NUM_THREADS": "2"}, 4),
    ({"OPENBLAS_NUM_THREADS": "4"}, 2), ({"OPENBLAS_NUM_THREADS": "x"}, 2), ({}, 8)])
def test_max_workers_is_the_cpu_count(threads, cpus, monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in threads.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert parallel._max_workers() == cpus


def test_analyze_and_rank_load_no_multiprocessing(tmp_path):
    # One CPU leaves room for one worker, which runs in-process.
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"sim": {"n": 300, "k": 5}}))
    script = ("import os, sys\n"
              "if hasattr(os, 'sched_setaffinity'):\n"
              "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
              "from proxyrank.cli import main\n"
              "for cmd in ('analyze', 'rank'):\n"
              "    assert main([cmd, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script, str(cfgp), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("value,expected", [(None, "1"), ("3", "3")])
def test_import_pins_one_blas_thread_unless_set(value, expected):
    # The value numpy's BLAS reads when numpy is first imported, and after.
    script = ("import os, sys\n"
              "seen = []\n"
              "class Spy:\n"
              "    def find_spec(self, name, path=None, target=None):\n"
              "        if name == 'numpy':\n"
              "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
              "sys.meta_path.insert(0, Spy())\n"
              "import proxyrank\n"
              "print(seen[0], os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    env = subprocess_env(**({} if value is None else {"OPENBLAS_NUM_THREADS": value}))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == [expected, expected]


def _glibc_mallinfo2() -> bool:
    import ctypes
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION")) and hasattr(ctypes.CDLL(None), "mallinfo2")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc_mallinfo2(), reason="needs glibc's mallinfo2")
@pytest.mark.parametrize("imports,threshold,mapped", [
    (True, None, True),  # the pin
    (False, None, False),  # glibc's own rule, the one the pin replaces
    (True, str(32 << 20), False)])  # a threshold already set is kept
def test_import_pins_the_malloc_thresholds_unless_set(imports, threshold, mapped):
    # After a freed 16 MiB array, is a 4 MiB one still a mapped block?
    script = ("import ctypes, sys\n"
              "if sys.argv[1] == 'True':\n"
              "    import proxyrank\n"
              "import numpy as np\n"
              "class Info(ctypes.Structure):\n"
              "    _fields_ = [(f, ctypes.c_size_t) for f in ('arena', 'ordblks', 'smblks',\n"
              "                'hblks', 'hblkhd', 'usmblks', 'fsmblks', 'uordblks',\n"
              "                'fordblks', 'keepcost')]\n"
              "libc = ctypes.CDLL(None)\n"
              "libc.mallinfo2.restype = Info\n"
              "big = np.ones(2 << 20)\n"
              "del big\n"
              "before = libc.mallinfo2().hblkhd\n"
              "block = np.ones(1 << 19)\n"
              "print(libc.mallinfo2().hblkhd - before >= block.nbytes)\n")
    env = {k: v for k, v in subprocess_env().items() if k not in parallel._MALLOC_VARS}
    if threshold is not None:
        env["MALLOC_MMAP_THRESHOLD_"] = threshold
    out = subprocess.run([sys.executable, "-c", script, str(imports)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == [str(mapped)]


def test_rank_writes_the_same_bytes_without_a_blas_variable(tmp_path):
    # At n=5000 the ranking's last bits depend on the BLAS thread count.
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"sim": {"n": 5000}, "models": [{"family": "linear_wls"}]}))
    outs = []
    for name, blas in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        subprocess.run([sys.executable, "-m", "proxyrank.cli", "rank", "--config", str(cfgp),
                        "--out", str(tmp_path / name)], env=subprocess_env(**blas),
                       capture_output=True, check=True)
        outs.append((tmp_path / name / "ranking.csv").read_bytes())
    assert outs[0] == outs[1]


def test_analyze_forks_two_workers_and_reaps_them(monkeypatch, tmp_path, capsys, time_limit):
    real_fork, children = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    workers(monkeypatch, 2)
    rc, _, err, files = run_cli(tmp_path, capsys, "analyze", CONFIG, "out")
    assert rc == 0 and err == "" and set(files) == {"ite.csv", "balance.csv", "propensity.json"}
    assert len(children) == 3  # the preparation of the cohort, then two for the baselines
    for pid in children:
        with pytest.raises(ChildProcessError):  # joined, so not a zombie either
            os.waitpid(pid, os.WNOHANG)


def log_pids(monkeypatch, fn, log: Path):
    """Log the pid of every call of ``fn`` through every proxyrank module
    that holds it, in this process and in forked workers alike; returns a
    function that reads the pids."""
    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fn(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name == "proxyrank" or name.startswith("proxyrank."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, logged)
    return lambda: [int(pid) for pid in log.read_text().split()] if log.exists() else []


@pytest.mark.parametrize("command", ["analyze", "rank", "run"])
def test_no_propensity_fit_in_the_parent(command, monkeypatch, tmp_path, capsys, time_limit):
    # The observed cohort is prepared on a worker of its own, and every
    # cohort of the sweep on the sweep's workers.
    pids = log_pids(monkeypatch, propensity.fit_propensity, tmp_path / "pids")
    workers(monkeypatch, 2)
    rc, _, err, _ = run_cli(tmp_path, capsys, command, CONFIG, "out")
    assert rc == 0 and err == ""
    fits = 6 if command == "run" else 1  # the baseline, the placebo and 2 x 2 confounders
    assert len(pids()) == fits and os.getpid() not in pids()


def test_analyze_leaves_no_trimmed_cohort_in_the_parent(monkeypatch, tmp_path, capsys,
                                                        time_limit):
    seen = []
    real = cli.write_balance

    def write_balance(out, chash, prepared):
        seen.append(prepared)
        return real(out, chash, prepared)
    monkeypatch.setattr(cli, "write_balance", write_balance)
    outs = []
    for n in (1, 2):
        workers(monkeypatch, n)
        outs.append(run_cli(tmp_path, capsys, "analyze", CONFIG, f"w{n}"))
    assert outs[0] == outs[1] and outs[0][0] == 0
    in_process, forked = seen
    assert "trimmed" in vars(in_process) and "trimmed" not in vars(forked)
    fit = json.loads((tmp_path / "w2" / "propensity.json").read_text())
    assert fit["n_after_trim"] == forked.trimmed.n == in_process.trimmed.n < fit["n_before_trim"]


@pytest.mark.parametrize("command", ["analyze", "rank", "run"])
def test_killed_prepare_worker_is_a_stage_error(command, monkeypatch, tmp_path, capsys,
                                                time_limit):
    parent = os.getpid()
    real = sensitivity.prepare_cohort

    def prepare(d, cfg):
        if os.getpid() != parent:  # the observed cohort: the sweep's come later
            os._exit(3)
        return real(d, cfg)
    monkeypatch.setattr(sensitivity, "prepare_cohort", prepare)
    workers(monkeypatch, 2)
    rc, _, err, files = run_cli(tmp_path, capsys, command, CONFIG, "out")
    assert rc == 2 and files == {}
    assert err == ("stage failure: StageError: the worker died running the preparation of "
                   "the observed cohort (exit code 3)\n")


def test_failing_preparation_is_every_baseline(monkeypatch, small_sim, time_limit):
    def prepare(d, cfg):
        raise ModelError("injected preparation failure")
    monkeypatch.setattr(sensitivity, "prepare_cohort", prepare)
    specs = [ModelSpec(family="linear_wls", label="lr"),
             ModelSpec(family="svr_linear", hyperparams={"epochs": 3}, label="svr")]
    for n in (1, 2):
        workers(monkeypatch, n)
        got = list(sensitivity.analyze_baselines(small_sim.observed, specs, balance=True))
        assert [(type(e), str(e)) for e in got] == \
            [(ModelError, "injected preparation failure")] * 2


def count_forks(monkeypatch):
    """The pids of the processes forked from here on."""
    real_fork, children = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return children


def test_iter_tasks_yields_large_results_in_task_order(monkeypatch, time_limit):
    # While task 0 sleeps, the other workers finish results larger than a
    # pipe buffer and wait to send them.
    def run(t):
        if t == 0:
            time.sleep(0.5)
        return bytes([t]) * (1 << 20)
    workers(monkeypatch, 3)
    results = list(parallel.iter_tasks([f"task {t}" for t in range(7)], run))
    assert results == [bytes([t]) * (1 << 20) for t in range(7)]
    assert multiprocessing.active_children() == []


def test_iter_tasks_yields_every_earlier_result_before_a_lost_task(monkeypatch, time_limit):
    # Task 3's worker dies while task 0, on the other worker, is still running.
    def run(t):
        if t == 0:
            time.sleep(0.5)
        if t == 3:
            os._exit(3)
        return t
    workers(monkeypatch, 2)
    got = []
    with pytest.raises(parallel.StageError,
                       match=r"^the worker died running task 3 \(exit code 3\)$"):
        for value in parallel.iter_tasks([f"task {t}" for t in range(6)], run):
            got.append(value)
    assert got == [0, 1, 2]
    assert multiprocessing.active_children() == []


def test_iter_tasks_closed_early_leaves_no_worker(monkeypatch, time_limit):
    children = count_forks(monkeypatch)
    workers(monkeypatch, 2)
    names = [f"task {t}" for t in range(4)]
    with closing(parallel.iter_tasks(names, lambda t: time.sleep(60) if t else t)) as results:
        assert next(results) == 0
    assert len(children) == 2 and multiprocessing.active_children() == []
    for pid in children:
        with pytest.raises(ChildProcessError):  # joined, so not a zombie either
            os.waitpid(pid, os.WNOHANG)


def test_analyze_data_same_bytes_for_one_two_and_three_workers(monkeypatch, tmp_path, capsys):
    # Ranges of 64 rows: the 400-row CSV is parsed in six, and ite.csv's
    # rows (two models on the trimmed cohort) are formatted in twelve.
    simulated = run_cli(tmp_path, capsys, "simulate", CONFIG, "sim")
    assert simulated[0] == 0
    monkeypatch.setattr(data, "_BLOCK_ROWS", 64)
    outs = []
    for n in (1, 2, 3):
        workers(monkeypatch, n)
        children = count_forks(monkeypatch)
        rc = main(["analyze", "--data", str(tmp_path / "sim" / "observed.csv"),
                   "--schema", str(tmp_path / "sim" / "observed_schema.json"),
                   "--out", str(tmp_path / f"w{n}")])
        assert rc == 0 and multiprocessing.active_children() == []
        # load (6 ranges), baselines (2 models and the balance) and each of
        # ite.csv's two batches (6 ranges per model) fork min(n, tasks)
        # workers, and the preparation of the cohort one
        assert len(children) == {1: 0, 2: 9, 3: 13}[n]
        outs.append({p.name: p.read_bytes() for p in (tmp_path / f"w{n}").iterdir()})
    assert outs[0] == outs[1] == outs[2]
    assert set(outs[0]) == {"ite.csv", "balance.csv", "propensity.json"}
    # ite.csv as its rows were built before the split, one cell at a time
    cfg = RunConfig()
    d = load_dataset(tmp_path / "sim" / "observed.csv",
                     load_schema(tmp_path / "sim" / "observed_schema.json"))
    lines = [f"# config_hash={cfg.config_hash()}", "model,index,ite,y_hat_1,y_hat_0"]
    for m in analyze_models(d, cfg):
        ites = m.analysis.ites
        lines += [",".join([m.label, str(i), repr(float(y1 - y0)), repr(float(y1)),
                            repr(float(y0))])
                  for i, (y1, y0) in enumerate(zip(ites.y_hat_1, ites.y_hat_0))]
    assert outs[0]["ite.csv"] == ("\n".join(lines) + "\n").encode()


def test_rank_data_same_bytes_for_one_two_and_three_workers(monkeypatch, tmp_path, capsys):
    # Ranges of 64 rows: the 400-row CSV is parsed in six, and ranking.csv's
    # 800 rows (two models on the full cohort) are formatted in twelve.
    assert run_cli(tmp_path, capsys, "simulate", CONFIG, "sim")[0] == 0
    monkeypatch.setattr(data, "_BLOCK_ROWS", 64)
    outs = []
    for n in (1, 2, 3):
        workers(monkeypatch, n)
        children = count_forks(monkeypatch)
        rc = main(["rank", "--data", str(tmp_path / "sim" / "observed.csv"),
                   "--schema", str(tmp_path / "sim" / "observed_schema.json"),
                   "--out", str(tmp_path / f"w{n}")])
        assert rc == 0 and multiprocessing.active_children() == []
        # load (6 ranges), baselines (2 models) and each of ranking.csv's two
        # batches (6 ranges per model) fork min(n, tasks) workers, and the
        # preparation of the cohort one
        assert len(children) == {1: 0, 2: 9, 3: 12}[n]
        outs.append((tmp_path / f"w{n}" / "ranking.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    # ranking.csv as its rows were built before the split, one cell at a time
    cfg = RunConfig()
    d = load_dataset(tmp_path / "sim" / "observed.csv",
                     load_schema(tmp_path / "sim" / "observed_schema.json"))
    lines = [f"# config_hash={cfg.config_hash()}",
             ",".join(["model", "index", "ite", "rank", "level"]
                      + [f"top_{int(k) if float(k).is_integer() else k}" for k in cfg.k_grid])]
    for m in analyze_models(d, cfg):
        ranked = m.analysis.ranked
        flags = [set(top_fraction_indices(ranked.ite, k).tolist()) for k in cfg.k_grid]
        lines += [",".join([m.label, str(i), repr(float(ranked.ite[i])), str(int(ranked.rank[i])),
                            str(int(ranked.level[i])), *(str(int(i in f)) for f in flags)])
                  for i in range(ranked.n)]
    assert outs[0] == ("\n".join(lines) + "\n").encode()


def test_run_oracle_data_same_bytes_for_one_two_and_three_workers(monkeypatch, tmp_path,
                                                                    capsys):
    # Ranges of 64 rows: ranking.csv's 800 rows (two models on the full
    # cohort) are formatted in twelve, and rows 384-447 straddle the models'
    # boundary. The oracle file's ground truth adds the true_level column.
    assert run_cli(tmp_path, capsys, "simulate", CONFIG, "sim")[0] == 0
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    monkeypatch.setattr(data, "_BLOCK_ROWS", 64)
    outs = []
    for n in (1, 2, 3):
        workers(monkeypatch, n)
        rc = main(["run", "--config", str(tmp_path / "cfg.json"),
                   "--data", str(tmp_path / "sim" / "oracle.csv"),
                   "--schema", str(tmp_path / "sim" / "oracle_schema.json"),
                   "--out", str(tmp_path / f"w{n}")])
        assert rc == 0 and multiprocessing.active_children() == []
        outs.append({p.name: p.read_bytes() for p in (tmp_path / f"w{n}").iterdir()})
    assert outs[0] == outs[1] == outs[2]
    cfg = RunConfig.from_dict(CONFIG)
    d = load_dataset(tmp_path / "sim" / "oracle.csv",
                     load_schema(tmp_path / "sim" / "oracle_schema.json"))
    true_levels = ground_truth_rank(d)
    lines = outs[0]["ranking.csv"].decode().splitlines()
    assert lines[1] == "model,index,ite,rank,level,true_level," + ",".join(
        f"top_{int(k) if float(k).is_integer() else k}" for k in cfg.k_grid)
    want = []
    for m in analyze_models(d.without_ground_truth(), cfg):
        ranked = m.analysis.ranked
        flags = [set(top_fraction_indices(ranked.ite, k).tolist()) for k in cfg.k_grid]
        want += [",".join([m.label, str(i), repr(float(ranked.ite[i])), str(int(ranked.rank[i])),
                           str(int(ranked.level[i])), str(int(true_levels[i])),
                           *(str(int(i in f)) for f in flags)])
                 for i in range(ranked.n)]
    assert lines[2:] == want


def test_killed_parsing_worker_is_a_stage_error(monkeypatch, tmp_path, capsys, time_limit):
    assert run_cli(tmp_path, capsys, "simulate", CONFIG, "sim")[0] == 0
    parent = os.getpid()
    real = data._parse_rows

    def parse_rows(body, width):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(body, width)
    monkeypatch.setattr(data, "_parse_rows", parse_rows)
    monkeypatch.setattr(data, "_BLOCK_ROWS", 64)
    workers(monkeypatch, 2)
    rc = main(["analyze", "--data", str(tmp_path / "sim" / "observed.csv"),
               "--schema", str(tmp_path / "sim" / "observed_schema.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2 and multiprocessing.active_children() == []
    assert capsys.readouterr().err == ("stage failure: StageError: the worker died running "
                                       "rows 0-63 of observed.csv (exit code -9)\n")
    assert not (tmp_path / "out" / "ite.csv").exists()


def test_killed_formatting_worker_is_a_stage_error(monkeypatch, tmp_path, capsys, time_limit):
    parent = os.getpid()
    real = data._text_rows

    def text_rows(columns):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(columns)
    monkeypatch.setattr(data, "_text_rows", text_rows)
    monkeypatch.setattr(data, "_BLOCK_ROWS", 64)
    workers(monkeypatch, 2)
    rc, _, err, files = run_cli(tmp_path, capsys, "simulate", CONFIG, "out")
    assert rc == 2
    assert err == ("stage failure: StageError: the worker died running rows 0-63 of "
                   "observed.csv and oracle.csv (exit code -9)\n")
    assert files == {}  # not even a temporary file


def test_simulate_small_cohort_forks_nothing(monkeypatch, tmp_path, capsys):
    children = count_forks(monkeypatch)
    workers(monkeypatch, 2)
    rc, _, _, files = run_cli(tmp_path, capsys, "simulate", {"sim": {"n": 300}}, "out")
    assert rc == 0 and "observed.csv" in files and "oracle.csv" in files
    assert children == []
