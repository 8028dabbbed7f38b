import multiprocessing

# Before numpy: importing proxyrank pins numpy's BLAS to one thread, which it
# can do only while numpy is not loaded, so the suite runs the users' path.
from proxyrank import Dataset, SimConfig, data, parallel, simulate_cohort

import numpy as np
import pytest


# A small run config: every stage of a run at n=600 in about a second.
TINY = {"sim": {"n": 600, "k": 8},
        "sensitivity_runs": 1,
        "placebo_bootstrap": 30,
        "sensitivity_configs": [{"alpha": 1000.0, "epsilon": 1000000.0}],
        "models": [{"family": "linear_wls", "causal": True, "label": "iptw_linear"},
                   {"family": "svr_linear", "causal": True, "label": "iptw_svr",
                    "hyperparams": {"epochs": 5}}]}


# Schema maps load_dataset rejects with a SchemaError, each with a fragment of
# its message; the columns are those of a simulated CSV (x0.., a, y).
BAD_SCHEMAS = [
    ([{"treatment": "a", "outcome": "y"}], "schema must be a JSON object"),
    ({"treatment": ["a"], "outcome": "y"}, "role 'treatment' must be a column name"),
    ({"treatment": "a", "outcome": 5}, "role 'outcome' must be a column name"),
    ({"treatment": "a", "outcome": "y", "covariates": "x0"},
     "role 'covariates' must be a list of column names"),
    ({"treatment": "a", "outcome": "y", "covariates": ["x0", 1]},
     "role 'covariates' must be a list of column names"),
    ({"treatment": "a", "outcome": "y", "ground_truth": ["z"]},
     "role 'ground_truth' must map roles to column names"),
    ({"treatment": "a", "outcome": "a"}, "column 'a' has two roles: 'treatment' and 'outcome'"),
    ({"treatment": "a", "outcome": "y", "covariates": ["y", "x0"]},
     "column 'y' has two roles: 'outcome' and 'covariates'"),
    ({"treatment": "a", "outcome": "y", "covariates": ["x0", "a"]},
     "column 'a' has two roles: 'treatment' and 'covariates'"),
    ({"treatment": "a", "outcome": "y", "covariates": ["x0"],
      "ground_truth": {"true_group": "x0"}},
     "column 'x0' has two roles: 'covariates' and 'ground_truth.true_group'"),
    ({"treatment": "a", "outcome": "y", "covariates": ["x0", "x1", "x0"]},
     "covariate column 'x0' is listed twice"),
    # a misspelled role, in the schema or in its ground truth, is not ignored
    ({"treatment": "a", "outcome": "y", "covariate": ["x0", "x1"]},
     "unknown schema keys: 'covariate' "),
    ({"treatment": "a", "outcome": "y", "ground_truth": {"true_grup": "z"}},
     "unknown ground_truth roles: 'true_grup' "),
    # only an absent or null ground_truth is none
    *(({"treatment": "a", "outcome": "y", "ground_truth": falsy},
       "role 'ground_truth' must map roles to column names") for falsy in ([], "", 0, False)),
]


def make_dataset(n=40, k=3, seed=0, treat_prob=0.5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k))
    a = (rng.random(n) < treat_prob).astype(int)
    if a.min() == a.max():  # ensure both arms for fit-based tests
        a[0], a[1] = 0, 1
    y = X @ np.arange(1.0, k + 1.0) + 0.5 * a + rng.normal(0, 0.3, n)
    return Dataset(X, a, y)


@pytest.fixture
def toy_dataset():
    return make_dataset()


@pytest.fixture
def ranges(monkeypatch):
    """``ranges(workers, block)``: cut tables into ranges of ``block`` rows,
    and the csv records parsed into chunks of ``block`` cells, and run the
    ranges on ``workers`` workers."""
    def set_ranges(workers, block):
        monkeypatch.setattr(parallel, "_max_workers", lambda: workers)
        monkeypatch.setattr(data, "_BLOCK_ROWS", block)
        monkeypatch.setattr(data, "_CHUNK_CELLS", block)
    return set_ranges


@pytest.fixture(scope="session")
def small_sim():
    """A small clean cohort shared across fast tests."""
    return simulate_cohort(SimConfig(n=1200, k=10, seed=11))


@pytest.fixture(scope="session")
def small_confounded_sim():
    return simulate_cohort(SimConfig(n=1200, k=10, seed=11, mode="confounded"))


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process, such as a sweep worker, alive."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    assert not left, f"child processes left running: {left}"
