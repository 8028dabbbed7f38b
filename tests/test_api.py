"""The public names of proxyrank, and the ones the benchmark tracer binds."""
import importlib
import importlib.util
from pathlib import Path

import proxyrank

# Removed because nothing in the method called them; each must stay gone.
DELETED = ("predict_scores", "SplitSpec", "train_validation_split", "save_model",
           "load_model", "select_top_percentile")


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    for module, attr, *_ in _tracer().TARGETS:
        obj = importlib.import_module(f"proxyrank.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)


def test_exported_names_resolve():
    assert [name for name in proxyrank.__all__ if not hasattr(proxyrank, name)] == []


def test_deleted_names_not_exported():
    for name in DELETED:
        assert name not in proxyrank.__all__
        assert not hasattr(proxyrank, name)
