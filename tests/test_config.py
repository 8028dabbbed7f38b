"""The run config's JSON form: ``asdict`` writes it, ``RunConfig.from_dict``
reads it back to an equal config, and the config hash of a config is pinned."""
import json
from dataclasses import asdict

import pytest

from proxyrank import RunConfig

from conftest import TINY

# The models of the tree_rank workload in perfbench/workloads.py.
TREE_MODELS = [
    {"family": "tree", "label": "tree"},
    {"family": "forest", "hyperparams": {"n_trees": 10}, "label": "forest"},
    {"family": "boosted_trees", "hyperparams": {"n_rounds": 20}, "label": "boosted_trees"},
]

# Each config with its hash. An integer spelling of a float field hashes like
# the float spelling: ``noise_sd: 1`` is the default ``noise_sd: 1.0``.
HASHES = [
    ({}, "f7f5ba2eaa17b96d"),
    (TINY, "1308f61e64f58b91"),
    ({"sim": {"seed": 3}}, "10bd06d377375956"),
    ({"sim": {"n": 300}}, "8a6979c87d11aacd"),
    ({"sim": {"n": 50000}}, "7f6f7ecd04de0812"),
    ({"models": TREE_MODELS}, "1b1660670b4fbebf"),
    ({"sim": {"noise_sd": 1}}, "f7f5ba2eaa17b96d"),
]


@pytest.mark.parametrize("raw", [raw for raw, _ in HASHES])
def test_json_form_round_trips(raw):
    cfg = RunConfig.from_dict(raw)
    back = RunConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()


@pytest.mark.parametrize("raw,expected", HASHES)
def test_config_hash_pinned(raw, expected):
    assert RunConfig.from_dict(raw).config_hash() == expected
