"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json

from common import ROOT
from layers import per_layer_units
from run import END_TO_END_UNITS, WORKLOADS


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
