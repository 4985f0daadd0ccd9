import json
from pathlib import Path

from perfbench.layers import WIRE_ONLY
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.stats import interquartile_mean

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == [m.name for m in END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m.name for m in PER_LAYER]
    for declared, metric in zip(spec["end_to_end"] + spec["per_layer"], END_TO_END + PER_LAYER):
        assert declared["unit"] == metric.unit
        assert declared["better"] == metric.better
    assert {"setup_s"} <= {m["name"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == ["wire-read", "wire-ingest"]


def test_readme_documents_every_metric():
    readme = (ROOT / "perfbench" / "README.md").read_text(encoding="utf-8")
    for metric in END_TO_END + PER_LAYER:
        stem = metric.name.removesuffix("_count")
        assert stem in readme, metric.name


def test_wire_only_metrics_are_declared():
    names = {metric.name for metric in PER_LAYER}
    assert set(WIRE_ONLY) <= names


def test_interquartile_mean_drops_the_outer_quarters():
    assert interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]) == 3.5
    assert interquartile_mean([7.0]) == 7.0
