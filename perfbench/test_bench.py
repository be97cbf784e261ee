"""Tests of the benchmark itself, at the tiny problem sizes.

    python3 -m pytest perfbench/test_bench.py -q

Every workload is run untraced and traced; each must pass its checks and
print exactly the metrics BENCHMARK.json names, with their units.  Two runs
of the same seed must give identical science results.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)


def _bench(workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(run.OUT, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        record = json.load(fh)
    return result, record


def test_metric_tables_match_contract():
    assert [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_metric_with_unit(workload, trace):
    result, record = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["checks"]["failures"]
    assert result["attempted"] >= 1
    table = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert record["missing_targets"] == []


def test_same_seed_gives_identical_science():
    _, first = _bench("spectrum", 0, seed=5)
    _, second = _bench("spectrum", 0, seed=5)
    assert first["science"] is not None
    assert first["science"] == second["science"]


def test_seed_zero_is_the_acceptance_configuration():
    import workloads
    assert workloads.draw_inputs(0) == {"a_bbm": 0.05, "a_whitham": 0.05,
                                        "delta_scale": 1.0}
    assert workloads.draw_inputs(7) == workloads.draw_inputs(7)
    assert workloads.draw_inputs(7) != workloads.draw_inputs(8)


def test_recorder_self_time_and_missing_targets(monkeypatch):
    import tracer
    import modulon.fields as fields
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("modulon.fields", "no_such_function", "fields.no_such_function")])
    rec = tracer.Recorder()
    rec.install()
    try:
        field = fields.zero_field(1, 16)
        rec.run_id = 0
        fields.l2_norm(field)
        import modulon
        modulon.l2_norm(field)
    finally:
        rec.uninstall()
    assert rec.missing == ["fields.no_such_function"]
    assert fields.l2_norm.__module__ == "modulon.fields"
    assert not hasattr(fields.l2_norm, "__wrapped__")
    assert rec.summary({0})["fields.l2_norm"]["calls"] == 2

    # a parent spanning [0, 10] with children [1, 4] and [5, 6] keeps 6 s
    nested = tracer.Recorder()
    nested.names, nested.parent = ["outer", "inner", "inner"], [-1, 0, 0]
    nested.start, nested.end = [0.0, 1.0, 5.0], [10.0, 4.0, 6.0]
    assert nested.self_times() == [6.0, 3.0, 1.0]
