"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import record  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name: str, trace_on: bool = False, pins=None) -> dict:
    return run.measure(name, seed=5, seconds=0, trace_on=trace_on, tiny=True,
                       setup_reps=0, pins=pins)


def _tiny_pins(name: str) -> dict:
    return record.answers(name, seed=5, tiny=True)


@pytest.mark.parametrize("trace_on", [False, True])
def test_printed_metric_names_match_benchmark_json(trace_on):
    key = "per_layer" if trace_on else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    result = _tiny("equations-mitm", trace_on)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_benchmark_json_workloads_are_the_runnable_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_corrupted_expected_answer_counts_as_failed_job():
    pins = _tiny_pins("equations-mitm")
    assert _tiny("equations-mitm", pins=pins)["failed"] == 0
    pins["count:n6-big"] = str(int(pins["count:n6-big"]) + 1)
    result = _tiny("equations-mitm", pins=pins)
    assert result["failed"] == 1
    assert not result["correct"]
    assert result["errors"][0].startswith("count:n6-big:")


def test_missing_expected_answer_counts_as_failed_job():
    pins = _tiny_pins("equations-mitm")
    del pins["system:n6-units"]
    assert _tiny("equations-mitm", pins=pins)["failed"] == 1


def test_exception_in_job_counts_as_failed_job(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(workloads.equations, "classify_by_vanishing_subsums", broken)
    result = _tiny("equations-mitm")
    assert result["failed"] == 1
    assert "broken on purpose" in result["errors"][0]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace_on", [False, True])
def test_every_workload_completes_at_tiny_size(name, trace_on):
    result = _tiny(name, trace_on)
    assert result["correct"], result["errors"]
    assert result["attempted"] > 0 and result["failed"] == 0


def test_traced_self_times_partition_the_traced_wall():
    metrics = _tiny("exact-generic", trace_on=True)["metrics"]
    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in
                    ("kernels", "matrices", "equations", "minors", "growth",
                     "families", "cli", "bench"))
    # Spans also cover the two CPU-clock reads around each job call.
    assert layer_sum == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-3, abs=2e-3)
