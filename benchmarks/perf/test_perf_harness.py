"""Self-test of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Small configs keep it fast: yolov3-tiny with 4 layers for the point
and sweep workloads, and a handful of duplicate submits for jobs_rtz,
whose network is fixed by the committed trace.
"""

from __future__ import annotations

import copy
import inspect
import json
from dataclasses import replace

import pytest

import compare
import run
import spans
import workloads

SPEC = json.loads((run.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
PINNED = json.loads(run.DIGESTS.read_text(encoding="utf-8"))


def small(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    if w.kind == "jobs":
        return replace(w, dups=3)
    return replace(w, net="yolov3-tiny", n_layers=4, warm_hits=3)


def pinned_for(w: workloads.Workload) -> dict:
    if w.net == workloads.WORKLOADS[w.name].net:
        return PINNED[w.name]
    return workloads.reference(w)


@pytest.fixture
def harness_env(tmp_path, monkeypatch):
    """The knobs run.py pins, with every output under *tmp_path*."""
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    for key, value in {
        "REPRO_JOBS": "1", "REPRO_SIMCACHE": "0", "REPRO_TRACE_SPILL": "1",
        "REPRO_SIMCACHE_DIR": str(tmp_path / "cache"),
        "REPRO_TRACE_DIR": str(tmp_path / "cache" / "traces"),
    }.items():
        monkeypatch.setenv(key, value)
    return tmp_path


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_emitted_with_units(name, harness_env):
    w = small(name)
    result = run.run_workload(w, seed=3, seconds=0, trace=False,
                              pinned=pinned_for(w))
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_declared_per_layer_metric(harness_env):
    w = small("pricing_axes")
    result = run.run_workload(w, seed=0, seconds=0, trace=True,
                              pinned=pinned_for(w))
    assert result["correct"], result
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["replay.capture_sweep.calls"]["value"] > 0
    assert (harness_env / "out" / "spans-pricing_axes-0.jsonl").stat().st_size


def test_traced_point_attributes_cycles_per_cnn_layer(harness_env):
    w = small("point")
    result = run.run_workload(w, seed=0, seconds=0, trace=True,
                              pinned=pinned_for(w))
    # correct implies the per-layer cycles summed exactly to the total.
    assert result["correct"], result
    metrics = result["metrics"]
    assert metrics["nets.emit.calls"]["value"] == 1
    assert metrics["cnn.L00.sim_cycles"]["value"] > 0
    assert metrics["cnn.L00.host_s"]["value"] > 0


def test_benchmark_json_matches_harness():
    assert [[m["name"], m["unit"]] for m in SPEC["end_to_end"]] == [
        list(m) for m in run.END_TO_END
    ]
    assert [[m["name"], m["unit"], m["better"]] for m in SPEC["per_layer"]] == (
        run.per_layer_declared()
    )
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        workloads.WORKLOADS
    )


def test_perturbed_stat_trips_digest_and_error_count(harness_env):
    w = small("point")
    pinned = pinned_for(w)
    phases = run.run_cycle(w, 0, harness_env / "work", 0)
    assert run.check_cycle(w, pinned, phases) == (1 + w.warm_hits, 0, [])

    bad = copy.deepcopy(phases)
    point = bad[0]["calls"][0]["points"][0]
    cycles_hex = point[3].split(";", 1)[0].split("=", 1)[1]
    perturbed = float.fromhex(cycles_hex) + 1.0
    point[3] = point[3].replace(cycles_hex, perturbed.hex(), 1)
    attempted, failed, problems = run.check_cycle(w, pinned, bad)
    # The cold answer is wrong, and every warm answer now differs from it.
    assert failed == attempted == 1 + w.warm_hits
    assert "stats digest differs from the pinned one" in problems

    degraded = copy.deepcopy(phases)
    w_sweep = replace(w, kind="sweep")
    degraded[0]["calls"][0]["points"][0][2] = "direct"
    attempted, failed, problems = run.check_cycle(w_sweep, pinned, degraded)
    assert failed == 1 and any("degraded" in p for p in problems)


def _traced_phase(w, phase):
    tracer = spans.Tracer(workload=w.name, phase=phase)
    tracer.install()
    sites = tracer.patched_sites()
    try:
        for owner, attr, original in sites:
            assert inspect.getattr_static(owner, attr) is not original
        workloads.run_phase(w, phase, 0, 0, tracer)
    finally:
        tracer.restore()
    return tracer, sites


def test_trace_restores_every_patched_attribute(harness_env):
    tracer, sites = _traced_phase(small("vl_sweep"), "cold")
    assert len(sites) >= len(spans.LAYERS)
    for owner, attr, original in sites:
        assert inspect.getattr_static(owner, attr) is original
    assert tracer.patched_sites() == []


def test_spans_nest_and_self_time_adds_up(harness_env):
    tracer, _ = _traced_phase(small("pricing_axes"), "cold")
    by_id = {s["id"]: s for s in tracer.spans}
    children = {}
    for s in tracer.spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]
            children.setdefault(p["id"], []).append(s)
    assert children, "expected nested spans"
    own = tracer.self_times()
    for pid, kids in children.items():
        p = by_id[pid]
        total = own[pid] + sum(k["end"] - k["start"] for k in kids)
        assert total == pytest.approx(p["end"] - p["start"], abs=1e-9)
        assert own[pid] >= -1e-9


@pytest.mark.parametrize("old, new, verdict", [
    ([10, 10.2, 9.9, 10.1], [13, 13.1, 12.9, 13.2], "worse"),
    ([10, 10.2, 9.9, 10.1], [9, 9.1, 8.9, 9.2], "better"),
    ([10, 10.2, 9.9, 10.1], [10.1, 10.0, 10.2, 9.9], "same"),
    ([10, 14, 7, 12], [10.5, 11, 9, 13], "unresolved"),
    ([10, 14, 7, 12], [5, 5.5, 6, 6.5], "better"),
])
def test_compare_verdicts(old, new, verdict):
    assert compare.verdict(old, new, bound=0.2) == verdict
