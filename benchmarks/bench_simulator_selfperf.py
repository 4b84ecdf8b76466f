"""Simulator self-performance: wall-clock of the simulation pipeline.

Unlike the other bench modules (which reproduce the *paper's* numbers),
this one tracks the *repository's own* performance trajectory: how fast
one design point simulates, how a small sweep scales with parallel
workers, and how much the persistent simcache saves on re-runs.  It
emits one machine-parseable ``BENCH {json}`` row per run so successive
PRs can be compared (grep the pytest output for ``^BENCH ``).

Kept intentionally small (yolov3-tiny, few layers) so it adds seconds,
not minutes, to the suite; the headline acceptance numbers for large
sweeps are recorded in docs/PERFORMANCE.md.
"""

import gc
import json
import os
import shutil
import tempfile
import time

from conftest import banner, run_once

from repro.core import (
    sweep_cache_sizes,
    sweep_lanes,
    sweep_vector_lengths,
    tracecache,
)
from repro.machine import rvv_gem5
from repro.machine.simulator import SimStats
from repro.nets import KernelPolicy

_VLENS = [512, 1024, 2048, 4096]
_POLICY = KernelPolicy(gemm="3loop")
_LAYERS = 6


def _machine_for(vlen: int):
    return rvv_gem5(vlen_bits=vlen, lanes=8, l2_mb=1)


def test_simulator_selfperf(benchmark, tiny_net):
    def run():
        # Single design point, serial.
        t0 = time.perf_counter()
        point_stats = tiny_net.simulate(
            _machine_for(2048), _POLICY, n_layers=_LAYERS
        )
        t_point = time.perf_counter() - t0

        # Small sweep, serial vs parallel (jobs from REPRO_JOBS, else 2).
        t0 = time.perf_counter()
        serial = sweep_vector_lengths(
            tiny_net, _VLENS, _machine_for, _POLICY, n_layers=_LAYERS, jobs=1
        )
        t_serial = time.perf_counter() - t0

        jobs = int(os.environ.get("REPRO_JOBS", "0") or "0") or 2
        t0 = time.perf_counter()
        parallel = sweep_vector_lengths(
            tiny_net, _VLENS, _machine_for, _POLICY, n_layers=_LAYERS, jobs=jobs
        )
        t_parallel = time.perf_counter() - t0

        # Cold vs warm simcache, in a throwaway directory.
        tmp = tempfile.mkdtemp(prefix="simcache-bench-")
        old_dir = os.environ.get("REPRO_SIMCACHE_DIR")
        os.environ["REPRO_SIMCACHE_DIR"] = tmp
        try:
            t0 = time.perf_counter()
            sweep_vector_lengths(
                tiny_net, _VLENS, _machine_for, _POLICY,
                n_layers=_LAYERS, jobs=1, use_cache=True,
            )
            t_cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = sweep_vector_lengths(
                tiny_net, _VLENS, _machine_for, _POLICY,
                n_layers=_LAYERS, jobs=1, use_cache=True,
            )
            t_warm = time.perf_counter() - t0
        finally:
            if old_dir is None:
                os.environ.pop("REPRO_SIMCACHE_DIR", None)
            else:
                os.environ["REPRO_SIMCACHE_DIR"] = old_dir
            shutil.rmtree(tmp, ignore_errors=True)

        return (
            point_stats, serial, parallel, warm, jobs,
            t_point, t_serial, t_parallel, t_cold, t_warm,
        )

    (
        point_stats, serial, parallel, warm, jobs,
        t_point, t_serial, t_parallel, t_cold, t_warm,
    ) = run_once(benchmark, run)

    def identical(a, b):
        return all(
            getattr(a, f) == getattr(b, f) for f in SimStats.FIELDS
        ) and a.kernel_cycles == b.kernel_cycles

    par_ok = all(identical(a, b) for a, b in zip(serial.stats, parallel.stats))
    warm_ok = all(identical(a, b) for a, b in zip(serial.stats, warm.stats))

    row = {
        "bench": "simulator_selfperf",
        "point_s": round(t_point, 4),
        "sweep_serial_s": round(t_serial, 4),
        "sweep_parallel_s": round(t_parallel, 4),
        "jobs": jobs,
        "simcache_cold_s": round(t_cold, 4),
        "simcache_warm_s": round(t_warm, 4),
        "parallel_identical": par_ok,
        "warm_identical": warm_ok,
    }
    banner("Simulator self-performance (yolov3-tiny, 6 layers)")
    print(f"single point            : {t_point:.3f}s")
    print(f"4-point sweep, serial   : {t_serial:.3f}s")
    print(f"4-point sweep, jobs={jobs}   : {t_parallel:.3f}s")
    print(f"simcache cold / warm    : {t_cold:.3f}s / {t_warm:.4f}s")
    print("BENCH " + json.dumps(row, sort_keys=True))
    benchmark.extra_info.update(row)

    # Correctness gates: parallel and cached results must be identical.
    assert par_ok and warm_ok
    # A warm cache re-run must be nearly free.
    assert t_warm < 0.5 * t_cold
    # Sanity: the point simulated real work.
    assert point_stats.cycles > 0


#: The paper's Fig. 7 cache axis: the headline beneficiary of trace
#: replay, since every point shares one kernel event stream.
_L2_SWEEP_MB = [1, 2, 4, 8, 16, 32, 64, 256]


def test_sweep_trace_replay(benchmark, yolo_net):
    """Capture-once / replay-many vs per-point simulation, cold & serial.

    Times a Fig.7-style 8-point L2-size sweep of YOLOv3 twice through
    the public ``sweep_cache_sizes`` API: once with tracing disabled
    (the pre-trace-engine baseline, re-running the kernels at every
    point) and once with the capture/replay engine.  Statistics must be
    bitwise identical; the headline number is the speedup.

    ``REPRO_BENCH_SWEEP_LAYERS`` shrinks the layer count for smoke runs
    (CI uses a handful of layers; the acceptance figure in
    docs/PERFORMANCE.md is the default 20).
    """
    n_layers = int(os.environ.get("REPRO_BENCH_SWEEP_LAYERS", "20") or "20")
    policy = KernelPolicy(gemm="3loop")
    def factory(mb):
        return rvv_gem5(vlen_bits=2048, lanes=8, l2_mb=mb)

    def run():
        tracecache.clear_registry()
        # The cyclic GC otherwise charges its pauses to whichever path
        # happens to allocate more at once; disable it while timing.
        gc.disable()
        try:
            t0 = time.perf_counter()
            off = sweep_cache_sizes(
                yolo_net, _L2_SWEEP_MB, factory, policy,
                n_layers=n_layers, jobs=1, use_trace=False,
            )
            t_off = time.perf_counter() - t0
            t0 = time.perf_counter()
            on = sweep_cache_sizes(
                yolo_net, _L2_SWEEP_MB, factory, policy,
                n_layers=n_layers, jobs=1, use_trace=True,
            )
            t_on = time.perf_counter() - t0
        finally:
            gc.enable()
            gc.collect()
            tracecache.clear_registry()
        return off, on, t_off, t_on

    off, on, t_off, t_on = run_once(benchmark, run)

    def hex_identical(a, b):
        return all(
            getattr(a, f).hex() == getattr(b, f).hex() for f in SimStats.FIELDS
        ) and {k: v.hex() for k, v in a.kernel_cycles.items()} == {
            k: v.hex() for k, v in b.kernel_cycles.items()
        }

    identical = all(hex_identical(a, b) for a, b in zip(off.stats, on.stats))
    speedup = t_off / t_on if t_on > 0 else float("inf")

    row = {
        "bench": "sweep_trace_replay",
        "n_points": len(_L2_SWEEP_MB),
        "n_layers": n_layers,
        "sweep_direct_s": round(t_off, 4),
        "sweep_trace_s": round(t_on, 4),
        "speedup": round(speedup, 3),
        "bitwise_identical": identical,
        "sources": on.sources,
    }
    banner(f"Trace-replay sweep (yolov3, {n_layers} layers, 8 L2 points)")
    print(f"per-point (trace off)   : {t_off:.3f}s")
    print(f"capture+replay (on)     : {t_on:.3f}s")
    print(f"speedup                 : {speedup:.2f}x")
    print("BENCH " + json.dumps(row, sort_keys=True))
    benchmark.extra_info.update(row)

    assert identical
    assert on.sources[0] == "captured"
    assert all(s == "replayed" for s in on.sources[1:])
    # Acceptance target is >=3x at 20 layers (docs/PERFORMANCE.md); gate
    # at 2x so machine noise and tiny smoke configs don't flake CI.
    assert speedup >= 2.0


#: The paper's Fig. 6/8 lane axis: priced by deferred-VPU replay since
#: the lane count only changes pricing arithmetic, never the walk.
_LANE_SWEEP = [1, 2, 3, 4, 5, 6, 7, 8]


def test_lane_sweep_trace_replay(benchmark, yolo_net):
    """Deferred-VPU replay vs per-point simulation on a cold lane sweep.

    The lane axis used to decline replay outright (every point re-ran
    the kernels); with deferred pricing classes the 8-point sweep runs
    the kernels once and prices every lane count from the shared
    capture.  Statistics must stay bitwise identical.  The acceptance
    figure (>=2.5x at the default 20 layers) is recorded in
    docs/PERFORMANCE.md; the gate sits at 2x against machine noise.
    """
    n_layers = int(os.environ.get("REPRO_BENCH_SWEEP_LAYERS", "20") or "20")
    policy = KernelPolicy(gemm="3loop")

    def factory(lanes):
        return rvv_gem5(vlen_bits=2048, lanes=lanes, l2_mb=1)

    def run():
        tracecache.clear_registry()
        gc.disable()
        try:
            t0 = time.perf_counter()
            off = sweep_lanes(
                yolo_net, _LANE_SWEEP, factory, policy,
                n_layers=n_layers, jobs=1, use_trace=False,
            )
            t_off = time.perf_counter() - t0
            t0 = time.perf_counter()
            on = sweep_lanes(
                yolo_net, _LANE_SWEEP, factory, policy,
                n_layers=n_layers, jobs=1, use_trace=True,
            )
            t_on = time.perf_counter() - t0
        finally:
            gc.enable()
            gc.collect()
            tracecache.clear_registry()
        return off, on, t_off, t_on

    off, on, t_off, t_on = run_once(benchmark, run)

    def hex_identical(a, b):
        return all(
            getattr(a, f).hex() == getattr(b, f).hex() for f in SimStats.FIELDS
        ) and {k: v.hex() for k, v in a.kernel_cycles.items()} == {
            k: v.hex() for k, v in b.kernel_cycles.items()
        }

    identical = all(hex_identical(a, b) for a, b in zip(off.stats, on.stats))
    speedup = t_off / t_on if t_on > 0 else float("inf")

    row = {
        "bench": "lane_sweep_trace_replay",
        "n_points": len(_LANE_SWEEP),
        "n_layers": n_layers,
        "sweep_direct_s": round(t_off, 4),
        "sweep_trace_s": round(t_on, 4),
        "speedup": round(speedup, 3),
        "bitwise_identical": identical,
        "sources": on.sources,
    }
    banner(f"Lane-sweep replay (yolov3, {n_layers} layers, 8 lane points)")
    print(f"per-point (trace off)   : {t_off:.3f}s")
    print(f"capture+replay (on)     : {t_on:.3f}s")
    print(f"speedup                 : {speedup:.2f}x")
    print("BENCH " + json.dumps(row, sort_keys=True))
    benchmark.extra_info.update(row)

    assert identical
    assert on.sources[0] == "captured"
    assert all(s == "replayed" for s in on.sources[1:])
    assert speedup >= 2.0


def test_vectorized_point_pass(benchmark, yolo_net):
    """NumPy tier pricing vs per-event replay, same trace and points.

    Times :func:`repro.machine.replay.replay` (the per-event oracle,
    which re-prices every event of the trace) against
    ``_point_pass_vec`` (``np.add.accumulate`` / ``np.bincount`` over a
    compiled tier) at the same conflict-free design points.  The tier
    build (``_compile_fast`` over the capture's skeleton) is timed and
    reported separately: production (``_run_points``) pays it once per
    L2 budget per sweep group, or loads the stored ``.rvp``, so the
    per-point comparison is pricing vs pricing.  The gate sits at 2x
    against machine noise.
    """
    from repro.machine.replay import (
        _compile_fast,
        _point_pass_vec,
        _shared_pass,
        replay,
    )

    n_layers = int(os.environ.get("REPRO_BENCH_SWEEP_LAYERS", "20") or "20")
    policy = KernelPolicy(gemm="3loop")
    machines = [rvv_gem5(vlen_bits=2048, lanes=l, l2_mb=256) for l in (2, 4, 8)]
    reps = 3

    def run():
        trace = yolo_net.record_trace(machines[0], policy, n_layers=n_layers)
        skel, inv, gcfg = _shared_pass(trace, machines[0])
        gc.disable()
        try:
            t0 = time.perf_counter()
            loop_stats = [replay(trace, m) for m in machines]
            t_loop = time.perf_counter() - t0
            t0 = time.perf_counter()
            cols = _compile_fast(skel, gcfg, machines[0])
            t_compile = time.perf_counter() - t0
            t0 = time.perf_counter()
            vec_stats = [
                _point_pass_vec(cols, inv, m, gcfg)
                for _ in range(reps) for m in machines
            ]
            t_vec = (time.perf_counter() - t0) / reps
        finally:
            gc.enable()
            gc.collect()
        return loop_stats * reps, vec_stats, len(skel.base), t_loop, t_compile, t_vec

    loop_stats, vec_stats, n_items, t_loop, t_compile, t_vec = run_once(
        benchmark, run
    )

    def hex_identical(a, b):
        return all(
            getattr(a, f).hex() == getattr(b, f).hex() for f in SimStats.FIELDS
        ) and {k: v.hex() for k, v in a.kernel_cycles.items()} == {
            k: v.hex() for k, v in b.kernel_cycles.items()
        }

    identical = all(hex_identical(a, b) for a, b in zip(loop_stats, vec_stats))
    speedup = t_loop / t_vec if t_vec > 0 else float("inf")

    row = {
        "bench": "vectorized_point_pass",
        "n_layers": n_layers,
        "program_items": n_items,
        "points_priced": len(machines),
        "replay_s": round(t_loop, 4),
        "compile_s": round(t_compile, 4),
        "vec_pass_s": round(t_vec, 4),
        "speedup": round(speedup, 3),
        "bitwise_identical": identical,
    }
    banner(f"Vectorized point pass (yolov3, {n_layers} layers)")
    print(f"per-event replay        : {t_loop:.3f}s")
    print(f"tier compile (once)     : {t_compile:.3f}s")
    print(f"numpy tier pricing      : {t_vec:.3f}s")
    print(f"speedup (per point set) : {speedup:.2f}x")
    print("BENCH " + json.dumps(row, sort_keys=True))
    benchmark.extra_info.update(row)

    assert identical
    assert speedup >= 2.0


def test_shared_pass_engines(benchmark, yolo_net):
    """Vectorized shared pass vs the per-event Python oracle, same trace.

    Times ``_shared_pass_vec`` (column arithmetic over bounded row
    chunks; on this rvv machine the L1 and VectorCache walk runs as LRU
    kernels over the line stream) against ``_shared_pass_python`` (the
    per-event reference loop, dict LRUs) over one captured YOLOv3 event
    stream, reporting events/second for both.  Both emit the program as
    skeleton columns; the two programs must have the same items and
    price to bitwise identical statistics.  The vectorized pass measured
    5.6x the oracle's events/s at 6 layers (2-vCPU VM); the gate sits
    at 2x so machine noise does not flake CI.
    """
    from repro.machine.replay import _run_points, _shared_pass_python
    from repro.machine.replay_vec import _shared_pass_vec

    n_layers = int(os.environ.get("REPRO_BENCH_SWEEP_LAYERS", "20") or "20")
    machine = rvv_gem5(vlen_bits=2048, lanes=8, l2_mb=1)
    policy = KernelPolicy(gemm="3loop")

    def run():
        tracecache.clear_registry()
        trace = yolo_net.record_trace(machine, policy, n_layers=n_layers)
        gc.disable()
        try:
            t0 = time.perf_counter()
            vec_out = _shared_pass_vec(trace, machine)
            t_vec = time.perf_counter() - t0
            t0 = time.perf_counter()
            py_out = _shared_pass_python(trace, machine)
            t_py = time.perf_counter() - t0
            same_items = (
                vec_out[0].base.tobytes() == py_out[0].base.tobytes()
                and vec_out[0].addrs.tobytes() == py_out[0].addrs.tobytes()
            )
            vec_stats = _run_points(*vec_out, [machine])[0]
            py_stats = _run_points(*py_out, [machine])[0]
        finally:
            gc.enable()
            gc.collect()
            tracecache.clear_registry()
        return vec_stats, py_stats, same_items, trace.n_events, t_vec, t_py

    vec_stats, py_stats, same_items, n_events, t_vec, t_py = run_once(
        benchmark, run
    )

    identical = same_items and all(
        getattr(vec_stats, f).hex() == getattr(py_stats, f).hex()
        for f in SimStats.FIELDS
    ) and {k: v.hex() for k, v in vec_stats.kernel_cycles.items()} == {
        k: v.hex() for k, v in py_stats.kernel_cycles.items()
    }
    eps_vec = n_events / t_vec if t_vec > 0 else float("inf")
    eps_py = n_events / t_py if t_py > 0 else float("inf")

    row = {
        "bench": "shared_pass_engines",
        "n_layers": n_layers,
        "n_events": n_events,
        "python_pass_s": round(t_py, 4),
        "vec_pass_s": round(t_vec, 4),
        "python_events_per_s": round(eps_py),
        "vec_events_per_s": round(eps_vec),
        "bitwise_identical": identical,
    }
    banner(f"Shared-pass engines (yolov3, {n_layers} layers)")
    print(f"python oracle           : {t_py:.3f}s  ({eps_py / 1e3:,.0f}k ev/s)")
    print(f"vectorized (default)    : {t_vec:.3f}s  ({eps_vec / 1e3:,.0f}k ev/s)")
    print("BENCH " + json.dumps(row, sort_keys=True))
    benchmark.extra_info.update(row)

    assert identical
    assert eps_vec >= 2.0 * eps_py


def test_compiled_pass_cache_warm(benchmark, yolo_net, tmp_path):
    """Warm compiled-pass-cache sweep vs its own cold capture run.

    Runs a 3-point VL sweep of YOLOv3 cold (capture + shared pass +
    spill, one compiled tier per point persisted as ``.rvp``) and then
    warm in the same directory with the in-process registry and
    shared-pass memo cleared — the cross-process re-run shape, where
    every point must price straight from its compiled tier without
    decoding trace columns.  Statistics must be bitwise identical.
    The acceptance figure at the default 20 layers is >=10x (measured
    ~48x, docs/PERFORMANCE.md); the gate sits at 3x so smoke-sized
    layer counts and machine noise don't flake CI.
    """
    from repro.machine import replay

    n_layers = int(os.environ.get("REPRO_BENCH_SWEEP_LAYERS", "20") or "20")
    policy = KernelPolicy(gemm="3loop")
    vlens = [512, 2048, 8192]

    def factory(v):
        return rvv_gem5(vlen_bits=v, lanes=8, l2_mb=1)

    def run():
        env = {
            "REPRO_TRACE_DIR": str(tmp_path),
            "REPRO_TRACE_SPILL": "1",
        }
        old = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        tracecache.clear_registry()
        replay._SHARED_PASS_MEMO.clear()
        gc.disable()
        try:
            t0 = time.perf_counter()
            cold = sweep_vector_lengths(
                yolo_net, vlens, factory, policy,
                n_layers=n_layers, jobs=1, use_cache=False,
            )
            t_cold = time.perf_counter() - t0
            tracecache.clear_registry()
            replay._SHARED_PASS_MEMO.clear()
            tracecache.reset_load_counts()
            t0 = time.perf_counter()
            warm = sweep_vector_lengths(
                yolo_net, vlens, factory, policy,
                n_layers=n_layers, jobs=1, use_cache=False,
            )
            t_warm = time.perf_counter() - t0
            loads = tracecache.load_counts()
        finally:
            gc.enable()
            gc.collect()
            tracecache.clear_registry()
            replay._SHARED_PASS_MEMO.clear()
            for k, v in old.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return cold, warm, loads, t_cold, t_warm

    cold, warm, loads, t_cold, t_warm = run_once(benchmark, run)

    def hex_identical(a, b):
        return all(
            getattr(a, f).hex() == getattr(b, f).hex() for f in SimStats.FIELDS
        ) and {k: v.hex() for k, v in a.kernel_cycles.items()} == {
            k: v.hex() for k, v in b.kernel_cycles.items()
        }

    identical = all(hex_identical(a, b) for a, b in zip(cold.stats, warm.stats))
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    compiled_hits = loads.get("vecprog", 0)

    row = {
        "bench": "compiled_pass_cache_warm",
        "n_points": len(vlens),
        "n_layers": n_layers,
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "speedup": round(speedup, 3),
        "compiled_hits": compiled_hits,
        "trace_decodes_warm": loads.get("spill", 0) + loads.get("shm", 0),
        "bitwise_identical": identical,
        "warm_sources": warm.sources,
    }
    banner(f"Compiled-pass cache (yolov3, {n_layers} layers, 3 VL points)")
    print(f"cold (capture+compile)  : {t_cold:.3f}s")
    print(f"warm (tier pricing)     : {t_warm:.3f}s")
    print(f"speedup                 : {speedup:.2f}x")
    print(f"compiled hits / trace decodes : {compiled_hits} / "
          f"{row['trace_decodes_warm']}")
    print("BENCH " + json.dumps(row, sort_keys=True))
    benchmark.extra_info.update(row)

    assert identical
    assert all(s == "replayed" for s in warm.sources)
    # Every warm point must come from a compiled artifact, with no
    # trace-column decode at all.
    assert compiled_hits >= len(vlens)
    assert row["trace_decodes_warm"] == 0
    assert speedup >= 3.0


def test_duplicate_submit_warm(benchmark):
    """Warm duplicate-submit latency: the sealed record answers, <1s.

    Submits one small sweep as a durable job (docs/SERVICE.md), then
    submits the identical grid again.  The second submission must
    attach by content-derived id and answer entirely from the sealed,
    digest-chained results record — zero point simulations, statistics
    bitwise identical — and do so in under a second: the dedup
    guarantee that makes concurrent identical submissions free.
    """
    from repro.service import scheduler

    spec = {
        "net": "yolov3-tiny", "machine": "rvv", "vlen": 512, "lanes": 8,
        "l2_mb": 1, "gemm": "3loop", "winograd": "off", "layers": _LAYERS,
        "axis": "cache", "values": [1, 4],
    }

    def run():
        tmp = tempfile.mkdtemp(prefix="jobs-bench-")
        old_dir = os.environ.get("REPRO_SIMCACHE_DIR")
        os.environ["REPRO_SIMCACHE_DIR"] = tmp
        tracecache.clear_registry()
        gc.disable()
        try:
            t0 = time.perf_counter()
            first = scheduler.submit_and_run(spec)
            t_cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            dup = scheduler.submit_and_run(spec)
            t_warm = time.perf_counter() - t0
        finally:
            gc.enable()
            gc.collect()
            tracecache.clear_registry()
            if old_dir is None:
                os.environ.pop("REPRO_SIMCACHE_DIR", None)
            else:
                os.environ["REPRO_SIMCACHE_DIR"] = old_dir
            shutil.rmtree(tmp, ignore_errors=True)
        return first, dup, t_cold, t_warm

    first, dup, t_cold, t_warm = run_once(benchmark, run)

    def hex_identical(a, b):
        return all(
            getattr(a, f).hex() == getattr(b, f).hex()
            for f in SimStats.FIELDS
        ) and {k: v.hex() for k, v in a.kernel_cycles.items()} == {
            k: v.hex() for k, v in b.kernel_cycles.items()
        }

    identical = all(
        hex_identical(a, b) for a, b in zip(first.result.stats, dup.result.stats)
    )
    row = {
        "bench": "duplicate_submit_warm",
        "n_points": len(spec["values"]),
        "n_layers": _LAYERS,
        "cold_submit_s": round(t_cold, 4),
        "warm_submit_s": round(t_warm, 4),
        "warm_sources": dup.result.sources,
        "bitwise_identical": identical,
    }
    banner(f"Duplicate-submit dedup (yolov3-tiny, {_LAYERS} layers)")
    print(f"first submission        : {t_cold:.3f}s")
    print(f"duplicate submission    : {t_warm:.4f}s")
    print("BENCH " + json.dumps(row, sort_keys=True))
    benchmark.extra_info.update(row)

    assert first.state == "done" and first.sealed
    # The dedup contract: attached by content id, answered from the
    # sealed record, zero extra point simulations, bitwise identical.
    assert dup.attached and dup.sealed
    assert dup.result.sources == ["sealed"] * len(spec["values"])
    assert identical
    # The latency gate: a warm duplicate must answer in under a second.
    assert t_warm < 1.0


def test_pruned_autotune_selfperf(benchmark):
    """Model-guided block-size search vs the exhaustive grid.

    Runs the 48-point Table-II-style blocking grid for one YOLOv3 GEMM
    shape twice through ``autotune_blocks``: exhaustively (every point
    simulated) and model-guided (``prune=9``: the static cost model
    ranks all 48, only the top 9 simulate).  The headline numbers are
    the wall-clock speedup and the quality of the shortcut — the
    pruned search's winner must stay within a few percent of the
    exhaustive winner (the top-1-containment acceptance bar itself is
    asserted per-preset in tests/test_predict.py).
    """
    from repro.core import autotune_blocks
    from repro.kernels.gemm_6loop import BlockSizes

    M, N, K = 64, 5776, 288  # yolov3-tiny 76x76 im2col shape family
    grid = [
        BlockSizes(m, n, k)
        for m in (16, 32, 48, 64)
        for n in (256, 512, 1024)
        for k in (64, 128, 256, 512)
    ]
    prune = 9
    machine = rvv_gem5(vlen_bits=512, lanes=8, l2_mb=1)

    def run():
        gc.disable()
        try:
            t0 = time.perf_counter()
            best_full, full = autotune_blocks(machine, M, N, K,
                                              candidates=grid)
            t_full = time.perf_counter() - t0
            t0 = time.perf_counter()
            best_pruned, pruned = autotune_blocks(machine, M, N, K,
                                                  candidates=grid,
                                                  prune=prune)
            t_pruned = time.perf_counter() - t0
        finally:
            gc.enable()
            gc.collect()
        return best_full, full, best_pruned, pruned, t_full, t_pruned

    best_full, full, best_pruned, pruned, t_full, t_pruned = run_once(
        benchmark, run
    )

    n_sim = sum(r.source == "simulated" for r in pruned)
    speedup = t_full / t_pruned if t_pruned > 0 else float("inf")
    cycles = {r.blocks: r.cycles for r in full}
    quality = cycles[best_pruned] / cycles[best_full]

    row = {
        "bench": "pruned_autotune",
        "n_points": len(grid),
        "simulated": n_sim,
        "exhaustive_s": round(t_full, 4),
        "pruned_s": round(t_pruned, 4),
        "speedup": round(speedup, 3),
        "best_exhaustive": str(best_full),
        "best_pruned": str(best_pruned),
        "quality": round(quality, 4),
    }
    banner(f"Model-guided autotune ({len(grid)}-point grid, prune={prune})")
    print(f"exhaustive ({len(grid)} sims)    : {t_full:.3f}s")
    print(f"pruned ({n_sim} sims + model) : {t_pruned:.3f}s")
    print(f"speedup                 : {speedup:.2f}x")
    print(f"winner quality          : {quality:.4f}x of exhaustive best")
    print("BENCH " + json.dumps(row, sort_keys=True))
    benchmark.extra_info.update(row)

    # The model may only simulate the requested survivor budget...
    assert n_sim == prune
    assert all(
        r.source in ("simulated", "pruned-by-model") for r in pruned
    )
    # ...must actually be the cheap path...
    assert speedup >= 2.0
    # ...and must not cost more than a few percent of winner quality.
    assert quality <= 1.05


def test_analysis_selfperf(benchmark, yolo_net):
    """Static-analyzer runtime on an already-captured trace.

    ``repro analyze`` is a CI gate, so its cost on a cached trace is a
    number worth tracking: the full verifier + working-set + roofline
    pass over a 20-layer YOLOv3 trace (~1.4M events) must stay cheap
    relative to the capture it rides on.  ``REPRO_BENCH_SWEEP_LAYERS``
    shrinks the layer count for smoke runs, same as the sweep bench.
    """
    from repro.analysis import analyze_trace, reuse_distances
    from repro.core.tracecache import get_or_capture

    n_layers = int(os.environ.get("REPRO_BENCH_SWEEP_LAYERS", "20") or "20")
    machine = rvv_gem5(vlen_bits=2048, lanes=8, l2_mb=1)
    policy = KernelPolicy(gemm="3loop")

    def run():
        tracecache.clear_registry()
        t0 = time.perf_counter()
        trace, _ = get_or_capture(yolo_net, machine, policy, n_layers)
        t_capture = time.perf_counter() - t0
        gc.disable()
        try:
            t0 = time.perf_counter()
            report = analyze_trace(
                trace, machine, policy=policy, net_name=yolo_net.name
            )
            t_analyze = time.perf_counter() - t0
            # The temporal reuse-distance pass alone (columns are
            # already materialized by the full pipeline above).
            t0 = time.perf_counter()
            rr = reuse_distances(trace, machine)
            t_reuse = time.perf_counter() - t0
        finally:
            gc.enable()
            gc.collect()
            tracecache.clear_registry()
        return report, rr, trace.n_events, t_capture, t_analyze, t_reuse

    report, rr, n_events, t_capture, t_analyze, t_reuse = run_once(
        benchmark, run
    )

    row = {
        "bench": "analysis_selfperf",
        "n_layers": n_layers,
        "n_events": n_events,
        "capture_s": round(t_capture, 4),
        "analyze_s": round(t_analyze, 4),
        "reuse_s": round(t_reuse, 4),
        "reuse_touches": rr.n_touches,
        "findings": len(report.findings),
    }
    banner(f"Static analysis (yolov3, {n_layers} layers, cached trace)")
    print(f"capture                 : {t_capture:.3f}s")
    print(f"analyze ({n_events / 1e6:.2f}M events)  : {t_analyze:.3f}s")
    print(f"reuse   ({rr.n_touches / 1e6:.2f}M touches) : {t_reuse:.3f}s")
    print("BENCH " + json.dumps(row, sort_keys=True))
    benchmark.extra_info.update(row)

    # The analyzer must come back clean on the shipped network...
    assert report.ok, [f.as_row() for f in report.findings]
    assert report.working_set and report.bounds and report.reuse
    # ...and stay interactive: a few seconds for the full 20-layer
    # trace (the acceptance figure in docs/PERFORMANCE.md is <1s).
    assert t_analyze < 5.0
    # The reuse-distance pass alone must also stay interactive.
    assert t_reuse < 5.0


def test_codecheck_selfperf(benchmark):
    """Code-invariant analyzer runtime over the repro package itself.

    ``repro check-code`` runs in the CI lint job on every push, so its
    end-to-end cost (parse ~80 modules, build the call graph, classify
    zones, run 13 rule families) is a gate, not just a datapoint: it
    must stay well under interactive latency or people stop running it
    locally before committing.
    """
    from repro.analysis.codecheck import check_package, default_config

    def run():
        config = default_config()
        t0 = time.perf_counter()
        first = check_package(config)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        second = check_package(config)
        t_warm = time.perf_counter() - t0
        return first, second, t_cold, t_warm

    first, second, t_cold, t_warm = run_once(benchmark, run)

    row = {
        "bench": "codecheck_selfperf",
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "findings": len(first),
    }
    banner("Code-invariant analyzer (repro check-code, full package)")
    print(f"cold run                : {t_cold:.3f}s")
    print(f"repeat run              : {t_warm:.3f}s")
    print("BENCH " + json.dumps(row, sort_keys=True))
    benchmark.extra_info.update(row)

    # The gate the repo ships under: zero findings on its own tree...
    assert not first, [f.as_row() for f in first]
    # ...reported deterministically...
    assert [f.as_dict() for f in first] == [f.as_dict() for f in second]
    # ...and fast enough to run on every commit.
    assert t_cold < 5.0
