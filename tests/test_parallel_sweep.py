"""Parallel sweep execution: parity with the serial path and fallbacks."""

import multiprocessing
import os

import pytest

from repro.core import (
    resolve_jobs,
    simulate_points,
    sweep_lanes,
    sweep_vector_lengths,
    tracecache,
)
from repro.core.parallel import JOBS_ENV
from repro.machine import rvv_gem5, sve_gem5
from repro.machine.simulator import SimStats
from repro.nets import ConvLayer, KernelPolicy, MaxPoolLayer, Network


def small_net():
    return Network(
        [ConvLayer(8, 3, 1), MaxPoolLayer(2, 2), ConvLayer(16, 3, 1)],
        input_shape=(4, 32, 32),
        name="small",
    )


def assert_identical(a: SimStats, b: SimStats):
    for name in SimStats.FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.kernel_cycles == b.kernel_cycles


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        assert resolve_jobs(None) == 1


class TestParallelParity:
    """Parallel sweeps must equal serial sweeps field by field."""

    def test_rvv_sweep_identical(self):
        net = small_net()
        vlens = [512, 1024, 2048]

        def factory(v):
            return rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1)
        serial = sweep_vector_lengths(net, vlens, factory, jobs=1)
        parallel = sweep_vector_lengths(net, vlens, factory, jobs=2)
        assert serial.axis == parallel.axis == vlens
        assert len(parallel.stats) == len(vlens)
        for a, b in zip(serial.stats, parallel.stats):
            assert_identical(a, b)

    def test_sve_sweep_identical(self):
        net = small_net()
        policy = KernelPolicy(gemm="6loop")
        serial = sweep_vector_lengths(
            net, [512, 1024], lambda v: sve_gem5(vlen_bits=v), policy, jobs=1
        )
        parallel = sweep_vector_lengths(
            net, [512, 1024], lambda v: sve_gem5(vlen_bits=v), policy, jobs=2
        )
        for a, b in zip(serial.stats, parallel.stats):
            assert_identical(a, b)

    def test_result_order_matches_input_order(self):
        net = small_net()
        vlens = [4096, 512, 2048, 1024]  # deliberately unsorted
        res = sweep_vector_lengths(
            net, vlens, lambda v: rvv_gem5(vlen_bits=v), jobs=2
        )
        assert res.axis == vlens
        # Longer vectors take fewer, larger instructions: vec_instrs must
        # strictly follow the (unsorted) axis order, not completion order.
        by_vlen = dict(zip(res.axis, res.stats))
        assert by_vlen[512].vec_instrs > by_vlen[4096].vec_instrs


class TestParallelReplay:
    """Lane/VL sweeps must replay across processes, bitwise-identically,
    with spill on or off (the shared-memory tier covers both)."""

    @pytest.mark.parametrize("spill", ["0", "1"])
    def test_lane_sweep_parallel_identical(self, monkeypatch, tmp_path, spill):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", spill)
        tracecache.clear_registry()
        net = small_net()
        lanes = [1, 2, 4, 8]

        def factory(l):
            return rvv_gem5(vlen_bits=512, lanes=l, l2_mb=1)

        direct = sweep_lanes(net, lanes, factory, jobs=1, use_trace=False)
        assert direct.sources == ["direct"] * 4
        tracecache.clear_registry()
        parallel = sweep_lanes(net, lanes, factory, jobs=2)
        assert set(parallel.sources) <= {"captured", "replayed"}
        assert parallel.sources.count("replayed") >= 3
        for a, b in zip(direct.stats, parallel.stats):
            assert_identical(a, b)
        tracecache.clear_registry()

    @pytest.mark.parametrize("spill", ["0", "1"])
    def test_vl_sweep_parallel_replays_when_seeded(
        self, monkeypatch, tmp_path, spill
    ):
        """VL points are singleton trace groups; once a serial sweep has
        seeded their captures, a parallel sweep replays every point in
        the workers instead of simulating."""
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", spill)
        tracecache.clear_registry()
        net = small_net()
        vlens = [512, 1024, 2048]

        def factory(v):
            return rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1)

        serial = sweep_vector_lengths(net, vlens, factory, jobs=1)
        assert serial.sources == ["captured"] * 3
        parallel = sweep_vector_lengths(net, vlens, factory, jobs=2)
        assert parallel.sources == ["replayed"] * 3
        for a, b in zip(serial.stats, parallel.stats):
            assert_identical(a, b)
        tracecache.clear_registry()

    def test_single_trace_load_per_worker(self, monkeypatch, tmp_path):
        """Spawn-platform workers must decode each event stream at most
        once per worker lifetime — via the shared-memory segment the
        parent publishes, never by re-reading the spill per task."""
        log = tmp_path / "loads.log"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", "1")
        monkeypatch.setenv("REPRO_TRACE_LOAD_LOG", str(log))
        # Spawn (not fork) so workers start with empty registries —
        # the platform the shared-memory tier exists for.
        from repro.core import parallel as par

        monkeypatch.setattr(
            par, "multiprocessing", multiprocessing.get_context("spawn")
        )
        tracecache.clear_registry()
        net = small_net()
        # Two lane groups (distinct VLs -> distinct trace keys), two
        # chunks each: workers handle several tasks per event stream.
        machines = [
            rvv_gem5(vlen_bits=v, lanes=l, l2_mb=1)
            for v in (512, 1024)
            for l in (1, 2, 4, 8)
        ]
        out = simulate_points(net, machines, KernelPolicy(), None, 2)
        assert out is not None
        stats, sources = out
        assert sources.count("replayed") >= 6
        lines = [ln.split() for ln in log.read_text().splitlines()]
        # Compiled tiers (vecprog) may also be loaded — they exist to
        # *avoid* trace decodes, so only the trace-stream loads are
        # constrained here.
        trace_loads = [
            (pid, src, key)
            for pid, src, key in lines
            if src in ("shm", "spill")
        ]
        assert trace_loads, "workers should have loaded the published traces"
        # Every cross-process trace load came from shared memory...
        assert {src for _, src, _ in trace_loads} == {"shm"}
        # ...and no worker decoded the same stream twice.
        seen = [(pid, key) for pid, _, key in trace_loads]
        assert len(seen) == len(set(seen))
        tracecache.clear_registry()


class TestFallbacks:
    def test_single_point_returns_none(self):
        net = small_net()
        assert simulate_points(
            net, [rvv_gem5(vlen_bits=512)], KernelPolicy(), None, 4
        ) is None

    def test_single_job_returns_none(self):
        net = small_net()
        machines = [rvv_gem5(vlen_bits=v) for v in (512, 1024)]
        assert simulate_points(net, machines, KernelPolicy(), None, 1) is None

    def test_unpicklable_network_falls_back(self):
        net = small_net()
        net.unpicklable = lambda: None  # closures cannot be pickled
        machines = [rvv_gem5(vlen_bits=v) for v in (512, 1024)]
        assert simulate_points(net, machines, KernelPolicy(), None, 2) is None
        # ...and the sweep still completes serially.
        res = sweep_vector_lengths(
            net, [512, 1024], lambda v: rvv_gem5(vlen_bits=v), jobs=2
        )
        assert len(res.stats) == 2

    def test_env_driven_parallelism(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "2")
        net = small_net()
        res = sweep_vector_lengths(
            net, [512, 1024], lambda v: rvv_gem5(vlen_bits=v)
        )
        serial = sweep_vector_lengths(
            net, [512, 1024], lambda v: rvv_gem5(vlen_bits=v), jobs=1
        )
        for a, b in zip(res.stats, serial.stats):
            assert_identical(a, b)
