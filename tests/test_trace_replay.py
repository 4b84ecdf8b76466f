"""Capture-once / replay-many trace engine: bitwise identity & keying.

The contract under test is strict: pricing a recorded kernel event
stream — via :func:`repro.machine.replay.replay`, a shared-pass
``replay_sweep``, or the cold path ``capture_sweep`` — must produce
``SimStats`` *bitwise identical* (``float.hex`` equal) to driving the
kernels straight into a :class:`TraceSimulator`.  Equality within an
epsilon is not enough; the replay engines mirror the simulator's
accumulation order exactly, and these tests are the tripwire for any
drift (see the lock-step warning in ``repro/machine/replay.py``).
Machines with a TLB, a hardware prefetcher or honoured software
prefetches (the a64fx preset) never replay as a group: their sweeps
price every point by direct simulation and leave no trace or tier.
"""

import os
from dataclasses import replace
from unittest import mock

import pytest

from repro.core import sweep_cache_sizes, sweep_lanes, tracecache
from repro.core.codesign import ReplayDegradedWarning, SweepResult
from repro.machine import a64fx, replay_vec, rvv_gem5, sve_gem5
from repro.machine.config import CacheParams, PrefetcherParams, TLBParams
from repro.machine.replay import (
    _compile_fast,
    _compile_walk,
    _hot_sets,
    _point_pass_vec,
    _shared_pass,
    _tier_for,
    capture_sweep,
    group_mode,
    nonuniform_fields,
    replay,
    replay_sweep,
)
from repro.machine import trace as trace_mod
from repro.machine.simulator import SimStats, TraceSimulator
from repro.nets import ConvLayer, KernelPolicy, MaxPoolLayer, Network
from repro.nets.zoo import yolov3_tiny

from .test_tier_identity import line_walk_tier


def hexs(st: SimStats):
    """Exact fingerprint: every counter as float.hex + kernel cycles."""
    fields = tuple(getattr(st, f).hex() for f in SimStats.FIELDS)
    kc = tuple(sorted((k, v.hex()) for k, v in st.kernel_cycles.items()))
    return fields, kc


def assert_bitwise(a: SimStats, b: SimStats):
    for f in SimStats.FIELDS:
        assert getattr(a, f).hex() == getattr(b, f).hex(), f
    assert hexs(a)[1] == hexs(b)[1]


def assert_same_tier(a, b):
    """Two tiers hold the same classes and item columns, bit for bit."""
    for name in ("base", "kid", "cls_pos", "cls_idx", "wh_by_cls", "wm_by_cls"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.cls_defs == b.cls_defs and a.max_nm == b.max_nm


def direct(net, machine, policy, n_layers):
    sim = TraceSimulator(machine)
    net._emit_trace(sim, policy, n_layers, True)
    return sim.stats


def small_net():
    return Network(
        [ConvLayer(8, 3, 1), MaxPoolLayer(2, 2), ConvLayer(16, 3, 1)],
        input_shape=(4, 32, 32),
        name="small",
    )


@pytest.fixture
def cold(monkeypatch):
    """``capture_sweep`` exactly as a sweep runs it: keyed and
    recording, from an empty registry, the trace kept in memory."""
    monkeypatch.setenv("REPRO_TRACE_SPILL", "0")

    def run(net, machines, policy, n):
        tracecache.clear_registry()
        return capture_sweep(
            lambda sim: net._emit_trace(sim, policy, n, True), machines,
            key=tracecache.trace_key(net, machines[0], policy, n),
            meta=net._trace_meta(policy, n),
        )

    yield run
    tracecache.clear_registry()


L2_SIZES = [1, 4, 64]

CASES = [
    pytest.param(
        lambda mb: rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb),
        KernelPolicy(),
        6,
        id="rvv",
    ),
    pytest.param(
        lambda mb: rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb),
        KernelPolicy(gemm="6loop"),
        6,
        id="rvv-6loop",
    ),
    pytest.param(
        lambda mb: rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb),
        KernelPolicy(winograd="stride1"),
        6,
        id="rvv-winograd",
    ),
    pytest.param(
        lambda mb: sve_gem5(vlen_bits=512, l2_mb=mb), KernelPolicy(), 6, id="sve"
    ),
    pytest.param(
        lambda mb: a64fx().with_(
            l2=a64fx().l2.__class__(
                size_bytes=mb << 20,
                assoc=a64fx().l2.assoc,
                line_bytes=a64fx().l2.line_bytes,
                latency=a64fx().l2.latency,
            )
        ),
        KernelPolicy(),
        6,
        id="a64fx",
    ),
]


class TestBitwiseIdentity:
    @pytest.mark.parametrize("mk,policy,n", CASES)
    def test_replay_and_sweeps_match_direct(self, mk, policy, n, cold):
        """Every group engine prices like direct simulation; an a64fx
        group (TLB, prefetchers) still replays point by point through
        ``replay``, but the group engines decline it."""
        net = yolov3_tiny()
        machines = [mk(mb) for mb in L2_SIZES]
        ds = [direct(net, m, policy, n) for m in machines]

        trace = net.record_trace(machines[0], policy, n_layers=n)
        assert_bitwise(ds[0], replay(trace, machines[0]))
        if machines[0].tlb:
            assert group_mode(machines) is None
            assert replay_sweep(trace, machines) is None
            assert cold(net, machines, policy, n) is None
            key = tracecache.trace_key(net, machines[0], policy, n)
            assert tracecache.get(key) is None  # nothing recorded
            return

        replayed = replay_sweep(trace, machines)
        assert replayed is not None
        for d, r in zip(ds, replayed):
            assert_bitwise(d, r)

        captured = cold(net, machines, policy, n)
        assert captured is not None
        for d, c in zip(ds, captured):
            assert_bitwise(d, c)

    def test_mixed_dram_and_tiny_l2_group(self):
        """Uniform groups may vary DRAM parameters, not just L2 size."""
        net = yolov3_tiny()
        base = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        tiny = base.with_(
            l2=base.l2.__class__(
                size_bytes=64 * 1024,
                assoc=base.l2.assoc,
                line_bytes=base.l2.line_bytes,
                latency=base.l2.latency,
            )
        )
        group = [
            tiny,
            base.with_(dram_latency=300),
            rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=64).with_(dram_bytes_per_cycle=8),
        ]
        assert group_mode(group) == "l2"
        ds = [direct(net, m, KernelPolicy(), 6) for m in group]
        trace = net.record_trace(group[0], KernelPolicy(), n_layers=6)
        for d, r in zip(ds, replay_sweep(trace, group)):
            assert_bitwise(d, r)

    def test_zero_layer_trace(self):
        net = yolov3_tiny()
        m = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        trace = net.record_trace(m, KernelPolicy(), n_layers=0)
        assert_bitwise(direct(net, m, KernelPolicy(), 0), replay(trace, m))

    def test_lane_group_replays_deferred(self, cold):
        """Lanes change pricing arithmetic, not the walk: the engines
        defer the VPU-dependent terms and replay bitwise."""
        net = yolov3_tiny()
        group = [
            rvv_gem5(vlen_bits=1024, lanes=l, l2_mb=1) for l in (1, 2, 4, 8)
        ]
        assert group_mode(group) == "vpu"  # not L2/DRAM-only: deferred pricing
        ds = [direct(net, m, KernelPolicy(), 2) for m in group]
        trace = net.record_trace(group[0], KernelPolicy(), n_layers=2)
        for d, r in zip(ds, replay_sweep(trace, group)):
            assert_bitwise(d, r)
        for d, r in zip(ds, cold(net, group, KernelPolicy(), 2)):
            assert_bitwise(d, r)

    def test_vl_group_declined(self):
        """VL changes the event stream itself -> the group engines
        decline; each VL point records (and replays) its own trace."""
        group = [rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1) for v in (512, 1024)]
        assert group_mode(group) is None
        assert group_mode(group[:1]) == "l2"  # each VL point is a group
        assert nonuniform_fields(group) == ["vlen_bits"]

    def test_port_level_group_declined(self):
        """The VPU memory-port level shapes the recorded walk: a group
        varying in it must fall back to per-point simulation."""
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        m1 = m0.with_(vpu=replace(m0.vpu, mem_port="L1"))
        assert group_mode([m0, m1]) is None

    def test_incompatible_machine_raises(self):
        net = yolov3_tiny()
        trace = net.record_trace(
            rvv_gem5(vlen_bits=1024, lanes=4), KernelPolicy(), n_layers=2
        )
        with pytest.raises(ValueError):
            replay(trace, rvv_gem5(vlen_bits=2048, lanes=4))


class TestPointPassEngines:
    """Every tier builder must price exactly like :func:`replay`.

    ``_run_points`` prices each design point with ``_point_pass_vec``
    from one tier: conflict-free (``_compile_fast``, one per L2 byte
    budget) or walk (``_compile_walk``, one per L2 geometry: the
    lockstep LRU over the hot sets).  Here each builder runs explicitly
    on one shared program and the priced point is checked against
    ``replay()`` of the same trace.
    """

    @pytest.fixture(scope="class")
    def captured(self):
        net = yolov3_tiny()
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        trace = net.record_trace(m0, KernelPolicy(), n_layers=6)
        return (trace,) + _shared_pass(trace, m0)

    def test_hybrid_matches_full(self, captured):
        """The 512 KB and 1 MB points sit in hybrid territory — a few
        overcommitted sets, everything else conflict-free — and every
        set is hot at 256 KB.  Each walk tier walks only the hot sets,
        in lockstep; it equals a per-line L2 walk's tier
        (``line_walk_tier``) bit for bit and prices like replay."""
        from repro.machine import replay as R

        trace, skel, inv, gc = captured
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        for kb, ways, hybrid in ((256, 8, False), (512, 16, True), (1024, 8, True)):
            m = m0.with_(l2=CacheParams(kb * 1024, ways, 64, m0.l2.latency))
            num_sets = m.l2.size_bytes // m.l2.line_bytes // m.l2.assoc
            hot = _hot_sets(skel, num_sets, m.l2.assoc)[skel.lines % num_sets]
            assert hot.any() and hybrid == (hot.sum() < len(skel.lines))
            assert _tier_for(skel, gc, m)["kind"] == "walk"
            with mock.patch.object(R, "_lru_hits", wraps=R._lru_hits) as spy:
                hot_walk = _compile_walk(skel, gc, m)
            assert spy.called
            assert_same_tier(hot_walk, line_walk_tier(skel, m))
            assert_bitwise(replay(trace, m), _point_pass_vec(hot_walk, inv, m, gc))

    def test_fast_tiers_match_replay(self, captured):
        """Conflict-free points whose ranges never trim share one tier,
        whichever member builds it."""
        trace, skel, inv, gc = captured
        cols = _compile_fast(skel, gc, rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=256))
        for mb in (64, 256):
            m = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb)
            tier = _tier_for(skel, gc, m)
            assert tier["kind"] == "fast" and tier["desc"] == "fast:None"
            assert_bitwise(replay(trace, m), _point_pass_vec(cols, inv, m, gc))

    def test_budget_compile_matches_fast_when_trimming(self, captured):
        """A finite-budget compile resolves the trimming range walk in
        stream order, exactly as the simulator's range model does."""
        trace, skel, inv, gc = captured
        for mb in (2, 4):
            m = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb)
            assert gc["max_range_total"] > m.l2.size_bytes  # ranges trim here
            assert _tier_for(skel, gc, m)["desc"] == f"fast:{m.l2.size_bytes}"
            cols = _compile_fast(skel, gc, m)
            assert_bitwise(replay(trace, m), _point_pass_vec(cols, inv, m, gc))

    def test_walk_compile_matches_full_on_lane_group(self, captured):
        """A conflicted lane group (uniform 1 MB L2, varying lanes)
        resolves its cache walk once and vec-prices every point."""
        trace, skel, inv, gc = captured
        machines = [
            rvv_gem5(vlen_bits=1024, lanes=l, l2_mb=1) for l in (2, 4, 8)
        ]
        assert len({_tier_for(skel, gc, m)["token"] for m in machines}) == 1
        cols = _compile_walk(skel, gc, machines[0])
        for m in machines:
            assert_bitwise(replay(trace, m), _point_pass_vec(cols, inv, m, gc))

    def test_run_points_selects_all_engines(self, monkeypatch, cold):
        """An L2 sweep of this net builds every tier kind once."""
        from repro.machine import replay as R

        calls = []
        for name in ("_compile_fast", "_compile_walk", "_point_pass_vec"):
            orig = getattr(R, name)
            monkeypatch.setattr(
                R, name,
                (lambda orig, name: lambda *a: (calls.append(name), orig(*a))[1])(
                    orig, name
                ),
            )
        net = yolov3_tiny()
        sizes = [1, 2, 4, 64]  # hot walk; two trimming budgets; never trims
        machines = [rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb) for mb in sizes]
        for m, f in zip(machines, cold(net, machines, KernelPolicy(), 6)):
            assert_bitwise(direct(net, m, KernelPolicy(), 6), f)
        assert calls.count("_compile_walk") == 1
        assert calls.count("_compile_fast") == 3
        assert calls.count("_point_pass_vec") == 4

    def test_zero_set_l2_raises(self):
        """An L2 of no sets cannot be built: ``CacheParams`` refuses a
        zero size, so no tier builder or simulator ever meets one."""
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        with pytest.raises(ValueError, match="size_bytes"):
            CacheParams(0, m0.l2.assoc, 64, m0.l2.latency)


class TestRecordedTrace:
    """The cold capture records exactly what ``record_trace`` records."""

    @pytest.mark.parametrize("policy", [
        pytest.param(KernelPolicy(), id="3loop"),
        pytest.param(KernelPolicy(gemm="6loop", winograd="stride1"), id="6loop-wino"),
    ])
    @pytest.mark.parametrize("mk", [
        pytest.param(lambda: rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1), id="rvv"),
        pytest.param(lambda: sve_gem5(vlen_bits=512, l2_mb=1), id="sve"),
        pytest.param(a64fx, id="a64fx"),
    ])
    def test_capture_sweep_records_record_trace(self, cold, mk, policy):
        """On a64fx (TLB, prefetchers) the cold path declines before it
        runs a kernel: nothing is recorded or priced."""
        net = yolov3_tiny()
        m = mk()
        key = tracecache.trace_key(net, m, policy, 3)
        priced = cold(net, [m], policy, 3)
        got = tracecache.get(key)
        if m.tlb:
            assert priced is None and got is None
            return
        want = net.record_trace(m, policy, n_layers=3, key=key)
        assert got is not None and got is not want
        assert got.content_digest() == want.content_digest()
        assert got.labels == want.labels
        assert got.buffers == want.buffers
        assert got.meta == want.meta
        assert_bitwise(replay(want, m), priced[0])

    def test_capture_spanning_many_chunks(self, monkeypatch, cold):
        """A capture whose log freezes many column chunks (and whose
        shared pass runs over as many row chunks) records the trace a
        single-chunk ``record_trace`` does and prices every point like
        direct simulation; replay walks the chunked rows just as well."""
        net = yolov3_tiny()
        policy = KernelPolicy()
        machines = [rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb) for mb in (1, 4, 64)]
        want = net.record_trace(machines[0], policy, n_layers=4)
        monkeypatch.setattr(trace_mod, "_CHUNK_ROWS", 1000)
        monkeypatch.setattr(replay_vec, "_CHUNK_ROWS", 1000)
        assert want.n_events > 10 * 1000
        priced = cold(net, machines, policy, 4)
        got = tracecache.get(tracecache.trace_key(net, machines[0], policy, 4))
        assert got.content_digest() == want.content_digest()
        for m, p in zip(machines, priced):
            d = direct(net, m, policy, 4)
            assert_bitwise(d, p)
            assert_bitwise(d, replay(got, m))


def a64fx_l2(mb):
    base = a64fx()
    return base.with_(l2=replace(base.l2, size_bytes=mb << 20))


def rvv_with(feature, value):
    return lambda mb: rvv_gem5(vlen_bits=512, lanes=4, l2_mb=mb).with_(
        **{feature: value}
    )


#: L2 sweeps replay declines, and the feature each error names.
DECLINED = [
    pytest.param(a64fx_l2, "tlb, l1_prefetcher", id="a64fx"),
    pytest.param(rvv_with("tlb", TLBParams()), "tlb", id="tlb"),
    pytest.param(
        rvv_with("l1_prefetcher", PrefetcherParams()), "l1_prefetcher",
        id="l1_prefetcher",
    ),
    pytest.param(
        rvv_with("l2_prefetcher", PrefetcherParams()), "l2_prefetcher",
        id="l2_prefetcher",
    ),
    pytest.param(
        rvv_with("honors_sw_prefetch", True), "honors_sw_prefetch",
        id="honors_sw_prefetch",
    ),
]


class TestDeclinedMachines:
    @pytest.mark.parametrize("factory,feature", DECLINED)
    def test_l2_sweep_prices_direct(self, factory, feature, tmp_path, monkeypatch):
        """A machine with a TLB, a prefetcher or honoured prefetches
        prices every point of an L2 sweep by direct simulation, serial
        and parallel, hex-identical to ``Network.simulate``; no trace or
        tier is written, and demanding replay raises, naming the
        feature."""
        monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", "1")
        tracecache.clear_registry()
        net = small_net()
        sizes = [1, 4]
        want = [
            net.simulate(factory(mb), KernelPolicy(), use_cache=False, use_trace=False)
            for mb in sizes
        ]
        for jobs in (1, 2):
            res = sweep_cache_sizes(net, sizes, factory, jobs=jobs, use_cache=False)
            assert res.sources == ["direct", "direct"], jobs
            for w, got in zip(want, res.stats):
                assert_bitwise(w, got)
            with pytest.raises(ValueError, match=feature):
                sweep_cache_sizes(
                    net, sizes, factory, jobs=jobs, use_cache=False, use_trace=True
                )
        written = [f for _, _, files in os.walk(tmp_path) for f in files]
        assert not [f for f in written if f.endswith((".rtz", ".rvp"))], written
        key = tracecache.trace_key(net, factory(1), KernelPolicy(), None)
        assert tracecache.get(key, spill=True) is None


class TestTraceKey:
    def key(self, net=None, machine=None, policy=None, n_layers=6):
        return tracecache.trace_key(
            net or yolov3_tiny(),
            machine or rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1),
            policy or KernelPolicy(),
            n_layers,
        )

    def test_pricing_axes_share_a_key(self):
        base = self.key()
        assert base == self.key(machine=rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=256))
        assert base == self.key(machine=rvv_gem5(vlen_bits=1024, lanes=2, l2_mb=1))
        assert base == self.key(
            machine=rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1).with_(dram_latency=999)
        )

    def test_stream_axes_change_the_key(self):
        base = self.key()
        assert base != self.key(machine=rvv_gem5(vlen_bits=2048, lanes=4, l2_mb=1))
        assert base != self.key(machine=sve_gem5(vlen_bits=1024, l2_mb=1))
        assert base != self.key(policy=KernelPolicy(gemm="6loop"))
        assert base != self.key(n_layers=4)
        assert base != self.key(net=small_net())

    def test_registry_and_spill(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        tracecache.clear_registry()
        net = small_net()
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        trace, cached = tracecache.get_or_capture(net, m, KernelPolicy(), None, spill=True)
        assert not cached
        _, cached = tracecache.get_or_capture(net, m, KernelPolicy(), None, spill=True)
        assert cached
        # A fresh registry (= another worker process) loads the spill.
        tracecache.clear_registry()
        key = tracecache.trace_key(net, m, KernelPolicy(), None)
        loaded = tracecache.get(key, spill=True)
        assert loaded is not None
        assert_bitwise(replay(trace, m), replay(loaded, m))
        tracecache.clear_registry()


class TestSweepIntegration:
    def test_sources_and_identity(self):
        tracecache.clear_registry()
        net = small_net()

        def factory(mb):
            return rvv_gem5(vlen_bits=512, lanes=4, l2_mb=mb)

        on = sweep_cache_sizes(net, [1, 4, 16], factory)
        off = sweep_cache_sizes(net, [1, 4, 16], factory, use_trace=False)
        assert on.sources == ["captured", "replayed", "replayed"]
        assert off.sources == ["direct", "direct", "direct"]
        for a, b in zip(on.stats, off.stats):
            assert_bitwise(a, b)
        assert [r["source"] for r in on.as_rows()] == on.sources

    def test_lane_sweep_replays(self):
        # Start cold: an earlier sweep of this net keeps its capture
        # registered, and this sweep would replay from it.
        tracecache.clear_registry()
        net = small_net()

        def factory(lanes):
            return rvv_gem5(vlen_bits=512, lanes=lanes, l2_mb=1)

        on = sweep_lanes(net, [2, 4, 8], factory)
        off = sweep_lanes(net, [2, 4, 8], factory, use_trace=False)
        assert on.sources == ["captured", "replayed", "replayed"]
        assert off.sources == ["direct", "direct", "direct"]
        for a, b in zip(on.stats, off.stats):
            assert_bitwise(a, b)

    def test_vl_sweep_replays_from_seeded_registry(self):
        """Each VL point is a singleton trace group: the first sweep
        captures (and prices by replay); a second sweep along the same
        axis replays every point without re-running kernels."""
        from repro.core import sweep_vector_lengths

        tracecache.clear_registry()
        net = small_net()
        vlens = [512, 1024, 2048]

        def factory(v):
            return rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1)

        first = sweep_vector_lengths(net, vlens, factory)
        second = sweep_vector_lengths(net, vlens, factory)
        off = sweep_vector_lengths(net, vlens, factory, use_trace=False)
        assert first.sources == ["captured"] * 3
        assert second.sources == ["replayed"] * 3
        assert off.sources == ["direct"] * 3
        for a, b, c in zip(first.stats, second.stats, off.stats):
            assert_bitwise(a, c)
            assert_bitwise(b, c)
        tracecache.clear_registry()

    def test_unreplayable_axis_raises_when_trace_forced(self):
        net = small_net()
        m0 = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        group = [m0, m0.with_(vpu=replace(m0.vpu, mem_port="L1"))]
        from repro.core.codesign import sweep

        with pytest.raises(ValueError, match="mem_port|vpu"):
            sweep(net, "port", ["L2", "L1"], lambda i: group[
                {"L2": 0, "L1": 1}[i]
            ], use_trace=True)
        # Default (auto) mode degrades to per-point simulation instead.
        res = sweep(
            net, "port", ["L2", "L1"],
            lambda i: group[{"L2": 0, "L1": 1}[i]],
        )
        assert res.sources == ["direct", "direct"]

    def test_pricing_error_raises_when_trace_forced(self, monkeypatch):
        """A replay bug must not hide behind the per-point fallback when
        the caller demanded replay; the default mode still degrades, and
        says so with a warning."""
        from repro.machine import replay as R

        def broken(*_args):
            raise RuntimeError("tier bug")

        monkeypatch.setattr(R, "_point_pass_vec", broken)
        tracecache.clear_registry()
        net = small_net()

        def factory(mb):
            return rvv_gem5(vlen_bits=512, lanes=4, l2_mb=mb)

        with pytest.raises(RuntimeError, match="tier bug"):
            sweep_cache_sizes(net, [1, 4], factory, use_trace=True)
        with pytest.warns(ReplayDegradedWarning, match="tier bug"):
            res = sweep_cache_sizes(net, [1, 4], factory)
        assert res.sources == ["direct", "direct"]
        off = sweep_cache_sizes(net, [1, 4], factory, use_trace=False)
        for a, b in zip(res.stats, off.stats):
            assert_bitwise(a, b)
        tracecache.clear_registry()

    def test_simcache_hits_win_over_replay(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path / "sc"))
        net = small_net()

        def factory(mb):
            return rvv_gem5(vlen_bits=512, lanes=4, l2_mb=mb)

        first = sweep_cache_sizes(net, [1, 4], factory, use_cache=True)
        second = sweep_cache_sizes(net, [1, 4], factory, use_cache=True)
        assert first.sources == ["captured", "replayed"]
        assert second.sources == ["cached", "cached"]
        for a, b in zip(first.stats, second.stats):
            assert_bitwise(a, b)

    def test_zero_cycle_speedups_guarded(self):
        res = SweepResult(axis_name="x", axis=[1, 2], stats=[SimStats(), SimStats()])
        assert res.speedups() == [1.0, 1.0]
        live = SweepResult(
            axis_name="x", axis=[1, 2], stats=[SimStats(cycles=10.0), SimStats()]
        )
        assert live.speedups() == [1.0, float("inf")]
        assert SweepResult(axis_name="x").speedups() == []
