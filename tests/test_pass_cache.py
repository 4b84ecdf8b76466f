"""Persistent compiled-pass cache: exact codecs, staleness, warm sweeps.

The ``.rpp`` (shared pass) and ``.rvp`` (compiled point-pass tier)
containers exist so a warm re-run of a figure sweep skips the event
walk entirely.  Correctness is the same bitwise bar as the rest of the
replay engine: everything that crosses the wire must round-trip
type-exactly (``float.hex`` equal, ints as ints, bools as bools), a
digest mismatch must read as a miss (never a wrong answer), corruption
must quarantine, and a warm sweep must price bitwise identically to
its cold capture run — serial and parallel, spill on or off.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tracecache as tc
from repro.core.codesign import sweep_cache_sizes, sweep_lanes, sweep_vector_lengths
from repro.machine import rvv_gem5
from repro.machine.replay import (
    _INVARIANT_FIELDS,
    _compile_fast,
    _run_points,
    _shared_pass,
    _skeleton,
    replay_sweep,
    replay_sweep_cached,
)
from repro.machine.simulator import SimStats
from repro.machine.trace import TraceRecorder
from repro.nets import ConvLayer, KernelPolicy, MaxPoolLayer, Network
from repro.nets.zoo import yolov3_tiny

COMPAT = {"isa_name": "rvv1.0", "vlen_bits": 512, "l1_line_bytes": 64}


def small_net():
    return Network(
        [ConvLayer(8, 3, 1), MaxPoolLayer(2, 2), ConvLayer(16, 3, 1)],
        input_shape=(4, 32, 32),
        name="small",
    )


def eq_item(x, y):
    """Type-exact equality: float bits, tuple shape, int/bool identity."""
    if type(x) is float:
        return type(y) is float and x.hex() == y.hex()
    if not (isinstance(x, tuple) and isinstance(y, tuple)):
        return type(x) is type(y) and x == y
    return len(x) == len(y) and all(eq_item(a, b) for a, b in zip(x, y))


def hexs(stats: SimStats):
    fields = tuple(getattr(stats, f).hex() for f in SimStats.FIELDS)
    kc = tuple(sorted((k, v.hex()) for k, v in stats.kernel_cycles.items()))
    return fields, kc


# ----------------------------------------------------------------------
# Property-based codec round-trip over the full prog-item grammar
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False)
posint = st.integers(min_value=0, max_value=2**40)
addrs = st.lists(posint, min_size=0, max_size=4).map(tuple)

item = st.one_of(
    finite,
    st.tuples(st.just(1), st.text(max_size=6)),
    st.tuples(st.just(2), posint, posint),
    st.builds(
        lambda w, a, lat, occ, nb, nl, wr, un, iid, nh, ft:
            (3, w, a, lat, occ, nb, nl, wr, un, iid, nh, ft),
        finite, addrs, posint, finite, posint,
        st.integers(min_value=0, max_value=64), st.booleans(), st.booleans(),
        posint, st.integers(min_value=0, max_value=64), addrs,
    ),
    st.builds(
        lambda w, a, lat, occ, wr, nh, ft: (4, w, a, lat, occ, wr, nh, ft),
        finite, addrs, posint, finite, st.booleans(),
        st.integers(min_value=0, max_value=64), addrs,
    ),
    st.tuples(st.just(5), addrs),
    st.tuples(st.just(6), finite, st.integers(min_value=0, max_value=7)),
)

CLASSES = [
    ("a", 64, 2, 4),
    ("b", 3),
    ("m", 12, 0.5, 256, 4, True, False),
    ("m", 40, 1.25, 64, 1, False, True),
]


def make_gc(distinct):
    return {
        "vpu": None,
        "port_l1": True,
        "l1_lat": 4,
        "ooo_hide": 0.5,
        "scalar_cpi": 1.0,
        "l2_shift": 6,
        "distinct": set(distinct),
        "max_range_total": 1 << 20,
        "has_fills": False,
        "pf2_cfg": False,
        "classes": list(CLASSES),
    }


class TestCodecRoundTrip:
    @given(st.lists(item, max_size=40), st.lists(posint, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_pass_roundtrip_any_program(self, prog, distinct):
        gc = make_gc(distinct)
        inv = {f: float(i) * 1.5 for i, f in enumerate(_INVARIANT_FIELDS)}
        blob = tc.encode_pass(
            prog, inv, gc, key="k", sig="s" * 12, defer=True,
            trace_sha256="t" * 64, compat=COMPAT,
        )
        header, prog2, inv2, gc2 = tc.decode_pass(blob)
        assert len(prog) == len(prog2)
        for x, y in zip(prog, prog2):
            assert eq_item(x, y), (x, y)
        for f in _INVARIANT_FIELDS:
            assert inv[f].hex() == inv2[f].hex()
        assert gc2["vpu"] is None
        assert gc2["distinct"] == gc["distinct"]
        for a, b in zip(gc["classes"], gc2["classes"]):
            assert eq_item(a, b)
        assert header["trace_sha256"] == "t" * 64
        assert header["compat"] == COMPAT

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="tag"):
            tc.encode_pass(
                [(9, 1.0)], {}, make_gc([]), key="k", sig="s", defer=False,
                trace_sha256="t" * 64, compat=COMPAT,
            )

    def test_non_integral_operand_raises(self):
        # A half-integer byte count must refuse to encode, not silently
        # truncate through an int64 column.
        with pytest.raises(ValueError):
            tc.encode_pass(
                [(2, 100, 2.5)], {}, make_gc([]), key="k", sig="s",
                defer=False, trace_sha256="t" * 64, compat=COMPAT,
            )

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda b: b"XXXX" + b[4:], id="bad-magic"),
        pytest.param(lambda b: b[:-3], id="truncated"),
        pytest.param(lambda b: b + b"\0\0", id="trailing"),
        pytest.param(
            lambda b: b[:-5] + bytes([b[-5] ^ 0xFF]) + b[-4:], id="bitflip"
        ),
    ])
    def test_corruption_raises(self, mutate):
        blob = tc.encode_pass(
            [1.0, (2, 64, 128), (6, 2.0, 1)], {"flops": 1.0}, make_gc([1, 2]),
            key="k", sig="s" * 12, defer=True, trace_sha256="t" * 64,
            compat=COMPAT,
        )
        with pytest.raises(ValueError):
            tc.decode_pass(mutate(blob))


# ----------------------------------------------------------------------
# Store/load against a real shared pass
# ----------------------------------------------------------------------
@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_TRACE_SPILL", "1")
    monkeypatch.setenv("REPRO_PASS_CACHE", "1")
    tc.clear_registry()
    from repro.machine import replay

    replay._SHARED_PASS_MEMO.clear()
    yield tmp_path
    tc.clear_registry()
    replay._SHARED_PASS_MEMO.clear()


def shared_pass_fixture():
    m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
    rec = TraceRecorder(m)
    small_net()._emit_trace(rec, KernelPolicy(), None, True)
    trace = rec.finish(key="passchk")
    prog, inv, gc = _shared_pass(trace, m, defer_vpu=True)
    inv_fields = {f: getattr(inv, f) for f in _INVARIANT_FIELDS}
    return m, trace, prog, inv_fields, gc


class TestStoreLoad:
    def test_roundtrip_and_digest_staleness(self, cache_dir):
        m, trace, prog, inv_fields, gc = shared_pass_fixture()
        digest = trace.content_digest()
        assert tc.store_pass(
            prog, inv_fields, gc, key="k1", sig="s" * 12, defer=True,
            trace_sha256=digest, compat=COMPAT,
        )
        out = tc.load_pass("k1", "s" * 12, digest)
        assert out is not None
        _, prog2, inv2, gc2 = out
        for x, y in zip(prog, prog2):
            assert eq_item(x, y)
        for f in _INVARIANT_FIELDS:
            assert inv_fields[f].hex() == inv2[f].hex()
        # A different trace digest is a stale derivative: miss, and the
        # file survives (the next store overwrites it).
        assert tc.load_pass("k1", "s" * 12, "f" * 64) is None
        assert os.path.exists(tc._pass_path("k1", "s" * 12))

    def test_corrupt_pass_is_quarantined(self, cache_dir):
        m, trace, prog, inv_fields, gc = shared_pass_fixture()
        digest = trace.content_digest()
        tc.store_pass(
            prog, inv_fields, gc, key="k2", sig="s" * 12, defer=True,
            trace_sha256=digest, compat=COMPAT,
        )
        path = tc._pass_path("k2", "s" * 12)
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert tc.load_pass("k2", "s" * 12, digest) is None
        assert not os.path.exists(path)  # moved aside, never served twice
        qdir = os.path.join(str(cache_dir), "quarantine")
        assert os.path.isdir(qdir) and os.listdir(qdir)

    def test_vecprog_roundtrip(self, cache_dir):
        m, trace, prog, inv_fields, gc = shared_pass_fixture()
        digest = trace.content_digest()
        cols = _compile_fast(_skeleton(prog, gc), gc)
        cols_dict = {s: getattr(cols, s) for s in cols.__slots__}
        tier = {"kind": "fast", "token": "f" * 12, "desc": "fast:None",
                "fps": ["fp1"]}
        assert tc.store_vecprog(
            cols_dict, inv_fields, gc, key="k3", sig="s" * 12, tier=tier,
            trace_sha256=digest, compat=COMPAT,
        )
        out = tc.load_vecprog("k3", "s" * 12, "f" * 12, digest)
        assert out is not None
        header, cols2, inv2, gcp = out
        assert header["tier"]["fps"] == ["fp1"]
        assert (cols2["base"] == cols.base).all()
        assert cols2["labels"] == cols.labels
        for a, b in zip(cols.cls_defs, cols2["cls_defs"]):
            assert eq_item(a, b)
        assert {"l1_lat", "ooo_hide", "scalar_cpi", "classes"} <= set(gcp)
        assert tc.load_vecprog("k3", "s" * 12, "f" * 12, "f" * 64) is None


# ----------------------------------------------------------------------
# Memo keying on trace content, not just the registry key
# ----------------------------------------------------------------------
class TestMemoDigestKeying:
    def test_recaptured_trace_never_served_stale(self, cache_dir):
        """Two different event streams under one key must price as
        themselves — the memo keys on the content digest, so a
        re-captured (changed) trace cannot inherit the old pass."""
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)

        def record(net):
            rec = TraceRecorder(m)
            net._emit_trace(rec, KernelPolicy(), None, True)
            return rec.finish(key="samekey")

        net_a = small_net()
        net_b = Network(
            [ConvLayer(8, 3, 1), ConvLayer(8, 1, 1)],
            input_shape=(4, 32, 32),
            name="other",
        )
        tr_a, tr_b = record(net_a), record(net_b)
        assert tr_a.content_digest() != tr_b.content_digest()
        got_a = replay_sweep(tr_a, [m])[0]
        got_b = replay_sweep(tr_b, [m])[0]
        want_a = _run_points(*_shared_pass(tr_a, m, defer_vpu=True), [m])[0]
        want_b = _run_points(*_shared_pass(tr_b, m, defer_vpu=True), [m])[0]
        assert hexs(got_a) == hexs(want_a)
        assert hexs(got_b) == hexs(want_b)
        assert hexs(got_a) != hexs(got_b)


# ----------------------------------------------------------------------
# Warm figure sweeps: bitwise identity, serial and parallel
# ----------------------------------------------------------------------
VLENS = [256, 512, 1024]


def run_vl_sweep(jobs=1):
    return sweep_vector_lengths(
        small_net(), VLENS,
        lambda v: rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1),
        jobs=jobs, use_cache=False,
    )


def reset_process_state():
    from repro.machine import replay

    tc.clear_registry()
    replay._SHARED_PASS_MEMO.clear()


class TestWarmSweeps:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_vl_sweep_bitwise_spill_on(self, cache_dir, jobs):
        cold = run_vl_sweep()
        reset_process_state()
        tc.reset_load_counts()
        warm = run_vl_sweep(jobs=jobs)
        for a, b in zip(cold.stats, warm.stats):
            assert hexs(a) == hexs(b)
        if jobs == 1:
            assert warm.sources == ["replayed"] * len(VLENS)
            counts = tc.load_counts()
            hits = (counts["vecprog"] + counts["pass_spill"]
                    + counts["pass_shm"])
            assert hits >= len(VLENS)
            # The whole warm sweep ran without one trace-column decode.
            assert counts["shm"] == 0 and counts["spill"] == 0

    def test_warm_vl_sweep_bitwise_spill_off(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", "0")
        monkeypatch.delenv("REPRO_PASS_CACHE", raising=False)
        reset_process_state()
        assert not tc.pass_cache_enabled()  # defaults to spill_enabled()
        cold = run_vl_sweep()
        warm = run_vl_sweep()  # in-process registry + memo only
        for a, b in zip(cold.stats, warm.stats):
            assert hexs(a) == hexs(b)
        assert not any(
            f.endswith((tc.PASS_SUFFIX, tc.VECPROG_SUFFIX))
            for f in os.listdir(tmp_path)
        )
        reset_process_state()

    def test_warm_pricing_axes_decode_tiers_only(self, cache_dir):
        """A cold L2 sweep and lanes sweep on one key leave one tier per
        point; warm re-runs price every point from those tiers alone —
        no trace decode, no .rpp, one .rvp load per distinct tier."""
        # 1 MB walks its hot sets, 2 and 4 MB trim their ranges, 64 MB
        # never trims: four distinct tiers.
        net = yolov3_tiny()
        mbs = [1, 2, 4, 64]
        lanes = [2, 4, 8]

        def l2_sweep():
            return sweep_cache_sizes(
                net, mbs, lambda mb: rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb),
                n_layers=6, use_cache=False,
            )

        def lane_sweep():
            return sweep_lanes(
                net, lanes, lambda n: rvv_gem5(vlen_bits=1024, lanes=n, l2_mb=1),
                n_layers=6, use_cache=False,
            )

        cold = (l2_sweep(), lane_sweep())
        assert cold[0].sources == ["captured"] + ["replayed"] * (len(mbs) - 1)
        assert cold[1].sources == ["replayed"] * len(lanes)
        names = os.listdir(cache_dir)
        assert not any(n.endswith(tc.PASS_SUFFIX) for n in names)
        tiers = [n for n in names if n.endswith(tc.VECPROG_SUFFIX)]
        assert len(tiers) == len(mbs)
        reset_process_state()
        tc.reset_load_counts()
        warm_l2 = l2_sweep()
        counts = tc.load_counts()
        assert counts["vecprog"] == len(tiers)
        tc.reset_load_counts()
        warm_lanes = lane_sweep()
        lane_counts = tc.load_counts()
        assert lane_counts["vecprog"] == 1  # the 1 MB point's tier
        for c in (counts, lane_counts):
            assert c["spill"] == 0 and c["shm"] == 0
            assert c["pass_spill"] == 0 and c["pass_shm"] == 0
        for res, warm in zip(cold, (warm_l2, warm_lanes)):
            assert warm.sources == ["replayed"] * len(res.axis)
            for a, b in zip(res.stats, warm.stats):
                assert hexs(a) == hexs(b)

    def test_cached_entry_miss_returns_none(self, cache_dir):
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        assert replay_sweep_cached("nonexistent-key", [m]) is None


# ----------------------------------------------------------------------
# CLI gc prunes compiled passes orphaned by a vanished trace
# ----------------------------------------------------------------------
class TestCliGc:
    def test_gc_prunes_orphans_keeps_live(self, cache_dir, capsys):
        from repro.cli import main

        run_vl_sweep()
        reset_process_state()
        names = os.listdir(cache_dir)
        traces = sorted(n for n in names if n.endswith(tc.SPILL_SUFFIX))
        assert len(traces) == len(VLENS)
        # A fused capture leaves its trace and one tier per point, no .rpp.
        assert not any(n.endswith(tc.PASS_SUFFIX) for n in names)
        # Orphan one key's compiled passes by removing its trace.
        victim = traces[0][: -len(tc.SPILL_SUFFIX)]
        os.remove(os.path.join(str(cache_dir), traces[0]))
        assert main(["trace-cache", "gc"]) == 0
        capsys.readouterr()
        left = os.listdir(cache_dir)
        assert not any(n.startswith(victim) for n in left)
        for t in traces[1:]:
            survivor = t[: -len(tc.SPILL_SUFFIX)]
            kinds = {n.rsplit(".", 1)[1] for n in left
                     if n.startswith(survivor)}
            assert kinds == {"rtz", "rvp"}
        # The survivors still serve a warm sweep, bitwise.
        warm = run_vl_sweep()
        assert warm.sources.count("replayed") >= len(VLENS) - 1
