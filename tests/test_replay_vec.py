"""Vectorized shared-pass engine: column identity vs the Python oracle.

``repro.machine.replay_vec._shared_pass_vec`` re-implements the
per-event reference loop (``replay._shared_pass_python``: a
``_GroupCapture`` driven by a recorded trace's rows) with columnar
NumPy passes over bounded row chunks and LRU kernels for the L1 and
VectorCache walk; the two share no walk code, tables or config.  Both
emit the shared-pass program as ``_Skeleton`` columns, and both refuse
a machine with a TLB, a hardware prefetcher or honoured software
prefetches (the a64fx preset), whose groups price per point.  The
contract is the same strict one the rest of the replay engine lives
under: every column
must be identical — tag-6 classes compared through their resolved
descriptors, since the engines number pricing classes differently —
the invariant stats hex-identical, and every design point priced to
``SimStats`` bitwise identical (``float.hex`` equal) — across presets,
kernel policies, a synthetic trace exercising every opcode, chunk
sizes small enough that every carried state crosses a chunk boundary,
and generated event streams.  These tests are the tripwire for any
drift between the engines.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.machine import a64fx, replay_vec, rvv_gem5, sve_gem5
from repro.machine.config import PrefetcherParams, TLBParams
from repro.machine.replay import (
    _run_points,
    _shared_pass,
    _shared_pass_python,
    group_mode,
)
from repro.machine.replay_vec import _shared_pass_vec
from repro.machine.simulator import SimStats
from repro.machine.trace import TraceRecorder
from repro.nets import ConvLayer, KernelPolicy, MaxPoolLayer, Network


def small_net():
    return Network(
        [ConvLayer(8, 3, 1), MaxPoolLayer(2, 2), ConvLayer(16, 3, 1)],
        input_shape=(4, 32, 32),
        name="small",
    )


def capture(machine, policy):
    rec = TraceRecorder(machine)
    small_net()._emit_trace(rec, policy, None, True)
    return rec.finish(key="vecchk")


def emit_synthetic(sim):
    """Drive every opcode the wire format can carry into *sim*."""
    a = sim.alloc("a", 1 << 20)
    b = sim.alloc("b", 1 << 20)
    with sim.kernel("k0"):  # no item yet: its label is numbered last
        sim.count_flops(1.0)
    with sim.kernel("k1"):
        sim.scalar(3)
        sim.scalar_load(a.base + 5, 4)
        sim.scalar_load(a.base + 5, 4)
        sim.scalar_store(a.base + 60, 8)  # straddles a line
        sim.scalar_load(a.base + 62, 128)  # multi-line
        sim.vload(a.base, 64, 4, 0)
        sim.vstore(b.base + 3, 33, 4, 4)
        sim.vload(b.base, 16, 4, 68)  # strided
        sim.vstore(a.base + 7, 9, 8, 136)  # strided, straddling
        sim.varith(64, 2, 2.0, 4)
        sim.varith(64, 2, 2.0, 4)
        sim.varith(16, 1, 1.0, 8)
        sim.vbroadcast(2)
        sim.vbroadcast(0)
        sim.count_flops(123.5)
        sim.sw_prefetch(a.base + 4096, 256, "L1")
        sim.sw_prefetch(b.base + 8192, 64, "L2")
        sim.spill(3)
    with sim.region(2.5):
        with sim.kernel("k2"):
            sim.hierarchy.note_resident_range(a.base, 4096)
            sim.vload(a.base + 100000, 128, 4, 0)
            sim.scalar(0)
            sim.spill(1)
            for i in sim.loop(40):
                sim.vload(a.base + 512 * i, 32, 4, 0)
                sim.varith(32, 1, 2.0, 4)
                sim.scalar_load(b.base + 64 * i, 4)
        with sim.kernel("k1"):  # revisit an existing label
            sim.vstore(b.base + 4096, 64, 4, 0)
            sim.scalar(2)
    with sim.kernel("k0"):
        sim.scalar(1)


def synthetic_trace(machine):
    """One trace touching every opcode the wire format can carry."""
    rec = TraceRecorder(machine)
    emit_synthetic(rec)
    return rec.finish(key="synth")


#: Skeleton columns compared byte for byte (dtype included).
ARRAYS = (
    "base", "kid", "cls_pos", "t6_at", "t6_cls", "ev_at", "ev_key",
    "ev_scalar", "ev_off", "addrs", "lines", "ft_pos",
)


def exact(x):
    """Type- and bit-exact fingerprint of a nested value."""
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, tuple(exact(v) for v in x))
    return (type(x).__name__, x)


def hexs(st: SimStats):
    fields = tuple(getattr(st, f).hex() for f in SimStats.FIELDS)
    kc = tuple(sorted((k, v.hex()) for k, v in st.kernel_cycles.items()))
    return fields, kc


def assert_same_program(ref, got, machine):
    """Two ``(skeleton, inv, gc)`` shared passes must be one program.

    Tag-6 keys ``(6, w, cid)`` are compared with ``cid`` resolved to its
    pricing-class descriptor: the engines intern classes in different
    orders, so ids may differ while the program stays the same.
    """
    (rs, rinv, rgc), (gs, ginv, ggc) = ref, got
    for name in ARRAYS:
        a, b = getattr(rs, name), getattr(gs, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert rs.labels == gs.labels
    assert exact(rs.ev_defs) == exact(gs.ev_defs)
    assert exact(rs.side) == exact(gs.side)

    def resolved(skel, gc):
        return exact([(w, gc["classes"][cid]) for _, w, cid in skel.t6_defs])

    assert resolved(rs, rgc) == resolved(gs, ggc)
    assert sorted(map(repr, rgc["classes"])) == sorted(map(repr, ggc["classes"]))
    for f in SimStats.FIELDS:
        assert getattr(rinv, f).hex() == getattr(ginv, f).hex(), f
    for k in rgc.keys() - {"classes"}:
        assert rgc[k] == ggc[k], k
    assert hexs(_run_points(*ref, [machine])[0]) == hexs(
        _run_points(*got, [machine])[0]
    )


MACHINES = [
    pytest.param(lambda: rvv_gem5(vlen_bits=1024, lanes=4), id="rvv"),
    pytest.param(lambda: sve_gem5(vlen_bits=512), id="sve"),
    pytest.param(lambda: a64fx(), id="a64fx"),
]
POLICIES = [
    pytest.param(KernelPolicy(), id="default"),
    pytest.param(KernelPolicy(gemm="6loop", winograd="all3x3"), id="wino"),
]


#: Pass chunk size small enough that every carried state — counter
#: folds, interning, cache residency, side-note positions — crosses a
#: chunk boundary many times.
SMALL_CHUNK = 7


def assert_declined(trace, m, feature="tlb, l1_prefetcher"):
    """A group of *m* does not replay, and neither engine walks it."""
    assert group_mode([m]) is None
    for engine in (_shared_pass_python, _shared_pass_vec, _shared_pass):
        with pytest.raises(ValueError, match=feature):
            engine(trace, m)


#: Each feature the shared pass does not model, on an otherwise
#: replayable rvv machine.
FEATURES = {
    "tlb": TLBParams(entries=48, page_bytes=4096, miss_penalty=40),
    "l1_prefetcher": PrefetcherParams(num_streams=8, degree=4, trigger=2),
    "l2_prefetcher": PrefetcherParams(num_streams=16, degree=8, trigger=2),
    "honors_sw_prefetch": True,
}


@pytest.mark.parametrize("feature", sorted(FEATURES))
def test_engines_refuse_each_feature(feature):
    """One feature is enough: both engines raise, naming it, before they
    walk anything; without it the same trace replays."""
    m = rvv_gem5(vlen_bits=1024, lanes=4)
    trace = synthetic_trace(m)
    assert_declined(trace, m.with_(**{feature: FEATURES[feature]}), feature)
    assert group_mode([m]) == "l2"


class TestEngineIdentity:
    """The vectorized pass emits exactly the oracle's program (a64fx:
    both decline it).

    ``chunked`` runs it over ``SMALL_CHUNK``-row chunks instead of the
    default ``_CHUNK_ROWS``."""

    @pytest.fixture(params=[False, True], ids=["False", "True"])
    def chunked(self, request, monkeypatch):
        if request.param:
            monkeypatch.setattr(replay_vec, "_CHUNK_ROWS", SMALL_CHUNK)
        return request.param

    @pytest.mark.parametrize("factory", MACHINES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_network_trace(self, chunked, factory, policy):
        m = factory()
        trace = capture(m, policy)
        if chunked:
            assert trace.n_events > 100 * SMALL_CHUNK
        if m.tlb:
            return assert_declined(trace, m)
        assert_same_program(
            _shared_pass_python(trace, m), _shared_pass_vec(trace, m), m
        )

    @pytest.mark.parametrize("factory", MACHINES)
    def test_synthetic_all_opcodes(self, chunked, factory):
        m = factory()
        trace = synthetic_trace(m)
        if m.tlb:
            return assert_declined(trace, m)
        got = _shared_pass_vec(trace, m)
        assert_same_program(_shared_pass_python(trace, m), got, m)
        # Every item kind is present: floats, L2 events of both kinds,
        # VPU-priced items and range notes.
        skel = got[0]
        assert len(skel.base) > len(skel.cls_pos) > 0
        assert skel.ev_scalar.any() and not skel.ev_scalar.all()
        assert len(skel.t6_at) and {it[0] for _, it in skel.side} == {2}

    def test_empty_trace(self, monkeypatch):
        m = rvv_gem5(vlen_bits=512)
        rec = TraceRecorder(m)
        trace = rec.finish(key="empty")
        ref = _shared_pass_python(trace, m)
        assert len(ref[0].base) == 0
        for rows in (replay_vec._CHUNK_ROWS, SMALL_CHUNK):
            monkeypatch.setattr(replay_vec, "_CHUNK_ROWS", rows)
            assert_same_program(ref, _shared_pass_vec(trace, m), m)


# ----------------------------------------------------------------------
# Generated memory-event streams
# ----------------------------------------------------------------------
#: Byte addresses over a few L1 sets, several tags each (the L1 has
#: 256 sets), so the L1 and VectorCache both evict and hit; below 4 GiB,
#: or past ``2**32`` (the skeleton's address column then widens from
#: ``u4`` to int64, possibly mid-pass).
addresses = st.builds(
    lambda hi, s, tag, off: hi + 4096 + (s + 256 * tag) * 64 + off,
    st.sampled_from([0, 1 << 32, (1 << 40) - (1 << 20)]),
    st.integers(0, 3), st.integers(0, 7), st.integers(0, 63),
)
#: Element strides: unit (0 or the element width), line-straddling,
#: and whole-set jumps.
STRIDES = [0, "ew", 12, 68, 136, 4096, 16384]

events = st.one_of(
    st.tuples(
        st.sampled_from(["scalar_load", "scalar_store"]), addresses,
        st.sampled_from([1, 4, 8, 60, 130]),
    ),
    st.tuples(
        st.sampled_from(["vload", "vstore"]), addresses, st.integers(1, 40),
        st.sampled_from([1, 2, 4, 8]), st.sampled_from(STRIDES),
    ),
    st.tuples(st.just("note"), addresses, st.integers(0, 8192)),
    st.tuples(st.just("scalar"), st.integers(0, 3)),
    st.tuples(st.just("spill"), st.integers(1, 2)),
)
#: Kernel-labelled groups of events, each at its own sampling weight.
streams = st.lists(
    st.tuples(
        st.sampled_from(["k0", "k1", "k2"]), st.sampled_from([1.0, 2.5, 0.75]),
        st.lists(events, max_size=25),
    ),
    min_size=1, max_size=4,
)
VC_BYTES = [64, 128, 256, 512, 1024, 2048, 4096]


def drive(rec, stream):
    for label, weight, evs in stream:
        with rec.kernel(label), rec.region(weight):
            for kind, *args in evs:
                if kind == "note":
                    rec.hierarchy.note_resident_range(*args)
                elif kind in ("vload", "vstore"):
                    addr, n, ew, stride = args
                    stride = ew if stride == "ew" else stride
                    getattr(rec, kind)(addr, n, ew, stride)
                else:
                    getattr(rec, kind)(*args)


#: Two range notes between accesses that reach the L2, in one chunk.
NOTES = [("k0", 1.0, [
    ("vload", 4096, 16, 4, 0), ("note", 4096, 100), ("vload", 8192, 16, 4, 0),
    ("note", 8192, 64), ("scalar_load", 12288, 4),
])]


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.sampled_from(["rvv", "sve"]), st.sampled_from(VC_BYTES), streams,
    st.sampled_from([1, 3, SMALL_CHUNK, None]),
)
@example("rvv", 2048, NOTES, None)
@example("sve", 2048, NOTES, None)
def test_generated_streams_match_oracle(family, vc_bytes, stream, rows):
    """Loads and stores (unit, strided, line-straddling), scalar
    accesses and range notes, recorded on rvv with a VectorCache of
    64 B to 4 KB, or on sve (L1 port), in chunks of a few rows or of
    the default size: the vectorized program is the oracle's."""
    if family == "rvv":
        m = rvv_gem5(vlen_bits=512, lanes=4)
        m = m.with_(vpu=replace(m.vpu, vector_cache_bytes=vc_bytes))
    else:
        m = sve_gem5(vlen_bits=512)
    rec = TraceRecorder(m)
    drive(rec, stream)
    trace = rec.finish(key="generated")
    ref = _shared_pass_python(trace, m)
    with mock.patch.object(
        replay_vec, "_CHUNK_ROWS", rows or replay_vec._CHUNK_ROWS
    ):
        got = _shared_pass_vec(trace, m)
    assert_same_program(ref, got, m)


class TestEngineDispatch:
    def test_dispatch_is_bitwise_equivalent(self):
        """``_shared_pass`` runs the vectorized engine: the oracle's
        program, priced identically."""
        m = rvv_gem5(vlen_bits=1024, lanes=4)
        trace = capture(m, KernelPolicy())
        assert_same_program(_shared_pass_python(trace, m), _shared_pass(trace, m), m)
