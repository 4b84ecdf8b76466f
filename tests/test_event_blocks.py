"""Event blocks: ``events(op, i0, i1, i2, i3, f0)`` on both consumers.

A kernel may hand a whole block of rows to the simulator or the
recorder instead of one call per event.  These tests hold the block path
to the per-event one: the 3-loop GEMM's panel blocks against its
per-event loop (kept here, verbatim, as the reference), a hand-built
block of every opcode against the same calls made one by one, and a
fresh recording against the committed reference trace.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tracecache
from repro.kernels import trace_gemm_3loop
from repro.machine import a64fx, rvv_gem5, sve_gem5
from repro.machine import trace as trace_mod
from repro.machine.simulator import SimStats, TraceSimulator
from repro.machine.trace import EventBlock, RecordedTrace, TraceRecorder
from repro.nets import KernelPolicy
from repro.nets.zoo import yolov3_tiny

RTZ = os.path.join(os.path.dirname(__file__), "data", "traces", "yolov3_tiny_rvv_v512.rtz")


def per_event_gemm_3loop(
    sim, M, N, K, a_base, b_base, c_base, unroll=16, alpha_is_one=True,
    jb_sample=6, ig_sample=4,
):
    """The 3-loop GEMM's trace as one event call per event: the
    reference the block kernel must reproduce row for row."""
    vl = sim.machine.vlen_f32
    line_elems = sim.machine.l1.line_bytes // 4
    spilled = max(0, unroll + 3 - 32)  # accumulators + vb/vaalpha/tmp
    n_jblocks = -(-N // vl)
    n_igroups = -(-M // unroll)
    with sim.kernel("gemm"):
        # The weight matrix is re-streamed every j-block; re-reads hit
        # iff it fits in the L2 (capacity, not line, question).
        sim.hierarchy.note_resident_range(a_base, M * K * 4)
        for jb in sim.loop(n_jblocks, warmup=2, sample=jb_sample):
            j = jb * vl
            gvl = min(vl, N - j)
            sim.scalar(4)  # vsetvl + j-loop bookkeeping
            for ig in sim.loop(n_igroups, warmup=1, sample=ig_sample):
                i = ig * unroll
                u = min(unroll, M - i)
                sim.scalar(3)
                for r in range(u):  # load C accumulators
                    sim.vload(c_base + ((i + r) * N + j) * 4, gvl)
                for k in range(K):
                    sim.vload(b_base + (k * N + j) * 4, gvl)
                    if k % line_elems == 0:
                        # Scalar A operands stream at 4-byte stride: one
                        # new line per row every line_elems iterations.
                        for r in range(u):
                            sim.scalar_load(a_base + ((i + r) * K + k) * 4)
                    # u vector-scalar FMAs (broadcast folded, Fig. 2).
                    sim.varith(gvl, u)
                    sim.scalar(2 if alpha_is_one else 3)
                    if spilled:
                        sim.spill(spilled)
                for r in range(u):  # store C accumulators
                    sim.vstore(c_base + ((i + r) * N + j) * 4, gvl)


def assert_stats_equal(a: SimStats, b: SimStats) -> None:
    for name in SimStats.FIELDS:
        assert getattr(a, name).hex() == getattr(b, name).hex(), name
    assert {k: v.hex() for k, v in a.kernel_cycles.items()} == {
        k: v.hex() for k, v in b.kernel_cycles.items()
    }


def assert_traces_equal(a: RecordedTrace, b: RecordedTrace) -> None:
    for (name, dt), x, y in zip(RecordedTrace._COLUMNS, a._columns(), b._columns()):
        assert x.dtype == y.dtype == dt, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert a.labels == b.labels
    assert a.content_digest() == b.content_digest()


def run_gemm(consumer, kernel, M, N, K, **kw):
    a = consumer.alloc("A", M * K * 4)
    b = consumer.alloc("B", K * N * 4)
    c = consumer.alloc("C", M * N * 4)
    # Some per-event rows around the kernel, as a network run has.
    consumer.scalar(5)
    kernel(consumer, M, N, K, a.base, b.base, c.base, **kw)
    consumer.vload(c.base, 3)
    return consumer


MACHINES = {
    "rvv512": lambda: rvv_gem5(512),
    "rvv8192": lambda: rvv_gem5(8192),
    "sve512": lambda: sve_gem5(512),
    "sve2048": lambda: sve_gem5(2048),
    "a64fx": a64fx,
}


class TestGemmBlocks:
    @given(
        machine=st.sampled_from(sorted(MACHINES)),
        M=st.integers(1, 80),
        N=st.integers(1, 700),
        K=st.integers(1, 150),
        unroll=st.sampled_from([4, 16, 32]),
        alpha_is_one=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocks_match_per_event_loop(self, machine, M, N, K, unroll, alpha_is_one):
        """The block kernel records the per-event loop's rows, column
        for column, and prices to hex-equal stats, for any shape
        (partial vector and line tails, sampled or full loops), unroll
        (32 spills) and alpha."""
        m = MACHINES[machine]()
        kw = dict(unroll=unroll, alpha_is_one=alpha_is_one)
        want = run_gemm(TraceRecorder(m), per_event_gemm_3loop, M, N, K, **kw)
        got = run_gemm(TraceRecorder(m), trace_gemm_3loop, M, N, K, **kw)
        assert_traces_equal(want.finish(), got.finish())
        want = run_gemm(TraceSimulator(m), per_event_gemm_3loop, M, N, K, **kw)
        got = run_gemm(TraceSimulator(m), trace_gemm_3loop, M, N, K, **kw)
        assert_stats_equal(want.stats, got.stats)


#: One call of every event method, every opcode at least once: unit-
#: stride and strided loads and stores, both prefetch levels, and
#: repeats that hit what earlier rows brought in.
A, B, C = 1 << 16, 1 << 20, 1 << 24
CALLS = [
    ("note_resident_range", (A, 8192)),
    ("scalar", (3,)),
    ("scalar_load", (A + 64, 4)),
    ("scalar_store", (A + 128, 8)),
    ("vload", (B, 16)),
    ("vload", (B + 4096, 8, 4, 256)),
    ("vgather", (B + 65536, 8, 4096)),
    ("vstore", (C, 16)),
    ("vstore", (C + 1024, 8, 4, 512)),
    ("varith", (16, 4)),
    ("varith", (7, 2, 1.0, 8)),
    ("vbroadcast", (2,)),
    ("sw_prefetch", (B + 8192, 256, "L1")),
    ("sw_prefetch", (B + 16384, 512, "L2")),
    ("count_flops", (123.5,)),
    ("spill", (2,)),
    ("scalar_load", (A + 64, 4)),
    ("vload", (B + 8192, 16)),
    ("vload", (B + 16384, 16)),
    ("scalar_store", (B, 4)),
    ("vload", (B, 16, 4, 4)),
]


def issue(consumer, calls):
    for name, args in calls:
        target = consumer.hierarchy if name == "note_resident_range" else consumer
        getattr(target, name)(*args)


@pytest.fixture(params=["rvv", "sve", "a64fx"])
def machine(request):
    return {"rvv": rvv_gem5(1024), "sve": sve_gem5(512), "a64fx": a64fx()}[request.param]


def every_opcode_block(m):
    """The block of :data:`CALLS`: the columns their per-event log holds."""
    rec = TraceRecorder(m)
    issue(rec, CALLS)
    t = rec.finish()
    assert sorted(set(t.op.tolist())) == list(range(11))
    return t.op, t.i0, t.i1, t.i2, t.i3, t.f0


class TestEveryOpcode:
    def test_simulator_block_matches_calls(self, machine):
        """``TraceSimulator.events`` prices a block of every opcode,
        TLB, prefetchers and honoured prefetches included (a64fx), to
        the stats of the same calls made one by one."""
        block = every_opcode_block(machine)
        one_by_one, as_block = TraceSimulator(machine), TraceSimulator(machine)
        for sim in (one_by_one, as_block):
            sim.scalar(1)
            with sim.kernel("k"), sim.region(0.75):
                if sim is one_by_one:
                    issue(sim, CALLS)
                else:
                    sim.events(*block)
            sim.vload(B, 16)
        assert_stats_equal(one_by_one.stats, as_block.stats)

    @pytest.mark.parametrize("chunk_rows", [7, None])
    def test_recorder_block_matches_calls(self, machine, monkeypatch, chunk_rows):
        """``TraceRecorder.events`` logs a block's rows where the calls
        would have, at the current weight and label, between pending
        per-event rows; with 7-row chunks the blocks straddle chunk
        boundaries and every closed chunk still holds 7 rows."""
        if chunk_rows:
            monkeypatch.setattr(trace_mod, "_CHUNK_ROWS", chunk_rows)
        block = every_opcode_block(machine)
        one_by_one, as_block = TraceRecorder(machine), TraceRecorder(machine)
        for rec in (one_by_one, as_block):
            rec.scalar(1)
            for w in (0.75, 2.0):
                with rec.kernel(f"k{w}"), rec.region(w):
                    if rec is one_by_one:
                        issue(rec, CALLS)
                    else:
                        rec.events(*block)
                rec.vload(B, 16)
        assert {len(c[0]) for c in as_block._chunks} <= {trace_mod._CHUNK_ROWS}
        assert_traces_equal(one_by_one.finish(), as_block.finish())

    def test_block_refuses_dropped_rows(self):
        """A zero-element vector access or zero-count ``varith`` is no
        event, so a positional block cannot hold one."""
        block = EventBlock(2)
        for bad in (
            lambda: block.vload(0, 64, 0),
            lambda: block.vstore([0, 1], 64, np.array([4, 0])),
            lambda: block.varith(0, 0, 4),
            lambda: block.varith(0, 16, 0),
        ):
            with pytest.raises(ValueError, match="positive"):
                bad()


def test_fresh_recording_equals_committed_trace():
    """Recording the committed trace's recipe today gives its content:
    the same key alone would not catch a kernel that records different
    events."""
    net, policy = yolov3_tiny(), KernelPolicy()
    m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
    header = tracecache.read_header(RTZ)
    assert header["key"] == tracecache.trace_key(net, m, policy, 12)
    fresh = net.record_trace(m, policy, n_layers=12)
    assert fresh.n_events == header["n_events"]
    assert fresh.content_digest() == header["sha256"]
