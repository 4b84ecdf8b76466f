"""Generated design points: every replay tier prices exactly like ``replay``.

``replay_sweep`` prices each machine of a group from one tier — a
conflict-free tier per L2 byte budget (its residency ranges trimming or
not), or a walk tier per L2 geometry that walks only the overcommitted
sets when nothing but the demand stream fills the L2, and every line
otherwise.  Which tier a point lands on depends on the drawn L2, so
hypothesis draws legal groups (L2 size and ways, DRAM latency, lane
count, optionally an L2 stream prefetcher) over one small captured
trace per ISA family and checks every ``SimStats`` field bit for bit
against :func:`repro.machine.replay.replay` — the per-event oracle.
The pinned examples reach every tier kind; the a64fx family adds an L2
prefetcher and honoured software prefetches.
"""

import functools
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine import a64fx, rvv_gem5
from repro.machine.config import CacheParams, PrefetcherParams
from repro.machine.replay import (
    _GroupCapture,
    _tier_for,
    replay,
    replay_sweep,
)
from repro.machine.simulator import SimStats
from repro.nets import KernelPolicy
from repro.nets.zoo import yolov3_tiny

KB = 1024
N_LAYERS = 2
POLICY = KernelPolicy(gemm="6loop")
BASES = {
    "rvv": rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1),
    "a64fx": a64fx(),
}
L2_KB = [64, 128, 256, 512, 1024, 4096, 65536]
WAYS = [1, 2, 4, 8, 16]
STREAM = PrefetcherParams(num_streams=8, degree=4, trigger=2)


def hexs(st_: SimStats):
    fields = tuple(getattr(st_, f).hex() for f in SimStats.FIELDS)
    kc = tuple(sorted((k, v.hex()) for k, v in st_.kernel_cycles.items()))
    return fields, kc


@functools.lru_cache(maxsize=None)
def captured(family: str):
    """The family's trace and its shared-pass skeleton (built once)."""
    net = yolov3_tiny()
    base = BASES[family]
    trace = net.record_trace(
        base, POLICY, n_layers=N_LAYERS, key=f"tier-identity-{family}"
    )
    cap = _GroupCapture(base)
    net._emit_trace(cap, POLICY, N_LAYERS, True)
    skel, _inv, gc = cap.finish()
    return trace, skel, gc


def machine(family, l2_kb, ways, dram, lanes, stream):
    base = BASES[family]
    m = base.with_(
        l2=CacheParams(l2_kb * KB, ways, base.l2.line_bytes, base.l2.latency),
        dram_latency=dram,
        vpu=replace(base.vpu, lanes=lanes),
    )
    return m.with_(l2_prefetcher=STREAM) if stream else m


def tier_kind(family, m) -> str:
    _trace, skel, gc = captured(family)
    # The shared pass of m's own group records whether it has an L2
    # prefetcher; the family's base has none unless it is a64fx.
    gc = dict(gc, pf2_cfg=gc["pf2_cfg"] or bool(m.l2_prefetcher))
    tier = _tier_for(skel, gc, m)
    if tier["kind"] == "fast":
        return "fast" if tier["desc"] == "fast:None" else "fast-trim"
    return "walk-hot" if not (gc["has_fills"] or gc["pf2_cfg"]) else "walk"


points = st.tuples(
    st.sampled_from(L2_KB),
    st.sampled_from(WAYS),
    st.integers(50, 400),
    st.sampled_from([1, 2, 4, 8]),
)
groups = st.tuples(
    st.sampled_from(sorted(BASES)),
    st.booleans(),
    st.lists(points, min_size=1, max_size=3),
)

#: One pinned group per tier kind (asserted by test_examples_reach...).
PINNED = {
    "fast": ("rvv", False, [(65536, 16, 200, 4)]),
    "fast-trim": ("rvv", False, [(256, 16, 120, 2), (512, 16, 300, 8)]),
    "walk-hot": ("rvv", False, [(64, 4, 200, 4), (128, 1, 90, 1)]),
    "walk": ("rvv", True, [(1024, 8, 200, 4), (64, 2, 350, 8)]),
    "a64fx": ("a64fx", False, [(8192, 16, 200, 8), (256, 4, 80, 2)]),
}


def group_machines(family, stream, pts):
    # The L2 prefetcher only varies per group: a group must share every
    # field but the L2, DRAM and VPU pricing ones.
    return [machine(family, *p, stream) for p in pts]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(groups)
@example(PINNED["fast"])
@example(PINNED["fast-trim"])
@example(PINNED["walk-hot"])
@example(PINNED["walk"])
@example(PINNED["a64fx"])
def test_replay_sweep_matches_replay(group):
    family, stream, pts = group
    trace, _skel, _gc = captured(family)
    machines = group_machines(family, stream, pts)
    priced = replay_sweep(trace, machines)
    assert priced is not None
    for m, got in zip(machines, priced):
        assert hexs(got) == hexs(replay(trace, m)), m.name


def test_examples_reach_every_tier_kind():
    kinds = {}
    for name, (family, stream, pts) in PINNED.items():
        machines = group_machines(family, stream, pts)
        kinds[name] = {tier_kind(family, m) for m in machines}
    assert "fast" in kinds["fast"]
    assert "fast-trim" in kinds["fast-trim"]
    assert "walk-hot" in kinds["walk-hot"]
    assert kinds["walk"] == {"walk"}
    _trace, _skel, gc = captured("a64fx")
    assert gc["pf2_cfg"] and kinds["a64fx"] == {"walk"}
