"""Narrow skeleton columns: widths follow the data, arithmetic never wraps.

The shared-pass program (``replay._Skeleton``) stores every integer
column at the narrowest unsigned width that holds its largest value —
``u1``, ``u2`` or ``u4``, and ``int64`` past ``2**32 - 1``.  NumPy 2 keeps
an operation between a narrow array and a Python int at the array's
width (wrapping, or raising when the int does not fit), so every reader
that multiplies, offsets or reduces modulo must widen first, and an
unsigned LRU stack cannot mark an empty way with ``-1``.  These tests
put values on both sides of ``2**8``, ``2**16`` and ``2**32`` through
``_SkeletonBuilder.build``, ``_intern`` and ``_lru_hits``, price a trace
whose buffers sit above 4 GiB through every tier, and bound the memory
of the skeleton and of the walk tier on the committed yolov3-tiny trace
(tracemalloc sees NumPy's buffers, so the bounds are deterministic).
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core import tracecache as tc
from repro.machine import replay as R
from repro.machine import rvv_gem5
from repro.machine.config import CacheParams
from repro.machine.replay import (
    _compile_fast,
    _compile_walk,
    _intern,
    _lru_hits,
    _point_pass_vec,
    _shared_pass,
    _shared_pass_python,
    _Skeleton,
    _SkeletonBuilder,
    _tier_for,
    replay,
    replay_sweep,
)
from repro.machine.replay_vec import _Level
from repro.machine.simulator import SimStats
from repro.machine.trace import TraceRecorder

from .test_tier_identity import line_walk_tier

RTZ = Path(__file__).parent / "data" / "traces" / "yolov3_tiny_rvv_v512.rtz"

#: Every array column of a skeleton.
ARRAYS = (
    "base", "kid", "cls_pos", "t6_at", "t6_cls", "ev_at", "ev_key",
    "ev_scalar", "ev_off", "addrs", "lines", "ft_pos",
)

#: ``(largest value, the width that holds it)`` on both sides of each edge.
EDGES = [
    (0xFF, np.uint8), (0x100, np.uint16), (0xFFFF, np.uint16),
    (0x10000, np.uint32), (0xFFFFFFFF, np.uint32), (0x100000000, np.int64),
]


def hexs(st: SimStats):
    fields = tuple(getattr(st, f).hex() for f in SimStats.FIELDS)
    kc = tuple(sorted((k, v.hex()) for k, v in st.kernel_cycles.items()))
    return fields, kc


def dict_lru(lines, num_sets, assoc):
    """Per-access hits and the final residency (per set, oldest first)
    of one dict LRU per set."""
    sets = [{} for _ in range(num_sets)]
    hits = []
    for line in lines:
        ways = sets[line % num_sets]
        hits.append(ways.pop(line, None) is not None)
        ways[line] = True
        if len(ways) > assoc:
            ways.pop(next(iter(ways)))
    return hits, {s: list(ways) for s, ways in enumerate(sets) if ways}


# ----------------------------------------------------------------------
# _SkeletonBuilder.build
# ----------------------------------------------------------------------
@pytest.mark.parametrize("wide", [False, True], ids=["u4-buffers", "int64-buffers"])
@pytest.mark.parametrize("top, dtype", EDGES, ids=[f"{t:#x}" for t, _ in EDGES])
def test_build_stores_the_narrowest_width(top, dtype, wide):
    """Ids, positions and addresses whose largest value is *top* come
    out at the width that holds *top*, value for value, as exact-size
    arrays of their own, whichever buffers accumulated them."""
    sk = _SkeletonBuilder(wide=wide)
    sk.extend("base", np.arange(4, dtype=np.float64))
    sk.extend("sw_pos", np.array([0, 2]))
    sk.extend("sw_kid", np.array([0, top]))
    sk.extend("cls_pos", np.array([1, top]))
    sk.extend("t6_at", np.array([top]))
    sk.extend("t6_cls", np.array([top]))
    sk.extend("ev_at", np.array([0]))
    sk.extend("ev_key", np.array([0]))
    sk.ev_defs.append((4, 1.0, 10, 0.0, False))
    sk.extend("addrs", np.array([7]))  # a narrow chunk, then the wide one
    sk.extend("addrs", np.array([top]))
    sk.extend("ev_off", np.array([2]))
    skel = sk.build(6)
    assert skel.kid.dtype == dtype and skel.kid.tolist() == [0, 0, top, top]
    for name, want in (("cls_pos", [1, top]), ("t6_at", [top]),
                       ("t6_cls", [top]), ("addrs", [7, top])):
        col = getattr(skel, name)
        assert col.dtype == dtype and col.tolist() == want, name
    assert skel.ev_key.dtype == skel.ev_off.dtype == skel.ev_at.dtype == np.uint8
    assert skel.lines.tolist() == [0, top >> 6] and skel.ft_pos.tolist() == [0, 1]
    assert skel.lines.dtype == R._uint_for(top >> 6)
    assert skel.base.tolist() == [0.0, 1.0, 2.0, 3.0]
    for name in ARRAYS:
        col = getattr(skel, name)
        assert col.flags.owndata and col.nbytes == col.size * col.itemsize, name


def test_build_of_an_empty_program():
    skel = _SkeletonBuilder().build(6)
    for name in ARRAYS:
        assert len(getattr(skel, name)) == (1 if name == "ev_off" else 0), name
    assert skel.kid.dtype == skel.addrs.dtype == np.uint8


# ----------------------------------------------------------------------
# _intern
# ----------------------------------------------------------------------
def skeleton(n_defs, keys, pend, wide):
    """A program of one L2 event per entry of *keys* (key id) with
    *pend* pending lines each, every item a class item; its columns at
    the narrowest widths, or at int64 when *wide*."""
    n_ev = len(keys)
    addrs = np.arange(int(np.sum(pend)), dtype=np.int64) * 64
    ev_off = np.concatenate([[0], np.cumsum(pend)])
    cols = dict(
        base=np.zeros(n_ev), kid=np.zeros(n_ev, np.int64),
        cls_pos=np.arange(n_ev), t6_at=np.zeros(0, np.int64),
        t6_cls=np.zeros(0, np.int64), ev_at=np.arange(n_ev),
        ev_key=np.asarray(keys), ev_off=ev_off, addrs=addrs,
    )
    cast = (lambda v: v.astype(np.int64)) if wide else R._narrow
    cols = {k: v if v.dtype == np.float64 else cast(v) for k, v in cols.items()}
    defs = [(3, 1.5, k, 0.0, 64, 1, False, True) for k in range(n_defs)]
    return _Skeleton(6, labels=["k"], t6_defs=[], ev_defs=defs, side=[], **cols)


@pytest.mark.parametrize("rows", [3, R._INTERN_ROWS])
@pytest.mark.parametrize(
    "n_defs, width, max_pend",
    [(200, np.uint8, 3), (200, np.uint8, 40), (300, np.uint16, 3),
     (70000, np.uint32, 9)],
    ids=["u1", "u1-wide-span", "u2", "u4"],
)
def test_intern_widens_before_packing(n_defs, width, max_pend, rows, monkeypatch):
    """Key ids near the top of ``u1``/``u2``/``u4`` times a span of
    hits and misses overflow the id width: the classes and every
    event's class id are the ones a Python dict assigns, and the same as
    from int64 columns — in one intern step and across steps of a few
    events."""
    monkeypatch.setattr(R, "_INTERN_ROWS", rows)
    rng = np.random.default_rng(n_defs + max_pend)
    keys = rng.choice([0, 1, n_defs // 2, n_defs - 2, n_defs - 1], size=40)
    pend = rng.integers(1, max_pend + 1, size=40)
    narrow = skeleton(n_defs, keys, pend, wide=False)
    assert narrow.ev_key.dtype == width
    ev_off = np.concatenate([[0], np.cumsum(pend)])
    miss_pos = np.flatnonzero(rng.random(int(ev_off[-1])) < 0.4)
    nm = np.diff(np.searchsorted(miss_pos, ev_off))
    triples = list(zip(keys.tolist(), (pend - nm).tolist(), nm.tolist()))
    order = sorted(set(triples))
    got = _intern(narrow, miss_pos)
    assert got.cls_idx.tolist() == [order.index(t) for t in triples]
    assert got.cls_defs == [narrow.ev_defs[k] + (h, m) for k, h, m in order]
    assert got.max_nm == int(nm.max())
    wide = _intern(skeleton(n_defs, keys, pend, wide=True), miss_pos)
    assert wide.cls_idx.tolist() == got.cls_idx.tolist()
    assert wide.cls_defs == got.cls_defs
    assert wide.wh_by_cls.tobytes() == got.wh_by_cls.tobytes()


# ----------------------------------------------------------------------
# _lru_hits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
@pytest.mark.parametrize("num_sets, assoc", [(1, 2), (4, 2), (3, 4), (300, 1)])
def test_lru_hits_on_narrow_lines(dtype, num_sets, assoc):
    """Lines at the top of an unsigned width (its largest value is the
    stack's empty-way marker) and a set count wider than the lines walk
    like a dict LRU, chunked with carried residency or not."""
    top = np.iinfo(dtype).max if dtype != np.int64 else (1 << 40) + 7
    pool = np.array([top, top - 1, top - 4, top // 3, 0, 1, 5, 9], dtype=dtype)
    lines = np.random.default_rng(int(top) % 97 + num_sets).choice(pool, size=400)
    want, state = dict_lru(lines.tolist(), num_sets, assoc)
    got, resident = _lru_hits(lines, num_sets, assoc)
    assert got.tolist() == want
    by_set = {}
    for line in resident.tolist():
        by_set.setdefault(line % num_sets, []).append(line)
    assert by_set == state
    level = _Level(num_sets, assoc)
    parts = np.split(lines, [7, 150, 151, 390])
    assert np.concatenate([level.hits(p) for p in parts]).tolist() == want


# ----------------------------------------------------------------------
# A trace above 4 GiB, through every tier
# ----------------------------------------------------------------------
def emit_high(sim):
    """Strided, unit and scalar accesses with range notes, in buffers
    that the address space places past ``2**32``."""
    sim.address_space.next_free = (1 << 32) + (1 << 30)
    a = sim.alloc("a", 1 << 20)
    b = sim.alloc("b", 1 << 20)
    with sim.kernel("k1"):
        sim.hierarchy.note_resident_range(a.base, 6 << 20)  # outgrows 1 MB
        for i in sim.loop(64):
            sim.vload(a.base + 4096 * i, 32, 4, 0)
            sim.vload(b.base + 64 * i, 16, 4, 136)
            sim.varith(32, 1, 2.0, 4)
            sim.scalar_store(b.base + 8192 * (i % 9), 8)
    with sim.region(2.5), sim.kernel("k2"):
        sim.hierarchy.note_resident_range(b.base, 4096)
        for i in sim.loop(48):
            sim.vstore(a.base + 2048 * (i % 16), 64, 4, 0)
            sim.scalar_load(a.base + 16384 * (i % 5) + 3, 4)


def test_buffers_above_4gib_price_through_every_tier():
    """Byte addresses past ``2**32`` keep the int64 columns, the vector
    pass matches the oracle's program, and each tier — the hot-set walk
    (byte for byte the per-line walk's tier), the conflict-free tier
    with and without a budget, and a whole sweep group — prices like
    ``replay()``."""
    m = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
    rec = TraceRecorder(m)
    emit_high(rec)
    trace = rec.finish(key="above4g")
    skel, inv, gc = _shared_pass(trace, m)
    assert skel.addrs.dtype == np.int64 and int(skel.addrs.min()) > 1 << 32
    assert skel.lines.dtype == np.uint32  # 64 B lines of a 5 GiB space
    ref = _shared_pass_python(trace, m)[0]
    for name in ARRAYS:
        a, b = getattr(ref, name), getattr(skel, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    small = m.with_(l2=CacheParams(16 * 1024, 2, 64, m.l2.latency))
    assert _tier_for(skel, gc, small)["kind"] == "walk"
    with mock.patch.object(R, "_WALK_CHUNK_MIN", 5):  # many walk steps
        tiers = [(small, _compile_walk(skel, gc, small))]
    tiers.append((small, line_walk_tier(skel, small)))
    for name in ("kid", "cls_pos", "cls_idx", "wh_by_cls", "wm_by_cls"):
        a, b = getattr(tiers[0][1], name), getattr(tiers[1][1], name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for mb, desc in ((1, f"fast:{1 << 20}"), (256, "fast:None")):
        big = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb)
        assert _tier_for(skel, gc, big)["desc"] == desc
        tiers.append((big, _compile_fast(skel, gc, big)))
    for machine, cols in tiers:
        assert hexs(_point_pass_vec(cols, inv, machine, gc)) == hexs(
            replay(trace, machine)
        )
    group = [small] + [
        rvv_gem5(vlen_bits=1024, lanes=n, l2_mb=mb) for n, mb in ((2, 1), (8, 64))
    ]
    for machine, st_ in zip(group, replay_sweep(trace, group)):
        assert hexs(st_) == hexs(replay(trace, machine))


# ----------------------------------------------------------------------
# Memory bounds on the committed trace
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def committed():
    trace = tc.load_compressed(str(RTZ))
    m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
    return (m,) + _shared_pass(trace, m)


def column_bytes(skel):
    return sum(getattr(skel, name).nbytes for name in ARRAYS)


def test_skeleton_columns_are_narrow(committed):
    """The committed trace's program takes at most 0.55x the bytes of
    the same columns at int64 (float ``base`` included, at 8 bytes)."""
    _m, skel, _inv, _gc = committed
    at_int64 = sum(8 * getattr(skel, name).size for name in ARRAYS)
    assert column_bytes(skel) <= 0.55 * at_int64


def test_walk_tier_memory_is_bounded(committed):
    """Building each walk tier of the committed trace's L2 sweep allocates
    at most half the skeleton's bytes above what it started with."""
    m, skel, _inv, gc = committed
    walks = [replace(m, l2=replace(m.l2, size_bytes=mb << 20)) for mb in (1, 2, 4, 8)]
    assert all(_tier_for(skel, gc, w)["kind"] == "walk" for w in walks)
    tracemalloc.start()
    try:
        for w in walks:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cols = _compile_walk(skel, gc, w)
            peak = tracemalloc.get_traced_memory()[1] - start
            del cols
            assert peak <= 0.5 * column_bytes(skel), w.l2
    finally:
        tracemalloc.stop()
