"""Generated design points: every replay tier prices exactly like ``replay``.

``replay_sweep`` prices each machine of a group from one tier — a
conflict-free tier per L2 byte budget (its residency ranges trimming or
not), or a walk tier per L2 geometry that walks only the overcommitted
sets, all in lockstep.  Which tier a point lands on depends on the
drawn L2, so hypothesis draws legal groups (L2 size and ways, DRAM
latency, lane count) over one small captured rvv trace and checks every
``SimStats`` field bit for bit against
:func:`repro.machine.replay.replay` — the per-event oracle.  The pinned
examples reach every tier kind.  Groups with an L2 stream prefetcher,
and groups of the a64fx family (a TLB, prefetchers, honoured software
prefetches), are declined: replay prices none of their points.

The two array kernels under the tiers are checked on generated inputs
against the per-line models they replace: :func:`_lru_hits` against a
dict LRU per set (and Mattson's inclusion property), and
:func:`_range_misses` against ``MemoryHierarchy``'s range model stepped
address by address.  :func:`line_walk_tier` combines the two models
into the L2 walk of ``MemoryHierarchy`` over every pending line: the
reference the hot-set walk tier is compared with byte for byte.  The
one-set path of :func:`_lru_hits` (the shared pass's VectorCache walk)
gets its own streams: long single-line runs, working sets re-streamed
just above and below the way count, spans beyond the horizon search.
A walk split into chunks that carry residency (``replay_vec._Level``)
hits exactly like one whole walk.
"""

import functools
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine import a64fx, rvv_gem5
from repro.machine.config import CacheParams, PrefetcherParams
from repro.machine.hierarchy import MemoryHierarchy
from repro.machine.replay import (
    _HORIZON_MAX,
    _intern,
    _lru_hits,
    _range_misses,
    _shared_pass,
    _tier_for,
    group_mode,
    replay,
    replay_sweep,
)
from repro.machine.replay_vec import _Level
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
def recorded(family: str):
    """The family's trace (recorded once)."""
    return yolov3_tiny().record_trace(
        BASES[family], POLICY, n_layers=N_LAYERS, key=f"tier-identity-{family}"
    )


@functools.lru_cache(maxsize=None)
def captured(family: str):
    """The family's trace and its shared-pass skeleton (built once)."""
    trace = recorded(family)
    skel, _inv, gc = _shared_pass(trace, BASES[family])
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
    tier = _tier_for(skel, gc, m)
    if tier["kind"] == "fast":
        return "fast" if tier["desc"] == "fast:None" else "fast-trim"
    return "walk"


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

#: One pinned group per tier kind (asserted by test_examples_reach...),
#: and two that replay declines: an L2 prefetcher, and the a64fx family.
PINNED = {
    "fast": ("rvv", False, [(65536, 16, 200, 4)]),
    "fast-trim": ("rvv", False, [(256, 16, 120, 2), (512, 16, 300, 8)]),
    "walk": ("rvv", False, [(64, 4, 200, 4), (128, 1, 90, 1)]),
    "stream": ("rvv", True, [(1024, 8, 200, 4), (64, 2, 350, 8)]),
    "a64fx": ("a64fx", False, [(8192, 16, 200, 8), (256, 4, 80, 2)]),
}


def group_machines(family, stream, pts):
    # The L2 prefetcher only varies per group: a group must share every
    # field but the L2, DRAM and VPU pricing ones.
    return [machine(family, *p, stream) for p in pts]


#: A quarter of the draws are priced groups; the declined ones cost
#: next to nothing.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(groups)
@example(PINNED["fast"])
@example(PINNED["fast-trim"])
@example(PINNED["walk"])
@example(PINNED["stream"])
@example(PINNED["a64fx"])
def test_replay_sweep_matches_replay(group):
    """An rvv group prices like ``replay``; one with an L2 prefetcher, or
    of the a64fx family, is declined whole."""
    family, stream, pts = group
    trace = recorded(family)
    machines = group_machines(family, stream, pts)
    priced = replay_sweep(trace, machines)
    if stream or family == "a64fx":
        assert group_mode(machines) is None and priced is None
        return
    assert priced is not None
    for m, got in zip(machines, priced):
        assert hexs(got) == hexs(replay(trace, m)), m.name


def test_examples_reach_every_tier_kind():
    kinds = {}
    for name in ("fast", "fast-trim", "walk"):
        family, stream, pts = PINNED[name]
        kinds[name] = {tier_kind(family, m) for m in group_machines(family, stream, pts)}
    assert "fast" in kinds["fast"]
    assert "fast-trim" in kinds["fast-trim"]
    assert kinds["walk"] == {"walk"}
    for name in ("stream", "a64fx"):
        assert group_mode(group_machines(*PINNED[name])) is None, name


# ----------------------------------------------------------------------
# The array kernels against the per-line models they replace
# ----------------------------------------------------------------------
def dict_lru_hits(lines, num_sets, assoc):
    """Per-access hits of one dict LRU per set, as ``MemoryHierarchy``'s
    L2 walks them."""
    sets = [{} for _ in range(num_sets)]
    out = []
    for line in lines:
        ways = sets[line % num_sets]
        out.append(ways.pop(line, None) is not None)
        ways[line] = True
        if len(ways) > assoc:
            ways.pop(next(iter(ways)))
    return out


def line_walk_tier(skel, machine):
    """The walk tier of *machine* resolved line by line, as
    ``MemoryHierarchy`` walks its L2: every pending line of the program
    through a dict LRU per set (:func:`dict_lru_hits`), each LRU miss
    range-checked by ``pricing_view``'s range model, advanced through
    the residency-range notes in stream order."""
    l2 = machine.l2
    num_sets = l2.size_bytes // (l2.assoc * l2.line_bytes)
    shift = l2.line_bytes.bit_length() - 1
    addrs = skel.addrs.tolist()
    hits = dict_lru_hits([a >> shift for a in addrs], num_sets, l2.assoc)
    hier = MemoryHierarchy.pricing_view(machine)
    notes = iter(skel.side)
    note = next(notes, None)
    misses = []
    for j, a in enumerate(addrs):
        while note is not None and note[0] <= j:
            hier.note_resident_range(note[1][1], note[1][2])
            note = next(notes, None)
        if not hits[j] and not hier._range_hit(a):
            misses.append(j)
    return _intern(skel, np.array(misses, dtype=np.int64))


@st.composite
def lru_streams(draw):
    """``(lines, num_sets, assoc)``: a few active sets, tags spanning
    more lines than ways; optionally one set far longer than the rest."""
    num_sets = 1 << draw(st.integers(0, 12))
    assoc = draw(st.integers(1, 16))
    pool = draw(st.lists(
        st.integers(0, num_sets - 1), min_size=1, max_size=8, unique=True
    ))
    if draw(st.booleans()):
        pool = pool[:1] * 12 + pool
    refs = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(0, assoc + 4)), max_size=300
    ))
    lines = np.array([tag * num_sets + s for s, tag in refs], dtype=np.int64)
    return lines, num_sets, assoc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lru_streams())
@example((np.array([3, 5, 3, 7, 5, 3, 9, 3], dtype=np.int64), 1, 2))
@example((np.zeros(0, dtype=np.int64), 64, 4))
def test_lru_hits_match_dict_lru(stream):
    lines, num_sets, assoc = stream
    got = _lru_hits(lines, num_sets, assoc)[0]
    assert got.tolist() == dict_lru_hits(lines.tolist(), num_sets, assoc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lru_streams())
def test_lru_hits_inclusion(stream):
    """Mattson: at a fixed set count, one more way never loses a hit."""
    lines, num_sets, assoc = stream
    fewer = _lru_hits(lines, num_sets, assoc)[0]
    more = _lru_hits(lines, num_sets, assoc + 1)[0]
    assert not (fewer & ~more).any()


@st.composite
def one_set_streams(draw):
    """``(lines, assoc)`` for one fully associative set: random lines
    around the way count, runs of one line (some longer than a horizon
    sample block), or a working set just above or below the way count
    streamed again and again."""
    assoc = draw(st.integers(1, 64))
    shape = draw(st.sampled_from(["random", "runs", "restream"]))
    if shape == "random":
        lines = draw(st.lists(st.integers(0, 2 * assoc + 2), max_size=400))
    elif shape == "runs":
        runs = draw(st.lists(
            st.tuples(st.integers(0, assoc + 3), st.integers(1, 300)), max_size=8
        ))
        lines = [line for line, n in runs for _ in range(n)]
    else:
        size = max(1, assoc + draw(st.integers(-2, 2)))
        lines = list(range(size)) * draw(st.integers(1, 8))
        for at in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
            lines.insert(at, size + at)  # a stray line now and then
    return np.array(lines, dtype=np.int64), assoc


#: One line re-accessed after a run of another longer than the horizon
#: search: hit with two ways, miss with one.
LONG_RUN = np.array([1] + [2] * (_HORIZON_MAX + 900) + [1], dtype=np.int64)
#: Three lines, a run of a fourth longer than twice the horizon search,
#: the first line again (a miss with three ways, a hit with four), and
#: more of the run, so no sample near the re-access finds the horizon.
LONG_GAP = np.array(
    [0, 1, 2] + [3] * (2 * _HORIZON_MAX) + [0] + [3] * 300, dtype=np.int64
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(one_set_streams())
@example((np.zeros(0, dtype=np.int64), 32))
@example((LONG_RUN, 1))
@example((LONG_RUN, 2))
@example((LONG_GAP, 3))
@example((LONG_GAP, 4))
@example((np.tile(np.arange(40, dtype=np.int64), 60), 39))
@example((np.tile(np.arange(40, dtype=np.int64), 60), 40))
def test_one_set_lru_hits_match_dict_lru(stream):
    lines, assoc = stream
    got = _lru_hits(lines, 1, assoc)[0]
    assert got.tolist() == dict_lru_hits(lines.tolist(), 1, assoc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(one_set_streams())
def test_one_set_lru_hits_inclusion(stream):
    """Mattson on the one-set path: one more way never loses a hit."""
    lines, assoc = stream
    fewer = _lru_hits(lines, 1, assoc)[0]
    more = _lru_hits(lines, 1, assoc + 1)[0]
    assert not (fewer & ~more).any()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(
        lru_streams(),
        one_set_streams().map(lambda s: (s[0], 1, s[1])),
    ),
    st.lists(st.integers(0, 400), max_size=6),
)
def test_lru_residency_carry(stream, cuts):
    """A walk split anywhere into chunks that carry residency (the
    resident lines, oldest first per set, ahead of the next chunk) hits
    exactly like one whole walk, on both the lockstep and the one-set
    path."""
    lines, num_sets, assoc = stream
    level = _Level(num_sets, assoc)
    parts = np.split(lines, sorted(min(c, len(lines)) for c in cuts))
    got = np.concatenate([level.hits(part) for part in parts])
    assert got.tolist() == _lru_hits(lines, num_sets, assoc)[0].tolist()


@st.composite
def range_streams(draw):
    """``(budget, events, checked)``: stretches of byte addresses, many
    on range edges, each after a residency-range note (overlapping, some
    outgrowing the budget), plus which addresses get range-checked."""
    budget = 64 * draw(st.integers(1, 32))
    notes = draw(st.lists(
        st.tuples(st.integers(0, 16).map(lambda i: 256 * i), st.integers(0, 600)),
        min_size=1, max_size=8,
    ))
    edges = [a for b, n in notes for a in (b - 1, b, b + n // 2, b + n - 1, b + n)]
    addrs = st.lists(
        st.one_of(st.sampled_from(edges), st.integers(0, 8192)), max_size=12
    )
    events = [("addr", a) for a in draw(addrs)]
    for note, stretch in draw(st.lists(
        st.tuples(st.sampled_from(notes), addrs), max_size=10
    )):
        events.append(("note", note))
        events.extend(("addr", a) for a in stretch)
    n_addrs = sum(kind == "addr" for kind, _ in events)
    checked = draw(st.lists(st.booleans(), min_size=n_addrs, max_size=n_addrs))
    return budget, events, checked


def range_view(budget):
    base = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
    return MemoryHierarchy.pricing_view(
        base.with_(l2=CacheParams(budget, 1, 64, base.l2.latency))
    )


#: Two ranges hit against their start order, then a note that evicts
#: the least recently hit one: the refresh order decides the victim.
REFRESH_ORDER = (256, [
    ("note", (0, 100)), ("note", (200, 100)), ("addr", 250), ("addr", 50),
    ("note", (1000, 100)), ("addr", 50), ("addr", 250),
], [True] * 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(range_streams())
@example(REFRESH_ORDER)
def test_range_misses_match_stepped_range_model(stream):
    budget, events, checked = stream
    want, side, addrs = [], [], []
    ref = range_view(budget)
    for kind, x in events:
        if kind == "note":
            side.append((len(addrs), (2,) + x))
            ref.note_resident_range(*x)
            continue
        if checked[len(addrs)]:
            want.append(not ref._range_hit(max(x, 0)))
        addrs.append(max(x, 0))
    pos = np.flatnonzero(np.array(checked, dtype=bool))
    hier = range_view(budget)
    got = _range_misses(pos, np.array(addrs, dtype=np.int64)[pos], side, hier)
    assert got.tolist() == want
    assert hier._ranges == ref._ranges  # same survivors, same LRU order
