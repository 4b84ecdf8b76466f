"""Vectorized shared pass: NumPy column arithmetic over a recorded trace.

:func:`_shared_pass_vec` produces the same ``(skeleton, inv, gc)``
triple as the per-event reference loop in :mod:`repro.machine.replay`
(``_shared_pass_python``) — the shared-pass program as
:class:`~repro.machine.replay._Skeleton` columns — with NumPy column
arithmetic.  It runs over the trace in row chunks of at most
:data:`_CHUNK_ROWS` rows, so its temporaries do not grow with the
trace, and it carries everything a later chunk reads: the counter
folds, the label, class and key interning, the cache residency, and
the address positions of side notes.  Per chunk:

* the nine *pure* invariant ``SimStats`` fields (instruction/byte/flop
  counters) are folded with ``np.add.accumulate`` over per-event
  contribution columns built with the exact operand order of the
  reference loop (inserting ``+ 0.0`` for non-contributing events is an
  exact identity on these non-negative accumulators);
* the program has one item per event that adds cycles, so every item's
  position, its label id (trace kernel ids renumbered by first
  appearance) and the pre-priced floats of compute events (``scalar``,
  no-op prefetches, spill serialization tails) are columns over those
  events;
* the VPU pricing classes of ``varith`` / ``vbroadcast`` events are
  interned with ``np.unique`` (one class per distinct shape), and so
  are the tag-6 keys ``(6, w, cid)`` of every VPU-priced item and the
  keys of the L2 events, in first-occurrence order
  (:func:`_intern_rows`).

The *walk* events — scalar/vector memory accesses and residency-range
notes — thread through the L1 and VectorCache state, on arrays
(:class:`_ArrayWalk`): each access expands into the lines it walks, LRU
kernels resolve the L1 and VectorCache hits, and each event's outcome is
a segment reduction over its lines.  The walk returns one
:class:`_Outcome` per chunk: a float per walk item, its L2 events (key
and pending addresses), its VectorCache- or L1-served vector items and
its side notes.  Those are merged into the program at the walk events'
item positions.  The three walk-dependent invariant fields
(``l1_hits``, ``l1_misses``, ``vc_hits``) are folded by the walk, in
walk order.

The pass reads the machine through a small frozen config
(:class:`_WalkConfig`) and keeps its own counters, pricing-class table
and range total, so the comparison with the oracle checks them too.  A
machine with a TLB, a hardware prefetcher or honoured software
prefetches raises ``ValueError``
(:func:`repro.machine.replay.blocking_features`): no sweep group of one
replays.

Column identity with the reference loop (tag-6 classes compared through
their descriptors, whose numbering may differ) and hex identity of every
priced point are enforced on the rvv and sve presets, and across chunk
boundaries, by tests/test_replay_vec.py.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hierarchy import _VC_HIT_LATENCY
from .simulator import (
    _SCALAR_MLP,
    _SPILL_SERIALIZE_CYCLES,
    _STORE_STALL_FACTOR,
    SimStats,
)
from .trace import (
    OP_COUNT_FLOPS,
    OP_NOTE_RANGE,
    OP_SCALAR,
    OP_SCALAR_LOAD,
    OP_SCALAR_STORE,
    OP_SPILL,
    OP_SW_PREFETCH,
    OP_VARITH,
    OP_VBROADCAST,
    OP_VLOAD,
    OP_VSTORE,
    RecordedTrace,
)

__all__ = ["_shared_pass_vec"]

#: Internal pseudo-opcode for the serialization tail of an expanded
#: OP_SPILL row (never appears in a trace; must not collide with real
#: opcodes above).
_OP_SPILL_TAIL = 250

#: Trace opcodes, OP_SCALAR (0) through OP_NOTE_RANGE.
_KNOWN_OPS = frozenset(range(OP_SCALAR, OP_NOTE_RANGE + 1))

#: Trace rows per step of the pass.  A row's walk expands into every
#: line it touches (a 1 KB vector access into 16 L1 lines, a strided
#: one into a segment per element), so the step's temporaries grow
#: with the vector length: on a 6-layer yolov3 capture at VL 8192 the
#: pass peaks 14 MB above the trace with 16k-row steps, 29 MB with
#: 64k, and is no slower.
_CHUNK_ROWS = 1 << 14


def _expand_spills(cols, vlen_bits: int):
    """Expand OP_SPILL rows into their vstore/vload/tail sub-events.

    ``TraceSimulator.spill(n)`` issues, per register, one full-vector
    store and reload at stack address 0, then a serialization penalty —
    the reference loop replays that expansion event by event, and the
    counter folds (``acc += w`` once per sub-event) are only exact if
    the column engine sees the same sub-event rows.  Returns the eight
    expanded columns; cheap no-op when the rows have no spills.
    """
    op, w, kid, i0, i1, i2, i3, f0 = cols
    spill = op == OP_SPILL
    if not spill.any():
        return op, w, kid, i0, i1, i2, i3, f0
    counts = np.ones(len(op), dtype=np.int64)
    counts[spill] = 2 * i0[spill] + 1
    # Each expanded row's source row, and its position in that group.
    idx, sub = _runs(counts)
    opx = op[idx].astype(np.int64)  # room for _OP_SPILL_TAIL
    wx = w[idx]
    kidx = kid[idx]
    i0x = i0[idx].copy()
    i1x = i1[idx].copy()
    i2x = i2[idx].copy()
    i3x = i3[idx].copy()
    f0x = f0[idx]
    insp = spill[idx]
    n_regs = i0[idx]
    is_tail = insp & (sub == 2 * n_regs)
    is_mem = insp & ~is_tail
    n_elems = (vlen_bits // 8) // 4
    # Alternating vstore/vload at stack address 0, mirroring spill().
    opx[is_mem] = np.where(
        sub[is_mem] % 2 == 0, OP_VSTORE, OP_VLOAD
    )
    i0x[is_mem] = 0
    i1x[is_mem] = n_elems
    i2x[is_mem] = 4
    i3x[is_mem] = 0
    opx[is_tail] = _OP_SPILL_TAIL
    i0x[is_tail] = n_regs[is_tail]  # n_registers, for the tail price
    return opx, wx, kidx, i0x, i1x, i2x, i3x, f0x


def _runs(counts: np.ndarray):
    """``(run, offset)`` of every slot of consecutive runs of *counts*."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)


def _fold(acc: float, col: np.ndarray) -> float:
    """Continue the strict left-to-right fold *acc* over *col*.

    ``col[0] + acc`` is ``acc + col[0]`` exactly, so a fold carried
    across chunks adds the same floats in the same order as one fold
    over the whole stream.  *col* is a temporary and is overwritten.
    """
    if not len(col):
        return acc
    col[0] += acc
    return float(np.add.accumulate(col, out=col)[-1])


def _row_ids(cols):
    """``(first, inverse)`` of the distinct rows of parallel columns.

    Every column is replaced by value ids — a small non-negative
    integer column by itself, any other by its dense ``np.unique`` ids —
    and those are packed into one int64 key (re-densified before the
    packed range could overflow), so one flat ``np.unique`` finds the
    rows.
    """
    key, span = np.zeros(len(cols[0]), dtype=np.int64), 1
    for col in cols:
        if col.dtype.kind in "bui" and col.min() >= 0 and col.max() < 1 << 16:
            ids, size = col.astype(np.int64), int(col.max()) + 1
        else:
            u, ids = np.unique(col, return_inverse=True)
            ids, size = ids.reshape(-1), len(u)
        if span * size >= 1 << 62:
            dense, key = np.unique(key, return_inverse=True)
            span = len(dense)
        key = key * size + ids
        span *= size
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def _intern_rows(cols, make, ids: dict, defs: list) -> np.ndarray:
    """Global ids of the rows of the parallel columns *cols*.

    A row's key is ``make(*row)`` (row values as Python scalars); keys
    not yet in ``ids`` are appended to ``defs`` in order of first
    occurrence, so interning chunk after chunk numbers keys as one pass
    over the whole stream would.
    """
    if not len(cols[0]):
        return np.zeros(0, dtype=np.int64)
    first, inverse = _row_ids(cols)
    order = np.argsort(first)
    gid = np.empty(len(first), dtype=np.int64)
    rows = zip(*(c[first[order]].tolist() for c in cols))
    for d, row in zip(order.tolist(), rows):
        key = make(*row)
        k = ids.get(key)
        if k is None:
            k = ids[key] = len(defs)
            defs.append(key)
        gid[d] = k
    return gid[inverse]


def _ev_key(scalar, w, lat, occ1, nbytes, n_lines, write, unit) -> tuple:
    """The tier-independent pricing key of an L2 event."""
    if scalar:
        return (4, w, lat, occ1, write)
    return (3, w, lat, occ1, nbytes, n_lines, write, unit)


def _vmem_class(lat, nbytes, n_lines, write, unit) -> tuple:
    """The pricing class of a vector access served above the L2."""
    return ("m", lat, 0.0, nbytes, n_lines, write, unit)


class _WalkConfig(NamedTuple):
    """The machine constants the pass reads (:func:`_walk_config`)."""

    port_l1: bool  # vector accesses take the L1 (else the VectorCache)
    l1_line: int
    l1_shift: int
    l2_shift: int
    l1_lat: int
    fill_l1: float
    l1_sets: int
    l1_assoc: int
    vc_assoc: int  # ways of the one-set VectorCache; 0 when there is none
    scalar_cpi: float
    ooo_hide: float
    noop_pf: bool  # a software prefetch takes an issue slot


def _walk_config(machine) -> _WalkConfig:
    """*machine*'s :class:`_WalkConfig`, by ``MemoryHierarchy``'s own
    expressions; ``ValueError`` on a machine the pass does not model."""
    from .replay import _check_replayable  # deferred: import cycle

    _check_replayable(machine)
    l1, l2, vpu = machine.l1, machine.l2, machine.vpu
    port_l1 = vpu.mem_port == "L1"
    vc_bytes = 0 if port_l1 else vpu.vector_cache_bytes
    return _WalkConfig(
        port_l1=port_l1,
        l1_line=l1.line_bytes,
        l1_shift=l1.line_bytes.bit_length() - 1,
        l2_shift=l2.line_bytes.bit_length() - 1,
        l1_lat=l1.latency,
        fill_l1=l1.line_bytes / machine.l2_to_l1_bytes_per_cycle,
        l1_sets=l1.size_bytes // (l1.assoc * l1.line_bytes),
        l1_assoc=l1.assoc,
        vc_assoc=max(1, vc_bytes // l2.line_bytes) if vc_bytes else 0,
        scalar_cpi=machine.core.scalar_cpi,
        ooo_hide=machine.core.ooo_hide,
        noop_pf=machine.sw_prefetch_is_noop_instr,
    )


class _Outcome(NamedTuple):
    """One chunk's walk outcomes, per *walk item* (a walk event that is
    not a range note): ``price`` (0.0 at class items); the L2 events
    ``ev_item`` with keys ``ev_key`` and ``ev_n`` of the pending byte
    ``addrs`` each; the VPU-priced items ``m_item`` with weights ``m_w``
    and classes ``m_cid``; the ``side`` notes, positions counted from
    the chunk's first address."""

    price: np.ndarray
    ev_item: np.ndarray
    ev_key: np.ndarray
    ev_n: np.ndarray
    addrs: np.ndarray
    m_item: np.ndarray
    m_w: np.ndarray
    m_cid: np.ndarray
    side: list


class _Level:
    """One LRU cache level, walked one chunk of its line stream at a time.

    Residency carries over as the resident lines at the end of a chunk,
    oldest first per set (as :func:`~repro.machine.replay._lru_hits`
    returns them), put in front of the next chunk's lines.
    """

    def __init__(self, num_sets: int, assoc: int):
        self.num_sets = num_sets
        self.assoc = assoc
        self.resident = None  # in the dtype of the first chunk's lines

    def hits(self, lines: np.ndarray) -> np.ndarray:
        from .replay import _lru_hits  # deferred: import cycle

        if not len(lines):
            return np.zeros(0, dtype=bool)
        carried = 0 if self.resident is None else len(self.resident)
        stream = np.concatenate([self.resident, lines]) if carried else lines
        hits, self.resident = _lru_hits(stream, self.num_sets, self.assoc)
        return hits[carried:]


class _ArrayWalk:
    """The L1 and VectorCache walk of one shared pass, on arrays.

    It reproduces ``_GroupCapture._scalar_mem`` / ``_vmem``.  Every
    access expands into byte segments (one, or one per element of a
    strided vector access) and each segment into the lines it walks.
    The L1 (scalar lines, and vector lines on an L1-port machine) and
    the VectorCache (vector lines on an L2-port machine) resolve their
    hits with :func:`~repro.machine.replay._lru_hits`.  Dirty bits are
    not modelled: no eviction here writes anything back.  The
    ``first == last == prev_line`` shortcut of the strided walks is an
    access to the most recent line, which the kernels hit like the
    dicts do; on an L2-port machine without a VectorCache it is one
    more pending line, as is every line there.  An event's latency,
    hit and miss counts and pending lines are then reductions over its
    lines, folded into the counters and class table of the
    :class:`_Pass` it is called for.
    """

    def __init__(self, cfg: _WalkConfig):
        self.cfg = cfg
        self.l1 = _Level(cfg.l1_sets, cfg.l1_assoc)
        self.vc = _Level(1, cfg.vc_assoc) if cfg.vc_assoc else None
        self.occ_tab = np.zeros(1)  # occ_tab[k]: k misses' repeated fill_l1 sum

    def _occ1(self, misses: np.ndarray) -> np.ndarray:
        need = int(misses.max(initial=0)) + 1
        if need > len(self.occ_tab):
            steps = np.full(need, self.cfg.fill_l1, dtype=np.float64)
            steps[0] = 0.0
            self.occ_tab = np.add.accumulate(steps)
        return self.occ_tab[misses]

    def __call__(self, run, o, w, addr, x1, x2, x3) -> _Outcome:
        cfg, acc = self.cfg, run.counters
        notes = np.flatnonzero(o == OP_NOTE_RANGE)
        note_args = list(zip(addr[notes].tolist(), x1[notes].tolist()))
        if len(notes):
            keep = o != OP_NOTE_RANGE
            o, w, addr, x1, x2, x3 = (c[keep] for c in (o, w, addr, x1, x2, x3))
        n = len(o)
        port_l1 = cfg.port_l1
        scalar = (o == OP_SCALAR_LOAD) | (o == OP_SCALAR_STORE)
        write = (o == OP_SCALAR_STORE) | (o == OP_VSTORE)
        on_l1 = scalar | port_l1
        unit = ~scalar & ((x3 == 0) | (x3 == x2))
        strided = ~scalar & ~unit
        nbytes = np.where(scalar, x1, x1 * x2)
        shift = np.where(on_l1, cfg.l1_shift, cfg.l2_shift)

        # Byte segments [lo, hi]: one per access, or one per element;
        # then the lines each walks, in walk order.
        seg_ev, lo = np.arange(n), addr
        if strided.any():
            seg_ev, sub = _runs(np.where(strided, x1, 1))
            lo = addr[seg_ev] + sub * x3[seg_ev]
        hi = lo + (np.where(strided, x2, nbytes) - 1)[seg_ev]
        seg_shift = shift[seg_ev]
        first = lo >> seg_shift
        line_seg, sub = _runs(np.maximum((hi >> seg_shift) - first + 1, 0))
        lines = first[line_seg] + sub
        line_ev = seg_ev[line_seg]
        del lo, hi, seg_shift, first, line_seg, sub, seg_ev

        hit = np.zeros(len(lines), dtype=bool)
        if port_l1:
            hit[:] = self.l1.hits(lines)
        else:
            to_l1 = scalar[line_ev]
            hit[to_l1] = self.l1.hits(lines[to_l1])
            if self.vc is not None:
                to_vc = ~to_l1
                hit[to_vc] = self.vc.hits(lines[to_vc])
            del to_l1
        n_lines_walked = np.bincount(line_ev, minlength=n)
        n_hit = np.bincount(line_ev[hit], minlength=n)
        n_pend = n_lines_walked - n_hit
        l1h = np.where(on_l1, n_hit, 0)
        l1m = np.where(on_l1, n_pend, 0)
        vch = np.where(on_l1, 0, n_hit)
        lat = np.where(on_l1, cfg.l1_lat * n_lines_walked, _VC_HIT_LATENCY * vch)
        acc["l1_hits"] = _fold(acc["l1_hits"], w * l1h)
        acc["l1_misses"] = _fold(acc["l1_misses"], w * l1m)
        acc["vc_hits"] = _fold(acc["vc_hits"], w * vch)
        miss = ~hit
        addrs = lines[miss] << shift[line_ev[miss]]
        del lines, line_ev, hit, miss

        # Scalar accesses served by the L1: pre-priced floats.
        price = np.zeros(n)
        served = n_pend == 0
        flt = scalar & served
        price[flt] = w[flt] * cfg.scalar_cpi
        stall_at = np.flatnonzero(flt & (lat > cfg.l1_lat))
        if len(stall_at):
            hide = 1.0 - cfg.ooo_hide
            stall = np.maximum(0.0, lat[stall_at] - cfg.l1_lat) / _SCALAR_MLP
            stall *= np.where(write[stall_at], _STORE_STALL_FACTOR * hide, hide)
            price[stall_at] = w[stall_at] * (cfg.scalar_cpi + stall + 0.0 + 0.0)

        # Vector accesses: n_lines is L1-granular on every machine.
        l1_line = cfg.l1_line
        n_lines = np.where(
            unit, (addr + nbytes - 1) // l1_line - addr // l1_line + 1, x1
        )
        ev = np.flatnonzero(~served)
        sc = scalar[ev]
        ev_key = _intern_rows(
            [sc, w[ev], lat[ev], self._occ1(l1m[ev]),
             np.where(sc, 0, nbytes[ev]), np.where(sc, 0, n_lines[ev]),
             write[ev], unit[ev]],
            _ev_key, run.out.ev_ids, run.out.ev_defs,
        )
        m_item = np.flatnonzero(~scalar & served)
        m_cid = _intern_rows(
            [lat[m_item], nbytes[m_item], n_lines[m_item], write[m_item],
             unit[m_item]],
            _vmem_class, run.cls_ids, run.classes,
        )

        # Range notes, at the address count of the accesses before them.
        side = []
        if len(notes):
            before = np.concatenate([[0], np.cumsum(n_pend)])
            at = before[notes - np.arange(len(notes))].tolist()
            for pos, (base, size) in zip(at, note_args):
                run.track_range(base, size)
                side.append((pos, (2, base, size)))
        return _Outcome(
            price, ev, ev_key, n_pend[ev], addrs, m_item, w[m_item], m_cid, side
        )


class _Pass:
    """The shared pass's state between row chunks, and its output.

    Counters fold across chunks; labels, classes and keys intern into
    tables that persist (the VPU pricing-class table here, the rest in
    the output :class:`_SkeletonBuilder`); item, class-item and address
    positions continue from the chunks before, and so does the walk's
    cache residency (:class:`_ArrayWalk`).
    """

    def __init__(self, cfg: _WalkConfig, out, labels):
        self.cfg = cfg
        self.out = out
        self.trace_labels = labels
        self.label_of = np.full(len(labels), -1, dtype=np.int64)
        self.n_items = self.n_cls = self.n_addrs = 0
        self.lines = np.zeros(0, dtype=np.uint32)  # distinct L2 lines so far
        self.ft_pos: list = []  # first-touch address positions, per chunk
        self.counters = dict.fromkeys(
            ("scalar_instrs", "vec_instrs", "vec_mem_instrs", "vec_elems",
             "flops", "bytes_loaded", "bytes_stored", "l1_hits", "l1_misses",
             "vc_hits", "spills"), 0.0,
        )
        self.classes: list = []  # VPU pricing-class descriptors, by id
        self.cls_ids: dict = {}
        self.max_range_total = 0
        self.inf_ranges: list = []
        self.walk = _ArrayWalk(cfg)

    def track_range(self, base: int, nbytes: int) -> None:
        """Grow ``max_range_total``, the largest total of the residency
        ranges noted so far under an infinite budget (a point whose L2
        holds it never trims a range)."""
        if nbytes > 0:
            end = base + nbytes
            ranges = [r for r in self.inf_ranges if r[1] <= base or r[0] >= end]
            ranges.append((base, end))
            self.inf_ranges = ranges
            self.max_range_total = max(
                self.max_range_total, sum(hi - lo for lo, hi in ranges)
            )

    def _labels(self, kids: np.ndarray) -> None:
        """Record the label ids of items of trace kernel ids *kids* where
        they change (and at the chunk's first item); labels are numbered
        by first appearance."""
        out = self.out
        u, first = np.unique(kids, return_index=True)
        for k in u[np.argsort(first)].tolist():
            if self.label_of[k] < 0:
                name = self.trace_labels[k]
                lid = out.label_ids.get(name)
                if lid is None:
                    lid = out.label_ids[name] = len(out.labels)
                    out.labels.append(name)
                self.label_of[k] = lid
        ids = self.label_of[kids]
        switch = np.flatnonzero(np.diff(ids, prepend=-1))
        out.extend("sw_pos", self.n_items + switch)
        out.extend("sw_kid", ids[switch])

    def chunk(self, cols, vlen_bits: int) -> None:
        from .replay import _uint_for  # deferred: import cycle

        cfg, out, acc = self.cfg, self.out, self.counters
        op, w, kid, i0, i1, i2, i3, f0 = _expand_spills(cols, vlen_bits)
        noop_pf = cfg.noop_pf
        is_scalar = op == OP_SCALAR
        is_sload = op == OP_SCALAR_LOAD
        is_sstore = op == OP_SCALAR_STORE
        sm = is_sload | is_sstore
        is_vload = op == OP_VLOAD
        is_vstore = op == OP_VSTORE
        is_vmem = is_vload | is_vstore
        is_varith = (op == OP_VARITH) & (i0 > 0) & (i1 > 0)
        is_vb = op == OP_VBROADCAST
        is_pf = op == OP_SW_PREFETCH
        is_cf = op == OP_COUNT_FLOPS
        is_nr = op == OP_NOTE_RANGE
        is_tail = op == _OP_SPILL_TAIL

        # Pure invariant counters: the reference loop's operand order
        # per event kind, folded left to right.
        c = np.zeros(len(op))
        c[is_scalar] = w[is_scalar] * i0[is_scalar]
        c[sm] = w[sm]
        if noop_pf:
            c[is_pf] = w[is_pf]
        acc["scalar_instrs"] = _fold(acc["scalar_instrs"], c)
        c[:] = 0.0
        c[is_vmem] = w[is_vmem]
        c[is_varith] = w[is_varith] * i1[is_varith]
        c[is_vb] = w[is_vb] * i0[is_vb]
        acc["vec_instrs"] = _fold(acc["vec_instrs"], c)
        acc["vec_mem_instrs"] = _fold(acc["vec_mem_instrs"], np.where(is_vmem, w, 0.0))
        c[:] = 0.0
        c[is_vmem] = w[is_vmem] * i1[is_vmem]
        c[is_varith] = (w[is_varith] * i1[is_varith]) * i0[is_varith]
        acc["vec_elems"] = _fold(acc["vec_elems"], c)
        c[:] = 0.0
        c[is_varith] = (
            (w[is_varith] * i1[is_varith]) * i0[is_varith]
        ) * f0[is_varith]
        c[is_cf] = w[is_cf] * f0[is_cf]
        acc["flops"] = _fold(acc["flops"], c)
        c[:] = 0.0  # bytes_loaded:  vmem nbytes = n_elems * ew (int)
        c[is_vload] = w[is_vload] * (i1[is_vload] * i2[is_vload])
        c[is_sload] = w[is_sload] * i1[is_sload]
        acc["bytes_loaded"] = _fold(acc["bytes_loaded"], c)
        c[:] = 0.0
        c[is_vstore] = w[is_vstore] * (i1[is_vstore] * i2[is_vstore])
        c[is_sstore] = w[is_sstore] * i1[is_sstore]
        acc["bytes_stored"] = _fold(acc["bytes_stored"], c)
        acc["spills"] = _fold(acc["spills"], np.where(is_tail, w * i0, 0.0))
        del c

        # Items: one per event that adds cycles, in event order.
        has_item = is_scalar | sm | is_vmem | is_varith | is_vb | is_tail
        if noop_pf:
            has_item |= is_pf
        item_ev = np.flatnonzero(has_item)
        n_items = len(item_ev)
        item_of = np.cumsum(has_item) - 1  # item index of each item event
        self._labels(kid[item_ev].astype(np.int64))
        base = np.zeros(n_items)
        base[item_of[is_scalar]] = w[is_scalar] * (i0[is_scalar] * cfg.scalar_cpi)
        base[item_of[is_tail]] = w[is_tail] * (i0[is_tail] * _SPILL_SERIALIZE_CYCLES)
        if noop_pf:
            base[item_of[is_pf]] = w[is_pf] * cfg.scalar_cpi
        va = np.flatnonzero(is_varith)
        vb = np.flatnonzero(is_vb)
        cid_va = _intern_rows(
            [i0[va], i1[va], i2[va]], lambda n, k, ew: ("a", n, k, ew),
            self.cls_ids, self.classes,
        )
        cid_vb = _intern_rows(
            [i0[vb]], lambda n: ("b", n), self.cls_ids, self.classes
        )

        # Walk events, in order; every one but a range note is an item.
        wk = np.flatnonzero(sm | is_vmem | is_nr)
        res = self.walk(self, op[wk], w[wk], i0[wk], i1[wk], i2[wk], i3[wk])
        wpos = item_of[wk[~is_nr[wk]]]  # program position of each walk item
        base[wpos] = res.price

        # Class items: the walk's L2 events and VPU-priced items plus
        # the compute events', in program order.
        ev_pos = wpos[res.ev_item]
        t6_pos = np.concatenate([wpos[res.m_item], item_of[va], item_of[vb]])
        is_cls = np.zeros(n_items, dtype=bool)
        is_cls[ev_pos] = True
        is_cls[t6_pos] = True
        slot = np.cumsum(is_cls) - 1 + self.n_cls  # class-item slot of each item
        order = np.argsort(t6_pos, kind="stable")
        t6_cls = _intern_rows(
            [np.concatenate([res.m_w, w[va], w[vb]])[order],
             np.concatenate([res.m_cid, cid_va, cid_vb])[order]],
            lambda x, cid: (6, x, cid), out.t6_ids, out.t6_defs,
        )
        out.extend("base", base)
        out.extend("cls_pos", self.n_items + np.flatnonzero(is_cls))
        out.extend("t6_at", slot[t6_pos[order]])
        out.extend("t6_cls", t6_cls)
        out.extend("ev_at", slot[ev_pos])
        out.extend("ev_key", res.ev_key)
        out.extend("ev_off", self.n_addrs + np.cumsum(res.ev_n))
        out.extend("addrs", res.addrs)
        out.side.extend((self.n_addrs + pos, it) for pos, it in res.side)
        # First touches: the chunk's first access to each L2 line that
        # no earlier chunk reached.  The lines so far stay at 32 bits
        # until one does not fit (isin and searchsorted would otherwise
        # widen the whole table on every chunk).
        u, first = np.unique(res.addrs >> cfg.l2_shift, return_index=True)
        if len(u) and int(u[-1]) > np.iinfo(self.lines.dtype).max:
            self.lines = self.lines.astype(np.int64)
        u = u.astype(self.lines.dtype)
        new = ~np.isin(u, self.lines, assume_unique=True)
        n_addrs = self.n_addrs + len(res.addrs)
        self.ft_pos.append(
            (self.n_addrs + np.sort(first[new])).astype(_uint_for(n_addrs))
        )
        u = u[new]
        self.lines = np.insert(self.lines, np.searchsorted(self.lines, u), u)
        self.n_items += n_items
        self.n_cls += int(np.count_nonzero(is_cls))
        self.n_addrs = n_addrs


def _shared_pass_vec(trace: RecordedTrace, base):
    """Column-arithmetic twin of ``replay._shared_pass_python``."""
    from .replay import _group_constants, _SkeletonBuilder  # deferred: import cycle

    cfg = _walk_config(base)
    cols = trace._columns()
    present = np.flatnonzero(np.bincount(cols[0], minlength=1)).tolist()
    bad = set(present) - _KNOWN_OPS
    if bad:
        raise ValueError(f"unknown trace opcode {sorted(bad)[0]}")
    out = _SkeletonBuilder()
    run = _Pass(cfg, out, trace.labels)
    rows = _CHUNK_ROWS
    for lo in range(0, trace.n_events, rows):
        run.chunk([c[lo:lo + rows] for c in cols], trace.vlen_bits)
    skel = out.build(
        cfg.l2_shift, run.lines,
        np.concatenate(run.ft_pos) if run.ft_pos else np.zeros(0, dtype=np.int64),
    )
    inv = SimStats()
    for name, value in run.counters.items():
        setattr(inv, name, value)
    return skel, inv, _group_constants(
        base, cfg.l2_shift, run.max_range_total, run.classes
    )
