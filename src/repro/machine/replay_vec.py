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

The *walk* events — scalar/vector memory accesses, honoured software
prefetches and residency-range notes — thread through the
TLB/L1/prefetcher/VectorCache state.  On a machine with no TLB, no L1
prefetcher and no honoured prefetches (the rvv/sve preset family) the
walk runs on arrays (:class:`_ArrayWalk`): each access expands into
the lines it walks, LRU kernels resolve the L1 and VectorCache hits,
and each event's outcome is a segment reduction over its lines.  Other
machines drive a real :class:`~repro.machine.replay._GroupCapture`
event by event (:class:`_CaptureWalk`).  Either walk returns one
:class:`_Outcome` per chunk: a float per walk item, its L2 events (key
and pending addresses), its VectorCache- or L1-served vector items and
its side notes.  Those are merged into the program at the walk events'
item positions.  The three walk-dependent invariant fields
(``l1_hits``, ``l1_misses``, ``vc_hits``) are folded by the walk, in
walk order.

Column identity with the reference loop (tag-6 classes compared through
their descriptors, whose numbering may differ) and hex identity of every
priced point are enforced across all machine presets, and across chunk
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
    _CHUNK_ROWS,
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

    Residency carries over as the resident lines, oldest first per set
    (:func:`~repro.machine.replay._lru_resident`), put in front of the
    next chunk's lines.
    """

    def __init__(self, num_sets: int, assoc: int):
        self.num_sets = num_sets
        self.assoc = assoc
        self.resident = np.zeros(0, dtype=np.int64)

    def hits(self, lines: np.ndarray) -> np.ndarray:
        from .replay import _lru_hits, _lru_resident  # deferred: import cycle

        if not len(lines):
            return np.zeros(0, dtype=bool)
        carried = len(self.resident)
        stream = np.concatenate([self.resident, lines])
        self.resident = _lru_resident(stream, self.num_sets, self.assoc)
        return _lru_hits(stream, self.num_sets, self.assoc)[carried:]


class _ArrayWalk:
    """The walk of a machine with no TLB, no L1 prefetcher and no
    honoured software prefetches, on arrays.

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
    lines.
    """

    def __init__(self, cap, out):
        self.cap = cap
        self.out = out
        self.l1 = _Level(cap._l1_num, cap._l1_assoc)
        self.vc = _Level(1, cap._vc_assoc) if cap._vc_set is not None else None
        self.occ_tab = np.zeros(1)  # occ_tab[k]: k misses' repeated fill_l1 sum

    def _occ1(self, misses: np.ndarray) -> np.ndarray:
        need = int(misses.max(initial=0)) + 1
        if need > len(self.occ_tab):
            steps = np.full(need, self.cap._fill_l1, dtype=np.float64)
            steps[0] = 0.0
            self.occ_tab = np.add.accumulate(steps)
        return self.occ_tab[misses]

    def __call__(self, o, w, addr, x1, x2, x3) -> _Outcome:
        cap = self.cap
        notes = np.flatnonzero(o == OP_NOTE_RANGE)
        note_args = list(zip(addr[notes].tolist(), x1[notes].tolist()))
        if len(notes):
            keep = o != OP_NOTE_RANGE
            o, w, addr, x1, x2, x3 = (c[keep] for c in (o, w, addr, x1, x2, x3))
        n = len(o)
        port_l1 = cap._port_l1
        scalar = (o == OP_SCALAR_LOAD) | (o == OP_SCALAR_STORE)
        write = (o == OP_SCALAR_STORE) | (o == OP_VSTORE)
        on_l1 = scalar | port_l1
        unit = ~scalar & ((x3 == 0) | (x3 == x2))
        strided = ~scalar & ~unit
        nbytes = np.where(scalar, x1, x1 * x2)
        shift = np.where(on_l1, cap._l1_shift, cap._l2_shift)

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
        lat = np.where(on_l1, cap._l1_lat * n_lines_walked, _VC_HIT_LATENCY * vch)
        cap._l1_hits_c = _fold(cap._l1_hits_c, w * l1h)
        cap._l1_misses_c = _fold(cap._l1_misses_c, w * l1m)
        cap._vc_hits_c = _fold(cap._vc_hits_c, w * vch)
        miss = ~hit
        addrs = lines[miss] << shift[line_ev[miss]]
        del lines, line_ev, hit, miss

        # Scalar accesses served by the L1: pre-priced floats.
        price = np.zeros(n)
        served = n_pend == 0
        flt = scalar & served
        price[flt] = w[flt] * cap._scalar_cpi
        stall_at = np.flatnonzero(flt & (lat > cap._l1_lat))
        if len(stall_at):
            hide = 1.0 - cap._ooo_hide
            stall = np.maximum(0.0, lat[stall_at] - cap._l1_lat) / _SCALAR_MLP
            stall *= np.where(write[stall_at], _STORE_STALL_FACTOR * hide, hide)
            price[stall_at] = w[stall_at] * (cap._scalar_cpi + stall + 0.0 + 0.0)

        # Vector accesses: n_lines is L1-granular on every machine.
        l1_line = cap._l1_line
        n_lines = np.where(
            unit, (addr + nbytes - 1) // l1_line - addr // l1_line + 1, x1
        )
        ev = np.flatnonzero(~served)
        sc = scalar[ev]
        ev_key = _intern_rows(
            [sc, w[ev], lat[ev], self._occ1(l1m[ev]),
             np.where(sc, 0, nbytes[ev]), np.where(sc, 0, n_lines[ev]),
             write[ev], unit[ev]],
            _ev_key, self.out.ev_ids, self.out.ev_defs,
        )
        m_item = np.flatnonzero(~scalar & served)
        m_cid = _intern_rows(
            [lat[m_item], nbytes[m_item], n_lines[m_item], write[m_item],
             unit[m_item]],
            _vmem_class, cap._cls_ids, cap._classes,
        )

        # Range notes, at the address count of the accesses before them.
        side = []
        if len(notes):
            before = np.concatenate([[0], np.cumsum(n_pend)])
            at = before[notes - np.arange(len(notes))].tolist()
            for pos, (base, size) in zip(at, note_args):
                cap._track_range(base, size)
                side.append((pos, (2, base, size)))
        return _Outcome(
            price, ev, ev_key, n_pend[ev], addrs, m_item, w[m_item], m_cid, side
        )


class _CaptureWalk:
    """The walk of any other machine: its :class:`_GroupCapture` driven
    event by event (:func:`_walk_events`).

    The capture's program columns are swapped for fresh ones per chunk
    and read back as an :class:`_Outcome`; its key tables persist, the
    L2 event keys being the pass's own.
    """

    def __init__(self, cap, out):
        self.cap = cap
        cap._sk.ev_ids, cap._sk.ev_defs = out.ev_ids, out.ev_defs

    def __call__(self, o, w, a0, a1, a2, a3) -> _Outcome:
        from .replay import _SkeletonBuilder  # deferred: import cycle

        cap = self.cap
        old, sk = cap._sk, _SkeletonBuilder()
        sk.ev_ids, sk.ev_defs = old.ev_ids, old.ev_defs
        sk.t6_ids, sk.t6_defs = old.t6_ids, old.t6_defs
        cap._sk = sk
        cap._put = sk.base.append
        _walk_events(
            cap, o.tolist(), w.tolist(), a0.tolist(), a1.tolist(),
            a2.tolist(), a3.tolist(),
        )

        def col(buf):
            return np.frombuffer(buf, dtype=np.int64)

        cls_pos = col(sk.cls_pos)
        t6 = col(sk.t6_cls)
        ws = np.array([d[1] for d in sk.t6_defs], dtype=np.float64)
        cids = np.array([d[2] for d in sk.t6_defs], dtype=np.int64)
        return _Outcome(
            np.frombuffer(sk.base, dtype=np.float64), cls_pos[col(sk.ev_at)],
            col(sk.ev_key), np.diff(col(sk.ev_off)), col(sk.addrs),
            cls_pos[col(sk.t6_at)], ws[t6], cids[t6], sk.side,
        )


def _walk_events(cap, ops, ws, a0, a1, a2, a3) -> None:
    """Drive the capture's own event methods over walk events."""
    vmem = cap._vmem
    scalar_mem = cap._scalar_mem
    note_range = cap.note_resident_range
    sw_prefetch = cap.sw_prefetch
    cur_w = cap._w
    for j in range(len(ops)):
        wv = ws[j]
        if wv != cur_w:
            cap._w = cur_w = wv
        o = ops[j]
        if o == OP_VLOAD:
            vmem(a0[j], a1[j], a2[j], a3[j], False)
        elif o == OP_VSTORE:
            vmem(a0[j], a1[j], a2[j], a3[j], True)
        elif o == OP_SCALAR_LOAD:
            scalar_mem(a0[j], a1[j], False)
        elif o == OP_SCALAR_STORE:
            scalar_mem(a0[j], a1[j], True)
        elif o == OP_NOTE_RANGE:
            note_range(a0[j], a1[j])
        else:  # honoured OP_SW_PREFETCH
            sw_prefetch(a0[j], a1[j], "L1" if a2[j] == 0 else "L2")


def _append(buf, values, dtype) -> None:
    """Append a NumPy column to an ``array`` buffer of the same item type."""
    buf.frombytes(np.ascontiguousarray(values, dtype=dtype).view(np.uint8))


class _Pass:
    """The shared pass's state between row chunks, and its output.

    Counters fold across chunks; labels, classes and keys intern into
    tables that persist (the output :class:`_SkeletonBuilder`'s and the
    capture's); item, class-item and address positions continue from
    the chunks before.
    """

    def __init__(self, cap, out, labels):
        self.cap = cap
        self.out = out
        self.trace_labels = labels
        self.label_of = np.full(len(labels), -1, dtype=np.int64)
        self.n_items = self.n_cls = self.n_addrs = 0
        self.lines = np.zeros(0, dtype=np.int64)  # distinct L2 lines so far
        self.ft_pos: list = []  # first-touch address positions, per chunk
        self.counters = dict.fromkeys(
            ("scalar_instrs", "vec_instrs", "vec_mem_instrs", "vec_elems",
             "flops", "bytes_loaded", "bytes_stored", "sw_prefetches",
             "spills"), 0.0,
        )
        fast = cap._tlb is None and cap._pf1 is None and not cap._honors
        self.walk = (_ArrayWalk if fast else _CaptureWalk)(cap, out)

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
        _append(out.sw_pos, self.n_items + switch, np.int64)
        _append(out.sw_kid, ids[switch], np.int64)

    def chunk(self, cols, vlen_bits: int) -> None:
        cap, out, acc = self.cap, self.out, self.counters
        op, w, kid, i0, i1, i2, i3, f0 = _expand_spills(cols, vlen_bits)
        honors = cap._honors
        noop_pf = cap._noop_pf
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
        if noop_pf and not honors:
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
        if honors:
            acc["sw_prefetches"] = _fold(
                acc["sw_prefetches"], np.where(is_pf, w, 0.0)
            )
        acc["spills"] = _fold(acc["spills"], np.where(is_tail, w * i0, 0.0))
        del c

        # Items: one per event that adds cycles, in event order.
        has_item = is_scalar | sm | is_vmem | is_varith | is_vb | is_tail
        if honors or noop_pf:
            has_item |= is_pf
        item_ev = np.flatnonzero(has_item)
        n_items = len(item_ev)
        item_of = np.cumsum(has_item) - 1  # item index of each item event
        self._labels(kid[item_ev].astype(np.int64))
        base = np.zeros(n_items)
        base[item_of[is_scalar]] = w[is_scalar] * (i0[is_scalar] * cap._scalar_cpi)
        base[item_of[is_tail]] = w[is_tail] * (i0[is_tail] * _SPILL_SERIALIZE_CYCLES)
        if noop_pf and not honors:
            base[item_of[is_pf]] = w[is_pf] * cap._scalar_cpi
        va = np.flatnonzero(is_varith)
        vb = np.flatnonzero(is_vb)
        cid_va = _intern_rows(
            [i0[va], i1[va], i2[va]], lambda n, k, ew: ("a", n, k, ew),
            cap._cls_ids, cap._classes,
        )
        cid_vb = _intern_rows(
            [i0[vb]], lambda n: ("b", n), cap._cls_ids, cap._classes
        )

        # Walk events, in order; every one but a range note is an item.
        walk = sm | is_vmem | is_nr
        if honors:
            walk |= is_pf
        wk = np.flatnonzero(walk)
        res = self.walk(op[wk], w[wk], i0[wk], i1[wk], i2[wk], i3[wk])
        wpos = item_of[wk[~is_nr[wk]]]  # program position of each walk item
        if len(res.price) != len(wpos):
            raise AssertionError(
                f"walk emitted {len(res.price)} items, layout reserved "
                f"{len(wpos)} (engine out of lock-step)"
            )
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
        _append(out.base, base, np.float64)
        _append(out.cls_pos, self.n_items + np.flatnonzero(is_cls), np.int64)
        _append(out.t6_at, slot[t6_pos[order]], np.int64)
        _append(out.t6_cls, t6_cls, np.int64)
        _append(out.ev_at, slot[ev_pos], np.int64)
        _append(out.ev_key, res.ev_key, np.int64)
        _append(out.ev_off, self.n_addrs + np.cumsum(res.ev_n), np.int64)
        _append(out.addrs, res.addrs, np.int64)
        out.side.extend((self.n_addrs + pos, it) for pos, it in res.side)
        # First touches: the chunk's first access to each L2 line that
        # no earlier chunk reached.
        u, first = np.unique(res.addrs >> cap._l2_shift, return_index=True)
        new = ~np.isin(u, self.lines, assume_unique=True)
        self.ft_pos.append(self.n_addrs + np.sort(first[new]))
        u = u[new]
        self.lines = np.insert(self.lines, np.searchsorted(self.lines, u), u)
        self.n_items += n_items
        self.n_cls += int(np.count_nonzero(is_cls))
        self.n_addrs += len(res.addrs)


def _shared_pass_vec(trace: RecordedTrace, base):
    """Column-arithmetic twin of ``replay._shared_pass_python``."""
    from .replay import _GroupCapture, _SkeletonBuilder  # deferred: import cycle

    cols = trace._columns()
    present = np.flatnonzero(np.bincount(cols[0], minlength=1)).tolist()
    bad = set(present) - _KNOWN_OPS
    if bad:
        raise ValueError(f"unknown trace opcode {sorted(bad)[0]}")
    cap = _GroupCapture(base)
    # Pinned label: the capture records outcomes only, never labels.
    cap._cur_label = cap._kernel_stack[-1]
    out = _SkeletonBuilder()
    run = _Pass(cap, out, trace.labels)
    rows = _CHUNK_ROWS
    for lo in range(0, trace.n_events, rows):
        run.chunk([c[lo:lo + rows] for c in cols], trace.vlen_bits)
    skel = out.build(
        cap._l2_shift, run.lines,
        np.concatenate(run.ft_pos) if run.ft_pos else np.zeros(0, dtype=np.int64),
    )

    inv = SimStats()
    for name, value in run.counters.items():
        setattr(inv, name, value)
    inv.l1_hits = cap._l1_hits_c
    inv.l1_misses = cap._l1_misses_c
    inv.vc_hits = cap._vc_hits_c
    return skel, inv, cap.constants()
