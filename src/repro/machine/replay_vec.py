"""Vectorized shared pass: NumPy column arithmetic over a recorded trace.

:func:`_shared_pass_vec` produces the same ``(skeleton, inv, gc)``
triple as the per-event reference loop in :mod:`repro.machine.replay`
(``_shared_pass_python``) — the shared-pass program as
:class:`~repro.machine.replay._Skeleton` columns — but lowers
everything that does not read mutable cache state to NumPy column
arithmetic over the trace's columnar arrays:

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
  interned with ``np.unique`` (one class per distinct shape), and the
  tag-6 keys ``(6, w, cid)`` of every VPU-priced item in first-occurrence
  order.

Only the *walk* events — scalar/vector memory accesses, honoured
software prefetches and residency-range notes, whose outcome threads
through the TLB/L1/prefetcher/VectorCache state — still run
sequentially.  They are driven through a real
:class:`~repro.machine.replay._GroupCapture` (or its flattened
transcription :func:`_walk_events_fast`), which records one outcome per
walk event in its own columns: a float, a VPU-priced item, an L2 event
(key and pending addresses), or a side note.  Those columns are merged
into the program at the walk events' precomputed item positions; the L2
event, address and side columns carry over unchanged, since only walk
events produce them.  The three walk-dependent invariant fields
(``l1_hits``, ``l1_misses``, ``vc_hits``) are taken from that capture —
they are only ever touched by walk events, in walk order, so the fold is
unchanged.

Column identity with the reference loop (tag-6 classes compared through
their descriptors, whose numbering may differ) and hex identity of every
priced point are enforced across all machine presets by
tests/test_replay_vec.py.
"""

from __future__ import annotations

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

#: Walk events whose operands are Python lists at any one time.
_WALK_CHUNK = 1 << 16

#: Internal pseudo-opcode for the serialization tail of an expanded
#: OP_SPILL row (never appears in a trace; must not collide with real
#: opcodes above).
_OP_SPILL_TAIL = 250


def _expand_spills(cols, vlen_bits: int):
    """Expand OP_SPILL rows into their vstore/vload/tail sub-events.

    ``TraceSimulator.spill(n)`` issues, per register, one full-vector
    store and reload at stack address 0, then a serialization penalty —
    the reference loop replays that expansion event by event, and the
    counter folds (``acc += w`` once per sub-event) are only exact if
    the column engine sees the same sub-event rows.  Returns the eight
    expanded columns; cheap no-op when the trace has no spills.
    """
    op, w, kid, i0, i1, i2, i3, f0 = cols
    spill = op == OP_SPILL
    if not spill.any():
        return op, w, kid, i0, i1, i2, i3, f0
    counts = np.ones(len(op), dtype=np.int64)
    counts[spill] = 2 * i0[spill] + 1
    idx = np.repeat(np.arange(len(op), dtype=np.int64), counts)
    opx = op[idx].astype(np.int64)  # room for _OP_SPILL_TAIL
    wx = w[idx]
    kidx = kid[idx]
    i0x = i0[idx].copy()
    i1x = i1[idx].copy()
    i2x = i2[idx].copy()
    i3x = i3[idx].copy()
    f0x = f0[idx]
    # Position of each expanded row inside its source row's group.
    starts = np.zeros(len(op) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    sub = np.arange(len(idx), dtype=np.int64) - starts[idx]
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


def _acc(col) -> float:
    """Strict left-to-right fold of a contribution column."""
    if len(col) == 0:
        return 0.0
    return float(np.add.accumulate(col)[-1])


def _unique_shapes(x0, x1, x2):
    """``np.unique(axis=0)`` minus the row argsort.

    Packs the three non-negative shape columns into one int64 key, so
    the unique runs on a flat integer array (an order of magnitude
    cheaper than the lexicographic row sort).  Falls back to the axis
    path when the packed range could overflow.  Returns
    ``(first_index, inverse)``; the distinct rows themselves are read
    back through ``first_index``.
    """
    m1 = int(x1.max()) + 1
    m2 = int(x2.max()) + 1
    if (int(x0.max()) + 1) * m1 * m2 < (1 << 62):
        key = (x0 * m1 + x1) * m2 + x2
    else:  # pragma: no cover - pathological shape magnitudes
        key = np.stack([x0, x1, x2], axis=1)
        _, first, inverse = np.unique(
            key, axis=0, return_index=True, return_inverse=True
        )
        return first, np.asarray(inverse).reshape(-1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, np.asarray(inverse).reshape(-1)




def _walk_events_fast(cap, ops, ws, a0, a1, a2, a3) -> None:
    """Specialized walk loop for TLB-less, prefetcher-less configs.

    A transcription of ``_GroupCapture._scalar_mem`` / ``_vmem`` /
    ``note_resident_range`` with every per-event attribute load hoisted
    into a local and the method-call dispatch flattened into one loop —
    the arithmetic (operation, operand order, accumulation order) is
    kept exactly lock-step with the reference, and
    tests/test_replay_vec.py enforces column identity against it.  Only
    valid when ``cap._tlb is None and cap._pf1 is None and not
    cap._honors`` (the rvv/sve preset family); richer configs take the
    ``_GroupCapture``-driven loop :func:`_walk_events`.

    Outcomes go straight to the capture's columns (an L2 event's appends
    inlined, as in ``_GroupCapture._l2_item``); the three walk counters
    are accumulated locally and written back.
    """
    sk = cap._sk
    base = sk.base
    put = base.append
    cls_pos = sk.cls_pos
    cls_append = cls_pos.append
    ev_at_append = sk.ev_at.append
    ev_key_append = sk.ev_key.append
    ev_defs = sk.ev_defs
    ev_ids = sk.ev_ids
    addrs = sk.addrs
    off_append = sk.ev_off.append
    vpu_item = cap._vpu_item
    t6_id = cap._t6_id
    note_range = cap.note_resident_range
    port_l1 = cap._port_l1
    l1_line = cap._l1_line
    l1_shift = cap._l1_shift
    l2_shift = cap._l2_shift
    l1_lat = cap._l1_lat
    fill_l1 = cap._fill_l1
    l1_sets = cap._l1_sets
    l1_num = cap._l1_num
    l1_assoc = cap._l1_assoc
    vc_set = cap._vc_set
    vc_assoc = cap._vc_assoc
    l1_mul = cap._l1_step.__mul__
    v_mul = cap._v_step.__mul__
    scalar_cpi = cap._scalar_cpi
    ooo_hide = cap._ooo_hide
    vmem_memo = cap._vmem_memo
    l1_hits_c = cap._l1_hits_c
    l1_misses_c = cap._l1_misses_c
    vc_hits_c = cap._vc_hits_c
    op_vl, op_vs = OP_VLOAD, OP_VSTORE
    op_sl, op_ss = OP_SCALAR_LOAD, OP_SCALAR_STORE
    for j in range(len(ops)):
        o = ops[j]
        w = ws[j]
        if o == op_sl or o == op_ss:
            addr = a0[j]
            nbytes = a1[j]
            write = o == op_ss
            first = addr >> l1_shift
            last = (addr + nbytes - 1) >> l1_shift
            if first == last:
                # Single-line fast path (lat_i == 0 without a TLB).
                ways = l1_sets[first % l1_num]
                dirty = ways.pop(first, None)
                if dirty is not None:
                    ways[first] = dirty or write
                    l1_hits_c += w
                    put(w * scalar_cpi)
                    continue
                ways[first] = write
                if len(ways) > l1_assoc:
                    ways.pop(next(iter(ways)))
                l1_misses_c += w * 1
                key = (4, w, l1_lat, 0.0 + fill_l1, write)
                ev_addrs = (first << l1_shift,)
            else:
                lat_i = 0
                occ1 = 0.0
                l1h = l1m = 0
                pend = []
                for la in range(first, last + 1):
                    ways = l1_sets[la % l1_num]
                    dirty = ways.pop(la, None)
                    if dirty is not None:
                        ways[la] = dirty or write
                        lat_i += l1_lat
                        l1h += 1
                        continue
                    ways[la] = write
                    if len(ways) > l1_assoc:
                        ways.pop(next(iter(ways)))
                    l1m += 1
                    occ1 += fill_l1
                    lat_i += l1_lat
                    pend.append(la)
                l1_hits_c += w * l1h
                if l1m:
                    l1_misses_c += w * l1m
                if not pend:
                    d = lat_i - l1_lat
                    if d > 0:
                        stall = max(0.0, d) / _SCALAR_MLP
                        if write:
                            stall *= _STORE_STALL_FACTOR * (1.0 - ooo_hide)
                        else:
                            stall *= 1.0 - ooo_hide
                        put(w * (scalar_cpi + stall + 0.0 + 0.0))
                    else:
                        put(w * scalar_cpi)
                    continue
                key = (4, w, lat_i, occ1, write)
                ev_addrs = map(l1_mul, pend)
        elif o == op_vl or o == op_vs:
            addr = a0[j]
            n_elems = a1[j]
            ew = a2[j]
            stride = a3[j]
            write = o == op_vs
            nbytes = n_elems * ew
            vch = 0
            if stride == 0 or stride == ew:
                unit = True
                n_lines = (addr + nbytes - 1) // l1_line - addr // l1_line + 1
                if port_l1:
                    lat_i = 0
                    first = addr >> l1_shift
                    last = (addr + nbytes - 1) >> l1_shift
                    occ1 = 0.0
                    l1h = l1m = 0
                    pend = []
                    for la in range(first, last + 1):
                        ways = l1_sets[la % l1_num]
                        dirty = ways.pop(la, None)
                        if dirty is not None:
                            ways[la] = dirty or write
                            lat_i += l1_lat
                            l1h += 1
                            continue
                        ways[la] = write
                        if len(ways) > l1_assoc:
                            ways.pop(next(iter(ways)))
                        l1m += 1
                        occ1 += fill_l1
                        lat_i += l1_lat
                        pend.append(la)
                else:
                    lat_i = 0
                    first = addr >> l2_shift
                    last = (addr + nbytes - 1) >> l2_shift
                    if vc_set is not None:
                        pend = []
                        vc_pop = vc_set.pop
                        vc_len = len(vc_set)
                        for la in range(first, last + 1):
                            dirty = vc_pop(la, None)
                            if dirty is not None:
                                vc_set[la] = dirty or write
                                lat_i += _VC_HIT_LATENCY
                                vch += 1
                                continue
                            vc_set[la] = write
                            if vc_len >= vc_assoc:
                                vc_pop(next(iter(vc_set)))
                            else:
                                vc_len += 1
                            pend.append(la)
                    else:
                        pend = range(first, last + 1)
                    occ1 = 0.0
                    l1h = l1m = 0
            else:
                unit = False
                n_lines = n_elems
                if port_l1:
                    lat_i = 0
                    occ1 = 0.0
                    l1h = l1m = 0
                    pend = []
                    prev_line = -1
                    for idx in range(n_elems):
                        a = addr + idx * stride
                        end = a + ew - 1
                        first = a >> l1_shift
                        last = end >> l1_shift
                        if first == last == prev_line:
                            ways = l1_sets[first % l1_num]
                            dirty = ways.pop(first, None)
                            if dirty is not None:
                                ways[first] = dirty or write
                                lat_i += l1_lat
                                l1h += 1
                                continue
                        for la in range(first, last + 1):
                            ways = l1_sets[la % l1_num]
                            dirty = ways.pop(la, None)
                            if dirty is not None:
                                ways[la] = dirty or write
                                lat_i += l1_lat
                                l1h += 1
                                continue
                            ways[la] = write
                            if len(ways) > l1_assoc:
                                ways.pop(next(iter(ways)))
                            l1m += 1
                            occ1 += fill_l1
                            lat_i += l1_lat
                            pend.append(la)
                        prev_line = last
                else:
                    lat_i = 0
                    pend = []
                    prev_line = -1
                    for idx in range(n_elems):
                        a = addr + idx * stride
                        end = a + ew - 1
                        first = a >> l2_shift
                        last = end >> l2_shift
                        if first == last == prev_line:
                            if vc_set is not None:
                                vc_set[first] = vc_set.pop(first) or write
                                lat_i += _VC_HIT_LATENCY
                                vch += 1
                            else:
                                pend.append(first)
                            continue
                        for la in range(first, last + 1):
                            if vc_set is not None:
                                dirty = vc_set.pop(la, None)
                                if dirty is not None:
                                    vc_set[la] = dirty or write
                                    lat_i += _VC_HIT_LATENCY
                                    vch += 1
                                    continue
                                vc_set[la] = write
                                if len(vc_set) > vc_assoc:
                                    vc_set.pop(next(iter(vc_set)))
                            pend.append(la)
                        prev_line = last
                    occ1 = 0.0
                    l1h = l1m = 0
            if l1h:
                l1_hits_c += w * l1h
            if l1m:
                l1_misses_c += w * l1m
            if vch:
                vc_hits_c += w * vch
            if not pend:
                mkey = (w, lat_i, occ1, nbytes, n_lines, write, unit)
                t6 = vmem_memo.get(mkey)
                if t6 is None:
                    t6 = vmem_memo[mkey] = t6_id(
                        w, ("m", lat_i, occ1, nbytes, n_lines, write, unit)
                    )
                vpu_item(t6)
                continue
            key = (3, w, lat_i, occ1, nbytes, n_lines, write, unit)
            ev_addrs = map(v_mul, pend)
        else:  # OP_NOTE_RANGE (rare)
            note_range(a0[j], a1[j])
            continue
        # An L2 event: its interned key, its class item, its addresses.
        k = ev_ids.get(key)
        if k is None:
            k = ev_ids[key] = len(ev_defs)
            ev_defs.append(key)
        ev_key_append(k)
        ev_at_append(len(cls_pos))
        cls_append(len(base))
        put(0.0)
        addrs.extend(ev_addrs)
        off_append(len(addrs))
    cap._l1_hits_c = l1_hits_c
    cap._l1_misses_c = l1_misses_c
    cap._vc_hits_c = vc_hits_c


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


def _first_appearance_labels(item_kids, trace_labels):
    """Renumber trace kernel ids by first appearance among the items.

    The program switches labels lazily, only ahead of an item, so its
    label table is the items' labels in first-appearance order.
    Returns ``(labels, kid column)``.
    """
    labels: list = []
    ids: dict = {}
    remap = np.zeros(len(trace_labels), dtype=np.int64)
    if len(item_kids):
        u, first = np.unique(item_kids, return_index=True)
        for k in u[np.argsort(first)].tolist():
            name = trace_labels[k]
            lid = ids.get(name)
            if lid is None:
                lid = ids[name] = len(labels)
                labels.append(name)
            remap[k] = lid
    return labels, remap[item_kids]


def _compute_classes(cap, va, vb, i0, i1, i2):
    """Pricing-class ids of the ``varith`` (*va*) and ``vbroadcast``
    (*vb*) events.

    One class per distinct shape, interned into the capture's class
    table in first-occurrence order — ahead of the walk's ``"m"``
    classes, so ids may differ from the reference loop's interleaving;
    every point resolves ``prices[cid]`` through the same table, so no
    price changes.
    """
    keydefs = []  # (first event, descriptor, 0 = varith / 1 = vbroadcast, shape)
    inverses = [np.zeros(0, np.int64), np.zeros(0, np.int64)]
    n_shapes = [0, 0]
    if len(va):
        x0, x1, x2 = i0[va], i1[va], i2[va]
        first, inverses[0] = _unique_shapes(x0, x1, x2)
        n_shapes[0] = len(first)
        for k, fi in enumerate(first.tolist()):
            keydefs.append(
                (int(va[fi]), ("a", int(x0[fi]), int(x1[fi]), int(x2[fi])), 0, k)
            )
    if len(vb):
        uniq, first, inverse = np.unique(
            i0[vb], return_index=True, return_inverse=True
        )
        inverses[1] = np.asarray(inverse).reshape(-1)
        n_shapes[1] = len(uniq)
        for k, fi in enumerate(first.tolist()):
            keydefs.append((int(vb[fi]), ("b", int(uniq[k])), 1, k))
    keydefs.sort(key=lambda t: t[0])
    cids = [np.empty(n_shapes[0], np.int64), np.empty(n_shapes[1], np.int64)]
    for _, defn, kind, k in keydefs:
        cids[kind][k] = cap._class_id(defn)
    return cids[0][inverses[0]], cids[1][inverses[1]]


def _intern_t6(t6_w, t6_c):
    """First-occurrence ids of the ``(6, w, cid)`` keys of VPU-priced items.

    Returns ``(ids, defs)``: each item's index into ``defs``, the
    distinct keys in order of first occurrence.
    """
    if not len(t6_w):
        return np.zeros(0, np.int64), []
    wu, winv = np.unique(t6_w, return_inverse=True)
    packed = t6_c * len(wu) + np.asarray(winv).reshape(-1)
    _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(first), np.int64)
    rank[order] = np.arange(len(first))
    f = first[order]
    defs = [(6, x, c) for x, c in zip(t6_w[f].tolist(), t6_c[f].tolist())]
    return rank[np.asarray(inverse).reshape(-1)], defs


def _shared_pass_vec(trace: RecordedTrace, base):
    """Column-arithmetic twin of ``replay._shared_pass_python``."""
    from .replay import _GroupCapture, _Skeleton  # deferred: import cycle

    cap = _GroupCapture(base)
    cols = trace._columns()
    known = {
        OP_SCALAR, OP_SCALAR_LOAD, OP_SCALAR_STORE, OP_VLOAD, OP_VSTORE,
        OP_VARITH, OP_VBROADCAST, OP_SW_PREFETCH, OP_COUNT_FLOPS,
        OP_SPILL, OP_NOTE_RANGE,
    }
    present = set(np.unique(cols[0]).tolist())
    bad = present - known
    if bad:
        raise ValueError(f"unknown trace opcode {sorted(bad)[0]}")
    op, w, kid, i0, i1, i2, i3, f0 = _expand_spills(cols, trace.vlen_bits)
    n = len(op)
    if op.dtype != np.int64:
        op = op.astype(np.int64)
    kid = kid.astype(np.int64)

    honors = cap._honors
    noop_pf = cap._noop_pf

    is_scalar = op == OP_SCALAR
    is_sload = op == OP_SCALAR_LOAD
    is_sstore = op == OP_SCALAR_STORE
    is_vload = op == OP_VLOAD
    is_vstore = op == OP_VSTORE
    is_vmem = is_vload | is_vstore
    is_varith = (op == OP_VARITH) & (i0 > 0) & (i1 > 0)
    is_vb = op == OP_VBROADCAST
    is_pf = op == OP_SW_PREFETCH
    is_cf = op == OP_COUNT_FLOPS
    is_nr = op == OP_NOTE_RANGE
    is_tail = op == _OP_SPILL_TAIL

    # ------------------------------------------------------------------
    # Pure invariant counters — exact operand order of the reference
    # loop per event kind, folded left-to-right over all events.
    # ------------------------------------------------------------------
    zeros = np.zeros(n, dtype=np.float64)
    c = zeros.copy()  # scalar_instrs
    c[is_scalar] = w[is_scalar] * i0[is_scalar]
    sm = is_sload | is_sstore
    c[sm] = w[sm]
    if noop_pf and not honors:
        c[is_pf] = w[is_pf]
    scalar_instrs = _acc(c)

    c = zeros.copy()  # vec_instrs
    c[is_vmem] = w[is_vmem]
    c[is_varith] = w[is_varith] * i1[is_varith]
    c[is_vb] = w[is_vb] * i0[is_vb]
    vec_instrs = _acc(c)

    vec_mem_instrs = _acc(np.where(is_vmem, w, 0.0))
    c = zeros.copy()  # vec_elems
    c[is_vmem] = w[is_vmem] * i1[is_vmem]
    c[is_varith] = (w[is_varith] * i1[is_varith]) * i0[is_varith]
    vec_elems = _acc(c)

    c = zeros.copy()  # flops
    c[is_varith] = (
        (w[is_varith] * i1[is_varith]) * i0[is_varith]
    ) * f0[is_varith]
    c[is_cf] = w[is_cf] * f0[is_cf]
    flops = _acc(c)

    c = zeros.copy()  # bytes_loaded:  vmem nbytes = n_elems * ew (int)
    ld = is_vload
    c[ld] = w[ld] * (i1[ld] * i2[ld])
    c[is_sload] = w[is_sload] * i1[is_sload]
    bytes_loaded = _acc(c)

    c = zeros.copy()  # bytes_stored
    st = is_vstore
    c[st] = w[st] * (i1[st] * i2[st])
    c[is_sstore] = w[is_sstore] * i1[is_sstore]
    bytes_stored = _acc(c)

    sw_prefetches = _acc(np.where(is_pf, w, 0.0)) if honors else 0.0
    spills = _acc(np.where(is_tail, w * i0, 0.0))
    del c, zeros

    # ------------------------------------------------------------------
    # Items: one per event that adds cycles, in event order.
    # ------------------------------------------------------------------
    has_item = is_scalar | sm | is_vmem | is_varith | is_vb | is_tail
    if honors or noop_pf:
        has_item |= is_pf
    item_ev = np.flatnonzero(has_item)
    n_items = len(item_ev)
    item_of = np.cumsum(has_item) - 1  # item index of each item event
    labels, item_kid = _first_appearance_labels(kid[item_ev], trace.labels)
    base_col = np.zeros(n_items, dtype=np.float64)
    base_col[item_of[is_scalar]] = w[is_scalar] * (i0[is_scalar] * cap._scalar_cpi)
    base_col[item_of[is_tail]] = w[is_tail] * (
        i0[is_tail] * _SPILL_SERIALIZE_CYCLES
    )
    if noop_pf and not honors:
        base_col[item_of[is_pf]] = w[is_pf] * cap._scalar_cpi
    va = np.flatnonzero(is_varith)
    vb = np.flatnonzero(is_vb)
    cid_va, cid_vb = _compute_classes(cap, va, vb, i0, i1, i2)

    # ------------------------------------------------------------------
    # Walk events: sequential, through the real _GroupCapture (the one
    # place the TLB/L1/prefetcher/VC logic lives).  Pinning its label
    # state leaves its label columns empty: it records outcomes only,
    # one item per walk event but range notes, in walk order.
    # ------------------------------------------------------------------
    cap._cur_label = cap._kernel_stack[-1]
    walk = sm | is_vmem | is_nr
    if honors:
        walk |= is_pf
    wk = np.flatnonzero(walk)
    # The flattened transcription serves the hot configuration (rvv/sve
    # preset family).  Operands become Python lists a chunk at a time.
    fast = cap._tlb is None and cap._pf1 is None and not honors
    walk_events = _walk_events_fast if fast else _walk_events
    for lo in range(0, len(wk), _WALK_CHUNK):
        sel = wk[lo:lo + _WALK_CHUNK]
        walk_events(
            cap, op[sel].tolist(), w[sel].tolist(), i0[sel].tolist(),
            i1[sel].tolist(), i2[sel].tolist(), i3[sel].tolist(),
        )
    out = cap._sk
    wpos = item_of[wk[~is_nr[wk]]]  # program position of each walk outcome
    if len(out.base) != len(wpos):
        raise AssertionError(
            f"walk emitted {len(out.base)} items, layout reserved "
            f"{len(wpos)} (engine out of lock-step)"
        )
    base_col[wpos] = np.frombuffer(out.base, dtype=np.float64)

    # ------------------------------------------------------------------
    # Class items: the walk's L2 events and "m" items plus the compute
    # events' VPU-priced items, merged in program order.
    # ------------------------------------------------------------------
    w_cls = wpos[np.frombuffer(out.cls_pos, dtype=np.int64)]
    c_items = np.concatenate([item_of[va], item_of[vb]])
    is_cls = np.zeros(n_items, dtype=bool)
    is_cls[w_cls] = True
    is_cls[c_items] = True
    cls_pos = np.flatnonzero(is_cls)
    slot = np.cumsum(is_cls) - 1  # class-item slot of each item
    ev_at = slot[w_cls[np.frombuffer(out.ev_at, dtype=np.int64)]]
    w_t6 = np.frombuffer(out.t6_cls, dtype=np.int64)
    t6_item = np.concatenate(
        [w_cls[np.frombuffer(out.t6_at, dtype=np.int64)], c_items]
    )
    t6_w = np.concatenate([
        np.array([d[1] for d in out.t6_defs], dtype=np.float64)[w_t6],
        w[va], w[vb],
    ])
    t6_c = np.concatenate([
        np.array([d[2] for d in out.t6_defs], dtype=np.int64)[w_t6],
        cid_va, cid_vb,
    ])
    order = np.argsort(t6_item, kind="stable")
    t6_cls, t6_defs = _intern_t6(t6_w[order], t6_c[order])
    skel = _Skeleton(
        cap._l2_shift,
        base=base_col,
        kid=item_kid,
        labels=labels,
        cls_pos=cls_pos,
        t6_at=slot[t6_item[order]],
        t6_cls=t6_cls,
        t6_defs=t6_defs,
        ev_at=ev_at,
        ev_key=np.frombuffer(out.ev_key, dtype=np.int64),
        ev_defs=out.ev_defs,
        ev_off=np.frombuffer(out.ev_off, dtype=np.int64),
        addrs=np.frombuffer(out.addrs, dtype=np.int64),
        side=out.side,
    )

    inv = SimStats()
    inv.scalar_instrs = scalar_instrs
    inv.vec_instrs = vec_instrs
    inv.vec_mem_instrs = vec_mem_instrs
    inv.vec_elems = vec_elems
    inv.flops = flops
    inv.bytes_loaded = bytes_loaded
    inv.bytes_stored = bytes_stored
    inv.l1_hits = cap._l1_hits_c
    inv.l1_misses = cap._l1_misses_c
    inv.vc_hits = cap._vc_hits_c
    inv.sw_prefetches = sw_prefetches
    inv.spills = spills
    gc = {
        "vpu": cap._vpu,
        "port_l1": cap._port_l1,
        "l1_lat": cap._l1_lat,
        "ooo_hide": cap._ooo_hide,
        "scalar_cpi": cap._scalar_cpi,
        "l2_shift": cap._l2_shift,
        "max_range_total": cap._max_range_total,
        "has_fills": cap._has_fills,
        "pf2_cfg": cap._pf2_cfg,
        "classes": cap._classes,
    }
    return skel, inv, gc
