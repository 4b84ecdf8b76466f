"""Replay recorded kernel traces against one or many design points.

Two entry points price a trace, and one runs the kernels:

* :func:`replay` — feed a :class:`~repro.machine.trace.RecordedTrace`
  back through a regular :class:`~repro.machine.simulator.TraceSimulator`
  event by event.  Skips all kernel-side work (loop bookkeeping, address
  arithmetic, policy dispatch) but re-prices every event; bitwise
  identical to direct simulation by construction, since it calls the
  very same event methods with the very same arguments and weights.
  It is the oracle the group engines are tested against.

* :func:`replay_sweep` — price one trace on a whole *group* of machines
  that differ only in L2 geometry/latency and DRAM parameters (the
  paper's Fig. 7/8 cache sweeps) or only in VPU pricing parameters —
  lanes, pipes, MLP, port width, issue overheads (the Fig. 6/8 lane
  and MLP axes).  The trace is walked **once** through the
  group-invariant upstream levels (TLB, L1, prefetcher, VectorCache
  — all identical across the group), producing a compact *program* of
  pre-priced invariant cycle contributions plus the per-event list of
  line addresses that reached the L2.  The VPU-dependent cycle terms
  are not pre-priced: the shared pass records each distinct (event
  kind, element count, operand shape) as a *pricing class* (tag-6
  program items), and every point resolves the class table once
  against its own VPU — so one capture prices a lane sweep too.

* :func:`capture_sweep` — the same split driven directly by the
  kernels: one kernel run records the trace and builds the shared
  pass.  It is the one cold path for every replayable group, singletons
  (one VL point) included, and it keeps what it built for the next
  sweep: the trace (spilled or registered), the shared pass (memo) and
  one tier per point (``.rvp``).  :func:`replay_sweep_cached` answers a
  warm group from those tiers alone.

Skeleton and tiers
------------------
Every design point is priced the same way: :func:`_point_pass_vec`
folds a *tier* — the program flattened into NumPy columns plus a table
of pricing classes — with ``np.add.accumulate`` / ``np.bincount``.  A
tier has two parts.  The *skeleton* (:class:`_Skeleton`, built once per
program) holds what no L2 can change: the pre-priced floats, the label
of every item, the fixed tag-6 classes, and for each L2-reaching event
its tier-independent pricing key and its pending line addresses.  The
*outcome* is each such event's ``(hits, misses)`` split on one L2,
resolved by one of two builders and interned into classes with one
``np.unique`` (:func:`_intern`):

* :func:`_compile_fast` — an L2 in which no set ever holds more
  distinct lines than ways never evicts, so a line hits **iff** it was
  touched before; only its first touch needs the residency-range model.
  The tier depends only on the L2 byte budget (``None`` when the ranges
  never trim), and resolving it visits just the first-touch lines.
  Prefetcher and prefetch-hint fills rule it out (they insert lines
  outside the demand stream).
* :func:`_compile_walk` — the exact LRU walk of one L2 geometry and
  prefetcher.  Without fills only the sets that can overflow are
  walked; every other line is a first-touch range check or a hit.

Tiers carry no latency or VPU, so one serves every point sharing its L2
budget or geometry — a lane sweep prices from one tier — and each
persists as an ``.rvp`` file next to the trace.

Bitwise identity
----------------
The split relies on properties of the direct simulator that are easy to
state and checked by tests/test_trace_replay.py and
tests/test_tier_identity.py:

* Latency sums are integers until the final stall arithmetic, so
  splitting ``lat`` into an upstream part (shared pass) and
  ``l2_lat * pending + dram_lat * misses`` (point pricing) is exact.
* Per-event cycle pricing is a pure function of the walk outcome —
  :func:`~repro.machine.simulator.vmem_event_cycles` is shared with the
  simulator, and the scalar-miss formula below is kept in lock-step
  with ``TraceSimulator.scalar_load``/``scalar_store``.
* ``SimStats`` counters are accumulated per field in event order; the
  twelve group-invariant fields are folded once in the shared pass and
  copied into every point's result.  NumPy accumulate and
  bincount-with-weights are in-order loops, unlike the pairwise
  ``np.sum``, so the column folds keep that order.
* ``occ2`` is a repeated sum of ``fill_l2`` — reproduced with a
  running table so point ``k`` misses cost exactly the same float.
* Dirty bits only feed cache-object writeback counters (never
  ``SimStats``), so the tier walk may store ``True`` unconditionally
  without perturbing residency or LRU order.

The hierarchy walks in :class:`_GroupCapture` mirror
``MemoryHierarchy._l1_path`` / ``_l2_path`` and their strided variants
line for line (minus the L2 lookup, which is deferred): keep them in
lock-step with hierarchy.py when the model changes.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .config import MachineConfig
from .hierarchy import _VC_HIT_LATENCY, MemoryHierarchy
from .simulator import (
    _SCALAR_MLP,
    _SPILL_SERIALIZE_CYCLES,
    _STORE_STALL_FACTOR,
    SimStats,
    TraceSimulator,
    vmem_event_cycles,
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
    TRACE_FORMAT_VERSION,
    AddressSpace,
    RecordedTrace,
    SampledTraceBase,
    _EventLog,
)
from .vpu import varith_cycles, vbroadcast_cycles

__all__ = [
    "replay",
    "replay_sweep",
    "replay_sweep_cached",
    "capture_sweep",
    "uniform_group",
    "group_mode",
    "supports_axis",
    "nonuniform_fields",
]

#: SimStats fields that do not depend on L2/DRAM parameters: everything
#: upstream of the L2 plus the pure instruction/byte/flop counts.
_INVARIANT_FIELDS = (
    "scalar_instrs",
    "vec_instrs",
    "vec_mem_instrs",
    "vec_elems",
    "flops",
    "bytes_loaded",
    "bytes_stored",
    "l1_hits",
    "l1_misses",
    "vc_hits",
    "sw_prefetches",
    "spills",
)


def _check_compatible(trace: RecordedTrace, machine: MachineConfig) -> None:
    if not trace.compatible_with(machine):
        raise ValueError(
            f"trace (isa={trace.isa_name}, vlen={trace.vlen_bits}b, "
            f"l1_line={trace.l1_line_bytes}) cannot replay on machine "
            f"{machine.name!r} ({machine.isa_name}, {machine.vlen_bits}b, "
            f"l1_line={machine.l1.line_bytes})"
        )


# ----------------------------------------------------------------------
# Single-point replay
# ----------------------------------------------------------------------
def replay(
    trace: RecordedTrace, machine: MachineConfig, verify: bool = False
) -> SimStats:
    """Price *trace* on *machine*; bitwise identical to direct simulation.

    Raises ``ValueError`` if the trace was captured for a different
    (ISA, vector length, L1 line) combination — those change the event
    stream itself, not just its pricing.  With ``verify=True`` the
    trace is first run through the static verifier
    (:func:`repro.analysis.verify_trace`) and a ``ValueError`` raised
    on any finding — cheap insurance when replaying traces of unknown
    provenance (e.g. spill files from another process).
    """
    _check_compatible(trace, machine)
    from ..testing import faults  # inert unless REPRO_FAULTS is set

    faults.maybe_fault("replay.point", key=trace.key)
    if verify:
        from ..analysis import verify_trace  # deferred: analysis is optional

        bad = verify_trace(trace, machine)
        if bad:
            raise ValueError(
                f"trace failed verification ({len(bad)} findings): "
                + "; ".join(f.message for f in bad[:3])
            )
    sim = TraceSimulator(machine)
    labels = trace.labels
    stack = sim._kernel_stack
    vmem = sim._vmem
    scalar = sim.scalar
    scalar_load = sim.scalar_load
    scalar_store = sim.scalar_store
    varith = sim.varith
    note_range = sim.hierarchy.note_resident_range
    cur_w = 1.0
    cur_kid = 0
    for op, w, kid, i0, i1, i2, i3, f0 in trace.rows():
        if w != cur_w:
            sim._w = cur_w = w
        if kid != cur_kid:
            stack[-1] = labels[kid]
            cur_kid = kid
        if op == OP_VLOAD:
            vmem(i0, i1, i2, i3, False)
        elif op == OP_SCALAR:
            scalar(i0)
        elif op == OP_SCALAR_LOAD:
            scalar_load(i0, i1)
        elif op == OP_VARITH:
            varith(i0, i1, f0, i2)
        elif op == OP_VSTORE:
            vmem(i0, i1, i2, i3, True)
        elif op == OP_SCALAR_STORE:
            scalar_store(i0, i1)
        elif op == OP_NOTE_RANGE:
            note_range(i0, i1)
        elif op == OP_SW_PREFETCH:
            sim.sw_prefetch(i0, i1, "L1" if i2 == 0 else "L2")
        elif op == OP_VBROADCAST:
            sim.vbroadcast(i0)
        elif op == OP_COUNT_FLOPS:
            sim.count_flops(f0)
        elif op == OP_SPILL:
            sim.spill(i0)
        else:
            raise ValueError(f"unknown trace opcode {op}")
    return sim.stats


# ----------------------------------------------------------------------
# Group replay: shared upstream pass + per-point L2 pass
# ----------------------------------------------------------------------
#: VPU fields that shape the upstream *walk* (which hierarchy level a
#: vector access reaches, VectorCache residency) rather than just the
#: per-event cycle price.  A group varying in these cannot share one
#: shared pass; everything else on VPUParams is pricing-only and is
#: deferred to the point pass in ``"vpu"`` mode.
_VPU_WALK_FIELDS = ("mem_port", "vector_cache_bytes")


def group_mode(machines: Sequence[MachineConfig]) -> Optional[str]:
    """Classify a sweep group for the shared-pass split.

    * ``"l2"`` — machines differ only in L2 size/associativity/latency
      and DRAM latency/bandwidth (and labels).  Every per-event compute
      price is group-invariant and pre-priced in the shared pass.
    * ``"vpu"`` — machines additionally differ in VPU *pricing* fields
      (lanes, pipes, MLP, port width, issue overheads, outstanding
      limit).  The walk is still group-invariant, but vector compute
      prices are deferred as tag-6 pricing classes and resolved per
      point.
    * ``None`` — the group varies in a field the split cannot express
      (ISA, vector length, L1 geometry, core model, VPU port level,
      VectorCache size, L2 line size); callers must fall back to
      per-point simulation.

    The L2 *line size* must match across the group — it sets the line
    granularity of the recorded pending-line lists.
    """
    m0 = machines[0]
    v0 = m0.vpu
    mode = "l2"
    for m in machines[1:]:
        if m.l2.line_bytes != m0.l2.line_bytes:
            return None
        norm = replace(
            m,
            name=m0.name,
            l2=m0.l2,
            dram_latency=m0.dram_latency,
            dram_bytes_per_cycle=m0.dram_bytes_per_cycle,
            peak_gflops=m0.peak_gflops,
        )
        if norm == m0:
            continue
        v = m.vpu
        if any(getattr(v, f) != getattr(v0, f) for f in _VPU_WALK_FIELDS):
            return None
        if replace(norm, vpu=v0) != m0:
            return None
        mode = "vpu"
    return mode


def uniform_group(machines: Sequence[MachineConfig]) -> bool:
    """True if the machines differ only in L2/DRAM pricing fields (the
    ``"l2"`` mode of :func:`group_mode`); kept for callers that cannot
    defer VPU pricing."""
    return group_mode(machines) == "l2"


_uniform_group = uniform_group  # private alias kept for callers/tests


#: Sweep axes the replay engines can price.  L2/DRAM axes and VPU
#: pricing axes replay in a shared-pass group; ``vlen`` changes the
#: event stream itself, so each VL records its own trace — but every
#: such single-point group still replays from its (cached) capture.
_REPLAY_AXES = frozenset(
    {
        "l2_mb",
        "l2_size",
        "l2_assoc",
        "l2_latency",
        "dram_latency",
        "dram_bytes_per_cycle",
        "dram_bw",
        "lanes",
        "pipes",
        "mlp",
        "vlen",
        "vlen_bits",
    }
)


def supports_axis(name: str) -> bool:
    """True if the pricing pass can replay a sweep along axis *name*.

    Capability query for sweep drivers: a supported axis either forms a
    replayable group (:func:`group_mode` returns non-``None``) or, for
    ``vlen``, splits into per-point captures that each replay — one
    capture per VL serving every pricing axis at that VL, with warm
    runs served from the persistent compiled-pass cache
    (:func:`replay_sweep_cached`).  An unsupported axis (e.g.
    ``l1_size``, ``mem_port``) changes the recorded walk itself and
    must simulate per point.
    """
    return name in _REPLAY_AXES


def nonuniform_fields(machines: Sequence[MachineConfig]) -> List[str]:
    """Names of ``MachineConfig`` fields that differ across *machines*.

    Used to build actionable error messages when a group declines
    replay (``name`` and the derived ``peak_gflops`` are ignored).
    """
    from dataclasses import fields

    m0 = machines[0]
    diff = set()
    for m in machines[1:]:
        for f in fields(m0):
            if getattr(m, f.name) != getattr(m0, f.name):
                diff.add(f.name)
    return sorted(diff - {"name", "peak_gflops"})


class _GroupCapture(SampledTraceBase):
    """Event-driven shared pass over the group-invariant hierarchy levels.

    Presents the TraceSimulator event API (so kernels — or a recorded
    trace — can drive it directly) and walks every memory event through
    the levels that are identical across an L2/DRAM sweep group: TLB,
    L1, L1 prefetcher, VectorCache.  Output (see :meth:`finish`) is the
    replay *program* every tier is built from, the folded invariant
    ``SimStats`` fields, and the group constants.

    ``prog`` items (in original event order):

    * ``float`` — a pre-priced, weighted cycle contribution.  Never
      coalesced: pricing must fold cycles in the direct
      simulator's event order for bitwise identity.
    * ``(1, label)`` — kernel-label switch (emitted lazily, only ahead
      of items that add cycles, so no spurious ``kernel_cycles``
      entries).
    * ``(2, base, nbytes)`` — ``note_resident_range`` call.
    * ``(3, w, addrs, inv_lat, occ1, nbytes, n_lines, write, unit, iid,
      nh0, ft)`` — a vector memory event with pending lines for the L2.
      ``addrs`` holds one *byte address* per pending line (the
      source-level granularity and shift are group constants, so they
      are folded here once instead of per line per point; the point
      pass recovers the L2 line as ``a >> l2_shift``).  ``nh0`` counts
      lines touched before (guaranteed hits in a conflict-free L2) and
      ``ft`` holds the first-touch lines' addresses; both are carried
      by the ``.rpp`` layout, while tiers re-derive first touches from
      the address column (:func:`_skeleton`).
    * ``(4, w, addrs, inv_lat, occ1, write, nh0, ft)`` — a scalar
      access with at least one L1 miss.
    * ``(5, lines)`` — honoured software-prefetch fills into the L2.
    * ``(6, w, cid)`` — (``defer_vpu`` mode only) a VPU-priced event
      whose cycle cost depends on lane count / MLP / port width.  The
      class table (``gc["classes"]``) maps ``cid`` to the event's
      pricing inputs; each point resolves the table once against its
      own VPU (:func:`_vpu_price_table`) and folds ``w * price``
      exactly where the l2-mode float would have been.
    """

    def __init__(self, base: MachineConfig, defer_vpu: bool = False):
        super().__init__()
        self.machine = base
        self.address_space = AddressSpace()
        # Kernels only reach the hierarchy via note_resident_range.
        self.hierarchy = self
        # Only the levels above the L2 are walked here: a one-set L2 of
        # the same line size keeps every constant this pass reads and
        # skips allocating one dict per set of a large L2.
        l2_one_set = replace(base.l2, size_bytes=base.l2.line_bytes * base.l2.assoc)
        hier = MemoryHierarchy(replace(base, l2=l2_one_set))
        vpu = base.vpu
        self._vpu = vpu
        self._port_l1 = vpu.mem_port == "L1"
        self._scalar_cpi = base.core.scalar_cpi
        self._ooo_hide = base.core.ooo_hide
        self._l1_line = base.l1.line_bytes
        self._l1_shift = hier._l1_shift
        self._l2_shift = hier._l2_shift
        self._l1_lat = hier._l1_lat
        self._fill_l1 = hier._fill_l1
        self._ratio = hier._l1_l2_ratio
        l1 = hier.l1
        self._l1 = l1
        self._l1_sets = l1._sets
        self._l1_num = l1.num_sets
        self._l1_assoc = l1.assoc
        self._pf1 = hier.l1_prefetcher if hier._pf1_on else None
        self._pf2_cfg = hier._pf2_on
        self._tlb = hier.tlb
        self._tlb_shift = hier.tlb.shift if hier.tlb is not None else 0
        vc = hier.vector_cache
        self._vc_set = hier._vc_set
        self._vc_assoc = vc.assoc if vc is not None else 0
        self._honors = base.honors_sw_prefetch
        self._noop_pf = base.sw_prefetch_is_noop_instr
        self._vb_cycles = vbroadcast_cycles(vpu)
        # Vector pending lines are L1-granular on an L1-port machine,
        # L2-granular otherwise; scalar ones are always L1-granular.
        # Both are emitted as byte addresses (granularity folded at
        # capture).  ``seen`` (the first-touch set, = the distinct-line
        # set the eligibility checks use) is kept L2-granular.
        self._v_shift = self._l1_shift if self._port_l1 else self._l2_shift

        self._prog: list = []
        self._append = self._prog.append  # pre-bound: hot-path use
        self._cur_label: Optional[str] = None  # forces the first switch
        self._seen: set = set()
        self._inv_ids: dict = {}
        self._vmem_inv_memo: dict = {}
        self._varith_memo: dict = {}
        # Deferred VPU pricing: the memos above then cache class ids
        # instead of cycle prices (the mode is fixed per instance).
        self._defer = defer_vpu
        self._classes: list = []
        self._cls_ids: dict = {}
        self._has_fills = False
        self._max_range_total = 0
        self._inf_ranges: list = []

        self._scalar_instrs = 0.0
        self._vec_instrs = 0.0
        self._vec_mem_instrs = 0.0
        self._vec_elems = 0.0
        self._flops = 0.0
        self._bytes_loaded = 0.0
        self._bytes_stored = 0.0
        self._l1_hits_c = 0.0
        self._l1_misses_c = 0.0
        self._vc_hits_c = 0.0
        self._sw_prefetches_c = 0.0
        self._spills_c = 0.0

    # -- bookkeeping ---------------------------------------------------
    def alloc(self, name, nbytes):
        return self.address_space.alloc(name, nbytes)

    def note_resident_range(self, base: int, nbytes: int) -> None:
        self._append((2, base, nbytes))
        if nbytes > 0:
            # Track the would-be range total under an infinite budget:
            # if it never exceeds a point's L2 capacity, that point
            # never trims or evicts a range (eligibility for the
            # equivalence-class shortcut in the point driver).
            end_r = base + nbytes
            inf_ranges = [
                r for r in self._inf_ranges if r[1] <= base or r[0] >= end_r
            ]
            inf_ranges.append((base, end_r))
            self._inf_ranges = inf_ranges
            total = 0
            for r in inf_ranges:
                total += r[1] - r[0]
            if total > self._max_range_total:
                self._max_range_total = total

    def _switch(self, append) -> None:
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label

    def _class_id(self, defn: tuple) -> int:
        """Intern a VPU pricing-class descriptor, returning its id."""
        cid = self._cls_ids.get(defn)
        if cid is None:
            cid = self._cls_ids[defn] = len(self._classes)
            self._classes.append(defn)
        return cid

    # -- events (TraceSimulator API) -----------------------------------
    def scalar(self, n: int = 1) -> None:
        w = self._w
        self._scalar_instrs += w * n
        append = self._append
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label
        append(w * (n * self._scalar_cpi))

    def scalar_load(self, addr: int, nbytes: int = 4) -> None:
        self._scalar_mem(addr, nbytes, False)

    def scalar_store(self, addr: int, nbytes: int = 4) -> None:
        self._scalar_mem(addr, nbytes, True)

    def _scalar_mem(self, addr: int, nbytes: int, write: bool) -> None:
        # Scalar accesses always take the L1 path (mirrors
        # MemoryHierarchy._l1_path minus the deferred L2 walk).
        l1_shift = self._l1_shift
        first = addr >> l1_shift
        last = (addr + nbytes - 1) >> l1_shift
        if first == last:
            # Single-line fast path — the overwhelmingly common scalar
            # shape.  Same arithmetic as the generic loop below on a
            # one-line walk, minus its list/loop machinery.
            tlb = self._tlb
            lat_i = tlb.access(addr, nbytes) if tlb is not None else 0
            ways = self._l1_sets[first % self._l1_num]
            dirty = ways.pop(first, None)
            w = self._w
            self._scalar_instrs += w
            if write:
                self._bytes_stored += w * nbytes
            else:
                self._bytes_loaded += w * nbytes
            append = self._append
            label = self._kernel_stack[-1]
            if label != self._cur_label:
                append((1, label))
                self._cur_label = label
            if dirty is not None:
                ways[first] = dirty or write
                self._l1_hits_c += w
                # No pending line: invariant price, lock-step with
                # TraceSimulator.scalar_load/scalar_store where
                # d = (lat_i + l1_lat) - l1_lat == lat_i exactly (ints).
                if lat_i > 0:
                    stall = max(0.0, lat_i) / _SCALAR_MLP
                    if write:
                        stall *= _STORE_STALL_FACTOR * (1.0 - self._ooo_hide)
                    else:
                        stall *= 1.0 - self._ooo_hide
                    append(w * (self._scalar_cpi + stall + 0.0 + 0.0))
                else:
                    append(w * self._scalar_cpi)
                return
            ways[first] = write
            if len(ways) > self._l1_assoc:
                ways.pop(next(iter(ways)))
            if self._pf1 is not None:
                self._pf1.observe(self._l1, first)
            self._l1_misses_c += w * 1
            # occ1 = 0.0 + fill_l1 and lat_i += l1_lat, as in the loop.
            lat_i += self._l1_lat
            a = first << l1_shift
            k = a >> self._l2_shift
            seen = self._seen
            if k in seen:
                nh0 = 1
                ft = ()
            else:
                seen.add(k)
                nh0 = 0
                ft = (a,)
            append((4, w, (a,), lat_i, 0.0 + self._fill_l1, write, nh0, ft))
            return
        tlb = self._tlb
        lat_i = tlb.access(addr, nbytes) if tlb is not None else 0
        l1_sets, l1_num, l1_assoc = self._l1_sets, self._l1_num, self._l1_assoc
        l1_lat = self._l1_lat
        pf1 = self._pf1
        fill_l1 = self._fill_l1
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
            if pf1 is not None:
                pf1.observe(self._l1, la)
            occ1 += fill_l1
            lat_i += l1_lat  # L1 share of the miss latency
            pend.append(la)
        w = self._w
        self._scalar_instrs += w
        if write:
            self._bytes_stored += w * nbytes
        else:
            self._bytes_loaded += w * nbytes
        self._l1_hits_c += w * l1h
        if l1m:
            self._l1_misses_c += w * l1m
        append = self._append
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label
        if pend:
            seen = self._seen
            l2_shift = self._l2_shift
            nh0 = 0
            addrs = []
            ft = []
            for la in pend:
                a = la << l1_shift
                addrs.append(a)
                k = a >> l2_shift
                if k in seen:
                    nh0 += 1
                else:
                    seen.add(k)
                    ft.append(a)
            append((4, w, tuple(addrs), lat_i, occ1, write, nh0, tuple(ft)))
        else:
            # Lock-step with TraceSimulator.scalar_load/scalar_store
            # (occupancies are 0.0 without an L1 miss).
            d = lat_i - l1_lat
            if d > 0:
                stall = max(0.0, d) / _SCALAR_MLP
                if write:
                    stall *= _STORE_STALL_FACTOR * (1.0 - self._ooo_hide)
                else:
                    stall *= 1.0 - self._ooo_hide
                append(w * (self._scalar_cpi + stall + 0.0 + 0.0))
            else:
                append(w * self._scalar_cpi)

    def vload(self, addr: int, n_elems: int, ew: int = 4, stride: int = 0) -> None:
        if n_elems <= 0:
            return
        self._vmem(addr, n_elems, ew, stride, False)

    def vstore(self, addr: int, n_elems: int, ew: int = 4, stride: int = 0) -> None:
        if n_elems <= 0:
            return
        self._vmem(addr, n_elems, ew, stride, True)

    def vgather(self, addr: int, n_elems: int, span_bytes: int, ew: int = 4) -> None:
        if n_elems <= 0:
            return
        # Same lowering as TraceSimulator.vgather.
        stride = max(ew, span_bytes // max(1, n_elems))
        self._vmem(addr, n_elems, ew, stride, False)

    def vscatter(self, addr: int, n_elems: int, span_bytes: int, ew: int = 4) -> None:
        if n_elems <= 0:
            return
        stride = max(ew, span_bytes // max(1, n_elems))
        self._vmem(addr, n_elems, ew, stride, True)

    def _vmem(self, addr: int, n_elems: int, ew: int, stride: int, write: bool) -> None:
        nbytes = n_elems * ew
        tlb = self._tlb
        port_l1 = self._port_l1
        vch = 0
        if stride in (0, ew):
            unit = True
            # Pricing granularity is the L1 line even on L2-port
            # machines — lock-step with TraceSimulator._vmem.
            l1_line = self._l1_line
            n_lines = (addr + nbytes - 1) // l1_line - addr // l1_line + 1
            if port_l1:
                # Mirrors MemoryHierarchy._l1_path minus the L2 walk
                # (its single-line fast path is semantics-preserving,
                # so the generic loop covers both).
                lat_i = tlb.access(addr, nbytes) if tlb is not None else 0
                l1_shift = self._l1_shift
                first = addr >> l1_shift
                last = (addr + nbytes - 1) >> l1_shift
                l1_sets, l1_num = self._l1_sets, self._l1_num
                l1_assoc = self._l1_assoc
                l1_lat = self._l1_lat
                pf1 = self._pf1
                fill_l1 = self._fill_l1
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
                    if pf1 is not None:
                        pf1.observe(self._l1, la)
                    occ1 += fill_l1
                    lat_i += l1_lat  # L1 share of the miss latency
                    pend.append(la)
            else:
                # Mirrors MemoryHierarchy._l2_path up to the L2 walk
                # (a VC miss write-allocates before the L2 lookup).
                lat_i = tlb.access(addr, nbytes) if tlb is not None else 0
                l2_shift = self._l2_shift
                first = addr >> l2_shift
                last = (addr + nbytes - 1) >> l2_shift
                vc_set = self._vc_set
                if vc_set is not None:
                    vc_assoc = self._vc_assoc
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
                    pend = list(range(first, last + 1))
                occ1 = 0.0
                l1h = l1m = 0
        else:
            unit = False
            n_lines = n_elems
            tlb_shift = self._tlb_shift
            if port_l1:
                # Mirrors MemoryHierarchy._strided_l1_path.
                l1_shift = self._l1_shift
                l1_sets, l1_num = self._l1_sets, self._l1_num
                l1_assoc = self._l1_assoc
                l1_lat = self._l1_lat
                pf1 = self._pf1
                fill_l1 = self._fill_l1
                lat_i = 0
                occ1 = 0.0
                l1h = l1m = 0
                pend = []
                prev_line = -1
                prev_page = -1
                for idx in range(n_elems):
                    a = addr + idx * stride
                    end = a + ew - 1
                    if tlb is not None:
                        page = a >> tlb_shift
                        if page == prev_page and (end >> tlb_shift) == page:
                            tlb.hits += 1  # MRU page: no LRU refresh
                        else:
                            lat_i += tlb.access(a, ew)
                            prev_page = (
                                page if (end >> tlb_shift) == page else -1
                            )
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
                        if pf1 is not None:
                            pf1.observe(self._l1, la)
                        occ1 += fill_l1
                        lat_i += l1_lat
                        pend.append(la)
                    prev_line = last
            else:
                # Mirrors MemoryHierarchy._strided_l2_path.
                l2_shift = self._l2_shift
                vc_set = self._vc_set
                vc_assoc = self._vc_assoc
                lat_i = 0
                pend = []
                prev_line = -1
                prev_page = -1
                for idx in range(n_elems):
                    a = addr + idx * stride
                    end = a + ew - 1
                    if tlb is not None:
                        page = a >> tlb_shift
                        if page == prev_page and (end >> tlb_shift) == page:
                            tlb.hits += 1
                        else:
                            lat_i += tlb.access(a, ew)
                            prev_page = (
                                page if (end >> tlb_shift) == page else -1
                            )
                    first = a >> l2_shift
                    last = end >> l2_shift
                    if first == last == prev_line:
                        if vc_set is not None:
                            vc_set[first] = vc_set.pop(first) or write
                            lat_i += _VC_HIT_LATENCY
                            vch += 1
                        else:
                            # Guaranteed L2 hit: the previous element
                            # left the line resident and MRU in every
                            # point's L2, so a plain pending line
                            # reproduces the hit and its latency.
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
        w = self._w
        self._vec_instrs += w
        self._vec_mem_instrs += w
        self._vec_elems += w * n_elems
        if write:
            self._bytes_stored += w * nbytes
        else:
            self._bytes_loaded += w * nbytes
        if l1h:
            self._l1_hits_c += w * l1h
        if l1m:
            self._l1_misses_c += w * l1m
        if vch:
            self._vc_hits_c += w * vch
        append = self._append
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label
        if pend:
            key = (w, lat_i, occ1, nbytes, n_lines, write, unit)
            inv_ids = self._inv_ids
            iid = inv_ids.get(key)
            if iid is None:
                iid = inv_ids[key] = len(inv_ids)
            seen = self._seen
            v_shift = self._v_shift
            l2_shift = self._l2_shift
            nh0 = 0
            addrs = []
            ft = []
            for la in pend:
                a = la << v_shift
                addrs.append(a)
                k = a >> l2_shift
                if k in seen:
                    nh0 += 1
                else:
                    seen.add(k)
                    ft.append(a)
            append(
                (3, w, tuple(addrs), lat_i, occ1, nbytes, n_lines, write,
                 unit, iid, nh0, tuple(ft))
            )
        elif self._defer:
            # Fully served upstream, but the price reads the VPU:
            # defer it as a pricing class.
            mkey = (lat_i, occ1, nbytes, n_lines, write, unit)
            memo = self._vmem_inv_memo
            cid = memo.get(mkey)
            if cid is None:
                cid = memo[mkey] = self._class_id(("m",) + mkey)
            append((6, w, cid))
        else:
            # Fully served upstream: the cycle cost is invariant.
            mkey = (lat_i, occ1, nbytes, n_lines, write, unit)
            memo = self._vmem_inv_memo
            cycles = memo.get(mkey)
            if cycles is None:
                cycles = memo[mkey] = vmem_event_cycles(
                    self._vpu, self._l1_lat, self._ooo_hide, lat_i, occ1,
                    0.0, nbytes, n_lines, write, unit,
                )
            append(w * cycles)

    def varith(
        self, n_elems: int, n_instr: int = 1, flops_per_elem: float = 2.0, ew: int = 4
    ) -> None:
        if n_elems <= 0 or n_instr <= 0:
            return
        vkey = (n_elems, n_instr, ew)
        memo = self._varith_memo
        cached = memo.get(vkey)
        if cached is None:
            if self._defer:
                cached = memo[vkey] = self._class_id(("a",) + vkey)
            else:
                cached = memo[vkey] = varith_cycles(
                    self._vpu, n_elems, n_instr, ew
                )
        w = self._w
        self._vec_instrs += w * n_instr
        self._vec_elems += w * n_instr * n_elems
        self._flops += w * n_instr * n_elems * flops_per_elem
        append = self._append
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label
        if self._defer:
            append((6, w, cached))
        else:
            append(w * cached)

    def vbroadcast(self, n: int = 1) -> None:
        w = self._w
        self._vec_instrs += w * n
        append = self._append
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label
        if self._defer:
            append((6, w, self._class_id(("b", n))))
        else:
            append(w * (n * self._vb_cycles))

    def sw_prefetch(self, addr: int, nbytes: int, level: str = "L1") -> None:
        if level not in ("L1", "L2"):
            raise ValueError(f"unknown prefetch level {level!r}")
        w = self._w
        append = self._append
        if self._honors:
            self._has_fills = True
            if level == "L1":
                # L1-level prefetch: the L1 fill is group-invariant
                # (done here); the implied inclusive L2 fill runs in
                # every point (mirrors MemoryHierarchy.sw_prefetch).
                l1_shift = self._l1_shift
                firstp = addr >> l1_shift
                lastp = (addr + nbytes - 1) >> l1_shift
                ratio = self._ratio
                l1_sets, l1_num = self._l1_sets, self._l1_num
                l1_assoc = self._l1_assoc
                fills = []
                for la in range(firstp, lastp + 1):
                    fills.append(la // ratio if ratio > 1 else la)
                    ways = l1_sets[la % l1_num]
                    if la not in ways:
                        ways[la] = False
                        if len(ways) > l1_assoc:
                            ways.pop(next(iter(ways)))
                append((5, tuple(fills)))
            else:
                l2_shift = self._l2_shift
                firstp = addr >> l2_shift
                lastp = (addr + nbytes - 1) >> l2_shift
                append((5, tuple(range(firstp, lastp + 1))))
            self._sw_prefetches_c += w
            self._switch(append)
            append(w * self._scalar_cpi)
        elif self._noop_pf:
            self._scalar_instrs += w
            self._switch(append)
            append(w * self._scalar_cpi)
        # else: dropped at compile time — free.

    def count_flops(self, n: float) -> None:
        self._flops += self._w * n

    def spill(self, n_registers: int = 1) -> None:
        # Mirrors TraceSimulator.spill: per register one full-vector
        # store and reload at stack address 0, then the serialization
        # penalty and the spill counter.
        # (_vmem directly: a recording subclass logs the spill event
        # itself, not its expansion.)
        n_elems = (self.machine.vlen_bits // 8) // 4
        if n_elems > 0:
            for _ in range(n_registers):
                self._vmem(0, n_elems, 4, 0, True)
                self._vmem(0, n_elems, 4, 0, False)
        w = self._w
        append = self._append
        self._switch(append)
        append(w * (n_registers * _SPILL_SERIALIZE_CYCLES))
        self._spills_c += w * n_registers

    # -- freezing ------------------------------------------------------
    def finish(self):
        """Return ``(prog, inv, gc)`` for the tier builders."""
        inv = SimStats()
        inv.scalar_instrs = self._scalar_instrs
        inv.vec_instrs = self._vec_instrs
        inv.vec_mem_instrs = self._vec_mem_instrs
        inv.vec_elems = self._vec_elems
        inv.flops = self._flops
        inv.bytes_loaded = self._bytes_loaded
        inv.bytes_stored = self._bytes_stored
        inv.l1_hits = self._l1_hits_c
        inv.l1_misses = self._l1_misses_c
        inv.vc_hits = self._vc_hits_c
        inv.sw_prefetches = self._sw_prefetches_c
        inv.spills = self._spills_c
        gc = {
            "vpu": self._vpu,
            "port_l1": self._port_l1,
            "l1_lat": self._l1_lat,
            "ooo_hide": self._ooo_hide,
            "scalar_cpi": self._scalar_cpi,
            "l2_shift": self._l2_shift,
            "distinct": self._seen,
            "max_range_total": self._max_range_total,
            "has_fills": self._has_fills,
            "pf2_cfg": self._pf2_cfg,
            "classes": self._classes,
        }
        return self._prog, inv, gc


def _vpu_price_table(classes: list, vpu, l1_lat, ooo_hide) -> list:
    """Resolve deferred pricing classes against one point's VPU.

    Returns ``prices`` such that a tag-6 item ``(6, w, cid)`` folds
    ``w * prices[cid]`` — the very float the shared pass would have
    appended had the group been VPU-uniform (bitwise: the class holds
    the exact arguments the l2-mode pre-pricing would have used).
    """
    prices = []
    append = prices.append
    for d in classes:
        kind = d[0]
        if kind == "a":
            append(varith_cycles(vpu, d[1], d[2], d[3]))
        elif kind == "b":
            append(d[1] * vbroadcast_cycles(vpu))
        else:  # "m": fully-upstream-served vector memory event
            append(
                vmem_event_cycles(
                    vpu, l1_lat, ooo_hide, d[1], d[2], 0.0, d[3], d[4],
                    d[5], d[6],
                )
            )
    return prices


#: Engine knob for the trace-driven shared pass.  ``vec`` (the default)
#: runs the NumPy column engine (:mod:`repro.machine.replay_vec`);
#: ``python`` runs the per-event reference loop below.  The two are
#: hex-identical on every SimStats field (tests/test_replay_vec.py);
#: the loop is retained as the oracle the column engine is checked
#: against, and as the fallback of record.
_ENGINE_ENV = "REPRO_REPLAY_ENGINE"
_ENGINES = ("vec", "vectorized", "python", "")


def _replay_engine() -> str:
    from ..core.knobs import get_raw  # deferred: machine must not import core eagerly

    val = get_raw(_ENGINE_ENV).lower()
    if val not in _ENGINES:
        raise ValueError(
            f"{_ENGINE_ENV}={val!r}: expected 'vec' or 'python'"
        )
    return "python" if val == "python" else "vec"


def _shared_pass(
    trace: RecordedTrace, base: MachineConfig, defer_vpu: bool = False
):
    """Shared pass over *trace*: dispatches on ``REPRO_REPLAY_ENGINE``."""
    if _replay_engine() == "python":
        return _shared_pass_python(trace, base, defer_vpu=defer_vpu)
    from .replay_vec import _shared_pass_vec  # deferred: import cycle

    return _shared_pass_vec(trace, base, defer_vpu=defer_vpu)


def _shared_pass_python(
    trace: RecordedTrace, base: MachineConfig, defer_vpu: bool = False
):
    """Drive a :class:`_GroupCapture` from a recorded trace's rows.

    The per-event reference loop — the oracle the vectorized engine
    (:func:`repro.machine.replay_vec._shared_pass_vec`) is verified
    against, selectable via ``REPRO_REPLAY_ENGINE=python``.
    """
    cap = _GroupCapture(base, defer_vpu=defer_vpu)
    labels = trace.labels
    stack = cap._kernel_stack
    vmem = cap._vmem
    scalar = cap.scalar
    scalar_mem = cap._scalar_mem
    varith = cap.varith
    note_range = cap.note_resident_range
    cur_w = 1.0
    cur_kid = 0
    for op, w, kid, i0, i1, i2, i3, f0 in trace.rows():
        if w != cur_w:
            cap._w = cur_w = w
        if kid != cur_kid:
            stack[-1] = labels[kid]
            cur_kid = kid
        if op == OP_VLOAD:
            vmem(i0, i1, i2, i3, False)
        elif op == OP_SCALAR:
            scalar(i0)
        elif op == OP_SCALAR_LOAD:
            scalar_mem(i0, i1, False)
        elif op == OP_VARITH:
            varith(i0, i1, f0, i2)
        elif op == OP_VSTORE:
            vmem(i0, i1, i2, i3, True)
        elif op == OP_SCALAR_STORE:
            scalar_mem(i0, i1, True)
        elif op == OP_NOTE_RANGE:
            note_range(i0, i1)
        elif op == OP_SW_PREFETCH:
            cap.sw_prefetch(i0, i1, "L1" if i2 == 0 else "L2")
        elif op == OP_VBROADCAST:
            cap.vbroadcast(i0)
        elif op == OP_COUNT_FLOPS:
            cap.count_flops(f0)
        elif op == OP_SPILL:
            cap.spill(i0)
        else:
            raise ValueError(f"unknown trace opcode {op}")
    return cap.finish()


class _Skeleton:
    """The tier-independent columns of one shared-pass program.

    Built once per program (:class:`_SkeletonBuilder`) and shared by
    every tier compiled from it:

    * the item columns of :class:`_VecProgram` — ``base`` (pre-priced
      floats, 0.0 at class items), ``kid`` (label id per item),
      ``labels`` and ``cls_pos`` (item position of every class item);
    * the fixed tag-6 classes: ``t6_at`` (class-item slot of each tag-6
      item), ``t6_cls`` (its index into ``t6_defs``);
    * per L2-reaching event (tags 3/4, stream order): ``ev_at`` (its
      class-item slot), ``ev_key`` (index into ``ev_defs``, the
      tier-independent part of its pricing class: ``iid`` for tag 3,
      ``(w, inv_lat, occ1, write)`` for tag 4), ``ev_scalar`` (tag 4)
      and ``ev_off`` (offsets into ``addrs``);
    * ``addrs``, the pending byte addresses of every event, flattened;
      ``lines``, the distinct L2 lines, and ``ft_pos``, the position of
      each line's first touch — the one access to it a conflict-free L2
      cannot hit without the residency-range model;
    * ``side``, the ``note_resident_range`` (tag 2) and prefetch-fill
      (tag 5) items as ``(address position, item)`` in stream order.

    A tier adds only each event's ``(hits, misses)`` split
    (:func:`_intern`).
    """

    __slots__ = (
        "base",
        "kid",
        "labels",
        "cls_pos",
        "t6_at",
        "t6_cls",
        "t6_defs",
        "ev_at",
        "ev_key",
        "ev_defs",
        "ev_scalar",
        "ev_off",
        "addrs",
        "lines",
        "ft_pos",
        "side",
    )


class _SkeletonBuilder:
    """Streams shared-pass program items into :class:`_Skeleton` columns.

    :meth:`extend` takes items in stream order, in as many batches as
    the caller likes: :func:`_skeleton` passes a finished program in
    one, the fused capture (:class:`_RecordingCapture`) passes what it
    emitted every few thousand events, so that path never holds the
    whole program.  Columns accumulate in typed ``array`` buffers (no
    per-value Python objects) and become NumPy arrays without a copy.
    """

    def __init__(self):
        self.base = array("d")
        self.kid = array("q")
        self.cls_pos = array("q")
        self.labels: list = []
        self.label_ids: dict = {}
        self.t6_at = array("q")
        self.t6_cls = array("q")
        self.t6_ids: dict = {}
        self.t6_defs: list = []
        self.ev_key = array("q")
        self.ev_at = array("q")
        self.ev_scalar = array("b")
        self.ev_defs: list = []
        self.iid_keys: dict = {}
        self.scalar_keys: dict = {}
        self.addrs = array("q")
        self.ev_off = array("q", [0])
        self.side: list = []
        self.cur_kid = -1

    def extend(self, items) -> None:
        base_append = self.base.append
        kid_append = self.kid.append
        cls_pos = self.cls_pos
        pos_append = cls_pos.append
        ev_defs = self.ev_defs
        iid_keys = self.iid_keys
        scalar_keys = self.scalar_keys
        ev_key_append = self.ev_key.append
        ev_at_append = self.ev_at.append
        ev_scalar_append = self.ev_scalar.append
        addrs = self.addrs
        addrs_extend = addrs.extend
        off_append = self.ev_off.append
        t6_ids = self.t6_ids
        t6_defs = self.t6_defs
        t6_cls_append = self.t6_cls.append
        t6_at_append = self.t6_at.append
        n = len(self.base)
        cur_kid = self.cur_kid
        for it in items:
            if type(it) is float:
                base_append(it)
                kid_append(cur_kid)
                n += 1
                continue
            tag = it[0]
            if tag == 3:
                k = iid_keys.get(it[9])
                if k is None:
                    k = iid_keys[it[9]] = len(ev_defs)
                    ev_defs.append(
                        (3, it[1], it[3], it[4], it[5], it[6], it[7], it[8])
                    )
                ev_key_append(k)
                ev_at_append(len(cls_pos))
                ev_scalar_append(False)
                addrs_extend(it[2])
                off_append(len(addrs))
            elif tag == 4:
                skey = (it[1], it[3], it[4], it[5])
                k = scalar_keys.get(skey)
                if k is None:
                    k = scalar_keys[skey] = len(ev_defs)
                    ev_defs.append((4,) + skey)
                ev_key_append(k)
                ev_at_append(len(cls_pos))
                ev_scalar_append(True)
                addrs_extend(it[2])
                off_append(len(addrs))
            elif tag == 6:
                key = (6, it[1], it[2])
                c = t6_ids.get(key)
                if c is None:
                    c = t6_ids[key] = len(t6_defs)
                    t6_defs.append(key)
                t6_cls_append(c)
                t6_at_append(len(cls_pos))
            elif tag == 1:
                kid = self.label_ids.get(it[1])
                if kid is None:
                    kid = self.label_ids[it[1]] = len(self.labels)
                    self.labels.append(it[1])
                cur_kid = kid
                continue
            else:  # tag 2 (residency range) or 5 (prefetch fills)
                self.side.append((len(addrs), it))
                continue
            pos_append(n)
            base_append(0.0)
            kid_append(cur_kid)
            n += 1
        self.cur_kid = cur_kid

    def build(self, l2_shift: int) -> _Skeleton:
        skel = _Skeleton()
        skel.base = np.frombuffer(self.base, dtype=np.float64)
        skel.kid = np.frombuffer(self.kid, dtype=np.int64)
        skel.labels = self.labels
        skel.cls_pos = np.frombuffer(self.cls_pos, dtype=np.int64)
        skel.t6_at = np.frombuffer(self.t6_at, dtype=np.int64)
        skel.t6_cls = np.frombuffer(self.t6_cls, dtype=np.int64)
        skel.t6_defs = self.t6_defs
        skel.ev_at = np.frombuffer(self.ev_at, dtype=np.int64)
        skel.ev_key = np.frombuffer(self.ev_key, dtype=np.int64)
        skel.ev_defs = self.ev_defs
        skel.ev_scalar = np.frombuffer(self.ev_scalar, dtype=np.int8).astype(bool)
        skel.ev_off = np.frombuffer(self.ev_off, dtype=np.int64)
        skel.addrs = np.frombuffer(self.addrs, dtype=np.int64)
        # A pending line is a first touch iff its L2 line never reached
        # the L2 earlier in the stream: its first occurrence in the
        # flattened address column (return_index picks the first).
        skel.lines, first = np.unique(skel.addrs >> l2_shift, return_index=True)
        skel.ft_pos = np.sort(first)
        skel.side = self.side
        return skel


def _skeleton(prog: list, gc: dict) -> _Skeleton:
    """The :class:`_Skeleton` of a finished program (one pass)."""
    builder = _SkeletonBuilder()
    builder.extend(prog)
    return builder.build(gc["l2_shift"])


class _VecProgram:
    """One tier: the shared-pass program flattened into NumPy columns.

    The item columns come from the program's :class:`_Skeleton`; the
    tier adds ``cls_idx`` (class of every class item), the class table
    ``cls_defs`` with its weighted hit/miss counts, and ``max_nm``.
    Two items price identically on every point the tier serves iff
    they share a class.  This is the ``.rvp`` payload.
    """

    __slots__ = (
        "base",
        "kid",
        "labels",
        "cls_pos",
        "cls_idx",
        "cls_defs",
        "wh_by_cls",
        "wm_by_cls",
        "max_nm",
    )


def _intern(skel: _Skeleton, nm: np.ndarray) -> _VecProgram:
    """Build a tier from the per-event miss counts *nm*.

    An L2 event's class is its pricing key plus its ``(hits, misses)``
    split — the memo key every per-event pricing used — so classes come
    from one ``np.unique`` over the packed triple.  Class ids follow key
    order, not first occurrence; prices and the fold order (set by
    ``cls_pos``) do not depend on them.
    """
    nh = np.diff(skel.ev_off) - nm
    defs = list(skel.t6_defs)
    wh = [0.0] * len(defs)
    wm = [0.0] * len(defs)
    cls_idx = np.empty(len(skel.cls_pos), dtype=np.int64)
    cls_idx[skel.t6_at] = skel.t6_cls
    max_nm = 0
    if len(nm):
        span = int(max(nh.max(), nm.max())) + 1
        if len(skel.ev_defs) * span * span < (1 << 62):
            packed = (skel.ev_key * span + nh) * span + nm
            _, first, inverse = np.unique(
                packed, return_index=True, return_inverse=True
            )
        else:  # pragma: no cover - pathological event widths
            _, first, inverse = np.unique(
                np.stack([skel.ev_key, nh, nm], axis=1), axis=0,
                return_index=True, return_inverse=True,
            )
        cls_idx[skel.ev_at] = len(defs) + np.asarray(inverse).reshape(-1)
        for k, h, m in zip(
            skel.ev_key[first].tolist(), nh[first].tolist(), nm[first].tolist()
        ):
            d = skel.ev_defs[k]
            defs.append(d + (h, m))
            wh.append(d[1] * h)
            wm.append(d[1] * m)
        max_nm = int(nm.max())
    cols = _VecProgram()
    cols.base = skel.base
    cols.kid = skel.kid
    cols.labels = skel.labels
    cols.cls_pos = skel.cls_pos
    cols.cls_idx = cls_idx
    cols.cls_defs = defs
    cols.wh_by_cls = np.asarray(wh, dtype=np.float64)
    cols.wm_by_cls = np.asarray(wm, dtype=np.float64)
    cols.max_nm = max_nm
    return cols


def _misses_per_event(skel: _Skeleton, miss_pos) -> np.ndarray:
    """Count missing addresses (positions into ``addrs``) per event."""
    ev = np.searchsorted(skel.ev_off, miss_pos, side="right") - 1
    return np.bincount(ev, minlength=len(skel.ev_key)).astype(np.int64)


def _hot_sets(skel: _Skeleton, num_sets: int, assoc: int) -> np.ndarray:
    """Per L2 set: does it hold more distinct lines than ways?

    Only such *hot* sets can ever evict; a line of any other set hits
    on every touch after its first.
    """
    return np.bincount(skel.lines % num_sets, minlength=num_sets) > assoc


def _compile_fast(skel: _Skeleton, gc: dict, hier=None) -> _VecProgram:
    """Conflict-free tier: no L2 set ever exceeds its associativity.

    Such an L2 never evicts, so a pending line hits iff its L2 line was
    touched before — except at its first touch (``skel.ft_pos``), where
    only the residency-range model can make it a hit.  This resolves
    just those first touches.  With ``hier=None`` (points whose ranges
    never trim) membership is tested against the infinite-budget range
    list every such point's ``MemoryHierarchy`` would hold
    (``note_resident_range`` with ``start == base``, no eviction, no
    tail trim), with column arithmetic per stretch between range notes.
    With a *hier* (:meth:`MemoryHierarchy.pricing_view` of any point in
    the group) the true trimming, LRU-refreshed range model runs in
    stream order — valid for every point sharing that L2 byte budget,
    since the range outcome depends on nothing else.
    """
    side = skel.side
    if any(it[0] == 5 for _, it in side):
        raise ValueError("prefetch fills in a conflict-free tier")
    ft = skel.ft_pos
    ft_addrs = skel.addrs[ft]
    cuts = np.searchsorted(ft, [p for p, _ in side], side="left").tolist()
    cuts.append(len(ft))
    notes = [it for _, it in side] + [None]
    lo = 0
    if hier is None:
        miss = np.ones(len(ft), dtype=bool)
        inf_ranges: list = []
        for hi, it in zip(cuts, notes):
            if inf_ranges and hi > lo:
                seg = ft_addrs[lo:hi]
                inside = np.zeros(hi - lo, dtype=bool)
                for b, e in inf_ranges:
                    inside |= (seg >= b) & (seg < e)
                miss[lo:hi] = ~inside
            lo = hi
            if it is not None and it[2] > 0:
                b = it[1]
                e = b + it[2]
                inf_ranges = [r for r in inf_ranges if r[1] <= b or r[0] >= e]
                inf_ranges.append((b, e))
        miss_pos = ft[miss]
    else:
        range_hit = hier._range_hit
        note_range = hier.note_resident_range
        addrs = ft_addrs.tolist()
        misses = []
        for hi, it in zip(cuts, notes):
            # _range_hit only reorders the range list in place;
            # note_resident_range rebinds it, refreshed here.
            ranges = hier._ranges
            for j in range(lo, hi):
                a = addrs[j]
                if not (
                    (ranges and ranges[-1][0] <= a < ranges[-1][1])
                    or range_hit(a)
                ):
                    misses.append(j)
            lo = hi
            if it is not None:
                note_range(it[1], it[2])
        miss_pos = ft[np.asarray(misses, dtype=np.int64)]
    return _intern(skel, _misses_per_event(skel, miss_pos))


def _compile_walk(skel: _Skeleton, gc: dict, machine: MachineConfig) -> _VecProgram:
    """Walk tier: resolve *machine*'s exact L2 walk once.

    State transitions identical to ``MemoryHierarchy``'s L2 —
    conflicted sets evict LRU, honoured prefetch fills and L2
    prefetcher fills land, residency ranges trim in stream order.  The
    walk reads only the L2 geometry, the L2 prefetcher and the event
    stream, so the tier is valid for every point sharing those with
    *machine* (a lane sweep, or a DRAM sweep over a conflicted L2),
    whatever its latencies or VPU.

    Without fills (no honoured prefetches, no L2 prefetcher) only lines
    of hot sets (:func:`_hot_sets`) are walked: every other set never
    evicts, so its lines hit after their first touch, and the first
    touch takes just the range check.  Those checks still run in
    stream order, interleaved with the hot walk, because
    ``_range_hit`` LRU-refreshes the range list and a later trim picks
    its victims by that order.  Dirty bits only feed writeback counters
    ``SimStats`` never reads, so the walk stores ``True``
    unconditionally without perturbing residency or LRU order.
    """
    hier = MemoryHierarchy(machine)
    l2 = hier.l2
    l2_sets, l2_num, l2_assoc = l2._sets, l2.num_sets, l2.assoc
    pf2 = hier.l2_prefetcher if hier._pf2_on else None
    range_hit = hier._range_hit
    note_range = hier.note_resident_range
    l2_shift = gc["l2_shift"]
    side = skel.side
    if pf2 is None and not gc["has_fills"]:
        l2_lines = skel.addrs >> l2_shift
        hot_at = _hot_sets(skel, l2_num, l2_assoc)[l2_lines % l2_num]
        del l2_lines
        visit_mask = hot_at.copy()
        visit_mask[skel.ft_pos] = True
        visit = np.flatnonzero(visit_mask)
        hot = hot_at[visit].tolist()
        del hot_at, visit_mask
    else:
        visit = np.arange(len(skel.addrs), dtype=np.int64)
        hot = [True] * len(visit)
    addrs = skel.addrs[visit].tolist()
    if pf2 is not None and not gc["port_l1"]:
        # Only the L1-port vector path feeds the L2 prefetcher (the
        # L2-port path has none); the scalar path always does.
        observes = np.repeat(skel.ev_scalar, np.diff(skel.ev_off))[visit].tolist()
    else:
        observes = None
    cuts = np.searchsorted(visit, [p for p, _ in side], side="left").tolist()
    cuts.append(len(visit))
    items = [it for _, it in side] + [None]
    misses = []
    lo = 0
    for hi, it in zip(cuts, items):
        # _range_hit only reorders the range list in place;
        # note_resident_range rebinds it, refreshed here.
        ranges = hier._ranges
        for j in range(lo, hi):
            a = addrs[j]
            if hot[j]:
                l2a = a >> l2_shift
                ways = l2_sets[l2a % l2_num]
                if ways.pop(l2a, None) is not None:
                    ways[l2a] = True
                    continue
                ways[l2a] = True
                if len(ways) > l2_assoc:
                    ways.pop(next(iter(ways)))
                if (ranges and ranges[-1][0] <= a < ranges[-1][1]) or range_hit(a):
                    continue
                misses.append(j)
                if pf2 is not None and (observes is None or observes[j]):
                    pf2.observe(l2, l2a)
            elif not (
                (ranges and ranges[-1][0] <= a < ranges[-1][1]) or range_hit(a)
            ):
                misses.append(j)
        lo = hi
        if it is None:
            break
        if it[0] == 2:
            note_range(it[1], it[2])
        else:  # tag 5: honoured software-prefetch fills into the L2
            for la in it[1]:
                ways = l2_sets[la % l2_num]
                if la not in ways:
                    ways[la] = False
                    if len(ways) > l2_assoc:
                        ways.pop(next(iter(ways)))
    miss_pos = visit[np.asarray(misses, dtype=np.int64)]
    return _intern(skel, _misses_per_event(skel, miss_pos))


def _point_pass_vec(
    cols: _VecProgram, inv: SimStats, machine: MachineConfig, gc: dict
) -> SimStats:
    """Price a compiled program on one point with column arithmetic.

    Bitwise identical to direct simulation of the point:
    ``np.add.accumulate`` and ``np.bincount`` with weights both fold
    strictly left-to-right (no pairwise reassociation), class prices
    are computed with the scalar formulas shared with the simulator,
    and the extra ``+ 0.0`` terms this layout introduces (class items
    contribute 0.0 to ``base``, tag-6 items 0.0 to the hit/miss
    columns) are exact identities on these non-negative counters.
    """
    hier = MemoryHierarchy.pricing_view(machine)
    l2_lat = hier._l2_lat
    dram_lat = hier._dram_lat
    fill_l2 = hier._fill_l2
    vpu = machine.vpu
    l1_lat = gc["l1_lat"]
    ooo_hide = gc["ooo_hide"]
    scalar_cpi = gc["scalar_cpi"]
    classes = gc["classes"]
    prices = (
        _vpu_price_table(classes, vpu, l1_lat, ooo_hide) if classes else ()
    )
    occ_tab = [0.0]
    while cols.max_nm >= len(occ_tab):
        occ_tab.append(occ_tab[-1] + fill_l2)
    cls_defs = cols.cls_defs
    wc_by_cls = np.empty(len(cls_defs), dtype=np.float64)
    for k, d in enumerate(cls_defs):
        kind = d[0]
        if kind == 3:
            _, w, inv_lat, occ1, nbytes, n_lines, write, unit, nh, nm = d
            lat = inv_lat + l2_lat * (nh + nm) + dram_lat * nm
            wc_by_cls[k] = w * vmem_event_cycles(
                vpu, l1_lat, ooo_hide, lat, occ1, occ_tab[nm],
                nbytes, n_lines, write, unit,
            )
        elif kind == 4:
            _, w, inv_lat, occ1, write, nh, nm = d
            lat = inv_lat + l2_lat * (nh + nm) + dram_lat * nm
            diff = lat - l1_lat
            if diff > 0:
                stall = max(0.0, diff) / _SCALAR_MLP
                if write:
                    stall *= _STORE_STALL_FACTOR * (1.0 - ooo_hide)
                else:
                    stall *= 1.0 - ooo_hide
                wc_by_cls[k] = w * (scalar_cpi + stall + occ1 + occ_tab[nm])
            else:
                wc_by_cls[k] = w * scalar_cpi
        else:  # kind == 6: deferred VPU class
            wc_by_cls[k] = d[1] * prices[d[2]]

    out = SimStats()
    if len(cols.base):
        contrib = cols.base.copy()
        if len(cols.cls_pos):
            contrib[cols.cls_pos] = wc_by_cls[cols.cls_idx]
        out.cycles = float(np.add.accumulate(contrib)[-1])
        binc = np.bincount(
            cols.kid, weights=contrib, minlength=len(cols.labels)
        )
        out.kernel_cycles = {
            label: float(binc[i]) for i, label in enumerate(cols.labels)
        }
    if len(cols.cls_pos):
        wh_seq = cols.wh_by_cls[cols.cls_idx]
        wm_seq = cols.wm_by_cls[cols.cls_idx]
        out.l2_hits = float(np.add.accumulate(wh_seq)[-1])
        out.l2_misses = float(np.add.accumulate(wm_seq)[-1])
        out.dram_fills = out.l2_misses
    for name in _INVARIANT_FIELDS:
        setattr(out, name, getattr(inv, name))
    return out


def _copy_stats(st: SimStats) -> SimStats:
    out = SimStats()
    for name in SimStats.FIELDS:
        setattr(out, name, getattr(st, name))
    out.kernel_cycles = dict(st.kernel_cycles)
    return out


def _fast_budget(gc: dict, m: MachineConfig):
    """The L2 byte budget a conflict-free tier for *m* depends on.

    ``None`` when the recorded residency ranges never outgrow *m*'s L2:
    its range model then never trims, whatever the size.
    """
    return None if gc["max_range_total"] <= m.l2.size_bytes else m.l2.size_bytes


def _tier_for(skel: _Skeleton, gc: dict, m: MachineConfig) -> dict:
    """The tier that prices machine *m*.

    A conflict-free tier (:func:`_fast_tier`) when no L2 set of *m*
    ever holds more distinct lines than ways and nothing but the demand
    stream fills the L2 (no honoured prefetches, no L2 prefetcher);
    a walk tier (:func:`_walk_tier`) otherwise.
    """
    if not gc["has_fills"] and not gc["pf2_cfg"]:
        l2cfg = m.l2
        num_sets = l2cfg.size_bytes // (l2cfg.assoc * l2cfg.line_bytes)
        if num_sets > 0 and not _hot_sets(skel, num_sets, l2cfg.assoc).any():
            return _fast_tier(_fast_budget(gc, m))
    return _walk_tier(m)


def _run_points(
    prog,
    inv: SimStats,
    gc: dict,
    machines: Sequence[MachineConfig],
    cache_ctx: Optional[Tuple[str, str, str, dict]] = None,
) -> List[SimStats]:
    """Price a shared-pass program on every machine of the group.

    *prog* is the program or its :class:`_Skeleton`.  Every machine is
    priced by :func:`_point_pass_vec` from one tier (:func:`_tier_for`):
    a conflict-free tier per L2 byte budget or a walk tier per L2
    geometry and prefetcher.  Each distinct tier is built once and
    dropped after its last point is priced.  Machines that share a tier
    and every pricing field (L2 and DRAM latency, DRAM bandwidth, VPU)
    copy their twin's stats: on a constant-latency L2 this collapses
    the whole large-cache tail of a Fig. 7 sweep into one pricing.

    With *cache_ctx* — ``(trace_key, sig_token, trace_sha256, compat)``
    — tiers are exchanged with the on-disk pass cache: each is loaded
    if stored, else built and stored.  Conflict-free tiers record the
    walk fingerprints of the machines they serve, which is what lets
    :func:`replay_sweep_cached` trust them without the program.
    """
    skel = prog if isinstance(prog, _Skeleton) else _skeleton(prog, gc)
    if cache_ctx is not None:
        from ..core import tracecache

        if not tracecache.pass_cache_enabled():
            cache_ctx = None
    plans: dict = {}  # tier token -> (tier, first machine index, indices)
    owners: dict = {}  # (tier token, pricing fields) -> owning index
    copies = []  # (index, owner index)
    for i, m in enumerate(machines):
        tier = _tier_for(skel, gc, m)
        token = tier["token"]
        plan = plans.setdefault(token, (tier, i, []))
        if tier["kind"] == "fast":
            fps = set(plan[0]["fps"])
            fps.add(_machine_walk_fp(m))
            plan[0]["fps"] = sorted(fps)
        sig = (token, m.l2.latency, m.dram_latency, m.dram_bytes_per_cycle, m.vpu)
        owner = owners.get(sig)
        if owner is not None:
            copies.append((i, owner))
            continue
        owners[sig] = i
        plan[2].append(i)
    results: List[Optional[SimStats]] = [None] * len(machines)
    for tier, first, idxs in plans.values():
        cols = _load_tier(cache_ctx, tier, inv, gc)
        if cols is None:
            m = machines[first]
            if tier["kind"] == "walk":
                cols = _compile_walk(skel, gc, m)
            elif _fast_budget(gc, m) is None:
                cols = _compile_fast(skel, gc)
            else:
                cols = _compile_fast(skel, gc, MemoryHierarchy.pricing_view(m))
            _store_tier(cache_ctx, tier, cols, inv, gc)
        for i in idxs:
            results[i] = _point_pass_vec(cols, inv, machines[i], gc)
        del cols
    for i, owner in copies:
        results[i] = _copy_stats(results[owner])
    return results


def _load_tier(cache_ctx, tier: dict, inv: SimStats, gc: dict):
    """A stored tier's columns, or ``None`` (no cache, miss, stale)."""
    if cache_ctx is None:
        return None
    from ..core import tracecache

    key, sig_tok, digest, _compat = cache_ctx
    hit = tracecache.load_vecprog(key, sig_tok, tier["token"], digest)
    if hit is None:
        return None
    cols = _cols_from_dict(hit[1])
    if tier["kind"] == "fast":
        have = set(hit[0]["tier"].get("fps", ()))
        if not set(tier["fps"]) <= have:
            # A new machine endorsed this tier: refresh the stored
            # fingerprint list so replay_sweep_cached can serve it to
            # that machine without the program in hand.
            _store_tier(
                cache_ctx, dict(tier, fps=sorted(have | set(tier["fps"]))),
                cols, inv, gc,
            )
    return cols


def _store_tier(cache_ctx, tier: dict, cols: _VecProgram, inv: SimStats, gc: dict):
    if cache_ctx is None:
        return
    from ..core import tracecache

    key, sig_tok, digest, compat = cache_ctx
    tracecache.store_vecprog(
        _cols_to_dict(cols), _inv_fields(inv), gc,
        key=key, sig=sig_tok, tier=tier, trace_sha256=digest, compat=compat,
    )


# Memo for shared passes across sweeps.  A session pricing several axes
# from one capture (the paper-figures flow: L2 size, DRAM latency, DRAM
# bandwidth, lanes) would otherwise re-walk the full event stream once
# per axis — by far the dominant cost on a multi-million-event trace.
# Holds ``(skeleton, inv, gc)``, treated as immutable by every tier
# builder.  Keyed by the trace's content *digest* (not just its key: a
# quarantined-and-recaptured trace must never serve a stale pass) and
# the group-invariant remainder of the base config (the normalization
# mirrors group_mode: every per-point-priced field is canonicalised
# away, so two bases that would group together share an entry).  Sized
# for the paper-figures flow: one entry per live VL capture (Figs. 6/8
# sweep eight) plus slack for direct callers.
_SHARED_PASS_MEMO: "dict" = {}
_SHARED_PASS_MEMO_MAX = 16


def _memo_put(key, value) -> None:
    while len(_SHARED_PASS_MEMO) >= _SHARED_PASS_MEMO_MAX:
        _SHARED_PASS_MEMO.pop(next(iter(_SHARED_PASS_MEMO)))
    _SHARED_PASS_MEMO[key] = value


def _shared_pass_sig(m: MachineConfig, defer_vpu: bool):
    l2n = replace(m.l2, size_bytes=m.l2.line_bytes * 8, assoc=1, latency=0)
    norm = replace(
        m,
        name="",
        l2=l2n,
        dram_latency=0,
        dram_bytes_per_cycle=1,
        peak_gflops=0.0,
    )
    if defer_vpu:
        # VPU pricing is deferred per point; only the walk fields bind.
        v = m.vpu
        return (
            replace(norm, vpu=None),
            v.mem_port,
            v.vector_cache_bytes,
        )
    return norm


def _sig_token(sig) -> str:
    """Filesystem token for a shared-pass signature.

    Dataclass ``repr`` is deterministic across processes (field order
    is declaration order, float repr round-trips), so the token is
    stable for the on-disk compiled-pass cache keyed by it.
    """
    return hashlib.sha256(repr(sig).encode("utf-8")).hexdigest()[:12]


def _trace_compat(trace: RecordedTrace) -> dict:
    return {
        "isa_name": trace.isa_name,
        "vlen_bits": trace.vlen_bits,
        "l1_line_bytes": trace.l1_line_bytes,
    }


def _inv_fields(inv: SimStats) -> dict:
    return {f: getattr(inv, f) for f in _INVARIANT_FIELDS}


def _inv_from_fields(fields: dict) -> SimStats:
    inv = SimStats()
    for f in _INVARIANT_FIELDS:
        setattr(inv, f, fields[f])
    return inv


def _shared_pass_cached(
    trace: RecordedTrace, base: MachineConfig, defer_vpu: bool
):
    """``(skeleton, inv, gc)`` of *trace*'s shared pass: memo, ``.rpp``, or run."""
    if not trace.key:
        prog, inv, gc = _shared_pass(trace, base, defer_vpu=defer_vpu)
        return _skeleton(prog, gc), inv, gc
    from ..core import tracecache

    digest = trace.content_digest()
    sig = _shared_pass_sig(base, defer_vpu)
    key = (trace.key, digest, defer_vpu, sig)
    hit = _SHARED_PASS_MEMO.get(key)
    if hit is not None:
        return hit
    use_disk = tracecache.pass_cache_enabled()
    loaded = (
        tracecache.load_pass(trace.key, _sig_token(sig), digest)
        if use_disk
        else None
    )
    if loaded is not None:
        _header, prog, inv_fields, gc = loaded
        gc["vpu"] = base.vpu
        inv = _inv_from_fields(inv_fields)
    else:
        prog, inv, gc = _shared_pass(trace, base, defer_vpu=defer_vpu)
        if use_disk:
            tracecache.store_pass(
                prog, _inv_fields(inv), gc,
                key=trace.key, sig=_sig_token(sig), defer=defer_vpu,
                trace_sha256=digest, compat=_trace_compat(trace),
            )
    out = (_skeleton(prog, gc), inv, gc)
    _memo_put(key, out)
    return out


def replay_sweep(
    trace: RecordedTrace, machines: Sequence[MachineConfig]
) -> Optional[List[SimStats]]:
    """Price *trace* on every machine of an L2/DRAM or VPU sweep group.

    Returns one ``SimStats`` per machine (bitwise identical to direct
    simulation), or ``None`` when the group varies in a field the
    shared-pass split does not support (see :func:`group_mode`; e.g. a
    VL sweep, whose event streams differ per point) — the caller
    should fall back to per-point simulation.

    The shared pass always runs in deferred-VPU mode: tag-6 classes
    resolve to the exact floats an eagerly-priced pass would have
    appended (see :func:`_vpu_price_table`), so the result is bitwise
    unchanged, and one cached pass serves *every* replayable axis of a
    capture — L2 size, DRAM latency/bandwidth, and lane count — both
    in the memo and in the on-disk compiled-pass cache.
    """
    machines = list(machines)
    if not machines:
        return []
    for m in machines:
        _check_compatible(trace, m)
    mode = group_mode(machines)
    if mode is None:
        return None
    skel, inv, gc = _shared_pass_cached(trace, machines[0], defer_vpu=True)
    ctx = None
    if trace.key:
        sig = _shared_pass_sig(machines[0], True)
        ctx = (
            trace.key,
            _sig_token(sig),
            trace.content_digest(),
            _trace_compat(trace),
        )
    return _run_points(skel, inv, gc, machines, cache_ctx=ctx)


def _machine_walk_fp(m: MachineConfig) -> str:
    """Fingerprint of the fields that steer a point's L2 walk."""
    return f"{m.l2!r}|{m.l2_prefetcher!r}"


def _fast_tier(budget) -> dict:
    desc = f"fast:{budget}"
    return {
        "kind": "fast",
        "token": hashlib.sha256(desc.encode("utf-8")).hexdigest()[:12],
        "desc": desc,
        "fps": [],
    }


def _walk_tier(m: MachineConfig) -> dict:
    desc = f"walk:{_machine_walk_fp(m)}"
    return {
        "kind": "walk",
        "token": hashlib.sha256(desc.encode("utf-8")).hexdigest()[:12],
        "desc": desc,
        "fps": [],
    }


def _cols_to_dict(cols: _VecProgram) -> dict:
    return {s: getattr(cols, s) for s in _VecProgram.__slots__}


def _cols_from_dict(d: dict) -> _VecProgram:
    cols = _VecProgram()
    for s in _VecProgram.__slots__:
        setattr(cols, s, d[s])
    return cols


def replay_sweep_cached(
    key: str, machines: Sequence[MachineConfig]
) -> Optional[List[SimStats]]:
    """Price a sweep group straight from the compiled-pass cache.

    The warm path for a spilled trace: the trace's content digest and
    compatibility fields come from the in-process registry or the
    spill file's JSON header (no column decode).  The group is then
    priced from the shared-pass memo, else from stored ``.rvp`` tiers
    alone when every point has one (:func:`_price_from_tiers`), else
    from the ``.rpp`` shared pass.  Returns ``None`` unless every
    needed artifact is cached and digest-consistent; the caller falls
    back to :func:`replay_sweep` after loading (or re-capturing) the
    trace.
    """
    from ..core import tracecache

    if not key or not tracecache.pass_cache_enabled():
        return None
    machines = list(machines)
    if not machines:
        return []
    mode = group_mode(machines)
    if mode is None:
        return None
    trace = tracecache._REGISTRY.get(key)
    if trace is not None:
        digest = trace.content_digest()
        compat = _trace_compat(trace)
    else:
        try:
            header = tracecache.read_header(tracecache._spill_path(key))
        except (OSError, ValueError):
            return None
        if header.get("format") != TRACE_FORMAT_VERSION:
            return None
        digest = header.get("sha256")
        compat = {
            "isa_name": header.get("isa_name"),
            "vlen_bits": header.get("vlen_bits"),
            "l1_line_bytes": header.get("l1_line_bytes"),
        }
    if not digest:
        return None
    for m in machines:
        if (
            compat["isa_name"] != m.isa_name
            or compat["vlen_bits"] != m.vlen_bits
            or compat["l1_line_bytes"] != m.l1.line_bytes
        ):
            return None
    sig = _shared_pass_sig(machines[0], True)
    tok = _sig_token(sig)
    ctx = (key, tok, digest, compat)
    memo_key = (key, digest, True, sig)
    hit = _SHARED_PASS_MEMO.get(memo_key)
    if hit is not None:
        return _run_points(*hit, machines, cache_ctx=ctx)
    priced = _price_from_tiers(key, tok, digest, machines)
    if priced is not None:
        return priced
    loaded = tracecache.load_pass(key, tok, digest)
    if loaded is None:
        return None
    _header, prog, inv_fields, gc = loaded
    gc["vpu"] = machines[0].vpu
    out = (_skeleton(prog, gc), _inv_from_fields(inv_fields), gc)
    del prog
    _memo_put(memo_key, out)
    return _run_points(*out, machines, cache_ctx=ctx)


def _price_from_tiers(
    key: str, sig_token: str, digest: str, machines: List[MachineConfig]
) -> Optional[List[SimStats]]:
    """Price every machine from stored ``.rvp`` tiers, or return ``None``.

    Tier files embed the invariant stats and the pricing subset of the
    group constants, so nothing else is decoded.  Each machine takes
    the first valid tier among its walk tier, the never-trimming
    conflict-free tier and the conflict-free tier of its L2 budget.  A
    walk tier's token is derived from the machine's own L2 walk fields,
    so a token match is validity; a conflict-free tier is only trusted
    when the machine's walk fingerprint is recorded in it (the tier was
    built for exactly this L2 and prefetcher, so conflict-freedom and
    the budget decision are known to apply).  Tiers are chosen from
    their headers, then each distinct tier is decoded once and dropped
    after its last point.
    """
    from ..core import tracecache

    headers: dict = {}
    plans: dict = {}  # tier token -> machine indices
    for i, m in enumerate(machines):
        fp = _machine_walk_fp(m)
        for tier in (
            _walk_tier(m), _fast_tier(None), _fast_tier(m.l2.size_bytes)
        ):
            token = tier["token"]
            if token not in headers:
                headers[token] = tracecache.read_vecprog_header(
                    key, sig_token, token, digest
                )
            header = headers[token]
            if header is None:
                continue
            if tier["kind"] == "fast" and fp not in header["tier"].get("fps", ()):
                continue
            plans.setdefault(token, []).append(i)
            break
        else:
            return None
    results: List[Optional[SimStats]] = [None] * len(machines)
    for token, idxs in plans.items():
        hit = tracecache.load_vecprog(key, sig_token, token, digest)
        if hit is None:
            return None
        _header, col_dict, inv_fields, gc_pricing = hit
        cols = _cols_from_dict(col_dict)
        inv = _inv_from_fields(inv_fields)
        for i in idxs:
            results[i] = _point_pass_vec(cols, inv, machines[i], gc_pricing)
        del hit, col_dict, cols
    return results


class _RecordingCapture(_EventLog, _GroupCapture):
    """A :class:`_GroupCapture` that records the event stream as it walks.

    Each event is logged by the :class:`_EventLog` method that
    :class:`TraceRecorder` uses too — same guards, same row tuple, same
    chunked column log — and then walked, so one kernel run yields both
    the shared-pass program and the :class:`RecordedTrace` that
    :meth:`Network.record_trace` would capture: same columns, labels
    and buffers, hence the same content digest.
    """

    def __init__(self, base: MachineConfig):
        super().__init__(base, defer_vpu=True)
        self._start_log()
        self._skel = _SkeletonBuilder()

    def _flush(self) -> None:
        # Each frozen chunk of events also hands the program items they
        # produced to the skeleton, so the program is never held whole.
        super()._flush()
        self._skel.extend(self._prog)
        self._prog.clear()  # in place: ``_append`` stays bound to it

    def finish(self):
        """Return ``(skeleton, inv, gc)`` instead of the program."""
        self._flush()
        _prog, inv, gc = super().finish()
        return self._skel.build(gc["l2_shift"]), inv, gc

    # Each event: the one row layout (``_EventLog``), then the walk.
    def note_resident_range(self, base: int, nbytes: int) -> None:
        _EventLog.note_resident_range(self, base, nbytes)
        _GroupCapture.note_resident_range(self, base, nbytes)

    def scalar(self, n: int = 1) -> None:
        _EventLog.scalar(self, n)
        _GroupCapture.scalar(self, n)

    def scalar_load(self, addr: int, nbytes: int = 4) -> None:
        _EventLog.scalar_load(self, addr, nbytes)
        _GroupCapture.scalar_load(self, addr, nbytes)

    def scalar_store(self, addr: int, nbytes: int = 4) -> None:
        _EventLog.scalar_store(self, addr, nbytes)
        _GroupCapture.scalar_store(self, addr, nbytes)

    def vload(self, addr: int, n_elems: int, ew: int = 4, stride: int = 0) -> None:
        _EventLog.vload(self, addr, n_elems, ew, stride)
        _GroupCapture.vload(self, addr, n_elems, ew, stride)

    def vstore(self, addr: int, n_elems: int, ew: int = 4, stride: int = 0) -> None:
        _EventLog.vstore(self, addr, n_elems, ew, stride)
        _GroupCapture.vstore(self, addr, n_elems, ew, stride)

    def vgather(self, addr: int, n_elems: int, span_bytes: int, ew: int = 4) -> None:
        _EventLog.vgather(self, addr, n_elems, span_bytes, ew)
        _GroupCapture.vgather(self, addr, n_elems, span_bytes, ew)

    def vscatter(self, addr: int, n_elems: int, span_bytes: int, ew: int = 4) -> None:
        _EventLog.vscatter(self, addr, n_elems, span_bytes, ew)
        _GroupCapture.vscatter(self, addr, n_elems, span_bytes, ew)

    def varith(
        self, n_elems: int, n_instr: int = 1, flops_per_elem: float = 2.0, ew: int = 4
    ) -> None:
        _EventLog.varith(self, n_elems, n_instr, flops_per_elem, ew)
        _GroupCapture.varith(self, n_elems, n_instr, flops_per_elem, ew)

    def vbroadcast(self, n: int = 1) -> None:
        _EventLog.vbroadcast(self, n)
        _GroupCapture.vbroadcast(self, n)

    def sw_prefetch(self, addr: int, nbytes: int, level: str = "L1") -> None:
        _EventLog.sw_prefetch(self, addr, nbytes, level)
        _GroupCapture.sw_prefetch(self, addr, nbytes, level)

    def count_flops(self, n: float) -> None:
        _EventLog.count_flops(self, n)
        _GroupCapture.count_flops(self, n)

    def spill(self, n_registers: int = 1) -> None:
        _EventLog.spill(self, n_registers)
        _GroupCapture.spill(self, n_registers)


def capture_sweep(
    emit: Callable,
    machines: Sequence[MachineConfig],
    key: str,
    meta: dict,
) -> Optional[List[SimStats]]:
    """Run the kernels once and price every machine of a sweep group.

    *emit* is called with a simulator-API object (a recording
    :class:`_GroupCapture`) and must drive the kernel event stream into
    it — e.g. ``lambda sim: net._emit_trace(sim, policy, n, True)``.
    The kernels run against ``machines[0]``; since a replayable group
    only varies in fields kernels never read (L2 geometry, DRAM, VPU
    pricing parameters), the event stream is valid for the whole group.
    A singleton group is a valid group, so this is the one cold path
    for every capture a sweep needs.

    Returns one ``SimStats`` per machine (bitwise identical to direct
    simulation), or ``None`` for unsupported groups — the caller should
    fall back to per-point simulation.

    The same kernel run records the trace under *key*
    (:func:`repro.core.tracecache.trace_key`; *meta* becomes its
    metadata), and the capture is kept for later sweeps: the trace is
    spilled to disk when spilling is on (and then not held in memory)
    or registered in-process otherwise, the shared pass is memoized,
    and every tier persists as an ``.rvp`` when the pass cache is on.
    No ``.rpp`` is written: every point this capture priced has a tier.
    """
    machines = list(machines)
    if not machines:
        return []
    if group_mode(machines) is None:
        return None
    from ..core import tracecache

    cap = _RecordingCapture(machines[0])
    emit(cap)
    trace = cap.recorded_trace(key, meta)
    digest = trace.content_digest()
    compat = _trace_compat(trace)
    tracecache.put(key, trace, resident=False)
    del trace
    skel, inv, gc = cap.finish()
    del cap
    gc.pop("distinct")  # only an .rpp would carry it
    sig = _shared_pass_sig(machines[0], True)
    _memo_put((key, digest, True, sig), (skel, inv, gc))
    ctx = (key, _sig_token(sig), digest, compat)
    return _run_points(skel, inv, gc, machines, cache_ctx=ctx)
