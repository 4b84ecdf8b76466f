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
  — all identical across the group), producing the shared-pass
  *program*: pre-priced invariant cycle contributions plus, for every
  event that reached the L2, its line addresses.  The VPU-dependent
  cycle terms are not pre-priced: the shared pass records each
  distinct (event kind, element count, operand shape) as a *pricing
  class*, and every point resolves the class table once against its
  own VPU — so one capture prices a lane sweep too.

* :func:`capture_sweep` — the one cold path for every replayable group,
  singletons (one VL point) included: one kernel run records the trace
  (:class:`~repro.machine.trace.TraceRecorder`), which is spilled or
  registered, and the shared pass runs over it.  It keeps what it built
  for the next sweep: the trace, the shared pass (memo) and one tier
  per point (``.rvp``).  :func:`replay_sweep_cached` answers a warm
  group from those tiers alone.

Skeleton and tiers
------------------
The program exists in one form only: the NumPy columns of a
:class:`_Skeleton`.  :func:`_shared_pass` builds them with
:func:`repro.machine.replay_vec._shared_pass_vec` (column arithmetic
over a recorded trace, in bounded row chunks), checked against the
per-event oracle :func:`_shared_pass_python` (a :class:`_GroupCapture`
driven by the trace's rows); the ``.rpp`` file stores them.  The
skeleton holds what no L2 can change: the pre-priced floats, the label
of every item, the fixed VPU pricing classes, and for each L2-reaching
event its tier-independent pricing key and its pending line addresses.

Every design point is priced the same way: :func:`_point_pass_vec`
folds a *tier* — the skeleton's item columns plus a table of pricing
classes — with ``np.add.accumulate`` / ``np.bincount``.  A tier adds to
the skeleton each L2 event's ``(hits, misses)`` split on one L2,
resolved by one of two builders and interned into classes with one
``np.unique`` (:func:`_intern`):

* :func:`_compile_fast` — an L2 in which no set ever holds more
  distinct lines than ways never evicts, so a line hits **iff** it was
  touched before; only its first touch needs the residency-range model.
  The tier depends only on the L2 byte budget (``None`` when the ranges
  never trim), and resolving it range-checks just the first-touch
  lines.  Prefetcher and prefetch-hint fills rule it out (they insert
  lines outside the demand stream).
* :func:`_compile_walk` — the exact LRU walk of one L2 geometry and
  prefetcher.  Without fills only the sets that can overflow are
  walked, all at once (:func:`_lru_hits`); every other line is a
  first-touch range check or a hit.  With fills or an L2 prefetcher it
  walks every line (:func:`_compile_walk_lines`).

Both builders run the residency-range model once per stretch between
range notes (:func:`_range_misses`), not once per address.  Tiers carry
no latency or VPU, so one serves every point sharing its L2 budget or
geometry — a lane sweep prices from one tier — and each persists as an
``.rvp`` file next to the trace.

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
lock-step with hierarchy.py when the model changes.  The array walk of
:mod:`repro.machine.replay_vec` is checked against them column for
column.
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
    RecordedTrace,
    SampledTraceBase,
    TraceRecorder,
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

    Takes a recorded trace's events through TraceSimulator-style event
    methods and walks every memory event through the levels that are
    identical across a sweep group: TLB, L1, L1 prefetcher,
    VectorCache.  It appends the shared-pass program straight into
    :class:`_Skeleton` columns (a :class:`_SkeletonBuilder`) and folds
    the invariant ``SimStats`` fields; :meth:`finish` returns both with
    the group constants.  It serves two callers: the per-event oracle
    :func:`_shared_pass_python`, and the walk of
    :func:`~repro.machine.replay_vec._shared_pass_vec` on machines with
    a TLB, an L1 prefetcher or honoured software prefetches (the group
    constants and class table serve every machine).

    The program has one *item* per event that adds cycles, in event
    order, each carrying the id of the kernel label current at that
    event (``kid``; labels are numbered by first appearance, so kernels
    that add no cycles get no ``kernel_cycles`` entry).  An item is one
    of:

    * a pre-priced, weighted cycle contribution, appended to ``base``.
      Never coalesced: pricing must fold cycles in the direct
      simulator's event order for bitwise identity.
    * an *L2 event* (``ev_*`` columns): a vector memory access with
      pending lines for the L2, keyed ``(3, w, inv_lat, occ1, nbytes,
      n_lines, write, unit)``, or a scalar access with at least one L1
      miss, keyed ``(4, w, inv_lat, occ1, write)``.  The key is interned
      into ``ev_defs``; the pending lines go to ``addrs`` as *byte
      addresses* (the source-level granularity and shift are group
      constants, so they are folded here once instead of per line per
      point; the point pass recovers the L2 line as ``a >> l2_shift``).
    * a *VPU-priced* item (``t6_*`` columns) whose cycle cost depends
      on lane count / MLP / port width, interned as ``(6, w, cid)`` into
      ``t6_defs``.  The class table (``gc["classes"]``) maps ``cid`` to
      the event's pricing inputs; each point resolves the table once
      against its own VPU (:func:`_vpu_price_table`) and folds
      ``w * price`` at the item.

    ``note_resident_range`` calls ``(2, base, nbytes)`` and honoured
    software-prefetch fills into the L2 ``(5, lines)`` are not items:
    they go to ``side`` with their position in ``addrs``.
    """

    def __init__(self, base: MachineConfig):
        super().__init__()
        self.machine = base
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
        # Vector pending lines are L1-granular on an L1-port machine,
        # L2-granular otherwise; scalar ones are always L1-granular.
        # Both are emitted as byte addresses (granularity folded at
        # capture): ``line * step``.
        self._v_step = 1 << (self._l1_shift if self._port_l1 else self._l2_shift)
        self._l1_step = 1 << self._l1_shift

        self._sk = _SkeletonBuilder()
        self._put = self._sk.base.append  # pre-bound: a pre-priced item
        self._cur_label: Optional[str] = None  # forces the first switch
        # (w, event shape) -> tag-6 id, one memo per event kind.
        self._vmem_memo: dict = {}
        self._varith_memo: dict = {}
        self._vb_memo: dict = {}
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
    def note_resident_range(self, base: int, nbytes: int) -> None:
        self._side((2, base, nbytes))
        self._track_range(base, nbytes)

    def _track_range(self, base: int, nbytes: int) -> None:
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

    # -- program columns -----------------------------------------------
    def _switch(self) -> None:
        """Make the innermost kernel label current, if it is not."""
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            self._set_label(label)

    def _set_label(self, label: str) -> None:
        # Items appended from here on carry *label*'s id.
        sk = self._sk
        kid = sk.label_ids.get(label)
        if kid is None:
            kid = sk.label_ids[label] = len(sk.labels)
            sk.labels.append(label)
        sk.sw_pos.append(len(sk.base))
        sk.sw_kid.append(kid)
        self._cur_label = label

    def _l2_item(self, key: tuple, addrs) -> None:
        """Append an L2 event: its pricing key and pending byte addresses."""
        sk = self._sk
        ev_ids = sk.ev_ids
        k = ev_ids.get(key)
        if k is None:
            k = ev_ids[key] = len(sk.ev_defs)
            sk.ev_defs.append(key)
        sk.ev_key.append(k)
        cls_pos = sk.cls_pos
        sk.ev_at.append(len(cls_pos))
        base = sk.base
        cls_pos.append(len(base))
        base.append(0.0)
        col = sk.addrs
        col.extend(addrs)
        sk.ev_off.append(len(col))

    def _vpu_item(self, t6: int) -> None:
        """Append a VPU-priced item of tag-6 id *t6* (see :meth:`_t6_id`)."""
        sk = self._sk
        sk.t6_cls.append(t6)
        cls_pos = sk.cls_pos
        sk.t6_at.append(len(cls_pos))
        base = sk.base
        cls_pos.append(len(base))
        base.append(0.0)

    def _t6_id(self, w: float, defn: tuple) -> int:
        """Intern ``(6, w, cid)`` for pricing class *defn*; return its id."""
        key = (6, w, self._class_id(defn))
        sk = self._sk
        t6 = sk.t6_ids.get(key)
        if t6 is None:
            t6 = sk.t6_ids[key] = len(sk.t6_defs)
            sk.t6_defs.append(key)
        return t6

    def _side(self, item: tuple) -> None:
        """Record a residency-range note or prefetch-fill list."""
        sk = self._sk
        sk.side.append((len(sk.addrs), item))

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
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            self._set_label(label)
        self._put(w * (n * self._scalar_cpi))

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
            label = self._kernel_stack[-1]
            if label != self._cur_label:
                self._set_label(label)
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
                    self._put(w * (self._scalar_cpi + stall + 0.0 + 0.0))
                else:
                    self._put(w * self._scalar_cpi)
                return
            ways[first] = write
            if len(ways) > self._l1_assoc:
                ways.pop(next(iter(ways)))
            if self._pf1 is not None:
                self._pf1.observe(self._l1, first)
            self._l1_misses_c += w * 1
            # occ1 = 0.0 + fill_l1 and lat_i += l1_lat, as in the loop.
            lat_i += self._l1_lat
            self._l2_item(
                (4, w, lat_i, 0.0 + self._fill_l1, write), (first << l1_shift,)
            )
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
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            self._set_label(label)
        if pend:
            self._l2_item(
                (4, w, lat_i, occ1, write), map(self._l1_step.__mul__, pend)
            )
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
                self._put(w * (self._scalar_cpi + stall + 0.0 + 0.0))
            else:
                self._put(w * self._scalar_cpi)

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
                    pend = range(first, last + 1)
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
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            self._set_label(label)
        if pend:
            self._l2_item(
                (3, w, lat_i, occ1, nbytes, n_lines, write, unit),
                map(self._v_step.__mul__, pend),
            )
        else:
            # Fully served upstream, but the price reads the VPU: a
            # pricing class.
            mkey = (w, lat_i, occ1, nbytes, n_lines, write, unit)
            memo = self._vmem_memo
            t6 = memo.get(mkey)
            if t6 is None:
                t6 = memo[mkey] = self._t6_id(
                    w, ("m", lat_i, occ1, nbytes, n_lines, write, unit)
                )
            self._vpu_item(t6)

    def varith(
        self, n_elems: int, n_instr: int = 1, flops_per_elem: float = 2.0, ew: int = 4
    ) -> None:
        if n_elems <= 0 or n_instr <= 0:
            return
        w = self._w
        vkey = (w, n_elems, n_instr, ew)
        memo = self._varith_memo
        t6 = memo.get(vkey)
        if t6 is None:
            t6 = memo[vkey] = self._t6_id(w, ("a", n_elems, n_instr, ew))
        self._vec_instrs += w * n_instr
        self._vec_elems += w * n_instr * n_elems
        self._flops += w * n_instr * n_elems * flops_per_elem
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            self._set_label(label)
        self._vpu_item(t6)

    def vbroadcast(self, n: int = 1) -> None:
        w = self._w
        self._vec_instrs += w * n
        self._switch()
        memo = self._vb_memo
        t6 = memo.get((w, n))
        if t6 is None:
            t6 = memo[(w, n)] = self._t6_id(w, ("b", n))
        self._vpu_item(t6)

    def sw_prefetch(self, addr: int, nbytes: int, level: str = "L1") -> None:
        if level not in ("L1", "L2"):
            raise ValueError(f"unknown prefetch level {level!r}")
        w = self._w
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
                self._side((5, tuple(fills)))
            else:
                l2_shift = self._l2_shift
                firstp = addr >> l2_shift
                lastp = (addr + nbytes - 1) >> l2_shift
                self._side((5, tuple(range(firstp, lastp + 1))))
            self._sw_prefetches_c += w
            self._switch()
            self._put(w * self._scalar_cpi)
        elif self._noop_pf:
            self._scalar_instrs += w
            self._switch()
            self._put(w * self._scalar_cpi)
        # else: dropped at compile time — free.

    def count_flops(self, n: float) -> None:
        self._flops += self._w * n

    def spill(self, n_registers: int = 1) -> None:
        # Mirrors TraceSimulator.spill: per register one full-vector
        # store and reload at stack address 0, then the serialization
        # penalty and the spill counter.
        n_elems = (self.machine.vlen_bits // 8) // 4
        if n_elems > 0:
            for _ in range(n_registers):
                self._vmem(0, n_elems, 4, 0, True)
                self._vmem(0, n_elems, 4, 0, False)
        w = self._w
        self._switch()
        self._put(w * (n_registers * _SPILL_SERIALIZE_CYCLES))
        self._spills_c += w * n_registers

    # -- freezing ------------------------------------------------------
    def finish(self):
        """Return ``(skeleton, inv, gc)`` for the tier builders."""
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
        return self._sk.build(self._l2_shift), inv, self.constants()

    def constants(self) -> dict:
        """The group constants ``gc`` that go with the program."""
        return {
            "vpu": self._vpu,
            "port_l1": self._port_l1,
            "l1_lat": self._l1_lat,
            "ooo_hide": self._ooo_hide,
            "scalar_cpi": self._scalar_cpi,
            "l2_shift": self._l2_shift,
            "max_range_total": self._max_range_total,
            "has_fills": self._has_fills,
            "pf2_cfg": self._pf2_cfg,
            "classes": self._classes,
        }


def _vpu_price_table(classes: list, vpu, l1_lat, ooo_hide) -> list:
    """Resolve deferred pricing classes against one point's VPU.

    Returns ``prices`` such that a tag-6 item ``(6, w, cid)`` folds
    ``w * prices[cid]`` — the very float the direct simulator adds for
    the event (bitwise: the class holds the exact arguments of its
    ``varith`` / ``vbroadcast`` / ``_vmem`` pricing call).
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


def _shared_pass(trace: RecordedTrace, base: MachineConfig):
    """Shared pass over *trace*: ``(skeleton, inv, gc)``.

    Runs the vectorized engine over bounded row chunks;
    :func:`_shared_pass_python` is the oracle it is checked against
    (tests/test_replay_vec.py).
    """
    from .replay_vec import _shared_pass_vec  # deferred: import cycle

    return _shared_pass_vec(trace, base)


def _shared_pass_python(trace: RecordedTrace, base: MachineConfig):
    """Drive a :class:`_GroupCapture` from a recorded trace's rows.

    The per-event reference loop — the oracle the vectorized engine
    (:func:`repro.machine.replay_vec._shared_pass_vec`) is verified
    against.
    """
    cap = _GroupCapture(base)
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
    """The shared-pass program: tier-independent NumPy columns.

    Written by :func:`repro.machine.replay_vec._shared_pass_vec` (and
    by the oracle's :class:`_GroupCapture`), stored as the ``.rpp``
    payload, and shared by every tier compiled from it:

    * the item columns of :class:`_VecProgram` — ``base`` (pre-priced
      floats, 0.0 at class items), ``kid`` (label id per item),
      ``labels`` (first-appearance order) and ``cls_pos`` (item
      position of every class item: L2 events and VPU-priced items);
    * the VPU-priced items: ``t6_at`` (class-item slot of each),
      ``t6_cls`` (its index into ``t6_defs``, the interned
      ``(6, w, cid)`` keys in first-occurrence order);
    * per L2-reaching event, in stream order: ``ev_at`` (its class-item
      slot), ``ev_key`` (index into ``ev_defs``, the interned
      tier-independent pricing keys ``(3, w, inv_lat, occ1, nbytes,
      n_lines, write, unit)`` and ``(4, w, inv_lat, occ1, write)``),
      ``ev_scalar`` (a tag-4 key: a scalar access) and ``ev_off``
      (offsets into ``addrs``);
    * ``addrs``, the pending byte addresses of every event, flattened;
      ``lines``, the distinct L2 lines, and ``ft_pos``, the position of
      each line's first touch — the one access to it a conflict-free L2
      cannot hit without the residency-range model;
    * ``side``, the residency-range notes ``(2, base, nbytes)`` and
      prefetch fills ``(5, lines)`` as ``(address position, item)`` in
      stream order.

    ``ev_scalar``, ``lines`` and ``ft_pos`` are derived here from the
    other columns (the last two unless the emitter tracked them).  A
    tier adds only each event's ``(hits, misses)`` split (:func:`_intern`).
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

    def __init__(
        self, l2_shift: int, *, base, kid, labels, cls_pos, t6_at, t6_cls,
        t6_defs, ev_at, ev_key, ev_defs, ev_off, addrs, side, lines=None,
        ft_pos=None,
    ):
        self.base = base
        self.kid = kid
        self.labels = labels
        self.cls_pos = cls_pos
        self.t6_at = t6_at
        self.t6_cls = t6_cls
        self.t6_defs = t6_defs
        self.ev_at = ev_at
        self.ev_key = ev_key
        self.ev_defs = ev_defs
        self.ev_off = ev_off
        self.addrs = addrs
        self.side = side
        self.ev_scalar = np.array([d[0] == 4 for d in ev_defs], dtype=bool)[ev_key]
        if lines is None:
            # A pending line is a first touch iff its L2 line never
            # reached the L2 earlier in the stream: its first occurrence
            # in the flattened address column (return_index picks it).
            lines, first = np.unique(addrs >> l2_shift, return_index=True)
            ft_pos = np.sort(first)
        self.lines = lines
        self.ft_pos = ft_pos


class _SkeletonBuilder:
    """Typed column buffers a shared pass appends items to.

    :class:`_GroupCapture` appends one item at a time, the vectorized
    pass one chunk of columns at a time.  Columns accumulate in
    ``array`` buffers (no per-item Python objects) and become the
    :class:`_Skeleton`'s NumPy arrays without a copy.  Label ids are
    recorded where they change (``sw_pos`` / ``sw_kid``) and expanded
    to the per-item ``kid`` column once.
    """

    def __init__(self):
        self.base = array("d")
        self.sw_pos = array("q")
        self.sw_kid = array("q")
        self.labels: list = []
        self.label_ids: dict = {}
        self.cls_pos = array("q")
        self.t6_at = array("q")
        self.t6_cls = array("q")
        self.t6_defs: list = []
        self.t6_ids: dict = {}
        self.ev_at = array("q")
        self.ev_key = array("q")
        self.ev_defs: list = []
        self.ev_ids: dict = {}
        self.ev_off = array("q", [0])
        self.addrs = array("q")
        self.side: list = []

    def build(self, l2_shift: int, lines=None, ft_pos=None) -> _Skeleton:
        n = len(self.base)
        kid = np.full(n, -1, dtype=np.int64)
        if self.sw_pos:
            sw_pos = np.frombuffer(self.sw_pos, dtype=np.int64)
            kid[sw_pos[0]:] = np.repeat(
                np.frombuffer(self.sw_kid, dtype=np.int64),
                np.diff(np.append(sw_pos, n)),
            )
        return _Skeleton(
            l2_shift,
            base=np.frombuffer(self.base, dtype=np.float64),
            kid=kid,
            labels=self.labels,
            cls_pos=np.frombuffer(self.cls_pos, dtype=np.int64),
            t6_at=np.frombuffer(self.t6_at, dtype=np.int64),
            t6_cls=np.frombuffer(self.t6_cls, dtype=np.int64),
            t6_defs=self.t6_defs,
            ev_at=np.frombuffer(self.ev_at, dtype=np.int64),
            ev_key=np.frombuffer(self.ev_key, dtype=np.int64),
            ev_defs=self.ev_defs,
            ev_off=np.frombuffer(self.ev_off, dtype=np.int64),
            addrs=np.frombuffer(self.addrs, dtype=np.int64),
            side=self.side,
            lines=lines,
            ft_pos=ft_pos,
        )


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


def _range_misses(pos: np.ndarray, addrs: np.ndarray, side: list, hier) -> np.ndarray:
    """Residency-range misses of the byte addresses *addrs*, in order.

    The addresses sit at stream positions *pos* (into ``skel.addrs``,
    rising) and are range-checked exactly as ``MemoryHierarchy`` would
    check them there, interleaved with the skeleton's *side* notes:
    returns ``miss`` with ``miss[j]`` true iff ``_range_hit(addrs[j])``
    would fail.  *hier* (a :meth:`MemoryHierarchy.pricing_view`) holds
    the range model and is advanced through every note.

    Between two notes the ranges' membership is fixed and the ranges
    are disjoint, so each stretch is one ``searchsorted`` containment
    test.  Only their order moves: ``_range_hit`` refreshes a hit range
    to the MRU end, so after the stretch the hit ranges follow the
    unhit ones, ordered by their last hit — the order the next note's
    trim picks victims by.  Notes run through ``note_resident_range``
    itself.  *side* must hold no prefetch fills.
    """
    miss = np.ones(len(pos), dtype=bool)
    cuts = np.searchsorted(pos, [p for p, _ in side], side="left").tolist()
    cuts.append(len(pos))
    notes = [it for _, it in side] + [None]
    lo = 0
    for hi, it in zip(cuts, notes):
        ranges = hier._ranges
        if ranges and hi > lo:
            by_start = sorted(ranges)
            starts = np.array([r[0] for r in by_start], dtype=np.int64)
            ends = np.array([r[1] for r in by_start], dtype=np.int64)
            seg = addrs[lo:hi]
            j = np.searchsorted(starts, seg, side="right") - 1
            inside = (j >= 0) & (seg < ends[j])
            miss[lo:hi] = ~inside
            hit_j = j[inside]
            if len(hit_j):
                # First index in the reversed hits = last hit in order.
                hit, last = np.unique(hit_j[::-1], return_index=True)
                mru = [by_start[k] for k in hit[np.argsort(-last)].tolist()]
                ids = {id(r) for r in mru}
                ranges[:] = [r for r in ranges if id(r) not in ids] + mru
        lo = hi
        if it is not None:
            hier.note_resident_range(it[1], it[2])
    return miss


def _lru_hits(lines: np.ndarray, num_sets: int, assoc: int) -> np.ndarray:
    """Per-access hit flags of an LRU cache walked by *lines*, in order.

    The cache has *num_sets* sets of *assoc* ways and starts empty;
    ``lines[i]`` hits iff it is resident when accessed — exactly the
    outcome of a dict LRU per set.  One set (a fully associative cache,
    such as the VectorCache) takes :func:`_lru_hits_one_set`.  Otherwise
    the sets are walked in lockstep: the accesses are grouped by set
    (most accessed set first) with one stable sort, and step ``t``
    applies the ``t``-th access of every set that has one to an
    ``(assoc, sets)`` recency stack, row 0 the most recent.  A hit is a
    match in the column; the rows above it shift down one (every row on
    a miss, dropping the LRU line) and the access goes on top.  ``-1``
    marks an empty way, so sets that are not yet full fill like the
    dict.
    """
    hits = np.zeros(len(lines), dtype=bool)
    if not len(lines):
        return hits
    if num_sets == 1:
        return _lru_hits_one_set(lines, assoc)
    sets = lines % num_sets
    counts = np.bincount(sets, minlength=num_sets)
    by_count = np.argsort(-counts, kind="stable")
    rank = np.empty(num_sets, dtype=np.uint16 if num_sets <= 1 << 16 else np.int64)
    rank[by_count] = np.arange(num_sets)
    order = np.argsort(rank[sets], kind="stable")
    grouped = lines[order]
    counts = counts[by_count]
    counts = counts[counts > 0]
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    # Sets still walking at step t: those with more than t accesses,
    # a prefix of the count-ranked sets.
    active = np.searchsorted(-counts, -np.arange(counts[0]), side="left")
    stack = np.full((assoc, len(counts)), -1, dtype=lines.dtype)
    hit_grouped = np.empty(len(lines), dtype=bool)
    for t, k in enumerate(active.tolist()):
        at = starts[:k] + t
        x = grouped[at]
        s = stack[:, :k]
        eq = s == x
        # Rows below a match keep their line; the match and the rows
        # above it shift down one, all rows on a miss.
        keep = np.logical_or.accumulate(eq[:-1], axis=0)
        hit_grouped[at] = eq.any(axis=0)
        s[1:] = np.where(keep, s[1:], s[:-1])
        s[0] = x
    hits[order] = hit_grouped
    return hits


#: Accesses between two samples of the LRU horizon
#: (:func:`_lru_hits_one_set`), and the widest window searched per
#: sample or access before the bounds or a whole-span count take over.
_HORIZON_STEP = 128
_HORIZON_MAX = 1 << 12


def _lru_hits_one_set(lines: np.ndarray, assoc: int) -> np.ndarray:
    """:func:`_lru_hits` of one fully associative set of *assoc* ways.

    Lockstep would take one NumPy step per access here; the *horizon*
    does not.  With ``p(t)`` the previous access to ``lines[t]``'s line,
    access ``t`` hits iff fewer than *assoc* distinct lines were
    accessed in ``(p(t), t)``, that is iff ``p(t) >= H(t)``: the horizon
    ``H(t)`` is the last access to the *assoc*-th most recent distinct
    line before ``t`` (0 while fewer lines were seen).  ``H`` never
    decreases, so it is sampled every ``_HORIZON_STEP`` accesses
    (:func:`_horizon`): in the block after sample ``s``, ``p < H(s)``
    proves a miss and ``p >= H(next sample)`` a hit.  The few accesses
    left are counted exactly (:func:`_distinct_since`).
    """
    n = len(lines)
    order = np.argsort(lines, kind="stable")
    by_line = lines[order]
    same = by_line[1:] == by_line[:-1]
    earlier, later = order[:-1][same], order[1:][same]
    del order, by_line, same
    prev = np.full(n, -1, dtype=np.int64)
    prev[later] = earlier
    nxt = np.full(n, n, dtype=np.int64)
    nxt[earlier] = later
    del earlier, later
    step = _HORIZON_STEP
    lo, hi = _horizon(nxt, np.append(np.arange(0, n, step), n), assoc)
    hits = prev >= np.repeat(hi[1:], step)[:n]
    unsure = np.flatnonzero(~hits & (prev >= np.repeat(lo[:-1], step)[:n]))
    if len(unsure):
        hits[unsure] = _distinct_since(prev, unsure, assoc)
    return hits


def _widening(n_rows: int, assoc: int, probe):
    """Settle rows with ``probe(rows, width)``, which returns the rows it
    settled, over windows widening 4x from ``2 * assoc`` to
    ``_HORIZON_MAX`` in small slices; returns the rows left and the last
    width."""
    todo, width = np.arange(n_rows), 2 * assoc
    while len(todo):
        step = max(1, (1 << 16) // width)
        parts = [todo[lo:lo + step] for lo in range(0, len(todo), step)]
        todo = np.concatenate([part[~probe(part, width)] for part in parts])
        if width >= _HORIZON_MAX:
            break
        width *= 4
    return todo, width


def _horizon(nxt: np.ndarray, samples: np.ndarray, assoc: int):
    """Bounds ``(lo, hi)`` on the LRU horizon at each of *samples*.

    ``H(s)`` is the *assoc*-th largest access ``j < s`` whose line is
    not accessed again before ``s`` (``nxt[j] >= s``).  Each sample
    searches a window before it (:func:`_widening`); one that reaches
    the stream start has seen fewer than *assoc* lines, so ``H(s) = 0``.
    A search given up at width ``w`` leaves ``H(s) < s - w``, and the
    exact samples around it bound it further, since ``H`` never
    decreases.
    """
    exact = np.full(len(samples), -1, dtype=np.int64)

    def probe(part, width):
        s = samples[part]
        j = s[:, None] - 1 - np.arange(width)
        alive = (j >= 0) & (nxt[np.maximum(j, 0)] >= s[:, None])
        count = np.cumsum(alive, axis=1)
        found = count[:, -1] >= assoc
        exact[part] = np.where(found, s - 1 - np.argmax(count >= assoc, axis=1), 0)
        return found | (s <= width)

    todo, width = _widening(len(samples), assoc, probe)
    exact[todo] = -1
    known = exact >= 0
    lo = np.maximum.accumulate(np.where(known, exact, 0))
    hi = np.minimum.accumulate(np.where(known, exact, len(nxt))[::-1])[::-1]
    hi[todo] = np.minimum(hi[todo], samples[todo] - width - 1)
    return lo, hi


def _distinct_since(prev: np.ndarray, at: np.ndarray, assoc: int) -> np.ndarray:
    """Hit flags of the accesses *at* of a one-set LRU stream.

    Access ``t`` hits iff fewer than *assoc* distinct lines were
    accessed in ``(p, t)``, ``p = prev[t]``: the accesses ``j`` there
    with ``prev[j] < p`` (each is the first access of its line since
    ``p``).  They are counted backwards from ``t`` in widening windows
    (:func:`_widening`), stopping at *assoc*; a span still open after
    the widest is counted whole.
    """
    p = prev[at]
    hit = np.zeros(len(at), dtype=bool)

    def probe(part, width):
        t, pp = at[part], p[part]
        j = t[:, None] - 1 - np.arange(width)
        new = (j > pp[:, None]) & (prev[np.maximum(j, 0)] < pp[:, None])
        count = new.sum(axis=1)
        hit[part] = count < assoc
        return (count >= assoc) | (t - 1 - pp <= width)

    todo, _ = _widening(len(at), assoc, probe)
    for k in todo.tolist():
        t, pk = int(at[k]), int(p[k])
        hit[k] = np.count_nonzero(prev[pk + 1:t] < pk) < assoc
    return hit


def _lru_resident(lines: np.ndarray, num_sets: int, assoc: int) -> np.ndarray:
    """The lines an LRU cache holds after a walk of *lines* from empty.

    Each set holds its *assoc* most recently accessed distinct lines.
    They come grouped by set, oldest first within a set: an empty cache
    that sees them in that order ends in the same state, which is how a
    walk carries residency from one chunk of its stream to the next.
    Only a tail of *lines* is read, widened until every set is full in
    it or it spans the stream.
    """
    n = len(lines)
    width = 4 * assoc
    while True:
        tail = lines[max(0, n - width):]
        # recency 0 is the most recent access of the tail
        u, recency = np.unique(tail[::-1], return_index=True)
        sets = u % num_sets
        order = np.lexsort((recency, sets))
        u, sets = u[order], sets[order]
        keep = np.arange(len(u)) - np.searchsorted(sets, sets) < assoc
        if width >= n or np.count_nonzero(keep) == num_sets * assoc:
            return u[keep][::-1].copy()
        width *= 4


def _compile_fast(skel: _Skeleton, gc: dict, machine: MachineConfig) -> _VecProgram:
    """Conflict-free tier: no L2 set ever exceeds its associativity.

    Such an L2 never evicts, so a pending line hits iff its L2 line was
    touched before — except at its first touch (``skel.ft_pos``), where
    only the residency-range model can make it a hit.  This resolves
    just those first touches, through *machine*'s range model
    (:func:`_range_misses`) — valid for every point sharing its L2 byte
    budget, since the range outcome depends on nothing else.  A
    ``fast:None`` tier may pass any member: no recorded range outgrows
    its L2, so nothing ever trims.
    """
    side = skel.side
    if any(it[0] == 5 for _, it in side):
        raise ValueError("prefetch fills in a conflict-free tier")
    ft = skel.ft_pos
    miss = _range_misses(
        ft, skel.addrs[ft], side, MemoryHierarchy.pricing_view(machine)
    )
    return _intern(skel, _misses_per_event(skel, ft[miss]))


def _compile_walk(skel: _Skeleton, gc: dict, machine: MachineConfig) -> _VecProgram:
    """Walk tier: resolve *machine*'s exact L2 walk once.

    The walk reads only the L2 geometry, the L2 prefetcher and the
    event stream, so the tier is valid for every point sharing those
    with *machine* (a lane sweep, or a DRAM sweep over a conflicted
    L2), whatever its latencies or VPU.

    Without fills (no honoured prefetches, no L2 prefetcher) a set that
    is not hot (:func:`_hot_sets`) never evicts, so its lines hit after
    their first touch, and the first touch takes just the range check.
    The hot sets' LRU hits come from one lockstep walk
    (:func:`_lru_hits`); their LRU misses and the cold sets' first
    touches, merged in stream order, then take the range check
    (:func:`_range_misses`) — the ``_range_hit`` calls the full walk
    makes, in its order, which matters because ``_range_hit``
    LRU-refreshes the range list and a later trim picks its victims by
    that order.  With fills the tier takes the full walk,
    :func:`_compile_walk_lines`.
    """
    l2 = machine.l2
    num_sets = l2.size_bytes // (l2.assoc * l2.line_bytes)
    if gc["has_fills"] or machine.l2_prefetcher or num_sets <= 0:
        return _compile_walk_lines(skel, gc, machine)
    hot = _hot_sets(skel, num_sets, l2.assoc)
    l2_lines = skel.addrs >> gc["l2_shift"]
    hot_at = hot[l2_lines % num_sets]
    hot_pos = np.flatnonzero(hot_at)
    hot_lines = l2_lines[hot_pos]
    del l2_lines
    lru_miss = hot_pos[~_lru_hits(hot_lines, num_sets, l2.assoc)]
    ft = skel.ft_pos
    check = np.sort(np.concatenate([lru_miss, ft[~hot_at[ft]]]))
    del hot_at, hot_pos, hot_lines, lru_miss
    miss = _range_misses(
        check, skel.addrs[check], skel.side, MemoryHierarchy.pricing_view(machine)
    )
    return _intern(skel, _misses_per_event(skel, check[miss]))


def _compile_walk_lines(
    skel: _Skeleton, gc: dict, machine: MachineConfig
) -> _VecProgram:
    """Walk tier, line by line: the L2 walk of ``MemoryHierarchy``.

    State transitions identical to ``MemoryHierarchy``'s L2 —
    conflicted sets evict LRU, honoured prefetch fills and L2
    prefetcher fills land, residency ranges trim in stream order —
    over every pending line.  Dirty bits only feed writeback counters
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
    addrs = skel.addrs.tolist()
    if pf2 is not None and not gc["port_l1"]:
        # Only the L1-port vector path feeds the L2 prefetcher (the
        # L2-port path has none); the scalar path always does.
        observes = np.repeat(skel.ev_scalar, np.diff(skel.ev_off)).tolist()
    else:
        observes = None
    cuts = [p for p, _ in side] + [len(addrs)]
    items = [it for _, it in side] + [None]
    misses = []
    lo = 0
    for hi, it in zip(cuts, items):
        # _range_hit only reorders the range list in place;
        # note_resident_range rebinds it, refreshed here.
        ranges = hier._ranges
        for j in range(lo, hi):
            a = addrs[j]
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
    miss_pos = np.asarray(misses, dtype=np.int64)
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
    skel: _Skeleton,
    inv: SimStats,
    gc: dict,
    machines: Sequence[MachineConfig],
    cache_ctx: Optional[Tuple[str, str, str, dict]] = None,
) -> List[SimStats]:
    """Price a shared-pass program on every machine of the group.

    Every machine is priced by :func:`_point_pass_vec` from one tier (:func:`_tier_for`):
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
            build = _compile_walk if tier["kind"] == "walk" else _compile_fast
            cols = build(skel, gc, machines[first])
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


def _shared_pass_sig(m: MachineConfig):
    l2n = replace(m.l2, size_bytes=m.l2.line_bytes * 8, assoc=1, latency=0)
    norm = replace(
        m,
        name="",
        l2=l2n,
        dram_latency=0,
        dram_bytes_per_cycle=1,
        peak_gflops=0.0,
    )
    # VPU pricing is deferred per point; only the walk fields bind.
    v = m.vpu
    return (
        replace(norm, vpu=None),
        v.mem_port,
        v.vector_cache_bytes,
    )


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


def _shared_pass_cached(trace: RecordedTrace, base: MachineConfig):
    """``(skeleton, inv, gc)`` of *trace*'s shared pass: memo, ``.rpp``, or run."""
    if not trace.key:
        return _shared_pass(trace, base)
    from ..core import tracecache

    digest = trace.content_digest()
    sig = _shared_pass_sig(base)
    key = (trace.key, digest, sig)
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
        _header, skel, inv_fields, gc = loaded
        gc["vpu"] = base.vpu
        inv = _inv_from_fields(inv_fields)
    else:
        skel, inv, gc = _shared_pass(trace, base)
        if use_disk:
            tracecache.store_pass(
                skel, _inv_fields(inv), gc,
                key=trace.key, sig=_sig_token(sig),
                trace_sha256=digest, compat=_trace_compat(trace),
            )
    out = (skel, inv, gc)
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

    The shared pass defers VPU pricing to per-point pricing classes
    (see :func:`_vpu_price_table`), so one cached pass serves *every*
    replayable axis of a capture — L2 size, DRAM latency/bandwidth, and
    lane count — both in the memo and in the on-disk compiled-pass
    cache.
    """
    machines = list(machines)
    if not machines:
        return []
    for m in machines:
        _check_compatible(trace, m)
    mode = group_mode(machines)
    if mode is None:
        return None
    skel, inv, gc = _shared_pass_cached(trace, machines[0])
    ctx = None
    if trace.key:
        sig = _shared_pass_sig(machines[0])
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
    sig = _shared_pass_sig(machines[0])
    tok = _sig_token(sig)
    ctx = (key, tok, digest, compat)
    memo_key = (key, digest, sig)
    hit = _SHARED_PASS_MEMO.get(memo_key)
    if hit is not None:
        return _run_points(*hit, machines, cache_ctx=ctx)
    priced = _price_from_tiers(key, tok, digest, machines)
    if priced is not None:
        return priced
    loaded = tracecache.load_pass(key, tok, digest)
    if loaded is None:
        return None
    _header, skel, inv_fields, gc = loaded
    gc["vpu"] = machines[0].vpu
    out = (skel, _inv_from_fields(inv_fields), gc)
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


def capture_sweep(
    emit: Callable,
    machines: Sequence[MachineConfig],
    key: str,
    meta: dict,
) -> Optional[List[SimStats]]:
    """Run the kernels once and price every machine of a sweep group.

    *emit* is called with a :class:`~repro.machine.trace.TraceRecorder`
    and must drive the kernel event stream into it — e.g.
    ``lambda sim: net._emit_trace(sim, policy, n, True)``.  The kernels
    run against ``machines[0]``; since a replayable group only varies
    in fields kernels never read (L2 geometry, DRAM, VPU pricing
    parameters), the event stream is valid for the whole group.  A
    singleton group is a valid group, so this is the one cold path for
    every capture a sweep needs.

    Returns one ``SimStats`` per machine (bitwise identical to direct
    simulation), or ``None`` for unsupported groups — the caller should
    fall back to per-point simulation.

    The recorded trace is the one :meth:`Network.record_trace` would
    capture, keyed *key* (:func:`repro.core.tracecache.trace_key`;
    *meta* becomes its metadata).  It is kept for later sweeps — spilled
    to disk when spilling is on (and then not held in memory), or
    registered in-process otherwise — and the shared pass then runs
    over it (:func:`_shared_pass`, in bounded chunks).  The pass is
    memoized and every tier persists as an ``.rvp`` when the pass cache
    is on.  No ``.rpp`` is written: every point this capture priced has
    a tier.
    """
    machines = list(machines)
    if not machines:
        return []
    if group_mode(machines) is None:
        return None
    from ..core import tracecache

    rec = TraceRecorder(machines[0])
    emit(rec)
    trace = rec.finish(key, meta)
    del rec
    digest = trace.content_digest()
    compat = _trace_compat(trace)
    tracecache.put(key, trace, resident=False)
    skel, inv, gc = _shared_pass(trace, machines[0])
    del trace
    # The pass grew these columns in buffers while the trace was alive:
    # exact-size copies made now can take the trace's memory.
    for name in ("base", "kid", "cls_pos", "t6_at", "t6_cls", "ev_at",
                 "ev_key", "ev_off", "addrs"):
        setattr(skel, name, getattr(skel, name).copy())
    sig = _shared_pass_sig(machines[0])
    _memo_put((key, digest, sig), (skel, inv, gc))
    ctx = (key, _sig_token(sig), digest, compat)
    return _run_points(skel, inv, gc, machines, cache_ctx=ctx)
