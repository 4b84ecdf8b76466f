"""Replay recorded kernel traces against one or many design points.

Two entry points price a trace, and one runs the kernels:

* :func:`replay` — feed a :class:`~repro.machine.trace.RecordedTrace`
  back through a regular :class:`~repro.machine.simulator.TraceSimulator`
  as blocks (``TraceSimulator.events``), one per run of rows at one
  weight and kernel label.  Skips all kernel-side work (loop
  bookkeeping, address arithmetic, policy dispatch) but re-prices every
  event; bitwise identical to direct simulation by construction, since
  kernels drive the very same row pricer with the very same rows and
  weights.  It is the oracle the group engines are tested against.

* :func:`replay_sweep` — price one trace on a whole *group* of machines
  that differ only in L2 geometry/latency and DRAM parameters (the
  paper's Fig. 7/8 cache sweeps) or only in VPU pricing parameters —
  lanes, pipes, MLP, port width, issue overheads (the Fig. 6/8 lane
  and MLP axes).  The trace is walked **once** through the
  group-invariant upstream levels (L1 and VectorCache, identical
  across the group), producing the shared-pass
  *program*: pre-priced invariant cycle contributions plus, for every
  event that reached the L2, its line addresses.  The VPU-dependent
  cycle terms are not pre-priced: the shared pass records each
  distinct (event kind, element count, operand shape) as a *pricing
  class*, and every point resolves the class table once against its
  own VPU — so one capture prices a lane sweep too.  Machines with a
  TLB, a hardware prefetcher or honoured software prefetches (the A64FX
  preset) are never grouped (:func:`group_mode`): the paper sweeps only
  the gem5 cores, which have none, and such points price per point.

* :func:`capture_sweep` — the one cold path for every replayable group,
  singletons (one VL point) included: one kernel run records the trace
  (:class:`~repro.machine.trace.TraceRecorder`), which is spilled or
  registered, and the shared pass runs over it.  It keeps what it built
  for the next sweep: the trace, the shared pass (memo) and one tier
  per point (``.rvp``).  :func:`replay_sweep_cached` answers a warm
  group from the memo or from those tiers alone; a group with a point
  that has no tier decodes the trace and runs the shared pass again
  (:func:`replay_sweep`).  The shared pass is never persisted.

Skeleton and tiers
------------------
The program exists in one form only: the NumPy columns of a
:class:`_Skeleton`.  :func:`_shared_pass` builds them with
:func:`repro.machine.replay_vec._shared_pass_vec` (column arithmetic
over a recorded trace, in bounded row chunks), checked against the
per-event oracle :func:`_shared_pass_python` (a :class:`_GroupCapture`
driven by the trace's rows); the in-process memo keeps them.  The
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
  lines.
* :func:`_compile_walk` — the exact LRU walk of one L2 geometry.  Only
  the sets that can overflow are walked, in lockstep
  (:func:`_lru_hits`), over fixed-size steps of the address column that
  carry their residency; every other line is a first-touch range check
  or a hit.

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
  with the scalar memory rows of ``TraceSimulator._price``.
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

The hierarchy walks in :class:`_GroupCapture` follow
``MemoryHierarchy._l1_path`` / ``_l2_path`` and their strided variants
with the same dict LRUs (minus the L2 lookup, which is deferred): keep
them in step with hierarchy.py when the model changes.  The array walk
of :mod:`repro.machine.replay_vec` is checked against them column for
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
    "replay_sweep_stored",
    "capture_sweep",
    "group_mode",
    "blocking_features",
    "require_group",
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
    for label, w, cols in trace.blocks():
        with sim.kernel(label), sim.region(w):
            sim.events(*cols)
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

#: Machine features the shared pass does not model: a TLB adds latency
#: to accesses, and hardware prefetchers and honoured software
#: prefetches fill the L1 or L2 with lines outside the demand stream
#: the program records.  The paper's gem5 cores have none of them; a
#: machine that has one prices per point through the direct simulator.
_BLOCKING_FEATURES = ("tlb", "l1_prefetcher", "l2_prefetcher", "honors_sw_prefetch")


def blocking_features(machines: Sequence[MachineConfig]) -> List[str]:
    """The ``MachineConfig`` fields among ``_BLOCKING_FEATURES`` that are
    set on any of *machines*."""
    return [f for f in _BLOCKING_FEATURES if any(getattr(m, f) for m in machines)]


def _check_replayable(machine: MachineConfig) -> None:
    """Raise ``ValueError`` if the shared pass cannot walk *machine*."""
    features = blocking_features([machine])
    if features:
        raise ValueError(
            f"the shared pass does not model {', '.join(features)} "
            f"(machine {machine.name!r}); price it per point"
        )


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
    * ``None`` — a machine has a feature the shared pass does not model
      (:func:`blocking_features`: a TLB, a hardware prefetcher or
      honoured software prefetches; singletons included), or the group
      varies in a field the split cannot express (ISA, vector length,
      L1 geometry, core model, VPU port level, VectorCache size, L2 line
      size); callers must fall back to per-point simulation.

    The L2 *line size* must match across the group — it sets the line
    granularity of the recorded pending-line lists.
    """
    if blocking_features(machines):
        return None
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


def require_group(machines: Sequence[MachineConfig]) -> None:
    """Raise ``ValueError`` naming what keeps *machines* from replaying
    as one group (:func:`group_mode` is ``None``): the blocking features,
    else the fields they differ in."""
    if group_mode(machines) is not None:
        return
    features = blocking_features(machines)
    why = (
        f"the shared pass does not model {', '.join(features)}"
        if features
        else f"machines vary in {', '.join(nonuniform_fields(machines))}"
    )
    raise ValueError(
        f"trace replay cannot price this sweep group: {why}; drop "
        "use_trace=True to simulate per point"
    )


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

    The per-event oracle the vectorized pass is checked against
    (:func:`_shared_pass_python` drives it from a recorded trace's
    rows).  It takes the events through TraceSimulator-style event
    methods and walks every memory event through the levels that are
    identical across a sweep group — the L1 and the VectorCache — with
    the dict LRUs of ``MemoryHierarchy``.  It appends the shared-pass
    program straight into :class:`_Skeleton` columns (a
    :class:`_SkeletonBuilder`) and folds the invariant ``SimStats``
    fields; :meth:`finish` returns both with the group constants.  A
    machine with a TLB, a hardware prefetcher or honoured software
    prefetches raises ``ValueError`` (:func:`blocking_features`).

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

    ``note_resident_range`` calls ``(2, base, nbytes)`` are not items:
    they go to ``side`` with their position in ``addrs``.
    """

    def __init__(self, base: MachineConfig):
        super().__init__()
        _check_replayable(base)
        self.machine = base
        # Only the levels above the L2 are walked here: a one-set L2 of
        # the same line size keeps every constant this pass reads and
        # skips allocating one dict per set of a large L2.
        l2_one_set = replace(base.l2, size_bytes=base.l2.line_bytes * base.l2.assoc)
        hier = MemoryHierarchy(replace(base, l2=l2_one_set))
        self._port_l1 = base.vpu.mem_port == "L1"
        self._scalar_cpi = base.core.scalar_cpi
        self._ooo_hide = base.core.ooo_hide
        self._l1_line = base.l1.line_bytes
        self._l1_shift = hier._l1_shift
        self._l2_shift = hier._l2_shift
        self._l1_lat = hier._l1_lat
        self._fill_l1 = hier._fill_l1
        l1 = hier.l1
        self._l1_sets = l1._sets
        self._l1_num = l1.num_sets
        self._l1_assoc = l1.assoc
        vc = hier.vector_cache
        self._vc_set = hier._vc_set
        self._vc_assoc = vc.assoc if vc is not None else 0
        self._noop_pf = base.sw_prefetch_is_noop_instr
        # Vector pending lines are L1-granular on an L1-port machine,
        # L2-granular otherwise; scalar ones are always L1-granular.
        # Both are emitted as byte addresses (granularity folded at
        # capture): ``line * step``.
        self._v_step = 1 << (self._l1_shift if self._port_l1 else self._l2_shift)
        self._l1_step = 1 << self._l1_shift

        self._sk = _SkeletonBuilder(wide=True)
        self._put = self._sk.base.append  # pre-bound: a pre-priced item
        self._cur_label: Optional[str] = None  # forces the first switch
        # (w, event shape) -> tag-6 id, one memo per event kind.
        self._vmem_memo: dict = {}
        self._varith_memo: dict = {}
        self._vb_memo: dict = {}
        self._classes: list = []
        self._cls_ids: dict = {}
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
        self._spills_c = 0.0

    # -- bookkeeping ---------------------------------------------------
    def note_resident_range(self, base: int, nbytes: int) -> None:
        sk = self._sk
        sk.side.append((len(sk.addrs), (2, base, nbytes)))
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
        self._switch()
        self._put(w * (n * self._scalar_cpi))

    def _scalar_mem(self, addr: int, nbytes: int, write: bool) -> None:
        # Scalar accesses always take the L1 path (MemoryHierarchy's
        # _l1_path minus the deferred L2 walk).
        l1_shift = self._l1_shift
        l1_sets, l1_num, l1_assoc = self._l1_sets, self._l1_num, self._l1_assoc
        l1_lat = self._l1_lat
        fill_l1 = self._fill_l1
        lat_i = 0
        occ1 = 0.0
        l1h = l1m = 0
        pend = []
        for la in range(addr >> l1_shift, ((addr + nbytes - 1) >> l1_shift) + 1):
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
        self._switch()
        if pend:
            self._l2_item(
                (4, w, lat_i, occ1, write), map(self._l1_step.__mul__, pend)
            )
            return
        # TraceSimulator._price's scalar memory pricing (occupancies
        # are 0.0 without an L1 miss).
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

    def _l1_walk(self, lines, write: bool):
        """Walk L1 *lines* in order: ``(latency, occ1, hits, pending)``."""
        l1_sets, l1_num = self._l1_sets, self._l1_num
        l1_assoc = self._l1_assoc
        l1_lat = self._l1_lat
        fill_l1 = self._fill_l1
        lat_i = 0
        occ1 = 0.0
        l1h = 0
        pend = []
        for la in lines:
            ways = l1_sets[la % l1_num]
            dirty = ways.pop(la, None)
            lat_i += l1_lat
            if dirty is not None:
                ways[la] = dirty or write
                l1h += 1
                continue
            ways[la] = write
            if len(ways) > l1_assoc:
                ways.pop(next(iter(ways)))
            occ1 += fill_l1
            pend.append(la)
        return lat_i, occ1, l1h, pend

    def _vc_walk(self, lines, write: bool):
        """Walk L2-granular *lines* through the VectorCache, if there is
        one: ``(latency, hits, pending)``."""
        vc_set = self._vc_set
        if vc_set is None:
            return 0, 0, list(lines)
        vc_assoc = self._vc_assoc
        lat_i = vch = 0
        pend = []
        for la in lines:
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
        return lat_i, vch, pend

    def _vmem(self, addr: int, n_elems: int, ew: int, stride: int, write: bool) -> None:
        nbytes = n_elems * ew
        if stride in (0, ew):
            unit = True
            # Pricing granularity is the L1 line even on L2-port
            # machines, as in TraceSimulator._price.
            l1_line = self._l1_line
            n_lines = (addr + nbytes - 1) // l1_line - addr // l1_line + 1
            segs = [(addr, addr + nbytes - 1)]
        else:
            unit = False
            n_lines = n_elems
            segs = [
                (a, a + ew - 1) for a in range(addr, addr + n_elems * stride, stride)
            ]
        # MemoryHierarchy._l1_path / _l2_path and their strided variants
        # up to the L2 walk: every segment walks the lines it spans.  The
        # strided paths' ``first == last == prev_line`` shortcut is an
        # access to the most recent line, which hits (or, on an L2-port
        # machine without a VectorCache, is one more pending line) like
        # the generic walk.
        shift = self._l1_shift if self._port_l1 else self._l2_shift
        lines = [la for lo, hi in segs for la in range(lo >> shift, (hi >> shift) + 1)]
        if self._port_l1:
            lat_i, occ1, l1h, pend = self._l1_walk(lines, write)
            l1m = len(pend)
            vch = 0
        else:
            lat_i, vch, pend = self._vc_walk(lines, write)
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
        self._switch()
        if pend:
            self._l2_item(
                (3, w, lat_i, occ1, nbytes, n_lines, write, unit),
                map(self._v_step.__mul__, pend),
            )
            return
        # Fully served upstream, but the price reads the VPU: a pricing
        # class.
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
        self._switch()
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
        if self._noop_pf:  # an issue slot, nothing fetched
            w = self._w
            self._scalar_instrs += w
            self._switch()
            self._put(w * self._scalar_cpi)
        # else: dropped at compile time — free.

    def count_flops(self, n: float) -> None:
        self._flops += self._w * n

    def spill(self, n_registers: int = 1) -> None:
        # As TraceSimulator.spill: per register one full-vector store and
        # reload at stack address 0, then the serialization penalty and
        # the spill counter.
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
        inv.spills = self._spills_c
        gc = _group_constants(
            self.machine, self._l2_shift, self._max_range_total, self._classes
        )
        return self._sk.build(self._l2_shift), inv, gc


def _group_constants(machine: MachineConfig, l2_shift: int, max_range_total: int,
                     classes: list) -> dict:
    """The group constants ``gc`` that go with a shared-pass program:
    the pricing constants every point reads, the L2 line shift of the
    address column, the largest residency-range total under an infinite
    budget (:func:`_fast_budget`) and the VPU pricing-class table."""
    return {
        "l1_lat": machine.l1.latency,
        "ooo_hide": machine.core.ooo_hide,
        "scalar_cpi": machine.core.scalar_cpi,
        "l2_shift": l2_shift,
        "max_range_total": max_range_total,
        "classes": classes,
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
    (tests/test_replay_vec.py).  Both raise ``ValueError`` on a machine
    with a feature the pass does not model (:func:`blocking_features`).
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


#: ``array`` typecode of a 4-byte unsigned integer, the width the
#: chunked shared pass accumulates positions, ids and addresses at.
_U4 = "I" if array("I").itemsize == 4 else "L"
_U4_MAX = 0xFFFFFFFF


def _uint_for(hi: int, lo: int = 0) -> np.dtype:
    """The narrowest of ``u1``, ``u2`` and ``u4`` that holds every value
    in ``[lo, hi]``; ``int64`` when *lo* is negative or *hi* too wide."""
    if lo >= 0:
        for dt in (np.uint8, np.uint16, np.uint32):
            if hi <= np.iinfo(dt).max:
                return np.dtype(dt)
    return np.dtype(np.int64)


def _narrow(col: np.ndarray) -> np.ndarray:
    """An exact-size copy of integer column *col* at :func:`_uint_for`
    its values (``u1`` when it is empty)."""
    return col.astype(_uint_for(int(col.max(initial=0)), int(col.min(initial=0))))


#: Items copied per step when a buffer is frozen (:func:`_freeze`).
_FREEZE_STEP = 1 << 20


def _freeze(buf: array) -> np.ndarray:
    """An exact-size NumPy copy of the ``array`` buffer *buf*, integers
    at the width :func:`_narrow` picks.  *buf* is emptied from its end
    as the copy fills, so the two are never both whole in memory."""
    src = np.dtype(buf.typecode)
    view = np.frombuffer(buf, src)
    dtype = src if src.kind == "f" else _uint_for(
        int(view.max(initial=0)), int(view.min(initial=0))
    )
    out = np.empty(len(view), dtype)
    del view
    while buf:
        lo = max(0, len(buf) - _FREEZE_STEP)
        view = np.frombuffer(buf, src, offset=lo * src.itemsize)
        out[lo:lo + len(view)] = view
        del view, buf[lo:]
    return out


def _set_of(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """``lines % num_sets`` at the wider of the two widths (a Python int
    operand would take the width of *lines*, and may not fit it)."""
    return lines % _uint_for(num_sets).type(num_sets)


class _Skeleton:
    """The shared-pass program: tier-independent NumPy columns.

    Written by :func:`repro.machine.replay_vec._shared_pass_vec` (and
    by the oracle's :class:`_GroupCapture`), kept in the in-process
    memo, and shared by every tier compiled from it:

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
    * ``side``, the residency-range notes ``(2, base, nbytes)`` as
      ``(address position, note)`` in stream order.

    Every integer column is stored at the narrowest unsigned width that
    holds its largest value (``u1``, ``u2`` or ``u4``; ``int64`` past
    ``2**32 - 1``, :func:`_narrow`), so the width follows the data, not
    the emitter: label and key ids usually fit ``u1``/``u2``, positions
    and the byte addresses of a trace under 4 GiB fit ``u4``.  Readers
    widen only where arithmetic could overflow.

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
        self.lines = _narrow(lines)
        self.ft_pos = _narrow(ft_pos)


class _SkeletonBuilder:
    """Typed column buffers a shared pass appends items to.

    :class:`_GroupCapture` appends one item at a time, the chunked pass
    one chunk of columns at a time (:meth:`extend`).  Columns accumulate
    in ``array`` buffers (no per-item Python objects): the chunked
    pass's integer columns at 32 bits, widened to 64 bits the first
    time a value does not fit; *wide* buffers (the per-item appends of
    :class:`_GroupCapture`) at 64 bits.  Label ids are recorded where
    they change (``sw_pos`` / ``sw_kid``) and expanded to the per-item
    ``kid`` column once, by :meth:`build`.
    """

    def __init__(self, wide: bool = False):
        ic = "q" if wide else _U4
        self.base = array("d")
        self.sw_pos = array(ic)
        self.sw_kid = array(ic)
        self.labels: list = []
        self.label_ids: dict = {}
        self.cls_pos = array(ic)
        self.t6_at = array(ic)
        self.t6_cls = array(ic)
        self.t6_defs: list = []
        self.t6_ids: dict = {}
        self.ev_at = array(ic)
        self.ev_key = array(ic)
        self.ev_defs: list = []
        self.ev_ids: dict = {}
        self.ev_off = array(ic, [0])
        self.addrs = array(ic)
        self.side: list = []

    def extend(self, name: str, values: np.ndarray) -> None:
        """Append the NumPy column *values* to buffer *name*, first
        widening a 32-bit buffer to 64 bits if a value does not fit."""
        buf = getattr(self, name)
        if buf.typecode == _U4 and len(values) and int(values.max()) > _U4_MAX:
            wide = array("q")
            wide.frombytes(np.frombuffer(buf, np.uint32).astype(np.int64).view(np.uint8))
            buf = wide
            setattr(self, name, buf)
        buf.frombytes(
            np.ascontiguousarray(values, dtype=np.dtype(buf.typecode)).view(np.uint8)
        )

    def _take(self, name: str) -> np.ndarray:
        """Buffer *name* as a NumPy view; the builder lets go of it."""
        buf = getattr(self, name)
        setattr(self, name, None)
        return np.frombuffer(buf, dtype=np.dtype(buf.typecode))

    def build(self, l2_shift: int, lines=None, ft_pos=None) -> _Skeleton:
        """Freeze the buffers into a :class:`_Skeleton`, consuming them.

        Every integer column becomes an exact-size copy at the narrowest
        width that holds it, and each buffer shrinks as its copy fills
        (:func:`_freeze`), so no column is ever held twice.
        """
        n = len(self.base)
        sw_pos = self._take("sw_pos").astype(np.int64)
        sw_kid = self._take("sw_kid")
        counts = np.diff(sw_pos, append=n)
        run = counts > 0
        kid = np.repeat(_narrow(sw_kid[run]), counts[run])
        head = int(sw_pos[0]) if len(sw_pos) else n
        if head:  # items before the first label: id -1, at int64
            kid = np.concatenate([np.full(head, -1, dtype=np.int64), kid])
        del sw_pos, sw_kid, counts, run
        cols = {"kid": kid}
        for name in ("base", "cls_pos", "t6_at", "t6_cls", "ev_at", "ev_key",
                     "ev_off", "addrs"):
            cols[name] = _freeze(getattr(self, name))
            setattr(self, name, None)
        return _Skeleton(
            l2_shift,
            labels=self.labels,
            t6_defs=self.t6_defs,
            ev_defs=self.ev_defs,
            side=self.side,
            lines=lines,
            ft_pos=ft_pos,
            **cols,
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


#: L2 events interned per step of :func:`_intern`.
_INTERN_ROWS = 1 << 16


def _intern(skel: _Skeleton, miss_pos: np.ndarray) -> _VecProgram:
    """Build a tier from the missing addresses *miss_pos* (rising
    positions into ``skel.addrs``).

    An L2 event's class is its pricing key plus its ``(hits, misses)``
    split — the memo key every per-event pricing used.  The triple is
    packed into one int64 (the narrow skeleton columns would wrap), and
    class ids follow packed-key order, not first occurrence; prices and
    the fold order (set by ``cls_pos``) do not depend on them.  Events
    are taken ``_INTERN_ROWS`` at a time, twice: once to collect the
    distinct keys, once to look each event's key up among them, so no
    temporary grows with the stream.
    """
    ev_off = skel.ev_off
    n_ev = len(skel.ev_key)
    # Same dtype as ev_off: searchsorted would copy a mismatched column.
    miss_pos = np.asarray(miss_pos).astype(ev_off.dtype, copy=False)
    defs = list(skel.t6_defs)
    wh = [0.0] * len(defs)
    wm = [0.0] * len(defs)
    span = int(np.diff(ev_off).max(initial=0)) + 1  # > any hits or misses
    steps = range(0, n_ev, _INTERN_ROWS)

    def split(lo):
        """``(key, hits, misses)`` of events ``lo`` on, at int64."""
        off = ev_off[lo:lo + _INTERN_ROWS + 1]
        nm = np.diff(np.searchsorted(miss_pos, off))
        return skel.ev_key[lo:lo + len(off) - 1].astype(np.int64), np.diff(
            off.astype(np.int64)) - nm, nm

    if len(skel.ev_defs) * span * span >= 1 << 62:  # pragma: no cover
        # Pathological event widths: the triple does not pack into int64.
        k, h, m = (np.concatenate(c) for c in zip(*map(split, steps)))
        keys, inverse = np.unique(
            np.stack([k, h, m], axis=1), axis=0, return_inverse=True
        )
        rows = (tuple(r) for r in keys.tolist())
        cls_idx = np.empty(len(skel.cls_pos), dtype=np.int64)
        cls_idx[skel.ev_at] = len(defs) + np.asarray(inverse).reshape(-1)
    else:
        def packed(lo):
            k, h, m = split(lo)
            k *= span
            k += h
            k *= span
            k += m
            return k

        keys = np.zeros(0, dtype=np.int64)
        for lo in steps:
            # A sort and a mask: np.union1d takes about 9x as long on
            # these few-valued steps.
            keys = np.concatenate([keys, packed(lo)])
            keys.sort()
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        rows = zip(*(c.tolist() for c in (
            keys // (span * span), keys // span % span, keys % span)))
        cls_idx = np.empty(
            len(skel.cls_pos), dtype=_uint_for(len(defs) + len(keys) - 1)
        )
        for lo in steps:
            cls_idx[skel.ev_at[lo:lo + _INTERN_ROWS]] = len(defs) + np.searchsorted(
                keys, packed(lo)
            )
    cls_idx[skel.t6_at] = skel.t6_cls
    max_nm = 0
    for k, h, m in rows:
        d = skel.ev_defs[k]
        defs.append(d + (h, m))
        wh.append(d[1] * h)
        wm.append(d[1] * m)
        max_nm = max(max_nm, m)
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


def _hot_sets(skel: _Skeleton, num_sets: int, assoc: int) -> np.ndarray:
    """Per L2 set: does it hold more distinct lines than ways?

    Only such *hot* sets can ever evict; a line of any other set hits
    on every touch after its first.
    """
    return np.bincount(_set_of(skel.lines, num_sets), minlength=num_sets) > assoc


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
    itself.
    """
    miss = np.ones(len(pos), dtype=bool)
    # searchsorted copies a column whose dtype differs from the values'.
    cuts = [p for p, _ in side]
    dt = np.promote_types(pos.dtype, _uint_for(max(cuts, default=0)))
    cuts = np.searchsorted(
        pos.astype(dt, copy=False), np.array(cuts, dtype=dt), side="left"
    ).tolist()
    cuts.append(len(pos))
    notes = [it for _, it in side] + [None]
    lo = 0
    for hi, it in zip(cuts, notes):
        ranges = hier._ranges
        if ranges and hi > lo:
            by_start = sorted(ranges)
            seg = addrs[lo:hi]
            hi_end = max(r[1] for r in by_start)
            dt = np.promote_types(seg.dtype, _uint_for(hi_end, by_start[0][0]))
            seg = seg.astype(dt, copy=False)
            starts = np.array([r[0] for r in by_start], dtype=dt)
            ends = np.array([r[1] for r in by_start], dtype=dt)
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


def _lru_hits(
    lines: np.ndarray, num_sets: int, assoc: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-access hit flags of an LRU cache walked by *lines*, in order,
    and the lines it holds at the end.

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
    (the largest value of an unsigned *lines* dtype) marks an empty
    way, so sets that are not yet full fill like the dict.

    Returns ``(hits, resident)``: *resident* holds the final lines
    grouped by set and oldest first within a set, read off the final
    stack (the one-set path takes them from the stream's tail,
    :func:`_lru_resident`).
    """
    hits = np.zeros(len(lines), dtype=bool)
    if not len(lines):
        return hits, lines
    if num_sets == 1:
        return _lru_hits_one_set(lines, assoc), _lru_resident(lines, 1, assoc)
    empty = -1  # an empty way: a value no line takes
    if lines.dtype.kind == "u":
        empty = np.iinfo(lines.dtype).max
        if lines.max() == empty:
            lines, empty = lines.astype(np.int64), -1
    sets = _set_of(lines, num_sets)
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
    stack = np.full((assoc, len(counts)), empty, dtype=lines.dtype)
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
    by_set = stack[::-1].T  # one row per set, oldest line first
    return hits, by_set[by_set != empty]


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
        sets = _set_of(u, num_sets)
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
    ft = skel.ft_pos
    miss = _range_misses(
        ft, skel.addrs[ft], skel.side, MemoryHierarchy.pricing_view(machine)
    )
    return _intern(skel, ft[miss])


#: Addresses per step of :func:`_compile_walk`: this many for every
#: line the hot sets hold (sets x ways), and no fewer than
#: ``_WALK_CHUNK_MIN``.  A step carries the hot sets' residency into the
#: next, at most one line per way, so the carried lines stay a small
#: share of the step.
_WALK_LINES_PER_WAY = 4
_WALK_CHUNK_MIN = 1 << 16


def _compile_walk(skel: _Skeleton, gc: dict, machine: MachineConfig) -> _VecProgram:
    """Walk tier: resolve *machine*'s exact L2 walk once.

    The walk reads only the L2 geometry and the event stream, so the
    tier is valid for every point sharing those with *machine* (a lane
    sweep, or a DRAM sweep over a conflicted L2), whatever its latencies
    or VPU.

    Nothing but the demand stream fills the L2, so a set that is not
    hot (:func:`_hot_sets`) never evicts: its lines hit after their
    first touch, and the first touch takes just the range check.
    The address stream is walked in steps of a fixed size (set by the
    hot sets' capacity, ``_WALK_LINES_PER_WAY``), so no temporary grows
    with it.  Per step, the hot sets' LRU hits come from a lockstep walk
    (:func:`_lru_hits`) that carries their residency from the step
    before (:class:`~repro.machine.replay_vec._Level`); their LRU misses
    and the cold sets' first touches, merged in stream order, then take
    the range check (:func:`_range_misses`, with the step's notes) — the
    ``_range_hit`` calls the full walk makes, in its order, which
    matters because ``_range_hit`` LRU-refreshes the range list and a
    later trim picks its victims by that order.
    """
    from .replay_vec import _Level  # deferred: import cycle

    l2 = machine.l2
    num_sets = l2.size_bytes // (l2.assoc * l2.line_bytes)
    hot = _hot_sets(skel, num_sets, l2.assoc)
    level = _Level(num_sets, l2.assoc)
    hier = MemoryHierarchy.pricing_view(machine)
    addrs, side, shift, n = skel.addrs, skel.side, gc["l2_shift"], len(skel.addrs)
    pos_t = _uint_for(n)  # the dtype of ev_off: _intern reads these as is
    ft = skel.ft_pos.astype(pos_t, copy=False)
    step = max(
        _WALK_CHUNK_MIN,
        _WALK_LINES_PER_WAY * l2.assoc * int(np.count_nonzero(hot)),
    )
    starts = np.arange(0, n, step, dtype=pos_t)
    ft_cuts = np.searchsorted(ft, starts).tolist() + [len(ft)]
    misses = bytearray()  # positions of the misses, as pos_t
    s0 = 0
    for k, lo in enumerate(starts.tolist()):
        hi = min(lo + step, n)
        lines = addrs[lo:hi] >> shift
        hot_at = hot[_set_of(lines, num_sets)]
        hot_pos = np.flatnonzero(hot_at)
        lru_miss = hot_pos[~level.hits(lines[hot_pos])]
        del lines, hot_pos
        cold_ft = ft[ft_cuts[k]:ft_cuts[k + 1]] - pos_t.type(lo)
        check = np.concatenate([lru_miss, cold_ft[~hot_at[cold_ft]]])
        check.sort()
        check = (check + lo).astype(pos_t)
        del hot_at, lru_miss, cold_ft
        s1 = s0
        while s1 < len(side) and side[s1][0] < hi:
            s1 += 1
        miss = _range_misses(check, addrs[check], side[s0:s1], hier)
        s0 = s1
        misses += check[miss].tobytes()
    return _intern(skel, np.frombuffer(misses, dtype=pos_t))


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
    # NumPy indexes through intp: convert the narrow ids once, not per use.
    cls_idx = cols.cls_idx.astype(np.intp, copy=False)
    if len(cols.base):
        contrib = cols.base.copy()
        if len(cols.cls_pos):
            contrib[cols.cls_pos] = wc_by_cls[cls_idx]
        binc = np.bincount(
            cols.kid, weights=contrib, minlength=len(cols.labels)
        )
        out.kernel_cycles = {
            label: float(binc[i]) for i, label in enumerate(cols.labels)
        }
        out.cycles = float(np.add.accumulate(contrib, out=contrib)[-1])
    if len(cols.cls_pos):
        seq = cols.wh_by_cls[cls_idx]
        out.l2_hits = float(np.add.accumulate(seq, out=seq)[-1])
        seq = cols.wm_by_cls[cls_idx]
        out.l2_misses = float(np.add.accumulate(seq, out=seq)[-1])
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
    ever holds more distinct lines than ways; a walk tier
    (:func:`_walk_tier`) otherwise.
    """
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
    — tiers are exchanged with the ``.rvp`` files next to the trace
    when spilling is on: each is loaded if stored, else built and
    stored.  Conflict-free tiers record the walk fingerprints of the
    machines they serve, which is what lets
    :func:`replay_sweep_cached` trust them without the program.
    """
    if cache_ctx is not None:
        from ..core import tracecache

        if not tracecache.spill_enabled():
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
    stable for the ``.rvp`` tier files named by it.
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
    """``(skeleton, inv, gc)`` of *trace*'s shared pass: memo, or run."""
    if not trace.key:
        return _shared_pass(trace, base)
    key = (trace.key, trace.content_digest(), _shared_pass_sig(base))
    hit = _SHARED_PASS_MEMO.get(key)
    if hit is None:
        hit = _shared_pass(trace, base)
        _memo_put(key, hit)
    return hit


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
    (see :func:`_vpu_price_table`), so one memoized pass serves *every*
    replayable axis of a capture — L2 size, DRAM latency/bandwidth, and
    lane count — and so does each stored ``.rvp`` tier for the points
    that share its L2.
    """
    machines = list(machines)
    if not machines:
        return []
    job = _sweep_job(trace, machines)
    return None if job is None else _run_points(*job)


def replay_sweep_stored(
    key: str, machines: Sequence[MachineConfig]
) -> Optional[List[SimStats]]:
    """:func:`replay_sweep` over the trace stored under *key*.

    Returns ``None`` when the group is not replayable (before any
    decode) or no trace is stored.  A trace decoded from its spill is
    not registered (it stays on disk), and it is dropped once the shared
    pass is memoized, before any tier is built — as :func:`capture_sweep`
    drops its recording — so the decoded columns and the tier builds
    never hold memory at the same time.
    """
    from ..core import tracecache

    machines = list(machines)
    if not machines or group_mode(machines) is None:
        return None
    trace = tracecache.get(key, register=False)
    if trace is None:
        return None
    job = _sweep_job(trace, machines)
    del trace
    return None if job is None else _run_points(*job)


def _sweep_job(trace: RecordedTrace, machines: List[MachineConfig]):
    """``_run_points`` arguments for pricing *machines* from *trace*:
    the (memoized) shared pass and the tier cache context; ``None`` for
    a group that is not replayable."""
    for m in machines:
        _check_compatible(trace, m)
    if group_mode(machines) is None:
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
    return skel, inv, gc, machines, ctx


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
    """Price a sweep group without decoding its trace, or return ``None``.

    The warm path for a spilled trace: the trace's content digest and
    compatibility fields come from the in-process registry or the
    spill file's JSON header (no column decode).  The group is then
    priced from the shared-pass memo, else from stored ``.rvp`` tiers
    alone when every point has one (:func:`_price_from_tiers`).
    Returns ``None`` otherwise; the caller then loads (or re-captures)
    the trace and runs :func:`replay_sweep`, which runs the shared
    pass once and stores the missing tiers.
    """
    from ..core import tracecache

    if not key or not tracecache.spill_enabled():
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
    return _price_from_tiers(key, tok, digest, machines)


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
    memoized and every tier persists as an ``.rvp`` when spilling is
    on.
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
    sig = _shared_pass_sig(machines[0])
    _memo_put((key, digest, sig), (skel, inv, gc))
    ctx = (key, _sig_token(sig), digest, compat)
    return _run_points(skel, inv, gc, machines, cache_ctx=ctx)
