"""Trace-driven timing simulator.

This is the stand-in for gem5 in the reproduction (see DESIGN.md's
substitution table).  Kernels *replay* their instruction stream — vector
loads/stores with real address patterns, vector arithmetic groups, scalar
bookkeeping — against a :class:`TraceSimulator`, which prices each event
using the machine's VPU and memory-hierarchy models and accumulates
cycles plus cache statistics.

Loop sampling
-------------
Simulating every iteration of a YOLOv3 GEMM (hundreds of millions of
MACs) in Python is infeasible, and unnecessary: the loop nests are
periodic.  :meth:`TraceSimulator.loop` therefore runs a few *warm-up*
iterations at weight 1 (to warm the caches into steady state) and then a
small number of *sampled* iterations whose cycle and hit/miss
contributions are scaled by ``(total - warmup) / sample``.  Cache *state*
evolves normally during sampled iterations; only the accounting is
weighted.  Sampling is exact for uniform iterations and a close
approximation for GEMM/Winograd loop nests, whose per-iteration work and
reuse pattern are homogeneous after warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .config import MachineConfig
from .hierarchy import MemoryHierarchy
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
    AddressSpace,
    Buffer,
    SampledTraceBase,
)
from .vpu import varith_cycles, vbroadcast_cycles, vmem_transfer_cycles

__all__ = ["SimStats", "TraceSimulator", "SampledTraceBase", "vmem_event_cycles"]

#: Fraction of a store's latency that stalls the pipeline (store buffers
#: hide most of it).
_STORE_STALL_FACTOR = 0.25
#: Outstanding scalar misses overlapped by an in-order core's LSU.
_SCALAR_MLP = 2.0
#: Dependency-chain serialization per spilled/reloaded vector register.
_SPILL_SERIALIZE_CYCLES = 8


def vmem_event_cycles(
    vpu,
    l1_lat: float,
    ooo_hide: float,
    lat,
    occ1: float,
    occ2: float,
    nbytes: int,
    n_lines: int,
    write: bool,
    unit_stride: bool,
) -> float:
    """Pure cycle cost of one vector memory event.

    Extracted from the simulator's row pricer (``TraceSimulator._price``)
    so the trace replayer
    (:mod:`repro.machine.replay`) prices replayed events with the exact
    same arithmetic — bitwise identity depends on the operation order
    here, so treat any edit as a model change.
    """
    if vpu.mem_port == "L1":
        # Streamed L1 hits are fully pipelined on an L1-fed VPU:
        # only latency *beyond* the hit baseline stalls the pipe.
        lat = lat - n_lines * l1_lat
        if lat < 0.0:
            lat = 0.0
    # Effective MLP grows with the access footprint: a vector
    # load spanning L lines keeps its own fills in flight.  An
    # L1-fed scoreboarded pipeline (SVE) additionally overlaps
    # the next access's fills; the decoupled RVV unit serializes
    # accesses through its VectorCache.
    if not unit_stride:
        # Gathers/strided accesses serialize on address
        # generation: only a few element fills overlap.
        overlap = n_lines if n_lines < 4 else 4
    elif n_lines == 1:
        overlap = 1  # a dependent 1-line load exposes its latency
    elif vpu.mem_port == "L1":
        # Scoreboarded streams overlap across accesses too.
        overlap = 2 * n_lines
    else:
        overlap = n_lines  # decoupled unit overlaps own fills only
    if overlap > vpu.max_outstanding:
        overlap = vpu.max_outstanding
    mlp_eff = vpu.mlp if vpu.mlp > overlap else overlap
    stall = lat * (1.0 - ooo_hide) / mlp_eff
    if write:
        stall *= _STORE_STALL_FACTOR
    transfer = vmem_transfer_cycles(vpu, nbytes)
    # L1-fill occupancy is netted against the useful transfer
    # already priced: only *wasted* fill bandwidth (partially-
    # used lines) costs extra.  DRAM fill bandwidth is a
    # separate, narrower pipe and is charged in full.
    occ = occ1 - transfer
    if occ < 0.0:
        occ = 0.0
    occ += occ2
    # No lane-fill term: memory data streams into the lanes as
    # it arrives (chained), so transfer + exposed stall covers
    # it.
    return (
        vpu.mem_issue_overhead
        + vpu.issue_overhead
        + transfer
        + stall
        + occ
    )


@dataclass(slots=True)
class SimStats:
    """Weighted statistics accumulated by a :class:`TraceSimulator`.

    All counters are floats because sampled iterations contribute
    fractional (weighted) amounts.  ``slots=True`` because the counter
    updates are on the simulator's hottest path.
    """

    #: Canonical ordering of the scalar (float) counters.  Single source
    #: of truth for :meth:`merge`, :meth:`Network.simulate_stream`'s
    #: snapshot differencing, and the simcache's (de)serialization.
    FIELDS = (
        "cycles",
        "scalar_instrs",
        "vec_instrs",
        "vec_mem_instrs",
        "vec_elems",
        "flops",
        "bytes_loaded",
        "bytes_stored",
        "l1_hits",
        "l1_misses",
        "l2_hits",
        "l2_misses",
        "dram_fills",
        "vc_hits",
        "sw_prefetches",
        "spills",
    )

    cycles: float = 0.0
    scalar_instrs: float = 0.0
    vec_instrs: float = 0.0
    vec_mem_instrs: float = 0.0
    vec_elems: float = 0.0
    flops: float = 0.0
    bytes_loaded: float = 0.0
    bytes_stored: float = 0.0
    l1_hits: float = 0.0
    l1_misses: float = 0.0
    l2_hits: float = 0.0
    l2_misses: float = 0.0
    dram_fills: float = 0.0
    vc_hits: float = 0.0
    sw_prefetches: float = 0.0
    spills: float = 0.0
    kernel_cycles: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def l2_accesses(self) -> float:
        """Demand accesses that reached the L2."""
        return self.l2_hits + self.l2_misses

    @property
    def l2_miss_rate(self) -> float:
        """L2 demand miss rate, as reported in Table III of the paper."""
        total = self.l2_accesses
        return self.l2_misses / total if total else 0.0

    @property
    def l1_miss_rate(self) -> float:
        """L1 demand miss rate."""
        total = self.l1_hits + self.l1_misses
        return self.l1_misses / total if total else 0.0

    @property
    def avg_vlen_elems(self) -> float:
        """Consumed average vector length in elements (Table III)."""
        return self.vec_elems / self.vec_instrs if self.vec_instrs else 0.0

    @property
    def avg_vlen_bits(self) -> float:
        """Consumed average vector length in bits, assuming f32 elements."""
        return self.avg_vlen_elems * 32

    def gflops_per_sec(self, freq_ghz: float) -> float:
        """Sustained GFLOP/s at the given core frequency."""
        if self.cycles <= 0:
            return 0.0
        return self.flops / self.cycles * freq_ghz

    def merge(self, other: "SimStats") -> "SimStats":
        """Accumulate *other* into ``self`` and return ``self``."""
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for k, v in other.kernel_cycles.items():
            self.kernel_cycles[k] = self.kernel_cycles.get(k, 0.0) + v
        return self


class TraceSimulator(SampledTraceBase):
    """Prices a kernel's instruction trace on one machine design point."""

    def __init__(self, machine: MachineConfig):
        super().__init__()
        self.machine = machine
        self.hierarchy = MemoryHierarchy(machine)
        self.address_space = AddressSpace()
        self.stats = SimStats()
        # Hot-path locals.
        self._vpu = machine.vpu
        self._core = machine.core
        self._ooo_hide = machine.core.ooo_hide
        self._stall_scale = (1.0 - machine.core.ooo_hide) / machine.vpu.mlp
        self._l1_line = machine.l1.line_bytes
        self._l1_lat = machine.l1.latency
        self._scalar_cpi = machine.core.scalar_cpi
        # Pre-resolved hierarchy access paths (see MemoryHierarchy):
        # skips one delegating call per memory event.
        self._scalar_access = self.hierarchy.scalar_path
        self._vec_access = self.hierarchy.vector_path
        self._strided_access = self.hierarchy.strided_vector_path
        # varith_cycles is pure in (n_elems, n_instr, ew) for a fixed VPU;
        # GEMM micro-kernels call it millions of times with a handful of
        # distinct shapes, so memoize per simulator.
        self._varith_memo = {}
        # The cycle arithmetic of a vector memory row is likewise pure in what the
        # hierarchy returned plus the access shape; traces revisit the
        # same few hundred combinations millions of times.
        self._vmem_memo = {}

    # ------------------------------------------------------------------
    # Allocation & attribution
    # ------------------------------------------------------------------
    def alloc(self, name: str, nbytes: int) -> Buffer:
        """Allocate a simulated buffer (line-aligned, never aliasing)."""
        return self.address_space.alloc(name, nbytes)

    def _add_cycles(self, c: float) -> None:
        wc = self._w * c
        self.stats.cycles += wc
        label = self._kernel_stack[-1]
        kc = self.stats.kernel_cycles
        kc[label] = kc.get(label, 0.0) + wc

    # ------------------------------------------------------------------
    # Scalar events
    # ------------------------------------------------------------------
    def scalar(self, n: int = 1) -> None:
        """*n* scalar ALU / bookkeeping instructions."""
        self._price(((OP_SCALAR, n, 0, 0, 0, 0.0),))

    def scalar_load(self, addr: int, nbytes: int = 4) -> None:
        """A scalar load (naive kernels, packing bookkeeping)."""
        self._price(((OP_SCALAR_LOAD, addr, nbytes, 0, 0, 0.0),))

    def scalar_store(self, addr: int, nbytes: int = 4) -> None:
        """A scalar store."""
        self._price(((OP_SCALAR_STORE, addr, nbytes, 0, 0, 0.0),))

    # ------------------------------------------------------------------
    # Vector events
    # ------------------------------------------------------------------
    def vload(self, addr: int, n_elems: int, ew: int = 4, stride: int = 0) -> None:
        """Vector load of *n_elems* elements of width *ew* from *addr*.

        ``stride`` is the byte distance between consecutive elements
        (0 or ``ew`` means unit stride).  Strided/gathered loads touch one
        line per element once the stride exceeds the line size.
        """
        self._price(((OP_VLOAD, addr, n_elems, ew, stride, 0.0),))

    def vstore(self, addr: int, n_elems: int, ew: int = 4, stride: int = 0) -> None:
        """Vector store; see :meth:`vload` for the addressing model."""
        self._price(((OP_VSTORE, addr, n_elems, ew, stride, 0.0),))

    def vgather(self, addr: int, n_elems: int, span_bytes: int, ew: int = 4) -> None:
        """Gather load of *n_elems* elements spread over *span_bytes*.

        Models index-vector gathers (used by the RVV Winograd fallback,
        Section VII) as evenly spread element accesses over the span.
        """
        if n_elems <= 0:
            return
        stride = max(ew, span_bytes // max(1, n_elems))
        self.vload(addr, n_elems, ew, stride)

    def vscatter(self, addr: int, n_elems: int, span_bytes: int, ew: int = 4) -> None:
        """Scatter store counterpart of :meth:`vgather`."""
        if n_elems <= 0:
            return
        stride = max(ew, span_bytes // max(1, n_elems))
        self.vstore(addr, n_elems, ew, stride)

    def varith(
        self, n_elems: int, n_instr: int = 1, flops_per_elem: float = 2.0, ew: int = 4
    ) -> None:
        """*n_instr* vector arithmetic instructions of *n_elems* lanes each.

        ``flops_per_elem`` defaults to 2 (an FMA counts multiply + add).
        """
        self._price(((OP_VARITH, n_elems, n_instr, ew, 0, flops_per_elem),))

    def vbroadcast(self, n: int = 1) -> None:
        """*n* scalar-to-vector broadcast instructions."""
        self.stats.vec_instrs += self._w * n
        self._add_cycles(n * vbroadcast_cycles(self._vpu))

    def sw_prefetch(self, addr: int, nbytes: int, level: str = "L1") -> None:
        """Software prefetch hint (paper Fig. 3, lines 11-17).

        Honoured only on machines with ``honors_sw_prefetch`` (A64FX);
        on gem5-SVE it costs an issue slot as a no-op; on RVV the compiler
        removed it, so it costs nothing.
        """
        m = self.machine
        if m.honors_sw_prefetch:
            self.hierarchy.sw_prefetch(addr, nbytes, level)
            self.stats.sw_prefetches += self._w
            self._add_cycles(self._core.scalar_cpi)
        elif m.sw_prefetch_is_noop_instr:
            self.stats.scalar_instrs += self._w
            self._add_cycles(self._core.scalar_cpi)
        # else: dropped at compile time — free.

    def count_flops(self, n: float) -> None:
        """Record *n* (weighted) flops without issuing an instruction.

        Used by scalar kernels whose arithmetic is already priced through
        :meth:`scalar`, so sustained-GFLOPs reporting stays correct.
        """
        self.stats.flops += self._w * n

    def spill(self, n_registers: int = 1) -> None:
        """Register spill traffic: store + reload of full vector registers.

        Charged by kernels whose unroll factor exceeds the architectural
        register budget (Section VI-A: unroll 32 loses ~15 % to spills).
        Beyond the memory traffic, each reload serializes the dependent
        FMA chain — the store/load pair cannot be hidden by chaining —
        so a fixed dependency penalty is charged per spilled register.
        """
        vlen_bytes = self.machine.vlen_bits // 8
        stack = 0  # spills go to the stack: low, reused addresses
        for _ in range(n_registers):
            self.vstore(stack, vlen_bytes // 4, 4)
            self.vload(stack, vlen_bytes // 4, 4)
        self._add_cycles(n_registers * _SPILL_SERIALIZE_CYCLES)
        self.stats.spills += self._w * n_registers

    # ------------------------------------------------------------------
    # Blocks, and the row pricer every event goes through
    # ------------------------------------------------------------------
    def events(self, op, i0, i1, i2, i3, f0) -> None:
        """Price a block of events, in row order.

        The columns are NumPy arrays in
        :attr:`~repro.machine.trace.RecordedTrace._COLUMNS` layout
        without ``w`` and ``kid``: every row runs at the current weight
        and kernel label.  A block prices exactly like the same events
        issued one call each; :func:`repro.machine.replay.replay` feeds
        a recorded trace through here too.
        """
        # memoryviews yield the ints and floats tolist() would, one at a
        # time: no block-sized lists for the cyclic GC to traverse.
        self._price(zip(*map(memoryview, (op, i0, i1, i2, i3, f0))))

    def _price(self, rows) -> None:
        """Price row tuples ``(op, i0, i1, i2, i3, f0)`` in order.

        The one definition of each event's accounting: the event
        methods of the frequent kinds (scalar, scalar and vector memory,
        ``varith``) hand their event here as a one-row block, and their
        rows are priced inline — calling a method per row made a direct
        20-layer point ~4-6 % slower than the per-event kernel it
        replaced.  The rare kinds go to their own methods.
        """
        w = self._w
        s = self.stats
        kc = s.kernel_cycles
        label = self._kernel_stack[-1]
        cpi = self._scalar_cpi
        for o, a, b, c, d, f in rows:
            if o in (OP_VLOAD, OP_VSTORE):
                # a=addr, b=n_elems, c=ew, d=stride
                if b <= 0:
                    continue
                write = o == OP_VSTORE
                nbytes = b * c
                if d in (0, c):
                    unit_stride = True
                    lat, (occ1, occ2), st = self._vec_access(a, nbytes, write)
                    l1_line = self._l1_line
                    n_lines = (a + nbytes - 1) // l1_line - a // l1_line + 1
                else:
                    # Strided access: each element touches its own
                    # line(s); the hierarchy walks them in one pass
                    # (numerically identical to the per-element loop —
                    # see docs/TIMING_MODEL.md).
                    unit_stride = False
                    lat, (occ1, occ2), st = self._strided_access(a, b, c, d, write)
                    n_lines = b
                # The cycle count is a pure function of this key for a
                # fixed machine; traces revisit few distinct keys.
                memo = self._vmem_memo
                key = (lat, occ1, occ2, nbytes, n_lines, write, unit_stride)
                cycles = memo.get(key)
                if cycles is None:
                    cycles = memo[key] = vmem_event_cycles(
                        self._vpu, self._l1_lat, self._ooo_hide,
                        lat, occ1, occ2, nbytes, n_lines, write, unit_stride,
                    )
                s.vec_instrs += w
                s.vec_mem_instrs += w
                s.vec_elems += w * b
                if write:
                    s.bytes_stored += w * nbytes
                else:
                    s.bytes_loaded += w * nbytes
                # Zero stat terms skipped: the counters are non-negative
                # floats, so += 0.0 is a bitwise no-op.  The RVV path
                # never touches the L1, the SVE path never the VC.
                if st[0]:
                    s.l1_hits += w * st[0]
                if st[1]:
                    s.l1_misses += w * st[1]
                if st[2]:
                    s.l2_hits += w * st[2]
                if st[3]:
                    s.l2_misses += w * st[3]
                if st[4]:
                    s.dram_fills += w * st[4]
                if st[5]:
                    s.vc_hits += w * st[5]
                wc = w * cycles
            elif o == OP_SCALAR:
                # a=n
                s.scalar_instrs += w * a
                wc = w * (a * cpi)
            elif o in (OP_SCALAR_LOAD, OP_SCALAR_STORE):
                # a=addr, b=nbytes
                write = o == OP_SCALAR_STORE
                lat, occ, st = self._scalar_access(a, b, write)
                s.scalar_instrs += w
                if write:
                    s.bytes_stored += w * b
                else:
                    s.bytes_loaded += w * b
                s.l1_hits += w * st[0]
                # Zero stat terms skipped, as above (and the stall/occ
                # terms: an L1 hit has lat == l1_lat, zero occupancy).
                if st[1]:
                    s.l1_misses += w * st[1]
                    s.l2_hits += w * st[2]
                    s.l2_misses += w * st[3]
                    s.dram_fills += w * st[4]
                dl = lat - self._l1_lat
                if dl > 0:
                    stall = max(0.0, dl) / _SCALAR_MLP
                    if write:
                        stall *= _STORE_STALL_FACTOR * (1.0 - self._ooo_hide)
                    else:
                        stall *= 1.0 - self._ooo_hide
                    wc = w * (cpi + stall + occ[0] + occ[1])
                else:
                    wc = w * cpi
            elif o == OP_VARITH:
                # a=n_elems, b=n_instr, c=ew, f=flops_per_elem
                if a <= 0 or b <= 0:
                    continue
                # varith_cycles is pure in (n_elems, n_instr, ew).
                memo = self._varith_memo
                key = (a, b, c)
                cycles = memo.get(key)
                if cycles is None:
                    cycles = memo[key] = varith_cycles(self._vpu, a, b, c)
                s.vec_instrs += w * b
                s.vec_elems += w * b * a
                s.flops += w * b * a * f
                wc = w * cycles
            else:
                if o == OP_NOTE_RANGE:
                    self.hierarchy.note_resident_range(a, b)
                elif o == OP_SW_PREFETCH:
                    self.sw_prefetch(a, b, "L1" if c == 0 else "L2")
                elif o == OP_VBROADCAST:
                    self.vbroadcast(a)
                elif o == OP_COUNT_FLOPS:
                    self.count_flops(f)
                elif o == OP_SPILL:
                    self.spill(a)
                else:
                    raise ValueError(f"unknown trace opcode {o}")
                continue
            s.cycles += wc
            kc[label] = kc.get(label, 0.0) + wc

    # ------------------------------------------------------------------
    def seconds(self) -> float:
        """Simulated wall-clock seconds at the configured frequency."""
        return self.stats.cycles / (self.machine.core.freq_ghz * 1e9)
