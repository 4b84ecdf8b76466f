"""Address-space bookkeeping and trace capture for trace-driven simulation.

Kernels don't simulate real data values on the timing path — they replay
the *addresses* their memory instructions touch.  :class:`AddressSpace`
is a bump allocator handing out line-aligned regions for the matrices and
buffers a kernel run uses, so distinct buffers never falsely alias in the
cache model.

This module also holds the capture side of the capture-once /
replay-many engine (see docs/TRACE_REPLAY.md): :class:`TraceRecorder`
presents the same event API as :class:`~repro.machine.simulator
.TraceSimulator` but, instead of pricing events, appends them — with
their final sampling weight and kernel label — to an event log that
freezes every ``_CHUNK_ROWS`` rows into compact columnar NumPy chunks;
:meth:`TraceRecorder.finish` joins the chunks into a
:class:`RecordedTrace`.  A recorded trace can then be replayed against
any machine that shares the trace's VL-relevant fields (ISA name,
vector length, L1 line size) without re-entering kernel code — see
:mod:`repro.machine.replay`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "AddressSpace",
    "Buffer",
    "SampledTraceBase",
    "TraceRecorder",
    "RecordedTrace",
]

#: Allocation alignment; a large power of two keeps buffers page-aligned
#: and makes line-address arithmetic exact for any simulated line size.
_ALIGN = 4096


@dataclass(frozen=True)
class Buffer:
    """A named, contiguous simulated allocation."""

    name: str
    base: int
    nbytes: int

    def addr(self, byte_offset: int) -> int:
        """Absolute address of *byte_offset* inside the buffer."""
        if not (0 <= byte_offset <= self.nbytes):
            raise ValueError(
                f"offset {byte_offset} outside buffer {self.name!r} "
                f"of {self.nbytes} bytes"
            )
        return self.base + byte_offset

    def elem(self, index: int, ew: int = 4) -> int:
        """Absolute address of element *index* of width *ew* bytes."""
        return self.addr(index * ew)

    @property
    def end(self) -> int:
        """One past the last byte of the buffer."""
        return self.base + self.nbytes


@dataclass
class AddressSpace:
    """Bump allocator for simulated buffers."""

    next_free: int = _ALIGN  # keep address 0 unused; eases debugging
    buffers: Dict[str, Buffer] = field(default_factory=dict)

    def alloc(self, name: str, nbytes: int) -> Buffer:
        """Allocate *nbytes* under *name*; names may repeat (suffixing)."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        base = self.next_free
        size = max(nbytes, 1)
        self.next_free = (base + size + _ALIGN - 1) // _ALIGN * _ALIGN
        unique = name
        seq = 1
        while unique in self.buffers:
            seq += 1
            unique = f"{name}#{seq}"
        buf = Buffer(unique, base, nbytes)
        self.buffers[unique] = buf
        return buf

    def total_allocated(self) -> int:
        """Total bytes handed out so far."""
        return sum(b.nbytes for b in self.buffers.values())


class SampledTraceBase:
    """Weight-stack and kernel-attribution machinery for trace consumers.

    Shared by :class:`~repro.machine.simulator.TraceSimulator` (which
    prices events) and :class:`TraceRecorder` (which records them): both
    must compute *identical* sampling weights, so the region/loop float
    arithmetic lives in exactly one place.
    """

    def __init__(self):
        self._weights = [1.0]
        self._w = 1.0
        self._kernel_stack = ["other"]

    @contextmanager
    def kernel(self, label: str):
        """Attribute cycles accrued in this context to *label*.

        Used by the network runner to reproduce the per-kernel execution
        breakdown of Section II-B (GEMM = 93.4 % of compute time).
        """
        self._kernel_stack.append(label)
        try:
            yield
        finally:
            self._kernel_stack.pop()

    @contextmanager
    def region(self, weight: float):
        """Scale everything inside the context by *weight*."""
        if weight < 0:
            raise ValueError("region weight must be non-negative")
        self._weights.append(weight)
        self._w *= weight
        try:
            yield
        finally:
            self._weights.pop()
            self._w /= weight if weight else 1.0
            # Recompute to avoid float drift after many regions.
            prod = 1.0
            for w in self._weights:
                prod *= w
            self._w = prod

    def loop(self, total: int, warmup: int = 2, sample: int = 8) -> Iterator[int]:
        """Iterate a homogeneous loop with warm-up + weighted sampling.

        Yields iteration indices.  When ``total <= warmup + sample + 1``
        every iteration runs at weight 1; otherwise ``warmup`` leading
        iterations run unweighted, ``sample`` evenly-spaced *interior*
        iterations run with weight ``(total - warmup - 1) / sample``, and
        the final iteration runs unweighted — loop tails (partial vector
        chunks, edge blocks) are usually on the last iteration and would
        otherwise be mis-extrapolated.
        """
        if total < 0:
            raise ValueError("loop trip count must be non-negative")
        if total <= warmup + sample + 1:
            for i in range(total):
                yield i
            return
        for i in range(warmup):
            yield i
        interior = total - warmup - 1
        weight = interior / sample
        self._weights.append(weight)
        self._w *= weight
        try:
            step = interior / sample
            for s in range(sample):
                yield warmup + int(s * step)
        finally:
            self._weights.pop()
            prod = 1.0
            for w in self._weights:
                prod *= w
            self._w = prod
        yield total - 1  # the tail iteration, at weight 1


# ----------------------------------------------------------------------
# Trace capture
# ----------------------------------------------------------------------
# Event opcodes.  The recorder lowers the full TraceSimulator API onto
# these: gathers/scatters become strided loads/stores at capture time
# (using the simulator's exact stride formula), so the replayer never
# needs the gather-specific entry points.
OP_SCALAR = 0
OP_SCALAR_LOAD = 1
OP_SCALAR_STORE = 2
OP_VLOAD = 3
OP_VSTORE = 4
OP_VARITH = 5
OP_VBROADCAST = 6
OP_SW_PREFETCH = 7
OP_COUNT_FLOPS = 8
OP_SPILL = 9
OP_NOTE_RANGE = 10

#: Bumped whenever the event encoding or the set of recorded operations
#: changes; part of the trace content key (see repro.core.tracecache).
#: v2 added the allocation table (``RecordedTrace.buffers``), which the
#: static analyzers need to prove bounds (see repro.analysis).
#: v3 added a mandatory sha256 content digest over the column data, so
#: a truncated or bit-flipped spill file is rejected (and quarantined
#: by repro.core.tracecache) instead of silently poisoning a sweep.
#: v4 moved spill persistence to the compressed ``.rtz`` container
#: (delta+zigzag+varint address/size columns, zlib/zstd block
#: compression — see repro.core.tracecache) so reference traces are
#: small enough to commit; it is the only on-disk trace format.
TRACE_FORMAT_VERSION = 4


class RecordedTrace:
    """A frozen, columnar macro-event trace.

    Eight parallel NumPy arrays hold one entry per event: ``op`` (opcode
    above), ``w`` (the sampling weight the event ran at), ``kid`` (index
    into :attr:`labels`, the kernel-attribution label), four integer
    operands ``i0..i3`` and one float operand ``f0`` (meaning depends on
    the opcode — see :class:`TraceRecorder`).  Replay is valid on any
    machine whose VL-relevant fields match :attr:`isa_name`,
    :attr:`vlen_bits` and :attr:`l1_line_bytes`; everything else (L2
    geometry, lane count, latencies, prefetchers) is free to vary.
    """

    __slots__ = (
        "key", "isa_name", "vlen_bits", "l1_line_bytes", "labels",
        "buffers", "meta", "_cols", "_digest",
    )

    #: Column (name, dtype) pairs, in row-tuple order.
    _COLUMNS = (
        ("op", np.uint8), ("w", np.float64), ("kid", np.uint32),
        ("i0", np.int64), ("i1", np.int64), ("i2", np.int64),
        ("i3", np.int64), ("f0", np.float64),
    )

    def __init__(self, key, isa_name, vlen_bits, l1_line_bytes, labels,
                 op, w, kid, i0, i1, i2, i3, f0, meta=None, buffers=()):
        self.key: Optional[str] = key
        self.isa_name: str = isa_name
        self.vlen_bits: int = vlen_bits
        self.l1_line_bytes: int = l1_line_bytes
        self.labels: Tuple[str, ...] = tuple(labels)
        #: Allocation table at capture time: ``(name, base, nbytes)``
        #: triples in allocation order.  Lets the static analyzers
        #: (repro.analysis) prove every event lands inside a buffer.
        self.buffers: Tuple[Tuple[str, int, int], ...] = tuple(
            (str(n), int(b), int(s)) for n, b, s in buffers
        )
        self._cols = (op, w, kid, i0, i1, i2, i3, f0)
        self.meta: Dict = dict(meta or {})
        self._digest: Optional[str] = None

    def _columns(self) -> tuple:
        """The eight parallel arrays, in :attr:`_COLUMNS` order."""
        return self._cols

    op = property(lambda self: self._columns()[0])
    w = property(lambda self: self._columns()[1])
    kid = property(lambda self: self._columns()[2])
    i0 = property(lambda self: self._columns()[3])
    i1 = property(lambda self: self._columns()[4])
    i2 = property(lambda self: self._columns()[5])
    i3 = property(lambda self: self._columns()[6])
    f0 = property(lambda self: self._columns()[7])

    # -- introspection -------------------------------------------------
    @property
    def n_events(self) -> int:
        return len(self._cols[0])

    def nbytes(self) -> int:
        """In-memory size of the columnar encoding."""
        return sum(c.nbytes for c in self._columns())

    def content_digest(self) -> str:
        """sha256 of the column data, labels and buffers — lazily cached.

        Loaders that already computed (and verified) the digest pre-seed
        the cache, so warm paths never re-hash; a freshly captured trace
        pays one hash on first use.  The replay layer keys its shared-pass
        memo and the persistent compiled-pass cache on this value, so a
        quarantined-and-recaptured trace (same key, different bytes) can
        never be served a stale compiled pass.
        """
        if self._digest is None:
            self._digest = self._content_digest(
                self._columns(), self.labels, self.buffers
            )
        return self._digest

    def compatible_with(self, machine) -> bool:
        """True if *machine* can replay this trace (VL bucket match)."""
        return (
            machine.isa_name == self.isa_name
            and machine.vlen_bits == self.vlen_bits
            and machine.l1.line_bytes == self.l1_line_bytes
        )

    def rows(self) -> Iterator[tuple]:
        """Row tuples ``(op, w, kid, i0, i1, i2, i3, f0)``, in event order.

        The replayer iterates plain Python tuples, which is much faster
        than per-row array indexing.  They are decoded ``_CHUNK_ROWS``
        at a time and never cached, so a walk over the trace holds one
        chunk of tuples beside the columns, not a second copy of it.
        """
        cols = self._columns()
        for start in range(0, self.n_events, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            yield from zip(*(c[start:stop].tolist() for c in cols))

    # -- content digest (checked by the .rtz codec) --------------------
    @staticmethod
    def _content_digest(cols, labels, buffers) -> str:
        """sha256 over the column bytes plus labels/buffers.

        Stored in (and checked against) the spill header so a torn or
        bit-flipped ``.rtz`` can never replay: the loader raises and
        the trace cache quarantines the file.
        """
        import hashlib

        h = hashlib.sha256()
        for c in cols:
            arr = np.ascontiguousarray(c)
            h.update(str(arr.dtype).encode("utf-8"))
            h.update(arr.tobytes())
        h.update(
            json.dumps(
                [list(labels), [list(b) for b in buffers]], sort_keys=True
            ).encode("utf-8")
        )
        return h.hexdigest()


#: Row tuples an event log holds before freezing them into a column
#: chunk.  Bounds the transient Python objects of a capture (a 20-layer
#: stream is over a million events) while the per-event cost stays one
#: tuple append.
_CHUNK_ROWS = 1 << 16


def _rows_to_columns(rows: list) -> list:
    """Freeze row tuples into the eight :attr:`RecordedTrace._COLUMNS`.

    One C-level pass per column, straight into its dtype (exact: no
    float round trip for the integer operands).
    """
    n = len(rows)
    return [
        np.fromiter(map(itemgetter(i), rows), dt, n)
        for i, (_, dt) in enumerate(RecordedTrace._COLUMNS)
    ]


class _EventLog:
    """The recording half of a capture: a chunked, columnar event log.

    Mixed into :class:`TraceRecorder`, which every capture uses
    (``Network.record_trace`` and ``replay.capture_sweep`` alike), so
    both freeze the very same :class:`RecordedTrace` for one kernel
    run.  The host class provides
    ``machine``, ``address_space`` and the :class:`SampledTraceBase`
    weight/kernel state.  Each event is one row tuple ``(op, w, kid,
    i0, i1, i2, i3, f0)``; every ``_CHUNK_ROWS`` rows are frozen into
    NumPy columns, so at most that many tuples are ever alive.

    The event methods (TraceSimulator's signatures) are the one
    definition of every row layout.  They replicate the simulator's
    early-out guards exactly: an event the simulator would not price at
    all (e.g. a zero-element vector load) is not recorded, while events
    that merely contribute zero cycles (e.g. ``scalar(0)``) *are*,
    because they still touch the kernel-cycle attribution dict.
    """

    # -- events (mirror TraceSimulator's signatures) -------------------
    def note_resident_range(self, base: int, nbytes: int) -> None:
        self._log((OP_NOTE_RANGE, self._w, self._cur_kid, base, nbytes, 0, 0, 0.0))

    def scalar(self, n: int = 1) -> None:
        self._log((OP_SCALAR, self._w, self._cur_kid, n, 0, 0, 0, 0.0))

    def scalar_load(self, addr: int, nbytes: int = 4) -> None:
        self._log((OP_SCALAR_LOAD, self._w, self._cur_kid, addr, nbytes, 0, 0, 0.0))

    def scalar_store(self, addr: int, nbytes: int = 4) -> None:
        self._log((OP_SCALAR_STORE, self._w, self._cur_kid, addr, nbytes, 0, 0, 0.0))

    def vload(self, addr: int, n_elems: int, ew: int = 4, stride: int = 0) -> None:
        if n_elems <= 0:
            return
        self._log((OP_VLOAD, self._w, self._cur_kid, addr, n_elems, ew, stride, 0.0))

    def vstore(self, addr: int, n_elems: int, ew: int = 4, stride: int = 0) -> None:
        if n_elems <= 0:
            return
        self._log((OP_VSTORE, self._w, self._cur_kid, addr, n_elems, ew, stride, 0.0))

    def vgather(self, addr: int, n_elems: int, span_bytes: int, ew: int = 4) -> None:
        if n_elems <= 0:
            return
        # Same lowering as TraceSimulator.vgather.
        stride = max(ew, span_bytes // max(1, n_elems))
        self._log((OP_VLOAD, self._w, self._cur_kid, addr, n_elems, ew, stride, 0.0))

    def vscatter(self, addr: int, n_elems: int, span_bytes: int, ew: int = 4) -> None:
        if n_elems <= 0:
            return
        stride = max(ew, span_bytes // max(1, n_elems))
        self._log((OP_VSTORE, self._w, self._cur_kid, addr, n_elems, ew, stride, 0.0))

    def varith(
        self, n_elems: int, n_instr: int = 1, flops_per_elem: float = 2.0, ew: int = 4
    ) -> None:
        if n_elems <= 0 or n_instr <= 0:
            return
        self._log(
            (OP_VARITH, self._w, self._cur_kid, n_elems, n_instr, ew, 0,
             flops_per_elem)
        )

    def vbroadcast(self, n: int = 1) -> None:
        self._log((OP_VBROADCAST, self._w, self._cur_kid, n, 0, 0, 0, 0.0))

    def sw_prefetch(self, addr: int, nbytes: int, level: str = "L1") -> None:
        if level not in ("L1", "L2"):
            raise ValueError(f"unknown prefetch level {level!r}")
        self._log(
            (OP_SW_PREFETCH, self._w, self._cur_kid, addr, nbytes,
             0 if level == "L1" else 1, 0, 0.0)
        )

    def count_flops(self, n: float) -> None:
        self._log((OP_COUNT_FLOPS, self._w, self._cur_kid, 0, 0, 0, 0, float(n)))

    def spill(self, n_registers: int = 1) -> None:
        self._log((OP_SPILL, self._w, self._cur_kid, n_registers, 0, 0, 0, 0.0))

    # -- the log -------------------------------------------------------
    def _start_log(self) -> None:
        self._events: list = []
        self._chunks: list = []
        self._labels: Dict[str, int] = {"other": 0}
        self._cur_kid = 0

    def _log(self, row: tuple) -> None:
        events = self._events
        events.append(row)
        if len(events) >= _CHUNK_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Freeze the pending rows into a column chunk."""
        if self._events:
            self._chunks.append(_rows_to_columns(self._events))
            self._events.clear()

    @contextmanager
    def kernel(self, label: str):
        """Attribute events in this context to *label*.

        Overrides the base context manager to keep the current label id
        cached — events record it once per ``kernel()`` entry instead of
        one dict lookup per event (the capture hot path).
        """
        self._kernel_stack.append(label)
        prev = self._cur_kid
        labels = self._labels
        kid = labels.get(label)
        if kid is None:
            kid = labels[label] = len(labels)
        self._cur_kid = kid
        try:
            yield
        finally:
            self._kernel_stack.pop()
            self._cur_kid = prev

    def recorded_trace(self, key: Optional[str] = None, meta=None) -> RecordedTrace:
        """Join the logged chunks into a :class:`RecordedTrace`.

        Each column is concatenated and its chunk parts dropped before
        the next, so the join needs one column of headroom, not a
        second copy of the trace.  The log is empty afterwards.
        """
        self._flush()
        chunks = self._chunks
        cols = []
        for i, (_, dt) in enumerate(RecordedTrace._COLUMNS):
            parts = [c[i] for c in chunks]
            for c in chunks:
                c[i] = None
            if not parts:
                cols.append(np.zeros(0, dt))
            else:
                cols.append(parts[0] if len(parts) == 1 else np.concatenate(parts))
            del parts
        chunks.clear()
        labels = [None] * len(self._labels)
        for name, kid in self._labels.items():
            labels[kid] = name
        m = self.machine
        return RecordedTrace(
            key,
            m.isa_name,
            m.vlen_bits,
            m.l1.line_bytes,
            labels,
            *cols,
            meta=meta,
            buffers=[
                (b.name, b.base, b.nbytes)
                for b in self.address_space.buffers.values()
            ],
        )


class _RecorderHierarchy:
    """Stand-in for ``sim.hierarchy`` while recording.

    Kernels only touch the hierarchy through
    :meth:`note_resident_range`; the recorder captures those calls as
    events so replay can reconstruct the residency-range state.
    """

    __slots__ = ("_rec",)

    def __init__(self, rec: "TraceRecorder"):
        self._rec = rec

    def note_resident_range(self, base: int, nbytes: int) -> None:
        self._rec.note_resident_range(base, nbytes)


class TraceRecorder(_EventLog, SampledTraceBase):
    """Captures the macro-event stream a kernel issues, without pricing.

    Presents the same API surface as
    :class:`~repro.machine.simulator.TraceSimulator` (events, sampling
    contexts, allocation, ``machine``/``hierarchy`` attributes) so the
    network runner and kernels run unmodified.  Events are logged as
    plain tuples (one append per event — this is the capture hot path)
    and frozen into a :class:`RecordedTrace` by :meth:`finish`; the
    event methods, and so every row layout, come from :class:`_EventLog`.
    """

    def __init__(self, machine):
        super().__init__()
        self.machine = machine
        self.address_space = AddressSpace()
        self.hierarchy = _RecorderHierarchy(self)
        self._start_log()

    # -- bookkeeping ---------------------------------------------------
    def alloc(self, name: str, nbytes: int) -> Buffer:
        """Allocate a simulated buffer (same bump allocator as pricing)."""
        return self.address_space.alloc(name, nbytes)

    # -- freezing ------------------------------------------------------
    def finish(self, key: Optional[str] = None, meta=None) -> RecordedTrace:
        """Freeze the captured events into a :class:`RecordedTrace`."""
        return self.recorded_trace(key, meta)
