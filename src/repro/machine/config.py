"""Machine design points and the paper's hardware presets (Table I).

A :class:`MachineConfig` is one point in the co-design space: an ISA at a
hardware vector length, a vector processing unit (lanes, bandwidth,
integration style), a two-level cache hierarchy, and DRAM parameters.
The three presets mirror Table I of the paper:

* :func:`rvv_gem5`  — RISC-V Vector on gem5: in-order core, *decoupled*
  VPU attached to the **L2** through a 2 KB VectorCache, no prefetch,
  vlen up to 16384 bits, 2-8 vector lanes;
* :func:`sve_gem5`  — ARM-SVE on gem5: in-order core, VPU fed through the
  **L1**, lanes proportional to the vector length, software prefetch
  instructions become no-ops (gem5 limitation, Section IV-A);
* :func:`a64fx`     — Fujitsu A64FX: out-of-order, 2x512-bit SIMD pipes,
  256 B lines, 8 MB L2, hardware stream prefetcher, software prefetch
  honoured.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..isa import VectorISA, make_isa
from .latency import latency_for

__all__ = [
    "CacheParams",
    "PrefetcherParams",
    "TLBParams",
    "VPUParams",
    "CoreParams",
    "MachineConfig",
    "rvv_gem5",
    "sve_gem5",
    "a64fx",
    "MB",
    "KB",
]

KB = 1 << 10
MB = 1 << 20


@dataclass(frozen=True)
class CacheParams:
    """Geometry and hit latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int

    def __post_init__(self):
        for name in ("size_bytes", "assoc", "line_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"cache {name} must be positive, got {getattr(self, name)}"
                )
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ValueError(
                f"cache size {self.size_bytes} not a multiple of "
                f"assoc*line = {self.assoc * self.line_bytes}"
            )


@dataclass(frozen=True)
class PrefetcherParams:
    """Hardware stream-prefetcher parameters (see ``prefetcher.py``)."""

    num_streams: int = 8
    degree: int = 4
    trigger: int = 2


@dataclass(frozen=True)
class VPUParams:
    """Vector processing unit parameters.

    Attributes
    ----------
    lanes:
        Number of 64-bit datapath lanes; f32 elements per cycle is
        ``2 * lanes`` per pipe.
    pipes:
        Parallel SIMD pipelines (A64FX has 2, gem5 models 1).
    mem_port:
        ``"L1"`` or ``"L2"`` — which cache level feeds the VPU.  RVV on
        gem5 attaches the VPU to the L2 (through the VectorCache); SVE
        reads vector data through the L1 (paper Section III-A).
    vector_cache_bytes:
        Size of the RVV VectorCache staging buffer (0 disables it).
    port_bytes_per_cycle:
        Peak bytes/cycle between the memory port and the VPU.
    mlp:
        Memory-level parallelism: how many outstanding line fills overlap
        (divides accumulated miss latency).  Higher on the decoupled RVV
        VPU and on the out-of-order A64FX.
    mem_issue_overhead:
        Fixed cycles per vector memory instruction (address generation,
        dispatch to the memory pipeline).
    issue_overhead:
        Cycles the scalar front-end spends dispatching *each* vector
        instruction to the VPU.  Large on a decoupled VPU (the RVV design
        the paper simulates), small on a tightly-integrated SVE pipeline,
        fractional on an OoO core.  Long vector lengths amortize this —
        the first-order mechanism behind Fig. 6's 2.5x scaling.
    """

    lanes: int = 8
    pipes: int = 1
    mem_port: str = "L1"
    vector_cache_bytes: int = 0
    port_bytes_per_cycle: int = 64
    mlp: float = 4.0
    mem_issue_overhead: int = 2
    issue_overhead: float = 1.0
    #: Execution datapath width in bytes/cycle per pipe; ``None`` derives
    #: it from ``lanes`` (8 bytes per 64-bit lane).  gem5's MinorCPU
    #: executes wide SVE operations as fixed-width micro-ops, so the
    #: sve_gem5 preset pins this to the 512-bit datapath regardless of
    #: the architectural vector length — which is why Fig. 8's VL gains
    #: (1.34x) are much smaller than RVV's (2.5x): they come only from
    #: amortized per-instruction overheads.
    exec_bytes_per_cycle: object = None
    #: Maximum outstanding line fills one (long) vector access overlaps.
    #: A vector load spanning many lines issues them back to back, so its
    #: effective MLP grows with the access size up to this cap — the
    #: reason long vectors tolerate misses better (Fig. 6 saturates
    #: instead of collapsing as the miss rate climbs).
    max_outstanding: int = 32

    def __post_init__(self):
        if self.mem_port not in ("L1", "L2"):
            raise ValueError(f"mem_port must be 'L1' or 'L2', got {self.mem_port!r}")
        if self.lanes <= 0 or self.pipes <= 0:
            raise ValueError("lanes and pipes must be positive")

    def elems_per_cycle(self, ew_bytes: int = 4) -> int:
        """Elements of width *ew_bytes* processed per cycle (all pipes)."""
        return self.exec_elems_per_cycle(ew_bytes) * self.pipes

    def exec_elems_per_cycle(self, ew_bytes: int = 4) -> int:
        """Elements of width *ew_bytes* executed per cycle on one pipe."""
        width = self.exec_bytes_per_cycle
        if width is None:
            width = self.lanes * 8
        return max(1, int(width) // ew_bytes)

    @property
    def lane_fill_cycles(self) -> int:
        """Start-up cycles to fill the lane pipelines (grows with lanes).

        Models the effect the paper describes in Section V: "adding more
        pipelines increases the start-up overhead, which can potentially
        degrade the performance with short vector lengths".
        """
        return max(1, self.lanes // 4)


@dataclass(frozen=True)
class TLBParams:
    """Data-TLB model (LRU, single level).

    Enabled only on the real-silicon preset (A64FX): gem5's SE mode
    services TLB misses with a functional walk at negligible cost, but on
    hardware the 3-loop GEMM's K concurrent row streams touch one page
    per stream and thrash the DTLB — one more benefit of the 6-loop
    kernel's packed buffers.
    """

    entries: int = 48
    page_bytes: int = 4096
    miss_penalty: int = 30


@dataclass(frozen=True)
class CoreParams:
    """Scalar core parameters."""

    model: str = "in-order"  # "in-order" (MinorCPU-like) or "out-of-order"
    freq_ghz: float = 2.0
    scalar_cpi: float = 1.0
    #: Fraction of vector memory stall an OoO window hides on top of MLP.
    ooo_hide: float = 0.0

    def __post_init__(self):
        if self.model not in ("in-order", "out-of-order"):
            raise ValueError(f"unknown core model {self.model!r}")
        if not (0.0 <= self.ooo_hide < 1.0):
            raise ValueError("ooo_hide must be in [0, 1)")


@dataclass(frozen=True)
class MachineConfig:
    """One point in the hardware design space."""

    name: str
    isa_name: str
    vlen_bits: int
    core: CoreParams
    vpu: VPUParams
    l1: CacheParams
    l2: CacheParams
    dram_latency: int = 120
    dram_bytes_per_cycle: int = 16
    #: Fill bandwidth between the L2 and the L1 (occupancy per line fill).
    l2_to_l1_bytes_per_cycle: int = 64
    #: Whether software prefetch instructions actually prefetch (A64FX).
    honors_sw_prefetch: bool = False
    #: Whether ignored software prefetches still occupy an issue slot
    #: (gem5-SVE emits them as no-ops; the RVV compiler deletes them).
    sw_prefetch_is_noop_instr: bool = False
    #: Hardware prefetcher on the L1 (None = absent).
    l1_prefetcher: Optional[PrefetcherParams] = None
    #: Hardware prefetcher on the L2 (None = absent).
    l2_prefetcher: Optional[PrefetcherParams] = None
    #: Data TLB (None = TLB misses are free, as in gem5 SE mode).
    tlb: Optional[TLBParams] = None
    #: Peak single-core GFLOP/s, for roofline analysis (Table IV).
    peak_gflops: float = 0.0

    def make_isa(self) -> VectorISA:
        """Instantiate the ISA model at this design point's vector length."""
        return make_isa(self.isa_name, self.vlen_bits)

    @property
    def vlen_f32(self) -> int:
        """Vector length in single-precision elements."""
        return self.vlen_bits // 32

    def with_(self, **kw) -> "MachineConfig":
        """Return a copy with selected fields replaced (sweep helper)."""
        return replace(self, **kw)

    def describe(self) -> str:
        """One-line summary used by the reporting module."""
        return (
            f"{self.name}: {self.isa_name.upper()} vlen={self.vlen_bits}b "
            f"lanes={self.vpu.lanes}x{self.vpu.pipes} "
            f"L1={self.l1.size_bytes // KB}KB L2={self.l2.size_bytes // MB}MB "
            f"core={self.core.model} VPU<-{self.vpu.mem_port}"
        )


# ----------------------------------------------------------------------
# Table I presets
# ----------------------------------------------------------------------

def rvv_gem5(
    vlen_bits: int = 512,
    lanes: int = 8,
    l2_mb: int = 1,
    latency_model: str = "constant",
) -> MachineConfig:
    """RISC-V Vector @ gem5 (Table I, column 1).

    In-order core @ 2 GHz, 64 KB 4-way L1, configurable L2 (1-256 MB,
    8-way, 64 B lines), decoupled VPU attached to the L2 through a 2 KB
    VectorCache, 2-8 vector lanes, vlen up to 16384 bits, no prefetching.
    """
    l2_bytes = l2_mb * MB
    return MachineConfig(
        name=f"rvv-gem5-{vlen_bits}b-{lanes}l-{l2_mb}MB",
        isa_name="rvv",
        vlen_bits=vlen_bits,
        core=CoreParams(model="in-order", freq_ghz=2.0, scalar_cpi=1.0),
        vpu=VPUParams(
            lanes=lanes,
            pipes=1,
            mem_port="L2",
            vector_cache_bytes=2 * KB,
            port_bytes_per_cycle=8 * lanes,
            mlp=2.0,
            mem_issue_overhead=2,
            issue_overhead=3.0,  # decoupled VPU: costly per-instr dispatch
            max_outstanding=24,
        ),
        l1=CacheParams(64 * KB, 4, 64, 4),
        l2=CacheParams(l2_bytes, 8, 64, latency_for(l2_bytes, latency_model)),
        dram_latency=200,
        dram_bytes_per_cycle=16,
        honors_sw_prefetch=False,
        sw_prefetch_is_noop_instr=False,  # EPI compiler drops the intrinsics
        peak_gflops=2.0 * lanes * 2 * 2,  # lanes * 2 f32 * FMA(2 flops) * GHz
    )


def sve_gem5(
    vlen_bits: int = 512,
    l2_mb: int = 1,
    latency_model: str = "constant",
) -> MachineConfig:
    """ARM-SVE @ gem5 (Table I, column 2).

    In-order core @ 2 GHz, 64 KB 4-way L1, configurable L2, VPU fed
    through the L1, lanes *proportional to the vector length* (paper
    Section VI-D), vlen 512-2048 bits, prefetch instructions are no-ops.
    """
    lanes = max(1, vlen_bits // 128)  # proportional to vector length
    l2_bytes = l2_mb * MB
    return MachineConfig(
        name=f"sve-gem5-{vlen_bits}b-{l2_mb}MB",
        isa_name="sve",
        vlen_bits=vlen_bits,
        core=CoreParams(model="in-order", freq_ghz=2.0, scalar_cpi=1.0),
        vpu=VPUParams(
            lanes=lanes,
            pipes=1,
            mem_port="L1",
            vector_cache_bytes=0,
            port_bytes_per_cycle=64,
            # MinorCPU blocks on dependent loads: single-line accesses
            # expose their full latency; multi-line vector accesses still
            # overlap their own fills (footprint MLP).
            mlp=1.0,
            mem_issue_overhead=1,
            issue_overhead=1.0,  # tightly integrated in-order pipeline
            # gem5 executes wide SVE ops as 512-bit micro-ops.
            exec_bytes_per_cycle=64,
        ),
        l1=CacheParams(64 * KB, 4, 64, 4),
        l2=CacheParams(l2_bytes, 8, 64, latency_for(l2_bytes, latency_model)),
        dram_latency=120,
        dram_bytes_per_cycle=16,
        honors_sw_prefetch=False,
        sw_prefetch_is_noop_instr=True,  # emitted, treated as no-ops by gem5
        peak_gflops=2.0 * lanes * 2 * 2,
    )


def a64fx() -> MachineConfig:
    """Fujitsu A64FX (Table I, column 3).

    Out-of-order core @ 2 GHz, 2x512-bit SIMD pipes, 64 KB 4-way L1 and
    8 MB 16-way L2 with 256 B lines, hardware stream prefetcher, software
    prefetch honoured.  Peak single-core performance is 62.5 GFLOP/s
    (paper, Section VI-C(a)).
    """
    return MachineConfig(
        name="a64fx",
        isa_name="sve",
        vlen_bits=512,
        core=CoreParams(
            model="out-of-order", freq_ghz=2.0, scalar_cpi=0.5, ooo_hide=0.5
        ),
        vpu=VPUParams(
            lanes=8,
            # One FMA pipe sustained: GEMM is L1-port limited, so the
            # second SIMD unit does not contribute to streaming kernels.
            # 16 f32 FMAs/cycle * 2 GHz * 2 flops = 64 GFLOP/s ~ the
            # paper's 62.5 GFLOP/s single-core peak.
            pipes=1,
            mem_port="L1",
            vector_cache_bytes=0,
            port_bytes_per_cycle=128,
            mlp=3.0,
            mem_issue_overhead=1,
            issue_overhead=0.5,  # OoO front-end hides most dispatch cost
        ),
        l1=CacheParams(64 * KB, 4, 256, 5),
        l2=CacheParams(8 * MB, 16, 256, 37),
        dram_latency=200,
        dram_bytes_per_cycle=32,
        honors_sw_prefetch=True,
        sw_prefetch_is_noop_instr=False,
        l1_prefetcher=PrefetcherParams(num_streams=8, degree=4, trigger=2),
        l2_prefetcher=PrefetcherParams(num_streams=16, degree=8, trigger=2),
        tlb=TLBParams(entries=48, page_bytes=4096, miss_penalty=40),
        peak_gflops=62.5,
    )


# field is used in doc examples / future extension points.
_ = field
