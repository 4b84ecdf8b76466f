"""Optimized 3-loop GEMM (paper Fig. 2).

The paper's first optimized GEMM: manual vectorization with intrinsics,
contiguous vector loads/stores, loop reorder (j outermost, strip-mined by
the granted vector length) and loop unrolling over rows of C (unroll
factor 16, tuned in Section VI-A to avoid register spilling).

``C += alpha * A @ B`` with A: MxK, B: KxN, C: MxN, all float32.
"""

from __future__ import annotations

import numpy as np

from ..isa import F32, RegisterFile, VectorISA
from ..isa.intrinsics import vfmacc, vle, vse
from ..machine.simulator import TraceSimulator
from ..machine.trace import EventBlock

__all__ = ["DEFAULT_UNROLL", "gemm_3loop", "trace_gemm_3loop"]

#: Section VI-A: no gain beyond 16 registers; 32 spills (~15 % drop).
DEFAULT_UNROLL = 16


def gemm_3loop(
    isa: VectorISA,
    alpha: float,
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    unroll: int = DEFAULT_UNROLL,
    regfile: RegisterFile = None,
) -> np.ndarray:
    """Functional 3-loop GEMM, loop-for-loop after Fig. 2.

    Strip-mines the j (column) loop by the granted vector length, keeps
    ``unroll`` accumulator registers of C live across the k loop, and
    uses vector-scalar FMA.  Updates *C* in place and returns it.

    Pass a :class:`~repro.isa.RegisterFile` to record register pressure
    (an unroll of 32 overflows the 32 architectural registers).
    """
    M, K = A.shape
    K2, N = B.shape
    if K2 != K or C.shape != (M, N):
        raise ValueError(f"shape mismatch: A{A.shape} B{B.shape} C{C.shape}")
    if unroll < 1:
        raise ValueError("unroll must be >= 1")
    alpha = np.float32(alpha)
    Bf = B.reshape(-1)
    Cf = C.reshape(-1)
    rf = regfile
    mvl = isa.max_elems(F32)  # grant ceiling, asserted by every intrinsic

    j = 0
    while j < N:
        gvl = isa.grant_vl(N - j, F32)  # vsetvl (Fig. 2 line 4)
        i = 0
        while i < M:
            u = min(unroll, M - i)
            if rf is not None:
                for r in range(u):
                    rf.alloc(f"vc{r}")
                rf.alloc("vb")
                rf.alloc("vaalpha")
                rf.alloc("vtmp")
            # Load C rows into accumulator registers (Fig. 2 line 6).
            acc = [vle(Cf, (i + r) * N + j, gvl, mvl) for r in range(u)]
            for k in range(K):
                vb = vle(Bf, k * N + j, gvl, mvl)  # line 8
                for r in range(u):
                    a_alpha = alpha * A[i + r, k]  # line 9 (skipped if 1)
                    vfmacc(acc[r], a_alpha, vb, gvl, mvl)  # line 11
            for r in range(u):
                vse(acc[r], Cf, (i + r) * N + j, gvl, mvl)  # line 13
            if rf is not None:
                rf.free_all()
            i += u
        j += gvl
    return C


def trace_gemm_3loop(
    sim: TraceSimulator,
    M: int,
    N: int,
    K: int,
    a_base: int,
    b_base: int,
    c_base: int,
    unroll: int = DEFAULT_UNROLL,
    alpha_is_one: bool = True,
    jb_sample: int = 6,
    ig_sample: int = 4,
) -> None:
    """Replay the 3-loop GEMM's instruction stream on the simulator.

    Addressing is exact: the inner loop streams row segments
    ``B[k, j:j+gvl]`` whose starts are ``4*N`` bytes apart — the scattered
    row-stream pattern that (a) inflates L2 pressure as the vector length
    grows (Table III) and (b) defeats the A64FX stream prefetcher,
    motivating the 6-loop packing (Section VI-C).

    The j and i loops are sampled (periodic, disjoint panels); the k loop
    runs in full so cache capacity pressure is real.  Each (j, i) panel
    is issued as one event block (:func:`_panel`), built once per panel
    shape and moved to the panel's addresses.
    """
    vl = sim.machine.vlen_f32
    line_elems = sim.machine.l1.line_bytes // 4
    spilled = max(0, unroll + 3 - 32)  # accumulators + vb/vaalpha/tmp
    n_jblocks = -(-N // vl)
    n_igroups = -(-M // unroll)
    shapes = {}
    with sim.kernel("gemm"):
        # The weight matrix is re-streamed every j-block; re-reads hit
        # iff it fits in the L2 (capacity, not line, question).
        sim.hierarchy.note_resident_range(a_base, M * K * 4)
        for jb in sim.loop(n_jblocks, warmup=2, sample=jb_sample):
            j = jb * vl
            gvl = min(vl, N - j)
            sim.scalar(4)  # vsetvl + j-loop bookkeeping
            for ig in sim.loop(n_igroups, warmup=1, sample=ig_sample):
                i = ig * unroll
                u = min(unroll, M - i)
                shape = (u, gvl)
                if shape not in shapes:
                    shapes[shape] = _panel(
                        N, K, u, gvl, line_elems, spilled, 2 if alpha_is_one else 3
                    )
                block, origin = shapes[shape]
                # Row origins: 0 none, 1 C, 2 B, 3 A.
                delta = np.array(
                    (0, c_base + (i * N + j) * 4, b_base + j * 4, a_base + i * K * 4)
                )[origin]
                sim.events(*block.shifted(delta).columns())


def _panel(N, K, u, gvl, line_elems, spilled, k_scalars):
    """One (j, i) panel of :func:`trace_gemm_3loop` as an event block.

    The rows, in the order the loop nest issues them::

        scalar(3)
        u C loads
        for k in range(K):
            B row load
            u A scalar loads          if k % line_elems == 0
            varith(gvl, u), scalar(k_scalars)
            spill(spilled)            if spilled
        u C stores

    Addresses are relative to the panel's origin in each matrix, C at
    ``(i, j)``, B at ``(0, j)`` and A at ``(i, 0)``; the second value
    names each row's origin (0 none, 1 C, 2 B, 3 A).
    """
    ks = np.arange(K)
    rows = np.arange(u)
    a_ks = ks[::line_elems]  # k % line_elems == 0: A loads issue
    per_k = 3 + (spilled > 0)
    n = 1 + 2 * u + K * per_k + u * len(a_ks)
    # B load of iteration k: after scalar(3), the C loads, and the rows
    # of every earlier iteration, ceil(k / line_elems) of which had A loads.
    b_at = 1 + u + ks * per_k + u * (-(-ks // line_elems))
    a_at = (b_at[a_ks, None] + 1 + rows).ravel()
    ar_at = b_at + 1 + u * (ks % line_elems == 0)  # varith
    c_load_at = slice(1, 1 + u)
    c_store_at = slice(n - u, n)
    block = EventBlock(n)
    block.scalar(0, 3)
    block.vload(c_load_at, rows * N * 4, gvl)
    block.vload(b_at, ks * N * 4, gvl)
    block.scalar_load(a_at, ((rows * K)[None, :] + a_ks[:, None]).ravel() * 4)
    # u vector-scalar FMAs (broadcast folded, Fig. 2).
    block.varith(ar_at, gvl, u)
    block.scalar(ar_at + 1, k_scalars)
    if spilled:
        block.spill(ar_at + 2, spilled)
    block.vstore(c_store_at, rows * N * 4, gvl)
    origin = np.zeros(n, np.intp)
    origin[c_load_at] = origin[c_store_at] = 1
    origin[b_at] = 2
    origin[a_at] = 3
    return block, origin
