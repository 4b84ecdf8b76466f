"""The benchmark's workloads and the phases that run them.

Each workload is a :class:`Workload` config.  One *cycle* of a workload
is one or more *phases*, and every phase runs in a fresh process
(``run.py --child``), so a warm phase can only use what an earlier
phase left on disk, and no in-process cache has to be reset by hand.
A phase times public calls of the program and returns, for each call,
its wall time and the exact statistics of every design point it
answered (as ``float.hex`` text), which the harness checks against the
pinned digests.

Phases by kind:

* ``point``: one direct simulation (``Network.simulate`` with the trace
  engine and the result cache off), then the same point asked again
  ``warm_hits`` times through the result cache (``use_cache=True``),
  which the direct result was stored into.
* ``sweep``: ``cold`` runs every grid from an empty cache directory,
  ``warm`` runs them again in a new process against the same directory.
* ``jobs``: the committed ``.rtz`` trace is seeded as a spill into an
  empty store, then the first grid is submitted as a durable job (cold),
  resubmitted ``dups`` times (answered from the sealed record), and the
  other grids are submitted on the same trace.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core import codesign, simcache
from repro.core import tracecache as tc
from repro.machine import rvv_gem5
from repro.machine.simulator import SimStats, TraceSimulator
from repro.nets import KernelPolicy, yolov3, yolov3_tiny

REPO = Path(__file__).resolve().parents[2]
#: The committed yolov3-tiny capture (rvv, vlen 512, first 12 layers).
RTZ = REPO / "tests" / "data" / "traces" / "yolov3_tiny_rvv_v512.rtz"

#: Sweep and job points answered by a fallback instead of the trace
#: engine (the point workload labels its own calls and never uses these).
DEGRADED = frozenset({"direct", "failed"})

_NETS = {"yolov3": yolov3, "yolov3-tiny": yolov3_tiny}
_SWEEPS = {
    "l2_mb": codesign.sweep_cache_sizes,
    "lanes": codesign.sweep_lanes,
    "vlen_bits": codesign.sweep_vector_lengths,
}
#: Grid axis -> the job spec's axis name (``repro.service.scheduler``).
_SPEC_AXES = {"l2_mb": "cache", "lanes": "lanes", "vlen_bits": "vlen"}


class StaleTrace(RuntimeError):
    """The committed ``.rtz`` no longer matches the runtime trace key."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for why each exists)."""

    name: str
    kind: str  # "point" | "sweep" | "jobs"
    net: str
    n_layers: int
    vlen_bits: int = 2048
    lanes: int = 8
    l2_mb: int = 1
    grids: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    warm_hits: int = 0  # point: result-cache answers per cycle
    dups: int = 0  # jobs: duplicate submits per cycle

    @classmethod
    def from_json(cls, doc: Dict) -> "Workload":
        grids = tuple((axis, tuple(values)) for axis, values in doc["grids"])
        return cls(**dict(doc, grids=grids))

    def to_json(self) -> Dict:
        return asdict(self)

    def phases(self) -> Tuple[str, ...]:
        return ("cold", "warm") if self.kind == "sweep" else (self.kind,)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("point", "point", "yolov3", 20, warm_hits=40),
        Workload(
            "pricing_axes", "sweep", "yolov3", 6,
            grids=(
                ("l2_mb", (1, 2, 4, 8, 16, 32, 64, 256)),
                ("lanes", (1, 2, 4, 8)),
            ),
        ),
        Workload(
            "vl_sweep", "sweep", "yolov3", 6,
            grids=(("vlen_bits", (512, 2048, 8192)),),
        ),
        Workload(
            "jobs_rtz", "jobs", "yolov3-tiny", 12, vlen_bits=512, lanes=4,
            grids=(
                ("l2_mb", (1, 2, 4, 8, 16, 32, 64, 256)),
                ("lanes", (1, 2, 4, 8)),
            ),
            dups=250,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def grids_for(w: Workload, seed: int, cycle: int) -> List[Tuple[str, List[int]]]:
    """The workload's grids: point order permuted by *seed*, then
    rotated by *cycle*.

    Peak memory and cold time depend on the order (the trace registry
    keeps earlier captures alive while the next one runs, so the sweep
    peaks when its largest point comes last).  Rotating per cycle puts
    every point last once in any ``len(grid)`` consecutive cycles, so a
    run's best time and peak memory do not hinge on one order.
    """
    rng = random.Random(f"{w.name}:{seed}")
    out = []
    for axis, values in w.grids:
        values = list(values)
        rng.shuffle(values)
        k = cycle % len(values)
        out.append((axis, values[k:] + values[:k]))
    return out


def build_net(w: Workload):
    return _NETS[w.net]()


def policy() -> KernelPolicy:
    return KernelPolicy(gemm="3loop")


def machine(w: Workload, **overrides):
    cfg = {"vlen_bits": w.vlen_bits, "lanes": w.lanes, "l2_mb": w.l2_mb}
    cfg.update(overrides)
    return rvv_gem5(**cfg)


def all_points(w: Workload) -> List[Tuple[str, int]]:
    """Every ``(axis, value)`` design point the workload answers."""
    if w.kind == "point":
        return [("vlen_bits", w.vlen_bits)]
    return [(axis, v) for axis, values in w.grids for v in values]


# ----------------------------------------------------------------------
# Exact statistics and digests
# ----------------------------------------------------------------------
def stats_text(stats: SimStats) -> str:
    """Every ``SimStats`` field and kernel-cycle entry as ``float.hex``."""
    fields = ";".join(f"{f}={getattr(stats, f).hex()}" for f in SimStats.FIELDS)
    kernels = ";".join(
        f"{k}={v.hex()}" for k, v in sorted(stats.kernel_cycles.items())
    )
    return f"{fields}|{kernels}"


def point_key(axis: str, value) -> str:
    return f"{axis}={value}"


def _sort_key(key: str):
    axis, _, value = key.partition("=")
    return axis, int(value)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stats_digest(points: Dict[str, str]) -> str:
    """sha256 over every point's exact stats, points sorted by axis value."""
    lines = [f"{k}|{points[k]}" for k in sorted(points, key=_sort_key)]
    return text_digest("\n".join(lines))


def reference(w: Workload) -> Dict:
    """Pinned digests from direct, trace-off simulation of every point."""
    net, pol = build_net(w), policy()
    texts = {}
    for axis, value in all_points(w):
        m = machine(w, **{axis: value})
        stats = net.simulate(
            m, pol, n_layers=w.n_layers, use_trace=False, use_cache=False
        )
        texts[point_key(axis, value)] = stats_text(stats)
    return {
        "stats_digest": stats_digest(texts),
        "points": {k: text_digest(t) for k, t in sorted(texts.items())},
    }


# ----------------------------------------------------------------------
# Per-CNN-layer attribution (traced point phase)
# ----------------------------------------------------------------------
class LayerSim(TraceSimulator):
    """A ``TraceSimulator`` that records each top-level region's cost.

    ``Network._emit_trace`` opens one top-level region per emitted CNN
    layer; around each, this snapshots ``stats.cycles`` and host time.
    Everything else is the parent class, so the statistics are the
    ones ``Network.simulate`` produces.
    """

    def __init__(self, m):
        super().__init__(m)
        self.regions: List[Tuple[float, float]] = []  # (cycles, host s)
        self._depth = 0

    @contextmanager
    def region(self, weight: float):
        top = self._depth == 0
        self._depth += 1
        c0, t0 = self.stats.cycles, time.perf_counter()
        try:
            with super().region(weight):
                yield
        finally:
            self._depth -= 1
        if top:
            self.regions.append(
                (self.stats.cycles - c0, time.perf_counter() - t0)
            )


def emitted_layers(net, n_layers: int) -> List[int]:
    """Network indices of the layers ``_emit_trace`` emits, in order.

    Replays its dedup rule: the first two occurrences of a layer shape
    are emitted (the second stands in for every later repeat), later
    ones are skipped.
    """
    seen: Dict = {}
    out = []
    for idx in range(min(n_layers, len(net.layers))):
        key = net._dedup_key(idx, net.layers[idx])
        seen[key] = seen.get(key, 0) + 1
        if seen[key] <= 2:
            out.append(idx)
    return out


def cnn_metric_names(w: Workload) -> List[str]:
    names = []
    for idx in emitted_layers(build_net(w), w.n_layers):
        names += [f"cnn.L{idx:02d}.sim_cycles", f"cnn.L{idx:02d}.host_s"]
    return names


# ----------------------------------------------------------------------
# Phases (each runs in its own process)
# ----------------------------------------------------------------------
def dir_bytes(path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += (Path(root) / f).stat().st_size
    return total


@contextmanager
def _span(tracer, name: str):
    if tracer is None:
        yield
        return
    span = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(span)


def _call(calls: List[Dict], role: str, op: str, seconds: float,
          points: List[Tuple[str, int, str, SimStats]]) -> None:
    calls.append({
        "role": role,
        "op": op,
        "s": seconds,
        "points": [
            [axis, value, source, stats_text(stats)]
            for axis, value, source, stats in points
        ],
    })


def run_phase(w: Workload, phase: str, seed: int, cycle: int = 0,
              tracer=None) -> Dict:
    """Run one phase in this process; returns its timed calls.

    The cache directory is whatever ``REPRO_SIMCACHE_DIR`` names (the
    harness points it at a fresh directory per cycle).  ``ready`` is the
    monotonic time just before the first timed call, so the harness can
    measure set-up from process start.
    """
    if phase == "point":
        return _phase_point(w, tracer)
    if phase in ("cold", "warm"):
        return _phase_sweep(w, phase, grids_for(w, seed, cycle), tracer)
    if phase == "jobs":
        return _phase_jobs(w, grids_for(w, seed, cycle), tracer)
    raise ValueError(f"unknown phase {phase!r}")


def _phase_point(w: Workload, tracer) -> Dict:
    net, pol, m = build_net(w), policy(), machine(w)
    axis, value = all_points(w)[0]
    calls: List[Dict] = []
    out: Dict = {"calls": calls}
    sim = LayerSim(m) if tracer is not None else None
    out["ready"] = time.monotonic()
    t0 = time.perf_counter()
    with _span(tracer, "call.simulate"):
        if sim is None:
            stats = net.simulate(
                m, pol, n_layers=w.n_layers, use_trace=False, use_cache=False
            )
        else:
            net._emit_trace(sim, pol, w.n_layers, True)
            stats = sim.stats
    _call(calls, "cold", "simulate", time.perf_counter() - t0,
          [(axis, value, "simulated", stats)])
    if sim is not None:
        out["cnn_layers"] = emitted_layers(net, w.n_layers)
        out["cnn_regions"] = sim.regions
        out["cnn_total_cycles"] = stats.cycles
    # The entry simulate(use_cache=True) writes on a miss, so the warm
    # calls below are result-cache hits.
    simcache.store(simcache.cache_key(net, m, pol, w.n_layers), stats)
    out["cache_bytes"] = dir_bytes(simcache.cache_dir())
    for _ in range(w.warm_hits):
        t0 = time.perf_counter()
        with _span(tracer, "call.simulate_cached"):
            hit = net.simulate(
                m, pol, n_layers=w.n_layers, use_trace=False, use_cache=True
            )
        _call(calls, "warm", "simulate_cached", time.perf_counter() - t0,
              [(axis, value, "cached", hit)])
    return out


def _phase_sweep(w: Workload, phase: str, grids, tracer) -> Dict:
    net, pol = build_net(w), policy()
    calls: List[Dict] = []
    out: Dict = {"calls": calls, "ready": time.monotonic()}
    for axis, values in grids:
        def factory(v, axis=axis):
            return machine(w, **{axis: v})

        t0 = time.perf_counter()
        with _span(tracer, f"call.sweep_{axis}"):
            res = _SWEEPS[axis](
                net, values, factory, pol, n_layers=w.n_layers, use_cache=False
            )
        _call(calls, phase, f"sweep_{axis}", time.perf_counter() - t0, [
            (axis, v, res.source_of(i), s)
            for i, (v, s) in enumerate(zip(res.axis, res.stats))
        ])
    return out


def seed_rtz(w: Workload) -> None:
    """Copy the committed trace into the spill dir under its runtime key.

    Raises :class:`StaleTrace` when the file's header key differs from
    the key this code computes for the same inputs.
    """
    key = tc.trace_key(build_net(w), machine(w), policy(), w.n_layers)
    committed = tc.read_header(str(RTZ))["key"]
    if committed != key:
        raise StaleTrace(f"committed key {committed}, runtime key {key}")
    spill = Path(tc.spill_dir())
    spill.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(RTZ, spill / f"{key}{tc.SPILL_SUFFIX}")


def job_spec(w: Workload, axis: str, values: List[int]) -> Dict:
    return {
        "net": w.net, "machine": "rvv", "vlen": w.vlen_bits,
        "lanes": w.lanes, "l2_mb": w.l2_mb, "gemm": policy().gemm,
        "winograd": policy().winograd, "layers": w.n_layers,
        "axis": _SPEC_AXES[axis], "values": list(values),
    }


def _phase_jobs(w: Workload, grids, tracer) -> Dict:
    from repro.service import scheduler

    seed_rtz(w)
    calls: List[Dict] = []
    out: Dict = {"calls": calls, "ready": time.monotonic()}

    def submit(role: str, axis: str, values: List[int]) -> None:
        t0 = time.perf_counter()
        with _span(tracer, "call.submit_and_run"):
            outcome = scheduler.submit_and_run(job_spec(w, axis, values))
        dt = time.perf_counter() - t0
        res = outcome.result
        if outcome.state != "done" or res is None:
            points = [(axis, v, "failed", SimStats()) for v in values]
        else:
            points = [
                (axis, v, res.source_of(i), s)
                for i, (v, s) in enumerate(zip(res.axis, res.stats))
            ]
        _call(calls, role, f"submit_{axis}", dt, points)

    (axis, values), rest = grids[0], grids[1:]
    submit("cold", axis, values)
    out["cache_bytes"] = dir_bytes(simcache.cache_dir())
    for _ in range(w.dups):
        submit("warm", axis, values)
    for axis, values in rest:
        submit("other", axis, values)
    return out
