"""Co-design sweep machinery — the paper's primary contribution.

The paper's method is a joint exploration: fix a kernel configuration
(software axis), sweep a micro-architectural parameter (hardware axis),
and observe cycle counts and cache statistics.  This module packages
that loop: :class:`DesignPoint` couples a machine with a kernel policy,
and the ``sweep_*`` helpers reproduce the paper's parameter axes
(vector length, L2 size, vector lanes).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..machine.config import MachineConfig
from ..machine.simulator import SimStats
from ..nets.layers import KernelPolicy
from ..nets.network import Network
from ..testing import faults
from .parallel import resolve_jobs, simulate_points
from .resilience import (
    FailureBudget,
    Journal,
    PointFailure,
    RetryPolicy,
    call_with_retries,
    load_sealed,
    stats_from_payload,
    sweep_key,
)

__all__ = [
    "DesignPoint",
    "ReplayDegradedWarning",
    "SweepResult",
    "run_design_point",
    "sweep",
    "sweep_vector_lengths",
    "sweep_cache_sizes",
    "sweep_lanes",
]


class ReplayDegradedWarning(RuntimeWarning):
    """A replay group failed to price and fell back to per-point
    simulation: the numbers stay exact, only the sweep is slower."""


@dataclass(frozen=True)
class DesignPoint:
    """One (hardware, software) point in the co-design space."""

    machine: MachineConfig
    policy: KernelPolicy = field(default_factory=KernelPolicy)
    label: str = ""

    def name(self) -> str:
        """Display label (explicit, or machine/kernel derived)."""
        return self.label or f"{self.machine.name}/{self.policy.gemm}"


@dataclass
class SweepResult:
    """Outcome of a one-axis sweep.

    ``axis`` holds the swept parameter values, ``stats`` the simulation
    statistics per value, in the same order.  ``sources`` records each
    point's provenance: ``"direct"`` (fully simulated), ``"captured"``
    (simulated while recording the shared trace), ``"replayed"`` (priced
    from a recorded trace without re-running kernels), ``"cached"``
    (persistent result cache hit), ``"journal"`` (restored from a
    resumed sweep's checkpoint), ``"sealed"`` (the whole grid answered
    from a compacted, digest-chained results record — see
    :func:`repro.core.resilience.seal_journal`) or ``"failed"`` (the
    entry in ``stats``
    is a :class:`~repro.core.resilience.PointFailure`, not a
    :class:`SimStats` — only possible with ``max_failures > 0``).  It
    is empty for results built by hand; consumers should treat a
    missing entry as ``"direct"``.
    """

    axis_name: str
    axis: List = field(default_factory=list)
    stats: List[SimStats] = field(default_factory=list)
    sources: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every point produced real statistics."""
        return not self.failures()

    def failures(self) -> List[PointFailure]:
        """The :class:`PointFailure` records of permanently failed
        points (empty on a fully successful sweep)."""
        return [s for s in self.stats if isinstance(s, PointFailure)]

    def cycles(self) -> List[float]:
        """Execution cycles per swept value."""
        return [s.cycles for s in self.stats]

    def speedups(self, baseline_index: int = 0) -> List[float]:
        """Speedup of each point relative to the point at *baseline_index*
        (the paper normalizes to the shortest vector / smallest cache).

        Degenerate zero-cycle points (e.g. a zero-layer sweep) yield
        1.0 against a zero-cycle baseline and ``inf`` otherwise, rather
        than raising ``ZeroDivisionError``.
        """
        if not self.stats:
            return []
        base = self.stats[baseline_index].cycles
        out = []
        for s in self.stats:
            if s.cycles == 0:
                out.append(1.0 if base == 0 else float("inf"))
            else:
                out.append(base / s.cycles)
        return out

    def miss_rates(self) -> List[float]:
        """L2 demand miss rate per swept value (Table III)."""
        return [s.l2_miss_rate for s in self.stats]

    def source_of(self, index: int) -> str:
        """Provenance of point *index* (``"direct"`` when unrecorded)."""
        return self.sources[index] if index < len(self.sources) else "direct"

    def as_rows(self) -> List[Dict]:
        """Row dicts for reporting: axis value, cycles, speedup, miss,
        and the point's provenance (captured / replayed / cached /
        direct)."""
        speed = self.speedups()
        return [
            {
                self.axis_name: v,
                "cycles": s.cycles,
                "speedup": sp,
                "l2_miss_rate": s.l2_miss_rate,
                "avg_vlen_elems": s.avg_vlen_elems,
                "source": self.source_of(i),
            }
            for i, (v, s, sp) in enumerate(zip(self.axis, self.stats, speed))
        ]


def run_design_point(
    net: Network,
    point: DesignPoint,
    n_layers: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> SimStats:
    """Simulate *net* at one design point.

    ``use_cache`` opts into the persistent result cache (see
    :mod:`repro.core.simcache`); ``None`` defers to ``REPRO_SIMCACHE``.
    """
    return net.simulate(
        point.machine, point.policy, n_layers=n_layers, use_cache=use_cache
    )


def _simulate_group(
    net: Network,
    machines: Sequence[MachineConfig],
    policy: KernelPolicy,
    n_layers: Optional[int],
    use_cache: Optional[bool],
    use_trace: Optional[bool],
    indices: Optional[Sequence[int]] = None,
    retry: Optional[RetryPolicy] = None,
    budget: Optional[FailureBudget] = None,
    on_point=None,
    on_failure=None,
):
    """Serially simulate one machine list with capture-once/replay-many.

    Points are first resolved against the persistent result cache, then
    grouped by trace key (:func:`repro.core.tracecache.trace_key`);
    each replayable group (:func:`repro.machine.replay.group_mode` —
    L2/DRAM sweeps and VPU-pricing sweeps like lanes/MLP; a singleton,
    such as one point of a VL sweep, is a group too) is priced from
    the shared-pass memo or stored ``.rvp`` tiers when it can be
    (:func:`~repro.machine.replay.replay_sweep_cached`), else from a
    registered or spilled trace
    (:func:`~repro.machine.replay.replay_sweep_stored`, which drops a
    decoded trace before building tiers), else by one kernel
    run that records the trace and prices every sibling
    (:func:`repro.machine.replay.capture_sweep`), seeding the
    registry/spill and the tier cache so later sweeps along *any*
    replayable axis price the figure without re-running kernels.
    Groups varying in a genuinely un-replayable field, and every group
    of machines with a TLB, a hardware prefetcher or honoured software
    prefetches (:func:`repro.machine.replay.blocking_features`, the
    A64FX preset), fall back to ordinary per-point simulation before
    anything is captured or decoded — or raise a ``ValueError`` naming
    the fields or the feature when ``use_trace=True`` was explicitly
    requested.

    Returns ``(stats, sources)`` in input order; statistics are bitwise
    identical to per-point simulation regardless of the path taken.

    Supervision (see :mod:`repro.core.resilience`): a failing group
    pricing degrades its whole group to the per-point loop with a
    :class:`ReplayDegradedWarning` naming the trace key and the error —
    unless ``use_trace=True``, where the error propagates, since the
    caller asked for replay; a failing point retries per *retry* and finally
    degrades to a :class:`PointFailure` charged against *budget*.
    *on_point* / *on_failure* fire as each point settles — the
    journaling hook for resumable sweeps.
    """
    from . import simcache, tracecache
    from ..machine.replay import (
        capture_sweep,
        group_mode,
        replay_sweep_cached,
        replay_sweep_stored,
        require_group,
    )

    n = len(machines)
    indices = list(indices) if indices is not None else list(range(n))
    retry = retry if retry is not None else RetryPolicy.from_env()
    budget = budget if budget is not None else FailureBudget(retry.max_failures)
    stats: List[Optional[SimStats]] = [None] * n
    sources = ["direct"] * n
    cache_on = simcache.cache_enabled(use_cache)
    ckeys: List[Optional[str]] = [None] * n
    pending = []
    for i, machine in enumerate(machines):
        if cache_on:
            ckeys[i] = simcache.cache_key(net, machine, policy, n_layers, True)
            hit = simcache.load(ckeys[i])
            if hit is not None:
                stats[i] = hit
                sources[i] = "cached"
                if on_point is not None:
                    on_point(indices[i], hit, "cached")
                continue
        pending.append(i)

    # Tracing defaults ON for sweeps: capture costs ~1/10 of pricing, so
    # it pays for itself from the second point of a group onwards — and
    # singleton groups still capture, seeding the registry/spill so the
    # next sweep sharing the key replays instead of re-simulating.
    if tracecache.trace_enabled(use_trace, default=True) and pending:
        groups: Dict[str, List[int]] = {}
        for i in pending:
            key = tracecache.trace_key(net, machines[i], policy, n_layers, True)
            groups.setdefault(key, []).append(i)
        for key, idxs in groups.items():
            group = [machines[i] for i in idxs]
            if group_mode(group) is None:
                if use_trace is True:
                    # Replay was demanded for a group the pricing pass
                    # cannot express: fail loudly, naming why.
                    require_group(group)
                continue  # un-replayable group: per-point fallback below
            try:
                for i in idxs:
                    faults.maybe_fault("worker.point", index=indices[i])
            except Exception:
                continue  # a failing point: the per-point loop retries it
            try:
                # Warm path first: when the memo holds this key's shared
                # pass, or every point has a digest-matching tier, the
                # group prices without ever decoding the trace columns.
                priced = replay_sweep_cached(key, group)
                if priced is None:
                    # A registered or spilled trace: decoded (not kept),
                    # its pass memoized, then dropped before the tiers.
                    priced = replay_sweep_stored(key, group)
                if priced is not None:
                    labels = ["replayed"] * len(idxs)
                else:
                    # One kernel run records the trace and prices the
                    # group; singletons (e.g. one VL point) included,
                    # so every re-run — and every other axis sharing
                    # the key — replays.
                    priced = capture_sweep(
                        lambda sim: net._emit_trace(sim, policy, n_layers, True),
                        group,
                        key=key,
                        meta=net._trace_meta(policy, n_layers),
                    )
                    labels = ["captured"] + ["replayed"] * (len(idxs) - 1)
            except Exception as exc:
                if use_trace is True:
                    raise  # replay was demanded: a pricing bug must surface
                warnings.warn(
                    f"replay group {key} degraded to per-point simulation: "
                    f"{type(exc).__name__}: {exc}",
                    ReplayDegradedWarning,
                    stacklevel=2,
                )
                continue  # degrade the group to the per-point loop below
            if priced is None:
                continue  # non-uniform group: per-point fallback below
            for j, i in enumerate(idxs):
                stats[i] = priced[j]
                sources[i] = labels[j]
                if ckeys[i] is not None:
                    simcache.store(ckeys[i], priced[j])
                if on_point is not None:
                    on_point(indices[i], priced[j], labels[j])

    for i in pending:
        if stats[i] is None:
            gidx = indices[i]

            def run_point(i=i, gidx=gidx):
                faults.maybe_fault("worker.point", index=gidx)
                return net.simulate(
                    machines[i],
                    policy,
                    n_layers=n_layers,
                    use_cache=False,
                    use_trace=False,
                )

            try:
                stats[i], _ = call_with_retries(run_point, retry, f"pt{gidx}")
            except Exception as exc:
                failure = PointFailure(
                    index=gidx,
                    error=str(exc),
                    exc_type=type(exc).__name__,
                    attempts=retry.max_retries + 1,
                )
                stats[i] = failure
                sources[i] = "failed"
                if on_failure is not None:
                    on_failure(failure)
                budget.record(failure, exc)  # raises in fail-fast mode
                continue
            if ckeys[i] is not None:
                simcache.store(ckeys[i], stats[i])
            if on_point is not None:
                on_point(gidx, stats[i], sources[i])
    return stats, sources


def sweep(
    net: Network,
    axis_name: str,
    values: Iterable,
    machine_for: Callable[[object], MachineConfig],
    policy: Optional[KernelPolicy] = None,
    n_layers: Optional[int] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    use_trace: Optional[bool] = None,
    resume: bool = False,
    retry: Optional[RetryPolicy] = None,
    max_failures: Optional[int] = None,
    prune: Optional[int] = None,
    heartbeat: Optional[Callable[[], None]] = None,
) -> SweepResult:
    """Generic one-axis sweep: build a machine per value and simulate.

    ``jobs`` selects parallel execution over design points: ``None``
    consults the ``REPRO_JOBS`` environment variable (default serial),
    0 or negative means all cores.  Parallel runs return results in the
    same order, with statistics identical to the serial path; if the
    inputs cannot be shipped to workers the sweep silently runs
    serially.  ``use_cache`` opts into the persistent result cache
    (see :mod:`repro.core.simcache`).

    ``use_trace`` controls the capture-once/replay-many engine
    (:mod:`repro.core.tracecache`): points whose kernel event stream is
    identical — e.g. every point of an L2-size or DRAM sweep — run the
    kernels once and are priced from the shared recorded trace, with
    bitwise-identical statistics.  ``None`` (the default) enables it
    for sweeps unless ``REPRO_TRACE`` says otherwise; each point's
    provenance lands in ``SweepResult.sources``.

    Fault tolerance (:mod:`repro.core.resilience`): with ``resume=True``
    every completed point is checkpointed to a journal under
    ``.simcache/journal/``, an interrupted sweep picks up exactly where
    it left off on the next ``resume=True`` call (restored points get
    source ``"journal"``; the re-run is bitwise identical to an
    uninterrupted sweep), and a finished sweep re-runs for free.
    *retry* configures per-point supervision (bounded retries with
    exponential backoff and jitter, per-point timeout, dead-worker
    recovery in parallel mode); *max_failures* overrides the policy's
    failure budget — 0 (default) fails fast like the classic engine,
    ``N > 0`` degrades up to N permanently failing points to
    :class:`PointFailure` cells (source ``"failed"``) before a
    :class:`~repro.core.resilience.SweepError` aborts the sweep.

    Model-guided pruning: ``prune=K`` ranks every point with the static
    cost model (:mod:`repro.analysis.predict` over the point's recorded
    trace) and simulates only the ``K`` most promising ones; the rest
    get the model's predicted statistics with source
    ``"pruned-by-model"`` (their ``stats`` cells are estimates, not
    simulations — check ``SweepResult.sources`` before trusting a
    pruned cell).  Points restored from a resume journal are never
    re-pruned.

    *heartbeat* (used by the durable job scheduler,
    :mod:`repro.service.scheduler`) is a zero-argument callable invoked
    as each point settles — and on every supervisor tick in parallel
    mode — so a job owner can renew its lease and observe cancellation
    while a long sweep runs; an exception it raises aborts the sweep
    after the journal has checkpointed every completed point.

    With ``resume=True``, a grid whose journal was compacted into a
    verified sealed record (:func:`repro.core.resilience.seal_journal`)
    is answered entirely from that record — zero simulations, source
    ``"sealed"``, statistics bitwise-identical to the original run.
    """
    if policy is None:
        policy = KernelPolicy()
    if prune is not None and prune < 1:
        raise ValueError(f"prune must be a positive point count, got {prune}")
    values = list(values)
    machines = [machine_for(v) for v in values]
    retry = retry if retry is not None else RetryPolicy.from_env()
    if max_failures is not None:
        retry = replace(retry, max_failures=max_failures)
    budget = FailureBudget(retry.max_failures)
    n = len(machines)

    journal: Optional[Journal] = None
    stats_list: List[Optional[SimStats]] = [None] * n
    sources = ["direct"] * n
    pending = list(range(n))
    if resume:
        skey = sweep_key(net, axis_name, values, machines, policy, n_layers)
        sealed = load_sealed(skey, n)
        if sealed is not None:
            return SweepResult(
                axis_name=axis_name,
                axis=values,
                stats=[stats_from_payload(p) for p in sealed["points"]],
                sources=["sealed"] * n,
            )
        journal = Journal.open(
            skey, n, meta={"axis_name": axis_name, "net": net.name}
        )
        for i, (stats, _src) in journal.completed.items():
            stats_list[i] = stats
            sources[i] = "journal"
        pending = journal.pending()

    on_point = journal.record_point if journal is not None else None
    on_failure = journal.record_failure if journal is not None else None
    if heartbeat is not None:
        heartbeat()  # observe a pre-existing cancel before any work

        def on_point(i, stats, src, _chain=on_point):
            if _chain is not None:
                _chain(i, stats, src)
            heartbeat()

    try:
        if prune is not None and len(pending) > prune:
            from ..analysis.predict import (
                predict_cycles,
                predicted_stats,
                summarize_trace,
            )
            from . import tracecache

            summaries: Dict = {}  # (trace id, line geometry) -> TraceSummary
            ranked = []
            for i in pending:
                m = machines[i]
                trace, _ = tracecache.get_or_capture(net, m, policy, n_layers)
                skey = (id(trace), m.l2.line_bytes, m.l1.line_bytes)
                if skey not in summaries:
                    summaries[skey] = summarize_trace(trace, m)
                ranked.append((predict_cycles(summaries[skey], m), i))
            ranked.sort(key=lambda pi: pi[0].cycles)
            for pred, i in ranked[prune:]:
                stats_list[i] = predicted_stats(pred)
                sources[i] = "pruned-by-model"
                if on_point is not None:
                    on_point(i, stats_list[i], sources[i])
            pending = sorted(i for _, i in ranked[:prune])

        if pending:
            sub_machines = [machines[i] for i in pending]
            out = None
            n_jobs = resolve_jobs(jobs)
            if n_jobs > 1:
                out = simulate_points(
                    net, sub_machines, policy, n_layers, n_jobs, use_cache,
                    use_trace, indices=pending, retry=retry, budget=budget,
                    on_point=on_point, on_failure=on_failure,
                    on_tick=heartbeat,
                )
            if out is None:
                out = _simulate_group(
                    net, sub_machines, policy, n_layers, use_cache, use_trace,
                    indices=pending, retry=retry, budget=budget,
                    on_point=on_point, on_failure=on_failure,
                )
            sub_stats, sub_sources = out
            for j, i in enumerate(pending):
                stats_list[i] = sub_stats[j]
                sources[i] = sub_sources[j]
        if journal is not None and all(
            not isinstance(s, PointFailure) and s is not None for s in stats_list
        ):
            journal.mark_done()
    finally:
        if journal is not None:
            journal.close()
    return SweepResult(
        axis_name=axis_name, axis=values, stats=stats_list, sources=sources
    )


def sweep_vector_lengths(
    net: Network,
    vlens: Sequence[int],
    base_machine: Callable[[int], MachineConfig],
    policy: Optional[KernelPolicy] = None,
    n_layers: Optional[int] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    use_trace: Optional[bool] = None,
    resume: bool = False,
    retry=None,
    max_failures: Optional[int] = None,
    prune: Optional[int] = None,
) -> SweepResult:
    """Fig. 6 / Fig. 8 axis: vary the hardware vector length.

    ``base_machine`` maps a vector length in bits to a machine config
    (e.g. ``lambda v: rvv_gem5(vlen_bits=v, lanes=8, l2_mb=1)``).

    A VL change alters the event stream itself (kernels tile on it),
    so each point records **one capture per VL** — but that capture
    then serves *every* pricing axis and figure at that VL, and its
    compiled tiers persist (``.rvp``, see docs/TRACE_REPLAY.md
    "Persistent compiled passes"): a warm re-run of this sweep replays
    every point from its stored tier without decoding a single trace
    column.
    """
    if policy is None:
        policy = KernelPolicy()
    return sweep(
        net, "vlen_bits", vlens, base_machine, policy, n_layers, jobs,
        use_cache, use_trace, resume=resume, retry=retry,
        max_failures=max_failures, prune=prune,
    )


def sweep_cache_sizes(
    net: Network,
    l2_mbs: Sequence[int],
    base_machine: Callable[[int], MachineConfig],
    policy: Optional[KernelPolicy] = None,
    n_layers: Optional[int] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    use_trace: Optional[bool] = None,
    resume: bool = False,
    retry=None,
    max_failures: Optional[int] = None,
    prune: Optional[int] = None,
) -> SweepResult:
    """Fig. 7 / Figs. 8-10 axis: vary the L2 capacity (1-256 MB).

    The prime beneficiary of trace replay: every point of an L2 sweep
    shares one kernel event stream, so the kernels run exactly once.
    """
    if policy is None:
        policy = KernelPolicy()
    return sweep(
        net, "l2_mb", l2_mbs, base_machine, policy, n_layers, jobs,
        use_cache, use_trace, resume=resume, retry=retry,
        max_failures=max_failures, prune=prune,
    )


def sweep_lanes(
    net: Network,
    lanes: Sequence[int],
    base_machine: Callable[[int], MachineConfig],
    policy: Optional[KernelPolicy] = None,
    n_layers: Optional[int] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    use_trace: Optional[bool] = None,
    resume: bool = False,
    retry=None,
    max_failures: Optional[int] = None,
    prune: Optional[int] = None,
) -> SweepResult:
    """Section VI-B(c) axis: vary the number of vector lanes (2-8).

    Lane count changes pricing arithmetic, not the event stream, so the
    points share a trace key and form a ``"vpu"``-mode replay group
    (:func:`repro.machine.replay.group_mode`): the kernels run once and
    every lane point is priced from the shared capture with deferred
    VPU pricing classes, bitwise identical to per-point simulation
    (see docs/TRACE_REPLAY.md).
    """
    if policy is None:
        policy = KernelPolicy()
    return sweep(
        net, "lanes", lanes, base_machine, policy, n_layers, jobs,
        use_cache, use_trace, resume=resume, retry=retry,
        max_failures=max_failures, prune=prune,
    )
