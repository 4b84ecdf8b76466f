"""Parallel design-point evaluation with per-point supervision.

Trace replay is embarrassingly parallel across design points (each
point builds its own simulator and touches no shared state), so sweeps
fan points out over a :mod:`multiprocessing` pool.  The network is
pickled once and shipped to each worker via the pool initializer;
per-chunk tasks then carry only (picklable, frozen) machine configs,
the kernel policy, and an optional trace-registry key.

Capture-once / replay-many across processes: the parent groups points
by :func:`repro.core.tracecache.trace_key`, captures each distinct
kernel event stream once, publishes it as a shared-memory segment
(:func:`repro.core.tracecache.publish_shm`) and spills it to disk
(compressed ``.rtz`` next to ``.simcache/``) so every worker — a
separate process with its own in-memory registry — can attach/load it
once and price its chunk of points with
:func:`repro.machine.replay.replay_sweep` instead of re-running the
kernels.  Workers prefer the shared-memory tier (one decode per worker
lifetime, no disk traffic per task); those that cannot obtain the
trace at all (shared memory and spill both unavailable, or a corrupt
spill quarantined on load) silently fall back to direct per-point
simulation.

Supervision (see docs/RESILIENCE.md): instead of one blocking
``Pool.map``, the parent runs a small event loop over ``apply_async``
results.  A task that raises is retried with exponential backoff and
deterministic jitter; a multi-point chunk that fails is split into
single-point tasks so one poison point cannot take its siblings down;
a worker that dies (the pool replenishes its process automatically) or
exceeds the per-point timeout gets its in-flight work resubmitted.
Results are deterministic and journal/simcache writes are idempotent,
so a duplicated task is harmless — first completion wins.  A point
whose retry budget runs out becomes a structured
:class:`~repro.core.resilience.PointFailure` charged against the
sweep's failure budget.

Guarantees:

* **Deterministic ordering** — results are keyed by input index, so a
  parallel sweep's ``SweepResult`` is indistinguishable from the
  serial one.
* **Bitwise-identical stats** — workers run the same simulation code on
  the same inputs, and trace replay is bitwise-faithful by
  construction; no accumulation order changes.
* **Graceful fallback** — if the network or a task fails to pickle, or
  ``jobs`` resolves to 1, the caller gets ``None`` and runs serially.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..machine.config import MachineConfig
from ..machine.simulator import SimStats
from ..nets.layers import KernelPolicy
from ..testing import faults
from . import knobs
from .resilience import FailureBudget, PointFailure, RetryPolicy

__all__ = ["resolve_jobs", "simulate_points"]

#: Environment variable consulted when ``jobs`` is not given explicitly,
#: so benchmark scripts and the CLI pick up parallelism without code
#: changes: ``REPRO_JOBS=4 pytest benchmarks/...``.
JOBS_ENV = "REPRO_JOBS"

#: Seconds a suspect in-flight task is given to complete after a worker
#: death is observed before it is resubmitted.  Duplicates are safe
#: (deterministic results, idempotent writes), so this only trades a
#: little redundant work for prompt crash recovery.
_DEATH_GRACE_S = 0.2

#: Supervisor poll interval.
_POLL_S = 0.01

_worker_net = None


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count.

    ``None`` consults the ``REPRO_JOBS`` environment variable (default
    1, i.e. serial); 0 or a negative value means "all cores".
    """
    if jobs is None:
        jobs = knobs.get_int(JOBS_ENV, 1)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _init_worker(payload: bytes) -> None:
    global _worker_net
    _worker_net = pickle.loads(payload)


#: One task = one chunk of machines sharing a trace key (or a single
#: machine with ``tkey=None`` for the direct path), plus the global
#: sweep index of every point (journaling and fault injection).
_Chunk = Tuple[
    List[MachineConfig], List[int], KernelPolicy, Optional[int], Optional[bool],
    Optional[str],
]


def _run_chunk(task: _Chunk) -> Tuple[List[SimStats], List[str]]:
    machines, idxs, policy, n_layers, use_cache, tkey = task
    for i in idxs:
        faults.maybe_fault("worker.point", index=i)
    if tkey is not None:
        from . import simcache, tracecache
        from ..machine.replay import replay_sweep, replay_sweep_cached

        # Warm path first: the shared-pass memo or stored .rvp tiers
        # price the chunk without attaching or decoding the trace.
        priced = replay_sweep_cached(tkey, machines)
        if priced is None:
            trace = tracecache.get(tkey, spill=True)
            if trace is not None:
                priced = replay_sweep(trace, machines)
        if priced is not None:
            if simcache.cache_enabled(use_cache):
                for machine, stats in zip(machines, priced):
                    simcache.store(
                        simcache.cache_key(
                            _worker_net, machine, policy, n_layers, True
                        ),
                        stats,
                    )
            return priced, ["replayed"] * len(machines)
    out = [
        _worker_net.simulate(m, policy, n_layers=n_layers, use_cache=use_cache)
        for m in machines
    ]
    return out, ["direct"] * len(machines)


def _chunk_indices(idxs: List[int], n_chunks: int) -> List[List[int]]:
    """Split *idxs* into at most *n_chunks* contiguous, balanced runs."""
    n_chunks = max(1, min(n_chunks, len(idxs)))
    size, extra = divmod(len(idxs), n_chunks)
    chunks, start = [], 0
    for c in range(n_chunks):
        end = start + size + (1 if c < extra else 0)
        chunks.append(idxs[start:end])
        start = end
    return chunks


class _Submission:
    """One in-flight ``apply_async`` call for a work item."""

    __slots__ = ("ar", "at", "era", "suspected")

    def __init__(self, ar, at: float, era: int):
        self.ar = ar
        self.at = at
        self.era = era
        self.suspected = False


class _Work:
    """Supervision state for one task (a chunk or a single point)."""

    __slots__ = ("task", "attempts", "subs", "done", "next_at")

    def __init__(self, task: _Chunk):
        self.task = task
        self.attempts = 0
        self.subs: List[_Submission] = []
        self.done = False
        self.next_at = 0.0

    @property
    def idxs(self) -> List[int]:
        return self.task[1]


class _PoolWatch:
    """Tracks worker deaths across the pool's automatic replenishment."""

    def __init__(self, pool):
        self._known: set = set()
        self._dead: set = set()
        self.era = 0
        self.poll(pool)

    def poll(self, pool) -> int:
        procs = getattr(pool, "_pool", None) or []
        current = {}
        for p in procs:
            current[p.pid] = p.exitcode
        for pid, code in current.items():
            if code is not None:
                self._dead.add(pid)
        for pid in self._known - set(current):
            self._dead.add(pid)  # silently replaced by the pool
        self._known |= set(current)
        self.era = len(self._dead)
        return self.era


def _supervise(
    pool,
    works: List[_Work],
    retry: RetryPolicy,
    budget: FailureBudget,
    on_result: Callable[[_Work, List[SimStats], List[str]], None],
    on_fail: Callable[[PointFailure, Optional[BaseException]], None],
    on_tick: Optional[Callable[[], None]] = None,
) -> None:
    """Drive *works* to completion (or budget exhaustion, which raises).

    Event loop over async results: submit eligible work (respecting
    backoff), harvest completions, and convert exceptions, per-task
    timeouts, and observed worker deaths into retries — splitting
    multi-point chunks into single points first, so a poison point is
    isolated before it is finally declared a :class:`PointFailure`.

    *on_tick* fires once per loop iteration (~every ``_POLL_S``
    seconds while work is outstanding): the durable job layer's lease
    heartbeat, which must keep renewing even when a single chunk runs
    for minutes.  An exception from it aborts the supervision loop (the
    pool context manager terminates the workers).
    """
    watch = _PoolWatch(pool)
    queue: List[_Work] = list(works)

    def attempt_failed(work: _Work, exc: Optional[BaseException], reason: str) -> None:
        now = time.monotonic()
        if len(work.idxs) > 1:
            # Isolate the poison point: the chunk becomes single-point
            # tasks (keeping the trace key — the survivors still price
            # by replay, bitwise-identical to the direct path).
            work.done = True
            machines, idxs, policy, n_layers, use_cache, tkey = work.task
            for m, i in zip(machines, idxs):
                split = _Work(([m], [i], policy, n_layers, use_cache, tkey))
                split.attempts = work.attempts
                split.next_at = now + retry.delay(max(1, work.attempts), f"pt{i}")
                queue.append(split)
            return
        if work.attempts > retry.max_retries:
            work.done = True
            idx = work.idxs[0]
            failure = PointFailure(
                index=idx,
                error=str(exc) if exc is not None else reason,
                exc_type=type(exc).__name__ if exc is not None else reason,
                attempts=work.attempts,
            )
            on_fail(failure, exc)  # may raise (budget exhausted)
            return
        work.next_at = now + retry.delay(work.attempts, f"pt{work.idxs[0]}")

    while True:
        if on_tick is not None:
            on_tick()
        now = time.monotonic()
        watch.poll(pool)
        alive = [w for w in queue if not w.done]
        if not alive:
            return
        for work in alive:
            # Harvest completions / exceptions.
            for sub in list(work.subs):
                if not sub.ar.ready():
                    continue
                work.subs.remove(sub)
                try:
                    chunk_stats, chunk_sources = sub.ar.get(0)
                except Exception as exc:
                    if not work.done and not work.subs:
                        attempt_failed(work, exc, "task raised")
                    continue
                if not work.done:
                    work.done = True
                    on_result(work, chunk_stats, chunk_sources)
            if work.done:
                continue
            # Expire submissions: per-task deadline, then worker-death
            # suspicion (the lost task never completes on its own).
            for sub in list(work.subs):
                if retry.timeout_s is not None and now - sub.at > retry.timeout_s:
                    work.subs.remove(sub)
                    if not work.subs:
                        attempt_failed(work, None, "timeout")
                elif (
                    watch.era > sub.era
                    and now - sub.at > _DEATH_GRACE_S
                    and not sub.suspected
                ):
                    # The dying worker may or may not have held this
                    # task; resubmit a duplicate (kept: it may still
                    # complete) rather than wait forever.
                    sub.suspected = True
                    attempt_failed(work, None, "worker died")
            if work.done:
                continue
            # (Re)submit when idle and past the backoff deadline.
            if not any(not s.suspected for s in work.subs) and now >= work.next_at:
                if work.attempts > retry.max_retries:
                    if not work.subs:
                        attempt_failed(work, None, "retries exhausted")
                    continue
                work.attempts += 1
                ar = pool.apply_async(_run_chunk, (work.task,))
                work.subs.append(_Submission(ar, now, watch.era))
        time.sleep(_POLL_S)


def simulate_points(
    net,
    machines: Sequence[MachineConfig],
    policy: KernelPolicy,
    n_layers: Optional[int],
    jobs: int,
    use_cache: Optional[bool] = None,
    use_trace: Optional[bool] = None,
    indices: Optional[Sequence[int]] = None,
    retry: Optional[RetryPolicy] = None,
    budget: Optional[FailureBudget] = None,
    on_point: Optional[Callable[[int, SimStats, str], None]] = None,
    on_failure: Optional[Callable[[PointFailure], None]] = None,
    on_tick: Optional[Callable[[], None]] = None,
) -> Optional[Tuple[List, List[str]]]:
    """Simulate *net* on each machine in *machines* using *jobs* workers.

    Returns ``(stats, sources)`` in input order, or ``None`` when
    parallel execution is not possible (single job, single point, or
    unpicklable inputs) — the caller then falls back to the serial
    loop.  With tracing enabled (the default for sweeps), each distinct
    kernel event stream is captured once in the parent, spilled to
    disk, and replayed by the workers; a point's entry in ``sources``
    says which path priced it.

    Fault tolerance: *retry* configures per-task supervision (bounded
    retries with backoff, per-point timeout, dead-worker recovery —
    see :class:`~repro.core.resilience.RetryPolicy`); a point that
    fails permanently appears as a
    :class:`~repro.core.resilience.PointFailure` in ``stats`` with
    source ``"failed"``, subject to *budget* (fail-fast by default).
    *indices* carries each machine's global sweep index (for resumed
    sweeps operating on a pending subset); *on_point* / *on_failure*
    are invoked in the parent as results arrive, in completion order —
    the journaling hook.  *on_tick* fires in the parent on every
    supervisor poll — the job-lease heartbeat hook.
    """
    if jobs <= 1 or len(machines) <= 1:
        return None
    try:
        payload = pickle.dumps(net, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None  # graceful serial fallback, before any capture

    from . import tracecache

    machines = list(machines)
    indices = list(indices) if indices is not None else list(range(len(machines)))
    retry = retry if retry is not None else RetryPolicy.from_env()
    budget = budget if budget is not None else FailureBudget(retry.max_failures)
    # key -> positions (into machines) sharing one kernel event stream;
    # None = trace off.
    trace_groups: Dict[Optional[str], List[int]] = {}
    captured_pos = None
    if tracecache.trace_enabled(use_trace, default=True):
        from ..machine.replay import group_mode, require_group

        for pos, machine in enumerate(machines):
            key = tracecache.trace_key(net, machine, policy, n_layers, True)
            trace_groups.setdefault(key, []).append(pos)
        for key, poss in list(trace_groups.items()):
            group = [machines[p] for p in poss]
            if group_mode(group) is None:
                if use_trace is True:
                    require_group(group)  # replay was demanded: raise why not
                # Replay cannot price the group; run its points direct.
                for p in poss:
                    trace_groups.setdefault(None, []).append(p)
                del trace_groups[key]
                continue
            if tracecache.get(key, spill=True) is None:
                if len(poss) < 2:
                    # A singleton with no existing capture: one direct
                    # simulation is cheaper than capture + replay.
                    trace_groups.setdefault(None, []).append(poss[0])
                    del trace_groups[key]
                    continue
                # Capture once here; forced spill hands the stream to
                # the worker processes.  record_trace may be slower
                # than one direct simulation only for tiny nets, where
                # the whole sweep is cheap anyway.
                trace = net.record_trace(
                    machines[poss[0]], policy, n_layers=n_layers, key=key
                )
                tracecache.put(key, trace, spill=True)
                if captured_pos is None:
                    captured_pos = poss[0]
            # Shared-memory fast path: workers attach and decode once
            # per worker lifetime instead of re-reading the spill per
            # task.  Best-effort; released after the pool is done.
            tracecache.publish_shm(key)
    else:
        trace_groups[None] = list(range(len(machines)))

    tasks: List[_Chunk] = []
    task_pos: List[List[int]] = []
    for key, poss in trace_groups.items():
        if key is None:
            for p in poss:  # direct points parallelize individually
                tasks.append(
                    ([machines[p]], [indices[p]], policy, n_layers, use_cache, None)
                )
                task_pos.append([p])
        else:
            for chunk in _chunk_indices(poss, jobs):
                tasks.append(
                    (
                        [machines[p] for p in chunk],
                        [indices[p] for p in chunk],
                        policy, n_layers, use_cache, key,
                    )
                )
                task_pos.append(chunk)

    try:
        pickle.dumps(tasks, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None  # graceful serial fallback
    n_procs = min(jobs, len(tasks))

    stats: List[Optional[SimStats]] = [None] * len(machines)
    sources = ["direct"] * len(machines)
    pos_of = {g: p for p, g in enumerate(indices)}

    def on_result(work: _Work, chunk_stats, chunk_sources) -> None:
        for g, s, src in zip(work.idxs, chunk_stats, chunk_sources):
            p = pos_of[g]
            if stats[p] is not None and not isinstance(stats[p], PointFailure):
                continue  # duplicate completion: first one won
            stats[p] = s
            sources[p] = src
            if on_point is not None:
                on_point(g, s, src)

    def on_fail(failure: PointFailure, exc) -> None:
        p = pos_of[failure.index]
        stats[p] = failure
        sources[p] = "failed"
        if on_failure is not None:
            on_failure(failure)
        budget.record(failure, exc)  # raises when the budget overflows

    works = [_Work(t) for t in tasks]
    try:
        with multiprocessing.Pool(
            processes=n_procs, initializer=_init_worker, initargs=(payload,)
        ) as pool:
            _supervise(pool, works, retry, budget, on_result, on_fail, on_tick)
    except (pickle.PicklingError, AttributeError):
        return None
    finally:
        tracecache.release_shm()
    if captured_pos is not None and sources[captured_pos] == "replayed":
        sources[captured_pos] = "captured"
    return stats, sources
