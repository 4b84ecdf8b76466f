"""Supervising scheduler: run durable jobs to completion, survive death.

This module turns a JSON-serializable *sweep spec* (the dict stored in
the job record — network name, machine family, axis, values, kernel
policy) into a supervised run of :func:`repro.core.codesign.sweep` with
``resume=True``:

* **Lease ownership.**  :func:`submit_and_run` registers the job (or
  attaches to an existing record — the job id is content-derived, so
  identical grids collide by construction), takes the job lease, and
  renews it from the sweep's heartbeat hook — per settled point in
  serial mode, per supervisor tick in parallel mode — so a scheduler
  that stops heartbeating for a lease TTL (or whose pid dies on this
  host) is declared dead and its job adopted by the next submitter.

* **Checkpointing.**  Progress goes through the PR-5 sweep journal:
  every completed point is fsync'd before the next starts, so a
  SIGKILL at *any* moment loses at most the in-flight point, and the
  adopter resumes with bitwise-identical statistics.

* **Dedup.**  A second submission of the same grid while the first is
  running does not simulate: with ``wait=False`` it reports the live
  state and returns; with ``wait=True`` it polls until the owner
  finishes (or dies — then adopts).  A finished grid answers from the
  sealed record with zero simulations.

* **Sealing.**  On success the journal is compacted into a verified
  sealed record (:func:`repro.core.resilience.seal_journal`).  Sealing
  is best-effort: if it fails (or the process dies mid-compaction) the
  journal remains authoritative and ``repro jobs gc`` finishes the
  write → verify → unlink protocol later.

* **Cancellation.**  The heartbeat also observes the durable cancel
  marker; a running owner raises :class:`JobCancelled`, records the
  terminal state, and leaves the journal for a later resubmission.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.codesign import SweepResult, sweep
from ..core.resilience import RetryPolicy, seal_journal, sweep_key
from . import jobs as jobstore

__all__ = [
    "JobCancelled",
    "JobOutcome",
    "Heartbeat",
    "resolve_spec",
    "spec_from_args",
    "spec_key",
    "submit_and_run",
]

#: Poll period while waiting on another owner's live job.
_WAIT_POLL_S = 0.05

#: The machine families each sweep axis can build: ``sve_gem5`` takes
#: no lane count, and the A64FX is one fixed silicon point.
_SWEEP_FAMILIES = {"vlen": ("rvv", "sve"), "cache": ("rvv", "sve"), "lanes": ("rvv",)}


class JobCancelled(RuntimeError):
    """Raised inside a job run when its durable cancel marker appears."""


@dataclass
class JobOutcome:
    """What :func:`submit_and_run` did for one submission."""

    job_id: str
    state: str
    attached: bool = False  # an identical job already existed
    adopted: bool = False  # we took over an orphaned lease
    sealed: bool = False  # answered from / compacted into a sealed record
    result: Optional[SweepResult] = None
    error: str = ""
    spec: Dict = field(default_factory=dict)


def spec_from_args(args) -> Dict:
    """Canonical sweep spec from parsed ``repro sweep`` or ``repro
    submit`` CLI arguments."""
    return {
        "net": args.net,
        "machine": args.machine,
        "vlen": int(args.vlen),
        "lanes": int(args.lanes),
        "l2_mb": int(args.l2_mb),
        "gemm": args.gemm,
        "winograd": args.winograd,
        "layers": args.layers,
        "axis": args.axis,
        "values": list(args.values) if args.values else None,
    }


def resolve_spec(spec: Dict) -> Tuple[object, object, str, List, Callable]:
    """Rebuild ``(net, policy, axis_name, values, factory)`` from a spec.

    The one axis resolution of ``repro sweep`` and ``repro submit``
    (default grids, the SVE vector-length clamp), so a sweep run from the
    command line, a job submitted there and one resubmitted from its
    stored record land on the same sweep key — that identity is what
    makes job ids durable.  Raises ``ValueError`` for an unknown network
    or axis, and for a machine family the axis cannot build
    (``_SWEEP_FAMILIES``).
    """
    from ..machine import rvv_gem5, sve_gem5
    from ..nets import KernelPolicy, vgg16, yolov3, yolov3_tiny

    nets = {"yolov3": yolov3, "yolov3-tiny": yolov3_tiny, "vgg16": vgg16}
    net_name = spec.get("net", "yolov3")
    if net_name not in nets:
        raise ValueError(f"unknown network {net_name!r} in job spec")
    net = nets[net_name]()
    policy = KernelPolicy(
        gemm=spec.get("gemm", "3loop"), winograd=spec.get("winograd", "off")
    )
    machine = spec.get("machine", "rvv")
    vlen = int(spec.get("vlen", 512))
    lanes = int(spec.get("lanes", 8))
    l2_mb = int(spec.get("l2_mb", 1))
    axis = spec.get("axis", "vlen")
    values = spec.get("values")
    if axis not in _SWEEP_FAMILIES:
        raise ValueError(f"unknown sweep axis {axis!r} in job spec")
    if machine not in _SWEEP_FAMILIES[axis]:
        raise ValueError(
            f"cannot sweep machine {machine!r} along axis {axis!r}; "
            f"{axis} sweeps build {' and '.join(_SWEEP_FAMILIES[axis])} machines"
        )

    if axis == "vlen":
        values = list(values or [512, 1024, 2048, 4096, 8192, 16384])
        if machine == "sve":
            values = [v for v in values if v <= 2048]
            factory = lambda v: sve_gem5(vlen_bits=v, l2_mb=l2_mb)  # noqa: E731
        else:
            factory = lambda v: rvv_gem5(  # noqa: E731
                vlen_bits=v, lanes=lanes, l2_mb=l2_mb
            )
        return net, policy, "vlen_bits", values, factory
    if axis == "cache":
        values = list(values or [1, 8, 64, 256])
        if machine == "sve":
            factory = lambda mb: sve_gem5(  # noqa: E731
                vlen_bits=min(vlen, 2048), l2_mb=mb
            )
        else:
            factory = lambda mb: rvv_gem5(  # noqa: E731
                vlen_bits=vlen, lanes=lanes, l2_mb=mb
            )
        return net, policy, "l2_mb", values, factory
    values = list(values or [2, 4, 8])
    factory = lambda l: rvv_gem5(  # noqa: E731
        vlen_bits=vlen, lanes=l, l2_mb=l2_mb
    )
    return net, policy, "lanes", values, factory


def spec_key(spec: Dict) -> Tuple[str, int]:
    """Content id of a spec: ``(sweep_key, n_points)``."""
    net, policy, axis_name, values, factory = resolve_spec(spec)
    machines = [factory(v) for v in values]
    key = sweep_key(net, axis_name, values, machines, policy, spec.get("layers"))
    return key, len(values)


class Heartbeat:
    """Lease renewal + cancel observation, throttled to the knob period.

    Called from the sweep as each point settles (serial) and on every
    supervisor tick (parallel).  The cancel check runs on *every* call
    — it is one ``Path.exists`` — while the lease write is rate-limited
    to ``REPRO_HEARTBEAT`` seconds.
    """

    def __init__(self, lease: jobstore.Lease):
        self.lease = lease
        self.period = jobstore.heartbeat_period()
        self._last = float("-inf")

    def __call__(self) -> None:
        if jobstore.cancel_requested(self.lease.job_id):
            raise JobCancelled(f"job {self.lease.job_id} cancelled")
        now = time.monotonic()
        if now - self._last >= self.period:
            self.lease.renew()
            self._last = now


def _run_owned(
    lease: jobstore.Lease,
    spec: Dict,
    skey: str,
    n_points: int,
    jobs: Optional[int],
    retry: Optional[RetryPolicy],
    max_failures: Optional[int],
) -> Tuple[str, Optional[SweepResult], bool, str]:
    """Run the sweep under a held lease; returns
    ``(state, result, sealed, error)`` with the lease released and the
    terminal state recorded."""
    job_id = lease.job_id
    sealed = False
    try:
        net, policy, axis_name, values, factory = resolve_spec(spec)
        jobstore.record_state(job_id, "running", owner=lease.token)
        result = sweep(
            net, axis_name, values, factory, policy, spec.get("layers"),
            jobs=jobs, resume=True, retry=retry, max_failures=max_failures,
            heartbeat=Heartbeat(lease),
        )
        if result.ok and "failed" not in result.sources:
            # Compaction is best-effort: a failure here leaves the
            # journal authoritative, and gc finishes the seal later.
            try:
                sealed = seal_journal(
                    skey, n_points,
                    meta={"job_id": job_id, "net": spec.get("net", "")},
                ) is not None
            except Exception:
                sealed = False
            jobstore.record_state(job_id, "done", owner=lease.token)
            return "done", result, sealed, ""
        jobstore.record_state(
            job_id, "failed", owner=lease.token,
            error="; ".join(
                f"pt{f.index}: {f.exc_type}: {f.error}" for f in result.failures()
            ),
        )
        return "failed", result, False, "sweep has failed points"
    except JobCancelled:
        jobstore.record_state(job_id, "cancelled", owner=lease.token)
        jobstore.clear_cancel(job_id)
        return "cancelled", None, False, "cancelled by request"
    except Exception as exc:  # noqa: BLE001 - terminal state must be durable
        jobstore.record_state(
            job_id, "failed", owner=lease.token,
            error=f"{type(exc).__name__}: {exc}",
        )
        return "failed", None, False, f"{type(exc).__name__}: {exc}"
    finally:
        lease.release()


def submit_and_run(
    spec: Dict,
    wait: bool = True,
    jobs: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    max_failures: Optional[int] = None,
    wait_timeout_s: Optional[float] = None,
) -> JobOutcome:
    """Submit *spec* as a durable job and (by default) drive it to a
    terminal state.

    The full dedup/adoption decision tree, in order:

    1. register or attach to the job record (content-derived id);
    2. a verified **sealed record** answers immediately — zero
       simulations, ``sealed=True``;
    3. a **live lease** means someone else is running it: attach
       (``wait=False`` returns the live state; ``wait=True`` polls for
       their result, adopting if their lease goes stale);
    4. the ``REPRO_MAX_JOBS`` gate leaves the job ``queued`` when the
       store already has that many live leases (``wait=True`` polls
       for a slot);
    5. otherwise take the lease (adopting any stale one) and run the
       sweep with journal checkpointing, heartbeats, and sealing.
    """
    skey, n_points = spec_key(spec)
    record, created = jobstore.submit(skey, n_points, spec)
    job_id = record.job_id
    outcome = JobOutcome(job_id=job_id, state=record.state,
                         attached=not created, spec=dict(spec))

    deadline = (
        time.monotonic() + wait_timeout_s if wait_timeout_s is not None else None
    )
    while True:
        # Sealed answer first: even a brand-new record for a previously
        # sealed grid (e.g. after a record wipe) responds warm.
        warm = _sealed_result(spec, skey, n_points)
        if warm is not None:
            if record is not None and record.state != "done":
                jobstore.record_state(job_id, "done", note="sealed record")
            outcome.state, outcome.result, outcome.sealed = "done", warm, True
            return outcome

        state, _doc = jobstore.lease_state(job_id)
        if state == "live":
            record = jobstore.load(job_id)
            outcome.state = record.state if record else "running"
            outcome.attached = True
            if not wait:
                return outcome
            if _expired(deadline):
                outcome.error = "timed out waiting for the live owner"
                return outcome
            time.sleep(_WAIT_POLL_S)
            continue

        cap = jobstore.max_jobs()
        if cap > 0 and jobstore.live_lease_count(exclude=job_id) >= cap:
            outcome.state = "queued"
            if not wait:
                return outcome
            if _expired(deadline):
                outcome.error = "timed out waiting for a job slot"
                return outcome
            time.sleep(_WAIT_POLL_S)
            continue

        lease = jobstore.acquire(job_id)
        if lease is None:
            continue  # lost an acquisition race; re-evaluate
        outcome.adopted = lease.adopted
        outcome.state, outcome.result, outcome.sealed, outcome.error = _run_owned(
            lease, spec, skey, n_points, jobs, retry, max_failures
        )
        return outcome


def _sealed_result(spec: Dict, skey: str, n_points: int) -> Optional[SweepResult]:
    """The grid's sealed answer, if a verified record exists."""
    from ..core.resilience import load_sealed

    if load_sealed(skey, n_points) is None:
        return None
    net, policy, axis_name, values, factory = resolve_spec(spec)
    # sweep(resume=True) takes the sealed warm path: zero simulations.
    return sweep(
        net, axis_name, values, factory, policy, spec.get("layers"), resume=True
    )


def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() >= deadline
