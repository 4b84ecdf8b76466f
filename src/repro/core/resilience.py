"""Fault tolerance for long co-design sweeps.

A production sweep over the paper's VL × lanes × L2-size grids runs for
hours; this module makes that survivable.  Four cooperating pieces:

* **Sweep journal** (:class:`Journal`) — an append-only, checksummed
  JSONL file under ``.simcache/journal/`` recording each design point's
  :class:`~repro.machine.simulator.SimStats` as it completes.  An
  interrupted ``sweep(..., resume=True)`` (CLI ``repro sweep --resume``)
  reloads completed points and simulates only the remainder; because
  JSON float round-tripping is exact, the resumed result is bitwise
  identical to an uninterrupted run.

* **Retry policy** (:class:`RetryPolicy`) — bounded retries with
  exponential backoff and deterministic jitter, plus an optional
  per-point timeout used by the parallel supervisor to reclaim hung or
  dead workers.

* **Failure budget** (:class:`FailureBudget`, :class:`PointFailure`,
  :class:`SweepError`) — with ``max_failures > 0`` a design point that
  keeps failing degrades to a structured :class:`PointFailure` cell in
  the :class:`~repro.core.codesign.SweepResult` instead of killing the
  sweep; the default (0) preserves fail-fast semantics.

* **Cache quarantine** (:func:`quarantine`) — corrupt, truncated, or
  version-mismatched simcache entries and trace spills are moved to
  ``.simcache/quarantine/`` (with a ``.reason.json`` sidecar) and
  transparently recomputed; ``repro analyze`` surfaces leftovers via
  the ``cache/corrupt-entry`` and ``sweep/orphaned-journal`` rules.

:func:`atomic_replace` is the shared temp-file-plus-rename writer both
caches use, so an interrupt mid-write can never publish a partial
entry and never leaks the temp file (short of SIGKILL, which the next
``clear()`` sweeps up).

See docs/RESILIENCE.md for the journal format and the fault matrix.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..machine.simulator import SimStats
from ..testing import faults
from . import knobs

__all__ = [
    "JOURNAL_VERSION",
    "SEALED_VERSION",
    "FailureBudget",
    "Journal",
    "PointFailure",
    "RetryPolicy",
    "SweepError",
    "atomic_replace",
    "call_with_retries",
    "finish_seal",
    "journal_dir",
    "journal_path",
    "list_journals",
    "list_quarantined",
    "list_sealed",
    "load_sealed",
    "payload_digest",
    "quarantine",
    "quarantine_dir",
    "seal_journal",
    "sealed_path",
    "stats_from_payload",
    "stats_payload",
    "sweep_key",
]

#: Bump when the journal line format changes; older journals are then
#: quarantined and the sweep restarts from scratch.
JOURNAL_VERSION = 1

#: Bump when the sealed-record format changes; older sealed records are
#: then quarantined and the live journal (or a re-run) takes over.
SEALED_VERSION = 1

_ENV_RETRIES = "REPRO_RETRIES"
_ENV_TIMEOUT = "REPRO_POINT_TIMEOUT"
_ENV_BACKOFF = "REPRO_BACKOFF"
_ENV_MAX_FAILURES = "REPRO_MAX_FAILURES"


def _cache_dir() -> str:
    from .simcache import cache_dir  # deferred: simcache imports this module

    return cache_dir()


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------

def atomic_replace(path: str, write: Callable[[str], None], suffix: str = ".tmp") -> None:
    """Write *path* via ``write(tmp)`` + :meth:`pathlib.Path.replace`.

    Readers never observe a partial file, and the temp file is removed
    on any failure — including :class:`KeyboardInterrupt` mid-write,
    which used to leak partial ``.simcache/`` entries from interrupted
    sweeps.  *suffix* is the temp file's extension.
    """
    directory = Path(path).parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=suffix)
    os.close(fd)
    try:
        write(tmp)
        Path(tmp).replace(path)
    finally:
        with suppress(OSError):
            Path(tmp).unlink()  # no-op when the replace happened


# ----------------------------------------------------------------------
# SimStats (de)serialization with content digests
# ----------------------------------------------------------------------

def stats_payload(stats: SimStats) -> Dict:
    """JSON-ready payload for *stats* (exact float round-trip)."""
    return {
        "fields": {name: getattr(stats, name) for name in SimStats.FIELDS},
        "kernel_cycles": dict(stats.kernel_cycles),
    }


def stats_from_payload(payload: Dict) -> SimStats:
    """Rebuild a :class:`SimStats` from :func:`stats_payload` output."""
    fields = payload["fields"]
    stats = SimStats(**{name: float(fields[name]) for name in SimStats.FIELDS})
    stats.kernel_cycles = {
        str(k): float(v) for k, v in payload["kernel_cycles"].items()
    }
    return stats


def payload_digest(payload: Dict) -> str:
    """sha256 over the canonical JSON encoding of *payload*."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------

def quarantine_dir() -> str:
    """Directory corrupt cache files are moved to (created lazily)."""
    return str(Path(_cache_dir()) / "quarantine")


def quarantine(path: str, reason: str) -> Optional[str]:
    """Move *path* into the quarantine directory; returns the new path.

    A ``<name>.reason.json`` sidecar records why.  Best-effort: when
    the move itself fails the offending file is deleted instead, so a
    bad entry can never be served twice.  Returns ``None`` when there
    was nothing to move.
    """
    source = Path(path)
    if not source.exists():
        return None
    directory = Path(quarantine_dir())
    tag = hashlib.sha256(path.encode("utf-8")).hexdigest()[:8]
    dest = str(directory / f"{tag}-{source.name}")
    try:
        directory.mkdir(parents=True, exist_ok=True)
        source.replace(dest)
    except OSError:
        with suppress(OSError):
            source.unlink()
        return None
    sidecar = {"path": path, "reason": reason, "when": time.time()}

    def write(tmp: str) -> None:
        with Path(tmp).open("w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, sort_keys=True)

    with suppress(OSError, TypeError, ValueError):
        atomic_replace(dest + ".reason.json", write)
    return dest


def list_quarantined() -> List[Dict]:
    """One dict per quarantined file (path, reason, when)."""
    directory = Path(quarantine_dir())
    try:
        entries = sorted(directory.iterdir())
    except OSError:
        return []
    out = []
    for entry in entries:
        if entry.name.endswith(".reason.json"):
            continue
        info = {"file": str(entry), "reason": "", "when": 0.0}
        with suppress(OSError, ValueError):
            sidecar = entry.with_name(entry.name + ".reason.json")
            side = json.loads(sidecar.read_text(encoding="utf-8"))
            info["reason"] = str(side.get("reason", ""))
            info["when"] = float(side.get("when", 0.0))
        out.append(info)
    return out


# ----------------------------------------------------------------------
# Failures, retries, budgets
# ----------------------------------------------------------------------

class PointFailure:
    """Structured error record standing in for one design point's stats.

    Quacks enough like :class:`SimStats` (NaN cycles and rates, empty
    ``kernel_cycles``) for :class:`~repro.core.codesign.SweepResult`
    reporting to keep working on a partially failed sweep.
    """

    __slots__ = ("index", "error", "exc_type", "attempts")

    def __init__(self, index: int, error: str, exc_type: str = "Exception",
                 attempts: int = 1):
        self.index = index
        self.error = error
        self.exc_type = exc_type
        self.attempts = attempts

    ok = False
    cycles = float("nan")
    l2_miss_rate = float("nan")
    avg_vlen_elems = float("nan")

    @property
    def kernel_cycles(self) -> Dict[str, float]:
        return {}

    def __repr__(self) -> str:
        return (
            f"PointFailure(index={self.index}, exc_type={self.exc_type!r}, "
            f"attempts={self.attempts}, error={self.error!r})"
        )


class SweepError(RuntimeError):
    """Raised when a sweep exceeds its failure budget.

    Completed points are already journaled (when journaling is on), so
    the sweep is resumable despite the raise.
    """

    def __init__(self, failures: List[PointFailure]):
        self.failures = list(failures)
        detail = "; ".join(
            f"#{f.index}: {f.exc_type}: {f.error}" for f in self.failures[:4]
        )
        more = "" if len(self.failures) <= 4 else f" (+{len(self.failures) - 4} more)"
        super().__init__(
            f"{len(self.failures)} design point(s) failed permanently: "
            f"{detail}{more}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Per-point supervision knobs for :func:`repro.core.codesign.sweep`.

    ``max_retries`` extra attempts follow a failed one, separated by
    ``backoff_s * factor**attempt`` (capped at ``max_backoff_s``) plus
    deterministic jitter.  ``timeout_s`` is the per-task deadline the
    parallel supervisor enforces (``None`` = no deadline; dead workers
    are still detected by liveness, but a *hung* worker then blocks its
    point forever).  ``max_failures`` is the sweep-wide budget of
    points allowed to fail permanently: 0 (default) means fail fast.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    factor: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.25
    timeout_s: Optional[float] = None
    max_failures: int = 0

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Defaults, overridden by ``REPRO_RETRIES`` / ``REPRO_BACKOFF``
        / ``REPRO_POINT_TIMEOUT`` / ``REPRO_MAX_FAILURES``."""
        timeout = knobs.get_float(_ENV_TIMEOUT, 0.0)
        return cls(
            max_retries=knobs.get_int(_ENV_RETRIES, 2),
            backoff_s=knobs.get_float(_ENV_BACKOFF, 0.05),
            timeout_s=timeout if timeout > 0 else None,
            max_failures=knobs.get_int(_ENV_MAX_FAILURES, 0),
        )

    def delay(self, attempt: int, seed: str) -> float:
        """Backoff before retry *attempt* (1-based), jittered.

        The jitter is a deterministic function of ``(seed, attempt)``
        so sweeps — and their tests — are reproducible, while distinct
        points still desynchronize instead of retrying in lockstep.
        """
        base = min(self.backoff_s * self.factor ** (attempt - 1), self.max_backoff_s)
        h = hashlib.sha256(f"{seed}:{attempt}".encode("utf-8")).digest()
        frac = int.from_bytes(h[:4], "big") / 2**32  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * frac - 1.0))


def call_with_retries(fn: Callable[[], SimStats], retry: RetryPolicy, seed: str):
    """Run *fn*, retrying :class:`Exception` per *retry*; re-raises the
    last error once the budget is exhausted.  Returns ``(result,
    attempts)``.  ``KeyboardInterrupt``/``SystemExit`` never retry."""
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn(), attempt
        except Exception:
            if attempt > retry.max_retries:
                raise
            time.sleep(retry.delay(attempt, seed))


class FailureBudget:
    """Counts permanent point failures against ``max_failures``.

    :meth:`record` re-raises the point's original exception in
    fail-fast mode (budget 0, preserving historical sweep semantics)
    and raises :class:`SweepError` once a positive budget overflows.
    """

    def __init__(self, max_failures: int = 0):
        self.max_failures = max_failures
        self.failures: List[PointFailure] = []

    def record(self, failure: PointFailure, exc: Optional[BaseException] = None) -> None:
        self.failures.append(failure)
        if len(self.failures) > self.max_failures:
            if self.max_failures == 0 and exc is not None:
                raise exc
            raise SweepError(self.failures)


# ----------------------------------------------------------------------
# Sweep journal
# ----------------------------------------------------------------------

def journal_dir() -> str:
    """Directory holding sweep journals (created lazily)."""
    return str(Path(_cache_dir()) / "journal")


def journal_path(key: str) -> str:
    """Live (JSONL) journal file for sweep *key*."""
    return str(Path(journal_dir()) / (key[:32] + ".jsonl"))


def sealed_path(key: str) -> str:
    """Sealed (compacted) results record for sweep *key*."""
    return str(Path(journal_dir()) / (key[:32] + ".sealed.json"))


def sweep_key(net, axis_name, values, machines, policy, n_layers) -> str:
    """Content hash identifying one sweep's full input grid.

    Same recipe as :func:`repro.core.simcache.cache_key`, extended over
    the whole axis, so a journal can never be replayed against a
    different grid, network, policy, or timing-model version.
    """
    from .simcache import MODEL_VERSION, _canon  # deferred (import cycle)

    payload = {
        "journal_version": JOURNAL_VERSION,
        "model_version": MODEL_VERSION,
        "net": {
            "name": net.name,
            "input_shape": list(net.input_shape),
            "layers": [repr(layer) for layer in net.layers],
        },
        "axis_name": axis_name,
        "values": [repr(v) for v in values],
        "machines": [_canon(m) for m in machines],
        "policy": _canon(policy),
        "n_layers": n_layers,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Journal:
    """Append-only per-sweep checkpoint file (JSONL, checksummed lines).

    Line kinds: one ``header`` (sweep identity), any number of
    ``point`` (completed design point with its exact stats payload) and
    ``failure`` records, and a final ``done`` marker.  A journal
    without ``done`` is an *orphan*: either a sweep in flight or an
    interrupted one awaiting ``--resume`` (the
    ``sweep/orphaned-journal`` analysis rule surfaces old ones).

    Corrupt, truncated, or checksum-mismatched lines are skipped — the
    affected point simply recomputes — and a header that does not match
    the requesting sweep quarantines the stale file and starts fresh.
    """

    def __init__(self, path: str, key: str, n_points: int):
        self.path = path
        self.key = key
        self.n_points = n_points
        self.completed: Dict[int, Tuple[SimStats, str]] = {}
        self.failed: Dict[int, Dict] = {}
        self.done = False
        self._fh = None

    # -- reading -------------------------------------------------------
    @classmethod
    def _read_records(cls, path: str) -> List[Dict]:
        records = []
        try:
            with Path(path).open(encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    with suppress(ValueError):
                        rec = json.loads(line)
                        if isinstance(rec, dict):
                            records.append(rec)
        except OSError:
            return []
        return records

    def _absorb(self, records: List[Dict]) -> None:
        for rec in records:
            kind = rec.get("kind")
            if kind == "point":
                with suppress(KeyError, TypeError, ValueError):
                    idx = int(rec["index"])
                    payload = rec["stats"]
                    if rec.get("sha256") != payload_digest(payload):
                        continue  # damaged line: recompute that point
                    if 0 <= idx < self.n_points:
                        self.completed[idx] = (
                            stats_from_payload(payload),
                            str(rec.get("source", "direct")),
                        )
                        self.failed.pop(idx, None)
            elif kind == "failure":
                with suppress(KeyError, TypeError, ValueError):
                    idx = int(rec["index"])
                    if 0 <= idx < self.n_points and idx not in self.completed:
                        self.failed[idx] = rec
            elif kind == "done":
                self.done = True

    @classmethod
    def open(cls, key: str, n_points: int, meta: Optional[Dict] = None) -> "Journal":
        """Open (resuming) or create the journal for *key*.

        Reads any prior run's records first, then reopens the file for
        appending — an interrupted sweep's completed points survive.
        """
        path = journal_path(key)
        journal = cls(path, key, n_points)
        records = cls._read_records(path)
        header = next((r for r in records if r.get("kind") == "header"), None)
        fresh = True
        if header is not None:
            if (
                header.get("sweep_key") == key
                and header.get("journal_version") == JOURNAL_VERSION
                and header.get("n_points") == n_points
            ):
                journal._absorb(records)
                fresh = False
            else:
                quarantine(path, "journal header mismatch (different sweep?)")
        Path(journal_dir()).mkdir(parents=True, exist_ok=True)
        # Append mode is the journal's whole point: completed points
        # accumulate across interrupted runs (fsync'd per line), so
        # this is the one sanctioned non-atomic durable write.
        journal._fh = Path(path).open("a", encoding="utf-8")  # reprolint: ignore[io/bare-write]
        if fresh:
            journal._append(
                {
                    "kind": "header",
                    "journal_version": JOURNAL_VERSION,
                    "sweep_key": key,
                    "n_points": n_points,
                    **(meta or {}),
                }
            )
        return journal

    @classmethod
    def status(cls, key: str, n_points: int) -> "Journal":
        """Read-only view of the journal for *key* (``--dry-run``);
        never creates or modifies the file."""
        path = journal_path(key)
        journal = cls(path, key, n_points)
        records = cls._read_records(path)
        header = next((r for r in records if r.get("kind") == "header"), None)
        if (
            header is not None
            and header.get("sweep_key") == key
            and header.get("journal_version") == JOURNAL_VERSION
            and header.get("n_points") == n_points
        ):
            journal._absorb(records)
        return journal

    # -- writing -------------------------------------------------------
    def _append(self, record: Dict) -> None:
        if self._fh is None:
            return
        with suppress(OSError, ValueError):
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())  # survive SIGKILL mid-sweep

    def record_point(self, index: int, stats: SimStats, source: str) -> None:
        """Checkpoint one completed design point."""
        payload = stats_payload(stats)
        self._append(
            {
                "kind": "point",
                "index": index,
                "source": source,
                "stats": payload,
                "sha256": payload_digest(payload),
            }
        )
        self.completed[index] = (stats, source)
        self.failed.pop(index, None)

    def record_failure(self, failure: PointFailure) -> None:
        """Checkpoint a permanent point failure (retried on resume)."""
        rec = {
            "kind": "failure",
            "index": failure.index,
            "error": failure.error,
            "exc_type": failure.exc_type,
            "attempts": failure.attempts,
        }
        self._append(rec)
        self.failed[failure.index] = rec

    def mark_done(self) -> None:
        self._append({"kind": "done", "n_points": self.n_points})
        self.done = True

    def close(self) -> None:
        if self._fh is not None:
            with suppress(OSError):
                self._fh.close()
            self._fh = None

    def pending(self) -> List[int]:
        """Indices still to simulate (failures are retried)."""
        return [i for i in range(self.n_points) if i not in self.completed]


# ----------------------------------------------------------------------
# Journal lifecycle: sealing (compaction) and sealed-record loading
# ----------------------------------------------------------------------

def _results_chain(points: List[Dict]) -> str:
    """Rolling sha256 chain over the per-point payload digests.

    Each link hashes the previous link plus the next point's digest, so
    the final value commits to every point *and* their order — a sealed
    record cannot be truncated, reordered, or spliced undetected.
    """
    chain = ""
    for payload in points:
        blob = (chain + payload_digest(payload)).encode("utf-8")
        chain = hashlib.sha256(blob).hexdigest()
    return chain


def load_sealed(key: str, n_points: Optional[int] = None) -> Optional[Dict]:
    """Verified sealed-record payload for sweep *key*, or ``None``.

    Verification is total: document digest, sealed/journal versions,
    sweep key, point count (when the caller knows it), and the replayed
    digest chain must all match.  Any mismatch quarantines the file —
    PR-5 semantics, a bad record is never served twice — and returns
    ``None`` so the caller falls back to the live journal or a re-run.
    """
    path = sealed_path(key)
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError:
        return None
    except ValueError:
        quarantine(path, "sealed record is not valid JSON")
        return None
    try:
        payload = doc["payload"]
        ok = (
            doc.get("sha256") == payload_digest(payload)
            and payload.get("sealed_version") == SEALED_VERSION
            and payload.get("journal_version") == JOURNAL_VERSION
            and payload.get("sweep_key") == key
            and (n_points is None or payload.get("n_points") == n_points)
            and len(payload["points"]) == payload["n_points"]
            and len(payload["sources"]) == payload["n_points"]
            and payload.get("chain") == _results_chain(payload["points"])
        )
    except (KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        quarantine(path, "sealed record failed its integrity check")
        return None
    return payload


def _sealed_matches_journal(sealed: Dict, journal: "Journal") -> bool:
    """True when *sealed* round-trips to the journal's replayed state."""
    if len(journal.completed) != sealed.get("n_points"):
        return False
    for i in range(sealed["n_points"]):
        stats, _source = journal.completed[i]
        if sealed["points"][i] != stats_payload(stats):
            return False
    return True


def finish_seal(key: str, n_points: int) -> bool:
    """Complete an interrupted compaction: verify, then drop the journal.

    Re-verifies the sealed record against the live journal's replayed
    state and unlinks the journal only on an exact match (the write →
    verify → unlink protocol's last two steps, re-runnable any number
    of times).  Returns True when no live journal remains afterwards.
    """
    live = Path(journal_path(key))
    if not live.exists():
        return True
    sealed = load_sealed(key, n_points)
    if sealed is None:
        return False
    journal = Journal.status(key, n_points)
    if not _sealed_matches_journal(sealed, journal):
        # The journal moved past the sealed snapshot (or the record is
        # subtly wrong): keep both, never destroy the source of truth.
        return False
    with suppress(OSError):
        live.unlink()
    return True


def seal_journal(key: str, n_points: int, meta: Optional[Dict] = None) -> Optional[Dict]:
    """Compact sweep *key*'s finished journal into one sealed record.

    The sealed record is a single atomic JSON document holding every
    point's exact stats payload (in index order), its provenance, a
    digest chain over the points, and a whole-document sha256.  The
    write → verify → unlink protocol makes compaction crash-safe:

    1. write the sealed record via :func:`atomic_replace`;
    2. re-load it from disk and compare against the journal's replayed
       state (bitwise payload equality);
    3. only then unlink the live journal.

    A kill between (1) and (3) — the ``journal.seal`` fault site —
    leaves a *recoverable pair*: both files exist, the sealed record is
    self-verifying, and the next resume (or ``repro jobs gc``) finishes
    the protocol.  Returns the sealed payload, or ``None`` when the
    journal is not complete (failures or pending points cannot seal).
    """
    existing = load_sealed(key, n_points)
    if existing is not None:
        finish_seal(key, n_points)
        return existing
    journal = Journal.status(key, n_points)
    if len(journal.completed) != n_points:
        return None
    points = [stats_payload(journal.completed[i][0]) for i in range(n_points)]
    sources = [journal.completed[i][1] for i in range(n_points)]
    payload = {
        "sealed_version": SEALED_VERSION,
        "journal_version": JOURNAL_VERSION,
        "sweep_key": key,
        "n_points": n_points,
        "points": points,
        "sources": sources,
        "chain": _results_chain(points),
        "meta": dict(meta or {}),
    }
    doc = {"payload": payload, "sha256": payload_digest(payload)}
    path = sealed_path(key)

    def write(tmp: str) -> None:
        with Path(tmp).open("w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)

    atomic_replace(path, write)
    faults.maybe_fault("journal.seal", key=key, path=path)
    if not finish_seal(key, n_points):
        return None  # unreadable round-trip: keep the journal authoritative
    return payload


def list_sealed() -> List[Dict]:
    """Summaries of every sealed record on disk (gc / dry-run / CLI)."""
    directory = Path(journal_dir())
    try:
        entries = sorted(directory.iterdir())
    except OSError:
        return []
    out = []
    for entry in entries:
        if not entry.name.endswith(".sealed.json"):
            continue
        info = {
            "path": str(entry),
            "sweep_key": "",
            "n_points": 0,
            "meta": {},
            "age_s": 0.0,
        }
        with suppress(OSError):
            info["age_s"] = time.time() - entry.stat().st_mtime
        with suppress(OSError, KeyError, TypeError, ValueError):
            doc = json.loads(entry.read_text(encoding="utf-8"))
            payload = doc["payload"]
            info["sweep_key"] = str(payload.get("sweep_key", ""))
            info["n_points"] = int(payload.get("n_points", 0))
            info["meta"] = dict(payload.get("meta") or {})
        out.append(info)
    return out


def list_journals() -> List[Dict]:
    """Summaries of every journal on disk (dry-run / analysis rules)."""
    directory = Path(journal_dir())
    try:
        entries = sorted(directory.iterdir())
    except OSError:
        return []
    out = []
    for entry in entries:
        if not entry.name.endswith(".jsonl"):
            continue
        path = str(entry)
        records = Journal._read_records(path)
        header = next((r for r in records if r.get("kind") == "header"), None)
        n_points = int(header.get("n_points", 0)) if header else 0
        done = any(r.get("kind") == "done" for r in records)
        n_ok = len({r.get("index") for r in records if r.get("kind") == "point"})
        n_failed = len(
            {r.get("index") for r in records if r.get("kind") == "failure"}
        )
        age = 0.0
        with suppress(OSError):
            age = time.time() - entry.stat().st_mtime
        out.append(
            {
                "path": path,
                "sweep_key": str(header.get("sweep_key", "")) if header else "",
                "n_points": n_points,
                "n_ok": n_ok,
                "n_failed": n_failed,
                "done": done,
                "age_s": age,
            }
        )
    return out
