"""Outside-in tracing: spans around the calls into each layer.

A *layer* is a function of the program reached through one or more
module or class attributes (its binding sites).  :meth:`Tracer.install`
replaces every binding site with a shim that records a span
``{id, parent, name, start, end, workload, phase}`` plus the layer's
counters (hits, bytes, events); :meth:`Tracer.restore` puts the original
objects back.  Nothing under ``src/`` changes: the program's callers
import these functions at call time or look them up as module globals,
so replacing the attribute is enough.  A function imported by value into
another module at import time is a second binding site and is listed as
such (``repro.service.scheduler`` binds ``sweep`` and ``seal_journal``
that way).

A binding site that no longer exists is skipped: the layer then reports
zero calls, which is what a refactor that deletes an engine should show.

Spans stay in memory and are written as JSONL by :meth:`Tracer.dump`.
A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "LAYERS", "Layer", "Tracer", "layer_metric_names", "layer_metrics",
    "merge_totals",
]


def _is_hit(result) -> int:
    return int(result is not None)


@dataclass(frozen=True)
class Layer:
    """One traced layer: metric prefix, binding sites, published metrics.

    *sites* are ``"module:attr"`` or ``"module:Class.attr"`` strings.
    *publish* names the metrics the layer reports, as suffixes of
    *name*: ``s`` (inclusive wall time), ``calls``, ``hit_ratio`` (share
    of calls whose *hit* counter was 1) and ``bytes`` (sum of the
    *nbytes* counter).
    """

    name: str
    sites: Tuple[str, ...]
    publish: Tuple[str, ...] = ("s", "calls")
    hit: Optional[Callable] = None  # (args, result) -> 0/1
    nbytes: Optional[Callable] = None  # (args, result) -> int
    events: Optional[Callable] = None  # (args, result) -> int


_REPLAY = "repro.machine.replay"
_TC = "repro.core.tracecache"

#: Every traced layer, with the end-to-end metric it should move
#: documented in README.md ("Per-layer metrics").
LAYERS: Tuple[Layer, ...] = (
    Layer("nets.emit", ("repro.nets.network:Network._emit_trace",)),
    Layer(
        "trace.record", ("repro.nets.network:Network.record_trace",),
        events=lambda a, r: r.n_events,
    ),
    Layer("trace.digest", ("repro.machine.trace:RecordedTrace.content_digest",)),
    Layer("replay.capture_sweep", (f"{_REPLAY}:capture_sweep",)),
    Layer(
        "replay.shared_pass", (f"{_REPLAY}:_shared_pass",),
        events=lambda a, r: a[0].n_events,
    ),
    Layer("replay.compile_fast", (f"{_REPLAY}:_compile_fast",)),
    Layer("replay.compile_walk", (f"{_REPLAY}:_compile_walk",)),
    Layer("replay.point_pass_vec", (f"{_REPLAY}:_point_pass_vec",)),
    Layer("replay.point_pass", (f"{_REPLAY}:_point_pass",)),
    Layer("replay.point_pass_hybrid", (f"{_REPLAY}:_point_pass_hybrid",)),
    Layer("replay.point_pass_fast", (f"{_REPLAY}:_point_pass_fast",)),
    Layer("replay.point_pass_fast2", (f"{_REPLAY}:_point_pass_fast2",)),
    Layer(
        "replay.sweep_cached", (f"{_REPLAY}:replay_sweep_cached",),
        publish=("s", "calls", "hit_ratio"), hit=lambda a, r: _is_hit(r),
    ),
    Layer(
        "tracecache.encode_trace", (f"{_TC}:encode_trace",),
        publish=("s", "calls", "bytes"), nbytes=lambda a, r: len(r),
    ),
    Layer("tracecache.decode_trace", (f"{_TC}:decode_trace",)),
    Layer(
        "tracecache.encode_pass", (f"{_TC}:encode_pass",),
        publish=("s", "calls", "bytes"), nbytes=lambda a, r: len(r),
    ),
    Layer("tracecache.decode_pass", (f"{_TC}:decode_pass",)),
    Layer(
        "tracecache.encode_vecprog", (f"{_TC}:encode_vecprog",),
        publish=("s", "calls", "bytes"), nbytes=lambda a, r: len(r),
    ),
    Layer("tracecache.decode_vecprog", (f"{_TC}:decode_vecprog",)),
    Layer(
        "tracecache.get", (f"{_TC}:get",),
        publish=("calls", "hit_ratio"), hit=lambda a, r: _is_hit(r),
    ),
    Layer(
        "tracecache.get_or_capture", (f"{_TC}:get_or_capture",),
        publish=("calls", "hit_ratio"), hit=lambda a, r: int(bool(r[1])),
    ),
    Layer(
        "tracecache.load_pass", (f"{_TC}:load_pass",),
        publish=("calls", "hit_ratio"), hit=lambda a, r: _is_hit(r),
    ),
    Layer(
        "tracecache.load_vecprog", (f"{_TC}:load_vecprog",),
        publish=("calls", "hit_ratio"), hit=lambda a, r: _is_hit(r),
    ),
    Layer(
        "resilience.record_point",
        ("repro.core.resilience:Journal.record_point",),
    ),
    Layer(
        "resilience.seal_journal",
        ("repro.core.resilience:seal_journal",
         "repro.service.scheduler:seal_journal"),
    ),
    Layer(
        "resilience.load_sealed",
        ("repro.core.resilience:load_sealed", "repro.core.codesign:load_sealed"),
    ),
    Layer("jobs.submit", ("repro.service.jobs:submit",)),
    Layer("jobs.acquire", ("repro.service.jobs:acquire",)),
    Layer("jobs.record_state", ("repro.service.jobs:record_state",)),
    Layer(
        "codesign.sweep",
        ("repro.core.codesign:sweep", "repro.service.scheduler:sweep"),
    ),
)

#: Derived per-layer metrics beyond each layer's ``publish`` list.
_DERIVED = (
    ("trace.events", "count", "lower"),
    ("replay.shared_pass.events_per_s", "1/s", "higher"),
    ("codesign.sweep.unattributed_pct", "%", "lower"),
)

#: Per-name accumulator of :meth:`Tracer.totals`.
_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "hits": 0, "bytes": 0, "events": 0}

_UNITS = {
    "s": ("s", "lower"),
    "calls": ("count", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "bytes": ("B", "lower"),
}


def layer_metric_names() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every span-derived per-layer metric."""
    out = []
    for layer in LAYERS:
        for suffix in layer.publish:
            unit, better = _UNITS[suffix]
            out.append((f"{layer.name}.{suffix}", unit, better))
    out.extend(_DERIVED)
    return out


def _resolve(site: str):
    """``(owner, attr)`` for a binding site, or ``None`` if it is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@dataclass
class Tracer:
    """In-memory span recorder with attribute-replacement shims."""

    workload: str = ""
    phase: str = ""
    spans: List[Dict] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)
    _patched: List[Tuple[object, str, object]] = field(default_factory=list)

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> Dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "workload": self.workload,
            "phase": self.phase,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: Dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span["id"]:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def _shim(self, layer: Layer, fn):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = tracer.open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            for key, count in (
                ("hit", layer.hit), ("bytes", layer.nbytes),
                ("events", layer.events),
            ):
                if count is not None:
                    span[key] = count(args, result)
            return result

        return shim

    # -- shims ---------------------------------------------------------
    def install(self, layers=LAYERS) -> None:
        """Replace every existing binding site of *layers* with a shim."""
        if self._patched:
            raise RuntimeError("tracer shims are already installed")
        try:
            for layer in layers:
                for site in layer.sites:
                    found = _resolve(site)
                    if found is None:
                        continue
                    owner, attr = found
                    original = inspect.getattr_static(owner, attr)
                    if not inspect.isfunction(original):
                        raise TypeError(f"{site} is not a plain function")
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, self._shim(layer, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every replaced attribute back (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_sites(self) -> List[Tuple[object, str, object]]:
        """``(owner, attr, original)`` of every installed shim."""
        return list(self._patched)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its children."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, counters."""
        own = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            t = out.setdefault(s["name"], dict(_EMPTY))
            t["calls"] += 1
            t["s"] += s["end"] - s["start"]
            t["self_s"] += own[s["id"]]
            t["hits"] += s.get("hit", 0)
            t["bytes"] += s.get("bytes", 0)
            t["events"] += s.get("events", 0)
        return out

    def dump(self, path: str, pid: int) -> None:
        """Append every span as one JSON line, tagged with *pid*."""
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(s, pid=pid), sort_keys=True) + "\n")


def merge_totals(parts: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum :meth:`Tracer.totals` outputs of several processes."""
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, t in part.items():
            acc = out.setdefault(name, dict.fromkeys(t, 0))
            for k, v in t.items():
                acc[k] += v
    return out


def layer_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metric values from (merged) span totals.

    A layer with no calls reports 0 for every metric, ratios included.
    """
    out: Dict[str, float] = {}
    for layer in LAYERS:
        t = totals.get(layer.name, _EMPTY)
        for suffix in layer.publish:
            if suffix == "hit_ratio":
                value = t["hits"] / t["calls"] if t["calls"] else 0.0
            else:
                value = t[suffix]
            out[f"{layer.name}.{suffix}"] = value
    rec = totals.get("trace.record", _EMPTY)
    out["trace.events"] = rec["events"]
    sp = totals.get("replay.shared_pass", _EMPTY)
    out["replay.shared_pass.events_per_s"] = (
        sp["events"] / sp["s"] if sp["s"] else 0.0
    )
    sw = totals.get("codesign.sweep", _EMPTY)
    out["codesign.sweep.unattributed_pct"] = (
        100.0 * sw["self_s"] / sw["s"] if sw["s"] else 0.0
    )
    return out
