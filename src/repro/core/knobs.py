"""Single registry of every ``REPRO_*`` environment knob.

Before this module existed, a dozen ``os.environ`` reads were scattered
across the caches, the resilience layer, the parallel engine, and the
replay dispatcher — undocumented, undiscoverable, and impossible to
lint.  Every knob is now *declared* here once (name, type, default,
doc) and *read* through the typed accessors below, which preserve the
historical parsing semantics exactly:

* values are stripped; an empty or unset variable means "use the
  default";
* booleans accept ``1/true/yes/on`` (and tri-states additionally
  ``0/false/no/off`` for an explicit *off* that overrides a dynamic
  default);
* unparseable ints/floats silently fall back to the default (a typo in
  an environment variable must never crash a sweep).

``repro knobs`` prints the registry (name, type, default, current
value, doc), and the ``api/env-knob`` / ``api/knob-undeclared`` rules
of ``repro check-code`` statically enforce that no module outside this
one touches ``os.environ`` and that every ``REPRO_*`` literal in the
package names a declared knob.  Reading an undeclared name through an
accessor raises ``KeyError`` — the runtime mirror of the static rule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "KNOBS",
    "Knob",
    "get_bool",
    "get_float",
    "get_int",
    "get_raw",
    "get_str",
    "get_tristate",
    "knob_rows",
]

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


@dataclass(frozen=True)
class Knob:
    """Declaration of one environment knob.

    ``kind`` is documentation (``bool``, ``tristate``, ``int``,
    ``float``, ``str``, ``path``): the accessor called at the read
    site determines the actual parsing.  ``default`` is the
    human-readable default shown by ``repro knobs`` — dynamic defaults
    ("follows REPRO_TRACE_SPILL") are described, not computed.
    """

    name: str
    kind: str
    default: str
    doc: str


#: name -> declaration, in definition order (``knob_rows`` sorts).
KNOBS: Dict[str, Knob] = {}


def _declare(name: str, kind: str, default: str, doc: str) -> str:
    KNOBS[name] = Knob(name, kind, default, doc)
    return name


# -- sweep engine ------------------------------------------------------
_declare(
    "REPRO_JOBS", "int", "1",
    "parallel workers for sweep design points (0 or negative = all cores)",
)
_declare(
    "REPRO_RETRIES", "int", "2",
    "extra per-point attempts after a failure, with exponential backoff",
)
_declare(
    "REPRO_BACKOFF", "float", "0.05",
    "base backoff seconds between per-point retries",
)
_declare(
    "REPRO_POINT_TIMEOUT", "float", "none",
    "per-point deadline in parallel mode, seconds (<=0 = no deadline)",
)
_declare(
    "REPRO_MAX_FAILURES", "int", "0",
    "sweep-wide budget of permanently failed points (0 = fail fast)",
)
# -- durable job layer -------------------------------------------------
_declare(
    "REPRO_LEASE_TTL", "float", "60",
    "seconds an unrenewed job lease stays live before the job becomes "
    "adoptable (same-host dead owners are adoptable immediately)",
)
_declare(
    "REPRO_HEARTBEAT", "float", "5",
    "minimum seconds between job-lease heartbeat renewals",
)
_declare(
    "REPRO_MAX_JOBS", "int", "0",
    "max concurrently leased (running) jobs the scheduler allows before "
    "queueing new submissions (0 = unlimited)",
)
# -- result cache ------------------------------------------------------
_declare(
    "REPRO_SIMCACHE", "bool", "off",
    "persist simulation results under the cache directory",
)
_declare(
    "REPRO_SIMCACHE_DIR", "path", ".simcache",
    "root directory for the persistent caches, journals and quarantine",
)
# -- trace engine ------------------------------------------------------
_declare(
    "REPRO_TRACE", "tristate", "per-command",
    "capture-once/replay-many trace engine (sweeps default on, single "
    "simulations off)",
)
_declare(
    "REPRO_TRACE_SPILL", "bool", "off",
    "spill captured traces to disk as .rtz containers",
)
_declare(
    "REPRO_TRACE_DIR", "path", "<simcache>/traces",
    "directory for spilled traces and compiled passes",
)
_declare(
    "REPRO_TRACE_VERIFY", "bool", "off",
    "run the static verifier on every spill-loaded trace before replay",
)
_declare(
    "REPRO_TRACE_LOAD_LOG", "path", "off",
    "append one '<pid> <source> <key>' line per cross-process trace load",
)
_declare(
    "REPRO_PASS_CACHE", "tristate", "follows REPRO_TRACE_SPILL",
    "persist compiled shared/point passes (.rpp/.rvp) next to traces",
)
# -- testing / benchmarks ----------------------------------------------
_declare(
    "REPRO_FAULTS", "path", "off",
    "JSON fault-injection schedule for the resilience test harness",
)
_declare(
    "REPRO_BENCH_SWEEP_LAYERS", "int", "20",
    "layer count for the self-performance benchmarks (CI smoke uses 6)",
)


def get_raw(name: str) -> str:
    """Stripped raw value of a *declared* knob ("" when unset).

    Raises :class:`KeyError` for an undeclared name — the runtime
    counterpart of the ``api/knob-undeclared`` static rule.
    """
    if name not in KNOBS:
        raise KeyError(
            f"undeclared environment knob {name!r}: declare it in "
            "repro.core.knobs before reading it"
        )
    return os.environ.get(name, "").strip()


def get_str(name: str, default: str = "") -> str:
    """String knob; empty/unset falls back to *default*."""
    return get_raw(name) or default


def get_bool(name: str) -> bool:
    """Boolean knob: true iff the value is ``1/true/yes/on``."""
    return get_raw(name).lower() in _TRUE


def get_tristate(name: str) -> Optional[bool]:
    """Tri-state knob: ``True``/``False`` when explicitly set either
    way, ``None`` when unset or unrecognized (caller picks the
    dynamic default)."""
    val = get_raw(name).lower()
    if val in _TRUE:
        return True
    if val in _FALSE:
        return False
    return None


def get_int(name: str, default: int) -> int:
    """Integer knob; empty or unparseable values fall back to *default*."""
    raw = get_raw(name)
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


def get_float(name: str, default: float) -> float:
    """Float knob; empty or unparseable values fall back to *default*."""
    raw = get_raw(name)
    try:
        return float(raw) if raw else default
    except ValueError:
        return default


def knob_rows() -> List[Dict]:
    """Rows for ``repro knobs`` (sorted by name; current value included)."""
    return [
        {
            "knob": k.name,
            "type": k.kind,
            "default": k.default,
            "value": os.environ.get(k.name, ""),
            "doc": k.doc,
        }
        for _, k in sorted(KNOBS.items())
    ]
