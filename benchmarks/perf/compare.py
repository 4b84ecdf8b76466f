#!/usr/bin/env python3
"""Compare two benchmark result files written by ``run.py --out``.

    python3 benchmarks/perf/compare.py OLD.json NEW.json

One row per workload x end-to-end metric: each side's median and
quartiles over its runs, the change of the median, and a verdict under
the bounds in ``BENCHMARK.json``, decided in this order:

1. ``better`` when every new run beats every old run;
2. ``unresolved`` when either side's spread (interquartile distance
   over median) exceeds the bound;
3. ``worse`` when the new median is worse than the old one by more
   than the bound;
4. ``better`` when the new median beats the old one by more than the
   old runs' interquartile distance;
5. ``same`` otherwise.

Per-layer metrics, when both files hold a traced run, show as deltas
only, never verdicts.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``; a single run has no spread."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(old: Sequence[float], new: Sequence[float], bound: float,
            better: str = "lower") -> str:
    """Verdict for one metric; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    old = [sign * v for v in old]
    new = [sign * v for v in new]
    oq1, omed, oq3 = quartiles(old)
    nq1, nmed, nq3 = quartiles(new)
    spread = max(
        (oq3 - oq1) / abs(omed) if omed else 0.0,
        (nq3 - nq1) / abs(nmed) if nmed else 0.0,
    )
    if max(new) < min(old):
        return "better"
    if spread > bound:
        return "unresolved"
    if nmed - omed > bound * abs(omed):
        return "worse"
    if omed - nmed > oq3 - oq1:
        return "better"
    return "same"


def _values(doc: Dict, workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in doc["runs"].get(workload, [])
            if metric in run["metrics"]]


def compare(old: Dict, new: Dict, spec: Dict) -> List[Dict]:
    rows = []
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = _values(old, w["name"], m["name"])
            b = _values(new, w["name"], m["name"])
            if not a or not b:
                continue
            rows.append({
                "workload": w["name"], "metric": m["name"], "unit": m["unit"],
                "old": quartiles(a), "new": quartiles(b),
                "verdict": verdict(a, b, m["bound"], m["better"]),
            })
    return rows


def layer_deltas(old: Dict, new: Dict) -> List[Dict]:
    rows = []
    for w, a in old.get("traced", {}).items():
        b = new.get("traced", {}).get(w)
        if b is None:
            continue
        for name, va in a["metrics"].items():
            vb = b["metrics"].get(name)
            if vb is None or va["value"] == vb["value"] == 0:
                continue
            rows.append({"workload": w, "metric": name, "unit": va["unit"],
                         "old": va["value"], "new": vb["value"]})
    return rows


def _pct(old: float, new: float) -> str:
    return f"{100.0 * (new - old) / old:+.1f}%" if old else "n/a"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py OLD.json NEW.json\n")
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    table = [["workload", "metric", "unit", "old median [q1, q3]",
              "new median [q1, q3]", "change", "verdict"]]
    for r in compare(old, new, spec):
        (oq1, om, oq3), (nq1, nm, nq3) = r["old"], r["new"]
        table.append([
            r["workload"], r["metric"], r["unit"],
            f"{om:.4g} [{oq1:.4g}, {oq3:.4g}]",
            f"{nm:.4g} [{nq1:.4g}, {nq3:.4g}]",
            _pct(om, nm), r["verdict"],
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    deltas = layer_deltas(old, new)
    if deltas:
        print("\nper-layer (traced run, one per side; deltas only)")
        for d in deltas:
            print(f"{d['workload']:14s} {d['metric']:44s} {d['old']:12.5g} -> "
                  f"{d['new']:12.5g} {d['unit']:6s} {_pct(d['old'], d['new'])}")
    return 1 if any(row[-1] == "worse" for row in table[1:]) else 0


if __name__ == "__main__":
    sys.exit(main())
