#!/usr/bin/env python3
"""Benchmark harness: run the workloads, check their answers, print metrics.

One workload, the form ``BENCHMARK.json``'s command takes::

    python3 benchmarks/perf/run.py --workload point --seed 0 --seconds 20 --trace 0

Every workload, each run in a fresh process, saved for ``compare.py``::

    python3 benchmarks/perf/run.py --seed 0 --repeats 5 --out results.json

Re-pin the stats digests after a deliberate change to the timing model::

    python3 benchmarks/perf/run.py --regen-digests

A workload run is a closed loop with one client: it runs cycles of
phases, each phase in a fresh process (see ``workloads.py``), one after
another until ``--seconds`` have passed.  Every timed metric is host
time; simulated time is exact and is checked against the pinned digests
instead.  ``--trace 1`` alternates untraced and traced cycles and reports
the per-layer metrics of the traced ones (``spans.py``); end-to-end
metrics never come from a traced cycle.

The last line of a workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are for people.  Exit status: 0 when every check passed, 1 when one
failed, 2 when the benchmark cannot run (sources missing, committed
trace stale, a phase process crashed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

#: End-to-end metrics: (name, unit).  Definitions in README.md.
END_TO_END = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: A phase process must end well inside a run's 180 s limit.
CHILD_TIMEOUT_S = 150

STALE_HINT = """\
The committed reference trace tests/data/traces/yolov3_tiny_rvv_v512.rtz
is stale: its header key differs from the runtime trace_key (the trace
format or keying changed).  Regenerate it with the recipe printed by
tests/smoke_paper_figures.py and commit the new file.
"""

#: Simulated speed-ups printed beside the paper's gem5 figures
#: (EXPERIMENTS.md).  Outputs for people, never gated: the model is
#: unvalidated against hardware.
PAPER = {
    "l2_mb": "Fig. 7, 1->256 MB: 1.5x at <=4096 b",
    "lanes": "Sec. VI-B(c), 2->8 lanes: 1.25x at 8192 b",
    "vlen_bits": "Fig. 6, 512->8192 b: ~2.5x (saturates >=8192 b)",
}


class HarnessError(RuntimeError):
    """The benchmark could not run (exit 2, no result line)."""


def _prepare_env() -> None:
    """Pin the program's knobs: serial, result cache off, spill on."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({
        "REPRO_JOBS": "1",
        "REPRO_SIMCACHE": "0",
        "REPRO_TRACE_SPILL": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })


# ----------------------------------------------------------------------
# Phase processes
# ----------------------------------------------------------------------
def child_main(doc: Dict) -> Dict:
    """Run one phase in this process (``--child``)."""
    from spans import Tracer
    from workloads import StaleTrace, Workload, run_phase

    w = Workload.from_json(doc["workload"])
    tracer = None
    if doc.get("spans"):
        tracer = Tracer(workload=w.name, phase=doc["phase"])
        tracer.install()
    try:
        out = run_phase(w, doc["phase"], doc["seed"], doc["cycle"], tracer)
    except StaleTrace as exc:
        return {"error": "stale_rtz", "detail": str(exc)}
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        tracer.dump(doc["spans"], os.getpid())
        out["totals"] = tracer.totals()
    return out


def run_child(job: Dict, env: Dict[str, str]) -> Dict:
    """Run one phase in a fresh process; adds its ``setup_s``.

    Set-up is measured from just before the process is spawned to just
    before its first timed call (both on the system-wide monotonic
    clock): interpreter start, imports, network build, directory and
    trace seeding.
    """
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child", json.dumps(job)],
            cwd=REPO, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"phase {job['phase']} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"phase {job['phase']} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    out = json.loads(lines[-1])
    if out.get("error") == "stale_rtz":
        sys.stderr.write(STALE_HINT + out["detail"] + "\n")
        raise HarnessError("stale committed trace")
    out["setup_s"] = out["ready"] - t_spawn
    return out


def run_cycle(w, seed: int, work: Path, n: int, spans_path: str = "") -> List[Dict]:
    """One cycle: every phase of *w* in turn, on one fresh cache dir."""
    from workloads import dir_bytes

    cycle_dir = work / f"cycle-{n}"
    cycle_dir.mkdir(parents=True)
    env = dict(
        os.environ,
        REPRO_SIMCACHE_DIR=str(cycle_dir),
        REPRO_TRACE_DIR=str(cycle_dir / "traces"),
    )
    phases = []
    try:
        for phase in w.phases():
            job = {"workload": w.to_json(), "phase": phase, "seed": seed,
                   "cycle": n, "spans": spans_path}
            out = run_child(job, env)
            if phase == "cold":
                out["cache_bytes"] = dir_bytes(cycle_dir)
            phases.append(out)
    finally:
        shutil.rmtree(cycle_dir, ignore_errors=True)
    return phases


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_cycle(w, pinned: Dict, phases: List[Dict]):
    """``(attempted, failed, problems)`` for one cycle's answers.

    Every point answered by a timed call counts as attempted.  It fails
    when it is degraded (a sweep or job point with source ``direct`` or
    ``failed``), when its stats differ from the pinned digest, or when a
    warm answer is not hex-identical to the cycle's cold one.
    """
    from workloads import DEGRADED, point_key, stats_digest, text_digest

    calls = [c for p in phases for c in p["calls"]]
    ref: Dict[str, str] = {}
    for c in calls:
        if c["role"] != "warm":
            for axis, value, _src, text in c["points"]:
                ref.setdefault(point_key(axis, value), text)
    problems = []
    if stats_digest(ref) != pinned["stats_digest"]:
        problems.append("stats digest differs from the pinned one")
    attempted = failed = 0
    for c in calls:
        for axis, value, src, text in c["points"]:
            key = point_key(axis, value)
            attempted += 1
            degraded = w.kind != "point" and src in DEGRADED
            if degraded:
                problems.append(f"{c['op']} {key}: degraded to {src}")
            if (
                degraded
                or text_digest(text) != pinned["points"].get(key)
                or text != ref.get(key)
            ):
                failed += 1
    for p in phases:
        if "cnn_layers" in p:
            if len(p["cnn_layers"]) != len(p["cnn_regions"]):
                problems.append("emitted CNN layers do not match the regions")
            if sum(c for c, _ in p["cnn_regions"]) != p["cnn_total_cycles"]:
                problems.append("per-CNN-layer cycles do not sum to the total")
    return attempted, failed, problems


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------
def _timed(phases: List[Dict], role=None) -> float:
    return sum(
        c["s"] for p in phases for c in p["calls"]
        if role is None or c["role"] == role
    )


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def samples(w, cycles: List[List[Dict]]) -> Dict[str, List[float]]:
    """Every set-up, cold-answer and warm-answer time of the run.

    A sweep's answer is its whole phase; a point or job answer is one
    call.
    """
    if w.kind == "sweep":
        warm = [_timed(cyc, "warm") for cyc in cycles]
    else:
        warm = [c["s"] for cyc in cycles for p in cyc for c in p["calls"]
                if c["role"] == "warm"]
    return {
        "setup_s": [p["setup_s"] for cyc in cycles for p in cyc],
        "cold_s": [_timed(cyc, "cold") for cyc in cycles],
        "warm_s": warm,
    }


def end_to_end(w, cycles: List[List[Dict]]) -> Dict[str, float]:
    """End-to-end metric values from untraced cycles.

    Set-up is the median over the run's processes.  Cold and warm times
    are the run's best: every sample repeats the same deterministic
    work, so other load on the host only ever adds time; on a shared
    host that load comes in bursts that move medians by 10 % or more
    between runs (README.md, "Noise").
    """
    s = samples(w, cycles)
    return {
        "setup_s": statistics.median(s["setup_s"]),
        "cold_s": min(s["cold_s"]),
        "warm_s": min(s["warm_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_declared() -> List[List[str]]:
    """``[name, unit, better]`` of every per-layer metric, in order."""
    from spans import layer_metric_names
    from workloads import WORKLOADS, cnn_metric_names

    out = [list(row) for row in layer_metric_names()]
    out.append(["disk.cache_bytes", "B", "lower"])
    for name in cnn_metric_names(WORKLOADS["point"]):
        unit = "cycles" if name.endswith("sim_cycles") else "s"
        out.append([name, unit, "lower"])
    out.append(["bench.trace_overhead_pct", "%", "lower"])
    return out


def per_layer(traced: List[List[Dict]], plain: List[List[Dict]]) -> Dict[str, float]:
    """Per-layer metric values: medians over the traced cycles."""
    from spans import layer_metrics, merge_totals

    rows = []
    for cyc in traced:
        m = layer_metrics(merge_totals([p["totals"] for p in cyc]))
        m["disk.cache_bytes"] = sum(p.get("cache_bytes", 0) for p in cyc)
        for p in cyc:
            for idx, (cycles, host_s) in zip(
                p.get("cnn_layers", []), p.get("cnn_regions", [])
            ):
                m[f"cnn.L{idx:02d}.sim_cycles"] = cycles
                m[f"cnn.L{idx:02d}.host_s"] = host_s
        rows.append(m)
    out = {}
    for name, _unit, _better in per_layer_declared():
        if name != "bench.trace_overhead_pct":
            out[name] = statistics.median(r.get(name, 0.0) for r in rows)
    t_on = statistics.median(_timed(cyc) for cyc in traced)
    t_off = statistics.median(_timed(cyc) for cyc in plain)
    out["bench.trace_overhead_pct"] = 100.0 * (t_on / t_off - 1.0)
    return out


def _speedups(w, cycles: List[List[Dict]]) -> List[str]:
    """Simulated speed-ups along each grid, for people (not gated)."""
    cycles_of = {}
    for p in cycles[0]:
        for c in p["calls"]:
            for axis, value, _src, text in c["points"]:
                hexed = text.split(";", 1)[0].split("=", 1)[1]
                cycles_of[(axis, value)] = float.fromhex(hexed)
    lines = []
    for axis, values in w.grids:
        lo, hi = min(values), max(values)
        if (axis, lo) in cycles_of and (axis, hi) in cycles_of:
            s = cycles_of[(axis, lo)] / cycles_of[(axis, hi)]
            lines.append(
                f"  simulated speed-up {axis} {lo}->{hi}: {s:.2f}x "
                f"(paper gem5 {PAPER[axis]}; model unvalidated)"
            )
    return lines


def run_workload(w, seed: int, seconds: float, trace: bool, pinned: Dict) -> Dict:
    """Run *w* as a closed loop for *seconds*; returns the result object."""
    work = OUT / f"work-{os.getpid()}"
    spans_path = ""
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = str(OUT / f"spans-{w.name}-{seed}.jsonl")
        Path(spans_path).write_text("", encoding="utf-8")
    plain: List[List[Dict]] = []
    traced: List[List[Dict]] = []
    deadline = time.monotonic() + seconds
    try:
        n = 0
        while not plain or time.monotonic() < deadline:
            plain.append(run_cycle(w, seed, work, n))
            n += 1
            if trace:
                traced.append(run_cycle(w, seed, work, n, spans_path))
                n += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    problems: List[str] = []
    for cyc in plain + traced:
        a, f, p = check_cycle(w, pinned, cyc)
        attempted, failed = attempted + a, failed + f
        problems += p
    correct = failed == 0 and not problems

    units = dict(END_TO_END)
    if trace:
        units = {name: unit for name, unit, _ in per_layer_declared()}
        values = per_layer(traced, plain)
    else:
        values = end_to_end(w, plain)

    print(f"workload {w.name}  seed {seed}  cycles {len(plain) + len(traced)}"
          f"  trace {int(trace)}  attempted {attempted}  failed {failed}")
    for name, value in values.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    for name, xs in samples(w, plain).items():
        line = f"  {name} over {len(xs)} samples: median {statistics.median(xs):.6g}"
        # The highest percentile with at least ten samples beyond it.
        for q in (99, 95, 90):
            if len(xs) * (100 - q) >= 1000:
                line += f", p{q} {statistics.quantiles(xs, n=100)[q - 1]:.6g}"
                break
        print(line)
    if w.kind != "point":
        print("\n".join(_speedups(w, plain)))
    if trace:
        print(f"  spans: {spans_path}")
    for problem in sorted(set(problems)):
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


# ----------------------------------------------------------------------
# All workloads, and digest pinning
# ----------------------------------------------------------------------
def run_suite(args) -> int:
    """Each workload ``--repeats`` times (seeds seed, seed+1, ...), then
    one traced run each with ``--trace``; writes ``--out``."""
    from workloads import WORKLOADS

    doc = {
        "seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
        "host": {"python": platform.python_version(),
                 "platform": platform.platform(), "nproc": os.cpu_count()},
        "runs": {}, "traced": {},
    }
    status = 0
    for name in WORKLOADS:
        plan = [(args.seed + r, 0) for r in range(args.repeats)]
        if args.trace:
            plan.append((args.seed, 1))
        for seed, trace in plan:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=REPO, capture_output=True,
                                  text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                return 2
            result = json.loads(lines[-1])
            status = max(status, proc.returncode)
            if trace:
                doc["traced"][name] = result
            else:
                doc["runs"].setdefault(name, []).append(dict(result, seed=seed))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return status


def regen_digests() -> int:
    from workloads import WORKLOADS, reference

    pinned = {}
    for name, w in WORKLOADS.items():
        pinned[name] = reference(w)
        print(f"{name}: {pinned[name]['stats_digest']}")
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload when running all of them")
    parser.add_argument("--out", help="results file when running all workloads")
    parser.add_argument("--regen-digests", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"no program sources at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0
    _prepare_env()
    if args.regen_digests:
        return regen_digests()
    if args.workload is None:
        return run_suite(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]
    try:
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            pinned,
        )
    except HarnessError as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
