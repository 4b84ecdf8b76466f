"""Command-line interface for the reproduction toolkit.

Usage (``python -m repro <command> ...``):

* ``simulate`` — trace-simulate a zoo network on a machine preset;
* ``sweep``    — one-axis design-space sweep (vlen / cache / lanes);
* ``roofline`` — regenerate Table IV;
* ``profile``  — per-kernel cycle breakdown (Section II-B);
* ``select``   — per-layer convolution-algorithm selection;
* ``analyze``  — static trace verifier, working-set and roofline-bound
  report (exit code 1 on any finding; see docs/ANALYSIS.md);
* ``predict``  — static cost model: predict a network's cycles without
  simulating, optionally drift-gated against a replay (``--oracle``);
* ``autotune`` — GEMM block-size search, exhaustive or model-guided
  (``--prune K`` simulates only the model's top-K candidates);
* ``trace-cache`` — inspect, verify or garbage-collect the spilled
  trace files under ``.simcache/traces/`` (see docs/TRACE_REPLAY.md);
* ``check-code`` — AST/call-graph invariant analyzer over the repro
  sources themselves: determinism, atomic persistence, fork-safety and
  knob-hygiene contracts (exit code 1 on any finding);
* ``knobs``    — list every declared ``REPRO_*`` environment knob with
  its type, default, and current value;
* ``submit`` / ``status`` / ``results`` / ``cancel`` / ``jobs`` — the
  durable job layer (docs/SERVICE.md): run sweeps as crash-safe,
  addressable, content-deduplicated jobs with lease-based adoption,
  sealed results records, and cross-run garbage collection.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from .core import (
    format_series,
    format_table,
    measured_choice,
    paper_rule,
    roofline_table,
    summarize_stats,
    sweep_cache_sizes,
    sweep_lanes,
    sweep_vector_lengths,
)
from .machine import a64fx, rvv_gem5, sve_gem5
from .nets import KernelPolicy, profile_network, vgg16, yolov3, yolov3_tiny
from .workloads import discrete_conv_specs

__all__ = ["main", "build_parser"]

_NETS = {"yolov3": yolov3, "yolov3-tiny": yolov3_tiny, "vgg16": vgg16}


def _machine(args) -> object:
    if args.machine == "rvv":
        return rvv_gem5(vlen_bits=args.vlen, lanes=args.lanes, l2_mb=args.l2_mb)
    if args.machine == "sve":
        return sve_gem5(vlen_bits=min(args.vlen, 2048), l2_mb=args.l2_mb)
    return a64fx()


def _policy(args) -> KernelPolicy:
    return KernelPolicy(gemm=args.gemm, winograd=args.winograd)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--net", choices=sorted(_NETS), default="yolov3")
    p.add_argument("--machine", choices=["rvv", "sve", "a64fx"], default="rvv")
    p.add_argument("--vlen", type=int, default=512, help="vector length in bits")
    p.add_argument("--lanes", type=int, default=8)
    p.add_argument("--l2-mb", type=int, default=1, dest="l2_mb")
    p.add_argument("--gemm", choices=["naive", "3loop", "6loop"], default="3loop")
    p.add_argument(
        "--winograd", choices=["off", "stride1", "all3x3"], default="off"
    )
    p.add_argument("--layers", type=int, default=None, help="simulate first N layers")


def _add_trace_flags(p: argparse.ArgumentParser) -> None:
    """Tri-state trace toggle: absent -> REPRO_TRACE / per-command default
    (on for sweeps, off for single simulations)."""
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--trace", action="store_true", default=None, dest="trace",
        help="capture the kernel event stream once and replay it for "
             "every point sharing it (default for sweeps)",
    )
    g.add_argument(
        "--no-trace", action="store_false", dest="trace",
        help="always re-run kernels at every design point",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CNN inference on long-vector architectures (IPDPS'23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="trace-simulate a network")
    _add_common(p)
    _add_trace_flags(p)

    p = sub.add_parser("sweep", help="one-axis design-space sweep")
    _add_common(p)
    _add_trace_flags(p)
    p.add_argument(
        "--axis", choices=["vlen", "cache", "lanes"], default="vlen"
    )
    p.add_argument(
        "--values", type=int, nargs="+", default=None,
        help="axis values (bits / MB / lanes)",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="parallel workers for design points (default: $REPRO_JOBS "
             "or serial; 0 = all cores)",
    )
    p.add_argument(
        "--simcache", action="store_true", default=None,
        help="memoize results on disk under .simcache/ "
             "(also enabled by REPRO_SIMCACHE=1)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="journal completed points under .simcache/journal/ and "
             "restore them on the next --resume run of the same sweep",
    )
    p.add_argument(
        "--dry-run", action="store_true", dest="dry_run",
        help="print the point grid, journal/cache/quarantine state and "
             "estimated work, without simulating anything",
    )
    p.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="per-point retry budget on failure (default: $REPRO_RETRIES "
             "or 2), with exponential backoff",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point timeout in parallel mode (default: "
             "$REPRO_POINT_TIMEOUT or none); timed-out points retry",
    )
    p.add_argument(
        "--max-failures", type=int, default=None, dest="max_failures",
        metavar="N",
        help="tolerate up to N permanently failed points (reported as "
             "source 'failed') before aborting; default 0 = fail fast",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the sweep result as JSON (exact float round-trip) "
             "instead of tables",
    )
    p.add_argument(
        "--prune", type=int, default=None, metavar="K",
        help="model-guided sweep: rank all points with the static cost "
             "model and simulate only the top K; the rest carry "
             "predicted cycles (source 'pruned-by-model')",
    )

    p = sub.add_parser("roofline", help="Table IV roofline analysis")
    p.add_argument("--gemm", choices=["3loop", "6loop"], default="6loop")

    p = sub.add_parser("profile", help="per-kernel cycle breakdown")
    _add_common(p)

    p = sub.add_parser("select", help="per-layer algorithm selection")
    _add_common(p)
    p.add_argument("--measured", action="store_true",
                   help="simulate both algorithms instead of the static rule")
    p.add_argument("--tuned", action="store_true",
                   help="like --measured, but model-guided-tune the GEMM "
                        "blocking first (reports the chosen blocking)")

    p = sub.add_parser(
        "predict",
        help="predict a network's cycles with the static cost model "
             "(no simulation)",
    )
    _add_common(p)
    p.add_argument(
        "--oracle", action="store_true",
        help="also replay the trace and drift-gate the prediction "
             "against the simulated cycles (predict/* rules)",
    )
    p.add_argument(
        "--band", type=float, default=None, metavar="FACTOR",
        help="drift band for --oracle: fail when prediction is outside "
             "[sim/FACTOR, sim*FACTOR] (default: analysis.DRIFT_BAND)",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the prediction as JSON instead of text",
    )

    p = sub.add_parser(
        "autotune",
        help="grid-search GEMM block sizes, exhaustively or model-guided",
    )
    p.add_argument("--machine", choices=["rvv", "sve", "a64fx"], default="rvv")
    p.add_argument("--vlen", type=int, default=512, help="vector length in bits")
    p.add_argument("--lanes", type=int, default=8)
    p.add_argument("--l2-mb", type=int, default=1, dest="l2_mb")
    p.add_argument("-M", type=int, default=64, dest="gemm_m",
                   help="GEMM rows (default: YOLOv3 416x416 layer-2 shape)")
    p.add_argument("-N", type=int, default=23104, dest="gemm_n")
    p.add_argument("-K", type=int, default=288, dest="gemm_k")
    p.add_argument(
        "--prune", type=int, default=None, metavar="K",
        help="simulate only the static model's top-K candidates; the "
             "rest are returned with predicted cycles "
             "(source 'pruned-by-model')",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the ranking as JSON instead of a table",
    )

    p = sub.add_parser(
        "analyze",
        help="statically verify a network's kernel trace and report "
             "working sets and cycle bounds",
    )
    _add_common(p)
    p.add_argument(
        "--oracle", action="store_true",
        help="also replay the trace and assert the static cycle bound "
             "against the simulated cycles",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of text",
    )
    p.add_argument(
        "--rules", default=None, metavar="PREFIX[,PREFIX...]",
        help="only report findings whose rule id starts with one of "
             "these comma-separated prefixes (e.g. 'dataflow,trace')",
    )
    p.add_argument(
        "--ignore", default=None, metavar="PREFIX[,PREFIX...]",
        help="drop findings whose rule id starts with one of these "
             "comma-separated prefixes",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table (id, severity, pass, description) "
             "and exit",
    )
    p.add_argument(
        "--max-examples", type=int, default=3, metavar="N",
        help="example events attached to each aggregated finding "
             "(surfaced in the JSON report; default 3)",
    )
    p.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="diff the canonical report against a committed baseline "
             "JSON; a non-empty diff fails the run",
    )
    p.add_argument(
        "--update-baseline", action="store_true",
        help="write the canonical report to --baseline instead of "
             "diffing against it",
    )

    p = sub.add_parser(
        "trace-cache",
        help="inspect/verify/garbage-collect spilled kernel traces",
    )
    p.add_argument(
        "action", choices=["list", "verify", "gc"],
        help="list: sizes, event counts, codec versions and tier counts "
             "from the container headers (.rtz traces plus their .rvp "
             "compiled tiers); verify: full decode + digest check per "
             "file; gc: delete stale-format and foreign files and tiers "
             "orphaned by a pruned or re-captured trace, and quarantine "
             "corrupt files (never served twice)",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON document instead of a table",
    )

    p = sub.add_parser(
        "check-code",
        help="statically check the repro sources against the "
             "determinism/atomicity/fork-safety contracts "
             "(docs/ANALYSIS.md, 'Code invariants')",
    )
    p.add_argument(
        "--root", default=None, metavar="DIR",
        help="package directory to analyze (default: the installed "
             "repro package itself)",
    )
    p.add_argument(
        "--package", default="repro", metavar="NAME",
        help="dotted package name the directory corresponds to",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the findings as one JSON document",
    )
    p.add_argument(
        "--rules", default=None, metavar="PREFIX[,PREFIX...]",
        help="only report findings whose rule id starts with one of "
             "these comma-separated prefixes (e.g. 'det,mp/shm-leak')",
    )
    p.add_argument(
        "--ignore", default=None, metavar="PREFIX[,PREFIX...]",
        help="drop findings whose rule id starts with one of these "
             "comma-separated prefixes",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the code-invariant rule table and exit",
    )
    p.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="diff the findings document against a committed baseline "
             "JSON; a non-empty diff fails the run",
    )
    p.add_argument(
        "--update-baseline", action="store_true",
        help="write the findings document to --baseline instead of "
             "diffing against it",
    )

    p = sub.add_parser(
        "knobs",
        help="list every declared REPRO_* environment knob "
             "(type, default, current value)",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the knob table as JSON instead of text",
    )

    p = sub.add_parser(
        "submit",
        help="submit a sweep as a durable job (crash-safe, addressable, "
             "deduplicated by grid content; see docs/SERVICE.md)",
    )
    _add_common(p)
    p.add_argument("--axis", choices=["vlen", "cache", "lanes"], default="vlen")
    p.add_argument(
        "--values", type=int, nargs="+", default=None,
        help="axis values (bits / MB / lanes)",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="parallel workers for design points (default: $REPRO_JOBS "
             "or serial; 0 = all cores)",
    )
    p.add_argument(
        "--no-wait", action="store_false", dest="wait",
        help="register (or attach to) the job and return immediately "
             "instead of driving it to a terminal state",
    )
    p.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="per-point retry budget on failure (default: $REPRO_RETRIES)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point timeout in parallel mode",
    )
    p.add_argument(
        "--max-failures", type=int, default=None, dest="max_failures",
        metavar="N", help="tolerate up to N permanently failed points",
    )
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the job outcome (and results, if terminal) as JSON",
    )

    p = sub.add_parser(
        "status", help="show one durable job's state, lease and progress"
    )
    p.add_argument(
        "job", nargs="?", default=None,
        help="job id (or unique prefix); omit to summarize every job",
    )
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser(
        "results",
        help="print a finished (or partially journaled) job's results "
             "without simulating anything",
    )
    p.add_argument("job", help="job id (or unique prefix)")
    p.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the results as JSON (exact float round-trip, same "
             "point shape as 'repro sweep --json')",
    )

    p = sub.add_parser(
        "cancel",
        help="cancel a durable job: queued jobs stop now, running owners "
             "observe the durable marker at their next heartbeat",
    )
    p.add_argument("job", help="job id (or unique prefix)")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser(
        "jobs", help="job-store maintenance: list jobs, garbage-collect"
    )
    p.add_argument(
        "action", choices=["list", "gc"],
        help="list: one row per job with lease and seal state; gc: prune "
             "journals superseded by verified sealed records, expired "
             "leases, stale cancel markers and orphaned quarantine "
             "sidecars (job records and sealed results are kept)",
    )
    p.add_argument(
        "--dry-run", action="store_true", dest="dry_run",
        help="report what gc would remove without deleting anything",
    )
    p.add_argument("--json", action="store_true", dest="as_json")
    return parser


def cmd_simulate(args) -> int:
    """``repro simulate``: trace-simulate one network on one machine."""
    net = _NETS[args.net]()
    machine = _machine(args)
    stats = net.simulate(
        machine, _policy(args), n_layers=args.layers, use_trace=args.trace
    )
    print(machine.describe())
    print(format_table([summarize_stats(stats, machine.core.freq_ghz)]))
    return 0


#: The ``sweep_*`` helper that runs each resolved axis; its name is the
#: one :func:`repro.core.codesign.sweep` journals under, so
#: ``--dry-run`` computes the same key as a real run.
_SWEEP_RUNNERS = {
    "vlen_bits": sweep_vector_lengths,
    "l2_mb": sweep_cache_sizes,
    "lanes": sweep_lanes,
}


def _sweep_retry(args):
    """CLI retry policy: env defaults, overridden by --retries/--timeout."""
    from .core.resilience import RetryPolicy

    retry = RetryPolicy.from_env()
    overrides = {}
    if args.retries is not None:
        overrides["max_retries"] = max(0, args.retries)
    if args.timeout is not None:
        overrides["timeout_s"] = args.timeout if args.timeout > 0 else None
    return dataclasses.replace(retry, **overrides) if overrides else retry


def _sweep_dry_run(args, net, policy, axis_name, values, factory) -> int:
    """``repro sweep --dry-run``: report planned work without simulating.

    Classifies every design point as sealed, journal-complete,
    simcache-hit or pending, groups pending points by trace key (the
    kernels run once per multi-point group), and lists quarantined
    cache entries plus the grid's job-store state — the job record,
    its lease (a stale lease means the job is adoptable), and whether
    a sealed results record already answers the whole grid — all from
    on-disk state; nothing is written.
    """
    from .core import simcache, tracecache
    from .core.resilience import (
        Journal,
        list_quarantined,
        load_sealed,
        sweep_key,
    )
    from .service import jobs as jobstore

    machines = [factory(v) for v in values]
    n = len(machines)
    skey = sweep_key(net, axis_name, values, machines, policy, args.layers)
    sealed = load_sealed(skey, n)
    if sealed is not None:
        summary = {
            "net": net.name, "axis": axis_name, "points": n,
            "sealed": True, "pending": 0, "estimated_kernel_runs": 0,
            "job": jobstore.job_id_for(skey),
        }
        if args.as_json:
            rows = [{axis_name: v, "state": "sealed"} for v in values]
            print(json.dumps({"summary": summary, "points": rows},
                             sort_keys=True))
        else:
            print(f"dry run: {net.name} {axis_name} sweep — all {n} "
                  "point(s) sealed; a resume run answers with zero "
                  "simulations (see 'repro results "
                  f"{summary['job']}')")
        return 0
    journal = Journal.status(skey, n)
    cache_on = simcache.cache_enabled(args.simcache)
    trace_on = tracecache.trace_enabled(args.trace, default=True)
    rows, pending, groups = [], [], {}
    for i, (value, machine) in enumerate(zip(values, machines)):
        if i in journal.completed:
            state = "journal"
        elif cache_on and simcache.load(
            simcache.cache_key(net, machine, policy, args.layers, True)
        ) is not None:
            state = "cached"
        else:
            state = "pending"
            pending.append(i)
            if trace_on:
                key = tracecache.trace_key(net, machine, policy, args.layers, True)
                groups.setdefault(key, []).append(i)
        rows.append({axis_name: value, "state": state})
    shared = [idxs for idxs in groups.values() if len(idxs) > 1]
    kernel_runs = len(shared) + sum(
        1 for idxs in groups.values() if len(idxs) == 1
    ) if trace_on else len(pending)
    quarantined = list_quarantined()
    job_id = jobstore.job_id_for(skey)
    record = jobstore.load(job_id)
    lease, _doc = jobstore.lease_state(job_id)
    summary = {
        "net": net.name,
        "axis": axis_name,
        "points": n,
        "journal": len(journal.completed),
        "journal_failed": len(journal.failed),
        "journal_done": journal.done,
        "cached": sum(1 for r in rows if r["state"] == "cached"),
        "pending": len(pending),
        "trace_groups": len(shared),
        "estimated_kernel_runs": kernel_runs,
        "quarantined": len(quarantined),
        "sealed": False,
        "job": job_id if record is not None else "",
        "job_state": record.state if record is not None else "",
        "lease": lease,
    }
    if args.as_json:
        print(json.dumps({"summary": summary, "points": rows}, sort_keys=True))
        return 0
    print(format_table(rows, title=f"dry run: {net.name} {axis_name} sweep"))
    print()
    for key, label in (
        ("journal", "journal-complete"), ("cached", "simcache hits"),
        ("pending", "pending"),
    ):
        print(f"  {label}: {summary[key]}/{n}")
    if summary["journal_failed"]:
        print(f"  journal failures (will retry): {summary['journal_failed']}")
    print(
        f"  estimated kernel runs: {kernel_runs} "
        f"({len(shared)} shared trace group(s))"
    )
    if quarantined:
        print(f"  quarantined cache entries: {len(quarantined)} "
              f"(see 'repro analyze --rules cache')")
    if record is not None:
        line = f"  job {job_id}: {record.state}"
        if lease == "live":
            line += " (live lease: another owner is running it)"
        elif lease == "stale":
            line += " (stale lease: orphaned, adoptable by 'repro submit')"
        print(line)
    return 0


def _resolve_sweep(args, command: str):
    """``resolve_spec`` of the CLI arguments, or ``None`` after printing
    why the sweep cannot be built (the caller exits 2)."""
    from .service import scheduler

    try:
        return scheduler.resolve_spec(scheduler.spec_from_args(args))
    except ValueError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        return None


def cmd_sweep(args) -> int:
    """``repro sweep``: one-axis design-space sweep (vlen/cache/lanes)."""
    resolved = _resolve_sweep(args, "sweep")
    if resolved is None:
        return 2
    net, policy, axis_name, values, factory = resolved
    if args.dry_run:
        return _sweep_dry_run(args, net, policy, axis_name, values, factory)
    res = _SWEEP_RUNNERS[axis_name](
        net, values, factory, policy, args.layers, args.jobs,
        args.simcache, args.trace, resume=args.resume,
        retry=_sweep_retry(args), max_failures=args.max_failures,
        prune=args.prune,
    )
    if args.as_json:
        from .core.resilience import stats_payload

        doc = {
            "axis_name": res.axis_name,
            "axis": res.axis,
            "points": [
                {
                    "source": res.source_of(i),
                    **(
                        {"failure": {"error": s.error, "exc_type": s.exc_type,
                                     "attempts": s.attempts}}
                        if res.source_of(i) == "failed"
                        else {"stats": stats_payload(s)}
                    ),
                }
                for i, s in enumerate(res.stats)
            ],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(format_table(res.as_rows()))
        print()
        print(format_series(
            "speedup", res.axis, res.speedups(), res.axis_name, "speedup"
        ))
        for failure in res.failures():
            print(
                f"point {failure.index} failed after {failure.attempts} "
                f"attempt(s): {failure.exc_type}: {failure.error}",
                file=sys.stderr,
            )
    return 0 if res.ok else 1


def cmd_roofline(args) -> int:
    """``repro roofline``: regenerate Table IV."""
    rows = roofline_table(gemm=args.gemm)
    print(
        format_table(
            [
                {
                    "layer": r.layer, "M": r.M, "N": r.N, "K": r.K,
                    "AI": r.ai, "AI paper": r.ai_paper,
                    "%peak": r.pct_peak, "%peak paper": r.pct_peak_paper,
                }
                for r in rows
            ]
        )
    )
    return 0


def cmd_profile(args) -> int:
    """``repro profile``: Section II-B per-kernel breakdown."""
    net = _NETS[args.net]()
    prof = profile_network(net, _machine(args), _policy(args), n_layers=args.layers)
    print(prof.format_table())
    return 0


def cmd_select(args) -> int:
    """``repro select``: per-layer algorithm choice (rule or measured)."""
    net = _NETS[args.net]()
    machine = _machine(args)
    rows = []
    for spec in discrete_conv_specs(net):
        if args.tuned:
            from .core import tuned_choice

            choice = tuned_choice(spec, machine)
        elif args.measured:
            choice = measured_choice(spec, machine)
        else:
            choice = paper_rule(spec)
        rows.append(
            {
                "layer": f"k{spec.ksize}s{spec.stride} "
                f"{spec.in_channels}->{spec.out_channels}@{spec.in_h}",
                "algorithm": choice.algorithm,
                "reason": choice.reason,
            }
        )
    print(format_table(rows))
    return 0


def _split_prefixes(spec):
    if not spec:
        return None
    return [p.strip() for p in spec.split(",") if p.strip()]


def cmd_analyze(args) -> int:
    """``repro analyze``: static trace verification + estimator report.

    Exit code 0 means the lint/verifier/dataflow/oracle passes found
    nothing (and, with ``--baseline``, that the canonical report
    matches the committed reference); any finding or baseline drift
    returns 1, so CI can gate on it.
    """
    from .analysis import canonical_report, diff_documents, rule_rows
    from .analysis.baseline import load_baseline, write_baseline

    if args.list_rules:
        print(format_table(rule_rows(), title="analysis rules"))
        return 0

    from .analysis import filter_findings
    from .analysis.cachestate import cache_state_findings

    net = _NETS[args.net]()
    machine = _machine(args)
    report = net.analyze(
        machine, _policy(args), n_layers=args.layers, oracle=args.oracle,
        max_examples=args.max_examples,
        rules=_split_prefixes(args.rules),
        ignore=_split_prefixes(args.ignore),
    )
    report.findings.extend(
        filter_findings(
            cache_state_findings(),
            rules=_split_prefixes(args.rules),
            ignore=_split_prefixes(args.ignore),
        )
    )
    if args.as_json:
        print(report.to_json() if args.baseline is None
              else json.dumps(canonical_report(report), sort_keys=True))
    else:
        print(machine.describe())
        print()
        print(report.to_text())

    status = 0 if report.ok else 1
    if args.baseline is not None:
        doc = canonical_report(report)
        if args.update_baseline:
            write_baseline(args.baseline, doc)
            print(f"baseline written: {args.baseline}", file=sys.stderr)
        else:
            drift = diff_documents(load_baseline(args.baseline), doc)
            if drift:
                print(
                    f"report drifted from baseline {args.baseline} "
                    f"({len(drift)} differences):",
                    file=sys.stderr,
                )
                for line in drift[:200]:
                    print(f"  {line}", file=sys.stderr)
                status = status or 1
            else:
                print(f"baseline match: {args.baseline}", file=sys.stderr)
    return status


def cmd_check_code(args) -> int:
    """``repro check-code``: source-level invariant gate.

    Exit code 0 means every checked module honors the determinism,
    atomic-persistence, fork-safety, and knob-hygiene contracts (and,
    with ``--baseline``, that the findings document matches the
    committed reference).  Any finding — error or warning — returns 1:
    the gate is zero-findings, with per-line ``# reprolint:
    ignore[rule-id]`` comments as the only sanctioned escape hatch.
    """
    from pathlib import Path

    from .analysis import diff_documents, filter_findings, rule_rows
    from .analysis.baseline import load_baseline, write_baseline
    from .analysis.codecheck import CheckConfig, check_package, default_config

    if args.list_rules:
        rows = [r for r in rule_rows() if r["pass"] == "codecheck"]
        print(format_table(rows, title="code-invariant rules"))
        return 0

    if args.root is None:
        config = default_config()
    else:
        from .core.knobs import KNOBS

        config = CheckConfig(
            package_root=Path(args.root).resolve(),
            package=args.package,
            known_knobs=frozenset(KNOBS),
        )
    findings = filter_findings(
        check_package(config),
        rules=_split_prefixes(args.rules),
        ignore=_split_prefixes(args.ignore),
    )

    doc = {
        "package": config.package,
        "n_findings": len(findings),
        "findings": [f.as_dict() for f in findings],
        "ok": not findings,
    }
    if args.as_json:
        print(json.dumps(doc, sort_keys=True))
    elif findings:
        print(format_table(
            [f.as_row() for f in findings],
            title=f"code invariants: {len(findings)} finding(s)",
        ))
    else:
        print(f"code invariants: clean ({config.package})")

    status = 0 if not findings else 1
    if args.baseline is not None:
        if args.update_baseline:
            write_baseline(args.baseline, doc)
            print(f"baseline written: {args.baseline}", file=sys.stderr)
        else:
            drift = diff_documents(load_baseline(args.baseline), doc)
            if drift:
                print(
                    f"findings drifted from baseline {args.baseline} "
                    f"({len(drift)} differences):",
                    file=sys.stderr,
                )
                for line in drift[:200]:
                    print(f"  {line}", file=sys.stderr)
                status = status or 1
            else:
                print(f"baseline match: {args.baseline}", file=sys.stderr)
    return status


def cmd_knobs(args) -> int:
    """``repro knobs``: the declared environment-knob registry.

    Every ``REPRO_*`` variable the toolkit reads is declared in
    :mod:`repro.core.knobs`; ``check-code`` (``api/env-knob``,
    ``api/knob-undeclared``) keeps it that way.
    """
    from .core.knobs import knob_rows

    rows = knob_rows()
    if args.as_json:
        print(json.dumps(rows, sort_keys=True))
    else:
        print(format_table(rows, title="environment knobs"))
    return 0


def cmd_predict(args) -> int:
    """``repro predict``: static cost model over a captured trace.

    No simulation unless ``--oracle`` is given, in which case the trace
    is also replayed and the prediction drift-gated against the
    simulated cycles (``predict/cycles-drift`` / ``predict/below-floor``
    findings fail the run with exit code 1).
    """
    from .analysis import (
        DRIFT_BAND,
        check_predict_against_sim,
        predict_cycles,
        summarize_trace,
    )
    from .core import tracecache
    from .core.reporting import format_kv

    net = _NETS[args.net]()
    machine = _machine(args)
    trace, was_cached = tracecache.get_or_capture(
        net, machine, _policy(args), args.layers
    )
    pred = predict_cycles(summarize_trace(trace, machine), machine)

    band = args.band if args.band is not None else DRIFT_BAND
    findings, oracle_info = [], None
    if args.oracle:
        from .machine.replay import replay

        stats = replay(trace, machine)
        findings = check_predict_against_sim(
            pred, stats.cycles, where=net.name, band=band
        )
        oracle_info = {
            "simulated_mcycles": stats.cycles / 1e6,
            "predicted_mcycles": pred.cycles / 1e6,
            "predict_ratio": pred.cycles / stats.cycles if stats.cycles else 0.0,
            "band": band,
        }

    if args.as_json:
        print(json.dumps(
            {
                "net": net.name,
                "machine": machine.name,
                "trace_cached": was_cached,
                "predict": pred.as_dict(),
                "oracle": oracle_info,
                "findings": [f.as_dict() for f in findings],
                "ok": not findings,
            },
            sort_keys=True,
        ))
    else:
        print(machine.describe())
        print()
        head = {
            k: f"{v / 1e6:.3f}M" if k.endswith("cycles") or k == "flops"
            else f"{v:.4f}"
            for k, v in pred.as_dict().items()
            if k != "buffers" and isinstance(v, (int, float))
        }
        print(format_kv(f"static cost model: {net.name}", head))
        if pred.buffer_rows:
            print()
            print(format_table(
                pred.buffer_rows, title="predicted per-buffer traffic"
            ))
        if oracle_info is not None:
            print()
            print(format_kv("oracle (replayed simulation)", oracle_info))
        for f in findings:
            print(f"{f.rule}: {f.message}", file=sys.stderr)
    return 1 if findings else 0


def cmd_autotune(args) -> int:
    """``repro autotune``: block-size search for one GEMM shape."""
    from .core import autotune_blocks

    machine = _machine(args)
    best, ranking = autotune_blocks(
        machine, args.gemm_m, args.gemm_n, args.gemm_k, prune=args.prune
    )
    rows = [
        {
            "blocking": f"{r.blocks.m}x{r.blocks.n}x{r.blocks.k}",
            "mcycles": round(r.cycles / 1e6, 4),
            "predicted_mcycles": (
                round(r.predicted_cycles / 1e6, 4)
                if r.predicted_cycles is not None else ""
            ),
            "source": r.source,
        }
        for r in ranking
    ]
    if args.as_json:
        print(json.dumps(
            {
                "machine": machine.name,
                "gemm": {"M": args.gemm_m, "N": args.gemm_n, "K": args.gemm_k},
                "best": {"m": best.m, "n": best.n, "k": best.k},
                "prune": args.prune,
                "simulated": sum(1 for r in ranking if r.source == "simulated"),
                "ranking": rows,
            },
            sort_keys=True,
        ))
    else:
        n_sim = sum(1 for r in ranking if r.source == "simulated")
        print(format_table(
            rows,
            title=f"autotune {args.gemm_m}x{args.gemm_n}x{args.gemm_k} on "
                  f"{machine.name}: best {best.m}x{best.n}x{best.k} "
                  f"({n_sim}/{len(ranking)} simulated)",
        ))
    return 0


def cmd_trace_cache(args) -> int:
    """``repro trace-cache``: report on (and clean up) cache artifacts.

    Covers both cache families: spilled traces (``.rtz``) and compiled
    point-pass tiers (``.rvp``).  ``list`` is header-only and cheap;
    ``verify`` fully decodes every container, recomputing the sha256
    payload digest; ``gc`` deletes stale-format and foreign files and
    tiers orphaned by a pruned or re-captured trace (all regenerable by
    any sweep) and *quarantines* corrupt ones — the same
    never-served-twice semantics the loader applies (see
    repro.core.resilience).  Exit code 1 when any file is corrupt.
    """
    from pathlib import Path

    from .core import tracecache
    from .core.resilience import quarantine
    from .machine.trace import TRACE_FORMAT_VERSION

    #: Decoded columnar bytes per event (op+w+kid+i0..i3+f0) — the
    #: denominator-free way to report a compression ratio from headers.
    row_bytes = 53
    directory = Path(tracecache.spill_dir())
    try:
        children = sorted(directory.iterdir())
    except OSError:
        children = []
    entries = []
    trace_digest: dict = {}  # live trace key -> content sha256
    n_tiers: dict = {}  # trace key -> compiled tiers bound to it
    for child in children:
        if not child.is_file():
            continue
        name, path = child.name, str(child)
        info = tracecache.split_cache_filename(name)
        entries.append((name, path, info))
        if info is None:
            continue
        if info["kind"] == "trace":
            try:
                hdr = tracecache.read_header(path)
            except Exception:
                hdr = {}
            trace_digest[info["key"]] = hdr.get("sha256")
        else:
            n_tiers[info["key"]] = n_tiers.get(info["key"], 0) + 1
    rows, n_corrupt, freed = [], 0, 0
    for name, path, info in entries:
        size = Path(path).stat().st_size
        kind = info["kind"] if info is not None else "foreign"
        row = {"file": name, "kind": kind, "kb": round(size / 1024.0, 1)}
        header, status = None, "ok"
        if info is None:
            # A pre-v4 spill (.npz), a shared pass (.rpp) from a version
            # that persisted them, or another foreign leftover.
            status = "stale"
        elif kind == "trace":
            try:
                header = tracecache.read_header(path)
                row["v"] = header.get("format")
                if header.get("format") != TRACE_FORMAT_VERSION:
                    status = "stale"
            except Exception:
                status = "corrupt"
            if header is not None:
                n = int(header.get("n_events", 0))
                row["events"] = n
                row["ratio"] = round(n * row_bytes / size, 1) if size else 0.0
                row["digest"] = "yes" if header.get("sha256") else "missing"
                row["tiers"] = n_tiers.get(info["key"], 0)
        else:
            try:
                header = tracecache.read_pass_header(path)
                row["v"] = header.get("format")
                if header.get("format") != tracecache.VECPROG_FORMAT_VERSION:
                    status = "stale"
            except Exception:
                status = "corrupt"
            if status == "ok":
                live = trace_digest.get(info["key"])
                if live is None:
                    # The trace this tier derives from is gone (pruned,
                    # quarantined, or never spilled here): regenerable
                    # dead weight.
                    status = "orphan"
                elif header.get("trace_sha256") != live:
                    status = "stale"  # derivative of a re-captured trace
        if args.action in ("verify", "gc") and status == "ok":
            # Full decode recomputes the payload digest — header-only
            # parsing cannot see a bit-flip inside a column block.
            try:
                if kind == "trace":
                    tracecache.load_compressed(path)
                else:
                    tracecache.decode_vecprog(Path(path).read_bytes())
                row["digest"] = "verified"
            except Exception:
                status = "corrupt"
        if args.action == "gc" and status != "ok":
            if status == "corrupt":
                quarantine(path, "trace-cache gc: unreadable container")
                status = "quarantined"
            else:
                try:
                    Path(path).unlink()
                except OSError:
                    pass
                status = "removed"
            freed += size
        if status == "corrupt":
            n_corrupt += 1
        row["status"] = status
        rows.append(row)
    summary = {
        "dir": str(directory),
        "files": len(rows),
        "total_kb": round(sum(r["kb"] for r in rows), 1),
        "corrupt": n_corrupt,
    }
    if args.action == "gc":
        summary["freed_kb"] = round(freed / 1024.0, 1)
    if args.as_json:
        print(json.dumps({"summary": summary, "files": rows}, sort_keys=True))
    else:
        if rows:
            print(format_table(rows, title=f"trace cache: {directory}"))
        else:
            print(f"trace cache empty: {directory}")
        parts = [f"{summary['files']} file(s)", f"{summary['total_kb']} KB"]
        if args.action == "gc":
            parts.append(f"freed {summary['freed_kb']} KB")
        if n_corrupt:
            parts.append(f"{n_corrupt} corrupt")
        print("  " + ", ".join(parts))
    return 1 if n_corrupt else 0


def _points_doc(stats_list, sources) -> List[dict]:
    """The ``points`` JSON array shared by ``sweep --json``, ``submit
    --json`` and ``results --json`` — one shape, so chaos tests can
    diff results bitwise across commands."""
    from .core.resilience import PointFailure, stats_payload

    out = []
    for s, src in zip(stats_list, sources):
        if isinstance(s, PointFailure) or src == "failed":
            out.append({
                "source": "failed",
                "failure": {"error": s.error, "exc_type": s.exc_type,
                            "attempts": s.attempts},
            })
        else:
            out.append({"source": src, "stats": stats_payload(s)})
    return out


def _resolve_job(token: str) -> Optional[str]:
    from .service import jobs as jobstore

    job_id = jobstore.resolve(token)
    if job_id is None:
        print(f"no unique job matches {token!r} (see 'repro jobs list')",
              file=sys.stderr)
    return job_id


def _job_row(record) -> dict:
    """One display row per job: record state + lease + seal."""
    from .core.resilience import load_sealed
    from .service import jobs as jobstore

    row = record.as_row()
    row["lease"] = jobstore.lease_state(record.job_id)[0]
    row["sealed"] = load_sealed(record.sweep_key, record.n_points) is not None
    row["cancel"] = jobstore.cancel_requested(record.job_id)
    return row


def cmd_submit(args) -> int:
    """``repro submit``: run a sweep as a durable, deduplicated job."""
    from .service import scheduler

    if _resolve_sweep(args, "submit") is None:
        return 2
    spec = scheduler.spec_from_args(args)
    outcome = scheduler.submit_and_run(
        spec, wait=args.wait, jobs=args.jobs, retry=_sweep_retry(args),
        max_failures=args.max_failures,
    )
    doc = {
        "job": outcome.job_id,
        "state": outcome.state,
        "attached": outcome.attached,
        "adopted": outcome.adopted,
        "sealed": outcome.sealed,
    }
    if outcome.error:
        doc["error"] = outcome.error
    if outcome.result is not None:
        doc["axis_name"] = outcome.result.axis_name
        doc["axis"] = outcome.result.axis
        doc["points"] = _points_doc(outcome.result.stats, outcome.result.sources)
    if args.as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        flags = [k for k in ("attached", "adopted", "sealed") if doc[k]]
        print(f"job {outcome.job_id}: {outcome.state}"
              + (f" ({', '.join(flags)})" if flags else ""))
        if outcome.error:
            print(f"  {outcome.error}", file=sys.stderr)
        if outcome.result is not None:
            print(format_table(outcome.result.as_rows()))
    return 0 if outcome.state in ("done", "queued", "running") else 1


def cmd_status(args) -> int:
    """``repro status``: job state, lease, progress — no simulation."""
    from .core.resilience import Journal
    from .service import jobs as jobstore

    if args.job is None:
        rows = [_job_row(r) for r in jobstore.list_jobs()]
        if args.as_json:
            print(json.dumps({"jobs": rows}, sort_keys=True))
        elif rows:
            print(format_table(rows, title="durable jobs"))
        else:
            print(f"job store empty: {jobstore.jobs_dir()}")
        return 0
    job_id = _resolve_job(args.job)
    if job_id is None:
        return 2
    record = jobstore.load(job_id)
    journal = Journal.status(record.sweep_key, record.n_points)
    doc = _job_row(record)
    doc["journal"] = len(journal.completed)
    doc["journal_failed"] = len(journal.failed)
    doc["owner"] = record.owner
    if record.error:
        doc["error"] = record.error
    if args.as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(format_table([doc], title=f"job {job_id}"))
    return 0


def cmd_results(args) -> int:
    """``repro results``: a job's answers from durable state only.

    Served from the sealed record when the grid is compacted, else
    from the live journal (possibly partial).  Never simulates; exit
    code 1 when any point is still missing or failed.
    """
    from .core.resilience import (
        Journal,
        load_sealed,
        stats_from_payload,
    )
    from .service import jobs as jobstore

    job_id = _resolve_job(args.job)
    if job_id is None:
        return 2
    record = jobstore.load(job_id)
    n = record.n_points
    sealed = load_sealed(record.sweep_key, n)
    if sealed is not None:
        stats_list = [stats_from_payload(p) for p in sealed["points"]]
        sources = ["sealed"] * n
        missing: List[int] = []
    else:
        journal = Journal.status(record.sweep_key, n)
        stats_list, sources, missing = [], [], []
        for i in range(n):
            if i in journal.completed:
                s, src = journal.completed[i]
                stats_list.append(s)
                sources.append(src if src == "failed" else "journal")
            else:
                missing.append(i)
    doc = {
        "job": job_id,
        "state": record.state,
        "sealed": sealed is not None,
        "points_total": n,
        "points_available": n - len(missing),
        "points": _points_doc(stats_list, sources),
    }
    complete = not missing and "failed" not in sources
    if args.as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        axis = record.spec.get("axis", "value")
        values = record.spec.get("values") or list(range(n))
        rows = [
            {axis: values[i] if i < len(values) else i, "cycles": s.cycles,
             "source": src}
            for i, (s, src) in enumerate(zip(stats_list, sources))
            if src != "failed"
        ]
        if rows:
            print(format_table(rows, title=f"job {job_id} ({record.state})"))
        print(f"  {doc['points_available']}/{n} point(s) available"
              + (" [sealed]" if doc["sealed"] else ""))
    return 0 if complete else 1


def cmd_cancel(args) -> int:
    """``repro cancel``: durable cancellation intent for one job."""
    from .service import jobs as jobstore

    job_id = _resolve_job(args.job)
    if job_id is None:
        return 2
    state = jobstore.request_cancel(job_id)
    if args.as_json:
        print(json.dumps({"job": job_id, "state": state}, sort_keys=True))
    else:
        print(f"job {job_id}: {state}")
    return 0


def cmd_jobs(args) -> int:
    """``repro jobs``: store-wide listing and garbage collection."""
    from .service import jobs as jobstore

    if args.action == "list":
        rows = [_job_row(r) for r in jobstore.list_jobs()]
        if args.as_json:
            print(json.dumps({"jobs": rows}, sort_keys=True))
        elif rows:
            print(format_table(rows, title=f"job store: {jobstore.jobs_dir()}"))
        else:
            print(f"job store empty: {jobstore.jobs_dir()}")
        return 0
    actions = jobstore.gc_state(dry_run=args.dry_run)
    freed = sum(a["bytes"] for a in actions)
    summary = {
        "actions": len(actions),
        "freed_kb": round(freed / 1024.0, 1),
        "dry_run": args.dry_run,
    }
    if args.as_json:
        print(json.dumps({"summary": summary, "actions": actions},
                         sort_keys=True))
    else:
        if actions:
            print(format_table(
                [{k: a[k] for k in ("kind", "action", "reason", "path")}
                 for a in actions],
                title="job-store gc",
            ))
        verb = "would free" if args.dry_run else "freed"
        print(f"  {len(actions)} action(s), {verb} {summary['freed_kb']} KB")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "roofline": cmd_roofline,
    "profile": cmd_profile,
    "select": cmd_select,
    "analyze": cmd_analyze,
    "predict": cmd_predict,
    "autotune": cmd_autotune,
    "trace-cache": cmd_trace_cache,
    "check-code": cmd_check_code,
    "knobs": cmd_knobs,
    "submit": cmd_submit,
    "status": cmd_status,
    "results": cmd_results,
    "cancel": cmd_cancel,
    "jobs": cmd_jobs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
