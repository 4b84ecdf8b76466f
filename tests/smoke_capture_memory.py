#!/usr/bin/env python
"""Paper-scale memory guard: one cold 20-layer yolov3 capture at VL 16384.

Runs the cold path of one Fig. 6 point in this process: a
``sweep_vector_lengths`` over the single vector length 16384 on
``rvv_gem5`` (8 lanes, 1 MB L2), 3-loop GEMM, all 20 layers, with trace
spilling on into an empty scratch directory.  The kernel run records
the trace and spills it, the shared pass runs over it, and the point's
walk tier is built, stored and priced.  The process's peak resident set
(``ru_maxrss``, interpreter and NumPy included) must stay at or under
``--max-rss-mb``, 350 MB by default.

Run it in a fresh process, as CI does::

    python tests/smoke_capture_memory.py --bench bench_paper_figures.json

It prints one ``BENCH`` line, and with ``--bench`` also adds its peak
and time under ``capture_vl16384`` to the JSON row in that file.  Exits
1 when the peak is over the bound or the point was not captured.
Deliberately not named ``test_*.py``: pytest must not collect it.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import sweep_vector_lengths  # noqa: E402
from repro.machine import rvv_gem5  # noqa: E402
from repro.nets import KernelPolicy, yolov3  # noqa: E402

VLEN = 16384
N_LAYERS = 20


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-rss-mb", type=float, default=350.0)
    ap.add_argument("--bench", help="JSON row to add the result to")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        os.environ.update(
            REPRO_TRACE_SPILL="1", REPRO_TRACE_DIR=scratch,
            REPRO_SIMCACHE_DIR=scratch,
        )
        t0 = time.perf_counter()
        res = sweep_vector_lengths(
            yolov3(), [VLEN], lambda v: rvv_gem5(vlen_bits=v, lanes=8, l2_mb=1),
            KernelPolicy(gemm="3loop"), n_layers=N_LAYERS, use_cache=False,
        )
        seconds = round(time.perf_counter() - t0, 3)
    peak = round(peak_rss_mb(), 1)
    row = {
        "bench": "capture_vl16384", "n_layers": N_LAYERS,
        "sources": res.sources, "cycles": res.stats[0].cycles.hex(),
        "seconds": seconds, "peak_rss_mb": peak, "max_rss_mb": args.max_rss_mb,
    }
    print("BENCH " + json.dumps(row, sort_keys=True))
    if args.bench:
        with open(args.bench) as fh:
            bench = json.load(fh)
        bench["capture_vl16384"] = {"seconds": seconds, "peak_rss_mb": peak}
        with open(args.bench, "w") as fh:
            json.dump(bench, fh, sort_keys=True)
            fh.write("\n")
    if res.sources != ["captured"]:
        print(f"expected one captured point, got sources={res.sources}")
        return 1
    if peak > args.max_rss_mb:
        print(f"peak RSS {peak} MB is over the {args.max_rss_mb} MB bound")
        return 1
    print(f"capture memory guard OK: {peak} MB in {seconds}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
