"""Benchmark of the three routes to the ring-TASEP stationary polynomials.

    python3 perfbench/run.py --workload solve-n5 --seed 1 --seconds 25 --trace 0

Runs one workload for `--seconds` seconds of item time, checks every
item's output, and prints one JSON object as its last line of output:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  Full results and trace spans go to `perfbench/out/`.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter

from source import use_checkout_source
from workloads import OUT, WORKLOADS, Deadline

SETUP_PROBES = 5


@contextmanager
def alarm(limit: float | None):
    """Raise Deadline in the item when `limit` seconds have passed."""
    if limit is None:
        yield
        return
    def expire(signum, frame):
        raise Deadline
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(limit, 1e-6))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def measure(wl, budget: float, tracer=None) -> dict:
    """Closed loop: items run one after another until `budget` seconds of
    item time are spent.  An item cut off by the deadline counts neither
    time nor an attempt.  The first item always runs to its end, so every
    run has at least one."""
    times, errors, failed = [], [], 0
    while not times or sum(times) < budget:
        limit = budget - sum(times) if times else None
        inp = wl.prepare()
        mark = tracer.mark() if tracer else None
        try:
            with alarm(limit if wl.in_process else None):
                with tracer.span("item") if tracer else nullcontext():
                    t0 = perf_counter()
                    out = wl.run(inp, limit, tracer)
                    dt = perf_counter() - t0
        except Deadline:
            if tracer:
                tracer.rollback(mark)
            break
        times.append(dt)
        found = wl.check(inp, out)
        del out  # or the next item's output would be built beside this one
        if found:
            failed += 1
            errors += found
    return {"times": times, "failed": failed, "errors": errors[:20]}


def setup_seconds(argv: list[str]) -> list[float]:
    """Wall time of fresh processes that only set the workload up."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        out.append(perf_counter() - t0)
    return out


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the workload and exit (a set-up probe)")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    use_checkout_source()
    wl = WORKLOADS[args.workload]()
    if args.setup_only:
        wl.setup(args.seed)
        return 0

    OUT.mkdir(exist_ok=True)
    probes = [] if args.trace else setup_seconds(
        wl.probe_argv(args.workload, args.seed))
    wl.setup(args.seed)
    input_errors = wl.verify_inputs()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracing import Tracer, per_layer
        plain = measure(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = measure(wl, args.seconds / 2, tracer)
        runs = [plain, traced]
        plain_ips = len(plain["times"]) / sum(plain["times"])
        traced_ips = len(traced["times"]) / sum(traced["times"])
        metrics = {k: (v, unit_of(k)) for k, v in
                   per_layer(tracer, len(traced["times"])).items()}
        metrics["trace.untraced_items_per_s"] = (plain_ips, "1/s")
        metrics["trace.items_per_s"] = (traced_ips, "1/s")
        metrics["trace.overhead_share"] = (1 - traced_ips / plain_ips, "share")
        tracer.write(OUT / f"{stem}.spans.csv.gz")
    else:
        res = measure(wl, args.seconds)
        runs = [res]
        times = res["times"]
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "items_per_s": (len(times) / sum(times), "1/s"),
            "item_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb(wl), "MiB"),
        }
    attempted = sum(len(r["times"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = input_errors + [e for r in runs for e in r["errors"]]
    result = {
        "correct": failed == 0 and not input_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "item_s": [r["times"] for r in runs],
              "setup_probes_s": probes, "errors": errors,
              "python": platform.python_version(), "cores": os.cpu_count()}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for e in errors:
        print("check failed:", e, file=sys.stderr)
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric == "chain.solves_per_point":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
