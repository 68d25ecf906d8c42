"""One benchmark process, started by run.py with a pinned environment.

Set-up (imports, the common warm-up, building the workload) is timed from
the moment run.py spawned this process.  Then the workload's ops run in a
closed loop until ``--seconds`` of program time have been spent, every output
is checked, and one CLI command is repeated to check that its report is
byte-identical.  With ``--trace 1`` the warm-up and the same ops are replayed
under the per-layer tracer.  The result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before spawning")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def tail_latency(latencies):
    """Highest whole percentile with at least 10 samples above it, as
    (percentile, seconds), or None when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)          # nearest-rank percentile
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def timed_loop(workload, seconds: float):
    """Run ops in whole cycles of the workload's inputs, so every run sees
    the same mix, stopping at the cycle boundary closest to ``seconds`` of
    program time (after at least one cycle).  The wall cap only guards the
    process deadline."""
    results, busy, k = [], 0.0, 0
    wall_cap = time.monotonic() + 3.0 * seconds + 30.0
    while time.monotonic() < wall_cap:
        result = workload.run_op(k)
        results.append(result)
        busy += result.latency_s
        k += 1
        if k % workload.CYCLE == 0:
            per_cycle = busy / (k // workload.CYCLE)
            if busy + per_cycle / 2 >= seconds:
                break
    return results


def byte_identity(workload, runner):
    """Run a CLI command again and compare the report's sha256 with an
    earlier run of the identical command in this process."""
    argv = workload.identity_argv()
    if argv is None:
        return False, "no CLI report to repeat"
    earlier = [sha for seen, sha in workload.reports if seen == argv]
    shas = earlier[:1]
    while len(shas) < 2:
        call = runner(argv)
        runner.cleanup(call)
        if call.sha256 is None:
            return False, f"{argv[0]} wrote no report (exit {call.code})"
        shas.append(call.sha256)
    ok = shas[0] == shas[1]
    return ok, f"{argv[0]} sha256 {shas[0][:16]}" + (
        "" if ok else f" != {shas[1][:16]}")


def summarize(results, seconds_setup: float):
    busy = sum(r.latency_s for r in results)
    verified = [r.latency_s for r in results if r.verified]
    reasons = Counter(r.reason for r in results if not r.verified)
    labels = Counter()
    for r in results:
        labels[r.label, r.verified] += 1
    tail = tail_latency(verified)
    return {
        "attempted": len(results),
        "failed": len(results) - len(verified),
        "reasons": dict(sorted(reasons.items())),
        "labels": {label: [labels[label, True],
                           labels[label, True] + labels[label, False]]
                   for label in sorted({lab for lab, _ in labels})},
        "busy_s": busy,
        "setup_s": seconds_setup,
        "verified_per_s": len(verified) / busy if busy else 0.0,
        "op_p50_s": statistics.median(verified) if verified else 0.0,
        "op_tail": None if tail is None else [tail[0], tail[1], len(verified)],
        "seeds_per_s": sum(r.seeds for r in results) / busy if busy else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy
    import scipy
    import reebpinch
    where = os.path.realpath(os.path.dirname(reebpinch.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        print(f"reebpinch imported from {where}, not from {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CliRunner, warm_up

    runner = CliRunner(args.work_dir)
    warm_up(runner)
    workload = WORKLOADS[args.workload](args.seed, runner)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results = timed_loop(workload, args.seconds)
    out = summarize(results, setup_s)
    violations = [r.violation for r in results if r.violation]
    violations += workload.run_level_checks(results)
    if out["attempted"] == out["failed"]:
        violations.append("no op verified")
    identity_ok, identity_note = byte_identity(workload, runner)
    out.update({
        "violations": violations,
        "identity_ok": identity_ok,
        "identity": identity_note,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "nproc": len(os.sched_getaffinity(0))},
    })

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        runner.bytes_written = 0
        tracer.install()
        try:
            warm_up(runner)
            replay = [workload.run_op(k) for k in range(len(results))]
        finally:
            tracer.uninstall()
        for k, (a, b) in enumerate(zip(results, replay)):
            if (a.verified, a.reason) != (b.verified, b.reason):
                violations.append(f"op {k} not deterministic: "
                                  f"{a.reason} then {b.reason}")
        overhead = (sum(r.latency_s for r in replay) / out["busy_s"] - 1.0
                    if out["busy_s"] else 0.0)
        out["per_layer"] = tracer.metrics(runner.bytes_written, overhead)

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
