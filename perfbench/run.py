"""reebpinch benchmark runner.

    python3 perfbench/run.py --workload ellipsoid-spectrum --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  ``--workload all`` runs
every workload in turn.  Workloads, metrics and bounds are declared in
BENCHMARK.json; perfbench/README.md explains them.

Each run starts fresh worker processes (worker.py) with a pinned
environment: ``REEBPINCH_THREADS`` unset, BLAS/OpenMP pools at one thread,
``PYTHONPATH`` set to ``src`` alone.  Set-up time is the median over
several process starts.  Human-readable lines come first; the last line of
standard output is the JSON result.  The exit code is 0 only when every
correctness and byte-identity check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("ellipsoid-spectrum", "series-period-bound", "profile-connect")
SETUP_SAMPLES = 3          # process starts timed per untraced run
DEADLINE_S = 170.0         # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")


class RunError(RuntimeError):
    """A worker failed; the run prints no result."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REEBPINCH_THREADS", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, work_dir: str, deadline: float, setup_only: bool) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:     # timed out, or this process was stopped
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    """All processes of one run; returns the worker's result plus the
    median set-up time."""
    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(HERE, "_work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(spawn(args, work_dir, deadline, True)["setup_s"])
        result = spawn(args, work_dir, deadline, False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass                # another run still uses it
    samples.append(result["setup_s"])
    result["setup_samples"] = samples
    result["setup_s"] = statistics.median(samples)
    result["correct"] = result["identity_ok"] and not result["violations"]
    return result


def report(name: str, r: dict) -> None:
    """Human-readable lines: every end-to-end metric with its unit, the
    failure breakdown and the correctness verdict."""
    v = r["versions"]
    print(f"== {name}: python {v['python']}, numpy {v['numpy']}, scipy "
          f"{v['scipy']}, nproc {v['nproc']}, REEBPINCH_THREADS unset, "
          f"BLAS/OpenMP threads 1")
    print(f"setup_s          {r['setup_s']:.4f} s  (median of "
          f"{len(r['setup_samples'])} process starts)")
    print(f"verified_per_s   {r['verified_per_s']:.4f} 1/s  "
          f"({r['attempted'] - r['failed']} verified in {r['busy_s']:.2f} s "
          f"of program time)")
    print(f"op_p50_s         {r['op_p50_s']:.4f} s")
    if r["op_tail"]:
        p, secs, n = r["op_tail"]
        print(f"op_tail_s        {secs:.4f} s  (p{p} of {n} verified ops)")
    else:
        print(f"op_tail_s        n/a  ({r['attempted'] - r['failed']} "
              "verified ops; needs 11)")
    if r["seeds_per_s"]:
        print(f"seeds_per_s      {r['seeds_per_s']:.4f} 1/s")
    reasons = ", ".join(f"{k}={n}" for k, n in r["reasons"].items()) or "none"
    print(f"fail_share       {r['failed'] / r['attempted']:.4f}  "
          f"({r['failed']}/{r['attempted']}; {reasons})")
    print(f"peak_rss_mb      {r['peak_rss_mb']:.1f} MB")
    labels = ", ".join(f"{k} {ok}/{n}" for k, (ok, n) in r["labels"].items())
    print(f"verified by input: {labels}")
    if "per_layer" in r:
        for key, value in r["per_layer"].items():
            print(f"  {key} {value:.6g}")
    print(f"byte identity: {'ok' if r['identity_ok'] else 'FAILED'} "
          f"({r['identity']})")
    for problem in r["violations"]:
        print(f"violation: {problem}")
    print(f"verdict {name}: {'correct' if r['correct'] else 'INCORRECT'}")


def contract_line(r: dict, spec: dict, trace: int) -> dict:
    """The result line: every metric BENCHMARK.json lists for this mode."""
    source = r["per_layer"] if trace else r
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in declared}
    return {"correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running worker is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "reebpinch")):
        print(f"no reebpinch sources under {ROOT}/src", file=sys.stderr)
        return 1

    with open(SPEC_FILE) as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        args.workload = name
        try:
            result = run_workload(args)
        except RunError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        report(name, result)
        lines[name] = contract_line(result, spec, args.trace)
    if len(lines) == 1:
        (line,) = lines.values()
    else:
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()),
                "metrics": {f"{name}.{k}": m for name, l in lines.items()
                            for k, m in l["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
