"""The benchmark counts a failed op against its workload, and a run whose
failure share rises is refused; an op that starts to fail must fail here,
not only in a timed run.  The workloads are loaded read-only from
perfbench/workloads.py and run in-process, as the benchmark runs them."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def failures(workload, ops):
    """Failure reasons of ops 0..ops-1, and the ops that failed."""
    results = [workload.run_op(k) for k in range(ops)]
    assert not [r.violation for r in results if r.violation]
    assert not workload.run_level_checks(results)
    failed = {k: r.reason for k, r in enumerate(results) if not r.verified}
    return Counter(failed.values()), sorted(failed)


def test_ellipsoid_spectrum_fails_none(tmp_path):
    workloads = load_workloads()
    workload = workloads.EllipsoidSpectrum(1, workloads.CliRunner(
        str(tmp_path)))
    assert failures(workload, 20) == (Counter(), [])


def test_series_period_bound_fails_only_corpus_2(tmp_path):
    # no seed converges on the third corpus surface at 2 seeds
    workloads = load_workloads()
    workload = workloads.SeriesPeriodBound(1, workloads.CliRunner(
        str(tmp_path)))
    assert failures(workload, workload.CYCLE) == (
        Counter({"zero_converged": 1}), [2])
