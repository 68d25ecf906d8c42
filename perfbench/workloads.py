"""The benchmark's three workloads and their per-op correctness checks.

Each workload turns the benchmark seed into an endless, deterministic list of
inputs (op ``k`` depends only on ``(seed, k)``), runs one op at a time in a
closed loop, and checks every output.  An op ends in one of three ways:

* verified: the program's outputs passed the benchmark's own checks;
* failed, with a named reason: the program refused the input or its own
  verdict was negative (these are program defects or limits, counted against
  attempts and never dropped);
* violation: the program claimed success but the output is wrong.  A
  violation makes the whole run incorrect.

Only the calls into the program are timed; reading reports and checking them
is the benchmark's own work and stays outside each op's latency.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.stats import qmc

from reebpinch import cli
from reebpinch import contact_dynamics as cd
from reebpinch import orbit_search as osr
from reebpinch import radial_profile as rp

BASE_TRIPLE = (1.5, 0.5, 0.8)
# Acceptance numbers of the base triple (README, ROADMAP).
BASE_B = 0.934123
BASE_WIDTH = 0.347298
BASE_R0B = 1.401184


def derived_seed(seed: int, k: int) -> int:
    """Deterministic 31-bit seed for op k of a run seeded with ``seed``."""
    state = np.random.SeedSequence((seed, k)).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


@dataclass
class OpResult:
    """Outcome of one op; ``latency_s`` covers the program calls only."""

    latency_s: float = 0.0
    verified: bool = False
    reason: Optional[str] = None       # failure reason when not verified
    violation: Optional[str] = None    # claimed success, wrong output
    seeds: int = 0                     # multistart seeds searched
    label: str = ""                    # which input kind (for the report)

    def fail(self, reason: str) -> "OpResult":
        self.reason = reason
        return self

    def violate(self, what: str) -> "OpResult":
        self.violation = what
        self.reason = "violation"
        return self


@dataclass
class CliCall:
    argv: List[str]
    code: Optional[int]          # None when an exception escaped main
    seconds: float
    report: Optional[dict]
    sha256: Optional[str]
    stderr: str
    escaped: Optional[str]       # type name of an exception escaping main
    out_dir: str
    files: dict = field(default_factory=dict)   # name -> bytes on disk


class CliRunner:
    """Runs ``cli.main`` in-process, one fresh output directory per call.

    The CLI's stdout and stderr are captured so that the benchmark's own
    standard output stays machine-readable.  ``bytes_written`` sums the size
    of every file the CLI leaves in its output directory.
    """

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.calls = 0
        self.bytes_written = 0

    def __call__(self, argv: List[str]) -> CliCall:
        out = os.path.join(self.work_dir, f"cli-{self.calls}")
        self.calls += 1
        sink_out, sink_err = io.StringIO(), io.StringIO()
        escaped = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink_out), \
                    contextlib.redirect_stderr(sink_err):
                code = cli.main(argv + ["--out", out])
        except Exception as exc:   # a traceback escaping main is a failure
            code, escaped = None, type(exc).__name__
            sink_err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - t0
        call = CliCall(argv, code, seconds, None, None, sink_err.getvalue(),
                       escaped, out)
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                path = os.path.join(out, name)
                call.files[name] = os.path.getsize(path)
                if name.endswith(f"_{argv[0]}.json"):
                    with open(path, "rb") as fh:
                        raw = fh.read()
                    call.sha256 = hashlib.sha256(raw).hexdigest()
                    call.report = json.loads(raw)
            self.bytes_written += sum(call.files.values())
        return call

    def path(self, call: CliCall, suffix: str) -> Optional[str]:
        for name in call.files:
            if name.endswith(suffix):
                return os.path.join(call.out_dir, name)
        return None

    def cleanup(self, call: CliCall) -> None:
        shutil.rmtree(call.out_dir, ignore_errors=True)


def cli_failure(call: CliCall) -> Optional[str]:
    """Failure reason of a CLI call that did not exit 0 (None if it did)."""
    if call.escaped is not None:
        return "uncaught"
    if call.code == 0:
        return None
    if call.code == 3:
        return "not_applicable"
    if call.code == 1:
        if "gap certificate failed" in call.stderr:
            return "gap_nonpositive"
        if call.argv[0] == "profile-build":
            # the only error a build of an admissible triple maps to exit 1
            return "BuildError"
        return "error_exit"
    return "check_failed"


def library_failure(exc: Exception) -> str:
    """Failure reason of an exception raised by a library call."""
    if isinstance(exc, RuntimeError) and "integration failed" in str(exc):
        return "IntegrationError"
    if isinstance(exc, ValueError) and "r/f spread" in str(exc):
        return "check_failed"         # not a 1-periodic Hamiltonian orbit
    return type(exc).__name__


class Workload:
    """Base class: ``run_op(k)`` runs op k of the run's input sequence."""

    name = ""
    CYCLE = 1   # the timed loop ends on a multiple of CYCLE ops

    def __init__(self, seed: int, runner: CliRunner):
        self.seed = seed
        self.runner = runner
        # (argv, sha256) of every CLI report seen, for the byte-identity check
        self.reports: List[tuple] = []

    def run_op(self, k: int) -> OpResult:
        raise NotImplementedError

    def run_level_checks(self, results: List[OpResult]) -> List[str]:
        """Checks over the whole run; returns the violations found."""
        return []

    def identity_argv(self) -> Optional[List[str]]:
        """A CLI command to repeat for the byte-identity check."""
        return self.reports[0][0] if self.reports else None

    def _cli(self, argv: List[str], op: OpResult) -> CliCall:
        call = self.runner(argv)
        op.latency_s += call.seconds
        if call.sha256 is not None:
            self.reports.append((argv, call.sha256))
        return call


# ---------------------------------------------------------------------------
# ellipsoid-spectrum
# ---------------------------------------------------------------------------

def ellipsoid_simple_actions(radii) -> List[float]:
    """Actions of the simple closed orbits of E(radii) from the analytic
    oracle: the coordinate circles, action pi r_j^2."""
    entries, _ = osr.ellipsoid_oracle(radii, math.pi * max(radii) ** 2 + 1e-9)
    return sorted(e.action for e in entries if e.iterate == 1)


class EllipsoidSpectrum(Workload):
    """``verify-ellipsoid`` commands on E(1,1.2) and E(1,1.1,1.3)."""

    name = "ellipsoid-spectrum"
    # (radii, multistart seeds per command), alternating.  With 12 seeds
    # each both commands take about 3.7 s at the parent commit, so op
    # latencies form one mode.  At 8 seeds, 2 of 42 commands missed an
    # orbit, and each miss moved its run's verified_per_s by 12%.
    SPECS = (((1.0, 1.2), 12), ((1.0, 1.1, 1.3), 12))
    CYCLE = len(SPECS)

    def __init__(self, seed: int, runner: CliRunner):
        super().__init__(seed, runner)
        self.oracle = {radii: ellipsoid_simple_actions(radii)
                       for radii, _ in self.SPECS}
        self.verified_specs = set()

    def argv(self, k: int) -> List[str]:
        radii, seeds = self.SPECS[k % len(self.SPECS)]
        return ["verify-ellipsoid", "--radii", ",".join(map(repr, radii)),
                "--seeds", str(seeds), "--rng-seed",
                str(derived_seed(self.seed, k))]

    def run_op(self, k: int) -> OpResult:
        radii, _ = self.SPECS[k % len(self.SPECS)]
        op = OpResult(label=f"E{radii}")
        call = self._cli(self.argv(k), op)
        try:
            return self._judge(call, radii, op)
        finally:
            self.runner.cleanup(call)

    def _judge(self, call: CliCall, radii, op: OpResult) -> OpResult:
        rep = call.report
        if rep is not None and rep.get("search"):
            op.seeds = int(rep["search"]["seeds"])
        reason = cli_failure(call)
        oracle = self.oracle[radii]
        found = sorted(o["action"] for o in rep["orbits"]) if rep else []
        matched = len(found) == len(oracle) and all(
            abs(a - b) <= 1e-6 * b for a, b in zip(found, oracle))
        if reason is None:
            if not matched:
                return op.violate(f"E{radii}: exit 0 but actions {found} "
                                  f"!= oracle {oracle}")
            op.verified = True
            self.verified_specs.add(radii)
            return op
        if reason == "check_failed" and rep is not None:
            if rep["search"] and rep["search"]["converged"] == 0:
                return op.fail("zero_converged")
            return op.fail("oracle_mismatch")
        return op.fail(reason)

    def run_level_checks(self, results):
        attempted = {self.SPECS[k % len(self.SPECS)][0]
                     for k in range(len(results))}
        return [f"no verified op for E{radii}"
                for radii in sorted(attempted - self.verified_specs)]


# ---------------------------------------------------------------------------
# series-period-bound
# ---------------------------------------------------------------------------

def series_corpus(count: int) -> List[list]:
    """Term lists of the acceptance corpus of radial_series perturbations of
    the unit sphere (2-4 monomials of degree 2-3, |coef| <= 0.02), drawn as
    the acceptance tests draw them."""
    rng = np.random.default_rng(20260823)
    corpus = []
    for _ in range(count):
        terms = []
        for _ in range(int(rng.integers(2, 5))):
            deg = int(rng.integers(2, 4))
            idx = tuple(int(i) for i in rng.integers(0, 4, size=deg))
            terms.append((idx, float(rng.uniform(-0.02, 0.02))))
        corpus.append(terms)
    return corpus


class SeriesPeriodBound(Workload):
    """Period bound on ``radial_series`` perturbations of the unit sphere.

    The inputs are fixed: ops cycle over the first ``CYCLE`` surfaces of the
    acceptance corpus, searched with the acceptance search seed, and the run
    seed does not change them.  Search time depends mostly on the surface
    (2.1-10.3 s per surface at 4 seeds at the parent commit), so runs drawn
    from fresh random surfaces measured mostly which surfaces they drew.
    The corpus includes the surface on which no seed converges, so that
    failure shows in every run.
    """

    name = "series-period-bound"
    SEARCH_SEEDS = 2
    CYCLE = 10

    def __init__(self, seed: int, runner: CliRunner):
        super().__init__(seed, runner)
        self.corpus = series_corpus(self.CYCLE)

    def surface(self, k: int) -> cd.StarshapedSurface:
        terms = [cd.SeriesTerm(idx, coef)
                 for idx, coef in self.corpus[k % self.CYCLE]]
        return cd.StarshapedSurface(cd.AmbientSpace(2), np.zeros(4),
                                    "radial_series", {"R": 1.0, "terms": terms})

    def search_config(self, R1: float, R2: float) -> osr.SearchConfig:
        return osr.SearchConfig(
            seeds=self.SEARCH_SEEDS,
            action_window=(0.9 * math.pi * R1 ** 2, 1.1 * math.pi * R2 ** 2))

    def run_op(self, k: int) -> OpResult:
        surface = self.surface(k)
        op = OpResult(label="series")
        t0 = time.perf_counter()
        try:
            R1, R2, _ = cd.pinch_radii(surface)
            margin = cd.hypothesis_margin(surface, R1)
            if margin <= 0.0:
                op.latency_s = time.perf_counter() - t0
                return op.fail("hypothesis_unmet")
            cfg = self.search_config(R1, R2)
            found = osr.find_closed_orbits(surface, cfg)
            reps = osr.deduplicate(found.orbits, cfg.dedupe_tol)
            bound = osr.verify_period_bound(surface, reps, R1)
        except Exception as exc:   # counted by type; the run goes on
            op.latency_s = time.perf_counter() - t0
            return op.fail(library_failure(exc))
        op.latency_s = time.perf_counter() - t0
        op.seeds = found.stats.seeds
        if found.stats.converged == 0:
            return op.fail("zero_converged")
        if not reps or not bound.passed:
            return op.fail("check_failed")
        problems = self._check(reps, bound, R1, cfg)
        if problems:
            return op.violate("; ".join(problems))
        op.verified = True
        return op

    @staticmethod
    def _check(reps, bound, R1: float, cfg: osr.SearchConfig) -> List[str]:
        """Independent checks of orbits the program accepted."""
        problems = []
        T_min = math.pi * R1 ** 2
        for orb in reps:
            if orb.closure_residual >= cfg.closure_tol:
                problems.append(f"closure {orb.closure_residual:.3e}")
            if abs(orb.action - orb.period) > 1e-6 * orb.period:
                problems.append(f"action {orb.action!r} != period "
                                f"{orb.period!r}")
            if orb.period < T_min - 1e-8:
                problems.append(f"period {orb.period!r} < pi R1^2 {T_min!r}")
        if any(l.slack < 0.0 for e in bound.entries for l in e.chain):
            problems.append("Wirtinger chain has negative slack")
        return problems

    def identity_argv(self) -> Optional[List[str]]:
        """``surface-orbits`` on the run's first surface: the search this
        workload times, through the CLI, so the report bytes are checked."""
        surface = self.surface(0)
        path = os.path.join(self.runner.work_dir, "identity-surface.json")
        with open(path, "w") as fh:
            fh.write(cd.surface_to_json(surface))
        R1, R2, _ = cd.pinch_radii(surface)
        cfg = self.search_config(R1, R2)
        lo, hi = cfg.action_window
        return ["surface-orbits", "--surface", path, "--window",
                f"{lo!r},{hi!r}", "--seeds", str(cfg.seeds),
                "--rng-seed", str(cfg.rng_seed)]


# ---------------------------------------------------------------------------
# profile-connect
# ---------------------------------------------------------------------------

def admissible(R0: float, A: float, c: float) -> bool:
    try:
        return rp.validate_core(R0, A, c).passed
    except OverflowError:
        # validate_core computes B = A exp((R0-1)/c) before it rejects a
        # tiny c; such a triple is not admissible
        return False


class ProfileConnect(Workload):
    """Profile build, connecting ODE and probes through the CLI, then the
    graph correspondence on E(1,1.2) at the e1 circle, level A."""

    name = "profile-connect"

    NET = 256   # Sobol points per input cycle: a whole net of the box

    def __init__(self, seed: int, runner: CliRunner):
        super().__init__(seed, runner)
        ellipsoid = cd.StarshapedSurface(cd.AmbientSpace(2), np.zeros(4),
                                         "ellipsoid", {"radii": [1.0, 1.2]})
        self.graph, _ = cd.radial_to_graph(ellipsoid)
        self.e1 = np.array([1.0, 0.0, 0.0, 0.0])
        self.base_verified = True
        # The base triple, then the admissible points among the first NET
        # points of a scrambled Sobol sequence over 1 < R0 < 2, 0 < A < 1,
        # 0 < c < 1.  A whole net keeps the share of each outcome in a cycle
        # close to its share over the admissible set.
        box = qmc.Sobol(d=3, scramble=True, seed=seed).random(self.NET)
        self.triples = [BASE_TRIPLE] + [
            (1.0 + float(u[0]), float(u[1]), float(u[2])) for u in box
            if admissible(1.0 + float(u[0]), float(u[1]), float(u[2]))]
        self.CYCLE = len(self.triples)

    def run_op(self, k: int) -> OpResult:
        R0, A, c = self.triples[k % self.CYCLE]
        base = k % self.CYCLE == 0
        op = OpResult(label="base" if base else "drawn")
        flags = ["--R0", repr(R0), "--A", repr(A), "--c", repr(c)]
        calls = []
        try:
            result = self._run(base, R0, A, c, flags, op, calls)
        finally:
            for call in calls:
                self.runner.cleanup(call)
        if base:
            self.base_verified &= result.verified
        return result

    def _run(self, base, R0, A, c, flags, op, calls) -> OpResult:
        B = A * math.exp((R0 - 1.0) / c)
        build = self._cli(["profile-build"] + flags, op)
        calls.append(build)
        reason = cli_failure(build)
        if reason is not None:
            return op.fail(reason)
        rep = build.report
        if not (rep["all_ok"] and rep["certified"]
                and all(b["ok"] for b in rep["bullets"])):
            return op.violate(f"profile-build {flags}: exit 0 but a bullet "
                              "failed")

        connect = self._cli(["ode-connect"] + flags, op)
        calls.append(connect)
        reason = cli_failure(connect)
        rep = connect.report
        if reason == "check_failed" and rep is not None:
            if abs(rep["F_end"] - rep["target"]) >= 1e-6:
                return op.fail("target_missed")
            return op.fail("gap_nonpositive")
        if reason is not None:
            return op.fail(reason)
        if abs(rep["F_end"] - R0 * B) >= 1e-6 or not rep["gap_margin"] > 0.0:
            return op.violate(f"ode-connect {flags}: exit 0 but F_end "
                              f"{rep['F_end']!r}, target {R0 * B!r}, gap "
                              f"{rep['gap_margin']!r}")
        if base:
            problems = self._base_numbers(rep)
            if problems:
                return op.violate("; ".join(problems))

        probe = self._cli(["ode-probe"] + flags, op)
        calls.append(probe)
        reason = cli_failure(probe)
        if reason is not None:
            return op.fail(reason)
        if probe.report["zeta2_coefficient"] != c:
            return op.violate(f"ode-probe {flags}: zeta2 "
                              f"{probe.report['zeta2_coefficient']!r} != c")

        with open(self.runner.path(build, "_profile.json")) as fh:
            profile = rp.profile_from_json(fh.read())
        t0 = time.perf_counter()
        try:
            gamma = cd.integrate_hamiltonian_orbit(profile, self.graph,
                                                   self.e1, A)
            corr = cd.orbit_correspondence(profile, self.graph, gamma)
        except Exception as exc:   # counted by type; the run goes on
            op.latency_s += time.perf_counter() - t0
            return op.fail(library_failure(exc))
        op.latency_s += time.perf_counter() - t0
        # At level A the profile has h'(A) = 1, so the Reeb orbit on the
        # graph has period 1 and r/f stays at A.
        if (corr.reeb_residual >= 1e-6 or abs(corr.c - A) > 1e-6 * A
                or abs(corr.zeta.period - 1.0) > 1e-6):
            return op.fail("check_failed")
        op.verified = True
        return op

    @staticmethod
    def _base_numbers(rep) -> List[str]:
        R0, A, c = BASE_TRIPLE
        target = rep["target"]
        B = target / R0
        checks = {"R0*B": (target, BASE_R0B), "B": (B, BASE_B),
                  "width c(B-A)": (c * (B - A), BASE_WIDTH)}
        return [f"base triple {name} = {got!r}, expected {want}"
                for name, (got, want) in checks.items()
                if abs(got - want) > 1e-6]

    def run_level_checks(self, results):
        if not self.base_verified:
            return ["base triple (1.5, 0.5, 0.8) did not verify"]
        return []


WORKLOADS = {w.name: w for w in (EllipsoidSpectrum, SeriesPeriodBound,
                                 ProfileConnect)}


def warm_up(runner: CliRunner) -> None:
    """One small op of every layer, so that lazy imports and first-call
    costs land in set-up, whichever workload follows."""
    ProfileConnect(0, runner).run_op(0)
    sphere = cd.StarshapedSurface(cd.AmbientSpace(2), np.zeros(4), "sphere",
                                  {"R": 1.0})
    R1, _, _ = cd.pinch_radii(sphere)
    cfg = osr.SearchConfig(seeds=1, action_window=(0.9 * math.pi,
                                                   1.1 * math.pi))
    found = osr.find_closed_orbits(sphere, cfg)
    osr.verify_period_bound(sphere, osr.deduplicate(found.orbits,
                                                    cfg.dedupe_tol), R1)
