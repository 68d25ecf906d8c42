"""Command-line front end: wires configs to the computational modules and
emits machine-readable reports plus plot-ready CSV data.

Exit codes: 0 = pass, 1 = usage or I/O error, 2 = verification failure,
3 = theorem not applicable (hypothesis or pinching unmet).

All numeric report output is serialized at 17 significant digits and written
atomically; wall time lives only in the run manifest so that reports from
identical configs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .radial_profile import (
    CoreParams,
    MonotoneHomotopy,
    build_profile,
    profile_to_json,
    validate_core,
    verify_profile,
)
from .connecting_ode import (
    IntegrationError,
    barrier_curve,
    ellipticity_grid_report,
    integrate_connecting,
    ode_residual,
    radial_adjoint_profile,
    trajectory_to_csv,
    uniqueness_probe,
    verify_gap,
    zeta2_coefficient,
)
from .contact_dynamics import (
    AmbientSpace,
    HypothesisError,
    StarshapedSurface,
    orbit_summary,
    surface_from_json,
)
from .orbit_search import (
    SearchConfig,
    ellipsoid_oracle,
    find_closed_orbits,
    verify_pinching_theorem,
)

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_NOT_APPLICABLE = 3


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _dumps17(obj, indent: int = 0) -> str:
    """JSON serialization with floats at 17 significant digits; key order is
    preserved as given, so identical documents are byte-identical."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_dumps17(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}  {_dumps17(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return json.dumps(str(x))
        return format(x, ".17g")
    return json.dumps(obj)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"),
                       default=lambda x: format(float(x), ".17g"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _finish(args, cfg: dict, report: dict, csvs: dict, t_start: float,
            text: str, stats=None) -> str:
    """Write report, plot CSVs and the manifest, then print the report JSON
    (--json) or the one-line summary text; returns the config hash.  The
    manifest also carries the flow rounds and requests of a search's
    ``stats``."""
    tag = args.command
    h = config_hash({"command": tag, **cfg})
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, f"{h}_{tag}.json"),
                  _dumps17(report) + "\n")
    for name, csv in csvs.items():
        _atomic_write(os.path.join(args.out, f"{h}_{name}.csv"), csv)
    manifest = {"tool": "reebpinch", "version": __version__,
                "config_hash": h, "command": tag,
                "wall_time_s": time.monotonic() - t_start}
    if stats is not None:
        manifest["flow_rounds"] = stats.flow_rounds
        manifest["flow_requests"] = stats.flow_requests
    _atomic_write(os.path.join(args.out, f"{h}_manifest.json"),
                  _dumps17(manifest) + "\n")
    print(_dumps17(report) if args.json else text)
    return h


def _exit_code(passed) -> int:
    """None = not applicable, else pass or verification failure."""
    if passed is None:
        return EXIT_NOT_APPLICABLE
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integral(v) -> bool:
    return _number(v) and (isinstance(v, int) or v.is_integer())


# what a config-file value must be, by flag type or, for untyped flags, by
# key: (test, description); any other untyped flag takes a string
_CONFIG_TYPES = {
    float: (_number, "a number"),
    int: (_integral, "an integer"),
    "window": (lambda v: isinstance(v, str) or (
        isinstance(v, list) and len(v) == 2 and all(map(_number, v))),
        'a "lo,hi" string or a list of 2 numbers'),
    "radii": (lambda v: isinstance(v, str) or (
        isinstance(v, list) and all(map(_number, v))),
        "a string or a list of numbers"),
}
_STRING = (lambda v: isinstance(v, str), "a string")


def _load_config(args: argparse.Namespace) -> dict:
    """Merge config file values with the command's flags (flags win).  A
    config value of the wrong JSON type for its flag exits 1 naming the key;
    values are stored as given, so they hash as written."""
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
            cfg = json.loads(text)
        except OSError as exc:
            raise SystemExit(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"malformed config {args.config}: line {exc.lineno} "
                f"column {exc.colno}: {exc.msg}")
        if not isinstance(cfg, dict):
            raise SystemExit("config file must hold a JSON object")
    for flag, kind in COMMANDS[args.command][1]:
        key = flag[2:]       # "rng-seed" stays hyphenated: it feeds the hash
        ok, what = _CONFIG_TYPES.get(kind or key, _STRING)
        if key in cfg and not ok(cfg[key]):
            raise SystemExit(f"config {key!r} must be {what}, "
                             f"got {json.dumps(cfg[key])}")
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg: dict, key: str, tag: str) -> None:
    if key not in cfg:
        raise SystemExit(f"{tag} requires --{key}")


def _core(cfg: dict) -> CoreParams:
    return CoreParams(float(cfg.get("R0", 1.5)), float(cfg.get("A", 0.5)),
                      float(cfg.get("c", 0.8)))


def _parse_radii(text: str):
    try:
        radii = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise SystemExit(f"cannot parse radii list {text!r}")
    if not radii:
        raise SystemExit("empty radii list")
    return radii


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise SystemExit(f"window must be lo,hi (got {text!r})")
    return float(parts[0]), float(parts[1])


def _load_surface(path: str) -> StarshapedSurface:
    try:
        with open(path) as fh:
            return surface_from_json(fh.read())
    except OSError as exc:
        raise SystemExit(f"cannot read surface: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"malformed surface file {path}: {exc}")


# ---------------------------------------------------------------------------
# commands: each takes (args, merged config, start time), returns exit code
# ---------------------------------------------------------------------------

def cmd_profile_check(args, cfg, t0) -> int:
    try:
        core = CoreParams(float(cfg["R0"]), float(cfg["A"]), float(cfg["c"]))
    except KeyError as exc:
        raise SystemExit(f"missing parameter {exc}")
    rep = validate_core(core.R0, core.A, core.c)
    failed = rep.failed_constraints()
    first_failure = failed[0][0] if failed else None
    report = {
        "command": "profile-check",
        "params": {"R0": core.R0, "A": core.A, "c": core.c},
        "ok": rep.passed,
        "B": rep.B,
        "window_width": rep.window_width,
        "action_window": (None if rep.window_width is None
                          else [core.A, core.A + rep.window_width]),
        "constraints": [{"name": n, "ok": s > 0.0, "slack": s}
                        for n, s in rep.constraints],
        "first_failure": first_failure,
    }
    _finish(args, cfg, report, {}, t0,
            f"parameters admissible: B = {rep.B:.9f}, "
            f"c(B-A) = {rep.window_width:.9f}" if rep.passed
            else f"constraint failed: {first_failure}")
    return _exit_code(rep.passed)


def cmd_profile_build(args, cfg, t0) -> int:
    core = _core(cfg)
    profile = build_profile(core)
    checks = verify_profile(profile)
    grid = np.geomspace(profile.shape.delta_bar / 2, profile.shape.r_flat, 2000)
    lines = ["r,h,dh,action"]
    h, dh, act = profile.h(grid), profile.dh(grid), profile.action(grid)
    for vals in zip(grid, h, dh, act):
        lines.append(",".join(repr(float(v)) for v in vals))
    report = {
        "command": "profile-build",
        "params": {"R0": core.R0, "A": core.A, "c": core.c},
        "certified": profile.certified,
        "bullets": [{"name": b.name, "ok": b.passed, "margin": b.margin}
                    for b in checks.bullets],
        "all_ok": checks.passed,
    }
    h = _finish(args, cfg, report, {"profile": "\n".join(lines) + "\n"}, t0,
                f"profile {'certified' if checks.passed else 'FAILED'}; "
                f"{len(checks.bullets)} checks")
    _atomic_write(os.path.join(args.out, f"{h}_profile.json"),
                  profile_to_json(profile))
    return _exit_code(checks.passed)


def cmd_ode_connect(args, cfg, t0) -> int:
    tol = float(cfg.get("tol", 1e-10))
    core = _core(cfg)
    H = MonotoneHomotopy(build_profile(core))
    traj = integrate_connecting(H, tol=tol)
    barrier = barrier_curve(H, 1001)
    gap_margin = verify_gap(traj, barrier)
    resid = ode_residual(traj)
    target = core.R0 * core.B
    f_end = float(traj.F[-1])
    ok = abs(f_end - target) < 1e-6 and gap_margin > 0.0
    report = {
        "command": "ode-connect",
        "params": {"R0": core.R0, "A": core.A, "c": core.c, "tol": tol},
        "target": target,
        "F_end": f_end,
        "gap_margin": gap_margin,
        "max_step_residual": float(np.max(resid)),
        "steps": len(traj.s_grid),
        "ok": ok,
    }
    _finish(args, cfg, report,
            {"trajectory": trajectory_to_csv(traj, barrier)}, t0,
            f"F(end) = {f_end:.12f} (target {target:.12f}), "
            f"gap margin {gap_margin:.3e}")
    return _exit_code(ok)


def cmd_ode_probe(args, cfg, t0) -> int:
    core = _core(cfg)
    H = MonotoneHomotopy(build_profile(core))
    # near A the frozen branch drifts like exp(c |s|): the interval is long
    # enough for a ratio of 10^2 in the linear rate, at least [-10, -2]
    s_back = -2.0 - max(8.0, 2.0 * math.log(10.0) / core.c)
    probes = [uniqueness_probe(H, -2.0, core.A + d, s_back)
              for d in (1e-3, -1e-3)]
    traj = integrate_connecting(H, tol=1e-10)
    adj_s, adj_x2 = radial_adjoint_profile(traj)
    i0 = int(np.argmin(np.abs(adj_s)))
    zeta2 = zeta2_coefficient(traj, -5.0)
    grid = np.linspace(0.05, 0.95, 5)
    minors = ellipticity_grid_report([(x, y) for x in grid for y in grid])
    ok = all(p.ratio >= 10.0 or p.blow_up for p in probes) and zeta2 == core.c
    report = {
        "command": "ode-probe",
        "params": {"R0": core.R0, "A": core.A, "c": core.c},
        "zeta2_coefficient": zeta2,
        "probes": [{"F0": p.F0, "ratio": p.ratio, "blow_up": p.blow_up}
                   for p in probes],
        "adjoint_X2_at_0": float(adj_x2[i0]),
        "ellipticity_sample": [
            {"x": m.x, "y": m.y, "first_minor": m.first_minor,
             "determinant": m.determinant} for m in minors[:5]],
        "ok": ok,
    }
    _finish(args, cfg, report, {}, t0, f"zeta2 = {zeta2}, probe ratios "
            + ", ".join(f"{p.ratio:.1f}" for p in probes))
    return _exit_code(ok)


def _spectrum_report_doc(rep, cfg_used, surface_desc):
    return {
        "surface": surface_desc,
        "R1": rep.R1,
        "R2": rep.R2,
        "ratio": rep.ratio,
        "window": list(rep.window),
        "orbits": [orbit_summary(o) for o in rep.orbits],
        "distinct_count": rep.distinct_count,
        "cuplength_bound": rep.cuplength_bound,
        "degenerate_levels": rep.degenerate_levels,
        "endpoint_notes": rep.endpoint_notes,
        "pass": rep.passed,
        "search": None if rep.stats is None else {
            "seeds": rep.stats.seeds, "converged": rep.stats.converged,
            "accepted": rep.stats.accepted},
        "units": "ambient (sphere orbit action pi R^2)",
        "config": cfg_used,
    }


def _spectrum_csv(rep) -> str:
    lines = ["action,period,multiplicity"]
    for o in rep.orbits:
        lines.append(f"{o.action!r},{o.period!r},{o.multiplicity}")
    return "\n".join(lines) + "\n"


def _pinching(surface, cfg):
    return verify_pinching_theorem(surface, seeds=int(cfg.get("seeds", 64)),
                                   rng_seed=int(cfg.get("rng-seed", 20260823)))


def cmd_surface_orbits(args, cfg, t0) -> int:
    _require(cfg, "surface", "surface-orbits")
    surface = _load_surface(cfg["surface"])
    window = (_parse_window(cfg["window"]) if isinstance(cfg.get("window"), str)
              else tuple(cfg.get("window", (0.5 * math.pi, 2.5 * math.pi))))
    sc = SearchConfig(seeds=int(cfg.get("seeds", 64)), action_window=window,
                      closure_tol=float(cfg.get("tol", 1e-9)),
                      rng_seed=int(cfg.get("rng-seed", 20260823)))
    result = find_closed_orbits(surface, sc)
    report = {
        "command": "surface-orbits",
        "window": list(window),
        "orbits": [orbit_summary(o) for o in result.orbits],
        "search": {"seeds": result.stats.seeds,
                   "converged": result.stats.converged,
                   "accepted": result.stats.accepted},
        "units": "ambient (sphere orbit action pi R^2)",
    }
    _finish(args, cfg, report, {"spectrum": _spectrum_csv(result)}, t0,
            f"{len(result.orbits)} orbit(s) accepted from "
            f"{result.stats.seeds} seeds", result.stats)
    return EXIT_PASS


def cmd_verify_pinch(args, cfg, t0) -> int:
    _require(cfg, "surface", "verify-pinch")
    rep = _pinching(_load_surface(cfg["surface"]), cfg)
    verdict = {None: "not applicable", True: "pass", False: "FAIL"}
    _finish(args, cfg, _spectrum_report_doc(rep, cfg, cfg["surface"]),
            {"spectrum": _spectrum_csv(rep)}, t0,
            f"pinching verification: {verdict[rep.passed]} "
            f"({rep.distinct_count} distinct, need {rep.cuplength_bound})",
            rep.stats)
    return _exit_code(rep.passed)


def cmd_verify_ellipsoid(args, cfg, t0) -> int:
    _require(cfg, "radii", "verify-ellipsoid")
    radii = (_parse_radii(cfg["radii"]) if isinstance(cfg["radii"], str)
             else [float(v) for v in cfg["radii"]])
    space = AmbientSpace(len(radii))
    rep = _pinching(StarshapedSurface(space, np.zeros(space.dim), "ellipsoid",
                                      {"radii": radii}), cfg)
    oracle_entries, _ = ellipsoid_oracle(
        radii, math.pi * max(radii) ** 2 + 1e-9)
    oracle_simple = sorted({e.action for e in oracle_entries if e.iterate == 1})
    matched = None
    if rep.passed is not None:
        found = sorted(o.action for o in rep.orbits)
        matched = (len(found) == len(oracle_simple) and all(
            abs(a - b) <= 1e-6 * abs(b)
            for a, b in zip(found, oracle_simple)))
    report = _spectrum_report_doc(rep, cfg, f"ellipsoid({radii})")
    report["oracle_actions"] = oracle_simple
    report["oracle_matched"] = matched
    _finish(args, cfg, report, {"spectrum": _spectrum_csv(rep)}, t0,
            f"ellipsoid spectrum matched oracle: {matched}", rep.stats)
    return _exit_code(rep.passed and matched)


def _report_problem(doc):
    """What makes ``doc`` unreadable as a report, or None: the top level is
    an object, ``orbits`` a list of objects with a finite numeric
    ``action``, and ``window`` two numbers."""
    if not isinstance(doc, dict):
        return "the top level must be a JSON object"
    orbits = doc.get("orbits", [])
    if not isinstance(orbits, list):
        return "orbits must be a list of objects"
    for k, orbit in enumerate(orbits):
        if not (isinstance(orbit, dict) and _number(orbit.get("action"))
                and math.isfinite(orbit["action"])):
            return (f"orbits[{k}] must be an object with a finite numeric "
                    "action")
    if "window" in doc:
        window = doc["window"]
        if not (isinstance(window, list) and len(window) == 2
                and all(map(_number, window))):
            return "window must be a list of 2 numbers"
    return None


def cmd_report(args, cfg, t0) -> int:
    _require(cfg, "input", "report")
    try:
        with open(cfg["input"]) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read report: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"malformed report {cfg['input']}: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}")
    problem = _report_problem(doc)
    if problem:
        raise SystemExit(f"malformed report {cfg['input']}: {problem}")
    summary = {"command": "report", "source": cfg["input"]}
    if "orbits" in doc:
        actions = sorted(o["action"] for o in doc["orbits"])
        summary["n_orbits"] = len(actions)
        summary["actions"] = actions
        if "window" in doc:
            summary["window"] = doc["window"]
            lo, hi = doc["window"]
            summary["all_in_window"] = all(
                lo - 1e-8 <= a <= hi + 1e-8 for a in actions)
    if "pass" in doc:
        summary["pass"] = doc["pass"]
    _finish(args, cfg, summary, {}, t0, f"summary of {cfg['input']}: "
            + ", ".join(f"{k}={v}" for k, v in summary.items()
                        if k not in ("command", "source", "actions")))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_CORE_FLAGS = (("--R0", float), ("--A", float), ("--c", float))

# name -> (help, ((flag, type), ...), handler); every command also takes
# --config, --out and --json, and its flags are its config keys
COMMANDS = {
    "profile-check": ("validate (R0, A, c)", _CORE_FLAGS, cmd_profile_check),
    "profile-build": ("build and certify a profile", _CORE_FLAGS,
                      cmd_profile_build),
    "ode-connect": ("integrate the connecting ODE",
                    _CORE_FLAGS + (("--tol", float),), cmd_ode_connect),
    "ode-probe": ("uniqueness and decay probes", _CORE_FLAGS, cmd_ode_probe),
    "surface-orbits": ("closed-orbit search",
                       (("--surface", None), ("--window", None),
                        ("--seeds", int), ("--tol", float),
                        ("--rng-seed", int)), cmd_surface_orbits),
    "verify-pinch": ("pinching-theorem verification",
                     (("--surface", None), ("--seeds", int),
                      ("--rng-seed", int)), cmd_verify_pinch),
    "verify-ellipsoid": ("verify the spectrum of an ellipsoid",
                         (("--radii", None), ("--seeds", int),
                          ("--rng-seed", int)), cmd_verify_ellipsoid),
    "report": ("re-ingest a report JSON", (("--input", None),), cmd_report),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reebpinch",
        description="Radial Hamiltonian profiles, connecting trajectories, "
                    "and Reeb dynamics on starshaped hypersurfaces.",
        epilog="CSV columns: profile 'r,h,dh,action'; trajectory "
               "'s,F,G,rho,margin'; spectrum 'action,period,multiplicity'. "
               "File names are derived from the config hash.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, kind in flags:
            p.add_argument(flag, type=kind)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--json", action="store_true",
                       help="print the report JSON to stdout")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged, so every
    later ``main`` call in the process reuses it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to the contract
        return EXIT_USAGE if exc.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        return COMMANDS[args.command][2](args, _load_config(args), t0)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        return exc.code if exc.code is not None else EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE


if __name__ == "__main__":
    sys.exit(main())
