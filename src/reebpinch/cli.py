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


def _write_outputs(out_dir: str, tag: str, cfg: dict, report: dict,
                   csvs: dict, t_start: float) -> str:
    """Write report, plot CSVs, and the manifest; returns the config hash."""
    h = config_hash({"command": tag, **cfg})
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, f"{h}_{tag}.json"),
                  _dumps17(report) + "\n")
    for name, text in csvs.items():
        _atomic_write(os.path.join(out_dir, f"{h}_{name}.csv"), text)
    manifest = {"tool": "reebpinch", "version": __version__,
                "config_hash": h, "command": tag,
                "wall_time_s": time.monotonic() - t_start}
    _atomic_write(os.path.join(out_dir, f"{h}_manifest.json"),
                  _dumps17(manifest) + "\n")
    return h


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _add_core(p: argparse.ArgumentParser) -> None:
    p.add_argument("--R0", type=float)
    p.add_argument("--A", type=float)
    p.add_argument("--c", type=float)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--json", action="store_true",
                   help="print the report JSON to stdout")


def _load_config(args: argparse.Namespace, keys) -> dict:
    """Merge config file values with flags (flags win)."""
    cfg = {}
    if getattr(args, "config", None):
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
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


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
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"malformed surface file {path}: {exc}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_profile_check(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args, ["R0", "A", "c"])
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
    _write_outputs(args.out, "profile-check", cfg, report, {}, t0)
    if args.json:
        print(_dumps17(report))
    elif not rep.passed:
        print(f"constraint failed: {first_failure}")
    else:
        print(f"parameters admissible: B = {rep.B:.9f}, "
              f"c(B-A) = {rep.window_width:.9f}")
    return EXIT_PASS if rep.passed else EXIT_FAIL


def cmd_profile_build(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args, ["R0", "A", "c"])
    core = CoreParams(float(cfg.get("R0", 1.5)), float(cfg.get("A", 0.5)),
                      float(cfg.get("c", 0.8)))
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
    h = _write_outputs(args.out, "profile-build", cfg, report,
                       {"profile": "\n".join(lines) + "\n"}, t0)
    _atomic_write(os.path.join(args.out, f"{h}_profile.json"),
                  profile_to_json(profile))
    if args.json:
        print(_dumps17(report))
    else:
        print(f"profile {'certified' if report['all_ok'] else 'FAILED'}; "
              f"{len(checks.bullets)} checks")
    return EXIT_PASS if report["all_ok"] else EXIT_FAIL


def _base_homotopy(cfg):
    core = CoreParams(float(cfg.get("R0", 1.5)), float(cfg.get("A", 0.5)),
                      float(cfg.get("c", 0.8)))
    return core, MonotoneHomotopy(build_profile(core))


def cmd_ode_connect(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args, ["R0", "A", "c", "tol"])
    tol = float(cfg.get("tol", 1e-10))
    core, H = _base_homotopy(cfg)
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
    _write_outputs(args.out, "ode-connect", cfg, report,
                   {"trajectory": trajectory_to_csv(traj, barrier)}, t0)
    if args.json:
        print(_dumps17(report))
    else:
        print(f"F(end) = {f_end:.12f} (target {target:.12f}), "
              f"gap margin {gap_margin:.3e}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_ode_probe(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args, ["R0", "A", "c"])
    core, H = _base_homotopy(cfg)
    probes = [uniqueness_probe(H, -2.0, core.A + d, -10.0)
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
    _write_outputs(args.out, "ode-probe", cfg, report, {}, t0)
    if args.json:
        print(_dumps17(report))
    else:
        print(f"zeta2 = {zeta2}, probe ratios "
              + ", ".join(f"{p.ratio:.1f}" for p in probes))
    return EXIT_PASS if ok else EXIT_FAIL


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


def cmd_surface_orbits(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args, ["surface", "window", "seeds", "tol", "rng-seed"])
    if "surface" not in cfg:
        raise SystemExit("surface-orbits requires --surface")
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
    _write_outputs(args.out, "surface-orbits", cfg, report,
                   {"spectrum": _spectrum_csv(result)}, t0)
    if args.json:
        print(_dumps17(report))
    else:
        print(f"{len(result.orbits)} orbit(s) accepted from "
              f"{result.stats.seeds} seeds")
    return EXIT_PASS


def cmd_verify_pinch(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args, ["surface", "seeds", "rng-seed"])
    if "surface" not in cfg:
        raise SystemExit("verify-pinch requires --surface")
    surface = _load_surface(cfg["surface"])
    rep = verify_pinching_theorem(surface, seeds=int(cfg.get("seeds", 64)),
                                  rng_seed=int(cfg.get("rng-seed", 20260823)))
    report = _spectrum_report_doc(rep, cfg, cfg["surface"])
    _write_outputs(args.out, "verify-pinch", cfg, report,
                   {"spectrum": _spectrum_csv(rep)}, t0)
    if args.json:
        print(_dumps17(report))
    else:
        verdict = {None: "not applicable", True: "pass", False: "FAIL"}
        print(f"pinching verification: {verdict[rep.passed]} "
              f"({rep.distinct_count} distinct, need {rep.cuplength_bound})")
    if rep.passed is None:
        return EXIT_NOT_APPLICABLE
    return EXIT_PASS if rep.passed else EXIT_FAIL


def cmd_verify_ellipsoid(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args, ["radii", "seeds", "rng-seed"])
    if "radii" not in cfg:
        raise SystemExit("verify-ellipsoid requires --radii")
    radii = (_parse_radii(cfg["radii"]) if isinstance(cfg["radii"], str)
             else [float(v) for v in cfg["radii"]])
    space = AmbientSpace(len(radii))
    surface = StarshapedSurface(space, np.zeros(space.dim), "ellipsoid",
                                {"radii": radii})
    rep = verify_pinching_theorem(surface, seeds=int(cfg.get("seeds", 64)),
                                  rng_seed=int(cfg.get("rng-seed", 20260823)))
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
    _write_outputs(args.out, "verify-ellipsoid", cfg, report,
                   {"spectrum": _spectrum_csv(rep)}, t0)
    if args.json:
        print(_dumps17(report))
    else:
        print(f"ellipsoid spectrum matched oracle: {matched}")
    if rep.passed is None:
        return EXIT_NOT_APPLICABLE
    return EXIT_PASS if (rep.passed and matched) else EXIT_FAIL


def cmd_report(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args, ["input"])
    if "input" not in cfg:
        raise SystemExit("report requires --input")
    try:
        with open(cfg["input"]) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read report: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"malformed report {cfg['input']}: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}")
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
    _write_outputs(args.out, "report", cfg, summary, {}, t0)
    if args.json:
        print(_dumps17(summary))
    else:
        print(f"summary of {cfg['input']}: "
              + ", ".join(f"{k}={v}" for k, v in summary.items()
                          if k not in ("command", "source", "actions")))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reebpinch",
        description="Radial Hamiltonian profiles, connecting trajectories, "
                    "and Reeb dynamics on starshaped hypersurfaces.",
        epilog="CSV columns: profile 'r,h,dh,action'; trajectory "
               "'s,F,G,rho,margin'; spectrum 'action,period,multiplicity'. "
               "File names are derived from the config hash.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile-check", help="validate (R0, A, c)")
    _add_core(p)
    _add_common(p)
    p.set_defaults(fn=cmd_profile_check)

    p = sub.add_parser("profile-build", help="build and certify a profile")
    _add_core(p)
    _add_common(p)
    p.set_defaults(fn=cmd_profile_build)

    p = sub.add_parser("ode-connect", help="integrate the connecting ODE")
    _add_core(p)
    p.add_argument("--tol", type=float)
    _add_common(p)
    p.set_defaults(fn=cmd_ode_connect)

    p = sub.add_parser("ode-probe", help="uniqueness and decay probes")
    _add_core(p)
    _add_common(p)
    p.set_defaults(fn=cmd_ode_probe)

    p = sub.add_parser("surface-orbits", help="closed-orbit search")
    p.add_argument("--surface")
    p.add_argument("--window")
    p.add_argument("--seeds", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--rng-seed", type=int)
    _add_common(p)
    p.set_defaults(fn=cmd_surface_orbits)

    p = sub.add_parser("verify-pinch", help="pinching-theorem verification")
    p.add_argument("--surface")
    p.add_argument("--seeds", type=int)
    p.add_argument("--rng-seed", type=int)
    _add_common(p)
    p.set_defaults(fn=cmd_verify_pinch)

    p = sub.add_parser("verify-ellipsoid",
                       help="verify the spectrum of an ellipsoid")
    p.add_argument("--radii")
    p.add_argument("--seeds", type=int)
    p.add_argument("--rng-seed", type=int)
    _add_common(p)
    p.set_defaults(fn=cmd_verify_ellipsoid)

    p = sub.add_parser("report", help="re-ingest a report JSON")
    p.add_argument("--input")
    _add_common(p)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to the contract
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
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
