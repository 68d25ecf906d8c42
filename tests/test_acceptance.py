"""Acceptance gate: end-to-end checks of the quantitative claims at their
stated tolerances.  Each criterion prints a single pass/fail line."""

import json
import math
import os
import time

import numpy as np
import pytest

from reebpinch import cli
from reebpinch import contact_dynamics as cd
from reebpinch import orbit_search as osr
from reebpinch.radial_profile import (
    CoreParams,
    MonotoneHomotopy,
    action_at,
    build_profile,
    validate_core,
    verify_profile,
)
from reebpinch.connecting_ode import (
    barrier_curve,
    ellipticity_grid_report,
    integrate_connecting,
    radial_adjoint_profile,
    uniqueness_probe,
    verify_gap,
    zeta2_coefficient,
)

BASE = CoreParams(1.5, 0.5, 0.8)


def check(num, name, conditions):
    """Single pass/fail line per criterion; conditions is {label: bool}."""
    failed = [label for label, ok in conditions.items() if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"criterion {num} [{name}]: {status}")
    assert not failed, f"criterion {num} ({name}) failed: {failed}"


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def profile():
    return build_profile(BASE)


@pytest.fixture(scope="module")
def space():
    return cd.AmbientSpace(2)


@pytest.fixture(scope="module")
def random_surfaces(space):
    """20 random starshaped perturbations of the unit sphere, shared between
    the field-identity and period-bound criteria."""
    rng = np.random.default_rng(20260823)
    surfaces = []
    for _ in range(20):
        terms = []
        for _ in range(int(rng.integers(2, 5))):
            k = int(rng.integers(2, 4))
            idx = tuple(int(i) for i in rng.integers(0, 4, size=k))
            terms.append(cd.SeriesTerm(idx, float(rng.uniform(-0.02, 0.02))))
        surfaces.append(cd.StarshapedSurface(
            space, np.zeros(4), "radial_series", {"R": 1.0, "terms": terms}))
    return surfaces


@pytest.fixture(scope="module")
def flat_ellipsoid_report(space):
    surface = cd.StarshapedSurface(space, np.zeros(4), "ellipsoid",
                                   {"radii": [1.0, 1.2]})
    t0 = time.monotonic()
    rep = osr.verify_pinching_theorem(surface, seeds=64)
    return rep, time.monotonic() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_parameter_certification():
    validate_core(1.5, 0.5, 0.8)                 # warm-up
    t0 = time.perf_counter()
    rep = validate_core(1.5, 0.5, 0.8)
    elapsed = time.perf_counter() - t0
    bad = validate_core(1.5, 0.5, 0.9)
    check(1, "parameter certification", {
        "base config passes": rep.passed,
        "B": abs(rep.B - 0.934123) <= 1e-6,
        "window width": abs(rep.window_width - 0.347298) <= 1e-6,
        "action window": abs(0.5 + rep.window_width - 0.847298) <= 1e-6,
        "c=0.9 fails": not bad.passed,
        "c=0.9 first constraint": bad.failed_constraints()[0][0]
            == "c < (R0-1)/(1-log R0)",
        "runtime < 1 ms": elapsed < 1e-3,
    })


def test_criterion_2_profile_certification(profile):
    t0 = time.perf_counter()
    rep = verify_profile(profile, grid_density=10_000)
    r = profile.grid(10_000)
    margin = float(np.min(1.0 - np.abs(r * profile.d2h(r))))
    rs = np.linspace(BASE.A, BASE.B, 2000)
    affine_err = max(abs(action_at(profile, float(ri))
                         - (BASE.A + BASE.c * (ri - BASE.A))) for ri in rs)
    elapsed = time.perf_counter() - t0
    check(2, "profile certification", {
        "thirteen bullets": len(rep.bullets) == 13,
        "all pass": rep.passed,
        "curvature margin >= 0.19": margin >= 0.19,
        "affine action law 1e-10": affine_err < 1e-10,
        "runtime < 1 s": elapsed < 1.0,
    })


def test_criterion_3_connecting_ode(profile):
    H = MonotoneHomotopy(profile)
    t0 = time.perf_counter()
    traj = integrate_connecting(H, tol=1e-10)
    barrier = barrier_curve(H, 1001)
    gap = verify_gap(traj, barrier)
    s, x2 = radial_adjoint_profile(traj)
    frozen = s <= -1.0
    slope = np.diff(np.log(x2[frozen])) / np.diff(s[frozen])
    probes = [uniqueness_probe(H, -2.0, BASE.A + d, -10.0)
              for d in (1e-3, -1e-3)]
    elapsed = time.perf_counter() - t0
    target = BASE.R0 * BASE.B
    check(3, "connecting ODE", {
        "|F(50) - R0 B| < 1e-6": abs(traj.F_at(50.0) - target) < 1e-6,
        "target value": abs(target - 1.401184) < 1e-6,
        "gap margin > 0": gap > 0.0,
        "zeta2 exactly 0.8": zeta2_coefficient(traj, -2.0) == 0.8
            and zeta2_coefficient(traj, -1.0) == 0.8,
        "adjoint log-slope -1 to 1e-9":
            float(np.max(np.abs(slope + 1.0))) < 1e-9,
        "probe ratios >= 10": all(p.blow_up or p.ratio >= 10.0
                                  for p in probes),
        "runtime < 1 s": elapsed < 1.0,
    })


def test_criterion_4_reeb_identities(space, random_surfaces):
    t0 = time.perf_counter()
    worst_alpha = worst_dalpha = worst_norm = 0.0
    rng = np.random.default_rng(7)
    for i, S in enumerate(random_surfaces):
        u = cd.sphere_directions(4, 50, seed=1000 + i)
        pts = S.point(u)                      # 20 x 50 = 10^3 points
        R = S.reeb(pts)
        nu = S.normals(pts)
        v = rng.normal(size=pts.shape)
        v -= np.sum(v * nu, axis=-1, keepdims=True) * nu
        worst_alpha = max(worst_alpha,
                          float(np.max(np.abs(space.alpha(pts, R) - 1.0))))
        worst_dalpha = max(worst_dalpha,
                           float(np.max(np.abs(space.omega(R, v)))))
        norm_id = np.linalg.norm(R, axis=-1) * np.sum(nu * pts, axis=-1)
        worst_norm = max(worst_norm, float(np.max(np.abs(norm_id - 2.0))))
    elapsed = time.perf_counter() - t0
    check(4, "Reeb-field identities", {
        "|alpha(R) - 1| < 1e-9": worst_alpha < 1e-9,
        "|dalpha(R, v)| < 1e-7": worst_dalpha < 1e-7,
        "|R| <nu, x> = 2 to 1e-12": worst_norm < 1e-12,
        "runtime < 5 s": elapsed < 5.0,
    })


def test_criterion_5_ellipsoid_oracle(space, flat_ellipsoid_report):
    rep4, elapsed4 = flat_ellipsoid_report
    acts4 = [o.action for o in rep4.orbits]

    surface6 = cd.StarshapedSurface(cd.AmbientSpace(3), np.zeros(6),
                                    "ellipsoid", {"radii": [1.0, 1.1, 1.3]})
    t0 = time.monotonic()
    rep6 = osr.verify_pinching_theorem(surface6, seeds=96)
    elapsed6 = time.monotonic() - t0
    acts6 = [o.action for o in rep6.orbits]
    targets6 = [math.pi, 1.21 * math.pi, 1.69 * math.pi]
    check(5, "ellipsoid oracle equivalence", {
        "E(1,1.2): 2 distinct simple orbits": rep4.distinct_count == 2,
        "E(1,1.2): actions pi, 1.44 pi to 1e-6 rel":
            len(acts4) == 2
            and abs(acts4[0] - math.pi) <= 1e-6 * math.pi
            and abs(acts4[1] - 1.44 * math.pi) <= 1e-6 * 1.44 * math.pi,
        "E(1,1.2): actions inside window": all(
            rep4.window[0] - 1e-9 <= a <= rep4.window[1] + 1e-9
            for a in acts4),
        "E(1,1.2): passes": rep4.passed is True,
        "E(1,1.1,1.3): 3 orbits": rep6.distinct_count == 3,
        "E(1,1.1,1.3): actions pi, 1.21 pi, 1.69 pi": len(acts6) == 3
            and all(abs(a - t) <= 1e-6 * t for a, t in zip(acts6, targets6)),
        "runtime < 60 s": elapsed4 < 60.0,
        "runtime < 5 min": elapsed6 < 300.0,
    })


def test_criterion_6_period_bound(space, random_surfaces):
    t0 = time.monotonic()
    bound_ok = slack_ok = True
    margin_seen = False
    for S in random_surfaces:
        R1, R2, _ = cd.pinch_radii(S)
        rep = osr.verify_period_bound(S, [], R1)
        if rep.margin <= 0.0:
            continue      # bound only asserted under the hypothesis
        margin_seen = True
        cfg = osr.SearchConfig(
            seeds=4, action_window=(0.9 * math.pi * R1 ** 2,
                                    1.1 * math.pi * R2 ** 2))
        found = osr.find_closed_orbits(S, cfg)
        rep = osr.verify_period_bound(S, found.orbits, R1)
        bound_ok &= all(e.period >= math.pi * R1 ** 2 - 1e-8
                        for e in rep.entries)
        slack_ok &= all(l.slack >= 0.0 for e in rep.entries for l in e.chain)

    sphere = cd.StarshapedSurface(space, np.zeros(4), "sphere", {"R": 1.0})
    sres = osr.find_closed_orbits(sphere, osr.SearchConfig(
        seeds=8, action_window=(0.9 * math.pi, 1.1 * math.pi)))
    srep = osr.verify_period_bound(sphere, sres.orbits, 1.0)
    sphere_attained = bool(sres.orbits) and all(
        abs(e.period - math.pi) < 1e-9 for e in srep.entries)
    slack_ok &= all(l.slack >= 0.0 for e in srep.entries for l in e.chain)
    elapsed = time.monotonic() - t0
    check(6, "period bound", {
        "hypothesis margin asserted on corpus": margin_seen,
        "T >= pi R1^2 - 1e-8": bound_ok,
        "sphere attains |T - pi| < 1e-9": sphere_attained,
        "Wirtinger chain slack >= 0": slack_ok,
        "runtime < 2 min": elapsed < 120.0,
    })


def test_criterion_7_correspondence(space, profile):
    t0 = time.monotonic()
    ellipsoid = cd.StarshapedSurface(space, np.zeros(4), "ellipsoid",
                                     {"radii": [1.0, 1.2]})
    f, _ = cd.radial_to_graph(ellipsoid)
    ok = {"runtime < 30 s": True}
    cases = [(np.array([1.0, 0, 0, 0]), BASE.A),
             (np.array([0, 0, 1.0, 0]), BASE.A * math.exp(0.44 / BASE.c))]
    resid_ok = period_ok = action_ok = True
    for x0, c in cases:
        gam = cd.integrate_hamiltonian_orbit(profile, f, x0, c)
        res = cd.orbit_correspondence(profile, f, gam)
        dh = float(profile.dh(res.c))
        resid_ok &= res.reeb_residual < 1e-6
        period_ok &= abs(res.zeta.period - dh) < 1e-8
        closed = res.c * dh - float(profile.h(res.c))
        action_ok &= abs(cd.hamiltonian_action(profile, f, gam)
                         - closed) < 1e-8
    elapsed = time.monotonic() - t0
    check(7, "correspondence lemma", {
        "Reeb residual < 1e-6": resid_ok,
        "period h'(c) to 1e-8": period_ok,
        "action c h'(c) - h(c) to 1e-8": action_ok,
        "runtime < 30 s": elapsed < 30.0,
    })


def test_criterion_8_determinism(tmp_path, capsys):
    reports = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        code = cli.main(["verify-ellipsoid", "--radii", "1.0,1.2",
                        "--seeds", "64", "--rng-seed", "20260823",
                        "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        files = [f for f in os.listdir(out)
                 if f.endswith("_verify-ellipsoid.json")]
        assert len(files) == 1
        reports.append((files[0], open(out / files[0], "rb").read()))
    with capsys.disabled():
        check(8, "determinism", {
            "same file name": reports[0][0] == reports[1][0],
            "byte-identical reports": reports[0][1] == reports[1][1],
        })


def test_criterion_9_ellipticity_report():
    grid = np.linspace(0.0, 1.0, 100)
    pts = [(float(x), float(y)) for x in grid for y in grid]
    t0 = time.perf_counter()
    out = ellipticity_grid_report(pts)
    elapsed = time.perf_counter() - t0
    live = [m for m in out if not m.skipped]
    finite = all(math.isfinite(m.first_minor) and math.isfinite(m.determinant)
                 for m in live)
    signs = {np.sign(m.determinant) for m in live if m.x > 0 and m.y > 0}
    check(9, "ellipticity report", {
        "10^4 grid evaluated": len(out) == 10_000,
        "finite at non-axis points": finite,
        "determinant sign reported, not asserted": -1.0 in signs,
        "runtime < 1 s": elapsed < 1.0,
    })
