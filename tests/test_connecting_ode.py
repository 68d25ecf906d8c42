"""Tests for the reduced connecting ODE G' = 1 - h_s'(e^G) and its
certificates: barrier, gap, uniqueness probes, and adjoint decay."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from reebpinch.radial_profile import CoreParams, MonotoneHomotopy, build_profile
from reebpinch.connecting_ode import (
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

BASE = CoreParams(1.5, 0.5, 0.8)
TOL = 1e-10

# A h''(A) computed as a product missed c by one ulp on these triples
ULP_TRIPLES = [
    (1.469734732992947, 0.6852010833099484, 0.47426797170192003),
    (1.3811799278482795, 0.4318310869857669, 0.44738549180328846),
    (1.50379444565624, 0.31302117090672255, 0.48835170082747936),
    (1.715884868055582, 0.4253363497555256, 0.9693316631019115),
]
# h_0'(R0 B) rounds to just below 1 on these triples: at s = 0 the bracket
# [delta_bar, R0 B] of the barrier misses its exact root
EXACT_ROOT_TRIPLES = [
    (1.7095635533332825, 0.1522833537310362, 0.6908444119617343),
    (1.6674882993102074, 0.1640057498589158, 0.9179592914879322),
]


def reference_ode_residual(traj):
    """The residual step by step: a five-point G_at, an F_at and an h_s'
    evaluation per accepted step."""
    H = traj.homotopy
    t = traj._sol.t
    coeffs = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    res = np.empty(len(t))
    for i, s in enumerate(t):
        if i < len(t) - 1:
            dh = min(1e-3, (t[i + 1] - s) / 8.0)
        else:
            dh = -min(1e-3, (s - t[i - 1]) / 8.0)
        Gp = float(coeffs @ traj.G_at(s + dh * np.arange(5))) / dh
        res[i] = abs(Gp - (1.0 - H.dr(s, traj.F_at(s))))
    return res


# the base triple; four triples whose solve_ivp event (gap < tol) never fired,
# so the old integration ran on to s = 158-275; and a slow approach, R0/c = 12
TAIL_TRIPLES = [
    (BASE.R0, BASE.A, BASE.c),
    (1.5983450906351209, 0.5694433571770787, 0.4645218113437295),
    (1.9147023661062121, 0.12178762163966894, 0.3211321420967579),
    (1.3417368847876787, 0.7452869275584817, 0.24759034533053637),
    (1.7351801451295614, 0.19149332866072655, 0.3285886896774173),
    (1.2, 0.3, 0.1),
]


def reference_integrate_connecting(H, tol=TOL):
    """The whole trajectory by solve_ivp's RK45: until the gap R0 B - e^G
    falls to tol, or out to s = max(50, 2 (R0/c) ln(1/tol))."""
    core = H.profile.core
    target = core.R0 * core.B

    def rhs(s, y):
        return [1.0 - float(H.dr(s, math.exp(y[0])))]

    def reached(s, y):
        return (target - math.exp(y[0])) - tol
    reached.terminal = True
    reached.direction = -1

    horizon = max(50.0, 2.0 * core.R0 / core.c * math.log(1.0 / tol))
    return solve_ivp(rhs, (-1.0, horizon), [math.log(core.A)], method="RK45",
                     rtol=tol, atol=tol, first_step=1e-3, dense_output=True,
                     events=reached)


@pytest.fixture(scope="module")
def homotopy():
    return MonotoneHomotopy(build_profile(BASE))


@pytest.fixture(scope="module")
def trajectory(homotopy):
    return integrate_connecting(homotopy, tol=TOL)


@pytest.fixture(scope="module")
def barrier(homotopy):
    return barrier_curve(homotopy, 1001)


class TestBarrier:
    def test_endpoint_levels(self, barrier):
        assert barrier.rho[0] == pytest.approx(BASE.A, rel=1e-10)
        assert barrier.rho[-1] == pytest.approx(BASE.R0 * BASE.B, rel=1e-10)

    def test_exact_root_at_zero(self, barrier):
        assert barrier.s_grid[-1] == 0.0
        assert barrier.rho[-1] == BASE.R0 * BASE.B

    @pytest.mark.parametrize("triple", EXACT_ROOT_TRIPLES)
    def test_root_on_the_bracket_edge(self, triple):
        core = CoreParams(*triple)
        H = MonotoneHomotopy(build_profile(core))
        assert float(H.dr(0.0, core.R0 * core.B)) < 1.0
        barrier = barrier_curve(H, 1001)
        assert barrier.rho[-1] == core.R0 * core.B
        assert np.all(np.diff(barrier.rho) >= -1e-12)

    def test_monotone(self, barrier):
        assert np.all(np.diff(barrier.rho) >= -1e-12)

    def test_strict_gap_on_interior_grid(self, trajectory, barrier):
        s = np.linspace(-1.0, 0.0, 1002)[1:-1]
        rho = np.interp(s, barrier.s_grid, barrier.rho)
        assert np.all(np.exp(trajectory.G_at(s)) < rho)


class TestConnectingTrajectory:
    def test_reaches_target(self, trajectory):
        target = BASE.R0 * BASE.B
        assert abs(float(trajectory.F[-1]) - target) < 1e-6
        assert target == pytest.approx(1.401184, abs=1e-6)

    def test_frozen_branch_bit_exact(self, trajectory):
        frozen = trajectory.s_grid <= -1.0
        assert np.all(trajectory.F[frozen] == BASE.A)
        assert trajectory.F_at(-2.5) == BASE.A

    def test_monotone_convergence(self, trajectory):
        target = BASE.R0 * BASE.B
        after = trajectory.s_grid >= 0.0
        F = trajectory.F[after]
        assert np.all(np.diff(F) >= -1e-13)
        assert np.all(np.diff(target - F) <= 1e-13)
        assert target - F[-1] <= 10 * TOL

    def test_residual_at_accepted_steps(self, trajectory):
        assert float(np.max(ode_residual(trajectory))) <= 10 * TOL

    @pytest.mark.parametrize("triple", [
        (BASE.R0, BASE.A, BASE.c), ULP_TRIPLES[0], EXACT_ROOT_TRIPLES[0]])
    def test_residual_matches_per_step_loop(self, triple):
        H = MonotoneHomotopy(build_profile(CoreParams(*triple)))
        traj = integrate_connecting(H, tol=TOL)
        fast, slow = ode_residual(traj), reference_ode_residual(traj)
        assert fast.shape == slow.shape == traj._sol.t.shape
        assert np.max(np.abs(fast - slow)) <= 1e-10

    def test_gap_margin_positive(self, trajectory, barrier):
        assert verify_gap(trajectory, barrier) > 0.0

    def test_gap_rejects_foreign_barrier(self, trajectory):
        other = barrier_curve(MonotoneHomotopy(build_profile(BASE)), 101)
        with pytest.raises(ValueError):
            verify_gap(trajectory, other)

    def test_gap_rejects_barrier_of_dropped_homotopy(self):
        # the barrier is its homotopy's only holder; fresh homotopies of
        # another profile may be allocated where it lived
        other = build_profile(CoreParams(1.5, 0.4, 0.7))
        barrier = barrier_curve(MonotoneHomotopy(build_profile(BASE)), 201)
        for _ in range(4):
            traj = integrate_connecting(MonotoneHomotopy(other), tol=TOL)
            with pytest.raises(ValueError):
                verify_gap(traj, barrier)


class TestClosedFormTail:
    @pytest.fixture(scope="class", params=TAIL_TRIPLES)
    def pair(self, request):
        H = MonotoneHomotopy(build_profile(CoreParams(*request.param)))
        return integrate_connecting(H, tol=TOL), reference_integrate_connecting(H)

    def test_steps_are_the_reference_steps(self, pair):
        traj, ref = pair
        n = len(traj._sol.t)
        assert traj.step_stats["steps"] == n < len(ref.t)
        assert traj.step_stats["rhs_evals"] < ref.nfev
        assert np.array_equal(traj._sol.t, ref.t[:n])
        assert np.array_equal(traj._sol.G, ref.y[0, :n])
        assert np.array_equal(traj.s_grid[40:-1], traj._sol.t)

    def test_dense_solution_bit_identical_on_cutoff_interval(self, pair):
        traj, ref = pair
        s = np.linspace(-1.0, 0.0, 1001)[1:]
        assert np.array_equal(traj.G_at(s), ref.sol(s)[0])

    def test_tail_matches_reference(self, pair):
        traj, ref = pair
        # up to where the shorter of the two trajectories ends
        end = min(traj.s_grid[-1], ref.t[-1])
        s = np.linspace(traj._sol.t[-1], end, 2001)
        assert np.max(np.abs(traj.G_at(s) - ref.sol(s)[0])) <= 1e-10

    def test_gap_margin_equal(self, pair):
        traj, ref = pair
        barrier = barrier_curve(traj.homotopy, 1001)
        inner = (barrier.s_grid > -1.0) & (barrier.s_grid < 0.0)
        s = barrier.s_grid[inner]
        margin = float(np.min(barrier.rho[inner] - np.exp(ref.sol(s)[0])))
        assert verify_gap(traj, barrier) == margin

    def test_ends_at_gap_tol(self, pair):
        traj, _ = pair
        core = traj.homotopy.profile.core
        target = core.R0 * core.B
        assert traj.s_grid[-1] > traj._sol.t[-1]
        assert abs((target - traj.F[-1]) - TOL) <= 1e-13
        assert traj.F_at(traj.s_grid[-1]) == traj.F[-1]

    def test_numerical_part_ends_on_log_piece(self, pair):
        traj, _ = pair
        prof = traj.homotopy.profile
        t_log = next(pc.t0 for pc in prof.pieces if pc.kind == "log")
        t = traj._sol.t
        assert t[-1] >= 0.0
        # the first step end at s >= 0 on the rescaled log piece is the last
        ends = (t >= 0.0) & (traj._sol.G >= math.log(prof.core.R0) + t_log)
        assert np.flatnonzero(ends).tolist() == [len(t) - 1]


class TestLinearizedData:
    def test_zeta2_frozen_value(self, trajectory):
        assert zeta2_coefficient(trajectory, -5.0) == BASE.c
        assert zeta2_coefficient(trajectory, -1.0) == BASE.c

    @pytest.mark.parametrize("triple", ULP_TRIPLES)
    def test_zeta2_exact_by_construction(self, triple):
        core = CoreParams(*triple)
        traj = integrate_connecting(MonotoneHomotopy(build_profile(core)),
                                    tol=TOL)
        assert zeta2_coefficient(traj, -2.0) == core.c

    def test_adjoint_log_derivative(self, trajectory):
        s, x2 = radial_adjoint_profile(trajectory)
        frozen = s <= -1.0
        sf, xf = s[frozen], np.log(x2[frozen])
        slope = np.diff(xf) / np.diff(sf)
        assert np.max(np.abs(slope + 1.0)) < 1e-9

    def test_adjoint_normalization(self, trajectory):
        s, x2 = radial_adjoint_profile(trajectory)
        i0 = int(np.argmin(np.abs(s)))
        assert x2[i0] == pytest.approx(1.0, abs=1e-14)

    def test_adjoint_positive(self, trajectory):
        _, x2 = radial_adjoint_profile(trajectory)
        assert np.all(x2 > 0.0)


class TestUniquenessProbe:
    def test_perturbations_diverge(self, homotopy):
        for delta in (1e-3, -1e-3):
            rep = uniqueness_probe(homotopy, -2.0, BASE.A + delta, -10.0)
            assert rep.blow_up or rep.ratio >= 10.0

    def test_fixed_point_stays(self, homotopy):
        rep = uniqueness_probe(homotopy, -2.0, BASE.A, -10.0)
        assert rep.ratio == 0.0
        assert not rep.blow_up

    def test_domain_checks(self, homotopy):
        with pytest.raises(ValueError):
            uniqueness_probe(homotopy, 0.5, BASE.A + 1e-3, -10.0)
        with pytest.raises(ValueError):
            uniqueness_probe(homotopy, -2.0, BASE.A + 1e-3, -1.0)


class TestEllipticityReport:
    def test_reports_without_asserting(self):
        pts = [(0.5, 0.5), (0.3, 0.7)]
        out = ellipticity_grid_report(pts)
        q = math.sin(math.hypot(0.5, 0.5)) ** 2 / (0.5 ** 2 + 0.5 ** 2)
        det = 0.25 * 0.25 * ((1 + q) ** 2 - (q - 4 * math.pi ** 2) ** 2)
        assert out[0].determinant == pytest.approx(det, rel=1e-12)
        assert out[0].determinant < 0.0

    def test_symmetry(self):
        a, b = ellipticity_grid_report([(0.3, 0.7), (0.7, 0.3)])
        assert a.determinant == pytest.approx(b.determinant, rel=1e-12)

    def test_skips_outside_domain(self):
        out = ellipticity_grid_report([(0.0, 0.0), (3.0, 3.0)])
        assert all(m.skipped for m in out)


class TestExport:
    def test_csv_shape(self, trajectory, barrier):
        lines = trajectory_to_csv(trajectory, barrier).strip().split("\n")
        assert lines[0] == "s,F,G,rho,margin"
        first = lines[1].split(",")
        assert float(first[0]) == -3.0
        assert float(first[1]) == BASE.A
        assert first[3] == ""  # barrier only defined on [-1, 0]

    def test_csv_margin_positive(self, trajectory, barrier):
        lines = trajectory_to_csv(trajectory, barrier).strip().split("\n")[1:]
        margins = [float(p[4]) for p in (l.split(",") for l in lines)
                   if p[4] != ""]
        assert margins and all(m > -1e-12 for m in margins)
