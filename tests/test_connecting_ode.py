"""Tests for the reduced connecting ODE G' = 1 - h_s'(e^G) and its
certificates: barrier, gap, uniqueness probes, and adjoint decay."""

import math

import numpy as np
import pytest

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


class TestLinearizedData:
    def test_zeta2_frozen_value(self, trajectory):
        assert zeta2_coefficient(trajectory, -5.0) == BASE.c
        assert zeta2_coefficient(trajectory, -1.0) == BASE.c

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
