"""Tests for starshaped-hypersurface geometry, Reeb fields, the Reeb flow, and
the graph-Hamiltonian correspondence over the unit sphere."""

import json
import math

import numpy as np
import pytest

from reebpinch.radial_profile import CoreParams, build_profile, verify_profile
from reebpinch import contact_dynamics as cd
from reebpinch.orbit_search import flow

BASE = CoreParams(1.5, 0.5, 0.8)


@pytest.fixture(scope="module")
def profile():
    p = build_profile(BASE)
    verify_profile(p)
    return p


@pytest.fixture(scope="module")
def space():
    return cd.AmbientSpace(2)


@pytest.fixture(scope="module")
def sphere(space):
    return cd.StarshapedSurface(space, np.zeros(4), "sphere", {"R": 1.0})


@pytest.fixture(scope="module")
def ellipsoid(space):
    return cd.StarshapedSurface(space, np.zeros(4), "ellipsoid",
                                {"radii": [1.0, 1.2]})


@pytest.fixture(scope="module")
def graph_f(ellipsoid):
    f, scale = cd.radial_to_graph(ellipsoid)
    return f


def random_surface_point(surface, rng):
    u = rng.normal(size=surface.space.dim)
    return surface.point(u / np.linalg.norm(u))


class TestAmbientSpace:
    def test_complex_structure(self, space):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 4))
        assert np.allclose(space.J(space.J(u)), -u)
        assert np.dot(space.J(u), space.J(v)) == pytest.approx(np.dot(u, v))
        assert space.omega(u, v) == pytest.approx(-space.omega(v, u))


class TestNormals:
    def test_sphere_normal(self, sphere):
        x = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.allclose(cd.normal_at(sphere, x), x)

    def test_ellipsoid_normal_matches_quadric(self, ellipsoid):
        rng = np.random.default_rng(1)
        for _ in range(5):
            z = random_surface_point(ellipsoid, rng)
            nu = cd.normal_at(ellipsoid, z)
            g = z / np.array([1.0, 1.0, 1.44, 1.44])
            assert np.allclose(nu, g / np.linalg.norm(g), atol=1e-12)

    def test_starshapedness(self, ellipsoid):
        rng = np.random.default_rng(2)
        z = random_surface_point(ellipsoid, rng)
        assert np.dot(cd.normal_at(ellipsoid, z), z / np.linalg.norm(z)) > 0

    def test_off_surface_refused(self, sphere):
        with pytest.raises(cd.OffSurfaceError):
            cd.normal_at(sphere, np.array([1.1, 0.0, 0.0, 0.0]))


class TestReebField:
    def test_unit_sphere(self, sphere, space):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        R = cd.reeb_field(sphere, x)
        assert np.allclose(R, 2.0 * space.J(x))
        assert np.linalg.norm(R) == pytest.approx(2.0)

    def test_identities_random(self, ellipsoid, space):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = random_surface_point(ellipsoid, rng)
            nu = cd.normal_at(ellipsoid, z)
            R = cd.reeb_field(ellipsoid, z)
            assert abs(space.alpha(z, R) - 1.0) < 1e-12
            assert abs(np.linalg.norm(R) * np.dot(nu, z) - 2.0) < 1e-12
            for _ in range(3):
                v = rng.normal(size=4)
                v -= np.dot(v, nu) * nu
                assert abs(space.omega(R, v)) < 1e-10

    def test_hypothesis_violation(self, space):
        # sphere centred far from the origin: <nu, x> < 0 on the near side
        S = cd.StarshapedSurface(space, np.array([3.0, 0, 0, 0]), "sphere",
                                 {"R": 1.0})
        with pytest.raises(cd.HypothesisError):
            cd.reeb_field(S, np.array([2.0, 0.0, 0.0, 0.0]))


class TestFlow:
    def test_sphere_period(self, sphere):
        x = np.array([0.6, 0.0, 0.8, 0.0])
        end = flow(sphere, [(x, math.pi, 1e-12, None)])[0]
        assert np.linalg.norm(end - x) < 1e-10
        assert sphere.radial_residual(end) < 1e-12

    def test_ellipsoid_coordinate_circle(self, ellipsoid):
        x = np.array([0.0, 0.0, 1.2, 0.0])
        end = flow(ellipsoid, [(x, math.pi * 1.44, 1e-12, None)])[0]
        assert np.linalg.norm(end - x) < 1e-10

    def test_off_surface_start_refused(self, sphere):
        with pytest.raises(cd.OffSurfaceError):
            flow(sphere, [(np.array([2.0, 0.0, 0.0, 0.0]), 1.0, 1e-12, None)])

    def test_hypothesis_violation(self, space):
        # on the sphere about (3, 0, 0, 0) the point (2, 0, 0, 0) has
        # <nu, x> = -2
        S = cd.StarshapedSurface(space, np.array([3.0, 0, 0, 0]), "sphere",
                                 {"R": 1.0})
        with pytest.raises(cd.HypothesisError):
            flow(S, [(np.array([2.0, 0.0, 0.0, 0.0]), 1.0, 1e-12, None)])

    def test_off_surface_request_fails_whole_batch(self, ellipsoid):
        good = ellipsoid.point(cd.sphere_directions(4, 3, seed=2))
        with pytest.raises(cd.OffSurfaceError):
            flow(ellipsoid, [(good, 2.0, 1e-10, None),
                             (1.01 * good[0], 2.0, 1e-10, None)])

    def test_request_independent_of_batch(self, ellipsoid):
        x = ellipsoid.point(cd.sphere_directions(4, 8, seed=3))
        requests = [
            (x[0], 3.0, 1e-8, None),
            (x[1:4], 4.5, 1e-12, np.linspace(0.0, 4.5, 33)),
            (x[4:], 2.0, 1e-10, None),
            (x[7], 1.3, 1e-12, np.array([1.3, 0.2, 0.7])),
        ]
        batch = flow(ellipsoid, requests)
        for req, together in zip(requests, batch):
            alone = flow(ellipsoid, [req])[0]
            assert alone.shape == together.shape
            assert np.array_equal(alone, together)
        # a request's result is also unchanged by its position
        reordered = flow(ellipsoid, requests[::-1])[::-1]
        assert all(np.array_equal(a, b) for a, b in zip(batch, reordered))

    # at 1e-4 solve_ivp rejects one step, which exercises the retry path
    @pytest.mark.parametrize("tol, T", [(1e-8, 3.0), (1e-12, 4.5),
                                        (1e-10, 2.0), (1e-4, 4.5)])
    def test_lone_request_matches_solve_ivp(self, ellipsoid, monkeypatch,
                                            tol, T):
        from scipy.integrate import solve_ivp
        x = ellipsoid.point(cd.sphere_directions(4, 3, seed=5))

        def rhs(t, y):
            return ellipsoid.reeb(y.reshape(x.shape)).reshape(-1)

        sol = solve_ivp(rhs, (0.0, T), x.reshape(-1), method="DOP853",
                        rtol=tol, atol=tol, dense_output=True)
        mid = 0.5 * (sol.t[1:] + sol.t[:-1])
        calls = [0]
        reeb = cd.StarshapedSurface.reeb

        def counted(surface, pts):
            calls[0] += 1
            return reeb(surface, pts)

        monkeypatch.setattr(cd.StarshapedSurface, "reeb", counted)
        dense = flow(ellipsoid, [(x, T, tol, mid)])[0]
        monkeypatch.undo()
        # one output time inside each solve_ivp step: the same steps make
        # both integrators evaluate the same stages, dense ones included
        assert calls[0] == sol.nfev
        assert np.max(np.abs(dense.reshape(len(mid), -1)
                             - sol.sol(mid).T)) < 1e-12
        end, at_steps = flow(ellipsoid, [(x, T, tol, None),
                                         (x, T, tol, sol.t)])
        assert np.max(np.abs(end.reshape(-1) - sol.y[:, -1])) < 1e-12
        assert np.max(np.abs(at_steps.reshape(len(sol.t), -1)
                             - sol.y.T)) < 1e-12


class TestSampling:
    def test_hypothesis_margin_sphere(self, sphere):
        assert cd.hypothesis_margin(sphere, 1.0) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_hypothesis_margin_ellipsoid(self, ellipsoid):
        assert cd.hypothesis_margin(ellipsoid, 1.0) > 0.0

    def test_dented_surface_fails(self, space):
        terms = [cd.SeriesTerm((0,), 0.6)]
        dent = cd.StarshapedSurface(space, np.zeros(4), "radial_series",
                                    {"R": 1.0, "terms": terms})
        R1, _, _ = cd.pinch_radii(dent)
        assert cd.hypothesis_margin(dent, R1) < 0.0

    def test_pinch_radii(self, sphere, ellipsoid, space):
        R1, R2, ok = cd.pinch_radii(ellipsoid)
        assert (R1, R2, ok) == (pytest.approx(1.0, abs=1e-9),
                                pytest.approx(1.2, abs=1e-9), True)
        R1, R2, ok = cd.pinch_radii(sphere)
        assert R1 == pytest.approx(R2)
        fat = cd.StarshapedSurface(space, np.zeros(4), "ellipsoid",
                                   {"radii": [1.0, 1.5]})
        assert cd.pinch_radii(fat)[2] is False


class TestGraphFunction:
    def test_radial_to_graph_pinching(self, ellipsoid, graph_f):
        u = cd.sphere_directions(4, 10_000, seed=5)
        vals = graph_f.value(u)
        assert np.all(vals >= 1.0 - 1e-12)
        assert np.all(vals <= 1.44 + 1e-12)
        _, scale = cd.radial_to_graph(ellipsoid)
        assert scale == pytest.approx(math.pi, abs=1e-8)

    def test_sphere_gives_constant(self, sphere):
        f, scale = cd.radial_to_graph(sphere)
        u = cd.sphere_directions(4, 100, seed=6)
        assert np.allclose(f.value(u), 1.0)
        assert scale == pytest.approx(math.pi, abs=1e-9)

    def test_off_center_refused(self, space):
        S = cd.StarshapedSurface(space, np.array([0.1, 0, 0, 0]), "sphere",
                                 {"R": 1.0})
        with pytest.raises(ValueError):
            cd.radial_to_graph(S)


class TestVfField:
    def test_constant_f_vanishes(self, space):
        f = cd.GraphFunction.constant(space, 1.3)
        x = np.array([0.0, 0.6, 0.8, 0.0])
        assert np.allclose(cd.v_f_field(f, x), 0.0)

    def test_df_of_vf_vanishes(self, graph_f):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.normal(size=4)
            x /= np.linalg.norm(x)
            V = cd.v_f_field(graph_f, x)
            assert abs(graph_f.df(x, V)) < 1e-9

    def test_defining_equation(self, graph_f, space):
        rng = np.random.default_rng(8)
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        V = cd.v_f_field(graph_f, x)
        Rb = cd._rbar(space, x)
        for _ in range(6):
            e = rng.normal(size=4)
            e -= np.dot(e, x) * x
            lhs = space.omega(V, e) / math.pi
            rhs = (graph_f.df(x, Rb) * cd._abar(space, x, e)
                   - graph_f.df(x, e))
            assert abs(lhs - rhs) < 1e-9


class TestGraphHamiltonianField:
    def test_constant_one_is_reeb(self, profile, space):
        f = cd.GraphFunction.constant(space, 1.0)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        X = cd.graph_hamiltonian_field(profile, f, x, 0.7)
        hp = float(profile.dh(0.7))
        assert np.allclose(X.sphere, hp * cd._rbar(space, x))
        assert X.radial == 0.0

    def test_contraction_identity(self, profile, graph_f, space):
        rng = np.random.default_rng(9)
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        r = 0.8
        X = cd.graph_hamiltonian_field(profile, graph_f, x, r)
        fv = float(graph_f.value(x))
        hp = float(profile.dh(r / fv))
        for _ in range(6):
            ws = rng.normal(size=4)
            ws -= np.dot(ws, x) * x
            wr = rng.normal()
            lhs = (X.radial * cd._abar(space, x, ws)
                   - wr * cd._abar(space, x, X.sphere)
                   + r * space.omega(X.sphere, ws) / math.pi)
            rhs = -hp * (wr / fv - r * graph_f.df(x, ws) / fv ** 2)
            assert abs(lhs - rhs) < 1e-8

    def test_domain_error(self, profile, graph_f):
        with pytest.raises(ValueError):
            cd.graph_hamiltonian_field(profile, graph_f,
                                       np.array([1.0, 0, 0, 0]), -0.1)


class TestReebOnGraph:
    def test_constant_one(self, space):
        f = cd.GraphFunction.constant(space, 1.0)
        x = np.array([0.0, 0.0, 0.0, 1.0])
        Rf = cd.reeb_on_graph(f, x)
        assert np.allclose(Rf.sphere, cd._rbar(space, x))
        assert Rf.radial == 0.0

    def test_normalization(self, graph_f, space):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.normal(size=4)
            x /= np.linalg.norm(x)
            Rf = cd.reeb_on_graph(graph_f, x)
            fv = float(graph_f.value(x))
            assert fv * cd._abar(space, x, Rf.sphere) == pytest.approx(
                1.0, abs=1e-8)

    def test_kernel_of_dalpha_f(self, graph_f, space):
        rng = np.random.default_rng(11)
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        Rf = cd.reeb_on_graph(graph_f, x)
        fv = float(graph_f.value(x))
        for _ in range(6):
            e = rng.normal(size=4)
            e -= np.dot(e, x) * x
            val = (graph_f.df(x, Rf.sphere) * cd._abar(space, x, e)
                   - graph_f.df(x, e) * cd._abar(space, x, Rf.sphere)
                   + fv * space.omega(Rf.sphere, e) / math.pi)
            assert abs(val) < 1e-8


class TestCorrespondence:
    def test_constant_one_at_A(self, profile, space):
        # 1-periodic orbit of X_h at r = A: x flows along Rbar, h'(A) = 1
        f = cd.GraphFunction.constant(space, 1.0)
        gam = cd.integrate_hamiltonian_orbit(profile, f,
                                             np.array([1.0, 0, 0, 0]), BASE.A)
        assert gam.closure_residual < 1e-9
        res = cd.orbit_correspondence(profile, f, gam)
        assert res.c == pytest.approx(BASE.A, abs=1e-10)
        assert res.zeta.period == pytest.approx(1.0, abs=1e-10)

    def test_rescaled_constant(self, profile, space):
        # f = R0 viewed through h: the orbit at level c = B has period R0
        f = cd.GraphFunction.constant(space, BASE.R0)
        gam = cd.integrate_hamiltonian_orbit(profile, f,
                                             np.array([0, 0, 1.0, 0]), BASE.B)
        res = cd.orbit_correspondence(profile, f, gam)
        assert res.c == pytest.approx(BASE.B, abs=1e-10)
        assert res.zeta.period == pytest.approx(BASE.R0, abs=1e-10)

    def test_ellipsoid_residual(self, profile, graph_f):
        # the short-axis circle: f = 1 there, so pick c with h'(c) = 1
        gam = cd.integrate_hamiltonian_orbit(profile, graph_f,
                                             np.array([1.0, 0, 0, 0]), BASE.A)
        res = cd.orbit_correspondence(profile, graph_f, gam)
        assert res.rf_spread < 1e-10
        assert res.reeb_residual < 1e-6
        assert res.zeta.period == pytest.approx(float(profile.dh(res.c)),
                                                abs=1e-8)
        assert abs(res.zeta.action - res.zeta.period) < 1e-8

    def test_batched_residual_matches_pointwise(self, profile, graph_f):
        # reference: R_f evaluated one sample at a time on both circles
        cases = [(np.array([1.0, 0, 0, 0]), BASE.A),
                 (np.array([0, 0, 1.0, 0]), BASE.A * math.exp(0.44 / BASE.c))]
        for x0, c in cases:
            gam = cd.integrate_hamiltonian_orbit(profile, graph_f, x0, c)
            res = cd.orbit_correspondence(profile, graph_f, gam)
            zdot = cd._fft_derivative(res.zeta.points, res.zeta.period)
            resid = 0.0
            for k in range(len(gam.r)):
                Rf = cd.reeb_on_graph(graph_f, gam.x[k])
                target = np.append(Rf.sphere, Rf.radial)
                resid = max(resid, float(np.linalg.norm(zdot[k] - target)))
            assert abs(res.reeb_residual - resid) <= 1e-15

    def test_rejects_non_orbit(self, profile, graph_f):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(64, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        bad = cd.HamiltonianOrbit(x=x, r=np.linspace(0.5, 0.9, 64),
                                  closure_residual=0.0)
        with pytest.raises(ValueError):
            cd.orbit_correspondence(profile, graph_f, bad)


class TestHamiltonianAction:
    def test_constant_one_at_A(self, profile, space):
        f = cd.GraphFunction.constant(space, 1.0)
        gam = cd.integrate_hamiltonian_orbit(profile, f,
                                             np.array([1.0, 0, 0, 0]), BASE.A)
        assert cd.hamiltonian_action(profile, f, gam) == pytest.approx(
            BASE.A, abs=1e-10)

    def test_rescaled_window_endpoint(self, profile, space):
        f = cd.GraphFunction.constant(space, BASE.R0)
        gam = cd.integrate_hamiltonian_orbit(profile, f,
                                             np.array([0, 0, 1.0, 0]), BASE.B)
        target = BASE.A + BASE.c * (BASE.B - BASE.A)
        assert cd.hamiltonian_action(profile, f, gam) == pytest.approx(
            target, abs=1e-10)

    def test_quadrature_matches_closed_form(self, profile, graph_f):
        c = BASE.A * math.exp(0.44 / BASE.c)   # h'(c) = 1.44 on the log piece
        gam = cd.integrate_hamiltonian_orbit(profile, graph_f,
                                             np.array([0, 0, 1.0, 0]), c)
        act = cd.hamiltonian_action(profile, graph_f, gam)
        closed = c * float(profile.dh(c)) - float(profile.h(c))
        assert act == pytest.approx(closed, abs=1e-8)


class TestSerialization:
    def test_surface_round_trip(self, space):
        terms = [cd.SeriesTerm((0, 2), 0.05), cd.SeriesTerm((1, 1, 3), -0.02)]
        S = cd.StarshapedSurface(space, np.zeros(4), "radial_series",
                                 {"R": 1.1, "terms": terms})
        clone = cd.surface_from_json(cd.surface_to_json(S))
        u = cd.sphere_directions(4, 50, seed=13)
        assert np.array_equal(clone.rho(u), S.rho(u))
        assert np.array_equal(clone.rho_grad(u), S.rho_grad(u))

    def test_orbit_export(self):
        pts = np.column_stack([np.cos(np.linspace(0, 2 * np.pi, 8)),
                               np.sin(np.linspace(0, 2 * np.pi, 8)),
                               np.zeros(8), np.zeros(8)])
        orb = cd.ReebOrbit(pts, math.pi, math.pi, 1e-12)
        text = cd.orbit_to_csv(orb)
        assert text.splitlines()[0] == "t,x_1,x_2,x_3,x_4"
        assert len(text.strip().splitlines()) == 9
        summary = cd.orbit_summary(orb)
        assert json.dumps(summary)  # serializable
        assert summary["multiplicity"] == 1
