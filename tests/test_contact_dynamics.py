"""Tests for starshaped-hypersurface geometry, Reeb fields, the Reeb flow, and
the graph-Hamiltonian correspondence over the unit sphere."""

import itertools
import json
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reebpinch.radial_profile import CoreParams, build_profile, verify_profile
from reebpinch.connecting_ode import IntegrationError
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
def series(space):
    terms = [cd.SeriesTerm((0, 2), 0.015), cd.SeriesTerm((1, 1, 3), -0.012),
             cd.SeriesTerm((0, 1, 2), 0.01), cd.SeriesTerm((3, 3), -0.008),
             cd.SeriesTerm((2,), 0.005), cd.SeriesTerm((2, 0), 0.004)]
    return cd.StarshapedSurface(space, np.zeros(4), "radial_series",
                                {"R": 1.0, "terms": terms})


@pytest.fixture(scope="module")
def graph_f(ellipsoid):
    f, scale = cd.radial_to_graph(ellipsoid)
    return f


def random_surface_point(surface, rng):
    u = rng.normal(size=surface.space.dim)
    return surface.point(u / np.linalg.norm(u))


def reference_rho(terms, R, u):
    """R (1 + sum_terms coef prod_k u_{i_k}), one product loop per term."""
    val = np.ones(u.shape[:-1])
    for indices, coef in terms:
        out = np.ones(u.shape[:-1])
        for i in indices:
            out = out * u[..., i]
        val = val + coef * out
    return R * val


def reference_rho_grad(terms, R, u):
    """Ambient gradient of reference_rho by the product rule over each
    term's factors."""
    grad = np.zeros_like(u)
    for indices, coef in terms:
        g = np.zeros_like(u)
        for k, i in enumerate(indices):
            part = np.ones(u.shape[:-1])
            for m, j in enumerate(indices):
                if m != k:
                    part = part * u[..., j]
            g[..., i] += part
        grad = grad + coef * g
    return R * grad


def reference_series_normal(terms, R, x):
    """Unnormalized exterior normal u - g_t of a centred radial series at x,
    g_t the tangential part of the gradient of rho over |x|."""
    nr = np.linalg.norm(x, axis=-1)
    u = x / nr[..., None]
    g = reference_rho_grad(terms, R, u)
    return u - (g - np.sum(g * u, axis=-1)[..., None] * u) / nr[..., None]


def reference_series(S, u):
    """The basis filled one degree block at a time as u[var] *
    basis[parent], then the einsum contraction; the monomials are read
    back off the compiled factor table."""
    basis = [tuple(S._factors[S._present[:, j, 0], j])
             for j in range(S._factors.shape[1])]
    position = {m: j for j, m in enumerate(basis)}
    uT = u.reshape(-1, u.shape[-1]).T
    B = np.empty((len(basis), uT.shape[1]))
    B[0] = 1.0
    lo = 1
    for _, group in itertools.groupby(basis[1:], key=len):
        block = list(group)
        var = np.array([m[-1] for m in block])
        parent = np.array([position[m[:-1]] for m in block])
        np.multiply(uT.take(var, axis=0), B.take(parent, axis=0),
                    out=B[lo:lo + len(block)])
        lo += len(block)
    return np.einsum("mn,mk->nk", B, S._C).reshape(u.shape[:-1] + (-1,))


def reference_rho_grad_of(S, u):
    if S.kind == "ellipsoid":
        q = np.sum((u / S._axes) ** 2, axis=-1)
        return -(q[..., None] ** -1.5) * (u / S._axes ** 2)
    return reference_series(S, u)[..., 1:]


def reference_radial_normal_dir(S, x):
    """(|w| + <g, u>) u - g through the np.linalg.norm and np.sum wrappers:
    the radial-function path, which any kind can take."""
    w = np.asarray(x, dtype=float) - S.center
    nr = np.linalg.norm(w, axis=-1)
    u = w / nr[..., None]
    g = reference_rho_grad_of(S, u)
    return (nr + np.sum(g * u, axis=-1))[..., None] * u - g


def reference_normal_dir(S, x):
    """The quadric's gradient over 2, (x - x0)/a^2, on an ellipsoid; the
    radial-function path on a sphere or radial series."""
    if S.kind == "ellipsoid":
        return (np.asarray(x, dtype=float) - S.center) / S._axes ** 2
    return reference_radial_normal_dir(S, x)


def reference_reeb(S, x, normal_dir=reference_normal_dir):
    """(2/<nu, x>) J nu with J applied before the scaling."""
    nu = normal_dir(S, x)
    denom = np.sum(nu * x, axis=-1)
    return (2.0 / denom)[..., None] * S.space.J(nu)


def corpus_surface(index):
    """Surface ``index`` of the acceptance corpus (criterion 6)."""
    rng = np.random.default_rng(20260823)
    for _ in range(index + 1):
        terms = []
        for _ in range(int(rng.integers(2, 5))):
            k = int(rng.integers(2, 4))
            idx = tuple(int(i) for i in rng.integers(0, 4, size=k))
            terms.append(cd.SeriesTerm(idx, float(rng.uniform(-0.02, 0.02))))
    return cd.StarshapedSurface(cd.AmbientSpace(2), np.zeros(4),
                                "radial_series", {"R": 1.0, "terms": terms})


def ellipsoid_surface(radii):
    return cd.StarshapedSurface(cd.AmbientSpace(len(radii)),
                                np.zeros(2 * len(radii)), "ellipsoid",
                                {"radii": radii})


def named_surface(name):
    """A surface of every kind and code path: the sphere of radius 1.3,
    two ellipsoids, corpus surfaces ("corpus" is corpus 0) and an
    off-centre degree-4 series."""
    if name.startswith("corpus"):
        return corpus_surface(int(name[len("corpus"):] or 0))
    if name == "off-centre degree 4":
        return cd.StarshapedSurface(
            cd.AmbientSpace(2), np.array([0.05, -0.02, 0.01, 0.0]),
            "radial_series", {"R": 1.1, "terms": [
                cd.SeriesTerm((0, 1, 1, 3), 0.03),
                cd.SeriesTerm((2,), 0.01), cd.SeriesTerm((0, 2), -0.02)]})
    if name == "sphere":
        return cd.StarshapedSurface(cd.AmbientSpace(2), np.zeros(4),
                                    "sphere", {"R": 1.3})
    return ellipsoid_surface([1.0, 1.2] if name == "E(1,1.2)"
                             else [1.0, 1.1, 1.3])


class ReferenceOutputPlan:
    """A request's output times, the order they fall due, and their array."""

    def __init__(self, times, shape):
        self.times = np.asarray(times, dtype=float)
        self.shape = shape
        self.out = np.empty((len(self.times),) + shape)
        self.order = np.argsort(self.times, kind="stable")
        self.keys = self.times[self.order]
        self.done = 0

    def due(self, t_new, finished):
        """Range (in time order) of the times the step ending at t_new
        serves: the first step also takes times before 0, the last one
        those past T."""
        end = (len(self.order) if finished else int(np.searchsorted(
            self.keys, t_new, "right")))
        return self.done, end


def reference_combine(coef, K):
    return (coef[:, None, None] * K[:len(coef)]).sum(axis=0)


def reference_dense_output(surface, batch, plans, dense, y_new, K, h):
    """Fill the output times that this accepted step covers, from its own
    three extra stages."""
    sel = np.r_[tuple(batch.rows_of(j) for j, _, _ in dense)]
    Kd = K[:, sel]
    y_old = batch.y[sel]
    hr = h[batch.owner[sel]][:, None]
    for s in range(cd._N_STAGES + 1, len(cd._C)):
        Kd[s] = surface.reeb(y_old + reference_combine(cd._A[s, :s], Kd)
                             * hr)
    delta = y_new[sel] - y_old
    F = [delta, hr * Kd[0] - delta,
         2 * delta - hr * (Kd[cd._N_STAGES] + Kd[0])]
    F += [hr * reference_combine(cd._D[i], Kd) for i in range(len(cd._D))]
    at = 0
    for j, lo, hi in dense:
        plan, r = plans[j], slice(at, at + batch.rows[j])
        at += batch.rows[j]
        idx = plan.order[lo:hi]
        x = ((plan.times[idx] - batch.t[j]) / h[j])[:, None, None]
        out = np.zeros((len(idx),) + y_old[r].shape)
        for i, f in enumerate(reversed(F)):
            out += f[r]
            out *= x if i % 2 == 0 else 1 - x
        plan.out[idx] = (out + y_old[r]).reshape((len(idx),) + plan.shape)
        plan.done = hi


def reference_flow(surface, requests):
    """flow with the dense output of each accepted step evaluated in that
    step, three extra stages per step."""
    states = [np.asarray(r[0], dtype=float) for r in requests]
    stacked = [s.reshape(-1, s.shape[-1]) for s in states]
    plans = [None if r[3] is None else ReferenceOutputPlan(r[3], s.shape)
             for r, s in zip(requests, states)]
    results = [None] * len(requests)
    batch = cd._Batch(surface.reeb, range(len(requests)),
                      np.vstack(stacked),
                      [r[1] for r in requests], [r[2] for r in requests],
                      [len(s) for s in stacked],
                      [p is not None for p in plans])
    K = np.empty((len(cd._C),) + batch.y.shape)
    N = cd._N_STAGES
    while len(batch.ids):
        t, y = batch.t, batch.y
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = np.where(~batch.rejected & (batch.h_abs < min_step),
                         min_step, batch.h_abs)
        t_new = np.minimum(t + h_abs, batch.T)
        h = t_new - t
        hr = batch.per_row(h)
        K = K[:, :len(y)]
        K[0] = batch.f
        for s in range(1, N):
            K[s] = surface.reeb(y + reference_combine(cd._A[s, :s], K) * hr)
        y_new = y + hr * reference_combine(cd._B, K)
        K[N] = surface.reeb(y_new)
        scale = batch.scale(np.maximum(np.abs(y), np.abs(y_new)))
        e5 = batch.mean_sq(reference_combine(cd._E5, K) / scale)
        e3 = batch.mean_sq(reference_combine(cd._E3, K) / scale)
        denom = e5 + 0.01 * e3
        zero = denom == 0.0
        err = np.where(zero, 0.0, h * e5 / np.sqrt(np.where(zero, 1.0, denom)))
        accept = err < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = cd._SAFETY * err ** cd._ERROR_EXPONENT
        grow = np.where(err == 0.0, cd._MAX_FACTOR,
                        np.where(ratio < cd._MAX_FACTOR, ratio,
                                 cd._MAX_FACTOR))
        grow = np.where(batch.rejected, np.minimum(1.0, grow), grow)
        shrink = np.where(ratio > cd._MIN_FACTOR, ratio, cd._MIN_FACTOR)
        batch.h_abs = h * np.where(accept, grow, shrink)
        batch.rejected = ~accept
        finished = accept & (t_new >= batch.T)

        dense = []
        for j in np.flatnonzero(accept):
            if plans[j] is not None:
                lo, hi = plans[j].due(t_new[j], finished[j])
                if hi > lo:
                    dense.append((j, lo, hi))
        if dense:
            reference_dense_output(surface, batch, plans, dense, y_new, K, h)

        take = batch.per_row(accept)
        batch.y = np.where(take, y_new, y)
        batch.f = np.where(take, K[N], batch.f)
        batch.t = np.where(accept, t_new, t)
        if finished.any():
            for j in np.flatnonzero(finished):
                i, plan = batch.ids[j], plans[j]
                end = batch.y[batch.rows_of(j)].reshape(states[i].shape)
                results[i] = end if plan is None else (end, plan.out)
            plans = [p for p, done in zip(plans, finished) if not done]
            batch.keep(~finished)
    return results


def reference_integrate_hamiltonian_orbit(profile, f, x0, c):
    """integrate_hamiltonian_orbit by solve_ivp's DOP853, one point per
    right-hand side evaluation, sampled by its dense output."""
    from scipy.integrate import solve_ivp
    x0 = np.asarray(x0, dtype=float)
    x0 = x0 / np.linalg.norm(x0)
    y0 = np.append(x0, c * float(f.value(x0)))

    def rhs(t, y):
        pt = y[:-1] / np.linalg.norm(y[:-1])
        X = cd.graph_hamiltonian_field(profile, f, pt, float(y[-1]))
        return np.append(X.sphere, X.radial)

    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-12,
                    atol=1e-12, dense_output=True)
    assert sol.success
    Y = sol.sol(np.arange(256) / 256).T
    x = Y[:, :-1] / np.linalg.norm(Y[:, :-1], axis=-1, keepdims=True)
    return cd.HamiltonianOrbit(
        x=x, r=Y[:, -1],
        closure_residual=float(np.linalg.norm(sol.y[:, -1] - y0)))


class TestAmbientSpace:
    def test_complex_structure(self, space):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 4))
        assert np.allclose(space.J(space.J(u)), -u)
        assert np.dot(space.J(u), space.J(v)) == pytest.approx(np.dot(u, v))
        assert space.omega(u, v) == pytest.approx(-space.omega(v, u))


# the fields each kind reads: a flaw in one of them must raise ValueError
_FIELDS = {"sphere": ("center", "R"), "ellipsoid": ("center", "radii"),
           "radial_series": ("center", "R", "terms")}
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NOT_POSITIVE = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])


class TestSurfaceValidation:
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_complex_coordinate(self, n):
        # verify-pinch once ran on n = 0 and reported a needed count of 0
        with pytest.raises(ValueError, match="n must be at least 1"):
            cd.StarshapedSurface(cd.AmbientSpace(n), np.zeros(0), "sphere",
                                 {"R": 1.0})

    def test_sphere_is_empty_series(self, space):
        u = cd.sphere_directions(4, 100, seed=7)
        for R in (1.0, 1.3):
            sphere = cd.StarshapedSurface(space, np.zeros(4), "sphere",
                                          {"R": R})
            series = cd.StarshapedSurface(space, np.zeros(4), "radial_series",
                                          {"R": R, "terms": []})
            assert np.array_equal(sphere.rho(u), series.rho(u))
            assert np.array_equal(sphere.rho_grad(u), series.rho_grad(u))
            assert np.array_equal(sphere.rho(u), np.full(100, R))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(1, 3), data=st.data())
    def test_compiled_series_matches_term_loops(self, n, data):
        """rho and rho_grad from the compiled basis agree with the per-term
        product loops, for repeated indices, duplicate terms and degrees
        0 to 5."""
        dim = 2 * n
        draw = data.draw
        terms = draw(st.lists(st.tuples(
            st.lists(st.integers(0, dim - 1), max_size=5),
            st.floats(-0.2, 0.2)), max_size=6))
        terms += draw(st.lists(st.sampled_from(terms), max_size=2)
                      if terms else st.just([]))
        R = draw(st.floats(0.5, 2.0))
        S = cd.StarshapedSurface(
            cd.AmbientSpace(n), np.zeros(dim), "radial_series",
            {"R": R, "terms": [cd.SeriesTerm(tuple(i), c) for i, c in terms]})
        u = cd.sphere_directions(dim, 64, seed=draw(st.integers(0, 99)))
        assert np.max(np.abs(S.rho(u) - reference_rho(terms, R, u))) < 1e-14
        assert np.max(np.abs(S.rho_grad(u)
                             - reference_rho_grad(terms, R, u))) < 1e-14
        # one direction alone, without a batch axis
        assert S.rho(u[0]).shape == ()
        assert S.rho_grad(u[0]).shape == (dim,)

    @pytest.mark.parametrize("flaw", [None, "center", "center length",
                                      "radii", "radii length", "R",
                                      "terms index", "terms coef"])
    @pytest.mark.parametrize("kind", sorted(_FIELDS))
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(1, 3), data=st.data())
    def test_valid_or_value_error(self, kind, flaw, n, data):
        """A surface with one invalid field that its kind reads raises
        ValueError naming the field; any other surface builds and has
        finite, positive sizes, a finite (2n,) center and in-range, finite
        terms."""
        dim = 2 * n
        draw = data.draw
        center = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim,
                               max_size=dim))
        radii = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
        R = draw(st.floats(0.5, 2.0))
        terms = draw(st.lists(st.tuples(
            st.lists(st.integers(0, dim - 1), max_size=3),
            st.floats(-0.5, 0.5)), min_size=1, max_size=3))
        k = draw(st.integers(0, len(terms) - 1))
        if flaw == "center":
            center[draw(st.integers(0, dim - 1))] = draw(_NOT_FINITE)
        elif flaw == "center length":
            center = draw(st.sampled_from([center[:-1], center + [0.0]]))
        elif flaw == "radii":
            radii[draw(st.integers(0, n - 1))] = draw(_NOT_POSITIVE)
        elif flaw == "radii length":
            radii = draw(st.sampled_from([radii[:-1], radii + [1.0]]))
        elif flaw == "R":
            R = draw(_NOT_POSITIVE)
        elif flaw == "terms index":
            terms[k] = (terms[k][0] + [draw(st.sampled_from([-1, dim]))],
                        terms[k][1])
        elif flaw == "terms coef":
            terms[k] = (terms[k][0], draw(_NOT_FINITE))
        params = {"R": R, "radii": radii,
                  "terms": [cd.SeriesTerm(tuple(i), c) for i, c in terms]}
        build = lambda: cd.StarshapedSurface(cd.AmbientSpace(n), center,
                                             kind, params)
        if flaw is not None and flaw.split()[0] in _FIELDS[kind]:
            with pytest.raises(ValueError, match=flaw.split()[0]):
                build()
            return
        S = build()
        assert S.center.shape == (dim,) and np.all(np.isfinite(S.center))
        sizes = radii if kind == "ellipsoid" else [R]
        assert np.all(np.isfinite(sizes)) and np.all(np.asarray(sizes) > 0)
        if kind == "ellipsoid":
            assert len(radii) == n
        if kind == "radial_series":
            for t in S.params["terms"]:
                assert all(0 <= i < dim for i in t.indices)
                assert math.isfinite(t.coef)


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

    def test_matches_unit_normal_formula(self, ellipsoid, series, space):
        """reeb is (2/<nu, x>) J nu and normals is nu, for the unit normal
        nu: the gradient of the quadric on the ellipsoid, u - g_t on the
        series."""
        terms = [(t.indices, t.coef) for t in series.params["terms"]]
        cases = [(ellipsoid, lambda x: x / np.array([1.0, 1.0, 1.44, 1.44])),
                 (series, lambda x: reference_series_normal(terms, 1.0, x))]
        for surface, direction in cases:
            x = surface.point(cd.sphere_directions(4, 200, seed=11))
            nu = direction(x)
            nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
            R = (2.0 / np.sum(nu * x, axis=-1))[:, None] * space.J(nu)
            assert np.max(np.abs(surface.reeb(x) - R)) < 1e-14
            assert np.max(np.abs(surface.normals(x) - nu)) < 1e-14

    @pytest.mark.parametrize("count", [1, 7, 64])
    @pytest.mark.parametrize("name", ["sphere", "E(1,1.2)", "E(1,1.1,1.3)",
                                      "corpus", "off-centre degree 4"])
    def test_bitwise_equal_to_reference(self, name, count):
        """reeb and normals give the bits of the per-degree basis (the
        closed-form quadric gradient on an ellipsoid), the norm and sum
        wrappers and a separate J, in a batch and, for one point, without
        a batch axis."""
        S = named_surface(name)
        x = S.point(cd.sphere_directions(S.space.dim, 64, seed=9)[:count])
        for pts in [x] + ([x[0]] if count == 1 else []):
            nu = reference_normal_dir(S, pts)
            nu = nu / np.linalg.norm(nu, axis=-1, keepdims=True)
            for got, want in ((S.reeb(pts), reference_reeb(S, pts)),
                              (S.normals(pts), nu)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("radii", [[1.0, 1.2], [1.0, 1.1, 1.3]])
    def test_closed_form_matches_radial_path(self, radii):
        """The ellipsoid's closed-form normal w/a^2 gives the field and the
        unit normals of the radial-function path to round-off."""
        S = ellipsoid_surface(radii)
        x = S.point(cd.sphere_directions(S.space.dim, 4096, seed=0))
        radial = reference_radial_normal_dir(S, x)
        radial /= np.linalg.norm(radial, axis=-1, keepdims=True)
        assert np.max(np.abs(S.normals(x) - radial)) <= 4e-15
        old = reference_reeb(S, x, normal_dir=reference_radial_normal_dir)
        assert np.max(np.abs(S.reeb(x) - old)) <= 4e-15

    def test_hypothesis_violation_reports_unit_normal(self, space):
        # sphere about (3, 0, 0, 0): at (2, 0, 0, 0) the unit normal is
        # (-1, 0, 0, 0) and <nu, x> = -2, whatever the normal's scale
        S = cd.StarshapedSurface(space, np.array([3.0, 0, 0, 0]), "sphere",
                                 {"R": 1.0})
        pts = np.array([[3.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
        with pytest.raises(cd.HypothesisError,
                           match=r"<nu, x> = -2\.000e\+00"):
            S.reeb(pts)


class TestBatchIndependence:
    @pytest.mark.parametrize("count", [1, 7, 2000])
    @pytest.mark.parametrize("name", ["sphere", "E(1,1.2)", "E(1,1.1,1.3)",
                                      "corpus", "corpus 2",
                                      "off-centre degree 4"])
    def test_row_alone_equal_to_batch(self, name, count):
        """rho, point, project, reeb and normals give a row the same bits
        alone, without a batch axis, as in a batch of ``count`` rows."""
        S = named_surface(name)
        dim = S.space.dim
        u = cd.sphere_directions(dim, count, seed=12)
        rng = np.random.default_rng(count)
        off = S.center + rng.uniform(0.5, 1.5, (count, 1)) * (S.point(u)
                                                             - S.center)
        x = S.point(u)
        for f, arg in ((S.rho, u), (S.point, 1.7 * u), (S.project, off),
                       (S.reeb, x), (S.normals, x)):
            batch = f(arg)
            for i in range(count):
                alone = f(arg[i])
                assert alone.shape == batch[i].shape
                assert alone.tobytes() == batch[i].tobytes(), (f.__name__, i)


def result_bits(result):
    """(shape, bytes) of each array in a flow result: the states at T, or
    the pair (states at T, samples)."""
    arrays = result if isinstance(result, tuple) else (result,)
    return [(a.shape, a.tobytes()) for a in arrays]


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

    @pytest.mark.parametrize("radii", [[1.0, 1.2], [1.0, 1.1, 1.3]])
    def test_ellipsoid_exact_flow(self, radii):
        """The Reeb flow of E(r) is z_j -> exp(2 i t / r_j^2) z_j in complex
        coordinates z_j = x_j + i y_j; flow follows it and stays on the
        surface."""
        S = ellipsoid_surface(radii)
        x = S.point(cd.sphere_directions(S.space.dim, 16, seed=3))
        T = 20.0
        times = np.linspace(0.0, T, 200)
        results = flow(S, [(row, T, 1e-12, times) for row in x])
        z = x[:, 0::2] + 1j * x[:, 1::2]
        rate = 2.0 / np.asarray(radii) ** 2
        for z0, (end, samples) in zip(z, results):
            exact = z0 * np.exp(1j * rate * T)
            assert np.max(np.abs(end[0::2] + 1j * end[1::2] - exact)) < 1e-9
            quadric = np.sum(samples ** 2 / S._axes ** 2, axis=-1)
            assert np.max(np.abs(quadric - 1.0)) < 1e-9

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

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_nonpositive_T_refused(self, sphere, T):
        with pytest.raises(ValueError, match="T > 0"):
            flow(sphere, [(np.array([1.0, 0.0, 0.0, 0.0]), T, 1e-12, None)])

    def test_nan_step_size_fails(self, sphere, monkeypatch):
        # the field overflows, every error estimate is NaN and so is the
        # step size; the step loop must stop instead of retrying forever.
        # The alarm turns a regression into a failure instead of a hang.
        monkeypatch.setattr(cd.StarshapedSurface, "reeb",
                            lambda self, x: 1e300 * np.asarray(x))

        def hung(signum, frame):
            raise TimeoutError("flow still running after 30 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with np.errstate(all="ignore"), pytest.raises(
                    IntegrationError, match="flow integration failed"):
                flow(sphere, [(np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 1e-10,
                               None)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_off_surface_request_fails_whole_batch(self, ellipsoid):
        good = ellipsoid.point(cd.sphere_directions(4, 3, seed=2))
        with pytest.raises(cd.OffSurfaceError):
            flow(ellipsoid, [(good, 2.0, 1e-10, None),
                             (1.01 * good[0], 2.0, 1e-10, None)])

    def test_request_independent_of_batch(self, ellipsoid, series):
        # the series field sums its monomial basis per row: a BLAS product
        # there would make a row's value depend on the batch around it
        for surface in (ellipsoid, series):
            x = surface.point(cd.sphere_directions(4, 8, seed=3))
            requests = [
                (x[0], 3.0, 1e-8, None),
                (x[1:4], 4.5, 1e-12, np.linspace(0.0, 4.5, 33)),
                (x[4:], 2.0, 1e-10, None),
                (x[7], 1.3, 1e-12, np.array([1.3, 0.2, 0.7])),
                # before 0, past T, unsorted and repeated; and no time
                (x[2], 2.5, 1e-10, np.array([-0.5, 3.0, 0.1, 2.5, 0.1])),
                (x[5:7], 1.0, 1e-9, np.array([])),
            ]
            batch = flow(surface, requests)
            for req, together in zip(requests, batch):
                alone = flow(surface, [req])[0]
                assert result_bits(alone) == result_bits(together)
            # a request's result is also unchanged by its position
            reordered = flow(surface, requests[::-1])[::-1]
            assert all(result_bits(a) == result_bits(b)
                       for a, b in zip(batch, reordered))

    def test_end_state_independent_of_times(self, ellipsoid, series):
        """In a mixed batch, every request returns the end state of the same
        request sent alone without times, and the samples of the same
        request sent alone with times."""
        for surface in (ellipsoid, series):
            x = surface.point(cd.sphere_directions(4, 8, seed=6))
            requests = [
                (x[0], 3.0, 1e-8, np.linspace(0.0, 3.0, 256)),
                (x[1:4], 4.5, 1e-12, None),
                (x[4], 2.0, 1e-10, np.array([2.0, -0.3, 0.5, 0.5])),
                (x[5:7], 1.0, 1e-9, np.array([])),
                (x[7], 1.3, 1e-12, None),
            ]
            for req, got in zip(requests, flow(surface, requests)):
                end = flow(surface, [req[:3] + (None,)])[0]
                if req[3] is None:
                    assert result_bits(got) == result_bits(end)
                    continue
                got_end, got_samples = got
                assert result_bits(got_end) == result_bits(end)
                _, samples = flow(surface, [req])[0]
                assert result_bits(got_samples) == result_bits(samples)

    @pytest.mark.parametrize("batched", [False, True])
    def test_dense_output_bitwise_equal_to_per_step(self, ellipsoid, series,
                                                    batched):
        """Dense output evaluated after the last step has the bits of the
        per-step evaluation, for times before 0, at step ends, past T,
        unsorted, repeated and empty, alone and in a mixed batch."""
        from scipy.integrate import solve_ivp
        for surface in (ellipsoid, series):
            x = surface.point(cd.sphere_directions(4, 8, seed=4))
            # solve_ivp takes flow's steps on a lone request
            ends = solve_ivp(lambda t, y: surface.reeb(y), (0.0, 3.0), x[0],
                             method="DOP853", rtol=1e-10, atol=1e-10).t
            requests = [
                (x[0], 3.0, 1e-10, ends[::-1]),
                (x[1:4], 4.5, 1e-12, np.linspace(-1.0, 5.0, 41)),
                (x[4], 2.0, 1e-8, np.array([0.7, -0.2, 2.0, 0.7, 9.0, 0.0])),
                (x[5:7], 1.0, 1e-9, np.array([])),
                (x[7], 1.0, 1e-9, []),
                (x[5], 2.5, 1e-10, None),
                (x[6:], 3.5, 1e-4, np.linspace(0.0, 3.5, 7)),
            ]
            if batched:
                pairs = zip(flow(surface, requests),
                            reference_flow(surface, requests))
            else:
                pairs = ((flow(surface, [r])[0],
                          reference_flow(surface, [r])[0]) for r in requests)
            for got, want in pairs:
                assert result_bits(got) == result_bits(want)

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
        _, dense = flow(ellipsoid, [(x, T, tol, mid)])[0]
        monkeypatch.undo()
        # one output time inside each solve_ivp step: the same steps make
        # both integrators evaluate the same stages.  solve_ivp evaluates
        # the interpolant's 3 extra stages step by step, flow once for all
        # steps after the last one
        assert calls[0] == sol.nfev - 3 * (len(sol.t) - 1) + 3
        assert np.max(np.abs(dense.reshape(len(mid), -1)
                             - sol.sol(mid).T)) < 1e-12
        end, (_, at_steps) = flow(ellipsoid, [(x, T, tol, None),
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


    def test_pinch_radii_closed_forms(self):
        # the sampled-and-refined radii of these were 1.0000000000000002
        # and 0.9999999999999999
        cases = [("ellipsoid", {"radii": [1.3, 1.0]}, 1.0, 1.3),
                 ("ellipsoid", {"radii": [1.0, 1.1, 1.3]}, 1.0, 1.3),
                 ("sphere", {"R": 1.3}, 1.3, 1.3)]
        for kind, params, R1, R2 in cases:
            n = len(params.get("radii", [0, 0]))
            S = cd.StarshapedSurface(cd.AmbientSpace(n), np.zeros(2 * n),
                                     kind, params)
            assert cd.pinch_radii(S) == (R1, R2, True)


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

    def test_stack_equals_rows(self, profile, graph_f, series, space):
        # the DOP853 engine's batch contract: a row's field has the same
        # bits whatever rows are stacked around it
        rng = np.random.default_rng(14)
        x = rng.normal(size=(9, 4))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        r = rng.uniform(0.4, 1.6, size=9)
        for f in (graph_f, cd.radial_to_graph(series)[0],
                  cd.GraphFunction.constant(space, BASE.R0)):
            X = cd.graph_hamiltonian_field(profile, f, x, r)
            assert X.sphere.shape == (9, 4) and X.radial.shape == (9,)
            for k in range(len(x)):
                row = cd.graph_hamiltonian_field(profile, f, x[k:k + 1],
                                                 r[k:k + 1])
                assert row.sphere.tobytes() == X.sphere[k:k + 1].tobytes()
                assert row.radial.tobytes() == X.radial[k:k + 1].tobytes()


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


def correspondence_cases(space, graph_f):
    """(f, x0, c) of the four orbits of TestCorrespondence."""
    e1, e3 = np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0])
    return [(cd.GraphFunction.constant(space, 1.0), e1, BASE.A),
            (cd.GraphFunction.constant(space, BASE.R0), e3, BASE.B),
            (graph_f, e1, BASE.A),
            (graph_f, e3, BASE.A * math.exp(0.44 / BASE.c))]


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

    def test_engine_matches_solve_ivp(self, profile, space, graph_f):
        for f, x0, c in correspondence_cases(space, graph_f):
            got = cd.integrate_hamiltonian_orbit(profile, f, x0, c)
            want = reference_integrate_hamiltonian_orbit(profile, f, x0, c)
            assert np.max(np.abs(got.x - want.x)) <= 1e-12
            assert np.max(np.abs(got.r - want.r)) <= 1e-12
            assert abs(got.closure_residual
                       - want.closure_residual) <= 1e-12
            a = cd.orbit_correspondence(profile, f, got)
            b = cd.orbit_correspondence(profile, f, want)
            assert abs(a.c - b.c) <= 1e-12
            assert abs(a.zeta.period - b.zeta.period) <= 1e-12
            # the residual's spectral derivative multiplies a sample
            # difference (about 1e-14 here) by up to 2 pi 128 / T
            assert abs(a.reeb_residual - b.reeb_residual) <= 1e-11

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
