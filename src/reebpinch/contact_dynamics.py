"""Starshaped hypersurfaces in R^{2n}, their Reeb dynamics, and the
graph-Hamiltonian correspondence over the unit sphere.

Conventions
-----------
Coordinates are interleaved (x_1, y_1, ..., x_n, y_n) and the complex
structure acts by J(x_j, y_j) = (-y_j, x_j).  The ambient contact form on a
starshaped hypersurface is alpha_x(v) = <v, Jx>/2, whose Reeb field is
R(x) = (2/<nu, x>) J nu with nu the unit exterior normal; on the unit sphere
this flow has period pi.

The graph side works in prequantization units: the rescaled form
abar = alpha/pi has Reeb field Rbar(x) = 2*pi*J x with 1-periodic flow, and
d(abar)(u, v) = <Ju, v>/pi on sphere tangent vectors.  A starshaped surface
centred at the origin with inner radius R1 corresponds to the graph function
f = (rho/R1)^2 with the unit conversion scale = pi*R1^2.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize
from scipy.stats import norm, qmc

from .radial_profile import RadialProfile

__all__ = [
    "AmbientSpace",
    "StarshapedSurface",
    "ReebOrbit",
    "GraphFunction",
    "HamiltonianOrbit",
    "HypothesisError",
    "OffSurfaceError",
    "RADIAL_SIGN",
    "normal_at",
    "reeb_field",
    "hypothesis_margin",
    "pinch_radii",
    "sphere_directions",
    "v_f_field",
    "graph_hamiltonian_field",
    "reeb_on_graph",
    "orbit_correspondence",
    "hamiltonian_action",
    "integrate_hamiltonian_orbit",
    "radial_to_graph",
    "surface_to_json",
    "surface_from_json",
    "orbit_to_csv",
    "orbit_summary",
]

ON_SURFACE_TOL = 1e-9

_SPHERE_SAMPLES = 4096     # pinch/hypothesis directions, ~0.1 rad apart on S^3
_HAMILTONIAN_POINTS = 256  # graph-orbit samples, as many as a searched Reeb orbit
_HAMILTONIAN_TOL = 1e-12   # near round-off, so closure and r/f spread show the orbit
_RF_SPREAD_TOL = 1e-6      # r/f is constant on an orbit; a larger spread rejects it

# Radial sign in the graph Hamiltonian vector field.  With the conventions
# above the contraction identity i_X d(r*abar) = -d h_f forces +1; the module
# test suite pins this down through the contraction residual.
RADIAL_SIGN = +1.0


class HypothesisError(RuntimeError):
    """<nu(x), x> <= 0 encountered: the starshapedness hypothesis fails."""


class OffSurfaceError(ValueError):
    """A point handed to a surface operation does not lie on the surface."""


# ---------------------------------------------------------------------------
# ambient linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmbientSpace:
    """R^{2n} with the standard complex structure on interleaved coordinates."""

    n: int

    @property
    def dim(self) -> int:
        return 2 * self.n

    def J(self, v: np.ndarray) -> np.ndarray:
        """Apply J(x_j, y_j) = (-y_j, x_j) along the last axis."""
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        out[..., 0::2] = -v[..., 1::2]
        out[..., 1::2] = v[..., 0::2]
        return out

    def omega(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Standard symplectic form omega(u, v) = <Ju, v>."""
        return np.sum(self.J(u) * np.asarray(v, dtype=float), axis=-1)

    def alpha(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Ambient contact form alpha_x(v) = <v, Jx>/2."""
        return 0.5 * np.sum(np.asarray(v, dtype=float) * self.J(x), axis=-1)


# ---------------------------------------------------------------------------
# starshaped surfaces
# ---------------------------------------------------------------------------

# Smooth sphere functions used by the "radial_series" kind: each term is a
# coefficient times a product of coordinate monomials restricted to the
# sphere, psi(u) = prod_k u_{i_k}.
@dataclass(frozen=True)
class SeriesTerm:
    indices: tuple
    coef: float

    def value(self, u: np.ndarray) -> np.ndarray:
        out = np.ones(u.shape[:-1])
        for i in self.indices:
            out = out * u[..., i]
        return self.coef * out

    def grad(self, u: np.ndarray) -> np.ndarray:
        """Ambient gradient of the monomial (product rule over repeated indices)."""
        g = np.zeros_like(u)
        for k, i in enumerate(self.indices):
            part = np.ones(u.shape[:-1])
            for m, j in enumerate(self.indices):
                if m != k:
                    part = part * u[..., j]
            g[..., i] += part
        return self.coef * g


@dataclass(frozen=True)
class StarshapedSurface:
    """Hypersurface { x0 + rho(u) u : |u| = 1 } starshaped about x0.

    kind is one of "sphere" (params: R), "ellipsoid" (params: radii, one per
    complex coordinate), or "radial_series" (params: R and a list of
    SeriesTerm perturbations rho = R (1 + sum terms)).
    """

    space: AmbientSpace
    center: np.ndarray
    kind: str
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.kind not in ("sphere", "ellipsoid", "radial_series"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.kind == "ellipsoid":
            radii = np.asarray(self.params["radii"], dtype=float)
            if radii.size != self.space.n:
                raise ValueError("ellipsoid needs one radius per complex coordinate")
            # per-real-coordinate semi-axes (each complex radius twice)
            object.__setattr__(self, "_axes", np.repeat(radii, 2))

    def rho(self, u: np.ndarray) -> np.ndarray:
        """Radial function on unit directions (vectorized over leading axes)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "sphere":
            return np.broadcast_to(float(self.params["R"]), u.shape[:-1]).copy()
        if self.kind == "ellipsoid":
            q = np.sum((u / self._axes) ** 2, axis=-1)
            return q ** -0.5
        val = np.ones(u.shape[:-1])
        for term in self.params["terms"]:
            val = val + term.value(u)
        return float(self.params["R"]) * val

    def rho_grad(self, u: np.ndarray) -> np.ndarray:
        """Ambient gradient of the defining formula of rho at unit directions."""
        u = np.asarray(u, dtype=float)
        if self.kind == "sphere":
            return np.zeros_like(u)
        if self.kind == "ellipsoid":
            q = np.sum((u / self._axes) ** 2, axis=-1)
            return -(q[..., None] ** -1.5) * (u / self._axes ** 2)
        g = np.zeros_like(u)
        for term in self.params["terms"]:
            g = g + term.grad(u)
        return float(self.params["R"]) * g

    # -- geometry helpers --------------------------------------------------

    def radial_residual(self, x: np.ndarray) -> np.ndarray:
        w = np.asarray(x, dtype=float) - self.center
        nr = np.linalg.norm(w, axis=-1)
        u = w / nr[..., None]
        return np.abs(nr - self.rho(u))

    def require_on_surface(self, x: np.ndarray) -> None:
        """Raise OffSurfaceError unless every point of x lies on the surface."""
        res = float(np.max(self.radial_residual(x)))
        if res >= ON_SURFACE_TOL:
            raise OffSurfaceError(f"point off surface, radial residual {res:.3e}")

    def project(self, x: np.ndarray) -> np.ndarray:
        """Radially rescale x - x0 onto the surface."""
        w = np.asarray(x, dtype=float) - self.center
        nr = np.linalg.norm(w, axis=-1)
        u = w / nr[..., None]
        return self.center + self.rho(u)[..., None] * u

    def point(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        u = u / np.linalg.norm(u, axis=-1, keepdims=True)
        return self.center + self.rho(u)[..., None] * u

    def normals(self, x: np.ndarray) -> np.ndarray:
        """Unit exterior normals at on-surface points (no residual check)."""
        w = np.asarray(x, dtype=float) - self.center
        nr = np.linalg.norm(w, axis=-1)
        u = w / nr[..., None]
        g = self.rho_grad(u)
        # tangential part of the gradient of the 0-homogeneous extension
        gt = (g - np.sum(g * u, axis=-1)[..., None] * u) / nr[..., None]
        nu = u - gt
        return nu / np.linalg.norm(nu, axis=-1, keepdims=True)

    def reeb(self, x: np.ndarray) -> np.ndarray:
        """Batched Reeb field (2/<nu, x>) J nu at on-surface points (no
        residual check); raises HypothesisError where <nu, x> <= 0."""
        nu = self.normals(x)
        denom = np.sum(nu * np.asarray(x, dtype=float), axis=-1)
        if denom.min() <= 0.0:
            raise HypothesisError(f"<nu, x> = {float(denom.min()):.3e} <= 0: "
                                  "not starshaped about the origin")
        return (2.0 / denom)[..., None] * self.space.J(nu)


def normal_at(surface: StarshapedSurface, x: np.ndarray) -> np.ndarray:
    """Unit exterior normal at an on-surface point."""
    surface.require_on_surface(x)
    return surface.normals(np.asarray(x, dtype=float))


def reeb_field(surface: StarshapedSurface, x: np.ndarray) -> np.ndarray:
    """Reeb vector field R(x) = (2/<nu(x), x>) J nu(x) of alpha on the surface."""
    surface.require_on_surface(x)
    return surface.reeb(x)


# ---------------------------------------------------------------------------
# sampling, hypothesis, pinching
# ---------------------------------------------------------------------------

def sphere_directions(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-uniform directions: Sobol points through the
    Gaussian inverse CDF, normalized to the unit sphere."""
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    pts = eng.random(1 << max(0, (count - 1).bit_length()))[:count]
    g = norm.ppf(np.clip(pts, 1e-12, 1.0 - 1e-12))
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def hypothesis_margin(surface: StarshapedSurface, R1: float) -> float:
    """min <nu(z), z - x0> - R1 over a sample of 4096 quasi-uniform
    directions; a positive value means the period-bound hypothesis holds at
    every sampled point (a sample, not a certificate over the whole surface)."""
    u = sphere_directions(surface.space.dim, _SPHERE_SAMPLES)
    z = surface.point(u)
    nu = surface.normals(z)
    return float(np.min(np.sum(nu * (z - surface.center), axis=-1)) - R1)


def pinch_radii(surface: StarshapedSurface):
    """(R1, R2, ratio_ok): extremal radii |x - x0|, refined by local
    optimization from the best sampled directions; ratio_ok iff R2/R1 < sqrt 2."""
    u = sphere_directions(surface.space.dim, _SPHERE_SAMPLES)
    r = surface.rho(u)

    def refine(u0, sign):
        # rho on the 0-homogeneous extension; gradient available analytically
        def obj(v):
            nr = np.linalg.norm(v)
            u = v / nr
            g = surface.rho_grad(u)
            gt = (g - np.dot(g, u) * u) / nr
            return sign * float(surface.rho(u)), sign * gt
        res = minimize(obj, u0, jac=True, method="L-BFGS-B",
                       options={"gtol": 1e-14, "ftol": 1e-16, "maxiter": 500})
        return sign * res.fun

    R1 = min(float(np.min(r)), refine(u[np.argmin(r)], +1.0))
    R2 = max(float(np.max(r)), refine(u[np.argmax(r)], -1.0))
    return R1, R2, bool(R2 / R1 < math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Reeb orbits
# ---------------------------------------------------------------------------

@dataclass
class ReebOrbit:
    """A closed Reeb orbit given by ordered samples over one period."""

    points: np.ndarray
    period: float
    action: float
    closure_residual: float
    multiplicity: int = 1
    iterate_multiplicities: tuple = (1,)  # k of the k-fold iterates folded in

    def resample(self, count: int) -> np.ndarray:
        """Uniform-in-index resample of the point loop (for set comparisons)."""
        idx = np.linspace(0, len(self.points) - 1, count).round().astype(int)
        return self.points[idx]


def orbit_to_csv(orbit: ReebOrbit) -> str:
    """CSV dump "t,x_1,...,x_2n" of the orbit samples, uniform in t."""
    n_cols = orbit.points.shape[1]
    times = np.linspace(0.0, orbit.period, len(orbit.points))
    buf = io.StringIO()
    buf.write("t," + ",".join(f"x_{i + 1}" for i in range(n_cols)) + "\n")
    for t, p in zip(times, orbit.points):
        buf.write(",".join(repr(float(v)) for v in (t, *p)) + "\n")
    return buf.getvalue()


def orbit_summary(orbit: ReebOrbit) -> dict:
    return {
        "T": float(orbit.period),
        "action": float(orbit.action),
        "residual": float(orbit.closure_residual),
        "multiplicity": int(orbit.multiplicity),
    }


# ---------------------------------------------------------------------------
# graph functions over the unit sphere
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphFunction:
    """Function f on S^{2n-1} with values in [1, R0], given with the ambient
    gradient of a 0-homogeneous-extendable formula."""

    space: AmbientSpace
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def constant(cls, space: AmbientSpace, c: float) -> "GraphFunction":
        return cls(space,
                   lambda u: np.broadcast_to(float(c), np.shape(u)[:-1]).copy(),
                   lambda u: np.zeros_like(np.asarray(u, dtype=float)))

    def df(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Differential along sphere tangent vectors (tangential gradient)."""
        x = np.asarray(x, dtype=float)
        g = self.grad(x)
        gt = g - np.sum(g * x, axis=-1)[..., None] * x
        return np.sum(gt * np.asarray(v, dtype=float), axis=-1)


def radial_to_graph(surface: StarshapedSurface):
    """Encode a centred starshaped surface as (GraphFunction, scale).

    f(u) = (rho(u)/R1)^2 has min 1, and scale = pi R1^2 converts graph-side
    (prequantization) action units back to ambient ones.
    """
    if np.any(surface.center != 0.0):
        raise ValueError("surface must be centred at the origin; recenter first")
    R1, _, _ = pinch_radii(surface)

    def value(u):
        return (surface.rho(u) / R1) ** 2

    def grad(u):
        return 2.0 * surface.rho(u)[..., None] * surface.rho_grad(u) / R1 ** 2

    return GraphFunction(surface.space, value, grad), math.pi * R1 ** 2


# -- normalized sphere forms (prequantization units) -------------------------

def _rbar(space: AmbientSpace, x: np.ndarray) -> np.ndarray:
    """Reeb field of abar = alpha/pi on the unit sphere: 2 pi J x (1-periodic)."""
    return 2.0 * math.pi * space.J(x)


def _abar(space: AmbientSpace, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    return space.alpha(x, v) / math.pi


def v_f_field(f: GraphFunction, x: np.ndarray) -> np.ndarray:
    """The xi_x-valued solution V_f of d(abar)(V_f, .) = df(Rbar) abar - df.

    On xi_x = span{x, Jx}^perp the right-hand side is -df and d(abar) is
    <J., .>/pi, so V_f = pi J g with g the gradient of f projected off
    span{x, Jx} (J preserves xi_x).
    """
    x = np.asarray(x, dtype=float)
    Jx = f.space.J(x)
    g = f.grad(x)
    g = (g - np.sum(g * x, axis=-1)[..., None] * x
         - np.sum(g * Jx, axis=-1)[..., None] * Jx)
    return math.pi * f.space.J(g)


@dataclass
class GraphField:
    """Sphere/radial decomposition of a vector field along the graph picture."""

    reeb: np.ndarray    # component along Rbar
    xi: np.ndarray      # component in the contact hyperplane
    radial: np.ndarray  # coefficient of d/dr (one per point of a stack)

    @property
    def sphere(self) -> np.ndarray:
        return self.reeb + self.xi


def graph_hamiltonian_field(profile: RadialProfile, f: GraphFunction,
                            x: np.ndarray, r: float) -> GraphField:
    """Hamiltonian vector field of h_f(x, r) = h(r/f(x)) for d(r abar):

        X = (h'(r/f)/f^2) (f Rbar - V_f + r df(Rbar) d/dr).

    The radial sign is fixed by the contraction identity
    i_X d(r abar) = -d h_f.
    """
    if r <= 0.0:
        raise ValueError("radial coordinate must be positive")
    x = np.asarray(x, dtype=float)
    fv = float(f.value(x))
    hp = float(profile.dh(r / fv))
    V = v_f_field(f, x)
    Rb = _rbar(f.space, x)
    pref = hp / fv ** 2
    return GraphField(reeb=pref * fv * Rb, xi=-pref * V,
                      radial=pref * RADIAL_SIGN * r * float(f.df(x, Rb)))


def reeb_on_graph(f: GraphFunction, x: np.ndarray) -> GraphField:
    """Reeb field of alpha_f = f abar on the graph of f:

        R_f = (1/f) Rbar - (1/f^2) V_f + df(U) d/dr

    with U the sphere part; satisfies alpha_f(R_f) = 1.  Vectorized over
    the leading axes of x.
    """
    x = np.asarray(x, dtype=float)
    fv = np.asarray(f.value(x), dtype=float)[..., None]
    V = v_f_field(f, x)
    Rb = _rbar(f.space, x)
    U = Rb / fv - V / fv ** 2
    return GraphField(reeb=Rb / fv, xi=-V / fv ** 2, radial=f.df(x, U))


# ---------------------------------------------------------------------------
# orbits of the graph Hamiltonian and the correspondence lemma
# ---------------------------------------------------------------------------

@dataclass
class HamiltonianOrbit:
    """A 1-periodic orbit of X_{h_f}, sampled uniformly on [0, 1)."""

    x: np.ndarray            # (N, 2n) sphere part
    r: np.ndarray            # (N,) radial part
    closure_residual: float  # |(x, r)(1) - (x, r)(0)| from the integration


def integrate_hamiltonian_orbit(profile: RadialProfile, f: GraphFunction,
                                x0: np.ndarray, c: float) -> HamiltonianOrbit:
    """Integrate X_{h_f} over [0, 1] from (x0, c f(x0)) and sample uniformly."""
    x0 = np.asarray(x0, dtype=float)
    x0 = x0 / np.linalg.norm(x0)
    r0 = c * float(f.value(x0))

    def rhs(t, y):
        pt = y[:-1]
        pt = pt / np.linalg.norm(pt)
        X = graph_hamiltonian_field(profile, f, pt, float(y[-1]))
        return np.append(X.sphere, X.radial)

    y0 = np.append(x0, r0)
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                    rtol=_HAMILTONIAN_TOL, atol=_HAMILTONIAN_TOL,
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(f"Hamiltonian orbit integration failed: {sol.message}")
    closure = float(np.linalg.norm(sol.y[:, -1] - y0))
    t = np.arange(_HAMILTONIAN_POINTS) / _HAMILTONIAN_POINTS
    Y = sol.sol(t).T
    x = Y[:, :-1]
    x = x / np.linalg.norm(x, axis=-1, keepdims=True)
    return HamiltonianOrbit(x=x, r=Y[:, -1], closure_residual=closure)


def _fft_derivative(values: np.ndarray, period: float) -> np.ndarray:
    """Spectral derivative of uniformly sampled periodic data (axis 0)."""
    n = values.shape[0]
    k = np.fft.fftfreq(n, d=period / n)
    fac = 2j * math.pi * k
    return np.real(np.fft.ifft(fac[:, None] * np.fft.fft(values, axis=0), axis=0)
                   if values.ndim > 1 else
                   np.fft.ifft(fac * np.fft.fft(values)))


@dataclass
class CorrespondenceResult:
    c: float
    zeta: ReebOrbit
    reeb_residual: float
    rf_spread: float


def orbit_correspondence(profile: RadialProfile, f: GraphFunction,
                         gamma: HamiltonianOrbit) -> CorrespondenceResult:
    """Turn a 1-periodic orbit of X_{h_f} into a Reeb orbit of alpha_f.

    Along such an orbit r(t) = c f(x(t)) for a constant c; the loop
    z(t) = x(t/h'(c)) traced on the graph of f is a closed Reeb orbit of
    period h'(c).  The returned residual max |zeta' - R_f(zeta)| certifies
    the reparametrization.
    """
    ratios = gamma.r / f.value(gamma.x)
    c = float(np.mean(ratios))
    spread = float(np.max(ratios) - np.min(ratios))
    if spread > _RF_SPREAD_TOL * max(1.0, abs(c)):
        raise ValueError(
            f"r/f spread {spread:.3e} exceeds tolerance: not a 1-periodic "
            "Hamiltonian orbit")
    T = float(profile.dh(c))
    fz = np.asarray(f.value(gamma.x), dtype=float)
    pts = np.column_stack([gamma.x, fz])
    zdot = _fft_derivative(pts, T)
    Rf = reeb_on_graph(f, gamma.x)
    target = np.column_stack([Rf.sphere, Rf.radial])
    resid = float(np.max(np.linalg.norm(zdot - target, axis=-1)))
    # action of the Reeb orbit: int alpha_f(zeta') dt = T in these units
    abar_dot = _abar(f.space, gamma.x, zdot[:, :-1])
    action = T * float(np.mean(fz * abar_dot))
    zeta = ReebOrbit(points=pts, period=T, action=action,
                     closure_residual=gamma.closure_residual)
    return CorrespondenceResult(c=c, zeta=zeta, reeb_residual=resid,
                                rf_spread=spread)


def hamiltonian_action(profile: RadialProfile, f: GraphFunction,
                       gamma: HamiltonianOrbit) -> float:
    """Quadrature of A_{h_f}(gamma) = int gamma^*(r abar) - int h_f dt.

    Agrees with the closed form c h'(c) - h(c) at the orbit level c.
    """
    xdot = _fft_derivative(gamma.x, 1.0)
    integrand = (gamma.r * _abar(f.space, gamma.x, xdot)
                 - profile.h(gamma.r / f.value(gamma.x)))
    return float(np.mean(integrand))


# ---------------------------------------------------------------------------
# JSON surface definitions
# ---------------------------------------------------------------------------

def surface_to_json(surface: StarshapedSurface) -> str:
    params = dict(surface.params)
    if surface.kind == "radial_series":
        params = {"R": params["R"],
                  "terms": [{"indices": list(t.indices), "coef": t.coef}
                            for t in params["terms"]]}
    doc = {"n": surface.space.n, "center": surface.center.tolist(),
           "kind": surface.kind, "params": params}
    return json.dumps(doc, indent=2)


def surface_from_json(text: str) -> StarshapedSurface:
    doc = json.loads(text)
    space = AmbientSpace(int(doc["n"]))
    params = doc["params"]
    if doc["kind"] == "radial_series":
        params = {"R": float(params["R"]),
                  "terms": [SeriesTerm(tuple(t["indices"]), float(t["coef"]))
                            for t in params["terms"]]}
    return StarshapedSurface(space, np.asarray(doc["center"], dtype=float),
                             doc["kind"], params)
