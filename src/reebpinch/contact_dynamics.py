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
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import minimize
from scipy.stats import norm, qmc

from .connecting_ode import IntegrationError
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
    "flow",
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
# coefficient times a product of coordinates restricted to the sphere,
# psi(u) = prod_k u_{i_k}.  A term is the JSON record; the surface compiles
# its terms into one monomial basis (_compile_series).
@dataclass(frozen=True)
class SeriesTerm:
    indices: tuple
    coef: float


def _compile_series(dim: int, R: float, terms) -> tuple:
    """Compile rho = R (1 + sum terms) into a monomial basis and one matrix.

    A monomial is its sorted index tuple; the basis holds the monomials of
    the terms, of their first derivatives, and every prefix of those, in
    degree order with () first.  Returns (factors, present, C): column j
    of factors, of shape (max degree, monomials), lists the indices of
    monomial j, padded with 0 where present (shape (max degree, monomials,
    1)) is False; C of shape (monomials, 1 + dim) maps the basis to
    [rho - R, d rho/du_0, ...].  Repeated indices and duplicate terms are
    merged, and R is folded in.
    """
    merged = {}
    for term in terms:
        mono = tuple(sorted(int(i) for i in term.indices))
        merged[mono] = merged.get(mono, 0.0) + float(term.coef)
    rows = []    # (monomial, output column, coefficient)
    for mono, coef in merged.items():
        rows.append((mono, 0, R * coef))
        for i in sorted(set(mono)):
            k = mono.index(i)
            rows.append((mono[:k] + mono[k + 1:], 1 + i,
                         mono.count(i) * R * coef))
    needed = {()}
    for mono, _, _ in rows:
        while mono not in needed:
            needed.add(mono)
            mono = mono[:-1]
    basis = sorted(needed, key=lambda m: (len(m), m))
    position = {m: j for j, m in enumerate(basis)}
    C = np.zeros((len(basis), 1 + dim))
    for mono, k, coef in rows:
        C[position[mono], k] += coef
    factors = np.zeros((len(basis[-1]), len(basis)), dtype=int)
    present = np.zeros(factors.shape + (1,), dtype=bool)
    for j, mono in enumerate(basis):
        factors[:len(mono), j] = mono
        present[:len(mono), j] = True
    return factors, present, C


def _require_area(name: str, r: float) -> None:
    """A size r whose pi r^2, the action of a circle of radius r, is a
    finite normal float."""
    try:
        area = math.pi * r ** 2
    except OverflowError:
        area = math.inf
    if not sys.float_info.min <= area < math.inf:
        raise ValueError(f"{name} value {r!r} is out of range: pi r^2 "
                         f"must be a finite normal float, got {area!r}")


def _require_positive(name: str, value, shape: tuple) -> None:
    """Finite sizes > 0 of the given shape, each passing ``_require_area``."""
    v = np.asarray(value, dtype=float)
    if v.shape != shape or not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError(f"{name} must be finite and > 0 with shape {shape}, "
                         f"got {v.tolist()}")
    for r in v.ravel().tolist():
        _require_area(name, r)


@dataclass(frozen=True)
class StarshapedSurface:
    """Hypersurface { x0 + rho(u) u : |u| = 1 } starshaped about x0.

    kind is one of "ellipsoid" (params: radii, one per complex coordinate),
    "radial_series" (params: R and a list of SeriesTerm perturbations,
    rho = R (1 + sum terms)) or "sphere" (params: R; the series with no
    terms).  Construction raises ValueError for a radius or R that is not
    finite and positive or whose pi r^2 is not a finite normal float, a
    center that is not 2n finite numbers, a term index that is not an
    integer in 0..2n-1, or a coefficient that is a boolean or not finite.
    """

    space: AmbientSpace
    center: np.ndarray
    kind: str
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.kind not in ("sphere", "ellipsoid", "radial_series"):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        dim = self.space.dim
        if dim < 2:
            raise ValueError(f"n must be at least 1, got {self.space.n}")
        if self.center.shape != (dim,) or not np.all(np.isfinite(self.center)):
            raise ValueError(f"center must be {dim} finite numbers, "
                             f"got {self.center.tolist()}")
        if self.kind == "ellipsoid":
            radii = np.asarray(self.params["radii"], dtype=float)
            _require_positive("radii", radii, (self.space.n,))
            # per-real-coordinate semi-axes (each complex radius twice)
            object.__setattr__(self, "_axes", np.repeat(radii, 2))
            object.__setattr__(self, "_axes2", self._axes ** 2)
            return
        _require_positive("R", self.params["R"], ())
        terms = self.params["terms"] if self.kind == "radial_series" else ()
        for k, term in enumerate(terms):
            # a JSON boolean is an int to Python, but not an index or a coef
            if not all(isinstance(i, (int, np.integer))
                       and not isinstance(i, bool) and 0 <= i < dim
                       for i in term.indices):
                raise ValueError(f"terms[{k}] index outside 0..{dim - 1}: "
                                 f"{list(term.indices)}")
            if isinstance(term.coef, bool) or not math.isfinite(term.coef):
                raise ValueError(f"terms[{k}] coef must be a finite number, "
                                 f"got {term.coef}")
        object.__setattr__(self, "_R", float(self.params["R"]))
        factors, present, C = _compile_series(dim, self._R, terms)
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_present", present)
        object.__setattr__(self, "_C", C)

    def _series(self, u: np.ndarray) -> np.ndarray:
        """[rho - R, d rho/du_0, ...] of a sphere or radial series at the
        directions u.  The monomial basis is one gather of the coordinates
        by the factor table and one product over the present factors, from
        1 and in the order of the monomial's indices, as a degree-by-degree
        recursion takes them; the empty monomial () is 1.  The contraction
        is an einsum, not BLAS: each row is summed in the same order
        whatever the batch, so flow stays bit-identical in any batch."""
        lead = u.shape[:-1]
        uT = u.reshape(-1, u.shape[-1]).T
        B = np.multiply.reduce(uT.take(self._factors, axis=0), axis=0,
                               where=self._present)
        return np.einsum("mn,mk->nk", B, self._C).reshape(lead + (-1,))

    def rho(self, u: np.ndarray) -> np.ndarray:
        """Radial function on unit directions (vectorized over leading axes)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "ellipsoid":
            q = np.add.reduce((u / self._axes) ** 2, -1)
            return q ** -0.5
        return self._R + self._series(u)[..., 0]

    def rho_grad(self, u: np.ndarray) -> np.ndarray:
        """Ambient gradient of the defining formula of rho at unit directions."""
        u = np.asarray(u, dtype=float)
        if self.kind == "ellipsoid":
            v = u / self._axes
            q = np.add.reduce(v * v, -1)
            return -(q[..., None] ** -1.5) * (u / self._axes2)
        return self._series(u)[..., 1:]

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

    def _normal_dir(self, x: np.ndarray) -> np.ndarray:
        """(|w| + <g, u>) u - g with w = x - x0, u = w/|w| and g = rho_grad(u):
        |w| times u - g_t, where g_t is the tangential gradient of the
        0-homogeneous extension of rho, so a positive multiple of the unit
        exterior normal."""
        w = np.asarray(x, dtype=float) - self.center
        nr = np.sqrt(np.add.reduce(w * w, -1))
        u = w / nr[..., None]
        g = self.rho_grad(u)
        return (nr + np.add.reduce(g * u, -1))[..., None] * u - g

    def normals(self, x: np.ndarray) -> np.ndarray:
        """Unit exterior normals at on-surface points (no residual check)."""
        nu = self._normal_dir(x)
        return nu / np.sqrt(np.add.reduce(nu * nu, -1, keepdims=True))

    def reeb(self, x: np.ndarray) -> np.ndarray:
        """Batched Reeb field (2/<nu, x>) J nu at on-surface points (no
        residual check); raises HypothesisError where <nu, x> <= 0.  The
        field is invariant under positive rescaling of nu, so it is taken
        from the unnormalized normal direction, and J is folded into the
        scaling s = 2/<nu, x>: slot 2j takes -s nu_{2j+1}, slot 2j+1 takes
        s nu_{2j}."""
        x = np.asarray(x, dtype=float)
        nu = self._normal_dir(x)
        denom = np.add.reduce(nu * x, -1)
        if np.minimum.reduce(denom, axis=None) <= 0.0:
            unit = denom / np.linalg.norm(nu, axis=-1)
            raise HypothesisError(f"<nu, x> = {float(unit.min()):.3e} <= 0: "
                                  "not starshaped about the origin")
        s = (2.0 / denom)[..., None]
        out = np.empty_like(nu)
        np.multiply(-s, nu[..., 1::2], out=out[..., 0::2])
        np.multiply(s, nu[..., 0::2], out=out[..., 1::2])
        return out


def normal_at(surface: StarshapedSurface, x: np.ndarray) -> np.ndarray:
    """Unit exterior normal at an on-surface point."""
    surface.require_on_surface(x)
    return surface.normals(np.asarray(x, dtype=float))


def reeb_field(surface: StarshapedSurface, x: np.ndarray) -> np.ndarray:
    """Reeb vector field R(x) = (2/<nu(x), x>) J nu(x) of alpha on the surface."""
    surface.require_on_surface(x)
    return surface.reeb(x)


# ---------------------------------------------------------------------------
# the Reeb flow and its DOP853 engine
# ---------------------------------------------------------------------------

# DOP853 (Hairer-Norsett-Wanner, Solving ODEs I, II.10) with scipy's tableau
# and step-size controller, so that a lone request takes solve_ivp's steps.
_N_STAGES = dop853_coefficients.N_STAGES
_A = dop853_coefficients.A
_C = dop853_coefficients.C
_B = dop853_coefficients.B
_E3 = dop853_coefficients.E3
_E5 = dop853_coefficients.E5
_D = dop853_coefficients.D
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0         # -1 / (error estimator order + 1)
# tableau rows as columns over (stage, row, coordinate); stages 13-15 are
# the interpolant's extra stages
_A_COLS = [_A[s, :s, None, None] for s in range(len(_C))]
_B_COL, _E3_COL, _E5_COL = (c[:, None, None] for c in (_B, _E3, _E5))
_D_COLS = _D[:, :, None, None]


def _combine(col: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_s col[s] K[s], accumulated stage by stage for every element, so a
    row's value does not depend on the other rows in K."""
    return np.add.reduce(col * K[:len(col)], axis=0)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices start, ..., start + count - 1 of every pair, in order."""
    return np.arange(counts.sum()) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts)


class _Batch:
    """The live requests of an integration and their stacked rows.

    Rows are stacked request by request and ``owner`` maps a row to its
    request.  Every per-row operation is elementwise and every per-request
    quantity is a reduction over that request's own rows, so a request's
    result does not depend on what else is in the batch.
    """

    def __init__(self, field, ids, y, T, tol, rows, dense):
        self.ids = np.asarray(ids)                # index into the call's list
        self.y = y                                # (N, d) current states
        self.T = np.asarray(T, dtype=float)
        self.tol = np.asarray(tol, dtype=float)
        self.rows = np.asarray(rows)
        self.dense = np.asarray(dense)            # the request has times
        self.t = np.zeros(len(self.ids))
        self.rejected = np.zeros(len(self.ids), dtype=bool)
        self._index()
        self.f = field(y)
        self.h_abs = self._initial_step(field)

    def _index(self):
        self.owner = np.repeat(np.arange(len(self.rows)), self.rows)
        self.starts = np.cumsum(self.rows) - self.rows
        self.size = self.rows * self.y.shape[1]   # elements per request

    def per_row(self, v):
        return v[self.owner][:, None]

    def rows_of(self, j):
        return slice(self.starts[j], self.starts[j] + self.rows[j])

    def mean_sq(self, x):
        """Mean square over each request's elements of x."""
        return (np.add.reduceat(np.add.reduce(x * x, -1), self.starts)
                / self.size)

    def scale(self, y):
        tol = self.per_row(self.tol)
        return tol + y * tol

    def _initial_step(self, field):
        """scipy's select_initial_step (order 7, no max step), per request."""
        y0, f0 = self.y, self.f
        scale = self.scale(np.abs(y0))
        d0 = np.sqrt(self.mean_sq(y0 / scale))
        d1 = np.sqrt(self.mean_sq(f0 / scale))
        small = (d0 < 1e-5) | (d1 < 1e-5)
        h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
        h0 = np.minimum(h0, self.T)
        f1 = field(y0 + self.per_row(h0) * f0)
        d2 = np.sqrt(self.mean_sq((f1 - f0) / scale)) / h0
        flat = (d1 <= 1e-15) & (d2 <= 1e-15)
        h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.where(flat, 1.0, np.maximum(d1, d2)))
                      ** (1.0 / 8.0))
        return np.minimum(np.minimum(100 * h0, h1), self.T)

    def keep(self, live):
        """Drop the finished requests and their rows."""
        rows = live[self.owner]
        for name in ("ids", "T", "tol", "rows", "dense", "t", "h_abs",
                     "rejected"):
            setattr(self, name, getattr(self, name)[live])
        self.y, self.f = self.y[rows], self.f[rows]
        self._index()


def _dense_output(field, times: dict, kept: list) -> dict:
    """Dense output at every request's output times, from DOP853's
    interpolant (scipy's Dop853DenseOutput) on the accepted steps kept for
    it.  ``times`` maps a request to its times; ``kept`` holds, for each
    step of the loop, the accepted steps of those requests: (ids, t_old,
    t_new, h, rows) per request and y_old, y_new, K[0..12] per row.

    A time goes to the first step ending at or after it, so the first step
    also takes times before 0 and the last one those past T, as scipy's
    OdeSolution does.  The three extra stages run in three ``field`` calls
    on the rows of every step that serves a time, then one Horner
    pass evaluates every (time, row).  Returns request -> array with a
    leading time axis and one row per state, in the order of its times.
    """
    fields = list(zip(*kept))
    ids, t_old, t_new, h, rows = (np.concatenate(f) for f in fields[:5])
    y_old, y_new = np.vstack(fields[5]), np.vstack(fields[6])
    K_kept = np.concatenate(fields[7], axis=1)
    step, sizes = [], []
    for i, ts in times.items():
        mine = np.flatnonzero(ids == i)          # its steps, in time order
        k = np.searchsorted(t_new[mine], ts, "left")
        step.append(mine[np.minimum(k, len(mine) - 1)])
        sizes.append(len(ts) * rows[mine[0]])
    step = np.concatenate(step)                  # the step serving each time
    if not len(step):                            # no stage to evaluate
        return {i: np.empty(0) for i in times}
    when = np.concatenate(list(times.values()))
    due = np.unique(step)
    sel = _ranges((np.cumsum(rows) - rows)[due], rows[due])
    first = np.zeros(len(ids), dtype=int)        # step's first row in sel
    first[due] = np.cumsum(rows[due]) - rows[due]

    K = np.empty((len(_C), len(sel), y_old.shape[1]))
    K[:_N_STAGES + 1] = K_kept[:, sel]
    y0 = y_old[sel]
    hr = np.repeat(h[due], rows[due])[:, None]
    for s in range(_N_STAGES + 1, len(_C)):
        K[s] = field(y0 + _combine(_A_COLS[s], K) * hr)
    delta = y_new[sel] - y0
    F = [delta, hr * K[0] - delta, 2 * delta - hr * (K[_N_STAGES] + K[0])]
    F += [hr * _combine(col, K) for col in _D_COLS]

    # every (time, row), time by time and row by row within a request
    at = _ranges(first[step], rows[step])
    x = np.repeat((when - t_old[step]) / h[step], rows[step])[:, None]
    out = np.zeros((len(at), y0.shape[1]))
    for i, f in enumerate(reversed(F)):
        out += f[at]
        out *= x if i % 2 == 0 else 1 - x
    out += y0[at]
    return {i: block for i, block in
            zip(times, np.split(out, np.cumsum(sizes)[:-1]))}


def _integrate(field, requests) -> list:
    """flow's DOP853 engine for ydot = field(y), on flow's requests and
    results.  ``field`` maps (N, d) rows to (N, d) rows, row by row; each
    RK stage, and each extra stage of the dense output, is one ``field``
    call on the live rows of every request.  A request's state at T is the
    step loop's own end state, so output times do not change it."""
    states = [np.asarray(r[0], dtype=float) for r in requests]
    stacked = [s.reshape(-1, s.shape[-1]) for s in states]
    if not stacked:
        return []
    times = {i: np.asarray(r[3], dtype=float)
             for i, r in enumerate(requests) if r[3] is not None}
    results: list = [None] * len(requests)
    batch = _Batch(field, range(len(requests)), np.vstack(stacked),
                   [r[1] for r in requests], [r[2] for r in requests],
                   [len(s) for s in stacked],
                   [r[3] is not None for r in requests])
    kept = []                 # accepted steps of the requests with times
    K = np.empty((_N_STAGES + 1,) + batch.y.shape)
    while len(batch.ids):
        t, y = batch.t, batch.y
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        # written so that a NaN step size also stops the loop
        if np.any(batch.rejected & ~(batch.h_abs >= min_step)):
            raise IntegrationError("flow integration failed: Required step "
                                   "size is less than spacing between "
                                   "numbers.")
        # a fresh step is at least min_step long; a retried one is not raised
        h_abs = np.where(~batch.rejected & (batch.h_abs < min_step),
                         min_step, batch.h_abs)
        t_new = np.minimum(t + h_abs, batch.T)
        h = t_new - t

        hr = batch.per_row(h)
        K = K[:, :len(y)]
        K[0] = batch.f
        for s in range(1, _N_STAGES):
            K[s] = field(y + _combine(_A_COLS[s], K) * hr)
        y_new = y + hr * _combine(_B_COL, K)
        K[_N_STAGES] = field(y_new)

        scale = batch.scale(np.maximum(np.abs(y), np.abs(y_new)))
        e5 = batch.mean_sq(_combine(_E5_COL, K) / scale)
        e3 = batch.mean_sq(_combine(_E3_COL, K) / scale)
        # scipy's |h| |e5|^2 / sqrt((|e5|^2 + |e3|^2 / 100) size), in means
        denom = e5 + 0.01 * e3
        zero = denom == 0.0
        err = np.where(zero, 0.0, h * e5 / np.sqrt(np.where(zero, 1.0, denom)))
        accept = err < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = _SAFETY * err ** _ERROR_EXPONENT
        grow = np.where(err == 0.0, _MAX_FACTOR,
                        np.where(ratio < _MAX_FACTOR, ratio, _MAX_FACTOR))
        grow = np.where(batch.rejected, np.minimum(1.0, grow), grow)
        # as Python's max(0.2, nan) = 0.2: a NaN error shrinks the step
        shrink = np.where(ratio > _MIN_FACTOR, ratio, _MIN_FACTOR)
        batch.h_abs = h * np.where(accept, grow, shrink)
        batch.rejected = ~accept
        finished = accept & (t_new >= batch.T)

        store = accept & batch.dense
        if store.any():
            rows = store[batch.owner]
            kept.append((batch.ids[store], t[store], t_new[store], h[store],
                         batch.rows[store], y[rows], y_new[rows], K[:, rows]))

        take = batch.per_row(accept)
        batch.y = np.where(take, y_new, y)
        batch.f = np.where(take, K[_N_STAGES], batch.f)
        batch.t = np.where(accept, t_new, t)
        if finished.any():
            for j in np.flatnonzero(finished):
                i = batch.ids[j]
                results[i] = batch.y[batch.rows_of(j)].reshape(states[i].shape)
            batch.keep(~finished)
    if times:
        for i, out in _dense_output(field, times, kept).items():
            results[i] = (results[i],
                          out.reshape((len(times[i]),) + states[i].shape))
    return results


def flow(surface: StarshapedSurface, requests) -> list:
    """Integrate xdot = R(x) for a batch of requests in lockstep: the DOP853
    engine ``_integrate`` on ``surface.reeb``.

    Each request is ``(states, T, tol, times)``: on-surface states, shape
    (d,) or (k, d), flowed forward for time T > 0 with rtol = atol = tol.
    Returns one result per request: the states at T, shaped like
    ``states``, when ``times`` is None, else the pair (states at T, dense
    output at ``times`` with a leading time axis).  The states at T are the
    step loop's end state, bit for bit the same with or without ``times``.
    Step-size control is per request: all states of a request
    share its steps, and a lone request takes the steps that
    ``solve_ivp(method="DOP853")`` takes.  Raises ValueError unless every
    T > 0, OffSurfaceError for a start state off the surface,
    HypothesisError where <nu, x> <= 0, and IntegrationError when a step
    size underflows or is NaN.
    """
    if not all(r[1] > 0 for r in requests):
        raise ValueError("flow needs T > 0 for every request")
    if len(requests):
        surface.require_on_surface(np.vstack([r[0] for r in requests]))
    return _integrate(surface.reeb, requests)


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
    """(R1, R2, ratio_ok): extremal radii |x - x0|; ratio_ok iff R2/R1 < sqrt 2.

    Closed forms for a sphere (R, R) and an ellipsoid (its smallest and
    largest radius).  A radial series takes the extremes of a direction
    sample, refined by local optimization from the best sampled directions.
    """
    if surface.kind != "radial_series":
        sizes = surface._axes if surface.kind == "ellipsoid" else surface._R
        R1, R2 = float(np.min(sizes)), float(np.max(sizes))
        return R1, R2, bool(R2 / R1 < math.sqrt(2.0))
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
    return _v_f(f.space, x, f.grad(x))


def _v_f(space: AmbientSpace, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """V_f at x from the ambient gradient g of f at x."""
    Jx = space.J(x)
    return math.pi * space.J(g - np.add.reduce(g * x, -1)[..., None] * x
                             - np.add.reduce(g * Jx, -1)[..., None] * Jx)


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
                            x: np.ndarray, r) -> GraphField:
    """Hamiltonian vector field of h_f(x, r) = h(r/f(x)) for d(r abar):

        X = (h'(r/f)/f^2) (f Rbar - V_f + r df(Rbar) d/dr).

    The radial sign is fixed by the contraction identity
    i_X d(r abar) = -d h_f.  Vectorized over the leading axes of x, with
    one r per point, and row by row: f's value and gradient are taken once.
    """
    x, r = np.asarray(x, dtype=float), np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radial coordinate must be positive")
    fv = np.asarray(f.value(x), dtype=float)
    g = f.grad(x)
    Rb = _rbar(f.space, x)
    dfR = np.add.reduce((g - np.add.reduce(g * x, -1)[..., None] * x) * Rb, -1)
    # h' value by value: the profile's scalar path, with its array path's bits
    hp = np.reshape([profile.dh(q) for q in (r / fv).flat], fv.shape)
    pref = hp / fv ** 2
    return GraphField(reeb=(pref * fv)[..., None] * Rb,
                      xi=-pref[..., None] * _v_f(f.space, x, g),
                      radial=pref * RADIAL_SIGN * r * dfR)


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
    """Integrate X_{h_f} over [0, 1] from (x0, c f(x0)) and sample uniformly:
    one request to flow's engine on rows (x, r), whose dense output at
    t = k/256, k = 0..255, gives the samples and whose end state the
    closure."""
    x0 = np.asarray(x0, dtype=float) / np.linalg.norm(x0)
    y0 = np.append(x0, c * float(f.value(x0)))

    def field(rows):
        x = rows[:, :-1] / np.linalg.norm(rows[:, :-1], axis=-1, keepdims=True)
        X = graph_hamiltonian_field(profile, f, x, rows[:, -1])
        return np.column_stack([X.sphere, X.radial])

    t = np.arange(_HAMILTONIAN_POINTS) / _HAMILTONIAN_POINTS
    end, Y = _integrate(field, [(y0, 1.0, _HAMILTONIAN_TOL, t)])[0]
    x = Y[:, :-1] / np.linalg.norm(Y[:, :-1], axis=-1, keepdims=True)
    return HamiltonianOrbit(x=x, r=Y[:, -1],
                            closure_residual=float(np.linalg.norm(end - y0)))


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


def _json_coef(value):
    """A term coefficient as a float; a boolean stays one, for validation."""
    return value if isinstance(value, bool) else float(value)


def surface_from_json(text: str) -> StarshapedSurface:
    doc = json.loads(text)
    space = AmbientSpace(int(doc["n"]))
    params = doc["params"]
    if doc["kind"] == "radial_series":
        params = {"R": float(params["R"]),
                  "terms": [SeriesTerm(tuple(t["indices"]),
                                       _json_coef(t["coef"]))
                            for t in params["terms"]]}
    return StarshapedSurface(space, np.asarray(doc["center"], dtype=float),
                             doc["kind"], params)
