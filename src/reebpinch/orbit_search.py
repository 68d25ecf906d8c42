"""Closed Reeb orbit detection on starshaped hypersurfaces.

Multistart search for fixed points of the Reeb flow return map, dedupe into
geometrically distinct simple orbits, and verification of the quantitative
predictions: the action window [pi R1^2, pi R2^2], the orbit count n (the
cuplength of CP^{n-1} plus one), and the period bound T >= pi R1^2 with its
Wirtinger chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
# The Reeb flow does not use solve_ivp.  The name stays bound because
# perfbench's tracer wraps ``orbit_search.solve_ivp`` (its count now reads 0).
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.integrate._ivp import dop853_coefficients

from .contact_dynamics import (
    ReebOrbit,
    StarshapedSurface,
    _fft_derivative,
    hypothesis_margin,
    pinch_radii,
    sphere_directions,
)

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SpectrumReport",
    "BoundReport",
    "OracleEntry",
    "find_closed_orbits",
    "deduplicate",
    "verify_pinching_theorem",
    "verify_period_bound",
    "ellipsoid_oracle",
    "flow",
]

_ORBIT_SAMPLES = 256
_FLOW_TOL = 1e-12
_TRIAL_PERIODS = 16    # coarse scan: step < lo/15 on a pinched window (hi < 2 lo)
_LM_ITERS = 16         # polish-stage LM budget; the cheaper wide stage gets 3x
_PERIOD_SLACK = 1e-8   # T >= pi R1^2 up to the period accuracy of the search


@dataclass(frozen=True)
class SearchConfig:
    seeds: int = 64
    action_window: Tuple[float, float] = (0.5 * math.pi, 2.5 * math.pi)
    closure_tol: float = 1e-9
    dedupe_tol: float = 1e-3
    rng_seed: int = 20260823

    def __post_init__(self):
        lo, hi = self.action_window
        if not lo < hi:
            raise ValueError("action window must satisfy lo < hi")
        if self.closure_tol <= 0 or self.dedupe_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SearchStats:
    seeds: int = 0
    converged: int = 0      # seeds with at least one converged candidate
    accepted: int = 0       # orbits accepted before dedupe; can exceed seeds


@dataclass
class SearchResult:
    orbits: List[ReebOrbit]
    stats: SearchStats

    def __iter__(self):
        return iter(self.orbits)

    def __len__(self):
        return len(self.orbits)

    def __getitem__(self, i):
        return self.orbits[i]


# ---------------------------------------------------------------------------
# the Reeb flow
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


def _combine(coef: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_s coef[s] K[s], accumulated stage by stage for every element, so a
    row's value does not depend on the other rows in K."""
    return (coef[:, None, None] * K[:len(coef)]).sum(axis=0)


class _Batch:
    """The live requests of a flow call and their stacked rows.

    Rows are stacked request by request and ``owner`` maps a row to its
    request.  Every per-row operation is elementwise and every per-request
    quantity is a reduction over that request's own rows, so a request's
    result does not depend on what else is in the batch.
    """

    def __init__(self, surface, ids, y, T, tol, rows, plans):
        self.ids = np.asarray(ids)                # index into the call's list
        self.y = y                                # (N, d) current states
        self.T = np.asarray(T, dtype=float)
        self.tol = np.asarray(tol, dtype=float)
        self.rows = np.asarray(rows)
        self.plans = plans
        self.t = np.zeros(len(self.ids))
        self.rejected = np.zeros(len(self.ids), dtype=bool)
        self._index()
        self.f = surface.reeb(y)
        self.h_abs = self._initial_step(surface)

    def _index(self):
        self.owner = np.repeat(np.arange(len(self.rows)), self.rows)
        self.starts = np.cumsum(self.rows) - self.rows
        self.size = self.rows * self.y.shape[1]   # elements per request
        self.direction = np.where(self.T < 0, -1.0, 1.0)

    def per_row(self, v):
        return v[self.owner][:, None]

    def rows_of(self, j):
        return slice(self.starts[j], self.starts[j] + self.rows[j])

    def mean_sq(self, x):
        """Mean square over each request's elements of x."""
        return np.add.reduceat(np.sum(x * x, axis=-1), self.starts) / self.size

    def scale(self, y):
        tol = self.per_row(self.tol)
        return tol + y * tol

    def _initial_step(self, surface):
        """scipy's select_initial_step (order 7, no max step), per request."""
        y0, f0 = self.y, self.f
        scale = self.scale(np.abs(y0))
        d0 = np.sqrt(self.mean_sq(y0 / scale))
        d1 = np.sqrt(self.mean_sq(f0 / scale))
        small = (d0 < 1e-5) | (d1 < 1e-5)
        h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
        h0 = np.minimum(h0, np.abs(self.T))
        f1 = surface.reeb(y0 + self.per_row(h0 * self.direction) * f0)
        d2 = np.sqrt(self.mean_sq((f1 - f0) / scale)) / h0
        flat = (d1 <= 1e-15) & (d2 <= 1e-15)
        h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.where(flat, 1.0, np.maximum(d1, d2)))
                      ** (1.0 / 8.0))
        return np.minimum(np.minimum(100 * h0, h1), np.abs(self.T))

    def keep(self, live):
        """Drop the finished requests and their rows."""
        rows = live[self.owner]
        for name in ("ids", "T", "tol", "rows", "t", "h_abs", "rejected"):
            setattr(self, name, getattr(self, name)[live])
        self.y, self.f = self.y[rows], self.f[rows]
        self.plans = [p for p, ok in zip(self.plans, live) if ok]
        self._index()


class _OutputPlan:
    """A request's output times, the order they fall due, and their array."""

    def __init__(self, times, shape, T):
        self.times = np.asarray(times, dtype=float)
        self.shape = shape
        self.out = np.empty((len(self.times),) + shape)
        self.direction = -1.0 if T < 0 else 1.0
        keys = self.direction * self.times
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        self.done = 0

    def due(self, t_new, finished):
        """Range (in time order) of the times the step ending at t_new
        serves: the first step also takes times before 0, the last one
        those past T, as scipy's OdeSolution does."""
        end = (len(self.order) if finished else int(np.searchsorted(
            self.keys, self.direction * t_new, "right")))
        return self.done, end


def _dense_output(surface, batch, dense, y_new, K, h):
    """Fill the output times that the accepted steps (from batch.t, batch.y)
    of the requests in ``dense`` cover, from DOP853's interpolant (scipy's
    Dop853DenseOutput).  Its three extra stages run on these rows only."""
    sel = np.r_[tuple(batch.rows_of(j) for j, _, _ in dense)]
    Kd = K[:, sel]
    y_old = batch.y[sel]
    hr = h[batch.owner[sel]][:, None]
    for s in range(_N_STAGES + 1, len(_C)):
        Kd[s] = surface.reeb(y_old + _combine(_A[s, :s], Kd) * hr)
    delta = y_new[sel] - y_old
    F = [delta, hr * Kd[0] - delta, 2 * delta - hr * (Kd[_N_STAGES] + Kd[0])]
    F += [hr * _combine(_D[i], Kd) for i in range(len(_D))]
    at = 0
    for j, lo, hi in dense:
        plan, r = batch.plans[j], slice(at, at + batch.rows[j])
        at += batch.rows[j]
        idx = plan.order[lo:hi]
        x = ((plan.times[idx] - batch.t[j]) / h[j])[:, None, None]
        out = np.zeros((len(idx),) + y_old[r].shape)
        for i, f in enumerate(reversed(F)):
            out += f[r]
            out *= x if i % 2 == 0 else 1 - x
        plan.out[idx] = (out + y_old[r]).reshape((len(idx),) + plan.shape)
        plan.done = hi


def flow(surface: StarshapedSurface, requests) -> List[np.ndarray]:
    """Integrate xdot = R(x) for a batch of requests in lockstep.

    Each request is ``(states, T, tol, times)``: on-surface states, shape
    (d,) or (k, d), flowed for time T by DOP853 with rtol = atol = tol.
    Returns one array per request: the states at T, shaped like ``states``,
    when ``times`` is None, else the dense output at ``times`` with a leading
    time axis.  Step-size control is per request: all states of a request
    share its steps, and a lone request takes the steps that
    ``solve_ivp(method="DOP853")`` takes.  Each RK stage is one
    ``surface.reeb`` call on the live rows of every request.

    Raises OffSurfaceError for a start state off the surface,
    HypothesisError where <nu, x> <= 0, and RuntimeError when a step size
    underflows.
    """
    states = [np.asarray(r[0], dtype=float) for r in requests]
    stacked = [s.reshape(-1, s.shape[-1]) for s in states]
    if not stacked:
        return []
    surface.require_on_surface(np.vstack(stacked))
    plans = [None if r[3] is None else _OutputPlan(r[3], s.shape, r[1])
             for r, s in zip(requests, states)]
    results: List[Optional[np.ndarray]] = [None] * len(requests)
    moving = []
    for i, (s, plan) in enumerate(zip(states, plans)):
        if requests[i][1] != 0.0:
            moving.append(i)
        elif plan is None:                   # T = 0 takes no step
            results[i] = s.copy()
        else:
            plan.out[...] = s
            results[i] = plan.out
    if not moving:
        return results

    batch = _Batch(surface, moving, np.vstack([stacked[i] for i in moving]),
                   [requests[i][1] for i in moving],
                   [requests[i][2] for i in moving],
                   [len(stacked[i]) for i in moving],
                   [plans[i] for i in moving])
    K = np.empty((len(_C),) + batch.y.shape)
    while len(batch.ids):
        t, y, direction = batch.t, batch.y, batch.direction
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if np.any(batch.rejected & (batch.h_abs < min_step)):
            raise RuntimeError("flow integration failed: Required step size "
                               "is less than spacing between numbers.")
        # a fresh step is at least min_step long; a retried one is not raised
        h_abs = np.where(~batch.rejected & (batch.h_abs < min_step),
                         min_step, batch.h_abs)
        t_new = t + h_abs * direction
        t_new = np.where(direction * (t_new - batch.T) > 0, batch.T, t_new)
        h = t_new - t
        h_abs = np.abs(h)

        hr = batch.per_row(h)
        K = K[:, :len(y)]
        K[0] = batch.f
        for s in range(1, _N_STAGES):
            K[s] = surface.reeb(y + _combine(_A[s, :s], K) * hr)
        y_new = y + hr * _combine(_B, K)
        K[_N_STAGES] = surface.reeb(y_new)

        scale = batch.scale(np.maximum(np.abs(y), np.abs(y_new)))
        e5 = batch.mean_sq(_combine(_E5, K) / scale)
        e3 = batch.mean_sq(_combine(_E3, K) / scale)
        # scipy's |h| |e5|^2 / sqrt((|e5|^2 + |e3|^2 / 100) size), in means
        denom = e5 + 0.01 * e3
        zero = denom == 0.0
        err = np.where(zero, 0.0,
                       h_abs * e5 / np.sqrt(np.where(zero, 1.0, denom)))
        accept = err < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = _SAFETY * err ** _ERROR_EXPONENT
        grow = np.where(err == 0.0, _MAX_FACTOR,
                        np.where(ratio < _MAX_FACTOR, ratio, _MAX_FACTOR))
        grow = np.where(batch.rejected, np.minimum(1.0, grow), grow)
        # as Python's max(0.2, nan) = 0.2: a NaN error shrinks the step
        shrink = np.where(ratio > _MIN_FACTOR, ratio, _MIN_FACTOR)
        batch.h_abs = h_abs * np.where(accept, grow, shrink)
        batch.rejected = ~accept
        finished = accept & (direction * (t_new - batch.T) >= 0)

        dense = []
        for j in np.flatnonzero(accept):
            plan = batch.plans[j]
            if plan is not None:
                lo, hi = plan.due(t_new[j], finished[j])
                if hi > lo:
                    dense.append((j, lo, hi))
        if dense:
            _dense_output(surface, batch, dense, y_new, K, h)

        take = batch.per_row(accept)
        batch.y = np.where(take, y_new, y)
        batch.f = np.where(take, K[_N_STAGES], batch.f)
        batch.t = np.where(accept, t_new, t)
        if finished.any():
            for j in np.flatnonzero(finished):
                i, plan = batch.ids[j], batch.plans[j]
                results[i] = (batch.y[batch.rows_of(j)].reshape(states[i].shape)
                              if plan is None else plan.out)
            batch.keep(~finished)
    return results


# ---------------------------------------------------------------------------
# multistart search
# ---------------------------------------------------------------------------

def _local_minima(dist: np.ndarray) -> np.ndarray:
    """Indices i with dist[i] <= each neighbour (an endpoint has one)."""
    left = np.r_[True, dist[1:] <= dist[:-1]]
    right = np.r_[dist[:-1] <= dist[1:], True]
    return np.flatnonzero(left & right)


def _lm_stage(surface, y, T, cfg, tol, fd, iters, target):
    """Levenberg-Marquardt descent on (x, T) for phi_T(x) = x.

    The damping interpolates between gradient descent (robust far from an
    orbit) and Gauss-Newton (quadratic near one); the time-shift direction is
    controlled through a phase-fix row tied to the current Reeb direction.
    A generator: it yields flow requests and receives their results.
    """
    dim = surface.space.dim
    lo, hi = cfg.action_window
    T_lo, T_hi = 0.25 * lo, hi + 0.5 * (hi - lo) + 1.0
    eye = np.eye(dim)

    F = (yield (y, T, tol, None)) - y
    best = float(np.linalg.norm(F))
    lam = 1e-3
    for _ in range(iters):
        if best < target:
            break
        # all FD states of this candidate share one request
        fd_states = [surface.project(y + fd * e) for e in eye]
        out = yield (np.vstack([y] + fd_states), T, tol, None)
        phi = out[0]
        R_here = surface.reeb(y)
        Jac = np.zeros((dim + 1, dim + 1))
        for j in range(dim):
            dy = fd_states[j] - y
            Jac[:dim, j] = (out[j + 1] - phi) / fd - dy / fd
            Jac[dim, j] = dy @ R_here / fd
        Jac[:dim, dim] = surface.reeb(phi)
        F = np.append(phi - y, 0.0)
        JtJ = Jac.T @ Jac
        JtF = Jac.T @ F
        scale = np.trace(JtJ) / (dim + 1)
        improved = False
        for _ in range(8):
            try:
                step = np.linalg.solve(JtJ + lam * scale * np.eye(dim + 1),
                                       -JtF)
            except np.linalg.LinAlgError:
                lam *= 5.0
                continue
            y_try = surface.project(y + step[:dim])
            T_try = float(np.clip(T + step[dim], T_lo, T_hi))
            F_try = (yield (y_try, T_try, tol, None)) - y_try
            if np.linalg.norm(F_try) < best:
                y, T = y_try, T_try
                best = float(np.linalg.norm(F_try))
                lam = max(lam / 3.0, 1e-12)
                improved = True
                break
            lam *= 5.0
        if not improved:
            break
    return y, T, best


def _candidate(surface, x0, T0, cfg):
    """One candidate's search as a generator of flow requests.

    Two-stage refinement (a cheap wide-basin descent, then a high-accuracy
    polish that drives the closure residual to the integration floor), then
    sampling of a converged orbit inside the window.  Returns
    (converged, orbit or None).
    """
    y, T, best = yield from _lm_stage(surface, x0.copy(), T0, cfg, tol=1e-8,
                                      fd=1e-5, iters=3 * _LM_ITERS,
                                      target=1e-6)
    if best < 1e-3:
        y, T, best = yield from _lm_stage(
            surface, y, T, cfg, tol=_FLOW_TOL, fd=1e-7, iters=_LM_ITERS,
            target=max(1e-12, 1e-3 * cfg.closure_tol))
    if best >= cfg.closure_tol:
        return False, None
    lo, hi = cfg.action_window
    tol_pad = 10 * cfg.closure_tol
    if not lo - tol_pad <= T <= hi + tol_pad:
        return True, None
    ts = np.linspace(0.0, T, _ORBIT_SAMPLES)
    pts = surface.project((yield (y, T, _FLOW_TOL, ts)))
    # action = int alpha(xdot) dt, re-evaluated by quadrature (= T for Reeb flow)
    R = surface.reeb(pts)
    av = surface.space.alpha(pts, R)
    action = float(np.trapezoid(av, ts))
    return True, ReebOrbit(points=pts, period=float(T), action=action,
                           closure_residual=float(best), multiplicity=1)


def _lockstep(surface, candidates) -> list:
    """Run candidate generators to completion, one flow batch per round
    carrying the pending request of every live candidate."""
    results = [None] * len(candidates)
    pending = {}

    def advance(i, value):
        try:
            pending[i] = candidates[i].send(value)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    for i in range(len(candidates)):
        advance(i, None)
    while pending:
        ids = list(pending)
        for i, out in zip(ids, flow(surface, [pending[i] for i in ids])):
            advance(i, out)
    return results


def find_closed_orbits(surface: StarshapedSurface,
                       cfg: SearchConfig) -> SearchResult:
    """Multistart closed-orbit search; deterministic given cfg.rng_seed.

    Low-discrepancy seed points crossed with a uniform trial-period grid;
    every local minimum of a seed's return distance on the grid is refined
    by damped Gauss-Newton with finite-difference flow sensitivities.  All
    seeds' scans, and then all candidates, integrate in lockstep batches.
    """
    lo, hi = cfg.action_window
    dirs = sphere_directions(surface.space.dim, cfg.seeds, cfg.rng_seed)
    seeds = surface.point(dirs)
    Ts = np.linspace(lo, hi, _TRIAL_PERIODS)
    scans = flow(surface, [(x0, hi, 1e-10, Ts) for x0 in seeds])
    owners, candidates = [], []
    for k, (x0, pts) in enumerate(zip(seeds, scans)):
        for i in _local_minima(np.linalg.norm(pts - x0, axis=-1)):
            owners.append(k)
            candidates.append(_candidate(surface, x0, float(Ts[i]), cfg))
    results = _lockstep(surface, candidates)

    orbits = [orbit for _, orbit in results if orbit is not None]
    stats = SearchStats(seeds=cfg.seeds, accepted=len(orbits),
                        converged=len({k for k, (ok, _) in zip(owners, results)
                                       if ok}))
    orbits.sort(key=lambda o: (o.action, tuple(o.points[0])))
    return SearchResult(orbits, stats)


# ---------------------------------------------------------------------------
# dedupe
# ---------------------------------------------------------------------------

def _loop_distance(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Distances from points P to the closed polyline through Q.

    Squared distances to every segment come from (n, m) matrix products;
    the cancellation in them limits the result to about 1e-8 absolute.
    """
    A = Q
    AB = np.roll(Q, -1, axis=0) - A                       # (m, d)
    denom = np.maximum(np.sum(AB ** 2, axis=-1), 1e-300)
    A_AB = np.sum(A * AB, axis=-1)
    t = np.clip((P @ AB.T - A_AB) / denom, 0.0, 1.0)      # (n, m)
    # |P - A - t AB|^2 = |P - A|^2 - 2 t <P - A, AB> + t^2 |AB|^2
    PA2 = (np.sum(P ** 2, axis=-1)[:, None] - 2.0 * (P @ A.T)
           + np.sum(A ** 2, axis=-1))
    d2 = PA2 - t * (2.0 * (P @ AB.T - A_AB) - t * denom)
    return np.sqrt(np.maximum(d2.min(axis=1), 0.0))


def _same_loop(P: np.ndarray, Q: np.ndarray, tol: float) -> bool:
    """Symmetrized Hausdorff distance below tol, measured point-to-polyline
    so that phase offsets of the sampling do not register; the second
    one-sided distance is skipped when the first already fails."""
    return (float(_loop_distance(P, Q).max()) < tol
            and float(_loop_distance(Q, P).max()) < tol)


def deduplicate(orbits: Sequence[ReebOrbit], tol: float) -> List[ReebOrbit]:
    """Group orbits by point-set match, drop iterates, keep minimal periods.

    Iterates are detected by T close to k * T_min with integer k <= 8 on a
    matching point set; each representative records the multiplicities seen
    in ``iterate_multiplicities``.
    The output is sorted by action.
    """
    remaining = sorted(orbits, key=lambda o: (o.period, tuple(o.points[0])))
    reps: List[ReebOrbit] = []
    rep_points: List[np.ndarray] = []
    seen_mults: List[set] = []
    for orb in remaining:
        pts = orb.resample(_ORBIT_SAMPLES)
        placed = False
        for i, rep in enumerate(reps):
            k = orb.period / rep.period
            k_int = round(k)
            if not (1 <= k_int <= 8 and abs(k - k_int) < 1e-3):
                continue
            if _same_loop(pts, rep_points[i], tol):
                seen_mults[i].add(k_int)
                placed = True
                break
        if not placed:
            reps.append(orb)
            rep_points.append(pts)
            seen_mults.append({1})
    for rep, mults in zip(reps, seen_mults):
        rep.iterate_multiplicities = tuple(sorted(mults))
    reps.sort(key=lambda o: (o.action, tuple(o.points[0])))
    return reps


# ---------------------------------------------------------------------------
# theorem verifiers
# ---------------------------------------------------------------------------

@dataclass
class SpectrumReport:
    orbits: List[ReebOrbit]
    distinct_count: int
    cuplength_bound: int
    window: Tuple[float, float]
    passed: Optional[bool]          # None = theorem not applicable
    R1: float
    R2: float
    ratio: float
    degenerate_levels: List[float] = field(default_factory=list)
    endpoint_notes: List[str] = field(default_factory=list)
    stats: Optional[SearchStats] = None


def verify_pinching_theorem(surface: StarshapedSurface,
                            seeds: int = 64,
                            rng_seed: int = 20260823) -> SpectrumReport:
    """Search the closed action window [pi R1^2, pi R2^2] and verify the
    multiplicity prediction distinct_count >= n = cuplength(CP^{n-1}) + 1.

    Degenerate (Morse-Bott) spectra - more than half of the accepted seeds
    landing on one action level with non-matching point sets - are labelled
    a degenerate family instead of inflating the count.
    """
    n = surface.space.n
    R1, R2, ratio_ok = pinch_radii(surface)
    ratio = R2 / R1
    window = (math.pi * R1 ** 2, math.pi * R2 ** 2)
    if not ratio_ok:
        return SpectrumReport([], 0, n, window, None, R1, R2, ratio)
    lo, hi = window
    if hi - lo < 1e-9 * max(1.0, lo):
        # degenerate window (round sphere): pad the search interval only
        lo, hi = lo * (1.0 - 1e-3), hi * (1.0 + 1e-3)
    cfg = SearchConfig(seeds=seeds, action_window=(lo, hi), rng_seed=rng_seed)
    found = find_closed_orbits(surface, cfg)
    reps = deduplicate(found.orbits, cfg.dedupe_tol)

    # degenerate-family labelling
    degenerate = []
    if found.stats.accepted > 0:
        actions = np.array([o.action for o in reps])
        for level in np.unique(actions.round(9)):
            members = [o for o in reps
                       if abs(o.action - level) <= cfg.dedupe_tol]
            raw_count = sum(1 for o in found.orbits
                            if abs(o.action - level) <= cfg.dedupe_tol)
            if len(members) > 1 and raw_count > 0.5 * found.stats.accepted:
                degenerate.append(float(level))
    if degenerate:
        # collapse each degenerate level to a single representative
        kept = []
        for o in reps:
            if any(abs(o.action - lv) <= cfg.dedupe_tol for lv in degenerate):
                if not any(abs(o.action - k.action) <= cfg.dedupe_tol
                           for k in kept):
                    kept.append(o)
            else:
                kept.append(o)
        reps = kept

    notes = []
    for o in reps:
        for name, edge in (("lower", window[0]), ("upper", window[1])):
            if abs(o.action - edge) <= cfg.dedupe_tol:
                notes.append(f"action {o.action:.12g} within tolerance of the "
                             f"{name} window endpoint")
    distinct = len(reps)
    passed = distinct >= n or bool(degenerate)
    return SpectrumReport(reps, distinct, n, window, passed, R1, R2, ratio,
                          degenerate, notes, found.stats)


# Quadrature resolution of the chain evaluation: inequalities that hold with
# equality (round sphere) come back within this of zero and are clamped.
_CHAIN_TOL = 1e-9


@dataclass
class ChainLink:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        raw = self.rhs - self.lhs
        if abs(raw) <= _CHAIN_TOL * max(1.0, abs(self.lhs)):
            return 0.0
        return raw


@dataclass
class OrbitBound:
    period: float
    bound: float
    slack: float
    chain: List[ChainLink]


@dataclass
class BoundReport:
    asserted: bool
    margin: float
    R1: float
    entries: List[OrbitBound]

    @property
    def chain_ok(self) -> bool:
        return all(l.slack >= 0.0 for e in self.entries for l in e.chain)

    @property
    def passed(self) -> bool:
        return (self.asserted and self.chain_ok
                and all(e.slack >= 0.0 for e in self.entries))


def _wirtinger_chain(orbit: ReebOrbit, R1: float) -> List[ChainLink]:
    """Quadrature evaluation of 2T <= |gdot| |gbar| <= (T/2pi) int |gdot|^2
    <= (T/2pi)(2/R1)^2 T with mean-free gbar."""
    T = orbit.period
    pts = orbit.points[:-1]           # drop the duplicated closing sample
    gdot = _fft_derivative(pts, T)
    gbar = pts - pts.mean(axis=0)
    sq_speed = float(np.mean(np.sum(gdot ** 2, axis=-1)) * T)
    l2_gdot = math.sqrt(sq_speed)
    l2_gbar = math.sqrt(float(np.mean(np.sum(gbar ** 2, axis=-1)) * T))
    return [
        ChainLink("2T <= |gdot| |gbar|", 2 * T, l2_gdot * l2_gbar),
        ChainLink("|gdot| |gbar| <= (T/2pi) int |gdot|^2",
                  l2_gdot * l2_gbar, T / (2 * math.pi) * sq_speed),
        ChainLink("(T/2pi) int |gdot|^2 <= (T/2pi)(2/R1)^2 T",
                  T / (2 * math.pi) * sq_speed,
                  T / (2 * math.pi) * (2.0 / R1) ** 2 * T),
    ]


def verify_period_bound(surface: StarshapedSurface,
                        orbits: Sequence[ReebOrbit], R1: float) -> BoundReport:
    """T >= pi R1^2 for every orbit, plus the full Wirtinger chain, provided
    the hypothesis <nu(z), z> > R1 holds (else the bound is not asserted)."""
    margin = hypothesis_margin(surface, R1)
    if abs(margin) < 1e-12:
        margin = 0.0          # equality case (round sphere) up to roundoff
    entries = []
    bound = math.pi * R1 ** 2
    for orb in orbits:
        entries.append(OrbitBound(orb.period, bound,
                                  orb.period - bound + _PERIOD_SLACK,
                                  _wirtinger_chain(orb, R1)))
    return BoundReport(asserted=margin > 0.0, margin=margin, R1=R1,
                       entries=entries)


# ---------------------------------------------------------------------------
# analytic ellipsoid oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleEntry:
    axis: int        # 1-based complex coordinate index
    iterate: int
    action: float
    generator: tuple  # point on the coordinate circle


def ellipsoid_oracle(radii: Sequence[float], ceiling: float):
    """Analytic spectrum of E(r_1, ..., r_n): coordinate-circle orbits and
    iterates with action k pi r_j^2 up to the ceiling; resonances (coinciding
    actions from different circles) are flagged for dedupe stress tests."""
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    entries = []
    for j, r in enumerate(radii, start=1):
        base = math.pi * r ** 2
        k = 1
        while k * base <= ceiling + 1e-12:
            x = [0.0] * (2 * len(radii))
            x[2 * (j - 1)] = r
            entries.append(OracleEntry(j, k, k * base, tuple(x)))
            k += 1
    entries.sort(key=lambda e: (e.action, e.axis, e.iterate))
    resonances = []
    for a, b in zip(entries, entries[1:]):
        if a.axis != b.axis and abs(a.action - b.action) < 1e-12:
            resonances.append(a.action)
    return entries, resonances
