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
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np
# The Reeb flow does not use solve_ivp.  The name stays bound because
# perfbench's tracer wraps ``orbit_search.solve_ivp`` (its count now reads 0).
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.integrate._ivp import dop853_coefficients

from .connecting_ode import IntegrationError
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


def _require_count(name: str, value, least: int) -> None:
    """An integer (not a bool) that is at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")


@dataclass(frozen=True)
class SearchConfig:
    seeds: int = 64
    action_window: Tuple[float, float] = (0.5 * math.pi, 2.5 * math.pi)
    closure_tol: float = 1e-9
    rng_seed: int = 20260823
    dedupe_tol: ClassVar[float] = 1e-3    # loop match (absolute)

    def __post_init__(self):
        lo, hi = self.action_window
        if not lo < hi:
            raise ValueError("action window must satisfy lo < hi")
        if not lo > 0:
            raise ValueError("action window must satisfy lo > 0")
        if not math.isfinite(hi):
            raise ValueError(f"action window end must be finite, got hi = {hi}")
        if self.closure_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not math.isfinite(self.closure_tol):
            raise ValueError("closure_tol must be finite, "
                             f"got {self.closure_tol}")
        _require_count("seeds", self.seeds, 1)
        _require_count("rng_seed", self.rng_seed, 0)


@dataclass
class SearchStats:
    seeds: int = 0
    converged: int = 0      # seeds with at least one converged candidate
    accepted: int = 0       # orbits accepted before dedupe; can exceed seeds
    # flow calls and requests, the coarse scan's included: run counters for
    # the manifest, outside the report and outside equality
    flow_rounds: int = field(default=0, compare=False)
    flow_requests: int = field(default=0, compare=False)


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
    """The live requests of a flow call and their stacked rows.

    Rows are stacked request by request and ``owner`` maps a row to its
    request.  Every per-row operation is elementwise and every per-request
    quantity is a reduction over that request's own rows, so a request's
    result does not depend on what else is in the batch.
    """

    def __init__(self, surface, ids, y, T, tol, rows, dense):
        self.ids = np.asarray(ids)                # index into the call's list
        self.y = y                                # (N, d) current states
        self.T = np.asarray(T, dtype=float)
        self.tol = np.asarray(tol, dtype=float)
        self.rows = np.asarray(rows)
        self.dense = np.asarray(dense)            # the request has times
        self.t = np.zeros(len(self.ids))
        self.rejected = np.zeros(len(self.ids), dtype=bool)
        self._index()
        self.f = surface.reeb(y)
        self.h_abs = self._initial_step(surface)

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

    def _initial_step(self, surface):
        """scipy's select_initial_step (order 7, no max step), per request."""
        y0, f0 = self.y, self.f
        scale = self.scale(np.abs(y0))
        d0 = np.sqrt(self.mean_sq(y0 / scale))
        d1 = np.sqrt(self.mean_sq(f0 / scale))
        small = (d0 < 1e-5) | (d1 < 1e-5)
        h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
        h0 = np.minimum(h0, self.T)
        f1 = surface.reeb(y0 + self.per_row(h0) * f0)
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


def _dense_output(surface, times: dict, kept: list) -> dict:
    """Dense output at every request's output times, from DOP853's
    interpolant (scipy's Dop853DenseOutput) on the accepted steps kept for
    it.  ``times`` maps a request to its times; ``kept`` holds, for each
    step of the loop, the accepted steps of those requests: (ids, t_old,
    t_new, h, rows) per request and y_old, y_new, K[0..12] per row.

    A time goes to the first step ending at or after it, so the first step
    also takes times before 0 and the last one those past T, as scipy's
    OdeSolution does.  The three extra stages run in three ``surface.reeb``
    calls on the rows of every step that serves a time, then one Horner
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
        K[s] = surface.reeb(y0 + _combine(_A_COLS[s], K) * hr)
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


def flow(surface: StarshapedSurface, requests) -> List[np.ndarray]:
    """Integrate xdot = R(x) for a batch of requests in lockstep.

    Each request is ``(states, T, tol, times)``: on-surface states, shape
    (d,) or (k, d), flowed forward for time T > 0 by DOP853 with
    rtol = atol = tol.
    Returns one array per request: the states at T, shaped like ``states``,
    when ``times`` is None, else the dense output at ``times`` with a leading
    time axis.  Step-size control is per request: all states of a request
    share its steps, and a lone request takes the steps that
    ``solve_ivp(method="DOP853")`` takes.  Each RK stage is one
    ``surface.reeb`` call on the live rows of every request.  The accepted
    steps of the requests with times are kept, and their dense output is
    evaluated after the last step: three more ``surface.reeb`` calls for
    the interpolant's extra stages, whatever the number of steps.

    Raises ValueError unless every T > 0, OffSurfaceError for a start
    state off the surface, HypothesisError where <nu, x> <= 0, and
    IntegrationError when a step size underflows or is NaN.
    """
    states = [np.asarray(r[0], dtype=float) for r in requests]
    stacked = [s.reshape(-1, s.shape[-1]) for s in states]
    if not stacked:
        return []
    if not all(r[1] > 0 for r in requests):
        raise ValueError("flow needs T > 0 for every request")
    surface.require_on_surface(np.vstack(stacked))
    times = {i: np.asarray(r[3], dtype=float)
             for i, r in enumerate(requests) if r[3] is not None}
    results: List[Optional[np.ndarray]] = [None] * len(requests)
    batch = _Batch(surface, range(len(requests)), np.vstack(stacked),
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
            K[s] = surface.reeb(y + _combine(_A_COLS[s], K) * hr)
        y_new = y + hr * _combine(_B_COL, K)
        K[_N_STAGES] = surface.reeb(y_new)

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
            for j in np.flatnonzero(finished & ~batch.dense):
                i = batch.ids[j]
                results[i] = batch.y[batch.rows_of(j)].reshape(states[i].shape)
            batch.keep(~finished)
    if times:
        for i, out in _dense_output(surface, times, kept).items():
            results[i] = out.reshape((len(times[i]),) + states[i].shape)
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
    A generator: each yield is a list of flow requests, answered by the
    list of their results in order.  A point (y, T) is always requested
    together with the finite-difference (FD) block at it, so that an
    accepted trial already holds the flows for the next Jacobian and an LM
    iteration costs one flow round.  A rejected trial, or the last point of
    the stage, discards its FD result.
    """
    dim = surface.space.dim
    lo, hi = cfg.action_window
    T_lo, T_hi = 0.25 * lo, hi + 0.5 * (hi - lo) + 1.0
    eye = np.eye(dim)

    def at(y, T):
        """The residual request at (y, T) and the FD request beside it; all
        FD states share one request, which starts with y itself."""
        fd_states = [surface.project(y + fd * e) for e in eye]
        return fd_states, [(y, T, tol, None),
                           (np.vstack([y] + fd_states), T, tol, None)]

    fd_states, requests = at(y, T)
    phi, out = yield requests
    best = float(np.linalg.norm(phi - y))
    lam = 1e-3
    for _ in range(iters):
        if best < target:
            break
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
            fd_try, requests = at(y_try, T_try)
            phi_try, out_try = yield requests
            F_try = phi_try - y_try
            if np.linalg.norm(F_try) < best:
                y, T, fd_states, out = y_try, T_try, fd_try, out_try
                best = float(np.linalg.norm(F_try))
                lam = max(lam / 3.0, 1e-12)
                improved = True
                break
            lam *= 5.0
        if not improved:
            break
    return y, T, best


def _with_samples(stage):
    """Run an LM stage with a dense twin (y, T, _FLOW_TOL, linspace(0, T,
    256)) beside each of its residual requests (y, T, tol, None), the
    requests of a single state.  A twin is one more row in the round, and
    it takes the residual request's steps.  Returns the stage's (y, T,
    best) and the twin's samples at the (y, T) it returns."""
    twins, out = [], None
    while True:
        try:
            requests = stage.send(out)
        except StopIteration as stop:
            y, T, best = stop.value
            break
        extra = [(r[0], r[1], _FLOW_TOL,
                  np.linspace(0.0, r[1], _ORBIT_SAMPLES))
                 for r in requests if np.ndim(r[0]) == 1]
        results = yield requests + extra
        out = results[:len(requests)]
        twins += [(r[0], r[1], pts)
                  for r, pts in zip(extra, results[len(requests):])]
    pts = next(pts for y_k, T_k, pts in reversed(twins)
               if T_k == T and np.array_equal(y_k, y))
    return y, T, best, pts


def _candidate(surface, x0, T0, cfg):
    """One candidate's search as a generator of lists of flow requests.

    Two-stage refinement (a cheap wide-basin descent, then a high-accuracy
    polish that drives the closure residual to the integration floor), then
    sampling of a converged orbit inside the window.  Every candidate that
    can converge, best < max(1e-3, closure_tol) after the wide stage, runs
    the polish stage, and its rounds carry the samples of every point they
    request (``_with_samples``).  Returns (converged, orbit or None).
    """
    y, T, best = yield from _lm_stage(surface, x0.copy(), T0, cfg, tol=1e-8,
                                      fd=1e-5, iters=3 * _LM_ITERS,
                                      target=1e-6)
    if best >= max(1e-3, cfg.closure_tol):
        return False, None
    y, T, best, samples = yield from _with_samples(_lm_stage(
        surface, y, T, cfg, tol=_FLOW_TOL, fd=1e-7, iters=_LM_ITERS,
        target=max(1e-12, 1e-3 * cfg.closure_tol)))
    if best >= cfg.closure_tol:
        return False, None
    lo, hi = cfg.action_window
    tol_pad = 10 * cfg.closure_tol
    if not lo - tol_pad <= T <= hi + tol_pad:
        return True, None
    ts = np.linspace(0.0, T, _ORBIT_SAMPLES)
    pts = surface.project(samples)
    # action = int alpha(xdot) dt, re-evaluated by quadrature (= T for Reeb flow)
    R = surface.reeb(pts)
    av = surface.space.alpha(pts, R)
    action = float(np.trapezoid(av, ts))
    return True, ReebOrbit(points=pts, period=float(T), action=action,
                           closure_residual=float(best), multiplicity=1)


def _lockstep(surface, candidates) -> tuple:
    """Run candidate generators to completion, one flow batch per round.

    Each live candidate yields a list of requests, and its tolerance is the
    tightest one in it.  A round flattens the lists whose tolerance is the
    loosest pending one into one ``flow`` call and sends each of those
    candidates its results, in order; a candidate with tighter requests
    waits.  So the wide-stage iterations of every candidate run in rounds of
    cheap steps, and the polish iterations run together after them.  A
    request's result does not depend on the batch, so neither the order nor
    the grouping of the candidates changes a result.  Returns the
    candidates' results, the number of rounds and the number of requests.
    """
    results = [None] * len(candidates)
    pending = {}
    rounds = sent = 0

    def advance(i, value):
        try:
            pending[i] = candidates[i].send(value)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    def tol(i):
        return min(r[2] for r in pending[i])

    for i in range(len(candidates)):
        advance(i, None)
    while pending:
        loosest = max(map(tol, pending))
        ids = [i for i in pending if tol(i) == loosest]
        requests = [r for i in ids for r in pending[i]]
        out = flow(surface, requests)
        rounds, sent = rounds + 1, sent + len(requests)
        start = 0
        for i in ids:
            n = len(pending[i])
            advance(i, out[start:start + n])
            start += n
    return results, rounds, sent


def find_closed_orbits(surface: StarshapedSurface,
                       cfg: SearchConfig) -> SearchResult:
    """Multistart closed-orbit search; deterministic given cfg.rng_seed.

    Low-discrepancy seed points crossed with a uniform trial-period grid;
    every local minimum of a seed's return distance on the grid is refined
    by damped Gauss-Newton with finite-difference flow sensitivities.  All
    seeds' scans integrate in one batch, then the candidates in lockstep
    rounds that take the loosest-tolerance requests first: a candidate
    whose next requests are tighter waits, so the wide-stage iterations
    of every candidate run before any polish-stage round.
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
    results, rounds, sent = _lockstep(surface, candidates)

    orbits = [orbit for _, orbit in results if orbit is not None]
    stats = SearchStats(seeds=cfg.seeds, accepted=len(orbits),
                        converged=len({k for k, (ok, _) in zip(owners, results)
                                       if ok}),
                        flow_rounds=1 + rounds,
                        flow_requests=len(seeds) + sent)
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

    distinct_count counts geometrically distinct orbits (``deduplicate``).
    A level is labelled degenerate only on a Morse-Bott family known in
    closed form: the round sphere's window R1 = R2 (every orbit a Hopf
    fibre), and on an ellipsoid the level pi r^2 of a repeated radius r.
    Such a level counts once, reported as its first representative's action
    to 9 digits, and passes the count: a family holds infinitely many simple
    orbits.
    """
    _require_count("seeds", seeds, 1)
    _require_count("rng_seed", rng_seed, 0)
    n = surface.space.n
    R1, R2, ratio_ok = pinch_radii(surface)
    ratio = R2 / R1
    window = (math.pi * R1 ** 2, math.pi * R2 ** 2)
    if not ratio_ok:
        return SpectrumReport([], 0, n, window, None, R1, R2, ratio)
    lo, hi = window
    sphere = hi - lo < 1e-9 * max(1.0, lo)
    if sphere:
        # degenerate window (round sphere): pad the search interval only
        lo, hi = lo * (1.0 - 1e-3), hi * (1.0 + 1e-3)
    cfg = SearchConfig(seeds=seeds, action_window=(lo, hi), rng_seed=rng_seed)
    found = find_closed_orbits(surface, cfg)
    reps = deduplicate(found.orbits, cfg.dedupe_tol)

    # the closed-form Morse-Bott levels
    radii = list(surface.params["radii"]) if surface.kind == "ellipsoid" else []
    families = [window[0]] if sphere else sorted(
        {math.pi * r ** 2 for r in radii if radii.count(r) > 1})
    degenerate = []
    for level in families:
        members = [o for o in reps if abs(o.action - level) <= cfg.dedupe_tol]
        if members:
            degenerate.append(float(np.round(members[0].action, 9)))
            reps = [o for o in reps if o is members[0]
                    or abs(o.action - level) > cfg.dedupe_tol]

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
