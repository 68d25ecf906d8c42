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
from scipy.integrate import solve_ivp  # noqa: F401  (perfbench's tracer wraps it)

from .contact_dynamics import (
    ReebOrbit,
    StarshapedSurface,
    _fft_derivative,
    flow,
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
_SEGMENTS = 4          # multiple-shooting segments of the polish stage
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
# multistart search
# ---------------------------------------------------------------------------

def _local_minima(dist: np.ndarray) -> np.ndarray:
    """Indices i with dist[i] <= each neighbour (an endpoint has one)."""
    left = np.r_[True, dist[1:] <= dist[:-1]]
    right = np.r_[dist[:-1] <= dist[1:], True]
    return np.flatnonzero(left & right)


def _lm_stage(surface, y, T, cfg, tol, fd, iters, target):
    """The wide stage: Levenberg-Marquardt descent on (x, T) for phi_T(x) = x.

    The damping interpolates between gradient descent (robust far from an
    orbit) and Gauss-Newton (quadratic near one); the time-shift direction is
    controlled through a phase-fix row tied to the current Reeb direction.
    A generator: each yield is a list of flow requests, answered by the
    list of their results in order.  A point (y, T) is always requested
    together with the finite-difference (FD) block at it, so that an
    accepted trial already holds the flows for the next Jacobian and an LM
    iteration costs one flow round.  A rejected trial, or the last point of
    the stage, discards its FD result.  The residual request carries the
    times T k/m, k = 1, ..., m - 1 (m = ``_SEGMENTS``), whose samples
    start the polish stage's segments; output times leave the end state's
    bits unchanged.  Returns (y, T, best, lam, starts): the point, its
    closure residual, the damping the stage ended with and the samples of
    the point at those times.
    """
    dim = surface.space.dim
    lo, hi = cfg.action_window
    T_lo, T_hi = 0.25 * lo, hi + 0.5 * (hi - lo) + 1.0
    eye = np.eye(dim)

    def at(y, T):
        """The residual request at (y, T) and the FD request beside it; all
        FD states share one request, which starts with y itself."""
        fd_states = [surface.project(y + fd * e) for e in eye]
        times = T * np.arange(1, _SEGMENTS) / _SEGMENTS
        return fd_states, [(y, T, tol, times),
                           (np.vstack([y] + fd_states), T, tol, None)]

    fd_states, requests = at(y, T)
    (phi, starts), out = yield requests
    best = float(np.linalg.norm(phi - y))
    lam = 1e-3
    for _ in range(iters):
        if best < target:
            break
        phi = out[0]
        R_here, R_phi = surface.reeb(np.vstack([y, phi]))
        Jac = np.zeros((dim + 1, dim + 1))
        for j in range(dim):
            dy = fd_states[j] - y
            Jac[:dim, j] = (out[j + 1] - phi) / fd - dy / fd
            Jac[dim, j] = dy @ R_here / fd
        Jac[:dim, dim] = R_phi
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
            (phi_try, starts_try), out_try = yield requests
            F_try = phi_try - y_try
            if np.linalg.norm(F_try) < best:
                y, T, fd_states, out = y_try, T_try, fd_try, out_try
                starts = starts_try
                best = float(np.linalg.norm(F_try))
                lam = max(lam / 3.0, 1e-12)
                improved = True
                break
            lam *= 5.0
        if not improved:
            break
    return y, T, best, lam, starts


def _shooting_stage(surface, X, T, lam, cfg, tol, fd, iters, target):
    """The polish stage: multiple-shooting Levenberg-Marquardt on the
    segment starts X = (x_1, ..., x_m) and the period T.

    The residuals are phi_{T/m}(x_i) - x_{i+1}, with x_{m+1} = x_1, plus
    the wide stage's phase row at x_1; the closure residual is the norm of
    the stacked segment mismatches.  Each segment is one residual request
    and one FD request over T/m, so a point costs 2m requests in one flow
    round and its Jacobian is block-cyclic.  The damping starts from
    ``lam``.  Segment i's residual request carries the times of
    linspace(0, T, 256) in [T i/m, T (i+1)/m) (the last also T itself),
    shifted to its start.  Returns (X, T, best, samples): the point, its
    closure residual and its 256 samples.
    """
    m, dim = X.shape
    n = m * dim + 1
    lo, hi = cfg.action_window
    T_lo, T_hi = 0.25 * lo, hi + 0.5 * (hi - lo) + 1.0
    eye = np.eye(dim)
    nxt = np.roll(np.arange(m), -1)
    segment = np.minimum(np.arange(_ORBIT_SAMPLES) * m // (_ORBIT_SAMPLES - 1),
                         m - 1)

    def at(X, T):
        """Every segment's residual request, then every FD request; an FD
        request starts with its segment start itself."""
        fd_states = surface.project(X[:, None, :] + fd * eye)   # (m, dim, dim)
        h = T / m
        ts = np.linspace(0.0, T, _ORBIT_SAMPLES)
        return fd_states, (
            [(X[i], h, tol, ts[segment == i] - i * h) for i in range(m)]
            + [(np.vstack([X[i], fd_states[i]]), h, tol, None)
               for i in range(m)])

    def mismatch(X, out):
        """The stacked residual and the samples from the residual results."""
        ends = np.array([end for end, _ in out[:m]])
        return (ends - X[nxt]).ravel(), np.vstack([pts for _, pts in out[:m]])

    fd_states, requests = at(X, T)
    out = yield requests
    F, samples = mismatch(X, out)
    best = float(np.linalg.norm(F))
    for _ in range(iters):
        if best < target:
            break
        phi = np.array([block[0] for block in out[m:]])
        R = surface.reeb(np.vstack([X[:1], phi]))
        dX = fd_states - X[:, None, :]            # (m, dim FD steps, dim)
        Jac = np.zeros((n, n))
        for i in range(m):
            rows, k = slice(i * dim, (i + 1) * dim), nxt[i]
            Jac[rows, i * dim:(i + 1) * dim] = (out[m + i][1:] - phi[i]).T / fd
            Jac[rows, k * dim:(k + 1) * dim] -= dX[k].T / fd
            Jac[rows, -1] = R[1 + i] / m
        Jac[-1, :dim] = dX[0] @ R[0] / fd
        F = np.append((phi - X[nxt]).ravel(), 0.0)
        JtJ = Jac.T @ Jac
        JtF = Jac.T @ F
        scale = np.trace(JtJ) / n
        improved = False
        for _ in range(8):
            try:
                step = np.linalg.solve(JtJ + lam * scale * np.eye(n), -JtF)
            except np.linalg.LinAlgError:
                lam *= 5.0
                continue
            X_try = surface.project(X + step[:-1].reshape(m, dim))
            T_try = float(np.clip(T + step[-1], T_lo, T_hi))
            fd_try, requests = at(X_try, T_try)
            out_try = yield requests
            F_try, samples_try = mismatch(X_try, out_try)
            if np.linalg.norm(F_try) < best:
                X, T, fd_states, out = X_try, T_try, fd_try, out_try
                samples = samples_try
                best = float(np.linalg.norm(F_try))
                lam = max(lam / 3.0, 1e-12)
                improved = True
                break
            lam *= 5.0
        if not improved:
            break
    return X, T, best, samples


def _candidate(surface, x0, T0, cfg):
    """One candidate's search as a generator of lists of flow requests.

    A cheap wide-basin descent (``_lm_stage``), then a multiple-shooting
    polish (``_shooting_stage``) that drives the stacked segment mismatch
    to the integration floor, from the wide stage's point, samples and
    damping; then the orbit is kept if its period lies in the window.
    Every candidate that can converge, best < max(1e-3, closure_tol) after
    the wide stage, runs the polish, whose residual requests carry the 256
    sample times, so the orbit's samples come with the point the polish
    returns.  Returns (converged, orbit or None).
    """
    y, T, best, lam, starts = yield from _lm_stage(
        surface, x0.copy(), T0, cfg, tol=1e-8, fd=1e-5, iters=3 * _LM_ITERS,
        target=1e-6)
    if best >= max(1e-3, cfg.closure_tol):
        return False, None
    X = np.vstack([y, surface.project(starts)])
    _, T, best, samples = yield from _shooting_stage(
        surface, X, T, lam, cfg, tol=_FLOW_TOL, fd=1e-7, iters=_LM_ITERS,
        target=max(1e-12, 1e-3 * cfg.closure_tol))
    if best >= cfg.closure_tol:
        return False, None
    lo, hi = cfg.action_window
    if not lo - _PERIOD_SLACK <= T <= hi + _PERIOD_SLACK:
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
    for k, (x0, (_, pts)) in enumerate(zip(seeds, scans)):
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
    """Group orbits by the match of their point loops (``points``, 256
    samples on a searched orbit), drop iterates, keep minimal periods.

    Iterates are detected by T close to k * T_min with integer k <= 8 on a
    matching point set; each representative records the multiplicities seen
    in ``iterate_multiplicities``.
    The output is sorted by action.
    """
    remaining = sorted(orbits, key=lambda o: (o.period, tuple(o.points[0])))
    reps: List[ReebOrbit] = []
    seen_mults: List[set] = []
    for orb in remaining:
        for i, rep in enumerate(reps):
            k = orb.period / rep.period
            k_int = round(k)
            if not (1 <= k_int <= 8 and abs(k - k_int) < 1e-3):
                continue
            if _same_loop(orb.points, rep.points, tol):
                seen_mults[i].add(k_int)
                break
        else:
            reps.append(orb)
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
