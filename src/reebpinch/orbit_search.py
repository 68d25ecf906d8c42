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
    _require_area,
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
_WIDE_TOL = 1e-8       # the coarse scan's and the wide stage's flow tolerance
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
    converged: int = 0      # seeds with a candidate in a polished cluster
    accepted: int = 0       # orbits returned, at most one per cluster
    # flow calls and requests, the coarse scan's included, the clusters of
    # wide-converged candidates, the polish stages run, fallbacks included,
    # and the clusters whose every polish failed: run counters for the
    # manifest, outside the report and outside equality
    flow_rounds: int = field(default=0, compare=False)
    flow_requests: int = field(default=0, compare=False)
    clusters: int = field(default=0, compare=False)
    polish_runs: int = field(default=0, compare=False)
    failed_clusters: int = field(default=0, compare=False)


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


def _wide_converged(best: float, cfg) -> bool:
    """A wide stage's closure residual small enough to polish."""
    return best < max(1e-3, cfg.closure_tol)


def _predicts_close(F, Jac, step, target) -> bool:
    """Whether the linear model puts a trial's closure residual, the rows
    of F + Jac step before the phase row, below ``target``."""
    return bool(np.linalg.norm((F + Jac @ step)[:-1]) < target)


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
    the stage, discards its FD result.  Only a trial that the linear model
    predicts to meet ``target`` (``_predicts_close``) has its residual
    request carry the sample times: T k/m, k = 1, ..., m - 1
    (m = ``_SEGMENTS``), whose samples start the polish stage's segments,
    then linspace(0, T, 256), whose samples the cluster step compares.  The
    stage's first point and every other trial go without them; output
    times leave the end state's bits unchanged.  A stage that ends
    wide-converged, best < max(1e-3, closure_tol), on a point without
    samples asks for them in one more request, whose samples are the same
    bits, since a request's result does not depend on its batch.  Returns
    (y, T, best, lam, starts, samples): the point, its closure residual,
    the damping the stage ended with and the samples of the point at those
    times, None for a stage that is not wide-converged.
    """
    dim = surface.space.dim
    lo, hi = cfg.action_window
    T_lo, T_hi = 0.25 * lo, hi + 0.5 * (hi - lo) + 1.0
    eye = np.eye(dim)

    def times(T):
        return np.r_[T * np.arange(1, _SEGMENTS) / _SEGMENTS,
                     np.linspace(0.0, T, _ORBIT_SAMPLES)]

    def at(y, T, sample):
        """The residual request at (y, T), with the sample times if
        ``sample``, and the FD request beside it; all FD states share one
        request, which starts with y itself.  They are projected in one
        call, which gives each the bits it has alone."""
        fd_states = surface.project(y + fd * eye)
        return fd_states, [(y, T, tol, times(T) if sample else None),
                           (np.vstack([y, fd_states]), T, tol, None)]

    fd_states, requests = at(y, T, False)
    phi, out = yield requests
    pts = None
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
            sample = _predicts_close(F, Jac, step, target)
            fd_try, requests = at(y_try, T_try, sample)
            first, out_try = yield requests
            phi_try, pts_try = first if sample else (first, None)
            F_try = phi_try - y_try
            if np.linalg.norm(F_try) < best:
                y, T, fd_states, out = y_try, T_try, fd_try, out_try
                pts = pts_try
                best = float(np.linalg.norm(F_try))
                lam = max(lam / 3.0, 1e-12)
                improved = True
                break
            lam *= 5.0
        if not improved:
            break
    if not _wide_converged(best, cfg):
        return y, T, best, lam, None, None
    if pts is None:
        [(_, pts)] = yield [(y, T, tol, times(T))]
    return y, T, best, lam, pts[:_SEGMENTS - 1], pts[_SEGMENTS - 1:]


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


def _clusters(wide, cfg) -> List[List[int]]:
    """Group the wide-converged candidates, best < max(1e-3, closure_tol),
    by ``deduplicate``'s loop rule at k = 1.  In (T, first sample) order a
    candidate joins the first cluster whose first member meets three
    conditions: both wide stages reached their target 1e-6, the periods
    agree to 1e-3 relative, and the two 256-sample loops pass
    ``_same_loop`` at ``dedupe_tol``; every other candidate starts a
    cluster, so iterates stay apart and ``deduplicate`` still folds them.
    ``wide`` holds ``_lm_stage``'s results.  Returns each cluster's
    candidate indices in ascending wide ``best``.
    """
    order = sorted((i for i, w in enumerate(wide)
                    if _wide_converged(w[2], cfg)),
                   key=lambda i: (wide[i][1], tuple(wide[i][5][0])))
    clusters: List[List[int]] = []
    for i in order:
        _, T, best, _, _, loop = wide[i]
        for members in clusters:
            _, T0, best0, _, _, loop0 = wide[members[0]]
            if (max(best, best0) < 1e-6 and abs(T / T0 - 1.0) < 1e-3
                    and _same_loop(loop, loop0, cfg.dedupe_tol)):
                members.append(i)
                break
        else:
            clusters.append([i])
    return [sorted(members, key=lambda i: wide[i][2]) for members in clusters]


def _polish(surface, members, cfg):
    """One cluster's polish as a generator of lists of flow requests.

    ``members`` are wide-stage results (y, T, best, lam, starts, samples),
    polished in turn until one converges, best < closure_tol: a
    multiple-shooting polish (``_shooting_stage``) that drives the stacked
    segment mismatch to the integration floor, from the member's point,
    segment starts and damping.  After a failed polish the next member's
    first requests go out in the very next round.  The polish's residual
    requests carry the 256 sample times, so the orbit's samples come with
    the point it returns; the orbit is kept if its period lies in the
    window.  Returns (converged, orbit or None, polish stages run).
    """
    lo, hi = cfg.action_window
    for runs, (y, T, _, lam, starts, _) in enumerate(members, start=1):
        X = np.vstack([y, surface.project(starts)])
        _, T, best, samples = yield from _shooting_stage(
            surface, X, T, lam, cfg, tol=_FLOW_TOL, fd=1e-7, iters=_LM_ITERS,
            target=max(1e-12, 1e-3 * cfg.closure_tol))
        if best >= cfg.closure_tol:
            continue
        if not lo - _PERIOD_SLACK <= T <= hi + _PERIOD_SLACK:
            return True, None, runs
        ts = np.linspace(0.0, T, _ORBIT_SAMPLES)
        pts = surface.project(samples)
        # action = int alpha(xdot) dt, re-evaluated by quadrature (= T for
        # Reeb flow)
        R = surface.reeb(pts)
        av = surface.space.alpha(pts, R)
        action = float(np.trapezoid(av, ts))
        return True, ReebOrbit(points=pts, period=float(T), action=action,
                               closure_residual=float(best),
                               multiplicity=1), runs
    return False, None, len(members)


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


def _scan(surface, cfg):
    """The coarse scan: every seed flowed once to the window's end, in one
    batch, and sampled on the trial-period grid.  Only the positions of
    the grid minima of a seed's return distance reach the LM stages, so
    the scan runs at the wide tolerance.  Returns the seeds, the grid and
    the (seed, grid index) of every local minimum.
    """
    lo, hi = cfg.action_window
    dirs = sphere_directions(surface.space.dim, cfg.seeds, cfg.rng_seed)
    seeds = surface.point(dirs)
    Ts = np.linspace(lo, hi, _TRIAL_PERIODS)
    scans = flow(surface, [(x0, hi, _WIDE_TOL, Ts) for x0 in seeds])
    minima = [(k, int(i))
              for k, (x0, (_, pts)) in enumerate(zip(seeds, scans))
              for i in _local_minima(np.linalg.norm(pts - x0, axis=-1))]
    return seeds, Ts, minima


def find_closed_orbits(surface: StarshapedSurface,
                       cfg: SearchConfig) -> SearchResult:
    """Multistart closed-orbit search; deterministic given cfg.rng_seed.

    Low-discrepancy seed points crossed with a uniform trial-period grid;
    every local minimum of a seed's return distance on the grid
    (``_scan``) is refined by damped Gauss-Newton with finite-difference
    flow sensitivities.  Then two lockstep passes: the first runs every
    candidate's wide stage, and after ``_clusters`` has grouped the
    converged candidates by orbit, the second runs one polish per cluster
    (``_polish``).  Loosest tolerance first already ran every wide round
    before any polish round, so the barrier between the passes costs no
    round.  Each cluster returns at most one orbit; ``deduplicate`` still
    folds iterates and near-twins afterwards.
    """
    seeds, Ts, minima = _scan(surface, cfg)
    owners = [k for k, _ in minima]
    wide, wide_rounds, wide_sent = _lockstep(surface, [
        _lm_stage(surface, seeds[k].copy(), float(Ts[i]), cfg,
                  tol=_WIDE_TOL, fd=1e-5, iters=3 * _LM_ITERS, target=1e-6)
        for k, i in minima])
    clusters = _clusters(wide, cfg)
    results, rounds, sent = _lockstep(
        surface, [_polish(surface, [wide[i] for i in members], cfg)
                  for members in clusters])

    orbits = [orbit for _, orbit, _ in results if orbit is not None]
    stats = SearchStats(seeds=cfg.seeds, accepted=len(orbits),
                        converged=len({owners[i] for members, (ok, _, _)
                                       in zip(clusters, results) if ok
                                       for i in members}),
                        flow_rounds=1 + wide_rounds + rounds,
                        flow_requests=len(seeds) + wide_sent + sent,
                        clusters=len(clusters),
                        polish_runs=sum(runs for _, _, runs in results),
                        failed_clusters=sum(not ok for ok, _, _ in results))
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


def _window_distance(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Upper bounds on the distances from points P to the closed polyline
    through Q: P_i measured only against the segments of Q from index
    j0 + i - 2 to j0 + i + 2 (mod len(Q)), where Q[j0] is the sample of Q
    nearest P[0].  A minimum over some of the segments is never below the
    minimum over all of them, and the direct formula |P - A - t AB| has no
    cancellation, so a bound below tol puts the true distance below tol.
    """
    m = len(Q)
    j0 = int(np.argmin(np.sum((Q - P[0]) ** 2, axis=-1)))
    idx = (j0 + np.arange(len(P))[:, None] + np.arange(-2, 3)) % m  # (n, 5)
    A = Q[idx]  # (n, 5, d)
    AB = Q[(idx + 1) % m] - A
    AP = P[:, None, :] - A
    t = np.clip(np.sum(AP * AB, axis=-1)
                / np.maximum(np.sum(AB ** 2, axis=-1), 1e-300), 0.0, 1.0)
    return np.sqrt(np.sum((AP - t[..., None] * AB) ** 2, axis=-1).min(axis=1))


def _same_loop(P: np.ndarray, Q: np.ndarray, tol: float) -> bool:
    """Symmetrized Hausdorff distance below tol, measured point-to-polyline
    so that phase offsets of the sampling do not register.  Every 8th
    point of P goes first: its largest distance is a lower bound on the
    full one, so a pair it puts at or past tol is rejected exactly.  Then
    each direction, P to Q and Q to P, is accepted by its windowed bound
    (``_window_distance``) when that lies below tol: two samplings of one
    loop at nearly one period differ by a near-constant index shift, so
    each point's nearest segment lies in its window.  Only a direction
    whose window fails, as on an iterate, pays the full 256 x 256 test,
    and the Q to P direction is skipped once P to Q fails."""
    if float(_loop_distance(P[::8], Q).max()) >= tol:
        return False
    return all(float(_window_distance(A, B).max()) < tol
               or float(_loop_distance(A, B).max()) < tol
               for A, B in ((P, Q), (Q, P)))


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
    orbits.  Raises ValueError when pi R1^2 or pi R2^2 is not a finite
    normal float, as on a radial series whose R passes but whose radius
    grows past it.
    """
    _require_count("seeds", seeds, 1)
    _require_count("rng_seed", rng_seed, 0)
    n = surface.space.n
    R1, R2, ratio_ok = pinch_radii(surface)
    for name, r in (("R1", R1), ("R2", R2)):
        _require_area(name, r)
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
        """Asserted, and every orbit meets the bound and its chain; with no
        orbit there is nothing to pass."""
        return (self.asserted and bool(self.entries) and self.chain_ok
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
