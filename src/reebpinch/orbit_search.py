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
from scipy.integrate import solve_ivp

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
    converged: int = 0
    accepted: int = 0


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

def flow(surface: StarshapedSurface, states: np.ndarray, T: float,
         tol: float = _FLOW_TOL):
    """Integrate xdot = R(x) for time T from a stack of on-surface states.

    The states ride in one DOP853 integration.  Returns the dense solution
    as a callable t -> states, shaped like ``states`` for scalar t and with a
    leading time axis for an array of times.  Raises OffSurfaceError for a
    start state off the surface and HypothesisError where <nu, x> <= 0.
    """
    states = np.asarray(states, dtype=float)
    surface.require_on_surface(states)
    shape = states.shape

    def rhs(t, y):
        X = y.reshape(shape)
        return surface.reeb(X).reshape(-1)

    sol = solve_ivp(rhs, (0.0, T), states.reshape(-1), method="DOP853",
                    rtol=tol, atol=tol, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"flow integration failed: {sol.message}")

    def at(t):
        y = sol.sol(t)
        return y.reshape(shape) if y.ndim == 1 else y.T.reshape(-1, *shape)

    return at


# ---------------------------------------------------------------------------
# multistart search
# ---------------------------------------------------------------------------

def _coarse_candidate(surface, x0, lo, hi):
    """Best trial period for a seed: scan the return distance on a grid."""
    Ts = np.linspace(lo, hi, _TRIAL_PERIODS)
    pts = flow(surface, x0, hi, tol=1e-10)(Ts)
    dist = np.linalg.norm(pts - x0, axis=-1)
    return float(Ts[np.argmin(dist)]), float(np.min(dist))


def _lm_stage(surface, y, T, cfg, tol, fd, iters, target):
    """Levenberg-Marquardt descent on (x, T) for phi_T(x) = x.

    The damping interpolates between gradient descent (robust far from an
    orbit) and Gauss-Newton (quadratic near one); the time-shift direction is
    controlled through a phase-fix row tied to the current Reeb direction.
    """
    dim = surface.space.dim
    lo, hi = cfg.action_window
    T_lo, T_hi = 0.25 * lo, hi + 0.5 * (hi - lo) + 1.0
    eye = np.eye(dim)

    def residual(y, T):
        return flow(surface, y, T, tol)(T) - y

    F = residual(y, T)
    best = float(np.linalg.norm(F))
    lam = 1e-3
    for _ in range(iters):
        if best < target:
            break
        # all FD states of this candidate ride in a single integration
        fd_states = [surface.project(y + fd * e) for e in eye]
        out = flow(surface, np.vstack([y] + fd_states), T, tol)(T)
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
            F_try = residual(y_try, T_try)
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


def _refine_candidate(surface, x0, T0, cfg):
    """Two-stage refinement: cheap wide-basin descent, then a high-accuracy
    polish that drives the closure residual to the integration floor."""
    y, T, best = _lm_stage(surface, x0.copy(), T0, cfg, tol=1e-8, fd=1e-5,
                           iters=3 * _LM_ITERS, target=1e-6)
    if best < 1e-3:
        y, T, best = _lm_stage(surface, y, T, cfg, tol=_FLOW_TOL, fd=1e-7,
                               iters=_LM_ITERS,
                               target=max(1e-12, 1e-3 * cfg.closure_tol))
    return y, T, best


def _sample_orbit(surface: StarshapedSurface, x: np.ndarray, T: float,
                  residual: float) -> ReebOrbit:
    ts = np.linspace(0.0, T, _ORBIT_SAMPLES)
    pts = flow(surface, x, T)(ts)
    pts = surface.project(pts)
    # action = int alpha(xdot) dt, re-evaluated by quadrature (= T for Reeb flow)
    R = surface.reeb(pts)
    av = surface.space.alpha(pts, R)
    action = float(np.trapezoid(av, ts))
    return ReebOrbit(points=pts, period=float(T), action=action,
                     closure_residual=float(residual), multiplicity=1)


def find_closed_orbits(surface: StarshapedSurface,
                       cfg: SearchConfig) -> SearchResult:
    """Multistart closed-orbit search; deterministic given cfg.rng_seed.

    Low-discrepancy seed points crossed with a uniform trial-period grid,
    then damped Gauss-Newton with finite-difference flow sensitivities.
    """
    lo, hi = cfg.action_window
    dirs = sphere_directions(surface.space.dim, cfg.seeds, cfg.rng_seed)
    seeds = surface.point(dirs)
    stats = SearchStats(seeds=cfg.seeds)

    orbits = []
    tol_pad = 10 * cfg.closure_tol
    for x0 in seeds:
        T0, _ = _coarse_candidate(surface, x0, lo, hi)
        y, T, res = _refine_candidate(surface, x0, T0, cfg)
        if res < cfg.closure_tol:
            stats.converged += 1
            if lo - tol_pad <= T <= hi + tol_pad:
                orbits.append(_sample_orbit(surface, y, T, res))
    stats.accepted = len(orbits)
    orbits.sort(key=lambda o: (o.action, tuple(o.points[0])))
    return SearchResult(orbits, stats)


# ---------------------------------------------------------------------------
# dedupe
# ---------------------------------------------------------------------------

def _loop_distance(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Distances from points P to the closed polyline through Q."""
    A = Q
    B = np.roll(Q, -1, axis=0)
    AB = B - A                                   # (m, d)
    denom = np.sum(AB ** 2, axis=-1)
    AP = P[:, None, :] - A[None, :, :]           # (n, m, d)
    t = np.clip(np.einsum("nmd,md->nm", AP, AB) / np.maximum(denom, 1e-300),
                0.0, 1.0)
    proj = A[None, :, :] + t[..., None] * AB[None, :, :]
    d = np.linalg.norm(P[:, None, :] - proj, axis=-1)
    return d.min(axis=1)


def _hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    """Symmetrized Hausdorff distance between two sampled loops, measured
    point-to-polyline so that phase offsets of the sampling do not register."""
    return max(float(_loop_distance(P, Q).max()),
               float(_loop_distance(Q, P).max()))


def deduplicate(orbits: Sequence[ReebOrbit], tol: float) -> List[ReebOrbit]:
    """Group orbits by point-set match, drop iterates, keep minimal periods.

    Iterates are detected by T close to k * T_min with integer k <= 8 on a
    matching point set; each representative records the multiplicities seen
    in ``iterate_multiplicities``.
    The output is sorted by action.
    """
    remaining = sorted(orbits, key=lambda o: (o.period, tuple(o.points[0])))
    reps: List[ReebOrbit] = []
    seen_mults: List[set] = []
    for orb in remaining:
        pts = orb.resample(_ORBIT_SAMPLES)
        placed = False
        for i, rep in enumerate(reps):
            if _hausdorff(pts, rep.resample(_ORBIT_SAMPLES)) < tol:
                k = orb.period / rep.period
                k_int = round(k)
                if 1 <= k_int <= 8 and abs(k - k_int) < 1e-3:
                    seen_mults[i].add(k_int)
                    placed = True
                    break
        if not placed:
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
