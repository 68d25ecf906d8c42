"""The reduced connecting ODE between the two slope-one levels.

For the interpolated profile h_s the log-radial coordinate G satisfies
G'(s) = 1 - h_s'(e^G) with G == log A frozen for s <= -1 and e^G -> R0 B as
s -> +infinity.  This module integrates that ODE, computes the slope-one
barrier rho(s), certifies the gap e^G < rho on (-1, 0), probes uniqueness of
the frozen branch, and evaluates the linearized coefficient and the radial
adjoint solution along the trajectory.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .radial_profile import MonotoneHomotopy

__all__ = [
    "ConnectingTrajectory",
    "BarrierCurve",
    "DivergenceReport",
    "MinorReport",
    "IntegrationError",
    "barrier_curve",
    "integrate_connecting",
    "verify_gap",
    "uniqueness_probe",
    "zeta2_coefficient",
    "radial_adjoint_profile",
    "ellipticity_grid_report",
    "trajectory_to_csv",
]

S_FROZEN_START = -3.0   # stored extent of the frozen branch F == A
S_HORIZON = 50.0        # ODE end: 26 e-folding times R0/c of the base triple's approach
_BARRIER_RTOL = 1e-12   # bisection width, 100x below the ODE tolerance 1e-10
_ADJOINT_INNER_POINTS = 4001  # adjoint quadrature on [-1, 0], where psi varies


class IntegrationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# slope-one barrier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarrierCurve:
    s_grid: np.ndarray
    rho: np.ndarray
    homotopy: MonotoneHomotopy = field(repr=False)


def barrier_curve(H: MonotoneHomotopy, n: int = 1001) -> BarrierCurve:
    """rho(s) on [-1, 0]: the unique rho in (0, R0 B] with h_s'(rho) = 1,
    by bisection vectorized over the whole s grid (h_s is convex below R0 B,
    so the root is unique)."""
    core = H.profile.core
    s = np.linspace(-1.0, 0.0, n)
    lo = np.full(n, H.profile.shape.delta_bar)
    hi = np.full(n, core.R0 * core.B)

    def g(r):
        return np.asarray(H.dr(s, r), dtype=float) - 1.0

    glo, ghi = g(lo), g(hi)
    if np.any(glo >= 0.0) or np.any(ghi < 0.0):
        bad = float(s[np.argmax((glo >= 0.0) | (ghi < 0.0))])
        raise IntegrationError(f"no bracket for rho({bad})")
    exact = ghi == 0.0
    while np.max(hi - lo - _BARRIER_RTOL * hi) > 0.0:
        mid = 0.5 * (lo + hi)
        below = g(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    rho = np.where(exact, np.full(n, core.R0 * core.B), 0.5 * (lo + hi))
    return BarrierCurve(s, rho, H)


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

@dataclass
class ConnectingTrajectory:
    s_grid: np.ndarray
    F: np.ndarray
    G: np.ndarray
    homotopy: MonotoneHomotopy
    step_stats: dict
    _sol: object = field(default=None, repr=False)

    def G_at(self, s):
        """Dense log-radial coordinate; exactly log A on the frozen branch."""
        s_in = np.asarray(s, dtype=float)
        s1 = np.atleast_1d(s_in)
        logA = math.log(self.homotopy.profile.core.A)
        out = np.full(s1.shape, logA)
        live = s1 > -1.0
        if np.any(live):
            # clamp past the last accepted step (early exit at the target level)
            sq = np.minimum(s1[live], self._sol.t[-1])
            out[live] = self._sol.sol(sq)[0]
        return float(out[0]) if s_in.ndim == 0 else out

    def F_at(self, s):
        s = np.asarray(s, dtype=float)
        if s.ndim == 0:
            return float(np.exp(self.G_at(s)))
        return np.exp(self.G_at(s))


def integrate_connecting(H: MonotoneHomotopy,
                         tol: float = 1e-10) -> ConnectingTrajectory:
    """Integrate G' = 1 - h_s'(e^G) from the frozen branch until e^G reaches
    R0 B, or out to S_HORIZON."""
    core = H.profile.core
    logA = math.log(core.A)
    target = core.R0 * core.B

    def rhs(s, y):
        return [1.0 - float(H.dr(s, math.exp(y[0])))]

    def reached(s, y):
        return (target - math.exp(y[0])) - tol
    reached.terminal = True
    reached.direction = -1

    sol = solve_ivp(rhs, (-1.0, S_HORIZON), [logA], method="RK45",
                    rtol=tol, atol=tol, first_step=1e-3,
                    dense_output=True, events=reached)
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}")

    s_frozen = np.linspace(S_FROZEN_START, -1.0, 41)
    s_grid = np.concatenate([s_frozen[:-1], sol.t])
    G = np.concatenate([np.full(len(s_frozen) - 1, logA), sol.y[0]])
    F = np.exp(G)
    F[: len(s_frozen) - 1] = core.A  # frozen branch stored bit-exactly

    stats = {
        "steps": int(len(sol.t)),
        "s_final": float(sol.t[-1]),
        "terminal_gap": float(target - F[-1]),
        "rhs_evals": int(sol.nfev),
    }
    traj = ConnectingTrajectory(s_grid, F, G, H, stats, _sol=sol)

    # invariant guard: the trajectory never overshoots the target level
    if np.any(F > target + 10 * tol) or np.any(F < core.A - 10 * tol):
        raise IntegrationError("trajectory left the interval [A, R0 B]")
    return traj


def ode_residual(traj: ConnectingTrajectory) -> np.ndarray:
    """|G'(s) - (1 - h_s'(e^G))| at every accepted step.

    G' is recovered by a one-sided five-point differentiation of the dense
    interpolant (exact for its piecewise-quartic polynomials up to roundoff)
    and the right-hand side is re-evaluated from the homotopy directly, so the
    check does not reuse the integrator's own error estimate.
    """
    H = traj.homotopy
    t = traj._sol.t
    coeffs = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    res = np.empty(len(t))
    for i, s in enumerate(t):
        if i < len(t) - 1:
            dh = min(1e-3, (t[i + 1] - s) / 8.0)
            sample = s + dh * np.arange(5)
        else:
            dh = -min(1e-3, (s - t[i - 1]) / 8.0)
            sample = s + dh * np.arange(5)
        Gp = float(coeffs @ traj.G_at(sample)) / dh
        res[i] = abs(Gp - (1.0 - H.dr(s, traj.F_at(s))))
    return res


# ---------------------------------------------------------------------------
# gap certificate
# ---------------------------------------------------------------------------

def verify_gap(traj: ConnectingTrajectory, barrier: BarrierCurve) -> float:
    """Minimum of rho(s) - F(s) over the interior of (-1, 0)."""
    if barrier.homotopy is not traj.homotopy:
        raise ValueError("trajectory and barrier come from different homotopies")
    inner = (barrier.s_grid > -1.0) & (barrier.s_grid < 0.0)
    s = barrier.s_grid[inner]
    return float(np.min(barrier.rho[inner] - traj.F_at(s)))


# ---------------------------------------------------------------------------
# uniqueness probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceReport:
    s0: float
    F0: float
    s_back: float
    F_back: Optional[float]
    ratio: float
    blow_up: bool


def uniqueness_probe(H: MonotoneHomotopy, s0: float, F0: float,
                     s_back: float) -> DivergenceReport:
    """Integrate the frozen autonomous ODE backward from a perturbed start.

    Any start F0 != A drifts away from A in backward time, certifying that
    perturbed solutions violate the s -> -infinity asymptotic condition.
    """
    if s0 > -1.0:
        raise ValueError("the probe runs on the frozen branch, s0 <= -1")
    if s_back >= s0:
        raise ValueError("s_back must precede s0")
    core = H.profile.core
    A = core.A
    if F0 == A:
        return DivergenceReport(s0, F0, s_back, A, 0.0, False)
    if not (0.0 < F0 < core.B):
        raise ValueError("F0 must lie in (0, B)")
    prof = H.profile
    cap = 10.0 * core.R0 * core.B

    def rhs(s, y):
        return [-y[0] * (float(prof.dh(y[0])) - 1.0)]

    def escape(s, y):
        return cap - y[0]
    escape.terminal = True

    sol = solve_ivp(rhs, (s0, s_back), [F0], method="RK45",
                    rtol=1e-10, atol=1e-12, events=escape)
    blow_up = bool(sol.t_events[0].size)
    F_back = float(sol.y[0, -1])
    ratio = math.inf if blow_up else abs(F_back - A) / abs(F0 - A)
    return DivergenceReport(s0, F0, s_back, F_back, ratio, blow_up)


# ---------------------------------------------------------------------------
# linearized quantities along the trajectory
# ---------------------------------------------------------------------------

def zeta2_coefficient(traj: ConnectingTrajectory, s: float) -> float:
    """F(s) h_s''(F(s)); equals A h''(A) = c exactly on the frozen branch."""
    H = traj.homotopy
    if s <= -1.0:
        A = H.profile.core.A
        return A * float(H.profile.d2h(A))
    F = traj.F_at(s)
    return float(F * H.drr(s, F))


def radial_adjoint_profile(traj: ConnectingTrajectory):
    """Samples (s, X2(s)) of X2 = exp(int -1 - ds h_s' / (G' e^G)), X2(0) = 1.

    The fractional term is defined as 0 on the frozen branch and wherever the
    cutoff is flat (s >= 0); inside (-1, 0) it is evaluated directly, guarded
    by the gap certificate (G' cannot vanish there).
    """
    H = traj.homotopy
    barrier = barrier_curve(H, 201)
    margin = verify_gap(traj, barrier)
    if margin <= 0.0:
        raise ValueError(f"gap certificate failed (margin {margin}); refusing the "
                         "division by G'")

    s_lo = float(traj.s_grid[0])
    s_hi = float(traj.s_grid[-1])
    s = np.unique(np.concatenate([
        np.linspace(s_lo, -1.0, 81),
        np.linspace(-1.0, 0.0, _ADJOINT_INNER_POINTS),
        np.linspace(0.0, s_hi, 801),
    ]))

    psi = np.full(s.shape, -1.0)
    inner = (s > -1.0) & (s < 0.0)
    si = s[inner]
    F = traj.F_at(si)
    Gp = 1.0 - H.dr(si, F)
    if np.any(np.abs(Gp) < 1e-14):
        raise ValueError("G' numerically vanished inside (-1, 0)")
    psi[inner] = -1.0 - H.dsdr(si, F) / (Gp * F)

    # cumulative trapezoid, then shift so that X2(0) = 1
    log_x2 = np.concatenate([[0.0], np.cumsum(0.5 * (psi[1:] + psi[:-1]) * np.diff(s))])
    i0 = int(np.argmin(np.abs(s)))
    log_x2 -= log_x2[i0]
    return s, np.exp(log_x2)


# ---------------------------------------------------------------------------
# ellipticity report for the disk-model coefficient matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorReport:
    x: float
    y: float
    first_minor: float
    determinant: float
    skipped: bool = False
    note: str = ""


def ellipticity_grid_report(points) -> list:
    """Assemble the 2x2 second-order coefficient matrix at each grid point and
    report its leading principal minors.

    No positivity is asserted: for q = sin^2(sigma)/sigma^2 <= 1 the determinant
    x^2 y^2 [(1+q)^2 - (q - 4 pi^2)^2] is negative off the axes, and the first
    minor vanishes on the y-axis.  The report only documents the values.
    """
    out = []
    for (x, y) in points:
        sigma = math.hypot(x, y)
        if sigma == 0.0 or sigma >= math.pi:
            out.append(MinorReport(x, y, math.nan, math.nan, skipped=True,
                                   note="sigma outside (0, pi)"))
            continue
        q = math.sin(sigma) ** 2 / sigma ** 2
        a = x * x * (1.0 + q)
        b = y * y * (1.0 + q)
        off = x * y * (q - 4.0 * math.pi ** 2)
        out.append(MinorReport(x, y, a, a * b - off * off))
    return out


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: ConnectingTrajectory, barrier: BarrierCurve) -> str:
    """CSV dump "s,F,G,rho,margin"; rho/margin blank outside [-1, 0]."""
    buf = io.StringIO()
    buf.write("s,F,G,rho,margin\n")
    for s, F, G in zip(traj.s_grid, traj.F, traj.G):
        s, F, G = float(s), float(F), float(G)
        if -1.0 <= s <= 0.0:
            rho = float(np.interp(s, barrier.s_grid, barrier.rho))
            buf.write(f"{s!r},{F!r},{G!r},{rho!r},{rho - F!r}\n")
        else:
            buf.write(f"{s!r},{F!r},{G!r},,\n")
    return buf.getvalue()
