"""Radial Hamiltonian profiles.

Constructs a piecewise-smooth radial function h(r) whose slope rises through 1
(at r=A) and R0 (at r=B) along an exact logarithmic piece, plateaus at R0+eps,
and then descends back through R0 (at C), 1 (at D) and down to 0 for large r.
All dynamics downstream depend only on h' and h'', so the slope is the primary
stored object: the pieces compile into one table of polynomials in t = log r,
which gives h', h'' and, by Gauss-Legendre integration from anchors pinned at
h(A) = 0, h itself.

Also houses the rescaled profile l(r) = h(r/R0) and the monotone interpolation
h_s(r) between the two.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, asdict, replace
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "CoreParams",
    "ShapeParams",
    "RadialProfile",
    "MonotoneHomotopy",
    "ValidationReport",
    "PropertyReport",
    "OrbitClass",
    "BuildError",
    "validate_core",
    "log_core_eval",
    "build_profile",
    "verify_profile",
    "action_at",
    "periodic_levels",
    "rescaled",
    "forbidden_distance",
    "in_forbidden_set",
    "profile_to_json",
    "profile_from_json",
]

PROFILE_FORMAT_VERSION = 1

# Quadrature rule used to recover h from the stored slope.  The integrands are
# analytic on each piece, so a fixed high-order rule reaches machine accuracy.
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(40)

# Membership in the half-open action window is decided with this guard band.
FORBIDDEN_GUARD = 1e-12

_VERIFY_MIN_POINTS = 10_000  # verify_profile grid floor; long profiles get 200/log r


class BuildError(ValueError):
    """Raised when a profile cannot be constructed; names the violated bullet."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoreParams:
    """The three free constants of the log piece plus the derived radius B."""

    R0: float
    A: float
    c: float

    @property
    def B(self) -> float:
        return self.A * math.exp((self.R0 - 1.0) / self.c)

    @property
    def window_width(self) -> float:
        """Width c(B-A) of the distinguished action window above A."""
        return self.c * (self.B - self.A)

    def validate(self) -> "ValidationReport":
        return validate_core(self.R0, self.A, self.c)


@dataclass(frozen=True)
class ShapeParams:
    """Knobs and derived landmarks of the constructed profile.

    eps, delta, delta_bar together with the three plateau extensions dl1..dl3
    (in log-r units) determine the profile completely; C, D, r_flat, h0 and
    h_inf are filled in by the builder.
    """

    eps: float
    delta: float
    delta_bar: float
    dl1: float = 0.0
    dl2: float = 0.0
    dl3: float = 0.0
    C: Optional[float] = None
    D: Optional[float] = None
    r_flat: Optional[float] = None
    h0: Optional[float] = None
    h_inf: Optional[float] = None


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    constraints: tuple  # of (name, slack) pairs; pass iff every slack > 0
    B: Optional[float] = None
    window_width: Optional[float] = None
    message: str = ""

    def failed_constraints(self):
        return [(n, s) for (n, s) in self.constraints if not s > 0.0]


def validate_core(R0: float, A: float, c: float) -> ValidationReport:
    """Check the admissibility system for (R0, A, c) and report per-constraint slack."""
    vals = (R0, A, c)
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
        return ValidationReport(False, (), message="non-finite or non-numeric input")

    constraints = [
        ("1 < R0", R0 - 1.0),
        ("R0 < 2", 2.0 - R0),
        ("0 < A", A),
        ("A < 1", 1.0 - A),
        ("0 < c", c),
        ("c < 1", 1.0 - c),
    ]
    range_ok = all(s > 0.0 for _, s in constraints)
    if range_ok:
        # log R0 < 1 is automatic for R0 < 2
        rhs = (R0 - 1.0) / (1.0 - math.log(R0))
        constraints.append(("c < (R0-1)/(1-log R0)", rhs - c))
        try:
            B = A * math.exp((R0 - 1.0) / c)
        except OverflowError:
            B = math.inf        # tiny c: the window constraint fails below
        width = c * (B - A)
        constraints.append(("c(B-A) < 1", 1.0 - width))
        constraints.append(("A < B", B - A))
        passed = all(s > 0.0 for _, s in constraints)
        return ValidationReport(passed, tuple(constraints), B=B, window_width=width)
    return ValidationReport(False, tuple(constraints))


def log_core_eval(core: CoreParams, r):
    """Evaluate the logarithmic piece k and its first two derivatives at r > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("log_core_eval requires r > 0")
    A, c = core.A, core.c
    k = c * r * np.log(r) - c * r + r * (1.0 - c * math.log(A)) + A * c - A
    dk = 1.0 + c * np.log(r / A)
    ddk = c / r
    return k, dk, ddk


# ---------------------------------------------------------------------------
# the forbidden set [A, A + c(B-A)) + Z
# ---------------------------------------------------------------------------

def forbidden_distance(core: CoreParams, v: float) -> float:
    """Signed distance from v to [A, A+c(B-A)) + Z; negative inside, positive outside.

    The left endpoint A lies inside (distance 0); the right endpoint is excluded.
    """
    w = core.window_width
    x = (float(v) - core.A) % 1.0
    if x < w:
        return -min(x, w - x)
    return min(x - w, 1.0 - x)


def in_forbidden_set(core: CoreParams, v: float) -> bool:
    w, guard = core.window_width, FORBIDDEN_GUARD
    x = (float(v) - core.A) % 1.0
    if abs(x - w) <= guard:        # right endpoint: half-open, outside
        return False
    if x <= guard or 1.0 - x <= guard:   # left endpoint (mod 1): inside
        return True
    return x < w


# ---------------------------------------------------------------------------
# slope pieces (functions of t = log r) and the table they compile into
# ---------------------------------------------------------------------------

_H_BLOCK = 256            # points per Gauss-Legendre block when evaluating h


def _smoothstep(u):
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _smoothstep_d(u):
    return 30.0 * u * u * (1.0 - u) ** 2


@dataclass(frozen=True)
class Piece:
    """One slope piece as the profile JSON records it."""

    kind: str      # "const" | "log" | "hermite" | "smooth"
    t0: float      # left edge in t = log r; -inf allowed for the head plateau
    t1: float      # right edge; +inf for the tail plateau
    params: tuple


def _compile(piece: Piece):
    """(origin, length, slope row, d(slope)/dt row): polynomials in
    u = (t - origin) / length, lowest degree first, padded to the quintic."""
    origin, length = piece.t0, piece.t1 - piece.t0
    if piece.kind == "const":
        origin, length, coef = 0.0, 1.0, [piece.params[0]]
    elif piece.kind == "log":
        # origin log A and unit length: h' = 1 + c (t - log A) bit for bit
        c, origin = piece.params
        length, coef = 1.0, [1.0, c]
    elif piece.kind == "hermite":
        y0, y1, m0, m1 = piece.params
        coef = [y0, m0, 3.0 * (y1 - y0) - 2.0 * m0 - m1,
                2.0 * (y0 - y1) + m0 + m1]
    else:   # smooth: y0 + (y1 - y0)(10u^3 - 15u^4 + 6u^5)
        y0, y1 = piece.params
        d = y1 - y0
        coef = [y0, 0.0, 0.0, 10.0 * d, -15.0 * d, 6.0 * d]
    coef += [0.0] * (6 - len(coef))
    dcoef = [k * coef[k] / length for k in range(1, 6)] + [0.0]
    return origin, length, coef, dcoef


def _horner(coef, u):
    """sum_k coef[..., k] u^k; the leading axes of coef broadcast against u."""
    acc = coef[..., -1]
    for k in range(coef.shape[-1] - 2, -1, -1):
        acc = acc * u + coef[..., k]
    return acc


class _SlopeTable:
    """The pieces compiled once.  Row i holds piece i's slope and its
    t-derivative as polynomials in u = (t - origin_i) / length_i, and the
    edge where h is anchored: the piece's left edge, or the right edge of
    the head plateau, which is unbounded on the left and flat.  `rows` holds
    the same numbers as Python floats for the scalar path."""

    def __init__(self, pieces: Sequence[Piece]):
        self.rows = [_compile(pc) for pc in pieces]
        self.origin, self.length, self.coef, self.dcoef = map(
            np.array, zip(*self.rows))
        self.edge = np.array([pc.t0 if math.isfinite(pc.t0) else pc.t1
                              for pc in pieces])

    def slope(self, i, t):
        return _horner(self.coef[i], (t - self.origin[i]) / self.length[i])

    def dslope(self, i, t):
        """d(slope)/dt = r h''(r) on the base profile."""
        return _horner(self.dcoef[i], (t - self.origin[i]) / self.length[i])

    def integral(self, i, a, b):
        """Gauss-Legendre integral of slope * e^t from a to b on rows i."""
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        nodes = mid[:, None] + half[:, None] * _GAUSS_NODES
        vals = self.slope(i[:, None], nodes) * np.exp(nodes)
        return half * (vals @ _GAUSS_WEIGHTS)


# ---------------------------------------------------------------------------
# the profile object
# ---------------------------------------------------------------------------

class RadialProfile:
    """Piecewise radial Hamiltonian profile; immutable after construction.

    kind "base" evaluates h directly; kind "rescaled" evaluates l(r) = h(r/R0)
    through the stored base profile.
    """

    def __init__(self, core: CoreParams, shape: ShapeParams,
                 pieces: Sequence[Piece], boundaries: np.ndarray,
                 anchors: np.ndarray, kind: str = "base",
                 base: Optional["RadialProfile"] = None):
        self.core = core
        self.shape = shape
        self.pieces = list(pieces)
        self.boundaries = np.asarray(boundaries, dtype=float)
        self.anchors = np.asarray(anchors, dtype=float)
        self.kind = kind
        self._base = base
        self._report: Optional[PropertyReport] = None
        self._table = _SlopeTable(self.pieces)
        self._bounds = self.boundaries.tolist()

    # -- evaluation ---------------------------------------------------------

    @property
    def scale(self) -> float:
        return self.core.R0 if self.kind == "rescaled" else 1.0

    def _eval(self, r, what: str):
        """h, h', r h'' or h'' at r; a scalar for scalar r, else an array.
        A Python number r takes the scalar path, except for h."""
        if what != "h" and isinstance(r, (float, int)):
            return self._eval_scalar(float(r), what)
        scalar = np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < 0.0) or (what != "h" and np.any(r == 0.0)):
            raise ValueError("profile evaluation requires r > 0")
        s = self.scale
        rr = r / s
        with np.errstate(divide="ignore"):
            t = np.log(rr)
        idx = np.searchsorted(self.boundaries, t, side="right")
        table = self._table
        if what == "h":
            out = self._h(idx, t)
        elif what == "dh":
            out = table.slope(idx, t) / s
        elif what == "rd2h":
            out = table.dslope(idx, t) / s
        else:
            out = table.dslope(idx, t) / rr / (s * s)
        return out[0] if scalar else out

    def _eval_scalar(self, r: float, what: str) -> float:
        """h', r h'' or h'' at one r: the array path's arithmetic, in its
        order, on Python floats, so both paths agree bit for bit."""
        if r <= 0.0:
            raise ValueError("profile evaluation requires r > 0")
        s = self.scale
        rr = r / s
        t = float(np.log(rr))      # numpy's log, as on the array path
        origin, length, coef, dcoef = self._table.rows[
            bisect_right(self._bounds, t)]
        u = (t - origin) / length
        c0, c1, c2, c3, c4, c5 = coef if what == "dh" else dcoef
        out = ((((c5 * u + c4) * u + c3) * u + c2) * u + c1) * u + c0
        if what == "d2h":
            return out / rr / (s * s)
        return out / s

    def _h(self, idx, t):
        """The anchor plus the integral from the row's edge, in blocks that
        keep the Gauss-Legendre temporaries small."""
        table = self._table
        # the head plateau is flat: every t left of its edge has h = h0
        i, t = idx.ravel(), np.maximum(t, table.edge[0]).ravel()
        out = self.anchors[i]
        for b in (slice(j, j + _H_BLOCK) for j in range(0, t.size, _H_BLOCK)):
            out[b] += table.integral(i[b], table.edge[i[b]], t[b])
        return out.reshape(idx.shape)

    def h(self, r):
        return self._eval(r, "h")

    def dh(self, r):
        return self._eval(r, "dh")

    def d2h(self, r):
        return self._eval(r, "d2h")

    def rd2h(self, r):
        """r h''(r), read as dh'/d log r: exactly c on the log piece."""
        return self._eval(r, "rd2h")

    def action(self, r):
        """A_H(r) = r h'(r) - h(r)."""
        r_arr = np.asarray(r, dtype=float)
        return r_arr * self._eval(r, "dh") - self._eval(r, "h")

    # -- certification ------------------------------------------------------

    @property
    def certified(self) -> bool:
        if self.kind == "rescaled":
            return self._base is not None and self._base.certified
        return self._report is not None and self._report.passed

    def grid(self, n: int) -> np.ndarray:
        """Log-spaced evaluation grid covering the whole nontrivial range."""
        t_lo = math.log(self.shape.delta_bar) - math.log(2.0)
        t_hi = math.log(self.shape.r_flat) + math.log(2.0)
        return np.exp(np.linspace(t_lo, t_hi, n)) * self.scale


def action_at(p: RadialProfile, r: float) -> float:
    """Orbit action r h'(r) - h(r); domain r > 0."""
    if r <= 0.0:
        raise ValueError("action_at requires r > 0")
    return float(p.action(r))


def rescaled(p: RadialProfile) -> RadialProfile:
    """The profile l(r) = h(r/R0)."""
    if p.kind != "base":
        raise ValueError("only a base profile can be rescaled")
    return RadialProfile(p.core, p.shape, p.pieces, p.boundaries, p.anchors,
                         kind="rescaled", base=p)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

_SAFETY = 2.0             # descent length multiplier; max |r h''| = 1/_SAFETY
_MIN_PLATEAU = 0.05       # minimal plateau length in log r
_DESCENT_GAP = 0.02       # descent-1 clearance above log(R0 B), keeps h'' >= 0 there
_TUNE_MARGIN = 0.05       # target clearance from the forbidden set when tuning
_TUNE_EXACT = 1e-8        # closed-form margins this close (relative) are re-checked


def _check_segment(piece: Piece, name: str):
    """Grid check of monotonicity and the scale-invariant Hessian bound."""
    origin, length, _, dcoef = _compile(piece)
    t = np.linspace(piece.t0, piece.t1, 257)
    d = _horner(np.array(dcoef), (t - origin) / length)
    if np.min(d) < -1e-12:
        raise BuildError(f"{name}: transition is not monotone (h'' >= 0 violated)")
    if np.max(np.abs(d)) >= 0.98:
        raise BuildError(f"{name}: |r h''(r)| < 1 cannot be met on this segment")


def _assemble(core: CoreParams, shape: ShapeParams) -> RadialProfile:
    R0, A, c = core.R0, core.A, core.c
    B = core.B
    eps, delta, delta_bar = shape.eps, shape.delta, shape.delta_bar

    if not (0.0 < eps and R0 + eps < 2.0):
        raise BuildError("max h'(r) = R0 + eps < 2 violated by eps choice")
    if not (0.0 < delta_bar < A - delta_bar):
        raise BuildError("need 0 < delta_bar < A - delta_bar")

    logA = math.log(A)
    t_db = math.log(delta_bar)
    t_am = math.log(A - delta_bar)
    t_bp = math.log(B + delta)

    slope_am = 1.0 + c * math.log((A - delta_bar) / A)
    if slope_am <= 0.0:
        raise BuildError("delta_bar too large: slope of the log piece at A - delta_bar "
                         "is not positive")

    # rise from slope 0 at delta_bar to the log piece, C1 in the slope
    L_rise = t_am - t_db
    rise = Piece("hermite", t_db, t_am, (0.0, slope_am, 0.0, c * L_rise))
    _check_segment(rise, "rise to slope 1")

    # cap: ease the slope from R0+eps0 at B+delta up to its maximum R0+eps
    eps0 = c * math.log1p(delta / B)
    if not (0.0 < eps0 < eps):
        raise BuildError("delta inconsistent with eps: need k'(B+delta) < R0 + eps")
    L_cap = 2.5 * (eps - eps0)
    t_cap = t_bp + L_cap
    cap = Piece("hermite", t_bp, t_cap, (R0 + eps0, R0 + eps, c * L_cap, 0.0))
    _check_segment(cap, "slope cap at R0+eps")

    # descents; h'' < 0 here, so descent 1 must start past r = R0 B
    t_d1s = max(t_cap + _MIN_PLATEAU, math.log(R0 * B) + _DESCENT_GAP) + shape.dl1
    L1 = _SAFETY * 1.875 * (2.0 * eps)
    t_d1e = t_d1s + L1
    d1 = Piece("smooth", t_d1s, t_d1e, (R0 + eps, R0 - eps))

    t_d2s = t_d1e + _MIN_PLATEAU + shape.dl2
    L2 = _SAFETY * 1.875 * (R0 - 1.0)
    t_d2e = t_d2s + L2
    d2 = Piece("smooth", t_d2s, t_d2e, (R0 - eps, 1.0 - eps))

    t_d3s = t_d2e + _MIN_PLATEAU + shape.dl3
    L3 = _SAFETY * 1.875 * (1.0 - eps)
    t_flat = t_d3s + L3
    d3 = Piece("smooth", t_d3s, t_flat, (1.0 - eps, 0.0))

    pieces = [
        Piece("const", -math.inf, t_db, (0.0,)),
        rise,
        Piece("log", t_am, t_bp, (c, logA)),
        cap,
        Piece("const", t_cap, t_d1s, (R0 + eps,)),
        d1,
        Piece("const", t_d1e, t_d2s, (R0 - eps,)),
        d2,
        Piece("const", t_d2e, t_d3s, (1.0 - eps,)),
        d3,
        Piece("const", t_flat, math.inf, (0.0,)),
    ]
    boundaries = np.array([t_db, t_am, t_bp, t_cap, t_d1s, t_d1e,
                           t_d2s, t_d2e, t_d3s, t_flat])

    # anchor chain: h == k on the log piece pins h(A) = 0
    table = _SlopeTable(pieces)
    steps = table.integral(np.arange(len(pieces) - 1), table.edge[:-1],
                           table.edge[1:])
    anchors = np.empty(len(pieces))
    anchors[2] = float(log_core_eval(core, A - delta_bar)[0])
    anchors[1] = anchors[2] - steps[1]
    anchors[0] = anchors[1]                # h0
    anchors[3] = float(log_core_eval(core, B + delta)[0])
    for i in range(4, len(pieces)):
        anchors[i] = anchors[i - 1] + steps[i - 1]

    # landmarks
    C = math.exp(0.5 * (t_d1s + t_d1e))    # quintic step is symmetric: slope R0 at midpoint
    target = ((R0 - eps) - 1.0) / ((R0 - eps) - (1.0 - eps))
    u = _invert_smoothstep(target)
    D = math.exp(t_d2s + u * L2)
    r_flat = math.exp(t_flat)
    h0 = float(anchors[0])
    h_inf = float(anchors[-1])

    filled = ShapeParams(eps=eps, delta=delta, delta_bar=delta_bar,
                         dl1=shape.dl1, dl2=shape.dl2, dl3=shape.dl3,
                         C=C, D=D, r_flat=r_flat, h0=h0, h_inf=h_inf)
    return RadialProfile(core, filled, pieces, boundaries, anchors)


def _invert_smoothstep(y: float) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _smoothstep(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def default_shape(core: CoreParams) -> ShapeParams:
    """Deterministic shape knobs: plateau extensions tuned so that the actions
    at C, D and the two tail values stay clear of the forbidden set.

    Each extension dl is the first of 0, 0.01, ..., 2.5 that clears the set by
    _TUNE_MARGIN, found in closed form.  Shifting a descent right by dl in
    t = log r leaves the plateau before it in place, and on that plateau the
    action r h' - h is a constant Q, since its t-derivative r^2 h'' is 0
    there.  From the plateau on, each contribution r^2 h'' dt to the action
    moves with the descent and scales by e^dl.  So every tuned action is

        Q + (A0 - Q) e^dl,     A0 its value at dl = 0,

    for C R0 - h(C) (dl1, Q read on the plateau at R0 + eps), D - h(D) (dl2,
    plateau R0 - eps) and -h_inf (dl3, plateau 1 - eps; h_inf and -h_inf must
    both clear).  One assembled profile per knob gives A0 and Q.  A candidate
    whose closed-form margin lies within _TUNE_EXACT (relative) of
    _TUNE_MARGIN is decided on its assembled profile instead.
    """
    R0, A, c = core.R0, core.A, core.c
    B = core.B
    # R0 - eps > 1, so that the second descent crosses slope 1 at D
    eps = min(0.1, 0.5 * (2.0 - R0), 0.5 * (R0 - 1.0))
    delta = B * math.expm1(0.5 * eps / c)   # so that k'(B+delta) = R0 + eps/2
    delta_bar = A / 10.0

    def distance(v):
        return forbidden_distance(core, v)

    # the head plateau value -h(0) is fixed by delta_bar; shrink if needed
    for _ in range(40):
        shape = ShapeParams(eps=eps, delta=delta, delta_bar=delta_bar)
        prof = _assemble(core, shape)
        if distance(-prof.shape.h0) >= _TUNE_MARGIN:
            break
        delta_bar *= 0.5
    else:
        raise BuildError("-h(0) not in [A, A+c(B-A)) + Z cannot be met")

    def tune(shape: ShapeParams, prof: RadialProfile, key: str, plateau: int,
             action, margin) -> ShapeParams:
        """prof is shape assembled, with key = 0; plateau indexes the piece
        before the descent that key shifts."""
        a0 = action(prof)
        pc = prof.pieces[plateau]
        q = pc.params[0] * math.exp(pc.t0) - float(prof.anchors[plateau])
        for dl in np.linspace(0.0, 2.5, 251):
            cand = replace(shape, **{key: float(dl)})
            v = a0 + (a0 - q) * math.expm1(dl)    # exactly a0 at dl = 0
            m = margin(v)
            if abs(m - _TUNE_MARGIN) <= _TUNE_EXACT * max(1.0, abs(v)):
                m = margin(action(_assemble(core, cand)))
            if m >= _TUNE_MARGIN:
                return cand
        raise BuildError(f"could not tune {key} clear of the forbidden set")

    shape = tune(shape, prof, "dl1", 4,
                 lambda p: p.shape.C * R0 - float(p.h(p.shape.C)), distance)
    shape = tune(shape, _assemble(core, shape), "dl2", 6,
                 lambda p: p.shape.D - float(p.h(p.shape.D)), distance)
    return tune(shape, _assemble(core, shape), "dl3", 8,
                lambda p: -p.shape.h_inf,
                lambda v: min(distance(v), distance(-v)))


def build_profile(core: CoreParams) -> RadialProfile:
    """Build a certified-ready profile on ``default_shape``; deterministic
    given core."""
    rep = core.validate()
    if not rep.passed:
        bad = ", ".join(n for n, _ in rep.failed_constraints()) or rep.message
        raise BuildError(f"core parameters rejected: {bad}")
    return _assemble(core, default_shape(core))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BulletCheck:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class PropertyReport:
    passed: bool
    bullets: tuple


def verify_profile(p: RadialProfile) -> PropertyReport:
    """Grid-check the full property list of the profile; also certifies it."""
    if p.kind != "base":
        raise ValueError("verify_profile applies to the base profile")
    core, shape = p.core, p.shape
    R0, A, c = core.R0, core.A, core.c
    B = core.B
    span = math.log(shape.r_flat * 2.0) - math.log(shape.delta_bar / 2.0)
    n = max(_VERIFY_MIN_POINTS, int(math.ceil(span * 200)))
    r = p.grid(n)
    t = np.log(r)
    dh = p.dh(r)
    d2h = p.d2h(r)

    bullets = []

    def add(name, margin, tol=0.0):
        bullets.append(BulletCheck(name, bool(margin >= -tol), float(margin)))

    top = R0 + shape.eps
    add("h' in [0, R0+eps]", float(min(dh.min(), top - dh.max())), tol=1e-12)
    add("max h' = R0+eps", -abs(float(dh.max()) - top) + 1e-9)

    buf = 1e-3  # log-r clearance around the distinguished radii
    inner = (t > math.log(shape.delta_bar) + buf) & (t < math.log(shape.r_flat) - buf)
    add("h' = 0 iff r in [0, delta_bar] or r >= r_flat",
        float(dh[inner].min()) if inner.any() else math.inf)

    away_1 = inner & (np.abs(t - math.log(A)) > buf) & (np.abs(t - math.log(shape.D)) > buf)
    m1 = min(float(np.abs(dh[away_1] - 1.0).min()),
             -abs(float(p.dh(A)) - 1.0) + 1e-9, -abs(float(p.dh(shape.D)) - 1.0) + 1e-9)
    add("h' = 1 iff r in {A, D}", m1)

    away_R0 = inner & (np.abs(t - math.log(B)) > buf) & (np.abs(t - math.log(shape.C)) > buf)
    mR = min(float(np.abs(dh[away_R0] - R0).min()),
             -abs(float(p.dh(B)) - R0) + 1e-9, -abs(float(p.dh(shape.C)) - R0) + 1e-9)
    add("h' = R0 iff r in {B, C}", mR)

    add("h(A) = 0", -abs(float(p.h(A))) + 1e-12)
    hB_expect = B * R0 - c * B + c * A - A
    add("h(B) = B R0 - cB + cA - A", -abs(float(p.h(B)) - hB_expect) + 1e-10)

    add("-h(0) not in forbidden set", forbidden_distance(core, -shape.h0))
    add("C R0 - h(C) not in forbidden set",
        forbidden_distance(core, shape.C * R0 - float(p.h(shape.C))))
    add("D - h(D) not in forbidden set",
        forbidden_distance(core, shape.D - float(p.h(shape.D))))
    add("h_inf not in forbidden set", forbidden_distance(core, shape.h_inf))

    convex = r <= R0 * B
    add("h'' >= 0 for r <= R0 B", float(d2h[convex].min()), tol=1e-12)
    add("|r h''(r)| < 1", float((1.0 - np.abs(p.rd2h(r))).min()))

    report = PropertyReport(all(b.passed for b in bullets), tuple(bullets))
    p._report = report
    return report


# ---------------------------------------------------------------------------
# periodic levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitClass:
    cls: int
    r_lo: float
    r_hi: float
    slope: float
    action: float
    forbidden: bool


def periodic_levels(p: RadialProfile):
    """The four families of 1-periodic orbit levels with actions and window flags."""
    if not p.certified:
        raise ValueError("periodic_levels requires a verified profile")
    core, shape = p.core, p.shape
    s = p.scale
    if p.kind == "base":
        slope1 = (core.A, shape.D)
    else:
        # l'(r) = 1 exactly where h'(r/R0) = R0, i.e. at R0 B and R0 C
        slope1 = (s * core.B, s * shape.C)
    levels = [(1, 0.0, s * shape.delta_bar, 0.0, -shape.h0),
              (2, slope1[0], slope1[0], 1.0, float(p.action(slope1[0]))),
              (3, slope1[1], slope1[1], 1.0, float(p.action(slope1[1]))),
              (4, s * shape.r_flat, math.inf, 0.0, -shape.h_inf)]
    return [OrbitClass(*lv, in_forbidden_set(core, lv[4])) for lv in levels]


# ---------------------------------------------------------------------------
# monotone homotopy
# ---------------------------------------------------------------------------

class MonotoneHomotopy:
    """h_s(r) = beta(s) h(r) + (1 - beta(s)) h(r/R0) with a quintic-step cutoff."""

    def __init__(self, profile: RadialProfile):
        if profile.kind != "base":
            raise ValueError("the homotopy is built on the base profile")
        self.profile = profile
        self.resc = rescaled(profile)

    @staticmethod
    def beta(s):
        if isinstance(s, (float, int)):
            # np.clip on Python floats; min/max keep a NaN first argument
            return 1.0 - _smoothstep(min(max(float(s) + 1.0, 0.0), 1.0))
        s = np.asarray(s, dtype=float)
        u = np.clip(s + 1.0, 0.0, 1.0)
        return 1.0 - _smoothstep(u)

    @staticmethod
    def dbeta(s):
        # the step's derivative vanishes at both ends; 0.0 - x keeps +0 there
        return 0.0 - _smoothstep_d(np.clip(np.asarray(s, dtype=float) + 1.0,
                                           0.0, 1.0))

    def value(self, s, r):
        b = self.beta(s)
        return b * self.profile.h(r) + (1.0 - b) * self.resc.h(r)

    def dr(self, s, r):
        b = self.beta(s)
        return b * self.profile.dh(r) + (1.0 - b) * self.resc.dh(r)

    def drr(self, s, r):
        b = self.beta(s)
        return b * self.profile.d2h(r) + (1.0 - b) * self.resc.d2h(r)

    def dsdr(self, s, r):
        return self.dbeta(s) * (self.profile.dh(r) - self.resc.dh(r))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def profile_to_json(p: RadialProfile) -> str:
    knot_r = np.exp(p.boundaries)
    doc = {
        "version": PROFILE_FORMAT_VERSION,
        "kind": p.kind,
        "core": {"R0": p.core.R0, "A": p.core.A, "c": p.core.c},
        "shape": asdict(p.shape),
        "knots": [{"r": float(r), "h": float(p.h(r)), "dh": float(p.dh(r)),
                   "ddh": float(p.d2h(r))} for r in knot_r],
        "pieces": [{"kind": pc.kind, "range": [pc.t0, pc.t1], "coeffs": list(pc.params)}
                   for pc in p.pieces],
        "anchors": [float(a) for a in p.anchors],
    }
    return json.dumps(doc, indent=2)


def profile_from_json(text: str) -> RadialProfile:
    doc = json.loads(text)
    if doc.get("version") != PROFILE_FORMAT_VERSION:
        raise ValueError(f"unsupported profile format version: {doc.get('version')}")
    core = CoreParams(**doc["core"])
    shape = ShapeParams(**doc["shape"])
    pieces = [Piece(d["kind"], d["range"][0], d["range"][1], tuple(d["coeffs"]))
              for d in doc["pieces"]]
    boundaries = np.array([pc.t1 for pc in pieces[:-1]])
    anchors = np.array(doc["anchors"])
    prof = RadialProfile(core, shape, pieces, boundaries, anchors, kind="base")
    if doc["kind"] == "rescaled":
        return rescaled(prof)
    return prof
