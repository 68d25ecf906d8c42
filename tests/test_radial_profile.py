"""Tests for the admissible radial profile builder and its certification."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.stats import qmc

from reebpinch import radial_profile
from reebpinch.radial_profile import (
    _TUNE_MARGIN,
    BuildError,
    CoreParams,
    MonotoneHomotopy,
    ShapeParams,
    _assemble,
    default_shape,
    action_at,
    build_profile,
    forbidden_distance,
    in_forbidden_set,
    log_core_eval,
    periodic_levels,
    profile_from_json,
    profile_to_json,
    rescaled,
    validate_core,
    verify_profile,
)

BASE = CoreParams(1.5, 0.5, 0.8)


@pytest.fixture(scope="module")
def profile():
    p = build_profile(BASE)
    verify_profile(p)
    return p


# ---------------------------------------------------------------------------
# reference: the per-kind slope formulas and the per-piece Gauss h that the
# slope table replaced, kept to check the table against
# ---------------------------------------------------------------------------

_NODES, _WEIGHTS = leggauss(40)


def _hermite(y0, y1, m0, m1, u):
    u2 = u * u
    u3 = u2 * u
    return (y0 * (2 * u3 - 3 * u2 + 1) + m0 * (u3 - 2 * u2 + u)
            + y1 * (-2 * u3 + 3 * u2) + m1 * (u3 - u2))


def _hermite_d(y0, y1, m0, m1, u):
    u2 = u * u
    return (y0 * (6 * u2 - 6 * u) + m0 * (3 * u2 - 4 * u + 1)
            + y1 * (-6 * u2 + 6 * u) + m1 * (3 * u2 - 2 * u))


def _smoothstep(u):
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def reference_slope(piece, t):
    if piece.kind == "const":
        return np.full_like(t, piece.params[0])
    if piece.kind == "log":
        c, logA = piece.params
        return 1.0 + c * (t - logA)
    L = piece.t1 - piece.t0
    u = (t - piece.t0) / L
    if piece.kind == "hermite":
        return _hermite(*piece.params, u)
    y0, y1 = piece.params
    return y0 + (y1 - y0) * _smoothstep(u)


def reference_dslope_dt(piece, t):
    if piece.kind == "const":
        return np.zeros_like(t)
    if piece.kind == "log":
        return np.full_like(t, piece.params[0])
    L = piece.t1 - piece.t0
    u = (t - piece.t0) / L
    if piece.kind == "hermite":
        return _hermite_d(*piece.params, u) / L
    y0, y1 = piece.params
    return (y1 - y0) * 30.0 * u * u * (1.0 - u) ** 2 / L


def reference_piece_h(piece, h_anchor, t):
    if piece.kind == "const":
        return h_anchor + piece.params[0] * (np.exp(t) - math.exp(piece.t0))
    if piece.kind == "log":
        c, logA = piece.params
        r = np.exp(t)
        A = math.exp(logA)
        return c * r * np.log(r) - c * r + r * (1.0 - c * logA) + A * c - A
    half = 0.5 * (t - piece.t0)
    mid = 0.5 * (t + piece.t0)
    nodes = mid[..., None] + half[..., None] * _NODES
    vals = reference_slope(piece, nodes) * np.exp(nodes)
    return h_anchor + half * (vals @ _WEIGHTS)


def reference_anchors(p):
    """The anchor chain with closed-form constant pieces and h == k on the
    log piece."""
    def full(piece):
        if piece.kind == "const":
            return piece.params[0] * (math.exp(piece.t1) - math.exp(piece.t0))
        return float(reference_piece_h(piece, 0.0, np.array(piece.t1)))

    pieces, core, shape = p.pieces, p.core, p.shape
    k_am = float(log_core_eval(core, core.A - shape.delta_bar)[0])
    anchors = np.empty(len(pieces))
    anchors[2] = k_am
    anchors[1] = k_am - full(pieces[1])
    anchors[0] = anchors[1]
    anchors[3] = float(log_core_eval(core, core.B + shape.delta)[0])
    for i in range(4, len(pieces)):
        anchors[i] = anchors[i - 1] + full(pieces[i - 1])
    return anchors


def reference_eval(p, r):
    """(h, h', h'') of a base profile from the per-kind formulas."""
    t = np.log(r)
    idx = np.searchsorted(p.boundaries, t, side="right")
    anchors = reference_anchors(p)
    h, dh, d2h = (np.empty_like(t) for _ in range(3))
    for i in np.unique(idx):
        m = idx == i
        piece = p.pieces[i]
        h[m] = reference_piece_h(piece, anchors[i], t[m])
        dh[m] = reference_slope(piece, t[m])
        d2h[m] = reference_dslope_dt(piece, t[m]) / r[m]
    return h, dh, d2h


def reference_default_shape(core):
    """default_shape as a linear scan: every candidate dl assembled."""
    R0 = core.R0
    eps = min(0.1, 0.5 * (2.0 - R0), 0.5 * (R0 - 1.0))
    delta = core.B * math.expm1(0.5 * eps / core.c)
    delta_bar = core.A / 10.0

    def ok(v):
        return forbidden_distance(core, v) >= _TUNE_MARGIN

    for _ in range(40):
        shape = ShapeParams(eps=eps, delta=delta, delta_bar=delta_bar)
        if ok(-_assemble(core, shape).shape.h0):
            break
        delta_bar *= 0.5
    else:
        raise BuildError("-h(0) not in [A, A+c(B-A)) + Z cannot be met")

    def tune(shape, key, cond):
        for dl in np.linspace(0.0, 2.5, 251):
            cand = ShapeParams(**{**asdict(shape), key: float(dl)})
            if cond(_assemble(core, cand)):
                return cand
        raise BuildError(f"could not tune {key} clear of the forbidden set")

    shape = tune(shape, "dl1",
                 lambda p: ok(p.shape.C * R0 - float(p.h(p.shape.C))))
    shape = tune(shape, "dl2",
                 lambda p: ok(p.shape.D - float(p.h(p.shape.D))))
    return tune(shape, "dl3",
                lambda p: ok(p.shape.h_inf) and ok(-p.shape.h_inf))


def _admissible_triples():
    """The base triple and every admissible point of a 256-point Sobol net
    over 1 < R0 < 2, 0 < A < 1, 0 < c < 1."""
    box = qmc.Sobol(d=3, scramble=True, seed=1).random(256)
    out = [BASE]
    for u in box:
        R0, A, c = 1.0 + float(u[0]), float(u[1]), float(u[2])
        if validate_core(R0, A, c).passed:
            out.append(CoreParams(R0, A, c))
    return out


def _built_triples():
    """The profiles of _admissible_triples that build."""
    out = []
    for core in _admissible_triples():
        try:
            out.append(build_profile(core))
        except BuildError:
            pass
    return out


@pytest.fixture(scope="module")
def built():
    return _built_triples()


class TestValidateCore:
    def test_base_config_passes(self):
        rep = validate_core(1.5, 0.5, 0.8)
        assert rep.passed
        assert rep.B == pytest.approx(0.5 * math.exp(0.625), abs=1e-15)
        assert rep.B == pytest.approx(0.934123, abs=1e-6)
        assert rep.window_width == pytest.approx(0.347298, abs=1e-6)

    def test_large_c_fails_first_constraint(self):
        rep = validate_core(1.5, 0.5, 0.9)
        assert not rep.passed
        names = [n for n, _ in rep.failed_constraints()]
        assert "c < (R0-1)/(1-log R0)" in names

    def test_out_of_range_params(self):
        assert not validate_core(2.5, 0.5, 0.8).passed
        assert not validate_core(1.5, 1.5, 0.8).passed
        assert not validate_core(1.5, 0.5, -0.1).passed
        assert not validate_core(float("nan"), 0.5, 0.8).passed

    def test_tiny_c_fails_window_constraint(self):
        # B = A exp((R0-1)/c) overflows; the triple fails c(B-A) < 1
        rep = validate_core(1.5, 0.5, 1e-4)
        assert rep.passed is False
        assert rep.B == math.inf
        assert rep.failed_constraints()[0][0] == "c(B-A) < 1"

    def test_slack_signs(self):
        rep = validate_core(1.5, 0.5, 0.8)
        assert all(s > 0 for _, s in rep.constraints)


class TestLogCore:
    def test_anchor_values(self):
        k, dk, _ = log_core_eval(BASE, np.array([BASE.A, BASE.B]))
        assert k[0] == pytest.approx(0.0, abs=1e-15)
        assert dk[0] == pytest.approx(1.0, abs=1e-15)
        assert dk[1] == pytest.approx(BASE.R0, abs=1e-12)

    def test_scale_invariant_curvature(self):
        r = np.linspace(0.3, 1.2, 50)
        _, _, ddk = log_core_eval(BASE, r)
        assert np.allclose(r * ddk, BASE.c)


class TestForbiddenSet:
    def test_left_endpoint_inside(self):
        assert in_forbidden_set(BASE, BASE.A)
        assert forbidden_distance(BASE, BASE.A) == 0.0

    def test_right_endpoint_excluded(self):
        w = BASE.window_width
        assert not in_forbidden_set(BASE, BASE.A + w)

    def test_integer_periodicity(self):
        v = BASE.A + 0.1
        assert in_forbidden_set(BASE, v)
        assert in_forbidden_set(BASE, v + 3.0)
        assert in_forbidden_set(BASE, v - 2.0)

    def test_outside_window(self):
        assert not in_forbidden_set(BASE, BASE.A - 1e-3)
        assert forbidden_distance(BASE, BASE.A - 1e-3) > 0


class TestProfile:
    def test_all_thirteen_bullets(self, profile):
        rep = verify_profile(profile)
        assert len(rep.bullets) == 13
        failures = [b.name for b in rep.bullets if not b.passed]
        assert not failures, failures

    def test_anchor_h_values(self, profile):
        assert float(profile.h(BASE.A)) == pytest.approx(0.0, abs=1e-12)
        hB = BASE.B * BASE.R0 - BASE.c * BASE.B + BASE.c * BASE.A - BASE.A
        assert hB == pytest.approx(0.5538860851, abs=1e-9)
        assert float(profile.h(BASE.B)) == pytest.approx(hB, abs=1e-10)

    def test_affine_action_law(self, profile):
        r = np.linspace(BASE.A, BASE.B, 200)
        acts = profile.action(r)
        assert np.max(np.abs(acts - (BASE.A + BASE.c * (r - BASE.A)))) < 1e-10

    def test_curvature_margin(self, profile):
        r = profile.grid(10_000)
        margin = float(np.min(1.0 - np.abs(r * profile.d2h(r))))
        assert margin >= 0.19

    def test_slope_range(self, profile):
        r = profile.grid(10_000)
        dh = profile.dh(r)
        assert dh.min() >= 0.0
        assert dh.max() == pytest.approx(BASE.R0 + profile.shape.eps, abs=1e-9)

    def test_action_at_endpoints(self, profile):
        assert action_at(profile, BASE.A) == pytest.approx(BASE.A, abs=1e-12)

    def test_energy_budget(self):
        assert BASE.window_width < 1.0

    @pytest.mark.parametrize("triple", [
        (1.0540273422375321, 0.9351542722433805, 0.048778899013996124),
        (1.078143390826881, 0.18169264495372772, 0.02958280500024557)])
    def test_slope_one_at_D_for_small_R0(self, triple):
        # R0 < 1.1: eps = (R0 - 1)/2 keeps R0 - eps above 1, so the second
        # descent still crosses slope 1, at D
        p = build_profile(CoreParams(*triple))
        assert p.shape.eps == 0.5 * (p.core.R0 - 1.0)
        assert verify_profile(p).passed
        assert float(p.dh(p.shape.D)) == pytest.approx(1.0, abs=1e-12)


class TestSlopeTable:
    """The compiled table against the per-kind formulas it replaced."""

    def test_net_builds(self, built):
        # the base triple and 55 net points build; none may stop building
        assert len(built) >= 56

    def test_matches_reference(self, built):
        for p in built:
            r = np.concatenate([p.grid(2000), np.exp(p.boundaries)])
            for got, want in zip((p.h(r), p.dh(r), p.d2h(r)),
                                 reference_eval(p, r)):
                err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
                assert float(err.max()) <= 1e-13, p.core

    def test_h_at_zero_is_h0(self, built):
        for p in built:
            assert p.h(0.0) == p.shape.h0
            assert np.all(p.h(np.array([0.0, 0.5 * p.shape.delta_bar]))
                          == p.shape.h0)

    def test_log_piece_slope_bitwise(self, built):
        for p in built:
            logp = p.pieces[2]
            r = np.exp(np.linspace(logp.t0, logp.t1, 1001)[:-1])
            A, c = p.core.A, p.core.c
            assert np.array_equal(p.dh(r), 1.0 + c * (np.log(r) - math.log(A)))
            assert np.all(p.rd2h(r) == c)

    def test_rd2h_is_r_times_d2h(self, built):
        for p in built:
            r = p.grid(2000)
            assert np.allclose(p.rd2h(r), r * p.d2h(r), rtol=1e-13,
                               atol=1e-15)
            resc = rescaled(p)
            rs = resc.grid(500)
            assert np.allclose(resc.rd2h(rs), rs * resc.d2h(rs), rtol=1e-13,
                               atol=1e-15)


class TestTuning:
    """default_shape's closed-form plateau tuning against the linear scan."""

    @staticmethod
    def outcome(shape_fn, core):
        try:
            return shape_fn(core)
        except BuildError as exc:
            return str(exc)

    def test_matches_linear_scan(self):
        outcomes = [(self.outcome(default_shape, core),
                     self.outcome(reference_default_shape, core))
                     for core in _admissible_triples()]
        for got, want in outcomes:
            assert got == want
        # the net exercises both the successes and every failure message
        messages = {o for o, _ in outcomes if isinstance(o, str)}
        assert sum(isinstance(o, ShapeParams) for o, _ in outcomes) >= 56
        assert {"could not tune dl1 clear of the forbidden set",
                "could not tune dl3 clear of the forbidden set"} <= messages

    def test_base_build_assembles_at_most_five_times(self, monkeypatch):
        calls = []

        def counting(core, shape):
            calls.append(shape)
            return _assemble(core, shape)

        monkeypatch.setattr(radial_profile, "_assemble", counting)
        build_profile(BASE)
        assert 0 < len(calls) <= 5


class TestScalarPath:
    """A scalar r takes the Python-float path; it must agree bit for bit
    with the array path."""

    def test_bitwise_equal_to_array_path(self, built):
        for base in built:
            for p in (base, rescaled(base)):
                r = np.concatenate([p.grid(2000),
                                    np.exp(p.boundaries) * p.scale])
                for name in ("dh", "d2h", "rd2h"):
                    f = getattr(p, name)
                    scalar = np.array([f(float(x)) for x in r])
                    assert np.array_equal(scalar.view(np.int64),
                                          f(r).view(np.int64)), (p.core, name)

    def test_homotopy_dr_scalar_equals_array(self, profile):
        H = MonotoneHomotopy(profile)
        s = np.linspace(-1.5, 0.5, 401)
        r = np.geomspace(0.05, 3.0, 401)
        scalar = np.array([H.dr(float(a), float(b)) for a, b in zip(s, r)])
        assert np.array_equal(scalar, H.dr(s, r))
        assert np.array_equal([H.beta(float(a)) for a in s], H.beta(s))

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_nonpositive_r_raises_like_array(self, profile, r):
        for name in ("dh", "d2h", "rd2h"):
            f = getattr(profile, name)
            with pytest.raises(ValueError, match="requires r > 0") as scalar:
                f(r)
            with pytest.raises(ValueError) as array:
                f(np.array([r]))
            assert str(scalar.value) == str(array.value)

    def test_nan_gives_nan(self, profile):
        for name in ("dh", "d2h", "rd2h"):
            assert math.isnan(getattr(profile, name)(math.nan))
        H = MonotoneHomotopy(profile)
        assert math.isnan(H.dr(math.nan, 0.5))
        assert math.isnan(H.dr(-0.5, math.nan))


class TestRescaled:
    def test_is_composition_with_shift(self, profile):
        resc = rescaled(profile)
        r = np.geomspace(0.2, 2.0, 100)
        assert np.allclose(resc.h(r), profile.h(r / BASE.R0), atol=1e-13)
        assert np.allclose(resc.dh(r), profile.dh(r / BASE.R0) / BASE.R0,
                           atol=1e-13)

    def test_rescaled_action_endpoint(self, profile):
        resc = rescaled(profile)
        target = BASE.A + BASE.window_width
        assert action_at(resc, BASE.R0 * BASE.B) == pytest.approx(target,
                                                                  abs=1e-10)


class TestPeriodicLevels:
    def test_four_classes(self, profile):
        levels = periodic_levels(profile)
        assert [l.cls for l in levels] == [1, 2, 3, 4]

    def test_slope_one_levels(self, profile):
        levels = periodic_levels(profile)
        assert levels[1].r_lo == pytest.approx(BASE.A, abs=1e-12)
        assert levels[1].action == pytest.approx(BASE.A, abs=1e-10)
        assert levels[2].r_lo == pytest.approx(profile.shape.D, abs=1e-12)

    def test_window_membership(self, profile):
        # the class-2 level at r = A generates the half-open action window:
        # its action A is the included left endpoint; classes 1, 3, 4 stay out
        levels = periodic_levels(profile)
        assert levels[1].forbidden
        for lev in (levels[0], levels[2], levels[3]):
            assert not lev.forbidden, lev

    def test_rescaled_levels(self, profile):
        levels = periodic_levels(rescaled(profile))
        assert levels[1].r_lo == pytest.approx(BASE.R0 * BASE.B, abs=1e-12)
        assert levels[1].action == pytest.approx(
            BASE.A + BASE.window_width, abs=1e-10)
        # the excluded right endpoint of the window and the remaining classes
        for lev in levels:
            assert not lev.forbidden, lev


class TestHomotopy:
    def test_endpoints(self, profile):
        H = MonotoneHomotopy(profile)
        r = np.geomspace(0.2, 2.0, 50)
        assert np.allclose(H.value(-1.0, r), profile.h(r))
        assert np.allclose(H.value(-3.5, r), profile.h(r))
        assert np.allclose(H.value(0.0, r), profile.h(r / BASE.R0))
        assert np.allclose(H.value(2.0, r), profile.h(r / BASE.R0))

    def test_monotone_in_s(self, profile):
        H = MonotoneHomotopy(profile)
        r = np.geomspace(0.2, 2.0, 30)
        svals = np.linspace(-1.0, 0.0, 11)
        vals = np.array([H.value(s, r) for s in svals])
        assert np.all(np.diff(vals, axis=0) <= 1e-12)

    def test_mixed_derivative_product_form(self, profile):
        H = MonotoneHomotopy(profile)
        s, r = -0.4, 0.8
        expected = H.dbeta(s) * (profile.dh(r)
                                 - profile.dh(r / BASE.R0) / BASE.R0)
        assert float(H.dsdr(s, r)) == pytest.approx(float(expected), abs=1e-14)


class TestSerialization:
    def test_round_trip(self, profile):
        text = profile_to_json(profile)
        clone = profile_from_json(text)
        r = profile.grid(500)
        assert np.array_equal(clone.h(r), profile.h(r))
        assert np.array_equal(clone.dh(r), profile.dh(r))

    def test_format_is_json(self, profile):
        doc = json.loads(profile_to_json(profile))
        assert doc["version"] == 1
