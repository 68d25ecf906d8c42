"""Tests for the admissible radial profile builder and its certification."""

import json
import math

import numpy as np
import pytest

from reebpinch.radial_profile import (
    CoreParams,
    MonotoneHomotopy,
    action_at,
    build_profile,
    forbidden_distance,
    homotopy_eval,
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

    def test_homotopy_eval_domain(self, profile):
        H = MonotoneHomotopy(profile)
        with pytest.raises(ValueError):
            homotopy_eval(H, 0.0, -1.0)


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
