"""Tests for closed-orbit detection, dedupe, and the theorem verifiers."""

import math

import numpy as np
import pytest

from reebpinch import contact_dynamics as cd
from reebpinch import orbit_search as osr


@pytest.fixture(scope="module")
def space():
    return cd.AmbientSpace(2)


@pytest.fixture(scope="module")
def sphere(space):
    return cd.StarshapedSurface(space, np.zeros(4), "sphere", {"R": 1.0})


@pytest.fixture(scope="module")
def ellipsoid(space):
    return cd.StarshapedSurface(space, np.zeros(4), "ellipsoid",
                                {"radii": [1.0, 1.2]})


@pytest.fixture(scope="module")
def sphere_result(sphere):
    cfg = osr.SearchConfig(seeds=8, action_window=(0.9 * math.pi,
                                                   1.1 * math.pi))
    return osr.find_closed_orbits(sphere, cfg)


def reference_loop_distance(P, Q):
    """Point-to-polyline distances through (n, m, d) temporaries."""
    A = Q
    AB = np.roll(Q, -1, axis=0) - A
    denom = np.sum(AB ** 2, axis=-1)
    AP = P[:, None, :] - A[None, :, :]
    t = np.clip(np.einsum("nmd,md->nm", AP, AB) / np.maximum(denom, 1e-300),
                0.0, 1.0)
    proj = A[None, :, :] + t[..., None] * AB[None, :, :]
    return np.linalg.norm(P[:, None, :] - proj, axis=-1).min(axis=1)


def reference_deduplicate(orbits, tol):
    """Representatives and multiplicities, comparing every pair by the
    symmetrized distance first and the period ratio second."""
    reps, mults = [], []
    for orb in sorted(orbits, key=lambda o: (o.period, tuple(o.points[0]))):
        pts = orb.resample(256)
        for i, rep in enumerate(reps):
            Q = rep.resample(256)
            if max(reference_loop_distance(pts, Q).max(),
                   reference_loop_distance(Q, pts).max()) < tol:
                k = orb.period / rep.period
                if 1 <= round(k) <= 8 and abs(k - round(k)) < 1e-3:
                    mults[i].add(round(k))
                    break
        else:
            reps.append(orb)
            mults.append({1})
    return [(rep, tuple(sorted(m))) for rep, m in zip(reps, mults)]


def circle_orbit(radius, plane, period, n=256):
    """Synthetic coordinate-circle orbit for dedupe tests."""
    t = np.linspace(0, 2 * np.pi * round(period / (np.pi * radius ** 2)), n)
    pts = np.zeros((n, 4))
    pts[:, 2 * plane] = radius * np.cos(t)
    pts[:, 2 * plane + 1] = radius * np.sin(t)
    return cd.ReebOrbit(pts, period, period, 1e-12)


class TestFindClosedOrbits:
    def test_sphere_every_seed_converges(self, sphere_result):
        assert sphere_result.stats.converged == sphere_result.stats.seeds
        for orb in sphere_result:
            assert abs(orb.period - math.pi) < 1e-8
            assert abs(orb.action - orb.period) < 1e-9
            assert orb.closure_residual < 1e-9

    def test_window_filter_excludes(self, space):
        fat = cd.StarshapedSurface(space, np.zeros(4), "ellipsoid",
                                   {"radii": [1.0, 1.5]})
        cfg = osr.SearchConfig(seeds=16, action_window=(0.99 * math.pi,
                                                        1.45 * math.pi))
        res = osr.find_closed_orbits(fat, cfg)
        for orb in res:
            assert orb.period < 1.46 * math.pi  # the 2.25 pi orbit is out

    def test_empty_result_keeps_stats(self, space):
        # no closed orbits in a window far below the shortest period
        fat = cd.StarshapedSurface(space, np.zeros(4), "ellipsoid",
                                   {"radii": [1.0, 1.4]})
        cfg = osr.SearchConfig(seeds=4, action_window=(0.3, 0.5))
        res = osr.find_closed_orbits(fat, cfg)
        assert len(res) == 0
        assert res.stats.seeds == 4


class TestDeduplicate:
    def test_iterate_detection(self):
        simple = circle_orbit(1.0, 0, math.pi)
        double = circle_orbit(1.0, 0, 2 * math.pi)
        reps = osr.deduplicate([simple, double], tol=1e-3)
        assert len(reps) == 1
        assert reps[0].period == pytest.approx(math.pi)
        assert reps[0].iterate_multiplicities == (1, 2)

    def test_disjoint_kept(self):
        a = circle_orbit(1.0, 0, math.pi)
        b = circle_orbit(1.2, 1, 1.44 * math.pi)
        reps = osr.deduplicate([a, b], tol=1e-3)
        assert len(reps) == 2
        assert [r.action for r in reps] == sorted(r.action for r in reps)
        assert all(r.iterate_multiplicities == (1,) for r in reps)

    def test_loop_distance_matches_reference(self, sphere_result):
        rng = np.random.default_rng(11)
        pairs = [(rng.normal(size=(256, 4)), rng.normal(size=(200, 4)))]
        loops = [o.points for o in sphere_result.orbits[:3]]
        pairs += [(P, Q) for P in loops for Q in loops]
        for P, Q in pairs:
            assert np.max(np.abs(osr._loop_distance(P, Q)
                                 - reference_loop_distance(P, Q))) < 1e-7

    def test_same_representatives_as_reference(self, sphere_result):
        cases = [
            # same loop, but a period ratio of 1.5 is no iterate
            [circle_orbit(1.0, 0, math.pi), circle_orbit(1.0, 0, 2 * math.pi),
             circle_orbit(1.0, 0, 1.5 * math.pi)],
            [circle_orbit(1.0, 0, math.pi),
             circle_orbit(1.2, 1, 1.44 * math.pi),
             circle_orbit(1.2, 1, 2.88 * math.pi),
             circle_orbit(1.0, 0, 3 * math.pi)],
            list(sphere_result.orbits),
        ]
        for orbits in cases:
            expected = [(rep.points, mults) for rep, mults
                        in reference_deduplicate(orbits, 1e-3)]
            got = osr.deduplicate(orbits, tol=1e-3)
            assert len(got) == len(expected)
            for rep in got:
                assert any(rep.points is pts
                           and rep.iterate_multiplicities == mults
                           for pts, mults in expected)

    def test_sphere_family_not_merged(self, sphere_result):
        # distinct great circles share the action but not the point set
        reps = osr.deduplicate(sphere_result.orbits, tol=1e-3)
        assert len(reps) > 1


class TestVerifyPinching:
    def test_sphere_degenerate_family(self, sphere):
        rep = osr.verify_pinching_theorem(sphere, seeds=8)
        assert rep.passed is True
        assert rep.degenerate_levels == [pytest.approx(math.pi, abs=1e-6)]
        assert rep.distinct_count == 1

    def test_not_applicable(self, space):
        fat = cd.StarshapedSurface(space, np.zeros(4), "ellipsoid",
                                   {"radii": [1.0, 1.5]})
        rep = osr.verify_pinching_theorem(fat, seeds=4)
        assert rep.passed is None
        assert rep.orbits == []

    @pytest.mark.parametrize("rng_seed", [1700249776, 1017777274, 657705806])
    def test_every_coarse_minimum_refined(self, rng_seed):
        # refining only each seed's best trial period misses the 1.69 pi
        # circle with these 12 seeds
        surface = cd.StarshapedSurface(cd.AmbientSpace(3), np.zeros(6),
                                       "ellipsoid", {"radii": [1.0, 1.1, 1.3]})
        rep = osr.verify_pinching_theorem(surface, seeds=12, rng_seed=rng_seed)
        assert rep.distinct_count == 3
        assert [o.action for o in rep.orbits] == pytest.approx(
            [math.pi, 1.21 * math.pi, 1.69 * math.pi], rel=1e-6)

    def test_ellipsoid_small_budget(self, ellipsoid):
        rep = osr.verify_pinching_theorem(ellipsoid, seeds=24)
        assert rep.passed is True
        assert rep.distinct_count == 2
        actions = [o.action for o in rep.orbits]
        assert actions[0] == pytest.approx(math.pi, rel=1e-6)
        assert actions[1] == pytest.approx(1.44 * math.pi, rel=1e-6)
        assert rep.endpoint_notes  # both orbits sit on the window endpoints


class TestPeriodBound:
    def test_sphere_equality(self, sphere, sphere_result):
        rep = osr.verify_period_bound(sphere, sphere_result.orbits, 1.0)
        assert rep.margin == 0.0
        assert not rep.asserted       # the hypothesis needs strict inequality
        assert rep.chain_ok
        for e in rep.entries:
            assert abs(e.period - math.pi) < 1e-9

    def test_ellipsoid_bound(self, ellipsoid):
        cfg = osr.SearchConfig(seeds=6, action_window=(0.99 * math.pi,
                                                       1.45 * math.pi))
        res = osr.find_closed_orbits(ellipsoid, cfg)
        rep = osr.verify_period_bound(ellipsoid, res.orbits, 1.0)
        assert rep.asserted
        assert rep.passed
        for e in rep.entries:
            assert e.period >= math.pi - 1e-8

    def test_chain_links_ordered(self, sphere, sphere_result):
        rep = osr.verify_period_bound(sphere, sphere_result.orbits, 1.0)
        for e in rep.entries:
            assert len(e.chain) == 3
            for link in e.chain:
                assert link.slack >= 0.0


class TestEllipsoidOracle:
    def test_enumeration(self):
        entries, _ = osr.ellipsoid_oracle([1.0, 1.2], 5.0 * math.pi)
        acts = [round(e.action / math.pi, 4) for e in entries]
        assert acts == [1.0, 1.44, 2.0, 2.88, 3.0, 4.0, 4.32, 5.0]

    def test_round_values(self):
        entries, _ = osr.ellipsoid_oracle([2.0, 2.0], 4.5 * math.pi)
        simple = [e for e in entries if e.iterate == 1]
        assert all(e.action == pytest.approx(4 * math.pi) for e in simple)

    def test_resonance_flag(self):
        _, reson = osr.ellipsoid_oracle([1.0, math.sqrt(2.0)], 2.5 * math.pi)
        assert reson == [pytest.approx(2 * math.pi)]

    def test_generators_on_surface(self):
        entries, _ = osr.ellipsoid_oracle([1.0, 1.2], 2 * math.pi)
        for e in entries:
            x = np.asarray(e.generator)
            assert x[2 * (e.axis - 1)] == pytest.approx(
                [1.0, 1.2][e.axis - 1])

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            osr.ellipsoid_oracle([1.0, -1.0], 2.0)
