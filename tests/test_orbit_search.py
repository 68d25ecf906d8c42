"""Tests for closed-orbit detection, dedupe, and the theorem verifiers."""

import functools
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
        pts = orb.points
        for i, rep in enumerate(reps):
            Q = rep.points
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


def single_shooting_stage(surface, y, T, cfg, tol, fd, iters, target, sample):
    """The single-shooting LM stage on (x, T) for phi_T(x) = x that served
    as both the wide and the polish stage before the multiple-shooting
    polish: each point's residual request and FD block in one round, and
    with ``sample`` the residual request carries linspace(0, T, 256).
    Returns (y, T, best, samples or None)."""
    dim = surface.space.dim
    lo, hi = cfg.action_window
    T_lo, T_hi = 0.25 * lo, hi + 0.5 * (hi - lo) + 1.0
    eye = np.eye(dim)

    def at(y, T):
        fd_states = [surface.project(y + fd * e) for e in eye]
        times = np.linspace(0.0, T, 256) if sample else None
        return fd_states, [(y, T, tol, times),
                           (np.vstack([y] + fd_states), T, tol, None)]

    def residual(result):
        return result if sample else (result, None)

    fd_states, requests = at(y, T)
    first, out = yield requests
    phi, samples = residual(first)
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
            first, out_try = yield requests
            phi_try, samples_try = residual(first)
            F_try = phi_try - y_try
            if np.linalg.norm(F_try) < best:
                y, T, fd_states, out = y_try, T_try, fd_try, out_try
                samples = samples_try
                best = float(np.linalg.norm(F_try))
                lam = max(lam / 3.0, 1e-12)
                improved = True
                break
            lam *= 5.0
        if not improved:
            break
    return y, T, best, samples


def single_shooting_candidate(surface, x0, T0, cfg,
                              stage=single_shooting_stage):
    """A candidate whose polish is ``stage`` at 1e-12 over the whole
    period, from a fresh damping of 1e-3."""
    y, T, best, _ = yield from stage(
        surface, x0.copy(), T0, cfg, tol=1e-8, fd=1e-5, iters=48,
        target=1e-6, sample=False)
    if best >= max(1e-3, cfg.closure_tol):
        return False, None
    y, T, best, samples = yield from stage(
        surface, y, T, cfg, tol=1e-12, fd=1e-7, iters=16,
        target=max(1e-12, 1e-3 * cfg.closure_tol), sample=True)
    if best >= cfg.closure_tol:
        return False, None
    lo, hi = cfg.action_window
    if not lo - 1e-8 <= T <= hi + 1e-8:
        return True, None
    pts = surface.project(samples)
    action = float(np.trapezoid(surface.space.alpha(pts, surface.reeb(pts)),
                                np.linspace(0.0, T, 256)))
    return True, cd.ReebOrbit(points=pts, period=float(T), action=action,
                              closure_residual=float(best), multiplicity=1)


def reference_candidate(surface, x0, T0, cfg):
    """A whole candidate of the search that polished every wide-converged
    candidate on its own: the wide stage, then the polish from its point,
    segment starts and damping.  Returns (converged, orbit or None)."""
    wide = yield from osr._lm_stage(surface, x0.copy(), T0, cfg, tol=1e-8,
                                    fd=1e-5, iters=48, target=1e-6)
    if wide[2] >= max(1e-3, cfg.closure_tol):
        return False, None
    ok, orbit, _ = yield from osr._polish(surface, [wide], cfg)
    return ok, orbit


def reference_scan(surface, cfg):
    """The coarse scan at 1e-10, tighter than the wide stage's 1e-8:
    returns the seeds, the trial-period grid and the (seed, grid index) of
    every local minimum of a seed's return distance."""
    lo, hi = cfg.action_window
    seeds = surface.point(cd.sphere_directions(surface.space.dim, cfg.seeds,
                                               cfg.rng_seed))
    Ts = np.linspace(lo, hi, 16)
    scans = osr.flow(surface, [(x0, hi, 1e-10, Ts) for x0 in seeds])
    minima = [(k, int(i))
              for k, (x0, (_, pts)) in enumerate(zip(seeds, scans))
              for i in osr._local_minima(np.linalg.norm(pts - x0, axis=-1))]
    return seeds, Ts, minima


def reference_find_closed_orbits(surface, cfg, candidate=reference_candidate):
    """The search before the cluster step: every coarse-scan minimum
    (``reference_scan``) runs ``candidate`` to the end in one lockstep, so
    each wide-converged candidate is polished and returns its own orbit;
    ``converged`` counts the seeds with a converged candidate, ``accepted``
    every orbit."""
    seeds, Ts, minima = reference_scan(surface, cfg)
    owners = [k for k, _ in minima]
    results, rounds, sent = osr._lockstep(surface, [
        candidate(surface, seeds[k], float(Ts[i]), cfg) for k, i in minima])
    orbits = sorted((orbit for _, orbit in results if orbit is not None),
                    key=lambda o: (o.action, tuple(o.points[0])))
    return osr.SearchResult(orbits, osr.SearchStats(
        seeds=cfg.seeds, accepted=len(orbits),
        converged=len({k for k, (ok, _) in zip(owners, results) if ok}),
        flow_rounds=1 + rounds, flow_requests=len(seeds) + sent))


def reference_lm_stage(surface, y, T, cfg, tol, fd, iters, target):
    """The wide stage whose every residual request carries the sample
    times, T k/m for k = 1, ..., m - 1, then linspace(0, T, 256); returns
    (y, T, best, lam, starts, samples) with the samples of every stage."""
    dim = surface.space.dim
    lo, hi = cfg.action_window
    T_lo, T_hi = 0.25 * lo, hi + 0.5 * (hi - lo) + 1.0
    eye = np.eye(dim)
    m = osr._SEGMENTS

    def at(y, T):
        fd_states = [surface.project(y + fd * e) for e in eye]
        times = np.r_[T * np.arange(1, m) / m, np.linspace(0.0, T, 256)]
        return fd_states, [(y, T, tol, times),
                           (np.vstack([y] + fd_states), T, tol, None)]

    fd_states, requests = at(y, T)
    (phi, pts), out = yield requests
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
            (phi_try, pts_try), out_try = yield requests
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
    return y, T, best, lam, pts[:m - 1], pts[m - 1:]


def reference_same_loop(P, Q, tol):
    """The loop match without the windowed accept: the every-8th-point
    reject, then both full one-sided distances."""
    return (float(osr._loop_distance(P[::8], Q).max()) < tol
            and float(osr._loop_distance(P, Q).max()) < tol
            and float(osr._loop_distance(Q, P).max()) < tol)


def run_alone(surface, stage):
    """Run a stage generator to completion, one ``flow`` call per yield;
    returns its result and the list of request lists it yielded."""
    sent = [next(stage)]
    while True:
        try:
            sent.append(stage.send(osr.flow(surface, sent[-1])))
        except StopIteration as stop:
            return stop.value, sent


def one_at_a_time(surface, candidates):
    """Every candidate runs to completion alone before the next starts."""
    results, rounds, sent = [], 0, 0
    for candidate in candidates:
        result, requests = run_alone(surface, candidate)
        results.append(result)
        rounds += len(requests)
        sent += sum(map(len, requests))
    return results, rounds, sent


def reference_lockstep(surface, candidates):
    """Every live candidate advances in every round, whatever the
    tolerance of its requests."""
    results = [None] * len(candidates)
    pending = {}
    rounds = sent = 0

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
        requests = [r for i in ids for r in pending[i]]
        out = osr.flow(surface, requests)
        rounds, sent = rounds + 1, sent + len(requests)
        start = 0
        for i in ids:
            n = len(pending[i])
            advance(i, out[start:start + n])
            start += n
    return results, rounds, sent


def corpus_surface(index):
    """Surface ``index`` of the acceptance corpus of radial_series
    perturbations of the unit sphere (criterion 6), drawn the same way."""
    rng = np.random.default_rng(20260823)
    for _ in range(index + 1):
        terms = []
        for _ in range(int(rng.integers(2, 5))):
            k = int(rng.integers(2, 4))
            idx = tuple(int(i) for i in rng.integers(0, 4, size=k))
            terms.append(cd.SeriesTerm(idx, float(rng.uniform(-0.02, 0.02))))
    return cd.StarshapedSurface(cd.AmbientSpace(2), np.zeros(4),
                                "radial_series", {"R": 1.0, "terms": terms})


def search_case(name):
    """(surface, SearchConfig) of a search compared bit for bit: the
    pinching windows of two ellipsoids and of the unit sphere at 8 seeds,
    corpus k at 4 seeds, and at 2 seeds corpus 2, on which no seed
    converges and whose LM stages reject trials; "pinch-k" is corpus k's
    search in ``verify_pinching_theorem`` at 16 seeds."""
    if name.startswith("pinch-"):
        surface = corpus_surface(int(name[len("pinch-"):]))
        R1, R2, _ = cd.pinch_radii(surface)
        return surface, osr.SearchConfig(
            seeds=16, action_window=(math.pi * R1 ** 2, math.pi * R2 ** 2))
    if name.startswith("corpus-"):
        index = int(name[len("corpus-"):])
        surface = corpus_surface(index)
        R1, R2, _ = cd.pinch_radii(surface)
        return surface, osr.SearchConfig(
            seeds=2 if index == 2 else 4,
            action_window=(0.9 * math.pi * R1 ** 2, 1.1 * math.pi * R2 ** 2))
    if name == "sphere":
        surface = cd.StarshapedSurface(cd.AmbientSpace(2), np.zeros(4),
                                       "sphere", {"R": 1.0})
        return surface, osr.SearchConfig(
            seeds=8, action_window=(0.999 * math.pi, 1.001 * math.pi))
    radii = {"E(1,1.2)": [1.0, 1.2], "E(1,1.1,1.3)": [1.0, 1.1, 1.3]}[name]
    space = cd.AmbientSpace(len(radii))
    surface = cd.StarshapedSurface(space, np.zeros(space.dim), "ellipsoid",
                                   {"radii": radii})
    return surface, osr.SearchConfig(
        seeds=8, action_window=(math.pi * radii[0] ** 2,
                                math.pi * radii[-1] ** 2))


# the searches whose candidates, wide stages and loop pairs are compared
# with the references
COMPARED = ["E(1,1.2)", "E(1,1.1,1.3)", "sphere", "corpus-2", "pinch-0",
            "pinch-2", "pinch-14", "pinch-18"]


def orbit_bits(result):
    return [(o.points.tobytes(), np.array([o.period, o.action,
                                           o.closure_residual]).tobytes(),
             o.multiplicity) for o in result.orbits]


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

    @pytest.mark.parametrize("window, rule", [
        ((0.0, 3.5), "lo > 0"), ((-1.0, 3.5), "lo > 0"),
        ((3.5, 2.8), "lo < hi"), ((-3.5, -2.8), "lo > 0")])
    def test_window_must_be_positive_and_ordered(self, window, rule):
        with pytest.raises(ValueError, match=rule):
            osr.SearchConfig(seeds=2, action_window=window)

    def test_empty_result_keeps_stats(self, space):
        # no closed orbits in a window far below the shortest period
        fat = cd.StarshapedSurface(space, np.zeros(4), "ellipsoid",
                                   {"radii": [1.0, 1.4]})
        cfg = osr.SearchConfig(seeds=4, action_window=(0.3, 0.5))
        res = osr.find_closed_orbits(fat, cfg)
        assert len(res) == 0
        assert res.stats.seeds == 4

    def test_failed_clusters_counted(self):
        # the series-period-bound op on corpus 2 (2 seeds): the polish of
        # both of its clusters fails, so no seed converges
        surface, cfg = search_case("corpus-2")
        res = osr.find_closed_orbits(surface, cfg)
        assert (res.stats.clusters, res.stats.failed_clusters) == (2, 2)
        assert res.stats.converged == 0 and not res.orbits

    @pytest.mark.parametrize("field, value, rule", [
        ("seeds", 0, "seeds must be an integer >= 1, got 0"),
        ("seeds", -3, "seeds must be an integer >= 1, got -3"),
        ("seeds", 2.5, "seeds must be an integer >= 1, got 2.5"),
        ("seeds", True, "seeds must be an integer >= 1, got True"),
        ("rng_seed", -1, "rng_seed must be an integer >= 0, got -1"),
        ("rng_seed", 1.5, "rng_seed must be an integer >= 0, got 1.5")])
    def test_seed_counts_validated(self, field, value, rule):
        with pytest.raises(ValueError, match=rule):
            osr.SearchConfig(**{field: value})

    @pytest.mark.parametrize("seeds, rng_seed", [(-3, 1), (2, -1)])
    def test_pinching_validates_before_not_applicable(self, space, seeds,
                                                      rng_seed):
        fat = cd.StarshapedSurface(space, np.zeros(4), "ellipsoid",
                                   {"radii": [1.0, 1.5]})
        with pytest.raises(ValueError, match="must be an integer"):
            osr.verify_pinching_theorem(fat, seeds=seeds, rng_seed=rng_seed)


class TestSpeculativeRounds:
    """Each LM trial point travels with its FD blocks in one flow round."""

    @pytest.mark.parametrize("name", ["E(1,1.2)", "E(1,1.1,1.3)", "sphere",
                                      "corpus-2"])
    def test_bitwise_equal_to_sequential_reference(self, monkeypatch, name):
        surface, cfg = search_case(name)
        fast = osr.find_closed_orbits(surface, cfg)
        # one candidate at a time, each to completion alone
        monkeypatch.setattr(osr, "_lockstep", one_at_a_time)
        slow = osr.find_closed_orbits(surface, cfg)
        assert fast.stats == slow.stats
        # both passes: the same clusters, polished by the same members
        assert (fast.stats.clusters, fast.stats.polish_runs) == (
            slow.stats.clusters, slow.stats.polish_runs)
        assert orbit_bits(fast) == orbit_bits(slow)

    @pytest.mark.parametrize("name", ["E(1,1.2)", "E(1,1.1,1.3)", "sphere",
                                      "corpus-2"])
    def test_bitwise_equal_to_every_candidate_rounds(self, monkeypatch, name):
        surface, cfg = search_case(name)
        fast = osr.find_closed_orbits(surface, cfg)
        monkeypatch.setattr(osr, "_lockstep", reference_lockstep)
        slow = osr.find_closed_orbits(surface, cfg)
        assert fast.stats == slow.stats
        assert fast.stats.flow_requests == slow.stats.flow_requests
        # within each pass every request has one tolerance, so loosest
        # first is every candidate in every round
        assert fast.stats.flow_rounds == slow.stats.flow_rounds
        assert (fast.stats.clusters, fast.stats.polish_runs) == (
            slow.stats.clusters, slow.stats.polish_runs)
        assert orbit_bits(fast) == orbit_bits(slow)

    @pytest.mark.parametrize("name", ["E(1,1.2)", "E(1,1.1,1.3)", "sphere",
                                      "corpus-2"])
    def test_wide_stage_equal_to_single_shooting(self, monkeypatch, name):
        # the polish starts from the point the single-shooting wide stage
        # reaches, bit for bit: the segment start times leave it unchanged
        surface, cfg = search_case(name)
        wide = {}

        def recorded(stage, tag):
            def run(surface, y, T, cfg, **kwargs):
                key = (y.tobytes(), T)
                result = yield from stage(surface, y, T, cfg, **kwargs)
                if kwargs["tol"] == 1e-8:
                    wide.setdefault(key, {})[tag] = (
                        result[0].tobytes(), result[1], result[2])
                return result
            return run

        monkeypatch.setattr(osr, "_lm_stage", recorded(osr._lm_stage, "new"))
        osr.find_closed_orbits(surface, cfg)
        reference_find_closed_orbits(surface, cfg, functools.partial(
            single_shooting_candidate,
            stage=recorded(single_shooting_stage, "old")))
        assert wide
        for both in wide.values():
            assert both["new"] == both["old"]

    @pytest.mark.parametrize("name", ["E(1,1.2)", "E(1,1.1,1.3)", "sphere",
                                      "corpus-0"])
    def test_same_orbits_as_single_shooting(self, name):
        # every orbit the clustered multiple-shooting search returns is one
        # that polishing every candidate by single shooting also returns
        surface, cfg = search_case(name)
        new = osr.find_closed_orbits(surface, cfg)
        old = reference_find_closed_orbits(surface, cfg,
                                           single_shooting_candidate)
        assert new.stats.converged == old.stats.converged
        assert 0 < len(new.orbits) <= len(old.orbits)
        unmatched = list(old.orbits)
        for orb in new.orbits:
            twin = next(o for o in unmatched
                        if abs(o.action - orb.action) < 1e-9
                        and osr._same_loop(o.points, orb.points,
                                           cfg.dedupe_tol))
            unmatched = [o for o in unmatched if o is not twin]
            assert orb.points.shape == twin.points.shape
            assert orb.closure_residual < cfg.closure_tol
        assert (len(osr.deduplicate(new.orbits, cfg.dedupe_tol))
                == len(osr.deduplicate(old.orbits, cfg.dedupe_tol)))

    @pytest.mark.parametrize("name", [
        "E(1,1.2)", "E(1,1.1,1.3)", "sphere", "corpus-0", "corpus-2",
        "corpus-14", "corpus-18"])
    def test_same_outcome_as_polishing_every_candidate(self, monkeypatch,
                                                       name):
        surface, _ = search_case(name)
        new = osr.verify_pinching_theorem(surface, seeds=16)
        monkeypatch.setattr(osr, "find_closed_orbits",
                            reference_find_closed_orbits)
        old = osr.verify_pinching_theorem(surface, seeds=16)
        assert new.distinct_count == old.distinct_count
        assert new.degenerate_levels == old.degenerate_levels
        assert new.passed == old.passed
        assert new.stats.converged == old.stats.converged
        assert new.stats.accepted <= old.stats.accepted
        assert [o.action for o in new.orbits] == pytest.approx(
            [o.action for o in old.orbits], rel=0, abs=1e-9)

    def test_fallback_member_in_same_pass(self, ellipsoid):
        # a member whose polish fails, ahead of one that converges: the
        # cluster returns the second member's orbit, and the second
        # polish starts in the round right after the first one ends
        cfg = osr.SearchConfig(seeds=1, action_window=(math.pi,
                                                       1.44 * math.pi))
        good, _ = run_alone(ellipsoid, osr._lm_stage(
            ellipsoid, ellipsoid.project(np.array([1.0, 0.01, 0.02, 0.0])),
            1.01 * math.pi, cfg, tol=1e-8, fd=1e-5, iters=48, target=1e-6))
        # the same wide result with a damping so large that 16 polish
        # iterations barely move it
        bad = good[:3] + (1e12,) + good[4:]
        alone = [osr._lockstep(ellipsoid, [osr._polish(ellipsoid, [m], cfg)])
                 for m in (bad, good)]
        assert alone[0][0] == [(False, None, 1)]
        (ok, orbit, runs), = alone[1][0]
        assert ok and orbit is not None and runs == 1
        [(ok, both, runs)], rounds, sent = osr._lockstep(
            ellipsoid, [osr._polish(ellipsoid, [bad, good], cfg)])
        assert ok and runs == 2
        assert both.points.tobytes() == orbit.points.tobytes()
        assert (both.period, both.action) == (orbit.period, orbit.action)
        assert rounds == alone[0][1] + alone[1][1]
        assert sent == alone[0][2] + alone[1][2]

    def test_loosest_tolerance_first(self, monkeypatch, ellipsoid):
        tols = []
        flow = osr.flow

        def recorded(surface, requests):
            tols.append({r[2] for r in requests})
            return flow(surface, requests)

        monkeypatch.setattr(osr, "flow", recorded)
        cfg = osr.SearchConfig(seeds=4, action_window=(math.pi,
                                                       1.44 * math.pi))
        osr.find_closed_orbits(ellipsoid, cfg)
        rounds = tols[1:]                 # after the coarse scan
        assert all(len(t) == 1 for t in rounds)
        order = [t.pop() for t in rounds]
        assert order == sorted(order, reverse=True)
        assert order[0] > order[-1]       # both stages ran

    def test_flow_rounds(self, monkeypatch, ellipsoid):
        calls = []
        flow = osr.flow

        def counted(surface, requests):
            calls.append(len(requests))
            return flow(surface, requests)

        monkeypatch.setattr(osr, "flow", counted)
        cfg = osr.SearchConfig(seeds=4, action_window=(math.pi,
                                                       1.44 * math.pi))
        res = osr.find_closed_orbits(ellipsoid, cfg)
        assert res.stats.converged == 4
        # one coarse scan and one round per LM iteration and stage start;
        # the wide residual request of a trial predicted to close carries
        # the segment start times and the loop samples the cluster step
        # compares, and the polish residual requests the orbit samples.
        # The two-round LM stage took 18 flow calls here, and a sampling
        # round of its own after the polish made 11; the single-shooting
        # polish took 10 rounds and 68 requests, and polishing every
        # candidate 10 rounds and 132 requests: the barrier between the
        # wide and the polish pass costs no round
        assert len(calls) == 10
        assert (res.stats.clusters, res.stats.polish_runs,
                res.stats.failed_clusters) == (2, 2, 0)
        assert (res.stats.flow_rounds, res.stats.flow_requests) == (
            len(calls), sum(calls))

    def test_polish_samples_equal_lone_flow(self, ellipsoid):
        # a point near the e1 circle, so both stages take a few rounds
        y0 = ellipsoid.project(np.array([1.0, 0.01, 0.02, 0.0]))
        cfg = osr.SearchConfig(seeds=1, action_window=(math.pi,
                                                       1.44 * math.pi))
        (y, T, _, lam, starts, _), _ = run_alone(ellipsoid, osr._lm_stage(
            ellipsoid, y0, 1.01 * math.pi, cfg, tol=1e-8, fd=1e-5, iters=48,
            target=1e-6))
        m = osr._SEGMENTS
        assert starts.shape == (m - 1, 4)
        X0 = np.vstack([y, ellipsoid.project(starts)])
        (X, T, best, samples), sent = run_alone(ellipsoid, osr._shooting_stage(
            ellipsoid, X0, T, lam, cfg, tol=1e-12, fd=1e-7, iters=16,
            target=1e-12))
        # every round is m residual requests, then m FD blocks; no request
        # is sent only for samples
        assert len(sent) > 2 and best < 1e-9
        for requests in sent:
            assert len(requests) == 2 * m
            assert all(r[3] is not None for r in requests[:m])
            assert all(r[3] is None for r in requests[m:])
        assert samples.shape == (256, 4)
        times = np.linspace(0.0, T, 256)
        segment = np.minimum(np.arange(256) * m // 255, m - 1)
        ends = []
        for i in range(m):
            end, alone = osr.flow(ellipsoid, [(X[i], T / m, 1e-12,
                                               times[segment == i]
                                               - i * (T / m))])[0]
            assert samples[segment == i].tobytes() == alone.tobytes()
            ends.append(end - X[(i + 1) % m])
        assert best == float(np.linalg.norm(np.ravel(ends)))

    @pytest.mark.parametrize("name", COMPARED)
    def test_scan_minima_equal_to_reference(self, name):
        # the scan at the wide tolerance finds the grid minima of the scan
        # at 1e-10, so every candidate starts where it did
        surface, cfg = search_case(name)
        seeds, Ts, minima = osr._scan(surface, cfg)
        ref_seeds, ref_Ts, ref_minima = reference_scan(surface, cfg)
        assert seeds.tobytes() == ref_seeds.tobytes()
        assert Ts.tobytes() == ref_Ts.tobytes()
        assert minima == ref_minima

    @pytest.mark.parametrize("predict", [None, False],
                             ids=["model", "mispredicted"])
    @pytest.mark.parametrize("name", ["E(1,1.2)", "E(1,1.1,1.3)", "sphere",
                                      "corpus-2"])
    def test_wide_stage_equal_to_always_sampling(self, monkeypatch, name,
                                                 predict):
        # with the linear model, or with every trial predicted to miss so
        # that each wide-converged stage asks for its samples in a
        # catch-up request, the stage returns the always-sampling bits
        if predict is not None:
            monkeypatch.setattr(osr, "_predicts_close", lambda *_: predict)
        surface, cfg = search_case(name)
        seeds, Ts, minima = osr._scan(surface, cfg)
        kwargs = dict(tol=1e-8, fd=1e-5, iters=48, target=1e-6)
        catch_ups = sampled = rounds = 0
        for k, i in minima:
            new, sent = run_alone(surface, osr._lm_stage(
                surface, seeds[k].copy(), float(Ts[i]), cfg, **kwargs))
            old, ref_sent = run_alone(surface, reference_lm_stage(
                surface, seeds[k].copy(), float(Ts[i]), cfg, **kwargs))
            assert new[0].tobytes() == old[0].tobytes()
            assert new[1:4] == old[1:4]
            converged = old[2] < max(1e-3, cfg.closure_tol)
            if converged:
                assert new[4].tobytes() == old[4].tobytes()
                assert new[5].tobytes() == old[5].tobytes()
            else:
                assert new[4:] == (None, None)
            # the stage's start carries no times; a catch-up is one lone
            # residual request after the reference's last round
            assert sent[0][0][3] is None
            catch_up = len(sent) == len(ref_sent) + 1
            assert catch_up or len(sent) == len(ref_sent)
            if catch_up:
                assert converged and len(sent[-1]) == 1
                assert sent[-1][0][3] is not None
            catch_ups += catch_up
            sampled += sum(r[0][3] is not None for r in sent[:len(ref_sent)])
            rounds += len(ref_sent)
        if predict is False:
            assert sampled == 0 and catch_ups > 0
        else:
            # the reference samples on every one of its rounds
            assert sampled + catch_ups < rounds

    def test_reeb_calls(self, monkeypatch, ellipsoid):
        calls, states = [0], [0]
        reeb = cd.StarshapedSurface.reeb

        def counted(surface, x):
            calls[0] += 1
            states[0] += x.size // x.shape[-1]
            return reeb(surface, x)

        monkeypatch.setattr(cd.StarshapedSurface, "reeb", counted)
        cfg = osr.SearchConfig(seeds=4, action_window=(math.pi,
                                                       1.44 * math.pi))
        res = osr.find_closed_orbits(ellipsoid, cfg)
        # 4091 with the interpolant's 3 extra stages evaluated step by
        # step and a separate sampling round; 3294 with every candidate in
        # every round, so that wide-stage iterations rode in polish rounds;
        # 2712 with two one-state Reeb calls per LM iteration; 2688 with
        # the single-shooting polish over the whole period; 1733 with the
        # multiple-shooting polish run on every wide-converged candidate;
        # 1727 (36843 states) with the coarse scan at 1e-10 and the sample
        # times on every wide residual request
        assert calls[0] == 1586
        # the single-shooting polish sent 68 requests and 54780 Reeb states
        # in 10 rounds; a dense twin beside each polish residual request
        # made 80 requests and 60132 states; polishing all 4 candidates
        # rather than one per cluster, 132 requests and 55063 states
        assert res.stats.flow_rounds == 10
        assert res.stats.flow_requests == 84
        assert states[0] == 35706


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

    @pytest.mark.parametrize("name", ["sphere", "corpus-2", "corpus-14"])
    def test_cheap_reject_decides_as_full_test(self, monkeypatch, name):
        # every pair the cluster step and deduplicate compare gets the
        # decision of the two full one-sided distances
        surface, _ = search_case(name)
        pairs = []
        same_loop = osr._same_loop

        def recorded(P, Q, tol):
            pairs.append((P, Q, tol))
            return same_loop(P, Q, tol)

        monkeypatch.setattr(osr, "_same_loop", recorded)
        osr.verify_pinching_theorem(surface, seeds=16)
        decisions = [same_loop(P, Q, tol) for P, Q, tol in pairs]
        assert decisions == [
            max(osr._loop_distance(P, Q).max(),
                osr._loop_distance(Q, P).max()) < tol
            for P, Q, tol in pairs]
        assert False in decisions

    @pytest.mark.parametrize("name", COMPARED)
    def test_windowed_accept_decides_as_reference(self, monkeypatch, name):
        # every pair the cluster step and deduplicate compare gets the
        # decision of the match without the window, and the window accepts
        # each matching pair there, so none falls through to the full test
        surface, cfg = search_case(name)
        pairs = []
        same_loop = osr._same_loop

        def recorded(P, Q, tol):
            pairs.append((P, Q, tol))
            return same_loop(P, Q, tol)

        monkeypatch.setattr(osr, "_same_loop", recorded)
        found = osr.find_closed_orbits(surface, cfg)
        osr.deduplicate(found.orbits, cfg.dedupe_tol)
        expected = [reference_same_loop(P, Q, tol) for P, Q, tol in pairs]
        full = []
        loop_distance = osr._loop_distance

        def counted(P, Q):
            full.append(len(P) == 256)
            return loop_distance(P, Q)

        monkeypatch.setattr(osr, "_loop_distance", counted)
        assert [same_loop(P, Q, tol) for P, Q, tol in pairs] == expected
        assert pairs and sum(full) == 0

    def test_window_miss_falls_through(self, monkeypatch):
        # the double circle's samples run at twice the simple one's pace,
        # so its window misses and the full test decides; a resampling of
        # one circle at a half-step offset is accepted by the window alone
        simple = circle_orbit(1.0, 0, math.pi).points
        double = circle_orbit(1.0, 0, 2 * math.pi).points
        other = circle_orbit(1.2, 1, 1.44 * math.pi).points
        t = 2 * np.pi * (np.arange(256) + 0.5) / 255
        shifted = np.zeros((256, 4))
        shifted[:, 0], shifted[:, 1] = np.cos(t), np.sin(t)
        full = []
        loop_distance = osr._loop_distance

        def counted(P, Q):
            full.append(len(P) == 256)
            return loop_distance(P, Q)

        monkeypatch.setattr(osr, "_loop_distance", counted)
        for P, Q, same, falls in [(double, simple, True, 2),
                                  (simple, double, True, 2),
                                  (shifted, simple, True, 0),
                                  (simple, other, False, 0)]:
            full.clear()
            assert osr._same_loop(P, Q, 1e-3) is same
            assert sum(full) == falls
            assert reference_same_loop(P, Q, 1e-3) is same

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

    def test_near_degenerate_counts_distinct_orbits(self):
        # the orbits of corpus 14 split only at second order, so all their
        # actions lie within dedupe_tol; no closed-form family is there
        surface = corpus_surface(14)
        rep = osr.verify_pinching_theorem(surface, seeds=16)
        lo, hi = rep.window
        found = osr.find_closed_orbits(surface, osr.SearchConfig(
            seeds=16, action_window=(lo, hi)))
        distinct = osr.deduplicate(found.orbits, osr.SearchConfig.dedupe_tol)
        assert rep.distinct_count == len(distinct) == 4
        assert rep.degenerate_levels == []
        assert rep.passed is True

    @pytest.mark.parametrize("radii, level, actions", [
        # the circles of the unit S^3 in C^2 x {0} form a family at pi
        ([1.0, 1.0, 1.3], 3.141592654, [1.0, 1.69]),
        ([1.0, 1.2, 1.2], 4.523893421, [1.0, 1.44])])
    def test_repeated_radius_family(self, radii, level, actions):
        surface = cd.StarshapedSurface(cd.AmbientSpace(3), np.zeros(6),
                                       "ellipsoid", {"radii": radii})
        rep = osr.verify_pinching_theorem(surface, seeds=16)
        assert rep.degenerate_levels == [level]
        assert rep.distinct_count == 2
        assert rep.passed is True
        assert [o.action for o in rep.orbits] == pytest.approx(
            [math.pi * a for a in actions], rel=1e-6)

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

    def test_no_orbit_does_not_pass(self, ellipsoid):
        # the hypothesis holds, but a bound over no orbit checks nothing
        rep = osr.verify_period_bound(ellipsoid, [], 1.0)
        assert rep.asserted
        assert rep.passed is False

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
