"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps public functions of each reebpinch layer.  A
wrapper records the call count, busy time, the time covered by traced calls
it made (so self time is busy minus children) and exceptions that escaped.
Modules that bind an imported name directly (``cli``, ``orbit_search``) are
patched as well as the defining module, and ``reeb`` is patched on
``StarshapedSurface``.  Spans are aggregated per name in memory: the Reeb
field is called hundreds of thousands of times per run, too often to keep a
record per call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from reebpinch import cli
from reebpinch import connecting_ode as co
from reebpinch import contact_dynamics as cd
from reebpinch import orbit_search as osr
from reebpinch import radial_profile as rp

# (module, function name, span name): every public function the metrics use
TRACED = [
    (rp, "build_profile", "radial_profile.build_profile"),
    (rp, "verify_profile", "radial_profile.verify_profile"),
    (co, "integrate_connecting", "connecting_ode.integrate_connecting"),
    (co, "barrier_curve", "connecting_ode.barrier_curve"),
    (co, "radial_adjoint_profile", "connecting_ode.radial_adjoint_profile"),
    (co, "uniqueness_probe", "connecting_ode.uniqueness_probe"),
    (cd, "pinch_radii", "contact_dynamics.pinch_radii"),
    (cd, "hypothesis_margin", "contact_dynamics.hypothesis_margin"),
    (cd, "orbit_correspondence", "contact_dynamics.orbit_correspondence"),
    (cd, "integrate_hamiltonian_orbit",
     "contact_dynamics.integrate_hamiltonian_orbit"),
    (osr, "find_closed_orbits", "orbit_search.find_closed_orbits"),
    (osr, "deduplicate", "orbit_search.deduplicate"),
    (osr, "verify_period_bound", "orbit_search.verify_period_bound"),
    (cli, "main", "cli.main"),
]
REEB = "contact_dynamics.reeb"


class Tracer:
    def __init__(self):
        # name -> [calls, busy seconds, seconds inside traced children]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in TRACED:
            self._patch_everywhere(getattr(module, attr),
                                   self._span(name, getattr(module, attr)))
        reeb = cd.StarshapedSurface.reeb
        self._set(cd.StarshapedSurface, "reeb", self._span(REEB, reeb))
        # integrations started by the search: its module-level solve_ivp name
        self._set(osr, "solve_ivp", self._counted("orbit_search.integrations",
                                                  osr.solve_ivp))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("reebpinch"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failed"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                entry = spans[name]
                entry[0] += 1
                entry[1] += dt
                entry[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
            self._observe(name, args, out)
            return out

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe(self, name, args, out) -> None:
        """Counters read off a traced call's arguments and result."""
        if name == REEB:
            x = args[1]
            self.counts[REEB + ".states"] += x.size // x.shape[-1]
        elif name == "connecting_ode.integrate_connecting":
            self.counts[name + ".rhs_evals"] += out.step_stats["rhs_evals"]
            self.counts[name + ".steps"] += out.step_stats["steps"]
        elif name == "orbit_search.find_closed_orbits":
            for key in ("seeds", "converged", "accepted"):
                self.counts["orbit_search." + key] += getattr(out.stats, key)

    # -- results -----------------------------------------------------------

    def metrics(self, bytes_written: int, overhead: float) -> dict:
        """Per-layer metrics in the units BENCHMARK.json names."""
        m = {}
        for _, _, name in TRACED:
            m[name + ".busy_s"] = self.spans[name][1]
        calls, busy, _ = self.spans[REEB]
        states = self.counts[REEB + ".states"]
        m.update({
            REEB + ".calls": calls,
            REEB + ".states": states,
            REEB + ".states_per_call": states / calls if calls else 0.0,
            REEB + ".busy_s": busy,
            REEB + ".us_per_state": 1e6 * busy / states if states else 0.0,
        })
        search = self.spans["orbit_search.find_closed_orbits"]
        seeds = self.counts["orbit_search.seeds"]
        main = self.spans["cli.main"]
        m.update({
            "orbit_search.find_closed_orbits.self_s": search[1] - search[2],
            "orbit_search.integrations":
                self.counts["orbit_search.integrations"],
            "orbit_search.converged_share":
                self.counts["orbit_search.converged"] / seeds if seeds else 0.0,
            "orbit_search.accepted_share":
                self.counts["orbit_search.accepted"] / seeds if seeds else 0.0,
            "cli.self_s": main[1] - main[2],
            "cli.bytes_written": bytes_written,
            "cli.uncaught": self.counts["cli.main.failed"],
            "trace.overhead_share": overhead,
        })
        for name in ("radial_profile.build_profile",
                     "connecting_ode.integrate_connecting"):
            m[name + ".failed"] = self.counts[name + ".failed"]
        for key in ("rhs_evals", "steps"):
            name = "connecting_ode.integrate_connecting." + key
            m[name] = self.counts[name]
        return m
