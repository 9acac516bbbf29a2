"""Outside-in layer tracing for rotwave.

The tracer swaps timing wrappers onto the module attributes and class
methods that rotwave's callers look up at call time, runs one job, and puts
the originals back. Nothing inside ``src/`` changes. Hot kernel calls are
aggregated per span name into calls, total time and self time (total minus
the time of traced calls made inside), which keeps the overhead to a few
tenths of a microsecond per call. Each job is one root span with its id.

Span names are ``<layer>.<function>`` with the layer named after the module
that defines the function, whichever module the call went through.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: module attribute -> span name; patched in every module that holds the
#: original function object under that name
FUNCTIONS = {
    "exp_rot": "so3.exp_rot",
    "dexpinv_op": "so3.dexpinv_op",
    "q_map": "so3.q_map",
    "bch": "bch.bch",
    "solve_ivp": "flow.solve_ivp",
    "integrate_group": "flow.integrate_group",
    "integrate_z_segment": "flow.integrate_z_segment",
    "brentq": "hopf.brentq",
    "primary_frequency": "hopf.primary_frequency",
    "classify_resonance": "hopf.classify_resonance",
    "lifted_frequency": "hopf.lifted_frequency",
    "classify": "hopf.classify",
    "periodic_part": "hopf.periodic_part",
    "find_orthogonal_branch": "hopf.find_orthogonal_branch",
    "tip_trajectory": "tip.tip_trajectory",
    "fit_circle": "tip.fit_circle",
    "verify_against_closed_form": "scenarios.verify_against_closed_form",
}

#: modules whose globals callers resolve those names in
MODULES = (
    "rotwave.flow",
    "rotwave.scenarios",
    "rotwave.bch",
    "rotwave.hopf",
    "rotwave.tip",
    "rotwave.cli",
)

#: (module, class, method) -> span name
METHODS = {
    ("rotwave.flow", "GroupTrajectory", "eval_A"): "flow.eval_A",
    ("rotwave.flow", "GroupTrajectory", "class_at"): "flow.class_at",
    ("rotwave.scenarios", "Scenario", "closed_form"): "scenarios.closed_form",
}

#: counters kept beside the spans
COUNTERS = ("segments", "rhs_evals", "accepted_steps", "drift_evals")


class Stat:
    __slots__ = ("calls", "total", "self_")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_ = 0.0


class Tracer:
    """Per-span-name aggregates plus flow counters, collected while active."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts = Counter()
        self.jobs: list[tuple] = []  # (job id, kind, start, duration)
        self._stack: list[float] = []
        self._patches = self._plan()

    # -------------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str, after=None):
        stack = self._stack
        st = self.stats.setdefault(name, Stat())
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st.calls += 1
                st.total += dt
                st.self_ += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(out)
            return out

        return traced

    def _after_solve(self, sol) -> None:
        self.counts["rhs_evals"] += int(sol.nfev)
        self.counts["accepted_steps"] += len(sol.t) - 1

    def _after_segment(self, _result) -> None:
        self.counts["segments"] += 1

    def _after_drift_eval(self, _traj) -> None:
        self.counts["drift_evals"] += 1

    def _plan(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every patch."""
        mods = sys.modules
        originals = {}
        for attr in FUNCTIONS:
            for modname in MODULES:
                fn = getattr(mods[modname], attr, None)
                if callable(fn) and not isinstance(fn, type) and fn.__name__ == attr:
                    originals.setdefault(attr, fn)
        hooks = {
            "solve_ivp": self._after_solve,
            "integrate_z_segment": self._after_segment,
        }
        plan = []
        for modname in MODULES:
            mod = mods[modname]
            for attr, name in FUNCTIONS.items():
                fn = getattr(mod, attr, None)
                if fn is None or fn is not originals.get(attr):
                    continue
                after = hooks.get(attr)
                if modname == "rotwave.hopf" and attr == "integrate_group":
                    # only the drift objective reaches integrate_group here
                    after = self._after_drift_eval
                plan.append((mod, attr, fn, self._wrap(fn, name, after)))
        for (modname, clsname, meth), name in METHODS.items():
            cls = getattr(mods[modname], clsname)
            fn = cls.__dict__[meth]
            plan.append((cls, meth, fn, self._wrap(fn, name)))
        scenario = mods["rotwave.scenarios"].Scenario
        forcing = scenario.__dict__["forcing"]
        plan.append((scenario, "forcing", forcing, self._traced_forcing(forcing)))
        return plan

    def _traced_forcing(self, forcing):
        """Scenario.forcing whose returned ForcingSignal has a traced ``eval``."""
        wrap = self._wrap

        @functools.wraps(forcing)
        def traced(*args, **kwargs):
            sig = forcing(*args, **kwargs)
            return dataclasses.replace(sig, eval=wrap(sig.eval, "scenarios.forcing"))

        return traced

    # ------------------------------------------------------------- lifecycle

    @contextmanager
    def job(self, job_id: int, kind: str):
        """Trace one job: install the wrappers, record its span, restore."""
        for owner, attr, _fn, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            for owner, attr, fn, _wrapper in self._patches:
                setattr(owner, attr, fn)
            self.jobs.append((job_id, kind, t0, dt))

    def take(self) -> dict:
        """Snapshot of the aggregates since the last call, then reset them."""
        snap = {
            "spans": {
                name: (st.calls, st.total, st.self_) for name, st in self.stats.items()
            },
            "counts": {name: self.counts[name] for name in COUNTERS},
        }
        for st in self.stats.values():
            st.calls, st.total, st.self_ = 0, 0.0, 0.0
        self.counts.clear()
        return snap
