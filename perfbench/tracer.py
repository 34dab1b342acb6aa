"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of ``bwcr`` modules with
timing wrappers (no file under ``src/`` changes).  Each wrapped call adds one
to its layer's call count and its self time: the call's duration minus the
time covered by wrapped calls made inside it.  Spans are aggregated in
memory as they close, so a traced round costs two clock reads and a few list
operations per wrapped call.
"""
from __future__ import annotations

import sys
import time

# metric name -> [(module, attribute path)]; an attribute path "Class.method"
# patches the method on that class, a bare name patches the function in
# every bwcr module that imported it
LAYERS = {
    "lp.solve_dense_lp": [("lp", "solve_dense_lp")],
    "solvers.solve_lp": [("solvers", "solve_lp")],
    "solvers.solve_ucb_step": [("solvers", "solve_ucb_step")],
    "solvers.oco_step": [("solvers", "ogd_step"), ("solvers", "entropic_step")],
    "objective.value": [("objective", f"{c}.value") for c in
                        ("LinearObjective", "SeparableObjective", "NegativeDistance")],
    "objective.supergradient": [("objective", f"{c}.supergradient") for c in
                                ("LinearObjective", "SeparableObjective", "NegativeDistance")],
    "objective.conjugate": [("objective", f"{c}.{m}") for c in
                            ("LinearObjective", "SeparableObjective", "NegativeDistance")
                            for m in ("conjugate", "conjugate_argmax", "conjugate_components")],
    "geometry.project": [("geometry", f"{c}.project") for c in ("Box", "Halfspaces", "VPolytope")]
                        + [("geometry", "project_simplex"), ("geometry", "project_l2_ball")],
    "geometry.support": [("geometry", f"{c}.{m}") for c in ("Box", "Halfspaces", "VPolytope")
                         for m in ("support", "support_point")],
    "geometry.distance_many": [("geometry", f"{c}.distance_many")
                               for c in ("ConvexSet", "Box", "Halfspaces")],
    "geometry.contains": [("geometry", f"{c}.contains")
                          for c in ("Box", "Halfspaces", "VPolytope")],
    "confidence.update": [("confidence", "ConfidenceState.update")],
    "confidence.hypercube": [("confidence", "hypercube")],
    "confidence.vertex": [("confidence", "vertex")],
    "core.draw_arm": [("core", "draw_arm")],
    "core.sample_observation": [("core", "sample_observation")],
    "algorithms.step": [("algorithms", f"{c}.step") for c in
                        ("UcbBwcrStepper", "UcbBwkStepper", "DualOcoStepper", "FwPrimalStepper",
                         "FwBwcStepper", "CombinedStepper", "GreedyBwkStepper")],
    "algorithms.observe": [("algorithms", "_StepperBase.observe")],
    "benchmark.compute_opt": [("benchmark", "compute_opt")],
    "benchmark.compute_bwk_opt": [("benchmark", "compute_bwk_opt")],
    "benchmark.regret_trace": [("benchmark", "regret_trace")],
    "harness.resolve_instance": [("harness", "resolve_instance")],
    "harness.run_single": [("harness", "run_single")],
    "harness.write_trace_csv": [("harness", "write_trace_csv")],
}
LP = "lp.solve_dense_lp"


class Tracer:
    """Aggregated spans for every entry of :data:`LAYERS`.

    ``lp_warm`` counts LP solves passed a basis; ``lp_outside_setup`` counts
    LP solves made after the first ``run_single`` of an experiment (set by
    :meth:`begin_experiment` / :meth:`begin_run`).
    """

    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.lp_warm = 0
        self.lp_outside_setup = 0
        self._in_setup = False
        self._stack = []
        self._undo = []

    def begin_experiment(self):
        self._in_setup = True

    def begin_run(self):
        self._in_setup = False

    def _wrap(self, name, fn):
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter
        is_lp = name == LP

        def wrapper(*args, **kwargs):
            if is_lp:
                if kwargs.get("basis") is not None:
                    self.lp_warm += 1
                if not self._in_setup:
                    self.lp_outside_setup += 1
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def install(self):
        """Patch every layer function in every loaded bwcr module.  A target
        the program no longer has is skipped, so its layer reads 0 calls."""
        modules = [m for key, m in sys.modules.items() if key.startswith("bwcr.")]
        for name, targets in LAYERS.items():
            for mod_name, path in targets:
                owner = sys.modules[f"bwcr.{mod_name}"]
                cls_name, _, attr = path.rpartition(".")
                if cls_name:
                    # a method the class defines itself; inherited ones are
                    # covered by the base class's entry
                    cls = getattr(owner, cls_name, None)
                    fn = vars(cls).get(attr) if cls is not None else None
                    if fn is not None:
                        self._undo.append((cls, attr, fn))
                        setattr(cls, attr, self._wrap(name, fn))
                    continue
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
