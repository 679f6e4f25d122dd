"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps each layer's public entry points for the length
of a run and keeps one span per call in memory: name, start, end and
the span that was open when the call began.  At the end it turns the
spans into each layer's time (inclusive or self time, as each metric
says) and counts, plus exact simulated statistics summed over every
``Session.launch`` result.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Tuple

from repro.compiler import pipeline
from repro.compiler import tv
from repro.compiler.pass_manager import PassManager
from repro.eval import harness as eval_harness
from repro.faults import campaign as fault_campaign
from repro.kernels.base import Benchmark
from repro import orchestrator
from repro.orchestrator import Journal
from repro.runtime.api import Session

import workloads

#: (module, attribute, span name): module-level functions the layers
#: call through their module's namespace.
FUNCTIONS = (
    (pipeline, "compile_kernel", "compiler.compile"),
    (tv, "validate_compile", "compiler.tv"),
    (eval_harness, "_record", "eval.record"),
    (fault_campaign, "run_campaign", "faults.campaign"),
    (fault_campaign, "draw_plans", "faults.plan"),
    (fault_campaign, "execute_trial", "faults.trial"),
    (fault_campaign, "classify_trial", "faults.classify"),
    (orchestrator, "run_tasks", "orchestrator.dispatch"),
)

#: (class, method, span name).
METHODS = (
    (PassManager, "run", "compiler.passes"),
    (Session, "launch", "gpu.launch"),
    (Benchmark, "check", "kernels.check"),
    (Journal, "append", "orchestrator.journal"),
) + tuple(
    (cls, method, f"kernels.{method}")
    for cls, _ in workloads.SMALL_KERNELS.values()
    for method in ("run", "reference")
)

#: Modules that bind a wrapped function under its own name.
_BINDERS = {"compile_kernel": ("repro.kernels.base",)}


class Tracer:
    def __init__(self):
        #: spans as [name, start, end, parent index or -1, result]
        self.spans: List[list] = []
        self._open: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                span[4] = fn(*args, **kwargs)
                return span[4]
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            self._patch(module, attr, wrapped)
            for other in _BINDERS.get(attr, ()):
                self._patch(sys.modules[other], attr, wrapped)
        for cls, attr, name in METHODS:
            if attr in cls.__dict__:
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- metrics ---------------------------------------------------------

    def metrics(self, measured_s: float) -> Dict[str, Tuple[float, str]]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        incl: Dict[str, float] = {}
        self_t: Dict[str, float] = {}
        count: Dict[str, int] = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            incl[name] = incl.get(name, 0.0) + end - start
            self_t[name] = self_t.get(name, 0.0) + end - start - child[i]
            count[name] = count.get(name, 0) + 1

        def total(pred) -> float:
            return sum(s[2] - s[1] for s in spans if pred(s))

        # A compile is cold when it ran the pass pipeline.
        cold = {s[3] for s in spans if s[0] == "compiler.passes"}
        compile_spans = [i for i, s in enumerate(spans)
                         if s[0] == "compiler.compile"]
        # A trial that raised returned no record; the run counts it failed.
        records = [s[4] for s in spans
                   if s[0] == "faults.trial" and s[4] is not None]
        launches = [s[4] for s in spans if s[0] == "gpu.launch"
                    and s[4] is not None]
        sim = workloads.launch_totals(launches)
        fired = sum(r.fired for r in records)
        outcomes = [r.outcome for r in records]
        return {
            "compiler.compile_s": (sum(spans[i][2] - spans[i][1]
                                       for i in compile_spans if i in cold), "s"),
            "compiler.cache_hit_s": (sum(spans[i][2] - spans[i][1]
                                         for i in compile_spans
                                         if i not in cold), "s"),
            "compiler.passes_s": (incl.get("compiler.passes", 0.0), "s"),
            "compiler.tv_s": (incl.get("compiler.tv", 0.0), "s"),
            "compiler.cold_compiles": (len(cold & set(compile_spans)), "count"),
            "gpu.launch_s": (incl.get("gpu.launch", 0.0), "s"),
            "gpu.launches": (count.get("gpu.launch", 0), "count"),
            "gpu.ns_per_instr": (1e9 * incl.get("gpu.launch", 0.0)
                                 / max(1, sim["wave_instrs"]), "ns"),
            "gpu.wave_instrs": (sim["wave_instrs"], "count"),
            "gpu.events": (sim["events"], "count"),
            "gpu.sim_cycles": (sim["sim_cycles"], "cycles"),
            "gpu.atomic_transactions": (sim["atomic_transactions"], "count"),
            "gpu.lds_accesses": (sim["lds_accesses"], "count"),
            "gpu.lds_bank_conflict_passes": (sim["lds_bank_conflict_passes"],
                                             "count"),
            "gpu.vectorized_launches": (sim["vectorized_launches"], "count"),
            "kernels.driver_s": (self_t.get("kernels.run", 0.0), "s"),
            "kernels.reference_s": (incl.get("kernels.reference", 0.0), "s"),
            "kernels.check_s": (self_t.get("kernels.check", 0.0), "s"),
            "eval.record_s": (self_t.get("eval.record", 0.0), "s"),
            "faults.golden_s": (total(
                lambda s: s[0] == "kernels.run" and s[3] >= 0
                and spans[s[3]][0] == "faults.campaign"), "s"),
            "faults.plan_s": (incl.get("faults.plan", 0.0), "s"),
            "faults.fired_trial_s": (total(
                lambda s: s[0] == "faults.trial" and s[4] is not None
                and s[4].fired), "s"),
            "faults.elided_trial_s": (total(
                lambda s: s[0] == "faults.trial" and s[4] is not None
                and s[4].engine == "elided"),
                "s"),
            "faults.classify_s": (incl.get("faults.classify", 0.0), "s"),
            "faults.trials": (len(records), "count"),
            "faults.fired": (fired, "count"),
            "faults.elided": (sum(r.engine == "elided" for r in records),
                              "count"),
            "faults.hangs": (outcomes.count("hang"), "count"),
            "faults.fired_ratio": (fired / len(records) if records else 0.0,
                                   "ratio"),
            "faults.masked": (outcomes.count("masked"), "count"),
            "faults.detected": (outcomes.count("detected"), "count"),
            "faults.sdc": (outcomes.count("sdc"), "count"),
            "orchestrator.journal_s": (incl.get("orchestrator.journal", 0.0),
                                       "s"),
            "orchestrator.dispatch_s": (self_t.get("orchestrator.dispatch", 0.0),
                                        "s"),
            "trace.spans": (len(spans), "count"),
            "trace.measured_s": (measured_s, "s"),
            "trace.overhead_s": (len(spans) * span_cost(), "s"),
        }


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - bare) / calls)
