"""Per-layer tracing of ``matrixhmm`` from outside the package.

``Tracer.install`` replaces the module attributes that a fit calls
through with timing wrappers and hooks ``FitConfig.iter_hook`` on every
fit; ``Tracer.uninstall`` puts the originals back. The program itself is
not edited, so only calls that go through a module attribute are seen,
and only in this process (a hook cannot cross into pool workers).

Spans nest: a span's self time is its duration minus the durations of
the traced spans it contains. Spans opened directly inside a fit are also
kept as that fit's event list, from which the phase split (short starts
against the long run) and the E-step time are read when the fit returns.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import replace
from typing import NamedTuple

from matrixhmm import ecm, simulate, structures


class Event(NamedTuple):
    kind: str
    t0: float
    t1: float


class _Frame:
    __slots__ = ("name", "t0", "child", "events")

    def __init__(self, name: str, t0: float):
        self.name, self.t0, self.child, self.events = name, t0, 0.0, None


# (module, attribute, span name); every call through these is a span
_SPANS = (
    (ecm, "cm_step1", "ecm.cm_step1"),
    (ecm, "cm_step2", "ecm.cm_step2"),
    (ecm, "update_sigma", "structures.update_sigma"),
    (ecm, "update_psi", "structures.update_psi"),
    (ecm, "derive_parts", "structures.derive_parts"),
    (ecm, "random_init", "ecm.random_init"),
    (structures, "mm_orientation", "structures.mm_orientation"),
    (simulate, "generate", "simulate.generate"),
    (simulate, "recovery_mse", "simulate.recovery_mse"),
)
# ``selection`` calls ``ecm.fit``; ``simulate`` imported ``fit`` by name
_FITS = ((ecm, "fit"), (simulate, "fit"))


class Tracer:
    """Collects span totals, per-fit phase splits and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[_Frame] = []
        self._saved: list = []

    # -- spans -----------------------------------------------------------
    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        t1 = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = t1 - frame.t0
        self.calls[frame.name] += 1
        self.total[frame.name] += duration
        self.self_time[frame.name] += duration - frame.child
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            if parent.events is not None:
                parent.events.append(Event(frame.name, frame.t0, t1))
        return t1

    def _span(self, fn, name: str):
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if name == "structures.mm_orientation":
                cap = kwargs.get("max_iter", args[3] if len(args) > 3
                                 else structures.MM_MAX_ITER)
                self.counts["mm_iters"] += result.iterations
                self.counts["mm_capped"] += result.iterations >= cap
            return result
        return traced

    def _fit(self, fn):
        def traced(panel_, structure, K, config=None):
            config = config or ecm.FitConfig()
            frame = self._enter("ecm.fit")
            frame.events = []
            user_hook = config.iter_hook

            def hook(it, params, log_lik):
                t = time.perf_counter()
                frame.events.append(Event("hook", t, t))
                if user_hook is not None:
                    user_hook(it, params, log_lik)

            try:
                report = fn(panel_, structure, K, replace(config, iter_hook=hook))
            finally:
                t1 = self._exit(frame)
            self._account_fit(frame, t1, report)
            return report
        return traced

    def _account_fit(self, frame: _Frame, t1: float, report) -> None:
        events = frame.events
        hooks = [e for e in events if e.kind == "hook"]
        n_short = len(hooks) - report.iterations
        boundary = hooks[n_short - 1] if n_short > 0 else None
        split = boundary.t1 if boundary is not None else frame.t0
        self.counts["short_iters"] += n_short
        self.counts["long_iters"] += report.iterations
        self.counts["unconverged"] += not report.converged
        self.total["ecm.short"] += split - frame.t0
        self.total["ecm.long"] += t1 - split
        estep = 0.0
        for n, e in enumerate(events):
            prev = events[n - 1] if n else None
            nxt = events[n + 1] if n + 1 < len(events) else None
            if e.kind == "ecm.cm_step2" and nxt is not None and nxt.kind == "hook":
                estep += nxt.t0 - e.t1                 # E-step closing an iteration
            elif e.kind == "ecm.cm_step1" and (
                    prev is None or prev.kind != "hook" or prev is boundary):
                estep += e.t0 - (prev.t1 if prev else frame.t0)  # a run's opening E-step
        self.total["ecm.estep"] += estep

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in _SPANS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span(original, name))
        for module, attr in _FITS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._fit(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer values by metric name (spans in seconds)."""
        return {
            "ecm.short.iters": self.counts["short_iters"],
            "ecm.long.iters": self.counts["long_iters"],
            "ecm.unconverged": self.counts["unconverged"],
            "ecm.short.s": self.total["ecm.short"],
            "ecm.long.s": self.total["ecm.long"],
            "ecm.estep.s": self.total["ecm.estep"],
            "ecm.cm_step1.s": self.self_time["ecm.cm_step1"],
            "ecm.cm_step2.s": self.self_time["ecm.cm_step2"],
            "ecm.random_init.s": self.total["ecm.random_init"],
            "structures.update_sigma.s": self.self_time["structures.update_sigma"],
            "structures.update_psi.s": self.self_time["structures.update_psi"],
            "structures.mm_orientation.s": self.total["structures.mm_orientation"],
            "structures.mm_orientation.calls": self.calls["structures.mm_orientation"],
            "structures.mm_orientation.iters": self.counts["mm_iters"],
            "structures.mm_orientation.capped": self.counts["mm_capped"],
            "structures.derive_parts.calls": self.calls["structures.derive_parts"],
            "structures.derive_parts.s": self.total["structures.derive_parts"],
            "simulate.generate.s": self.total["simulate.generate"],
            "simulate.recovery_mse.s": self.total["simulate.recovery_mse"],
        }
