"""In-memory span recorder wrapped around the program's public calls.

A traced workload calls :func:`install`, which replaces a fixed list of
public functions and methods of ``repro`` with wrappers that record one
span per call: name, parent span, operation id, start and end.  Nothing
under ``src/`` is edited; :meth:`SpanRecorder.uninstall` puts the
originals back.  Spans stay in memory until :meth:`SpanRecorder.dump`
writes them once the run has ended.

A span nested directly in a span of the same name is not recorded (the
auto engine delegating ``run_trace`` to the compiled engine is one
replay, not two).  A span's self time is its duration minus the
durations of its direct children; the wrapped calls run on one thread,
so children never overlap.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


class SpanRecorder:
    def __init__(self) -> None:
        #: (id, parent id, op id, name, start, end, attributes)
        self.spans: list[tuple[int, int, int, str, float, float, dict]] = []
        self.op = 0
        self._started = 0
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, **attrs: Any):
        if self._stack and self._stack[-1][1] == name:
            yield attrs
            return
        self._started += 1
        sid = self._started
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((sid, name))
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end, attrs))

    def add(self, name: str, start: float, end: float, parent: int = 0,
            **attrs: Any) -> int:
        """Record a span timed elsewhere (an event loop's requests
        overlap, so they cannot use the span stack); returns its id."""
        self._started += 1
        self.spans.append((self._started, parent, self.op, name, start, end, attrs))
        return self._started

    # -- wrapping -----------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        when: Callable[..., bool] | None = None,
    ) -> None:
        """Record ``owner.attr`` calls as spans (``when`` filters calls)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        recorder = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if when is not None and not when(*args, **kwargs):
                return func(*args, **kwargs)
            with recorder.span(name):
                return func(*args, **kwargs)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis -----------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        child_time: dict[int, float] = {}
        for _sid, parent, _op, _name, start, end, _a in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals: dict[str, float] = {}
        for sid, _parent, _op, name, start, end, _a in self.spans:
            own = end - start - child_time.get(sid, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def dump(self, path: Any) -> None:
        rows = [
            {
                "id": sid, "parent": parent, "op": op, "name": name,
                "start_s": start, "end_s": end, **attrs,
            }
            for sid, parent, op, name, start, end, attrs in self.spans
        ]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _has_frequencies(_engine: Any, _trace: Any, frequencies: Any = None,
                     **_kw: Any) -> bool:
    return frequencies is not None


def install() -> SpanRecorder:
    """Wrap the model layers' public entry points; returns the recorder."""
    import repro.apps
    import repro.apps.registry
    import repro.core.balancer
    import repro.experiments.runner
    import repro.traces.analysis
    from repro.core.algorithms import FrequencyAlgorithm
    from repro.core.balancer import PowerAwareLoadBalancer
    from repro.core.energy import EnergyAccountant
    from repro.core.powercap import PowerCapAlgorithm  # noqa: F401 (subclass)
    from repro.netsim.compiled import CompiledReplayEngine
    from repro.netsim.engines import AutoReplayEngine
    from repro.netsim.simulator import MpiSimulator

    rec = SpanRecorder()
    # build_app is imported by name into these modules
    for module in (repro.apps, repro.apps.registry, repro.experiments.runner):
        rec.wrap(module, "build_app", "apps.build")
    rec.wrap(PowerAwareLoadBalancer, "trace_app", "netsim.record")
    rec.wrap(CompiledReplayEngine, "compile_trace", "netsim.compile")
    rec.wrap(repro.core.balancer, "nominal_replay", "netsim.baseline")
    # the nominal run_trace call is the baseline's own work; only
    # replays under an assignment are "netsim.replay"
    for engine in (AutoReplayEngine, CompiledReplayEngine, MpiSimulator):
        rec.wrap(engine, "run_trace", "netsim.replay", when=_has_frequencies)
    rec.wrap(repro.traces.analysis, "compute_times", "traces.compute_times")
    pending = [FrequencyAlgorithm]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "assign" in cls.__dict__:
            rec.wrap(cls, "assign", "core.assign")
    rec.wrap(EnergyAccountant, "run_energy", "core.energy")
    rec.wrap(EnergyAccountant, "run_energy_many", "core.energy")
    return rec
