"""Replay-engine selection: ``engine="des" | "compiled" | "auto"``.

One world can be replayed by two interchangeable engines:

* ``"des"`` — the full discrete-event :class:`MpiSimulator`; supports
  everything (bus contention, decomposed collectives, wildcards,
  interval/trace recording).
* ``"compiled"`` — the :mod:`repro.netsim.compiled` kernel; compiles
  the world once and prices frequency assignments without the event
  heap, bit-identically to the DES on the subset it accepts, raising
  :class:`~repro.netsim.compiled.UnsupportedWorldError` otherwise.
* ``"auto"`` — :class:`AutoReplayEngine`: tries the compiled kernel
  and transparently falls back to the DES when the capability check
  rejects the world (counted as ``auto_fallbacks`` in the engine
  stats).  Because the compiled kernel is exact, results under
  ``"auto"`` are byte-identical to ``"des"``.

:func:`make_engine` is the single construction point used by the
balancer, the experiment runner, the dynamic runtimes and the service
workers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any, Union

from repro.core.timemodel import BetaTimeModel
from repro.netsim.compiled import CompiledReplayEngine, UnsupportedWorldError
from repro.netsim.enginestats import add_engine_stats
from repro.netsim.platform import PlatformConfig
from repro.netsim.record import RunResult
from repro.netsim.simulator import MpiSimulator
from repro.traces.records import Record
from repro.traces.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.columnar import ColumnarTrace

__all__ = ["ENGINE_NAMES", "AutoReplayEngine", "make_engine"]

#: Valid values for every ``engine=`` / ``--engine`` selector.
ENGINE_NAMES = ("des", "compiled", "auto")

ReplayEngine = Union[MpiSimulator, CompiledReplayEngine, "AutoReplayEngine"]


class AutoReplayEngine:
    """Compiled kernel when possible, DES when necessary.

    Worlds that need DES-only instrumentation (interval/trace
    recording) or whose programs are lazy generators (the DES's
    ``max_events`` guard must own runaway programs) go straight to the
    DES.  Everything else is offered to the compiled kernel first; a
    capability rejection or structural :class:`CompileError` falls
    back to the DES so unsupported features and authentic errors
    (``DeadlockError``/``SimulationError``) behave exactly as before.
    """

    name = "auto"

    def __init__(
        self,
        platform: PlatformConfig | None = None,
        time_model: BetaTimeModel | None = None,
        validate: bool = False,
    ):
        self.des = MpiSimulator(platform, time_model)
        self.compiled = CompiledReplayEngine(platform, time_model, validate)
        self.platform = self.des.platform
        self.time_model = self.des.time_model

    def run(
        self,
        programs: Sequence[Iterable[Record]],
        frequencies: Sequence[float] | float | None = None,
        record_intervals: bool = False,
        record_trace: bool = False,
        max_events: int | None = 50_000_000,
        meta: dict[str, Any] | None = None,
    ) -> RunResult:
        if (
            record_intervals
            or record_trace
            or not all(isinstance(p, (list, tuple)) for p in programs)
        ):
            return self.des.run(
                programs,
                frequencies=frequencies,
                record_intervals=record_intervals,
                record_trace=record_trace,
                max_events=max_events,
                meta=meta,
            )
        try:
            return self.compiled.run(
                programs, frequencies=frequencies, meta=meta
            )
        except UnsupportedWorldError:
            add_engine_stats(auto_fallbacks=1)
            return self.des.run(
                programs,
                frequencies=frequencies,
                max_events=max_events,
                meta=meta,
            )

    def run_trace(
        self,
        trace: Trace | ColumnarTrace,
        frequencies: Sequence[float] | float | None = None,
        **kwargs: Any,
    ) -> RunResult:
        if kwargs.get("record_intervals") or kwargs.get("record_trace"):
            return self.des.run_trace(trace, frequencies=frequencies, **kwargs)
        try:
            return self.compiled.run_trace(
                trace, frequencies=frequencies, **kwargs
            )
        except UnsupportedWorldError:
            add_engine_stats(auto_fallbacks=1)
            return self.des.run_trace(trace, frequencies=frequencies, **kwargs)

    def supports(self, trace: Trace) -> tuple[bool, str]:
        return self.compiled.supports(trace)

    def evaluate_assignments(
        self,
        trace: Trace,
        frequencies: Any,
        chunk_size: int | None = None,
    ) -> dict:
        """Batch-price a (K, nproc) matrix; per-candidate DES fallback.

        Supported worlds go through the compiled kernel's chunked
        ``evaluate_many``; a capability rejection falls back to one DES
        replay per candidate (counted as ``auto_fallbacks`` plus
        ``batch_fallback_candidates``), so every batch prices, whatever
        the world.
        """
        try:
            return self.compiled.evaluate_assignments(
                trace, frequencies, chunk_size=chunk_size
            )
        except UnsupportedWorldError:
            add_engine_stats(auto_fallbacks=1)
            return self.des.evaluate_assignments(
                trace, frequencies, chunk_size=chunk_size
            )


def make_engine(
    name: str,
    platform: PlatformConfig | None = None,
    time_model: BetaTimeModel | None = None,
    validate: bool = False,
) -> ReplayEngine:
    """Build a replay engine by name ("des", "compiled" or "auto")."""
    if name == "des":
        return MpiSimulator(platform, time_model)
    if name == "compiled":
        return CompiledReplayEngine(platform, time_model, validate=validate)
    if name == "auto":
        return AutoReplayEngine(platform, time_model, validate=validate)
    raise ValueError(
        f"unknown engine {name!r}; expected one of {ENGINE_NAMES}"
    )
