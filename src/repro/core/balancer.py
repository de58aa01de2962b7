"""End-to-end orchestration of the paper's simulation methodology (§4).

For one application (or recorded trace) the
:class:`PowerAwareLoadBalancer`:

1. replays the original trace at nominal speed → original execution
   time and energy (the normalization baseline);
2. extracts per-rank computation times and runs a frequency-assignment
   algorithm against a gear set;
3. rewrites the trace's compute bursts for the assigned frequencies
   (the Dimemas tracefile modification);
4. replays the modified trace → new execution time;
5. integrates CPU energy for both runs and reports normalized
   energy / time / EDP plus LB, PE and the over-clocked CPU fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.core.algorithms import (
    FrequencyAlgorithm,
    FrequencyAssignment,
    MaxAlgorithm,
)
from repro.core.energy import EnergyAccountant, EnergyBreakdown
from repro.core.gears import NOMINAL_FMAX, GearSet
from repro.core.metrics import normalized
from repro.core.power import CpuPowerModel
from repro.core.timemodel import BetaTimeModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.record import RunResult
    from repro.traces.trace import Trace

__all__ = ["BalanceReport", "PowerAwareLoadBalancer", "nominal_replay"]


def nominal_replay(simulator: Any, trace: "Trace") -> "RunResult":
    """The trace's nominal-speed baseline replay, memoised on the trace.

    Every balance of a trace needs the same original replay (everything
    at nominal top frequency), so the result is cached on the trace
    object — mirroring the compiled kernel's ``_compiled_cache`` idiom —
    keyed by (platform, fmax, β).  The engine is deliberately *not*
    part of the key: replay results are engine-identical (pinned by
    tests/test_compiled.py), so a baseline computed under one engine
    serves them all.
    """
    key = (
        simulator.platform,
        simulator.time_model.fmax,
        simulator.time_model.beta,
    )
    cache = getattr(trace, "_baseline_cache", None)
    if cache is None:
        cache = []
        setattr(trace, "_baseline_cache", cache)  # plain attr; never pickled
    for cached_key, result in cache:
        if cached_key == key:
            return result
    result = simulator.run_trace(trace)
    cache.append((key, result))
    return result


def _plain(value: Any) -> Any:
    """A built-in scalar for ``json.dumps`` (numpy floats sneak into rows)."""
    if isinstance(value, float):
        return float(value)  # demotes numpy float subclasses
    if hasattr(value, "item"):  # other numpy scalars
        return value.item()
    return value


@dataclass
class BalanceReport:
    """Everything the paper reports for one (app, algorithm, gear set) cell."""

    app: str
    nproc: int
    algorithm: str
    gear_set: str
    load_balance: float
    parallel_efficiency: float
    original_time: float
    new_time: float
    original_energy: EnergyBreakdown
    new_energy: EnergyBreakdown
    assignment: FrequencyAssignment
    meta: dict[str, Any] = field(default_factory=dict)
    #: Power-cap section (cap, achieved peak/avg power, binding ranks,
    #: headroom) — set only by the power-cap pricing path; ``None`` for
    #: every uncapped report, which keeps capless ``to_json()`` output
    #: byte-identical to the pre-cap wire format.
    power: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    @property
    def normalized_energy(self) -> float:
        return normalized(self.new_energy.total, self.original_energy.total)

    @property
    def normalized_time(self) -> float:
        return normalized(self.new_time, self.original_time)

    @property
    def normalized_edp(self) -> float:
        return normalized(self.new_energy.edp(), self.original_energy.edp())

    @property
    def energy_savings_pct(self) -> float:
        return 100.0 * (1.0 - self.normalized_energy)

    @property
    def overclocked_pct(self) -> float:
        return 100.0 * self.assignment.overclocked_fraction

    def row(self) -> dict[str, Any]:
        """Flat dict for tabular/CSV reporting."""
        return {
            "application": self.app,
            "nproc": self.nproc,
            "algorithm": self.algorithm,
            "gear_set": self.gear_set,
            "load_balance_pct": 100.0 * self.load_balance,
            "parallel_efficiency_pct": 100.0 * self.parallel_efficiency,
            "normalized_energy": self.normalized_energy,
            "normalized_time": self.normalized_time,
            "normalized_edp": self.normalized_edp,
            "overclocked_pct": self.overclocked_pct,
        }

    def to_json(self) -> dict[str, Any]:
        """The report as plain JSON-able data (service/CLI wire format).

        A strict superset of :meth:`row` — adds absolute times/energies
        and the per-rank frequency assignment; drops nothing, so the
        service response and ``repro balance --json`` can share it
        byte-for-byte.  Everything is coerced to built-in scalars so
        ``json.dumps`` never sees numpy types.

        Capped reports add a ``"power"`` section; capless payloads are
        byte-identical to the pre-power-cap wire format (``power`` is
        read via ``getattr`` so reports unpickled from blobs written
        before the field existed render unchanged too).
        """
        power = getattr(self, "power", None)
        extra: dict[str, Any] = {}
        if power is not None:
            extra["power"] = {
                k: [_plain(x) for x in v] if isinstance(v, list) else _plain(v)
                for k, v in power.items()
            }
        return {
            **extra,
            **{k: _plain(v) for k, v in self.row().items()},
            "energy_savings_pct": float(self.energy_savings_pct),
            "original_time_s": float(self.original_time),
            "new_time_s": float(self.new_time),
            "original_energy_j": float(self.original_energy.total),
            "new_energy_j": float(self.new_energy.total),
            "assignment": {
                "target_time_s": float(self.assignment.target_time),
                "frequencies_ghz": [
                    float(g.frequency) for g in self.assignment.gears
                ],
                "voltages_v": [
                    float(g.voltage) for g in self.assignment.gears
                ],
                "overclocked": [bool(x) for x in self.assignment.overclocked],
                "attained": [bool(x) for x in self.assignment.attained],
            },
        }

    def __str__(self) -> str:
        return (
            f"{self.app} [{self.algorithm} / {self.gear_set}] "
            f"energy={self.normalized_energy:.1%} time={self.normalized_time:.1%} "
            f"EDP={self.normalized_edp:.1%} overclocked={self.overclocked_pct:.1f}%"
        )


class PowerAwareLoadBalancer:
    """The paper's power-analysis module + Dimemas loop in one object.

    Parameters
    ----------
    gear_set:
        The DVFS gear set to assign from.
    algorithm:
        Default frequency-assignment algorithm (MAX if omitted);
        ``balance_*`` calls may override per invocation.
    power_model / time_model:
        The β time model and the CPU power model (paper defaults).
    platform:
        Replay platform; ``None`` uses the Myrinet-like reference.
    engine:
        Replay engine: ``"des"``, ``"compiled"`` or ``"auto"`` (the
        default — compiled kernel when the world supports it, DES
        otherwise; results are identical either way).
    """

    def __init__(
        self,
        gear_set: GearSet,
        algorithm: FrequencyAlgorithm | None = None,
        power_model: CpuPowerModel | None = None,
        time_model: BetaTimeModel | None = None,
        platform: "Any | None" = None,
        engine: str = "auto",
    ):
        from repro.netsim.engines import make_engine

        self.gear_set = gear_set
        self.algorithm = algorithm or MaxAlgorithm()
        self.power_model = power_model or CpuPowerModel()
        self.time_model = time_model or BetaTimeModel(fmax=NOMINAL_FMAX)
        self.engine = engine
        self.simulator = make_engine(
            engine, platform=platform, time_model=self.time_model
        )
        self.accountant = EnergyAccountant(self.power_model)

    # ------------------------------------------------------------------
    def trace_app(self, app: "Any") -> "Any":
        """The application's trace at nominal speed, as columns.

        The skeleton emits straight into a
        :class:`~repro.traces.columnar.ColumnarTrace`: the event streams
        are exactly what a DES recording run would write (the DES
        appends each operation to the trace in program order before
        executing it), without running the world through the DES or
        building per-event record objects.  DES trace recording stays
        as the test oracle for this equivalence.
        """
        trace = app.columnar_trace()
        trace.meta.setdefault("nproc", trace.nproc)
        return trace

    def balance_app(
        self, app: "Any", algorithm: FrequencyAlgorithm | None = None
    ) -> BalanceReport:
        """Trace an application skeleton, then balance the trace."""
        return self.balance_trace(self.trace_app(app), algorithm=algorithm)

    # ------------------------------------------------------------------
    def balance_trace(
        self, trace: "Any", algorithm: FrequencyAlgorithm | None = None
    ) -> BalanceReport:
        """The full §4 pipeline on a recorded trace.

        Accepts either a :class:`~repro.traces.trace.Trace` or a
        :class:`~repro.traces.columnar.ColumnarTrace`; the pipeline is
        representation-agnostic (compute times, replays and caches all
        work off the shared trace surface).
        """
        from repro.traces.analysis import compute_times, load_balance_from_times

        algorithm = algorithm or self.algorithm
        nominal_gear = self.power_model.law.gear(self.time_model.fmax)

        # 1. original replay (everything at nominal top frequency),
        # memoised on the trace so sweeping many cells over one trace
        # pays for the baseline once
        original = nominal_replay(self.simulator, trace)
        comp = compute_times(trace)
        lb = load_balance_from_times(comp)
        pe = float(comp.sum() / (comp.size * original.execution_time))

        # 2. frequency assignment
        assignment = algorithm.assign(comp, self.gear_set, self.time_model)

        # 3+4. replay the trace under the assignment.  Scaling bursts in
        # the simulator is float-identical to the paper's tracefile
        # rewrite (same duration × time_ratio product; pinned by
        # tests/test_integration.py) and lets one compiled program serve
        # both replays.
        modified = self.simulator.run_trace(
            trace, frequencies=assignment.frequencies
        )

        # 5. energy integration
        original_energy = self.accountant.run_energy(
            original.compute_times,
            original.execution_time,
            [nominal_gear] * trace.nproc,
        )
        new_energy = self.accountant.run_energy(
            modified.compute_times,
            modified.execution_time,
            list(assignment.gears),
        )

        return BalanceReport(
            app=trace.name,
            nproc=trace.nproc,
            algorithm=assignment.algorithm,
            gear_set=self.gear_set.name,
            load_balance=lb,
            parallel_efficiency=pe,
            original_time=original.execution_time,
            new_time=modified.execution_time,
            original_energy=original_energy,
            new_energy=new_energy,
            assignment=assignment,
            meta={
                "trace_meta": dict(trace.meta),
                # raw replay data, so power-model sweeps (static fraction,
                # activity factor) can re-account energy without re-simulating
                "original_compute_times": original.compute_times,
                "new_compute_times": modified.compute_times,
                "nominal_gear": nominal_gear,
            },
        )

    # ------------------------------------------------------------------
    def reaccount(
        self, report: BalanceReport, power_model: CpuPowerModel
    ) -> BalanceReport:
        """Re-integrate a report's energy under a different power model.

        Times and the frequency assignment are power-model independent,
        so sweeps over static fraction (§5.3.4) or activity factor
        (§5.3.5) only need new energy integrals, not new replays.
        """
        accountant = EnergyAccountant(power_model)
        nominal_gear = report.meta["nominal_gear"]
        original_energy = accountant.run_energy(
            report.meta["original_compute_times"],
            report.original_time,
            [nominal_gear] * report.nproc,
        )
        new_energy = accountant.run_energy(
            report.meta["new_compute_times"],
            report.new_time,
            list(report.assignment.gears),
        )
        return BalanceReport(
            app=report.app,
            nproc=report.nproc,
            algorithm=report.algorithm,
            gear_set=report.gear_set,
            load_balance=report.load_balance,
            parallel_efficiency=report.parallel_efficiency,
            original_time=report.original_time,
            new_time=report.new_time,
            original_energy=original_energy,
            new_energy=new_energy,
            assignment=report.assignment,
            meta=dict(report.meta),
        )

    # ------------------------------------------------------------------
    def replay_pair(self, trace: "Trace", assignment: FrequencyAssignment
                    ) -> "tuple[RunResult, RunResult]":
        """Original + modified replays for a given assignment (Fig. 1).

        Both runs record state intervals so they can be rendered with
        :mod:`repro.traces.timeline` — which, like trace recording, is
        DES-only, so these replays run on the DES for every engine
        selection.
        """
        from repro.traces.transform import scale_compute

        recorder = getattr(self.simulator, "des", self.simulator)
        if recorder.name != "des":
            from repro.netsim.simulator import MpiSimulator

            recorder = MpiSimulator(self.simulator.platform, self.time_model)
        original = recorder.run_trace(trace, record_intervals=True)
        scaled = scale_compute(trace, assignment.frequencies, self.time_model)
        modified = recorder.run_trace(scaled, record_intervals=True)
        return original, modified
