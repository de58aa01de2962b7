"""Batched balance planning: price many sweep cells through one tape.

The paper's methodology is inherently a sweep — every table/figure
prices many (algorithm, gear set, headroom) cells against the *same*
recorded trace.  The scalar
:meth:`~repro.core.balancer.PowerAwareLoadBalancer.balance_trace` path
pays K × (baseline replay + scalar modified replay + Python energy
integration) for K cells; the :class:`BatchBalancePlanner` pays for
the shared work once and vectorises the rest:

1. the nominal baseline replay is computed once per trace (memoised
   via :func:`repro.core.balancer.nominal_replay`), as are the per-rank
   compute times, LB and PE — they do not depend on the candidate;
2. every candidate's frequency assignment is computed (cheap Python)
   and stacked into one ``(K, nproc)`` matrix;
3. the matrix is priced by the engine's ``evaluate_assignments`` sweep
   API — chunked compiled ``evaluate_many`` passes when the world is
   supported (chunking bounds peak memory), per-candidate DES replays
   otherwise — so a batch always prices, whatever the world;
4. energy is integrated over the ``(K, nproc)`` result arrays by
   :meth:`~repro.core.energy.EnergyAccountant.run_energy_many`.

The emitted :class:`~repro.core.balancer.BalanceReport` list is
byte-identical (``to_json()``) to running the scalar path per
candidate — pinned by tests/test_batchbalance.py — so every consumer
(CLI, service, experiment sweeps, caches) can switch freely between
the two paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

import numpy as np

from repro.core.algorithms import FrequencyAlgorithm, MaxAlgorithm
from repro.core.balancer import BalanceReport, nominal_replay
from repro.core.energy import EnergyAccountant
from repro.core.gears import NOMINAL_FMAX, GearSet
from repro.core.power import CpuPowerModel
from repro.core.timemodel import BetaTimeModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.trace import Trace

__all__ = ["DEFAULT_CHUNK_SIZE", "BatchBalancePlanner", "SweepCandidate"]

#: Default bound on candidates per vectorised tape pass.  Each pass
#: allocates O(chunk × (nproc + messages)) floats, so this caps peak
#: working-set memory for arbitrarily long candidate lists while
#: keeping the vectorisation win — the tape is walked once per chunk,
#: so the bound is deliberately generous (it matches the service's
#: per-request candidate cap: typical sweeps price in a single pass).
DEFAULT_CHUNK_SIZE = 256


@dataclass(frozen=True)
class SweepCandidate:
    """One sweep cell: a gear set, optionally its own algorithm/label.

    ``algorithm=None`` means "use the planner's default"; ``label`` is
    free-form caller bookkeeping (e.g. a headroom percentage or a
    gear-set family name) and does not influence the report.
    """

    gear_set: GearSet
    algorithm: FrequencyAlgorithm | None = None
    label: str = ""


class BatchBalancePlanner:
    """Price an arbitrary candidate list against one trace.

    Construction mirrors
    :class:`~repro.core.balancer.PowerAwareLoadBalancer` minus the gear
    set (each candidate brings its own): same defaults, same engine
    selection, same accountant.  β grids are swept by constructing one
    planner per β (the time model shapes the compiled tape, so each β
    is its own batch); everything else — gear sets, algorithms,
    headroom variants — batches through one planner.
    """

    def __init__(
        self,
        algorithm: FrequencyAlgorithm | None = None,
        power_model: CpuPowerModel | None = None,
        time_model: BetaTimeModel | None = None,
        platform: "Any | None" = None,
        engine: str = "auto",
        chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    ):
        from repro.netsim.engines import make_engine

        self.algorithm = algorithm or MaxAlgorithm()
        self.power_model = power_model or CpuPowerModel()
        self.time_model = time_model or BetaTimeModel(fmax=NOMINAL_FMAX)
        self.engine = engine
        self.chunk_size = chunk_size
        self.simulator = make_engine(
            engine, platform=platform, time_model=self.time_model
        )
        self.accountant = EnergyAccountant(self.power_model)

    # ------------------------------------------------------------------
    def plan_app(
        self, app: "Any", candidates: "Any"
    ) -> list[BalanceReport]:
        """Trace an application skeleton once, then plan the trace."""
        trace = app.columnar_trace()
        trace.meta.setdefault("nproc", trace.nproc)
        return self.plan_trace(trace, candidates)

    # ------------------------------------------------------------------
    def plan_trace(
        self, trace: "Trace", candidates: "Any"
    ) -> list[BalanceReport]:
        """One report per candidate, byte-identical to the scalar path.

        ``candidates`` is an iterable of :class:`SweepCandidate` (bare
        :class:`~repro.core.gears.GearSet` objects are accepted and
        wrapped).  Report order follows candidate order.
        """
        from repro.traces.analysis import compute_times, load_balance_from_times

        cands = [
            c if isinstance(c, SweepCandidate) else SweepCandidate(c)
            for c in candidates
        ]
        if not cands:
            return []
        nominal_gear = self.power_model.law.gear(self.time_model.fmax)

        # shared, candidate-independent work: baseline replay + metrics
        original = nominal_replay(self.simulator, trace)
        comp = compute_times(trace)
        lb = load_balance_from_times(comp)
        pe = float(comp.sum() / (comp.size * original.execution_time))
        original_energy = self.accountant.run_energy(
            original.compute_times,
            original.execution_time,
            [nominal_gear] * trace.nproc,
        )

        # per-candidate assignments (cheap Python), stacked into (K, nproc)
        assignments = [
            (c.algorithm or self.algorithm).assign(
                comp, c.gear_set, self.time_model
            )
            for c in cands
        ]
        fmat = np.array([a.frequencies for a in assignments], dtype=float)

        # one batched pricing pass + vectorised energy integration
        batch = self.simulator.evaluate_assignments(
            trace, fmat, chunk_size=self.chunk_size
        )
        exec_times = batch["execution_time"]
        comp_many = batch["compute_times"]
        new_energies = self.accountant.run_energy_many(
            comp_many, exec_times, [list(a.gears) for a in assignments]
        )

        reports: list[BalanceReport] = []
        for k, (cand, assignment) in enumerate(zip(cands, assignments)):
            reports.append(
                BalanceReport(
                    app=trace.name,
                    nproc=trace.nproc,
                    algorithm=assignment.algorithm,
                    gear_set=cand.gear_set.name,
                    load_balance=lb,
                    parallel_efficiency=pe,
                    original_time=original.execution_time,
                    new_time=float(exec_times[k]),
                    original_energy=original_energy,
                    new_energy=new_energies[k],
                    assignment=assignment,
                    meta={
                        "trace_meta": dict(trace.meta),
                        "original_compute_times": original.compute_times,
                        "new_compute_times": np.array(comp_many[k]),
                        "nominal_gear": nominal_gear,
                    },
                )
            )
        return reports
