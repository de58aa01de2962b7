"""Dynamic runtimes vs the static algorithms (related-work baselines).

Three regimes on a moderately imbalanced application:

* **stationary** (the paper's workloads): static MAX and the Jitter
  loop coincide up to Jitter's one warm-up iteration;
* **drifting** load (heavy ranks rotate a few positions per
  iteration): per-rank *totals* flatten out, so static MAX sees a
  balanced application and saves nothing, while Jitter keeps adapting;
* **communication-bound** balanced code (CG): computation-side
  balancing is useless, but Lim-style communication-phase scaling
  still harvests the MPI time.

Together these bound where the paper's static approach is the right
tool — exactly the regular, compute-imbalanced codes it targets.
"""

from __future__ import annotations

from repro.apps.registry import build_app
from repro.core.balancer import PowerAwareLoadBalancer
from repro.core.dynamic import CommPhaseScalingRuntime, JitterRuntime
from repro.core.gears import uniform_gear_set
from repro.experiments.runner import ExperimentResult, RunnerConfig
from repro.traces.iterstats import iteration_stats

__all__ = ["run"]

IMBALANCED_APP = "SPECFEM3D-32"
COMM_BOUND_APP = "CG-64"
DRIFT_STEP = 3


def _trace(name: str, config: RunnerConfig, drift_step: int = 0):
    app = build_app(
        name,
        iterations=max(config.iterations, 4),  # Jitter needs a few laps
        base_compute=config.base_compute,
        platform=config.platform,
        drift_step=drift_step,
    )
    return app.columnar_trace()


def run(config: RunnerConfig | None = None) -> ExperimentResult:
    config = config or RunnerConfig()
    gear_set = uniform_gear_set(6)
    rows = []

    for regime, name, drift in (
        ("stationary", IMBALANCED_APP, 0),
        ("drifting", IMBALANCED_APP, DRIFT_STEP),
        ("comm-bound", COMM_BOUND_APP, 0),
    ):
        trace = _trace(name, config, drift_step=drift)
        stats = iteration_stats(trace)

        static = PowerAwareLoadBalancer(
            gear_set=gear_set, platform=config.platform
        ).balance_trace(trace)
        jitter = JitterRuntime(gear_set=gear_set, platform=config.platform).run(trace)
        comm = CommPhaseScalingRuntime(
            gear_set=gear_set, platform=config.platform
        ).run(trace)

        for label, energy, time in (
            ("static-MAX", static.normalized_energy, static.normalized_time),
            ("Jitter", jitter.normalized_energy, jitter.normalized_time),
            ("comm-scaling", comm.normalized_energy, comm.normalized_time),
        ):
            rows.append(
                {
                    "regime": regime,
                    "application": name,
                    "drift": stats.drift,
                    "runtime": label,
                    "normalized_energy_pct": 100.0 * energy,
                    "normalized_time_pct": 100.0 * time,
                    "normalized_edp_pct": 100.0 * energy * time,
                }
            )

    return ExperimentResult(
        eid="dynamic",
        title="Static MAX vs dynamic runtimes (Jitter, comm-phase scaling)",
        columns=[
            "regime",
            "application",
            "drift",
            "runtime",
            "normalized_energy_pct",
            "normalized_time_pct",
            "normalized_edp_pct",
        ],
        rows=rows,
    )
