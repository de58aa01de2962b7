"""Trace analysis: the paper's application metrics.

Two metrics characterise an application (paper §5.1):

* load balance (Eq. 4)::

      LB = sum_k ComputationTime_k / (Nproc * max_k ComputationTime_k)

* parallel efficiency (Eq. 5)::

      PE = sum_k ComputationTime_k / (Nproc * TotalExecutionTime)

Computation times come straight from the trace (they are
frequency-independent recordings at nominal speed); the total execution
time requires a replay through the simulator, so
:func:`parallel_efficiency` takes it as an argument.

Every function reads the pooled columns of a
:class:`~repro.traces.columnar.ColumnarTrace`; a record-object
:class:`~repro.traces.trace.Trace` is converted on entry by
:func:`~repro.traces.columnar.as_columnar`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.traces.columnar import (
    K_ISEND,
    K_MARKER,
    K_SEND,
    ColumnarTrace,
    as_columnar,
)
from repro.traces.trace import Trace

AnyTrace = Trace | ColumnarTrace

__all__ = [
    "TraceStats",
    "communication_matrix",
    "compute_times",
    "compute_times_by_phase",
    "imbalance_time",
    "iteration_count",
    "load_balance",
    "load_balance_from_times",
    "parallel_efficiency",
    "top_communicators",
    "trace_stats",
]


def compute_times(trace: AnyTrace) -> np.ndarray:
    """Per-rank total computation seconds (at nominal frequency)."""
    return as_columnar(trace).compute_times()


def compute_times_by_phase(trace: AnyTrace) -> dict[str, np.ndarray]:
    """Per-phase, per-rank computation seconds.

    Returns ``{phase_label: array of length nproc}``.  Ranks that never
    execute a phase contribute 0 for it.
    """
    trace = as_columnar(trace)
    phases: dict[str, np.ndarray] = {}
    for stream in trace:
        for label, seconds in stream.compute_time_by_phase().items():
            if label not in phases:
                phases[label] = np.zeros(trace.nproc)
            phases[label][stream.rank] += seconds
    return phases


def load_balance_from_times(times: np.ndarray) -> float:
    """Eq. 4 evaluated on a per-rank computation-time vector."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty computation-time vector")
    peak = float(times.max())
    if peak <= 0.0:
        return 1.0  # no computation anywhere: trivially balanced
    return float(times.sum() / (times.size * peak))


def load_balance(trace: AnyTrace) -> float:
    """Load balance (Eq. 4) of a trace."""
    return load_balance_from_times(compute_times(trace))


def parallel_efficiency(trace: AnyTrace, total_execution_time: float) -> float:
    """Parallel efficiency (Eq. 5) given the replayed execution time."""
    if total_execution_time <= 0.0:
        raise ValueError(
            f"total execution time must be positive, got {total_execution_time!r}"
        )
    times = compute_times(trace)
    return float(times.sum() / (times.size * total_execution_time))


def imbalance_time(trace: AnyTrace) -> float:
    """Aggregate wait seconds implied purely by imbalance.

    Sum over ranks of ``(max_k T_k) - T_k``: the idle time a perfectly
    synchronising application would exhibit.  A useful upper bound on
    how much slack DVFS can harvest.
    """
    times = compute_times(trace)
    return float((times.max() - times).sum())


def communication_matrix(trace: AnyTrace) -> tuple[np.ndarray, np.ndarray]:
    """Point-to-point traffic: (bytes, message counts) per (src, dst).

    Covers ``send``/``isend`` records only; collectives have no single
    pairwise decomposition (their volume is in
    :attr:`TraceStats.collective_counts`).
    """
    trace = as_columnar(trace)
    nproc = trace.nproc
    nbytes = np.zeros((nproc, nproc))
    counts = np.zeros((nproc, nproc), dtype=int)
    # np.add.at accumulates per cell in storage (= program) order
    is_send = (trace.kind == K_SEND) | (trace.kind == K_ISEND)
    src = np.repeat(np.arange(nproc), np.diff(trace.offsets))[is_send]
    dst = trace.peer[is_send].astype(np.intp)
    np.add.at(nbytes, (src, dst), trace.size[is_send].astype(float))
    np.add.at(counts, (src, dst), 1)
    return nbytes, counts


def top_communicators(trace: AnyTrace, k: int = 5) -> list[tuple[int, int, float]]:
    """The k heaviest (src, dst, bytes) point-to-point pairs."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    nbytes, _ = communication_matrix(trace)
    flat = [
        (src, dst, float(nbytes[src, dst]))
        for src in range(trace.nproc)
        for dst in range(trace.nproc)
        if nbytes[src, dst] > 0
    ]
    flat.sort(key=lambda t: (-t[2], t[0], t[1]))
    return flat[:k]


def iteration_count(trace: AnyTrace) -> int:
    """Number of distinct iteration indices announced by rank-0 markers."""
    trace = as_columnar(trace)
    lo, hi = int(trace.offsets[0]), int(trace.offsets[1])
    aux = trace.aux[lo:hi]
    mask = (trace.kind[lo:hi] == K_MARKER) & (aux >= 0)
    return int(np.unique(aux[mask]).size)


@dataclass
class TraceStats:
    """Summary statistics of a trace (plus PE when a replay time is given)."""

    name: str
    nproc: int
    load_balance: float
    parallel_efficiency: float | None
    compute_times: np.ndarray
    total_compute: float
    max_compute: float
    mean_compute: float
    iterations: int
    total_records: int
    bytes_sent: int
    collective_counts: dict[str, int] = field(default_factory=dict)

    def row(self) -> dict[str, object]:
        """Flat dict for tabular reports (Table 3 style)."""
        pe = self.parallel_efficiency
        return {
            "application": self.name,
            "nproc": self.nproc,
            "load_balance_pct": 100.0 * self.load_balance,
            "parallel_efficiency_pct": None if pe is None else 100.0 * pe,
        }


def trace_stats(
    trace: AnyTrace, total_execution_time: float | None = None
) -> TraceStats:
    """Compute the full summary for a trace.

    ``total_execution_time`` (from a simulator replay) enables the
    parallel-efficiency column; without it PE is ``None``.
    """
    trace = as_columnar(trace)
    times = compute_times(trace)
    pe = (
        parallel_efficiency(trace, total_execution_time)
        if total_execution_time is not None
        else None
    )
    return TraceStats(
        name=trace.name,
        nproc=trace.nproc,
        load_balance=load_balance_from_times(times),
        parallel_efficiency=pe,
        compute_times=times,
        total_compute=float(times.sum()),
        max_compute=float(times.max()),
        mean_compute=float(times.mean()),
        iterations=iteration_count(trace),
        total_records=trace.total_records(),
        bytes_sent=sum(s.bytes_sent() for s in trace),
        collective_counts=trace.collective_counts(),
    )
