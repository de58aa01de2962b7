"""The MPI replay simulator (the Dimemas equivalent).

:class:`MpiSimulator` executes one *world* of rank programs — either
live application skeletons from :mod:`repro.apps` or recorded traces —
over a :class:`~repro.netsim.platform.PlatformConfig`:

* compute bursts advance a rank's clock, rescaled through the β time
  model when the rank runs at a non-nominal frequency;
* point-to-point messages follow an eager/rendezvous protocol with
  latency + size/bandwidth wire time and optional bus contention;
* collectives synchronise all ranks and cost an analytic model time;
* per-rank activity (compute vs in-MPI seconds), optional state-interval
  timelines and markers are recorded into a
  :class:`~repro.netsim.record.RunResult`.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from time import perf_counter
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.timemodel import BetaTimeModel, time_ratio
from repro.netsim.collectives import collective_time
from repro.netsim.enginestats import add_engine_stats
from repro.netsim.matching import EagerMsg, Matcher, ReadySend
from repro.netsim.platform import MYRINET_LIKE, PlatformConfig
from repro.netsim.record import Interval, Marker, RunResult
from repro.simx.engine import Engine
from repro.simx.errors import DeadlockError, SimulationError
from repro.simx.process import Hold, Process, Signal, WaitSignal
from repro.traces.records import Record
from repro.traces.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.columnar import ColumnarTrace

__all__ = ["MpiSimulator"]


class _BusPool:
    """K concurrent transfers; FIFO greedy assignment of bus slots."""

    def __init__(self, buses: int):
        self._free_at = [0.0] * buses

    def reserve(self, now: float, occupancy: float) -> tuple[float, float]:
        """Return (start, end) of the next available bus slot."""
        earliest = heapq.heappop(self._free_at)
        start = max(now, earliest)
        end = start + occupancy
        heapq.heappush(self._free_at, end)
        return start, end


class _RankUsage:
    """Per-rank accounting accumulated during a run."""

    __slots__ = ("compute", "comm", "end_time", "intervals", "markers")

    def __init__(self, record_intervals: bool):
        self.compute = 0.0
        self.comm = 0.0
        self.end_time = 0.0
        self.intervals: list[Interval] | None = [] if record_intervals else None
        self.markers: list[Marker] = []

    def add(self, t0: float, t1: float, kind: str) -> None:
        dur = t1 - t0
        if kind == "compute":
            self.compute += dur
        else:
            self.comm += dur
        if self.intervals is not None and dur > 0.0:
            self.intervals.append(Interval(t0, t1, kind))


class _CollInstance:
    """One in-flight collective: filled as ranks arrive."""

    __slots__ = ("op", "root", "nbytes", "entered", "signal")

    def __init__(self, op: str, root: int):
        self.op = op
        self.root = root
        self.nbytes = 0
        self.entered = 0
        self.signal = Signal(f"coll:{op}")


class MpiSimulator:
    """Replay/execute MPI worlds on a platform model.

    Parameters
    ----------
    platform:
        The machine model (default: the Myrinet-like reference platform).
    time_model:
        β time model used to rescale compute bursts when ``frequencies``
        are supplied to :meth:`run`.
    """

    #: engine-selection name (see :func:`repro.netsim.engines.make_engine`)
    name = "des"

    def __init__(
        self,
        platform: PlatformConfig | None = None,
        time_model: BetaTimeModel | None = None,
    ):
        self.platform = platform or MYRINET_LIKE
        self.time_model = time_model or BetaTimeModel(fmax=2.3)

    # ------------------------------------------------------------------
    def run(
        self,
        programs: Sequence[Iterable[Record]],
        frequencies: Sequence[float] | float | None = None,
        record_intervals: bool = False,
        record_trace: bool = False,
        max_events: int | None = 50_000_000,
        meta: dict[str, Any] | None = None,
    ) -> RunResult:
        """Execute one world.

        ``programs`` — one record iterable per rank (rank = index).
        ``frequencies`` — per-rank GHz (scalar broadcasts); ``None``
        means nominal speed (burst durations pass through unscaled).
        """
        nproc = len(programs)
        if nproc == 0:
            raise ValueError("need at least one rank program")
        freqs = self._normalize_frequencies(frequencies, nproc)
        run = _Run(self, nproc, freqs, record_intervals, record_trace)
        return run.execute(programs, max_events, meta or {})

    def run_trace(
        self,
        trace: Trace | ColumnarTrace,
        frequencies: Sequence[float] | float | None = None,
        **kwargs: Any,
    ) -> RunResult:
        """Replay a recorded trace (optionally at per-rank frequencies)."""
        meta = kwargs.pop("meta", None) or dict(trace.meta)
        return self.run(
            [stream.records for stream in trace],
            frequencies=frequencies,
            meta=meta,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def evaluate_assignments(
        self,
        trace: Trace,
        frequencies: Any,
        chunk_size: int | None = None,
    ) -> dict[str, np.ndarray]:
        """Price a (K, nproc) frequency matrix by K scalar replays.

        The DES has no vectorised lanes, so every candidate costs one
        full replay (counted as ``batch_fallback_candidates``);
        ``chunk_size`` is accepted for engine-API uniformity but has no
        effect.  Row ``k`` of each returned array is exactly
        ``run_trace(trace, frequencies=frequencies[k])``.
        """
        fmat = np.asarray(frequencies, dtype=float)
        if fmat.ndim != 2:
            raise ValueError(
                f"frequency matrix must be (K, nproc), got shape {fmat.shape}"
            )
        rows = [self.run_trace(trace, frequencies=f) for f in fmat]
        add_engine_stats(
            batch_batches=1,
            batch_candidates=len(rows),
            batch_fallback_candidates=len(rows),
        )
        return {
            "execution_time": np.array([r.execution_time for r in rows]),
            "compute_times": np.array([r.compute_times for r in rows]),
            "comm_times": np.array([r.comm_times for r in rows]),
            "end_times": np.array([r.end_times for r in rows]),
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_frequencies(
        frequencies: Sequence[float] | float | None, nproc: int
    ) -> np.ndarray | None:
        if frequencies is None:
            return None
        if np.isscalar(frequencies):
            freqs = np.full(nproc, float(frequencies))
        else:
            freqs = np.asarray(frequencies, dtype=float)
        if freqs.shape != (nproc,):
            raise ValueError(
                f"frequencies shape {freqs.shape} does not match nproc={nproc}"
            )
        if (freqs <= 0.0).any():
            raise ValueError("frequencies must be positive")
        return freqs


class _Run:
    """State of one simulation execution."""

    def __init__(
        self,
        sim: MpiSimulator,
        nproc: int,
        freqs: np.ndarray | None,
        record_intervals: bool,
        record_trace: bool,
    ):
        self.sim = sim
        self.platform = sim.platform
        self.model = sim.time_model
        self.nproc = nproc
        self.freqs = freqs
        self.engine = Engine()
        self.matcher = Matcher(nproc)
        self.buses = _BusPool(self.platform.buses) if self.platform.buses else None
        self.usage = [_RankUsage(record_intervals) for _ in range(nproc)]
        self.trace = (
            Trace(nproc) if record_trace else None
        )
        self.requests: list[dict[int, Signal]] = [{} for _ in range(nproc)]
        self.collectives: dict[int, _CollInstance] = {}
        self.coll_index = [0] * nproc

    # ------------------------------------------------------------------
    def execute(
        self,
        programs: Sequence[Iterable[Record]],
        max_events: int | None,
        meta: dict[str, Any],
    ) -> RunResult:
        procs = [
            Process(self.engine, self._interp(rank, ops), name=f"rank{rank}")
            for rank, ops in enumerate(programs)
        ]
        start = perf_counter()
        self.engine.run(max_events=max_events)
        add_engine_stats(
            des_runs=1,
            des_events=self.engine.events_processed,
            des_seconds=perf_counter() - start,
        )
        stuck = [p for p in procs if not p.finished]
        if stuck:
            diag = self.matcher.outstanding()
            raise DeadlockError(
                [f"{p.name} waiting on {p.blocked_on}" for p in stuck]
                + [f"matcher: {diag}"]
            )
        end_times = np.array([u.end_time for u in self.usage])
        result = RunResult(
            execution_time=float(end_times.max(initial=0.0)),
            compute_times=np.array([u.compute for u in self.usage]),
            comm_times=np.array([u.comm for u in self.usage]),
            end_times=end_times,
            events=self.engine.events_processed,
            intervals=(
                [u.intervals for u in self.usage]
                if self.usage[0].intervals is not None
                else None
            ),
            markers=[u.markers for u in self.usage],
            trace=self.trace,
            meta=meta,
        )
        if self.trace is not None:
            self.trace.meta.update(meta)
        return result

    # ------------------------------------------------------------------
    def _burst_time(self, record: Record, rank: int) -> float:
        if self.freqs is None:
            return record.duration
        beta = record.beta if record.beta is not None else self.model.beta
        return record.duration * time_ratio(self.freqs[rank], self.model.fmax, beta)

    def _interp(self, rank: int, ops: Iterable[Record]):
        """The per-rank interpreter coroutine."""
        usage = self.usage[rank]
        for op in ops:
            if self.trace is not None:
                self.trace[rank].append(op)
            yield from self._execute(rank, op, usage, self.requests[rank])

        if self.requests[rank]:
            raise SimulationError(
                f"rank {rank} finished with outstanding requests "
                f"{sorted(self.requests[rank])}"
            )
        usage.end_time = self.engine.now

    def _execute(
        self,
        rank: int,
        op: Record,
        usage: "_RankUsage",
        requests: dict[int, Signal],
    ):
        """Execute one record (the interpreter's op switch).

        ``requests`` is the request namespace: the rank's own table for
        application records, a private one for decomposed-collective
        fragments (so they can never collide).
        """
        engine = self.engine
        platform = self.platform
        kind = op.kind

        if kind == "compute":
            dur = self._burst_time(op, rank)
            t0 = engine.now
            if dur > 0.0:
                yield Hold(dur)
            usage.add(t0, engine.now, "compute")

        elif kind == "marker":
            usage.markers.append(Marker(engine.now, op.label, op.iteration))

        elif kind == "send":
            t0 = engine.now
            yield from self._blocking_send(rank, op.dst, op.nbytes, op.tag)
            usage.add(t0, engine.now, "send")

        elif kind == "recv":
            t0 = engine.now
            if platform.recv_overhead > 0.0:
                yield Hold(platform.recv_overhead)
            sig = self._post_recv(rank, op.src, op.tag)
            yield WaitSignal(sig)
            usage.add(t0, engine.now, "recv")

        elif kind == "isend":
            t0 = engine.now
            sig = self._start_send(rank, op.dst, op.nbytes, op.tag)
            self._register_request(rank, requests, op.request, sig)
            if platform.send_overhead > 0.0:
                yield Hold(platform.send_overhead)
            usage.add(t0, engine.now, "send")

        elif kind == "irecv":
            t0 = engine.now
            sig = self._post_recv(rank, op.src, op.tag)
            self._register_request(rank, requests, op.request, sig)
            if platform.recv_overhead > 0.0:
                yield Hold(platform.recv_overhead)
            usage.add(t0, engine.now, "recv")

        elif kind == "wait":
            t0 = engine.now
            yield WaitSignal(self._claim_request(rank, requests, op.request))
            usage.add(t0, engine.now, "wait")

        elif kind == "waitall":
            t0 = engine.now
            for request in op.requests:
                yield WaitSignal(self._claim_request(rank, requests, request))
            usage.add(t0, engine.now, "wait")

        elif kind == "collective":
            if platform.decompose_collectives:
                yield from self._decomposed_collective(rank, op, usage)
            else:
                t0 = engine.now
                sig = self._enter_collective(rank, op.op, op.root, op.nbytes)
                yield WaitSignal(sig)
                usage.add(t0, engine.now, "collective")

        else:  # pragma: no cover - records.py enumerates all kinds
            raise SimulationError(f"rank {rank}: unknown record kind {kind!r}")

    # ------------------------------------------------------------------
    def _decomposed_collective(self, rank: int, op: Record, usage: "_RankUsage"):
        """Run a collective as point-to-point rounds (no global barrier)."""
        from repro.netsim.decomposed import decompose

        index = self.coll_index[rank]
        self.coll_index[rank] += 1
        self._validate_collective_shape(rank, index, op.op, op.root)

        t0 = self.engine.now
        # fragments record into a throwaway usage so the collective is
        # accounted once (as one interval, below), not per fragment
        scratch = _RankUsage(record_intervals=False)
        requests: dict[int, Signal] = {}
        for fragment in decompose(
            op.op, rank, self.nproc, op.nbytes, op.root, index
        ):
            yield from self._execute(rank, fragment, scratch, requests)
        if requests:  # decompose() always waits on what it posts
            raise SimulationError(
                f"rank {rank}: decomposed {op.op} left requests open"
            )
        usage.add(t0, self.engine.now, "collective")

    def _validate_collective_shape(
        self, rank: int, index: int, op: str, root: int
    ) -> None:
        """Cross-rank consistency check for decomposed collectives."""
        entry = self.collectives.get(index)
        if entry is None:
            entry = _CollInstance(op, root)
            self.collectives[index] = entry
        if entry.op != op or entry.root != root:
            raise SimulationError(
                f"collective mismatch at instance {index}: rank {rank} calls "
                f"{op}(root={root}) but earlier ranks called "
                f"{entry.op}(root={entry.root})"
            )
        entry.entered += 1
        if entry.entered == self.nproc:
            del self.collectives[index]

    # ------------------------------------------------------------------
    # point-to-point machinery
    # ------------------------------------------------------------------
    def _wire_arrival(self, src: int, dst: int, nbytes: int) -> float:
        """Delay from transfer start to arrival, including bus contention."""
        base = self.platform.transfer_time(nbytes, src, dst)
        if self.buses is None:
            return base
        start, end = self.buses.reserve(self.engine.now, self.platform.occupancy_time(nbytes))
        # queueing delay (start - now) + latency portion + occupancy
        return (start - self.engine.now) + (base - self.platform.occupancy_time(nbytes)) + (end - start)

    def _blocking_send(self, rank: int, dst: int, nbytes: int, tag: int):
        if dst == rank:
            raise SimulationError(f"rank {rank}: self-send not supported")
        if nbytes <= self.platform.eager_threshold:
            self._launch_eager(rank, dst, nbytes, tag)
            if self.platform.send_overhead > 0.0:
                yield Hold(self.platform.send_overhead)
        else:
            done = Signal(f"send r{rank}->r{dst}")
            self._launch_rendezvous(rank, dst, nbytes, tag, done)
            yield WaitSignal(done)

    def _start_send(self, rank: int, dst: int, nbytes: int, tag: int) -> Signal:
        """Non-blocking send; returns the completion signal."""
        if dst == rank:
            raise SimulationError(f"rank {rank}: self-send not supported")
        if nbytes <= self.platform.eager_threshold:
            sig = Signal(f"isend r{rank}->r{dst}")
            self._launch_eager(rank, dst, nbytes, tag)
            sig.trigger(None)  # eager isend buffers: locally complete at once
            return sig
        done = Signal(f"isend r{rank}->r{dst}")
        self._launch_rendezvous(rank, dst, nbytes, tag, done)
        return done

    def _launch_eager(self, src: int, dst: int, nbytes: int, tag: int) -> None:
        delay = self._wire_arrival(src, dst, nbytes)
        self.engine.schedule(delay, self.matcher.deliver_eager, dst, src, tag, nbytes)

    def _launch_rendezvous(
        self, src: int, dst: int, nbytes: int, tag: int, sender_done: Signal
    ) -> None:
        self.matcher.post_ready_send(
            dst, src, tag, nbytes, on_matched=lambda: sender_done.trigger(None)
        )

    def _post_recv(self, rank: int, src: int, tag: int) -> Signal:
        if src == rank:
            raise SimulationError(f"rank {rank}: self-recv not supported")
        sig = Signal(f"recv r{rank}<-r{src}")

        def on_eager(msg: EagerMsg) -> None:
            sig.trigger(None)

        def on_rendezvous(send: ReadySend) -> None:
            delay = self._wire_arrival(send.src, rank, send.nbytes)
            def finish() -> None:
                send.on_matched()      # sender unblocks with the transfer
                sig.trigger(None)
            self.engine.schedule(delay, finish)

        self.matcher.post_recv(rank, src, tag, on_eager, on_rendezvous)
        return sig

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _register_request(
        self, rank: int, requests: dict[int, Signal], request: int, sig: Signal
    ) -> None:
        if request in requests:
            raise SimulationError(
                f"rank {rank}: request id {request} reused before wait"
            )
        requests[request] = sig

    def _claim_request(
        self, rank: int, requests: dict[int, Signal], request: int
    ) -> Signal:
        try:
            return requests.pop(request)
        except KeyError:
            raise SimulationError(
                f"rank {rank}: wait on unknown request {request}"
            ) from None

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _enter_collective(self, rank: int, op: str, root: int, nbytes: int) -> Signal:
        index = self.coll_index[rank]
        self.coll_index[rank] += 1
        inst = self.collectives.get(index)
        if inst is None:
            inst = _CollInstance(op, root)
            self.collectives[index] = inst
        if inst.op != op or inst.root != root:
            raise SimulationError(
                f"collective mismatch at instance {index}: rank {rank} calls "
                f"{op}(root={root}) but earlier ranks called "
                f"{inst.op}(root={inst.root})"
            )
        inst.nbytes = max(inst.nbytes, nbytes)
        inst.entered += 1
        if inst.entered == self.nproc:
            del self.collectives[index]
            cost = collective_time(inst.op, inst.nbytes, self.nproc, self.platform)
            if cost > 0.0:
                self.engine.schedule(cost, inst.signal.trigger, None)
            else:
                inst.signal.trigger(None)
        return inst.signal
