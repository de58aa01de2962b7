"""Trace containers: a per-rank stream of records plus metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator
from typing import Any

from repro.traces.records import (
    CollectiveRecord,
    ComputeBurst,
    IrecvRecord,
    IsendRecord,
    Record,
    RecvRecord,
    SendRecord,
    WaitRecord,
    WaitallRecord,
)

__all__ = ["RankStream", "Trace"]

#: Per-process memo attributes that balancing and replay engines set on
#: a trace (compiled programs, baseline replays).  They are cheap to
#: rebuild and tied to this process, so pickles leave them out.
MEMO_ATTRS = ("_compiled_cache", "_baseline_cache")


def drop_memos(state: dict[str, Any]) -> dict[str, Any]:
    """A copy of an instance ``__dict__`` without :data:`MEMO_ATTRS`."""
    return {k: v for k, v in state.items() if k not in MEMO_ATTRS}


@dataclass
class RankStream:
    """The ordered event stream of one MPI rank."""

    rank: int
    records: list[Record] = field(default_factory=list)

    def append(self, record: Record) -> None:
        self.records.append(record)

    def compute_time(self) -> float:
        """Total compute-burst seconds (at nominal frequency)."""
        return sum(r.duration for r in self.records if isinstance(r, ComputeBurst))

    def compute_time_by_phase(self) -> dict[str, float]:
        """Compute seconds grouped by burst phase label."""
        out: dict[str, float] = {}
        for r in self.records:
            if isinstance(r, ComputeBurst):
                out[r.phase] = out.get(r.phase, 0.0) + r.duration
        return out

    def bytes_sent(self) -> int:
        return sum(
            r.nbytes for r in self.records if isinstance(r, (SendRecord, IsendRecord))
        )

    def count(self, kind: str) -> int:
        """Number of records of the given ``kind`` string."""
        return sum(1 for r in self.records if r.kind == kind)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)


class Trace:
    """A complete application trace: one :class:`RankStream` per rank.

    ``meta`` carries free-form provenance (application name, class,
    iteration count, the platform the trace was generated on, …); it is
    persisted by the JSON-lines format and surfaced in reports.
    """

    def __init__(self, nproc: int, meta: dict[str, Any] | None = None):
        if nproc <= 0:
            raise ValueError(f"nproc must be positive, got {nproc}")
        self.meta: dict[str, Any] = dict(meta or {})
        self.streams: list[RankStream] = [RankStream(rank) for rank in range(nproc)]

    # ------------------------------------------------------------------
    @property
    def nproc(self) -> int:
        return len(self.streams)

    @property
    def name(self) -> str:
        return str(self.meta.get("name", f"trace-{self.nproc}"))

    def __getitem__(self, rank: int) -> RankStream:
        return self.streams[rank]

    def __iter__(self) -> Iterator[RankStream]:
        return iter(self.streams)

    def __len__(self) -> int:
        return self.nproc

    def total_records(self) -> int:
        return sum(len(s) for s in self.streams)

    def __getstate__(self) -> dict[str, Any]:
        return drop_memos(self.__dict__)

    # ------------------------------------------------------------------
    @classmethod
    def from_streams(
        cls, streams: Iterable[Iterable[Record]], meta: dict[str, Any] | None = None
    ) -> "Trace":
        """Build a trace from per-rank record iterables (rank = position)."""
        streams = [list(s) for s in streams]
        trace = cls(nproc=len(streams), meta=meta)
        for rank, records in enumerate(streams):
            trace.streams[rank].records = list(records)
        return trace

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural sanity checks (cheap; full matching is replay's job).

        Verifies that point-to-point peers are in range, that every
        non-blocking request is waited on exactly once per rank, and that
        all ranks agree on the *number* of collectives.
        """
        nproc = self.nproc
        coll_counts = []
        for stream in self.streams:
            issued: dict[int, str] = {}
            ncoll = 0
            for idx, rec in enumerate(stream.records):
                where = f"rank {stream.rank} record {idx}"
                if isinstance(rec, (SendRecord, IsendRecord)):
                    if not (0 <= rec.dst < nproc):
                        raise ValueError(f"{where}: dst {rec.dst} out of range")
                    if rec.dst == stream.rank:
                        raise ValueError(f"{where}: self-send not supported")
                if isinstance(rec, (RecvRecord, IrecvRecord)):
                    if rec.src >= nproc:
                        raise ValueError(f"{where}: src {rec.src} out of range")
                    if rec.src == stream.rank:
                        raise ValueError(f"{where}: self-recv not supported")
                if isinstance(rec, (IsendRecord, IrecvRecord)):
                    if rec.request in issued:
                        raise ValueError(
                            f"{where}: request id {rec.request} reused before wait"
                        )
                    issued[rec.request] = rec.kind
                if isinstance(rec, WaitRecord):
                    self._check_wait(issued, rec.request, where)
                if isinstance(rec, WaitallRecord):
                    for req in rec.requests:
                        self._check_wait(issued, req, where)
                if isinstance(rec, CollectiveRecord):
                    ncoll += 1
            if issued:
                raise ValueError(
                    f"rank {stream.rank}: requests never waited on: {sorted(issued)}"
                )
            coll_counts.append(ncoll)
        if len(set(coll_counts)) > 1:
            raise ValueError(
                f"ranks disagree on collective count: {sorted(set(coll_counts))}"
            )

    @staticmethod
    def _check_wait(issued: dict[int, str], request: int, where: str) -> None:
        if request not in issued:
            raise ValueError(
                f"{where}: wait on unknown or already-completed request {request}"
            )
        del issued[request]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Trace {self.name!r} nproc={self.nproc} "
            f"records={self.total_records()}>"
        )
