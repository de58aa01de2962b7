"""Columnar trace storage: pooled numpy columns behind the ``Trace`` API.

A :class:`ColumnarTrace` stores the same event stream as
:class:`~repro.traces.trace.Trace`, but as ten flat numpy columns plus a
CSR-style per-rank ``offsets`` array instead of per-rank lists of frozen
dataclasses.  At 100k-rank scale the record-object representation drowns
in per-object overhead (one dataclass + boxed fields + a list slot per
event, ~200 bytes and a GC header each); the columnar layout costs a
fixed 46 bytes per event regardless of world size and slices in O(1).

Layout (all columns have one entry per event, rank-major order)::

    offsets   int64[nproc+1]  events of rank r live in [offsets[r], offsets[r+1])
    kind      int8            kind code (see KIND_NAMES)
    duration  float64         compute: burst seconds; else 0
    beta      float64         compute: β override, NaN = None; else NaN
    peer      int32           send/isend: dst; recv/irecv: src;
                              collective: root; else 0
    tag       int32           p2p tag (ANY_TAG = -1); else 0
    size      int64           send/isend/collective: nbytes; else 0
    req       int32           isend/irecv/wait: request id;
                              waitall: request count; else 0
    aux       int32           waitall: offset into reqpool;
                              marker: iteration; else 0
    label     int32           compute: phase index; marker: label index
                              (into the string pool); else -1
    collop    int8            collective: index into COLLECTIVE_OPS; else -1

plus a ragged ``reqpool`` (int32) holding waitall request lists and a
deduplicated string pool for phase/marker labels.

Conversion to and from record objects is lossless and bit-exact: every
column value is the same Python int/float/str that the record carried,
so replays, analyses and JSON serialisations of the two representations
agree byte for byte (pinned by ``tests/test_columnar.py``).
"""

from __future__ import annotations

import math
import mmap
import os
from collections.abc import Iterable, Iterator, Sequence
from array import array
from typing import Any

import numpy as np

from repro.traces.records import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_OPS,
    CollectiveRecord,
    ComputeBurst,
    IrecvRecord,
    IsendRecord,
    MarkerRecord,
    Record,
    RecvRecord,
    SendRecord,
    WaitRecord,
    WaitallRecord,
)
from repro.traces.trace import Trace, drop_memos

__all__ = [
    "KIND_CODES",
    "KIND_NAMES",
    "ColumnarRankView",
    "ColumnarTrace",
    "ColumnarTraceBuilder",
    "as_columnar",
]

#: Kind-code vocabulary; index = the int8 stored in the ``kind`` column.
KIND_NAMES = (
    "compute",
    "send",
    "recv",
    "isend",
    "irecv",
    "wait",
    "waitall",
    "collective",
    "marker",
)
KIND_CODES: dict[str, int] = {name: code for code, name in enumerate(KIND_NAMES)}

K_COMPUTE = 0
K_SEND = 1
K_RECV = 2
K_ISEND = 3
K_IRECV = 4
K_WAIT = 5
K_WAITALL = 6
K_COLLECTIVE = 7
K_MARKER = 8

_COLLOP_CODES: dict[str, int] = {op: i for i, op in enumerate(COLLECTIVE_OPS)}

#: Fixed column bytes per event (docs/architecture.md derives this).
BYTES_PER_EVENT = 1 + 8 + 8 + 4 + 4 + 8 + 4 + 4 + 4 + 1


class ColumnarTraceBuilder:
    """Append-only builder writing events straight into typed buffers.

    Events may arrive in any rank order (the JSON-lines reader streams
    them in file order); :meth:`build` stable-sorts into rank-major
    layout, preserving each rank's own program order.
    """

    def __init__(self, nproc: int):
        if nproc <= 0:
            raise ValueError(f"nproc must be positive, got {nproc}")
        self.nproc = nproc
        self._rank = array("q")
        self._kind = array("b")
        self._duration = array("d")
        self._beta = array("d")
        self._peer = array("q")
        self._tag = array("q")
        self._size = array("q")
        self._req = array("q")
        self._aux = array("q")
        self._label = array("q")
        self._collop = array("b")
        self._reqpool = array("q")
        self._strings: list[str] = []
        self._string_ids: dict[str, int] = {}

    # -- internals ------------------------------------------------------
    def _intern(self, text: str) -> int:
        idx = self._string_ids.get(text)
        if idx is None:
            idx = len(self._strings)
            self._strings.append(text)
            self._string_ids[text] = idx
        return idx

    def _check_rank(self, rank: int) -> int:
        if not (0 <= rank < self.nproc):
            raise ValueError(f"rank {rank} out of range for nproc={self.nproc}")
        return rank

    def _push(
        self,
        rank: int,
        kind: int,
        duration: float = 0.0,
        beta: float = math.nan,
        peer: int = 0,
        tag: int = 0,
        size: int = 0,
        req: int = 0,
        aux: int = 0,
        label: int = -1,
        collop: int = -1,
    ) -> None:
        self._rank.append(self._check_rank(rank))
        self._kind.append(kind)
        self._duration.append(duration)
        self._beta.append(beta)
        self._peer.append(peer)
        self._tag.append(tag)
        self._size.append(size)
        self._req.append(req)
        self._aux.append(aux)
        self._label.append(label)
        self._collop.append(collop)

    # -- per-kind appends (validation mirrors records.py) ---------------
    def compute(
        self, rank: int, duration: float, phase: str = "", beta: float | None = None
    ) -> None:
        duration = float(duration)
        if not (duration >= 0.0) or not math.isfinite(duration):
            raise ValueError(
                f"burst duration must be finite and >= 0, got {duration!r}"
            )
        if beta is not None and not (0.0 <= beta <= 1.0):
            raise ValueError(f"beta must be in [0, 1], got {beta!r}")
        self._push(
            rank,
            K_COMPUTE,
            duration=duration,
            beta=math.nan if beta is None else float(beta),
            label=self._intern(phase),
        )

    def send(self, rank: int, dst: int, nbytes: int, tag: int = 0) -> None:
        if dst < 0:
            raise ValueError(f"send dst must be a concrete rank, got {dst}")
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self._push(rank, K_SEND, peer=dst, size=nbytes, tag=tag)

    def recv(self, rank: int, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> None:
        if src < ANY_SOURCE:
            raise ValueError(f"invalid src {src}")
        self._push(rank, K_RECV, peer=src, tag=tag)

    def isend(
        self, rank: int, dst: int, nbytes: int, tag: int = 0, request: int = 0
    ) -> None:
        if dst < 0:
            raise ValueError(f"isend dst must be a concrete rank, got {dst}")
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self._push(rank, K_ISEND, peer=dst, size=nbytes, tag=tag, req=request)

    def irecv(
        self, rank: int, src: int = ANY_SOURCE, tag: int = ANY_TAG, request: int = 0
    ) -> None:
        if src < ANY_SOURCE:
            raise ValueError(f"invalid src {src}")
        self._push(rank, K_IRECV, peer=src, tag=tag, req=request)

    def wait(self, rank: int, request: int) -> None:
        self._push(rank, K_WAIT, req=request)

    def waitall(self, rank: int, requests: Sequence[int]) -> None:
        requests = tuple(requests)
        self._push(
            rank, K_WAITALL, req=len(requests), aux=len(self._reqpool)
        )
        self._reqpool.extend(int(r) for r in requests)

    def collective(self, rank: int, op: str, nbytes: int = 0, root: int = 0) -> None:
        code = _COLLOP_CODES.get(op)
        if code is None:
            raise ValueError(
                f"unknown collective {op!r}; expected one of {COLLECTIVE_OPS}"
            )
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self._push(rank, K_COLLECTIVE, peer=root, size=nbytes, collop=code)

    def marker(self, rank: int, label: str, iteration: int = -1) -> None:
        self._push(rank, K_MARKER, aux=iteration, label=self._intern(label))

    # -- record / dict bridges ------------------------------------------
    def append_record(self, rank: int, record: Record) -> None:
        """Append one record object (lossless)."""
        kind = record.kind
        if kind == "compute":
            self.compute(rank, record.duration, record.phase, record.beta)
        elif kind == "send":
            self.send(rank, record.dst, record.nbytes, record.tag)
        elif kind == "recv":
            self.recv(rank, record.src, record.tag)
        elif kind == "isend":
            self.isend(rank, record.dst, record.nbytes, record.tag, record.request)
        elif kind == "irecv":
            self.irecv(rank, record.src, record.tag, record.request)
        elif kind == "wait":
            self.wait(rank, record.request)
        elif kind == "waitall":
            self.waitall(rank, record.requests)
        elif kind == "collective":
            self.collective(rank, record.op, record.nbytes, record.root)
        elif kind == "marker":
            self.marker(rank, record.label, record.iteration)
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    def append_dict(self, rank: int, data: dict[str, Any]) -> None:
        """Append one ``record_to_dict``-style event dict (JSON reader)."""
        fields = dict(data)
        kind = fields.pop("kind", None)
        try:
            if kind == "compute":
                self.compute(
                    rank,
                    fields.pop("duration"),
                    fields.pop("phase", ""),
                    fields.pop("beta", None),
                )
            elif kind == "send":
                self.send(
                    rank, fields.pop("dst"), fields.pop("nbytes"),
                    fields.pop("tag", 0),
                )
            elif kind == "recv":
                self.recv(rank, fields.pop("src"), fields.pop("tag", ANY_TAG))
            elif kind == "isend":
                self.isend(
                    rank, fields.pop("dst"), fields.pop("nbytes"),
                    fields.pop("tag", 0), fields.pop("request", 0),
                )
            elif kind == "irecv":
                self.irecv(
                    rank, fields.pop("src"), fields.pop("tag", ANY_TAG),
                    fields.pop("request", 0),
                )
            elif kind == "wait":
                self.wait(rank, fields.pop("request"))
            elif kind == "waitall":
                self.waitall(rank, fields.pop("requests"))
            elif kind == "collective":
                self.collective(
                    rank, fields.pop("op"), fields.pop("nbytes", 0),
                    fields.pop("root", 0),
                )
            elif kind == "marker":
                self.marker(rank, fields.pop("label"), fields.pop("iteration", -1))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except KeyError as exc:
            raise ValueError(f"{kind} event missing field {exc}") from None
        if fields:
            raise ValueError(
                f"{kind} event has unexpected fields {sorted(fields)}"
            )

    # -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._kind)

    def build(self, meta: dict[str, Any] | None = None) -> "ColumnarTrace":
        """Finalize into a rank-major :class:`ColumnarTrace`."""
        ranks = np.frombuffer(self._rank, dtype=np.int64) if self._rank else (
            np.zeros(0, dtype=np.int64)
        )
        columns = {
            "kind": np.array(self._kind, dtype=np.int8),
            "duration": np.array(self._duration, dtype=np.float64),
            "beta": np.array(self._beta, dtype=np.float64),
            "peer": np.array(self._peer, dtype=np.int32),
            "tag": np.array(self._tag, dtype=np.int32),
            "size": np.array(self._size, dtype=np.int64),
            "req": np.array(self._req, dtype=np.int32),
            "aux": np.array(self._aux, dtype=np.int32),
            "label": np.array(self._label, dtype=np.int32),
            "collop": np.array(self._collop, dtype=np.int8),
        }
        if ranks.size and np.any(ranks[:-1] > ranks[1:]):
            order = np.argsort(ranks, kind="stable")
            ranks = ranks[order]
            columns = {name: col[order] for name, col in columns.items()}
        counts = np.bincount(ranks, minlength=self.nproc)
        offsets = np.zeros(self.nproc + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return ColumnarTrace(
            nproc=self.nproc,
            meta=meta,
            offsets=offsets,
            reqpool=np.array(self._reqpool, dtype=np.int32),
            strings=tuple(self._strings),
            **columns,
        )


class ColumnarRankView:
    """One rank's slice of a :class:`ColumnarTrace`.

    Duck-types the :class:`~repro.traces.trace.RankStream` read surface
    (``rank``, ``records``, iteration, ``compute_time`` …) so analyses
    and the DES replay work unchanged; accessing ``records`` or
    iterating materialises record objects on demand.
    """

    __slots__ = ("_trace", "rank", "_lo", "_hi")

    def __init__(self, trace: "ColumnarTrace", rank: int):
        self._trace = trace
        self.rank = rank
        self._lo = int(trace.offsets[rank])
        self._hi = int(trace.offsets[rank + 1])

    @property
    def records(self) -> list[Record]:
        return self._trace.records_of(self.rank)

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self) -> Iterator[Record]:
        trace = self._trace
        for g in range(self._lo, self._hi):
            yield trace.record_at(g)

    def compute_time(self) -> float:
        """Total compute seconds; bit-identical to the record path.

        ``sum`` over a list accumulates strictly left to right (just
        like ``RankStream.compute_time``'s generator sum), which is what
        keeps makespans and reports byte-identical across storage
        representations — numpy's pairwise ``.sum()`` would not be.
        """
        t = self._trace
        lo, hi = self._lo, self._hi
        seg = t.duration[lo:hi]
        return sum(seg[t.kind[lo:hi] == K_COMPUTE].tolist())

    def compute_time_by_phase(self) -> dict[str, float]:
        t = self._trace
        lo, hi = self._lo, self._hi
        mask = t.kind[lo:hi] == K_COMPUTE
        out: dict[str, float] = {}
        labels = t.label[lo:hi][mask].tolist()
        durs = t.duration[lo:hi][mask].tolist()
        strings = t.strings
        for idx, d in zip(labels, durs):
            phase = strings[idx]
            out[phase] = out.get(phase, 0.0) + d
        return out

    def bytes_sent(self) -> int:
        t = self._trace
        lo, hi = self._lo, self._hi
        k = t.kind[lo:hi]
        mask = (k == K_SEND) | (k == K_ISEND)
        return int(t.size[lo:hi][mask].sum())

    def count(self, kind: str) -> int:
        t = self._trace
        return int((t.kind[self._lo:self._hi] == KIND_CODES[kind]).sum())


class ColumnarTrace:
    """Columnar storage of a complete application trace.

    Mirrors the :class:`~repro.traces.trace.Trace` read API (``nproc``,
    ``meta``, ``name``, indexing/iteration over per-rank streams,
    ``total_records``, ``validate``) so it drops into the analysis,
    balancing and replay pipelines unchanged.  The compiled replay
    kernel consumes the columns directly — no record objects are ever
    materialised on that path.
    """

    def __init__(
        self,
        nproc: int,
        meta: dict[str, Any] | None = None,
        *,
        offsets: np.ndarray,
        kind: np.ndarray,
        duration: np.ndarray,
        beta: np.ndarray,
        peer: np.ndarray,
        tag: np.ndarray,
        size: np.ndarray,
        req: np.ndarray,
        aux: np.ndarray,
        label: np.ndarray,
        collop: np.ndarray,
        reqpool: np.ndarray,
        strings: tuple[str, ...] = (),
    ):
        if nproc <= 0:
            raise ValueError(f"nproc must be positive, got {nproc}")
        if offsets.shape != (nproc + 1,):
            raise ValueError(
                f"offsets shape {offsets.shape} does not match nproc={nproc}"
            )
        n = int(offsets[-1])
        for name, col in (
            ("kind", kind), ("duration", duration), ("beta", beta),
            ("peer", peer), ("tag", tag), ("size", size), ("req", req),
            ("aux", aux), ("label", label), ("collop", collop),
        ):
            if col.shape != (n,):
                raise ValueError(
                    f"column {name!r} has {col.shape[0]} entries, expected {n}"
                )
        self.meta: dict[str, Any] = dict(meta or {})
        self.nproc = nproc
        self.offsets = offsets
        self.kind = kind
        self.duration = duration
        self.beta = beta
        self.peer = peer
        self.tag = tag
        self.size = size
        self.req = req
        self.aux = aux
        self.label = label
        self.collop = collop
        self.reqpool = reqpool
        self.strings = strings
        # Set by colstore when the columns are backed by a read-only
        # memory mapping; lets long scans drop clean pages mid-flight.
        self._mapping: Any = None
        self._mapping_source: str | None = None

    # -- out-of-core backing --------------------------------------------
    @property
    def is_mapped(self) -> bool:
        """True when the columns are views over a file mapping."""
        return self._mapping is not None

    def attach_mapping(self, mapping: Any, source: str | None = None) -> None:
        """Record the mmap object backing the columns (colstore only)."""
        self._mapping = mapping
        self._mapping_source = source

    def detach_mapping(self) -> None:
        """Close the backing mapping.  The trace must not be used after.

        Our own column views are dropped first (an mmap cannot close
        while buffers are exported over it); if outside references to
        the columns are still alive the close is left to their GC.
        """
        mapping, self._mapping = self._mapping, None
        self._mapping_source = None
        if mapping is None:
            return
        for attr in (
            "offsets", "kind", "duration", "beta", "peer", "tag",
            "size", "req", "aux", "label", "collop", "reqpool",
        ):
            setattr(self, attr, np.empty(0, dtype=getattr(self, attr).dtype))
        try:
            mapping.close()
        except BufferError:  # pragma: no cover - external views alive
            pass

    def release_pages(self) -> None:
        """Advise the kernel to drop resident pages of the backing map.

        No-op for in-memory traces.  For mapped traces this caps the
        resident-set contribution of a full-column scan: pages re-fault
        from the store file on the next touch (clean, read-only — never
        any data loss).  The zero-copy compile calls this periodically.
        """
        mapping = self._mapping
        if mapping is not None:
            try:
                mapping.madvise(mmap.MADV_DONTNEED)
            except (AttributeError, OSError):  # pragma: no cover
                pass  # platform without madvise: purely an RSS hint

    def save(self, path: str | os.PathLike) -> None:
        """Serialise to the binary columnar store (see colstore)."""
        from repro.traces import colstore

        colstore.save_trace(self, path)

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        mmap: bool = False,
        verify: bool | None = None,
    ) -> "ColumnarTrace":
        """Open a store file; ``mmap=True`` for out-of-core columns."""
        from repro.traces import colstore

        return colstore.open_trace(path, mmap=mmap, verify=verify)

    # -- Trace API ------------------------------------------------------
    @property
    def name(self) -> str:
        return str(self.meta.get("name", f"trace-{self.nproc}"))

    @property
    def n_events(self) -> int:
        return int(self.offsets[-1])

    def total_records(self) -> int:
        return self.n_events

    def __len__(self) -> int:
        return self.nproc

    def __getitem__(self, rank: int) -> ColumnarRankView:
        if not (-self.nproc <= rank < self.nproc):
            raise IndexError(f"rank {rank} out of range")
        return ColumnarRankView(self, rank % self.nproc)

    def __iter__(self) -> Iterator[ColumnarRankView]:
        for rank in range(self.nproc):
            yield ColumnarRankView(self, rank)

    def nbytes(self) -> int:
        """Total column storage in bytes (the memory-math ground truth)."""
        arrays = (
            self.offsets, self.kind, self.duration, self.beta, self.peer,
            self.tag, self.size, self.req, self.aux, self.label,
            self.collop, self.reqpool,
        )
        return int(sum(a.nbytes for a in arrays))

    def __getstate__(self) -> dict[str, Any]:
        return drop_memos(self.__dict__)

    # -- conversions ----------------------------------------------------
    @classmethod
    def from_streams(
        cls,
        streams: Iterable[Iterable[Record]],
        meta: dict[str, Any] | None = None,
    ) -> "ColumnarTrace":
        """Build from per-rank record iterables (rank = position)."""
        mats = [list(s) for s in streams]
        builder = ColumnarTraceBuilder(len(mats))
        for rank, records in enumerate(mats):
            append = builder.append_record
            for record in records:
                append(rank, record)
        return builder.build(meta=meta)

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Lossless conversion from a record-object trace."""
        return cls.from_streams(
            (stream.records for stream in trace), meta=trace.meta
        )

    def to_trace(self) -> Trace:
        """Lossless conversion back to record objects."""
        trace = Trace(self.nproc, meta=self.meta)
        for rank in range(self.nproc):
            trace.streams[rank].records = self.records_of(rank)
        return trace

    def to_programs(self) -> list[list[Record]]:
        """Per-rank record lists (DES replay / cross-validation input)."""
        return [self.records_of(rank) for rank in range(self.nproc)]

    def record_at(self, g: int) -> Record:
        """Materialise the record object for global event index ``g``."""
        k = int(self.kind[g])
        if k == K_COMPUTE:
            b = float(self.beta[g])
            return ComputeBurst(
                float(self.duration[g]),
                phase=self.strings[int(self.label[g])],
                beta=None if math.isnan(b) else b,
            )
        if k == K_SEND:
            return SendRecord(int(self.peer[g]), int(self.size[g]), int(self.tag[g]))
        if k == K_RECV:
            return RecvRecord(int(self.peer[g]), int(self.tag[g]))
        if k == K_ISEND:
            return IsendRecord(
                int(self.peer[g]), int(self.size[g]), int(self.tag[g]),
                int(self.req[g]),
            )
        if k == K_IRECV:
            return IrecvRecord(int(self.peer[g]), int(self.tag[g]), int(self.req[g]))
        if k == K_WAIT:
            return WaitRecord(int(self.req[g]))
        if k == K_WAITALL:
            lo = int(self.aux[g])
            hi = lo + int(self.req[g])
            return WaitallRecord(tuple(self.reqpool[lo:hi].tolist()))
        if k == K_COLLECTIVE:
            return CollectiveRecord(
                COLLECTIVE_OPS[int(self.collop[g])],
                int(self.size[g]),
                int(self.peer[g]),
            )
        if k == K_MARKER:
            return MarkerRecord(
                self.strings[int(self.label[g])], int(self.aux[g])
            )
        raise ValueError(f"corrupt kind code {k} at event {g}")

    def records_of(self, rank: int) -> list[Record]:
        lo, hi = int(self.offsets[rank]), int(self.offsets[rank + 1])
        return [self.record_at(g) for g in range(lo, hi)]

    def event_dict(self, g: int) -> dict[str, Any]:
        """``record_to_dict``-identical dict for event ``g`` (no record)."""
        k = int(self.kind[g])
        if k == K_COMPUTE:
            b = float(self.beta[g])
            return {
                "kind": "compute",
                "duration": float(self.duration[g]),
                "phase": self.strings[int(self.label[g])],
                "beta": None if math.isnan(b) else b,
            }
        if k == K_SEND:
            return {
                "kind": "send",
                "dst": int(self.peer[g]),
                "nbytes": int(self.size[g]),
                "tag": int(self.tag[g]),
            }
        if k == K_RECV:
            return {"kind": "recv", "src": int(self.peer[g]), "tag": int(self.tag[g])}
        if k == K_ISEND:
            return {
                "kind": "isend",
                "dst": int(self.peer[g]),
                "nbytes": int(self.size[g]),
                "tag": int(self.tag[g]),
                "request": int(self.req[g]),
            }
        if k == K_IRECV:
            return {
                "kind": "irecv",
                "src": int(self.peer[g]),
                "tag": int(self.tag[g]),
                "request": int(self.req[g]),
            }
        if k == K_WAIT:
            return {"kind": "wait", "request": int(self.req[g])}
        if k == K_WAITALL:
            lo = int(self.aux[g])
            hi = lo + int(self.req[g])
            return {"kind": "waitall", "requests": self.reqpool[lo:hi].tolist()}
        if k == K_COLLECTIVE:
            return {
                "kind": "collective",
                "op": COLLECTIVE_OPS[int(self.collop[g])],
                "nbytes": int(self.size[g]),
                "root": int(self.peer[g]),
            }
        if k == K_MARKER:
            return {
                "kind": "marker",
                "label": self.strings[int(self.label[g])],
                "iteration": int(self.aux[g]),
            }
        raise ValueError(f"corrupt kind code {k} at event {g}")

    def iter_event_rows(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """``(rank, event_dict)`` pairs in rank-major storage order."""
        offsets = self.offsets.tolist()
        for rank in range(self.nproc):
            for g in range(offsets[rank], offsets[rank + 1]):
                yield rank, self.event_dict(g)

    # -- analyses -------------------------------------------------------
    def compute_times(self) -> np.ndarray:
        """Per-rank compute seconds, bit-identical to the record path."""
        out = np.empty(self.nproc)
        kind, dur, off = self.kind, self.duration, self.offsets
        for rank in range(self.nproc):
            lo, hi = int(off[rank]), int(off[rank + 1])
            out[rank] = sum(dur[lo:hi][kind[lo:hi] == K_COMPUTE].tolist())
        return out

    def collective_counts(self) -> dict[str, int]:
        """``{op: count}`` over the whole trace, in COLLECTIVE_OPS order
        of first appearance (matches record-path dict accumulation)."""
        codes = self.collop[self.kind == K_COLLECTIVE]
        out: dict[str, int] = {}
        for code in codes.tolist():
            op = COLLECTIVE_OPS[code]
            out[op] = out.get(op, 0) + 1
        return out

    # -- validation -----------------------------------------------------
    def validate(self) -> None:
        """Structural checks, mirroring :meth:`Trace.validate`."""
        nproc = self.nproc
        kind = self.kind
        peer = self.peer
        offsets = self.offsets
        coll_counts = np.empty(nproc, dtype=np.int64)
        for rank in range(nproc):
            lo, hi = int(offsets[rank]), int(offsets[rank + 1])
            k = kind[lo:hi]
            p = peer[lo:hi]
            is_send = (k == K_SEND) | (k == K_ISEND)
            is_recv = (k == K_RECV) | (k == K_IRECV)
            bad = is_send & ((p < 0) | (p >= nproc))
            if bad.any():
                idx = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"rank {rank} record {idx}: dst {int(p[idx])} out of range"
                )
            bad = is_send & (p == rank)
            if bad.any():
                idx = int(np.flatnonzero(bad)[0])
                raise ValueError(f"rank {rank} record {idx}: self-send not supported")
            bad = is_recv & (p >= nproc)
            if bad.any():
                idx = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"rank {rank} record {idx}: src {int(p[idx])} out of range"
                )
            bad = is_recv & (p == rank)
            if bad.any():
                idx = int(np.flatnonzero(bad)[0])
                raise ValueError(f"rank {rank} record {idx}: self-recv not supported")
            coll_counts[rank] = int((k == K_COLLECTIVE).sum())
            self._validate_requests(rank, lo, hi)
        distinct = set(coll_counts.tolist())
        if len(distinct) > 1:
            raise ValueError(
                f"ranks disagree on collective count: {sorted(distinct)}"
            )

    def _validate_requests(self, rank: int, lo: int, hi: int) -> None:
        """Request discipline for one rank (loops only over request ops)."""
        k = self.kind[lo:hi]
        interesting = np.flatnonzero(
            (k == K_ISEND) | (k == K_IRECV) | (k == K_WAIT) | (k == K_WAITALL)
        )
        if interesting.size == 0:
            return
        issued: dict[int, int] = {}
        req = self.req
        aux = self.aux
        reqpool = self.reqpool
        for idx in interesting.tolist():
            g = lo + idx
            code = int(k[idx])
            where = f"rank {rank} record {idx}"
            if code in (K_ISEND, K_IRECV):
                r = int(req[g])
                if r in issued:
                    raise ValueError(
                        f"{where}: request id {r} reused before wait"
                    )
                issued[r] = code
            elif code == K_WAIT:
                self._check_wait(issued, int(req[g]), where)
            else:  # waitall
                plo = int(aux[g])
                for r in reqpool[plo : plo + int(req[g])].tolist():
                    self._check_wait(issued, r, where)
        if issued:
            raise ValueError(
                f"rank {rank}: requests never waited on: {sorted(issued)}"
            )

    @staticmethod
    def _check_wait(issued: dict[int, int], request: int, where: str) -> None:
        if request not in issued:
            raise ValueError(
                f"{where}: wait on unknown or already-completed request {request}"
            )
        del issued[request]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<ColumnarTrace {self.name!r} nproc={self.nproc} "
            f"events={self.n_events} bytes={self.nbytes()}>"
        )


def as_columnar(trace: "Trace | ColumnarTrace") -> ColumnarTrace:
    """``trace`` as a :class:`ColumnarTrace`: columns pass through as is,
    a record-object :class:`Trace` is converted losslessly.

    The one door through which record traces enter the trace analyses,
    transforms and diagnostics, so each of those has a single columnar
    implementation.
    """
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_trace(trace)
