"""Static deadlock analysis of a trace's message-passing structure.

The trace linter's historical W003 compared per-pair send/recv *counts*
— a heuristic that misses ordering deadlocks (two ranks that
rendezvous-send to each other head-to-head have perfectly matched
counts) and false-positives on wildcard traffic.  This module replaces
the heuristic with an abstract replay of MPI matching semantics:

* eager sends (``nbytes <= eager_threshold``) complete immediately and
  deposit an envelope at the destination;
* rendezvous sends block until a matching receive is posted;
* blocking receives block until a matching envelope (eager or
  rendezvous ready-send) is available;
* ``Isend``/``Irecv`` post immediately; their ``Wait``/``Waitall``
  blocks until the request is matched;
* collectives synchronise: the k-th collective releases only when all
  ranks have arrived at their k-th collective.

The replay is deterministic (FIFO matching, wildcards take the oldest
candidate) and needs no timing model, so it is a *static* analysis: it
runs on the trace alone.  When the replay reaches a state where no rank
can advance, the wait-for graph over the blocked ranks is built and

* strongly connected components of size >= 2 are reported as **circular
  waits** (true deadlock cycles), and
* ranks whose every wait target already terminated are reported as
  **orphaned** operations (the peer finished without the counterpart).

A trace that completes but leaves eager envelopes unconsumed is also
reported: those are sent-but-never-received messages.

The replay steps the pooled numpy columns of a
:class:`~repro.traces.columnar.ColumnarTrace` (a record-object trace is
converted on entry).  It pre-filters local events (compute, marker) in
one vectorised pass — only communication events exist as Python state —
so a 32k-rank world replays without materialising a single record
object.  The discrete-event simulator is its independent check: on
worlds without wildcard receives, the replay reports a deadlock exactly
when the simulator raises ``DeadlockError`` and a collective mismatch
exactly when it rejects the collective order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.netsim.platform import PlatformConfig
from repro.traces.columnar import (
    K_COLLECTIVE,
    K_COMPUTE,
    K_IRECV,
    K_ISEND,
    K_MARKER,
    K_RECV,
    K_SEND,
    K_WAIT,
    K_WAITALL,
    KIND_NAMES,
    ColumnarTrace,
    as_columnar,
)
from repro.traces.records import ANY_SOURCE, ANY_TAG, COLLECTIVE_OPS
from repro.traces.trace import Trace

__all__ = ["BlockedRank", "DeadlockReport", "analyze_deadlock"]


@dataclass(frozen=True)
class BlockedRank:
    """One permanently blocked rank: where and what it waits for."""

    rank: int
    index: int
    description: str
    waits_on: tuple[int, ...]


@dataclass(frozen=True)
class DeadlockReport:
    """Outcome of the abstract replay."""

    deadlocked: bool
    #: Circular waits: each cycle is the ordered rank list of one SCC.
    cycles: tuple[tuple[int, ...], ...]
    #: Ranks blocked on peers that terminated without the counterpart.
    orphans: tuple[BlockedRank, ...]
    #: Every permanently blocked rank (cycles + orphans + stuck behind).
    blocked: tuple[BlockedRank, ...]
    #: (src, dst, count) eager messages never received (clean runs only).
    undelivered: tuple[tuple[int, int, int], ...]
    #: Collective order mismatches: (collective #, description).
    collective_mismatches: tuple[tuple[int, str], ...]


class _Token:
    """Completion flag shared between a matcher entry and its owner."""

    __slots__ = ("matched",)

    def __init__(self) -> None:
        self.matched = False


@dataclass
class _Envelope:
    """A message announced at its destination, not yet received."""

    seq: int
    src: int
    tag: int
    rendezvous: bool
    token: _Token | None  # completion of the sender side (None = eager)


@dataclass
class _PostedRecv:
    """A receive posted at a rank, not yet matched."""

    seq: int
    src: int  # may be ANY_SOURCE
    tag: int  # may be ANY_TAG
    token: _Token


@dataclass
class _Cursor:
    """Position of one rank in the compacted communication-event lists."""

    pos: int  # absolute index into the flat comm-event lists
    stop: int
    issued_pos: int = -1  # pos whose posting side effects already ran
    block_token: _Token | None = None
    requests: dict[int, tuple[str, int, _Token]] = field(default_factory=dict)
    coll_index: int = 0

    @property
    def done(self) -> bool:
        return self.pos >= self.stop


class _Replay:
    """The abstract replay: FIFO matcher, run loop and post-mortem.

    One vectorised pass drops local events (compute, marker) and lifts
    the surviving communication events into flat Python lists — kind
    code, peer, tag, request id/count, reqpool offset, a precomputed
    eager flag, and the original within-rank event index (so blocked
    reports cite the rank's own event numbers).
    """

    def __init__(self, trace: ColumnarTrace, platform: PlatformConfig):
        self.nproc = nproc = trace.nproc
        self.envelopes: list[list[_Envelope]] = [[] for _ in range(nproc)]
        self.posted: list[list[_PostedRecv]] = [[] for _ in range(nproc)]
        self.seq = 0
        self.coll_arrived: dict[int, set[int]] = {}
        self.coll_ops: dict[int, tuple[str, int]] = {}
        self.coll_released: set[int] = set()
        self.coll_mismatches: list[tuple[int, str]] = []

        kind = trace.kind
        comm = np.flatnonzero((kind != K_COMPUTE) & (kind != K_MARKER))
        offsets = trace.offsets
        ranks_of = np.searchsorted(offsets, comm, side="right") - 1
        bounds = np.searchsorted(ranks_of, np.arange(nproc + 1))
        self.kindl = kind[comm].tolist()
        self.peerl = trace.peer[comm].tolist()
        self.tagl = trace.tag[comm].tolist()
        self.reql = trace.req[comm].tolist()
        self.auxl = trace.aux[comm].tolist()
        self.opl = trace.collop[comm].tolist()
        self.eagerl = (
            trace.size[comm] <= platform.eager_threshold
        ).tolist()
        self.recl = (comm - offsets[ranks_of]).tolist()
        self.reqpool = trace.reqpool.tolist()
        self.ranks = [
            _Cursor(pos=int(bounds[r]), stop=int(bounds[r + 1]))
            for r in range(nproc)
        ]

    # -- matching ------------------------------------------------------
    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    @staticmethod
    def _matches(recv: _PostedRecv, env: _Envelope) -> bool:
        src_ok = recv.src in (ANY_SOURCE, env.src)
        tag_ok = recv.tag in (ANY_TAG, env.tag)
        return src_ok and tag_ok

    def _deliver(self, dst: int, env: _Envelope) -> None:
        """A send arrives at ``dst``: pair with the oldest posted recv."""
        for i, recv in enumerate(self.posted[dst]):
            if self._matches(recv, env):
                del self.posted[dst][i]
                recv.token.matched = True
                if env.token is not None:
                    env.token.matched = True
                return
        self.envelopes[dst].append(env)

    def _post_recv(self, dst: int, recv: _PostedRecv) -> bool:
        """A recv is posted at ``dst``; True if it matched immediately."""
        for i, env in enumerate(self.envelopes[dst]):
            if self._matches(recv, env):
                del self.envelopes[dst][i]
                recv.token.matched = True
                if env.token is not None:
                    env.token.matched = True
                return True
        self.posted[dst].append(recv)
        return False

    def _arrive_collective(self, rank: int, k: int, op: str) -> None:
        """First arrival of ``rank`` at its k-th collective."""
        arrived = self.coll_arrived.setdefault(k, set())
        arrived.add(rank)
        if k not in self.coll_ops:
            self.coll_ops[k] = (op, rank)
        elif self.coll_ops[k][0] != op:
            op0, rank0 = self.coll_ops[k]
            self.coll_mismatches.append(
                (k, f"rank {rank0} calls {op0} but rank {rank} "
                    f"calls {op}")
            )
        if len(arrived) == self.nproc:
            self.coll_released.add(k)

    def _requests_of(self, i: int) -> tuple[int, ...]:
        """Request ids a wait/waitall event completes."""
        if self.kindl[i] == K_WAIT:
            return (self.reql[i],)
        lo = self.auxl[i]
        return tuple(self.reqpool[lo:lo + self.reql[i]])

    # -- per-event stepping --------------------------------------------
    def _step(self, rank: int) -> bool:
        """Try to retire the current event of ``rank``; True on advance."""
        state = self.ranks[rank]
        if state.done:
            return False
        i = state.pos
        k = self.kindl[i]
        first = state.issued_pos != i

        if k == K_SEND:
            if self.eagerl[i]:
                self._deliver(
                    self.peerl[i],
                    _Envelope(
                        self._next_seq(), rank, self.tagl[i], False, None
                    ),
                )
                state.pos += 1
                return True
            if first:
                token = _Token()
                state.block_token = token
                state.issued_pos = i
                self._deliver(
                    self.peerl[i],
                    _Envelope(
                        self._next_seq(), rank, self.tagl[i], True, token
                    ),
                )
            assert state.block_token is not None
            if state.block_token.matched:
                state.block_token = None
                state.pos += 1
                return True
            return False

        if k == K_ISEND:
            token = _Token()
            eager = self.eagerl[i]
            if eager:
                token.matched = True  # locally complete at once
            self._deliver(
                self.peerl[i],
                _Envelope(
                    self._next_seq(), rank, self.tagl[i], not eager,
                    None if eager else token,
                ),
            )
            state.requests[self.reql[i]] = ("isend", self.peerl[i], token)
            state.pos += 1
            return True

        if k == K_RECV:
            if first:
                token = _Token()
                state.block_token = token
                state.issued_pos = i
                self._post_recv(
                    rank,
                    _PostedRecv(
                        self._next_seq(), self.peerl[i], self.tagl[i], token
                    ),
                )
            assert state.block_token is not None
            if state.block_token.matched:
                state.block_token = None
                state.pos += 1
                return True
            return False

        if k == K_IRECV:
            token = _Token()
            self._post_recv(
                rank,
                _PostedRecv(
                    self._next_seq(), self.peerl[i], self.tagl[i], token
                ),
            )
            state.requests[self.reql[i]] = ("irecv", self.peerl[i], token)
            state.pos += 1
            return True

        if k in (K_WAIT, K_WAITALL):
            requests = self._requests_of(i)
            pending = [
                r for r in requests
                if r in state.requests and not state.requests[r][2].matched
            ]
            if pending:
                return False
            for r in requests:
                state.requests.pop(r, None)
            state.pos += 1
            return True

        if k == K_COLLECTIVE:
            kk = state.coll_index
            if first:
                state.issued_pos = i
                self._arrive_collective(
                    rank, kk, COLLECTIVE_OPS[self.opl[i]]
                )
            if kk in self.coll_released:
                state.coll_index += 1
                state.pos += 1
                return True
            return False

        raise TypeError(f"unknown kind code {k}")

    # -- post-mortem ---------------------------------------------------
    def _not_done_peers(self, rank: int) -> tuple[int, ...]:
        return tuple(
            r for r in range(self.nproc)
            if r != rank and not self.ranks[r].done
        )

    def _waits_on(self, rank: int) -> tuple[str, tuple[int, ...]]:
        """(description, rank targets) of a blocked rank's current event."""
        state = self.ranks[rank]
        i = state.pos
        k = self.kindl[i]
        peer = self.peerl[i]
        if k == K_SEND:
            return f"rendezvous send to rank {peer}", (peer,)
        if k == K_RECV:
            if peer == ANY_SOURCE:
                return "recv from any source", self._not_done_peers(rank)
            return f"recv from rank {peer}", (peer,)
        if k in (K_WAIT, K_WAITALL):
            targets: list[int] = []
            parts: list[str] = []
            for r in self._requests_of(i):
                entry = state.requests.get(r)
                if entry is None or entry[2].matched:
                    continue
                req_kind, req_peer, _ = entry
                if req_kind == "irecv" and req_peer == ANY_SOURCE:
                    targets.extend(self._not_done_peers(rank))
                    parts.append(f"wait on irecv(any) #{r}")
                else:
                    targets.append(req_peer)
                    parts.append(
                        f"wait on {req_kind} #{r} (peer rank {req_peer})"
                    )
            return "; ".join(parts) or "wait", tuple(dict.fromkeys(targets))
        if k == K_COLLECTIVE:
            kk = state.coll_index
            arrived = self.coll_arrived.get(kk, set())
            missing = tuple(
                r for r in range(self.nproc)
                if r != rank and r not in arrived
            )
            op = COLLECTIVE_OPS[self.opl[i]]
            return f"collective #{kk} ({op})", missing
        return f"{KIND_NAMES[k]}", ()

    def run(self) -> None:
        progress = True
        while progress:
            progress = False
            for rank in range(self.nproc):
                while self._step(rank):
                    progress = True

    def report(self) -> DeadlockReport:
        stuck = [r for r in range(self.nproc) if not self.ranks[r].done]

        blocked: list[BlockedRank] = []
        edges: dict[int, tuple[int, ...]] = {}
        for rank in stuck:
            description, targets = self._waits_on(rank)
            blocked.append(
                BlockedRank(
                    rank=rank,
                    index=self.recl[self.ranks[rank].pos],
                    description=description,
                    waits_on=targets,
                )
            )
            edges[rank] = tuple(t for t in targets if t in stuck)

        orphans = tuple(
            b for b in blocked
            if not edges[b.rank]  # every wait target already terminated
        )
        cycles = _cycles(edges)

        undelivered: list[tuple[int, int, int]] = []
        if not stuck:
            counts: dict[tuple[int, int], int] = {}
            for dst, envs in enumerate(self.envelopes):
                for env in envs:
                    key = (env.src, dst)
                    counts[key] = counts.get(key, 0) + 1
            undelivered = [
                (src, dst, n) for (src, dst), n in sorted(counts.items())
            ]

        return DeadlockReport(
            deadlocked=bool(stuck),
            cycles=cycles,
            orphans=orphans,
            blocked=tuple(blocked),
            undelivered=tuple(undelivered),
            collective_mismatches=tuple(self.coll_mismatches),
        )


def _cycles(edges: dict[int, tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Strongly connected components of size >= 2 (iterative Tarjan)."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    sccs: list[tuple[int, ...]] = []

    for start in sorted(edges):
        if start in index:
            continue
        work = [(start, iter(edges.get(start, ())))]
        index[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in edges:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) >= 2:
                    sccs.append(tuple(sorted(component)))
    return tuple(sorted(sccs))


def analyze_deadlock(
    trace: Trace | ColumnarTrace, platform: PlatformConfig | None = None
) -> DeadlockReport:
    """Run the abstract replay and summarise blocking structure.

    The replay runs on the trace's pooled columns (a record trace is
    converted first) without materialising record objects.  The result
    is conservative under wildcard receives (matching is resolved FIFO,
    one of the legal schedules); traces with any-source traffic are
    separately flagged by rule TR004.
    """
    from repro.netsim.platform import MYRINET_LIKE

    replay = _Replay(as_columnar(trace), platform or MYRINET_LIKE)
    replay.run()
    return replay.report()
