"""Compiled replay kernel: compile a world once, price assignments fast.

The DES (:class:`~repro.netsim.simulator.MpiSimulator`) re-executes the
whole generator/heap machinery for every frequency assignment even
though only compute-burst durations change between what-ifs.  This
module separates *understanding the world* from *pricing an
assignment*:

* :func:`compile_world` runs an abstract interpretation of the rank
  programs (a worklist over ranks, no virtual clock) and emits a flat
  instruction tape in dependency order: compute bursts with their base
  durations and β, point-to-point edges with pre-computed eager or
  rendezvous wire costs, collective barriers with their analytic cost,
  and wait joins resolved to the message slots they synchronise on.
* :class:`CompiledProgram.evaluate` replays the tape with plain float
  arithmetic (no event heap, no generators); ``evaluate_many`` replays
  it once for *K* assignments simultaneously with ``(K,)``-vectorised
  numpy lanes, which is what makes gear-set sweeps cheap.

Equivalence guarantee
---------------------
On the worlds it accepts, the kernel is *bit-identical* to the DES,
not merely close: every DES completion time is a max/plus formula over
compile-time constants (wire times, overheads, collective costs) and
frequency-scaled burst durations, and the tape replays those formulas
with the same operands in the same order (per-rank sequential
accumulation; no pairwise summation).  The capability check therefore
rejects — with :class:`UnsupportedWorldError` — exactly the features
that couple message pairing or costs to the timeline:

=========================================  ==============================
world feature                              why it needs the DES
=========================================  ==============================
``platform.buses`` contention              transfer cost depends on the
                                           global schedule
``platform.decompose_collectives``         emits timing-dependent p2p
``ANY_SOURCE`` / ``ANY_TAG`` receives      match depends on arrival order
mixed eager/rendezvous on one channel      matcher interleaving is
                                           timing-dependent
shrinking eager sizes on one channel       later sends could overtake
interval / trace recording                 DES-only instrumentation
=========================================  ==============================

Structurally broken worlds (mismatched send/recv counts, request
reuse, collective shape mismatch, cyclic blocking) raise
:class:`CompileError`; ``engine="auto"`` falls back to the DES so the
*authentic* runtime error (``DeadlockError``/``SimulationError``)
surfaces.  :meth:`CompiledProgram.assert_equivalent` is the validation
mode: it replays the same world through the DES and asserts exact
agreement of makespan and per-rank compute/comm/end times.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Any
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.timemodel import BetaTimeModel
from repro.netsim.collectives import collective_time
from repro.netsim.enginestats import add_engine_stats
from repro.netsim.platform import MYRINET_LIKE, PlatformConfig
from repro.netsim.record import Marker, RunResult
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
    ColumnarTrace,
)
from repro.traces.records import COLLECTIVE_OPS, Record
from repro.traces.trace import Trace

__all__ = [
    "CompileError",
    "CompiledProgram",
    "CompiledReplayEngine",
    "UnsupportedWorldError",
    "compile_columnar_world",
    "compile_world",
]


class UnsupportedWorldError(Exception):
    """The world needs DES features outside the compiled subset."""


class CompileError(UnsupportedWorldError):
    """The world is structurally broken; the DES owns the real error."""


# Instruction opcodes (tuples on the tape start with one of these).
_COMPUTE = 0        # (op, rank, burst_index)
_SEND_EAGER = 1     # (op, rank, slot)   blocking eager send or eager isend
_SEND_RDV_POST = 2  # (op, rank, slot)   blocking rendezvous send: post
_SEND_RDV_DONE = 3  # (op, rank, slot)   blocking rendezvous send: complete
_ISEND_RDV = 4      # (op, rank, slot)
_RECV_EAGER = 5     # (op, rank, slot)
_RECV_RDV = 6       # (op, rank, slot)
_IRECV_EAGER = 7    # (op, rank)
_IRECV_RDV = 8      # (op, rank, slot)
_WAIT = 9           # (op, rank, ((valkind, slot), ...))
_COLL = 10          # (op, coll_index)
_MARKER = 11        # (op, rank, label, iteration)

#: wait-value kinds: eager arrival slot vs rendezvous max(sp,rp)+wire.
_VAL_ARR = 0
_VAL_RDV = 1

#: Origin of an outstanding nonblocking request, packed into the low
#: two bits of the requests-dict value (``mid << 2 | origin``).
_REQ_ISE = 0   # eager isend: complete on post
_REQ_ISR = 1   # rendezvous isend
_REQ_IRE = 2   # eager irecv
_REQ_IRR = 3   # rendezvous irecv

#: Instructions between release_pages() hints while compiling a
#: memory-mapped world.  The advance worklist touches every rank's
#: column pages once per pass, so the resident window grows at the
#: emit rate between hints — a short stride is what actually caps the
#: compiler's RSS, and madvise() is cheap at this cadence (~125 calls
#: per million instructions).
_RELEASE_INTERVAL = 1 << 16

#: Burst-axis block for chunked frequency sweeps (see
#: ``CompiledProgram.evaluate_many``).  Deliberately much larger than
#: the release stride: it bounds vectorised temporaries, not pages.
_BURST_BLOCK = 1 << 20


class _MsgArena:
    """All pre-paired point-to-point messages, struct-of-arrays.

    One logical message used to be a ``_Msg`` object (~100 B with its
    GC header); at 100k-rank scale the million-plus messages of a
    single world made the *compiler's* working set rival the columns
    it was trying not to copy.  The arena stores the same five fields
    as parallel flat arrays (~9 B per message) and a message is just an
    index.  Messages of one channel are contiguous: channel ``cid``
    owns indices ``[base[cid], base[cid] + count[cid])`` and the k-th
    send on the channel pairs with the k-th recv, exactly as before.
    """

    __slots__ = ("eager", "slot", "sender_done", "sender_posted",
                 "recv_posted")

    def __init__(self) -> None:
        self.eager = bytearray()          # 1 = eager, 0 = rendezvous
        self.slot = array("i")            # index into wire_eager / wire_rdv
        self.sender_done = bytearray()    # eager: wire arrival on the tape
        self.sender_posted = bytearray()  # rendezvous: sp slot written
        self.recv_posted = bytearray()    # rendezvous: rp slot written

    def add(self, eager: bool, slot: int) -> None:
        self.eager.append(1 if eager else 0)
        self.slot.append(slot)
        self.sender_done.append(0)
        self.sender_posted.append(0)
        self.recv_posted.append(0)


class _Channels:
    """Channel table from :func:`_scan_channels` (indices, not objects)."""

    __slots__ = ("ids", "base", "count", "arena", "wire_eager", "wire_rdv")

    def __init__(
        self,
        ids: dict[int, int],
        base: array,
        count: array,
        arena: _MsgArena,
        wire_eager: array,
        wire_rdv: array,
    ):
        self.ids = ids            # encoded (src, dst, tag) -> cid
        self.base = base          # cid -> first message index
        self.count = count        # cid -> message count
        self.arena = arena
        self.wire_eager = wire_eager
        self.wire_rdv = wire_rdv


class _Coll:
    """One collective instance, filled as ranks arrive at compile time."""

    __slots__ = ("op", "root", "nbytes", "arrived", "emitted")

    def __init__(self, op: str, root: int):
        self.op = op
        self.root = root
        self.nbytes = 0
        self.arrived = 0
        self.emitted = False


def _check_platform(platform: PlatformConfig) -> None:
    """Reject platform features that couple costs to the timeline."""
    if platform.buses:
        raise UnsupportedWorldError(
            "bus contention couples wire time to the global schedule; "
            "DES required"
        )
    if platform.decompose_collectives:
        raise UnsupportedWorldError(
            "decomposed collectives emit timing-dependent point-to-point "
            "rounds; DES required"
        )


#: Encoded channel keys: ``(src*nproc + dst) * 2**32 + (tag + 2**31)``.
#: One small-int key per channel instead of a 3-tuple — the channel
#: dict is the only per-channel Python structure the compiler keeps.
_TAG_BIAS = 1 << 31
_TAG_SPAN = 1 << 32


def _enc_key(src: int, dst: int, tag: int, nproc: int) -> int:
    return (src * nproc + dst) * _TAG_SPAN + (tag + _TAG_BIAS)


def _scan_channels(
    world: ColumnarTrace, platform: PlatformConfig
) -> _Channels:
    """Pair every p2p message and fix its protocol + wire cost.

    With wildcards rejected, the DES matcher pairs the k-th send on a
    (src, dst, tag) channel with the k-th recv posted for it — FIFO on
    both sides — *provided* pairing cannot depend on timing.  That
    holds when a channel speaks one protocol and eager arrivals cannot
    overtake (non-decreasing sizes ⇒ non-decreasing wire times).

    Zero-copy: reads the (possibly memory-mapped) columns through
    per-rank views; the only per-event state kept is one flat
    (channel-id, size) pair per send, later regrouped by a stable sort
    — channel ids are assigned in first-send order, so grouped order
    is exactly the old ``sends.items()`` insertion order and wire-slot
    numbering is unchanged bit for bit.
    """
    nproc = world.nproc
    offsets = world.offsets
    kind_col = world.kind
    peer_col = world.peer
    tag_col = world.tag
    size_col = world.size

    chan_ids: dict[int, int] = {}
    chan_src = array("i")
    chan_dst = array("i")
    chan_tag = array("i")
    send_cid = array("q")   # per send, in global scan order
    send_size = array("q")
    recv_counts: dict[int, int] = {}

    next_release = _RELEASE_INTERVAL
    for rank in range(nproc):
        lo, hi = int(offsets[rank]), int(offsets[rank + 1])
        if hi >= next_release:
            # keep the resident window of mapped column pages bounded
            # even though the scan walks every rank front to back
            world.release_pages()
            next_release = hi + _RELEASE_INTERVAL
        if lo == hi:
            continue
        kinds = kind_col[lo:hi]
        p2p = np.flatnonzero((kinds >= K_SEND) & (kinds <= K_IRECV))
        if p2p.size == 0:
            continue
        kk = kinds[p2p].tolist()
        pp = peer_col[lo:hi][p2p].tolist()
        tt = tag_col[lo:hi][p2p].tolist()
        ss = size_col[lo:hi][p2p].tolist()
        for k, peer, tag, nb in zip(kk, pp, tt, ss):
            if k == K_SEND or k == K_ISEND:
                if peer == rank:
                    raise CompileError(f"rank {rank}: self-send")
                enc = _enc_key(rank, peer, tag, nproc)
                cid = chan_ids.get(enc)
                if cid is None:
                    cid = len(chan_ids)
                    chan_ids[enc] = cid
                    chan_src.append(rank)
                    chan_dst.append(peer)
                    chan_tag.append(tag)
                send_cid.append(cid)
                send_size.append(nb)
            else:
                if peer < 0 or tag < 0:
                    raise UnsupportedWorldError(
                        f"rank {rank}: ANY_SOURCE/ANY_TAG receive — matching "
                        "depends on arrival order; DES required"
                    )
                if peer == rank:
                    raise CompileError(f"rank {rank}: self-recv")
                enc = _enc_key(peer, rank, tag, nproc)
                recv_counts[enc] = recv_counts.get(enc, 0) + 1

    nchan = len(chan_ids)
    chan_nrecv = np.zeros(nchan, dtype=np.int64)
    for enc, cnt in recv_counts.items():
        cid = chan_ids.get(enc)
        if cid is None:
            src, rest = divmod(enc, _TAG_SPAN)
            key = (src // nproc, src % nproc, rest - _TAG_BIAS)
            raise CompileError(
                f"channel {key}: {cnt} recv(s) but no sends"
            )
        chan_nrecv[cid] = cnt
    del recv_counts

    arena = _MsgArena()
    wire_eager = array("d")
    wire_rdv = array("d")
    chan_base = array("q", bytes(8 * (nchan or 1)))[:nchan]
    chan_count = array("i", bytes(4 * (nchan or 1)))[:nchan]
    if nchan == 0:
        return _Channels(chan_ids, chan_base, chan_count, arena,
                         wire_eager, wire_rdv)

    cids = np.frombuffer(send_cid, dtype=np.int64)
    sizes_all = np.frombuffer(send_size, dtype=np.int64)
    order = np.argsort(cids, kind="stable")
    sorted_sizes = sizes_all[order]
    counts = np.bincount(cids, minlength=nchan)
    bases = np.zeros(nchan, dtype=np.int64)
    np.cumsum(counts[:-1], out=bases[1:])
    del cids, sizes_all, order, send_cid, send_size

    def _key(cid: int) -> tuple[int, int, int]:
        return (chan_src[cid], chan_dst[cid], chan_tag[cid])

    threshold = platform.eager_threshold
    eager_all = sorted_sizes <= threshold
    n_eager = np.add.reduceat(eager_all, bases)
    mixed = (n_eager > 0) & (n_eager < counts)
    decreasing = np.zeros(nchan, dtype=bool)
    if sorted_sizes.shape[0] > 1:
        rep = np.repeat(np.arange(nchan, dtype=np.int64), counts)
        pair_bad = (
            (sorted_sizes[1:] < sorted_sizes[:-1]) & (rep[1:] == rep[:-1])
        )
        decreasing[rep[1:][pair_bad]] = True
        decreasing &= n_eager == counts
        del rep
    mismatch = counts != chan_nrecv
    bad = mismatch | mixed | decreasing
    if bad.any():
        cid = int(np.argmax(bad))
        key = _key(cid)
        if mismatch[cid]:
            raise CompileError(
                f"channel {key}: {int(counts[cid])} send(s) vs "
                f"{int(chan_nrecv[cid])} recv(s)"
            )
        if mixed[cid]:
            raise UnsupportedWorldError(
                f"channel {key}: mixes eager and rendezvous messages — "
                "matcher interleaving is timing-dependent; DES required"
            )
        raise UnsupportedWorldError(
            f"channel {key}: eager sizes decrease in program order — "
            "later messages could overtake; DES required"
        )

    transfer_time = platform.transfer_time
    pos = 0
    for cid in range(nchan):
        chan_base[cid] = pos
        cnt = int(counts[cid])
        chan_count[cid] = cnt
        src = chan_src[cid]
        dst = chan_dst[cid]
        # unbox per channel, not per world: a single world-sized
        # tolist() boxes millions of ints whose allocator arenas stay
        # resident long after the list dies
        sizes_list = sorted_sizes[pos : pos + cnt].tolist()
        eager_list = eager_all[pos : pos + cnt].tolist()
        for nb, is_eager in zip(sizes_list, eager_list):
            wire = transfer_time(nb, src, dst)
            if is_eager:
                arena.add(True, len(wire_eager))
                wire_eager.append(wire)
            else:
                arena.add(False, len(wire_rdv))
                wire_rdv.append(wire)
        pos += cnt
    return _Channels(chan_ids, chan_base, chan_count, arena,
                     wire_eager, wire_rdv)


def compile_world(
    programs: Sequence[Iterable[Record]],
    platform: PlatformConfig | None = None,
    time_model: BetaTimeModel | None = None,
) -> "CompiledProgram":
    """Compile one record-object world into a :class:`CompiledProgram`.

    Lowers the rank programs to columnar form and hands off to the one
    shared compile core (:func:`compile_columnar_world` enters the same
    core directly), so the two storage representations compile to the
    same tape by construction.

    Raises :class:`UnsupportedWorldError` when the world needs the DES
    (see the module capability matrix) and :class:`CompileError` when
    it is structurally invalid — ``engine="auto"`` treats both as
    "route to the DES".
    """
    platform = platform or MYRINET_LIKE
    time_model = time_model or BetaTimeModel(fmax=2.3)
    mats = [list(p) for p in programs]
    if len(mats) == 0:
        raise CompileError("need at least one rank program")
    _check_platform(platform)
    try:
        world = ColumnarTrace.from_streams(mats)
    except ValueError as exc:
        raise CompileError(str(exc)) from None
    return _compile_columns(world, platform, time_model, mats)


def compile_columnar_world(
    world: ColumnarTrace,
    platform: PlatformConfig | None = None,
    time_model: BetaTimeModel | None = None,
) -> "CompiledProgram":
    """Compile a :class:`ColumnarTrace` without materialising records.

    The instruction tape is built straight from the pooled columns, so
    a 32k-rank world compiles without ever allocating per-event record
    objects.  Same error contract as :func:`compile_world`.
    """
    platform = platform or MYRINET_LIKE
    time_model = time_model or BetaTimeModel(fmax=2.3)
    _check_platform(platform)
    return _compile_columns(world, platform, time_model, world)


def _compile_columns(
    world: ColumnarTrace,
    platform: PlatformConfig,
    time_model: BetaTimeModel,
    programs: "list[list[Record]] | ColumnarTrace",
) -> "CompiledProgram":
    """The one compile core: columns in, instruction tape out.

    ``programs`` is whatever representation the caller wants kept for
    DES cross-validation (:meth:`CompiledProgram.assert_equivalent`).
    """
    nproc = world.nproc
    offsets = world.offsets.tolist()   # nproc+1 entries; never event-sized
    kinds = world.kind
    durations = world.duration
    betas = world.beta
    peers = world.peer
    tags = world.tag
    sizes_col = world.size
    reqs = world.req
    auxs = world.aux
    labels = world.label
    collops = world.collop
    reqpool = world.reqpool
    strings = world.strings

    ch = _scan_channels(world, platform)
    world.release_pages()  # scan touched every p2p column; drop the pages
    chan_ids = ch.ids
    chan_base = ch.base
    chan_count = ch.count
    msg_eager = ch.arena.eager
    msg_slot = ch.arena.slot
    sender_done = ch.arena.sender_done
    sender_posted = ch.arena.sender_posted
    recv_posted = ch.arena.recv_posted
    nchan = len(chan_ids)
    send_k = array("i", bytes(4 * nchan)) if nchan else array("i")
    recv_k = array("i", bytes(4 * nchan)) if nchan else array("i")

    # struct-of-arrays instruction tape (see CompiledProgram)
    codes = bytearray()
    arg1 = array("i")
    arg2 = array("i")
    wait_off = array("q", [0])
    wait_kind = bytearray()
    wait_slot = array("i")
    marker_label: list[str] = []
    marker_iter = array("i")
    dur = array("d")
    beta = array("d")
    brank = array("i")
    coll_costs = array("d")
    colls: list[_Coll] = []

    pos = offsets[:nproc]          # per-rank cursor (global event index)
    ends = offsets[1:]
    pending_rdv: list[int | None] = [None] * nproc   # message index
    coll_idx = [0] * nproc
    coll_counted = [False] * nproc
    # Outstanding nonblocking requests in one flat dict for the whole
    # world: key = req * nproc + rank (bijective over (req, rank)),
    # value = mid << 2 | origin.  A dict per rank plus a tuple per
    # entry keeps tens of MB of tiny objects live at 100k-rank scale.
    requests: dict[int, int] = {}
    outstanding = [0] * nproc
    default_beta = time_model.beta

    def _next_msg(cid: int, counters: array) -> int:
        k = counters[cid]
        counters[cid] = k + 1
        return chan_base[cid] + k

    def _register(rank: int, req: int, entry: int) -> None:
        key = req * nproc + rank
        if key in requests:
            raise CompileError(f"rank {rank}: request id {req} reused")
        requests[key] = entry
        outstanding[rank] += 1

    def _req_ready(entry: int) -> bool:
        origin = entry & 3
        if origin == _REQ_ISE:
            return True
        mid = entry >> 2
        if origin == _REQ_ISR:
            return recv_posted[mid] != 0
        if origin == _REQ_IRE:
            return sender_done[mid] != 0
        return sender_posted[mid] != 0  # _REQ_IRR

    def _req_val(entry: int) -> tuple[int, int] | None:
        origin = entry & 3
        if origin == _REQ_ISE:  # eager isend buffers: completes on post
            return None
        if origin == _REQ_IRE:
            return (_VAL_ARR, msg_slot[entry >> 2])
        return (_VAL_RDV, msg_slot[entry >> 2])

    def _advance(rank: int) -> bool:
        """Emit as many of this rank's instructions as dependencies allow."""
        emitted = False
        end = ends[rank]
        while True:
            blocked_mid = pending_rdv[rank]
            if blocked_mid is not None:
                if not recv_posted[blocked_mid]:
                    return emitted
                codes.append(_SEND_RDV_DONE)
                arg1.append(rank)
                arg2.append(msg_slot[blocked_mid])
                pending_rdv[rank] = None
                emitted = True
            g = pos[rank]
            if g >= end:
                if outstanding[rank]:
                    leftover = sorted(
                        key // nproc for key in requests
                        if key % nproc == rank
                    )
                    raise CompileError(
                        f"rank {rank} finished with outstanding requests "
                        f"{leftover}"
                    )
                return emitted
            kind = kinds[g]

            if kind == K_COMPUTE:
                codes.append(_COMPUTE)
                arg1.append(rank)
                arg2.append(len(dur))
                dur.append(durations[g])
                b = betas[g]
                beta.append(default_beta if b != b else b)  # NaN ⇒ default
                brank.append(rank)

            elif kind == K_MARKER:
                codes.append(_MARKER)
                arg1.append(rank)
                arg2.append(len(marker_iter))
                marker_label.append(strings[labels[g]])
                marker_iter.append(int(auxs[g]))

            elif kind == K_SEND:
                enc = _enc_key(rank, int(peers[g]), int(tags[g]), nproc)
                mid = _next_msg(chan_ids[enc], send_k)
                if msg_eager[mid]:
                    codes.append(_SEND_EAGER)
                    arg1.append(rank)
                    arg2.append(msg_slot[mid])
                    sender_done[mid] = 1
                else:
                    codes.append(_SEND_RDV_POST)
                    arg1.append(rank)
                    arg2.append(msg_slot[mid])
                    sender_posted[mid] = 1
                    pending_rdv[rank] = mid
                    pos[rank] = g + 1
                    emitted = True
                    continue  # completion handled at the top of the loop

            elif kind == K_ISEND:
                enc = _enc_key(rank, int(peers[g]), int(tags[g]), nproc)
                mid = _next_msg(chan_ids[enc], send_k)
                if msg_eager[mid]:
                    _register(rank, int(reqs[g]), mid << 2 | _REQ_ISE)
                    codes.append(_SEND_EAGER)
                    arg1.append(rank)
                    arg2.append(msg_slot[mid])
                    sender_done[mid] = 1
                else:
                    _register(rank, int(reqs[g]), mid << 2 | _REQ_ISR)
                    codes.append(_ISEND_RDV)
                    arg1.append(rank)
                    arg2.append(msg_slot[mid])
                    sender_posted[mid] = 1

            elif kind == K_RECV:
                src, tag = int(peers[g]), int(tags[g])
                enc = _enc_key(src, rank, tag, nproc)
                cid = chan_ids.get(enc)
                if cid is None or recv_k[cid] >= chan_count[cid]:
                    key = (src, rank, tag)
                    raise CompileError(f"channel {key}: recv without a send")
                mid = _next_msg(cid, recv_k)
                if msg_eager[mid]:
                    if not sender_done[mid]:
                        recv_k[cid] -= 1
                        return emitted
                    codes.append(_RECV_EAGER)
                    arg1.append(rank)
                    arg2.append(msg_slot[mid])
                else:
                    if not sender_posted[mid]:
                        recv_k[cid] -= 1
                        return emitted
                    codes.append(_RECV_RDV)
                    arg1.append(rank)
                    arg2.append(msg_slot[mid])
                    recv_posted[mid] = 1

            elif kind == K_IRECV:
                enc = _enc_key(int(peers[g]), rank, int(tags[g]), nproc)
                mid = _next_msg(chan_ids[enc], recv_k)
                if msg_eager[mid]:
                    _register(rank, int(reqs[g]), mid << 2 | _REQ_IRE)
                    codes.append(_IRECV_EAGER)
                    arg1.append(rank)
                    arg2.append(0)
                else:
                    _register(rank, int(reqs[g]), mid << 2 | _REQ_IRR)
                    codes.append(_IRECV_RDV)
                    arg1.append(rank)
                    arg2.append(msg_slot[mid])
                    recv_posted[mid] = 1

            elif kind == K_WAIT or kind == K_WAITALL:
                if kind == K_WAIT:
                    ids: tuple[int, ...] = (int(reqs[g]),)
                else:
                    lo = int(auxs[g])
                    ids = tuple(reqpool[lo : lo + int(reqs[g])].tolist())
                entries = []
                for req in ids:
                    entry = requests.get(req * nproc + rank)
                    if entry is None:
                        raise CompileError(
                            f"rank {rank}: wait on unknown request {req}"
                        )
                    entries.append(entry)
                if not all(_req_ready(e) for e in entries):
                    return emitted
                codes.append(_WAIT)
                arg1.append(rank)
                arg2.append(len(wait_off) - 1)
                for e in entries:
                    v = _req_val(e)
                    if v is not None:
                        wait_kind.append(v[0])
                        wait_slot.append(v[1])
                wait_off.append(len(wait_slot))
                for req in ids:
                    del requests[req * nproc + rank]
                outstanding[rank] -= len(ids)

            elif kind == K_COLLECTIVE:
                op_name = COLLECTIVE_OPS[collops[g]]
                root = int(peers[g])
                index = coll_idx[rank]
                while index >= len(colls):
                    colls.append(_Coll(op_name, root))
                inst = colls[index]
                if inst.op != op_name or inst.root != root:
                    raise CompileError(
                        f"collective mismatch at instance {index}: rank "
                        f"{rank} calls {op_name}(root={root}) but earlier "
                        f"ranks called {inst.op}(root={inst.root})"
                    )
                if not coll_counted[rank]:
                    nb = int(sizes_col[g])
                    if nb > inst.nbytes:
                        inst.nbytes = nb
                    inst.arrived += 1
                    coll_counted[rank] = True
                    if inst.arrived == nproc:
                        try:
                            cost = collective_time(
                                inst.op, inst.nbytes, nproc, platform
                            )
                        except Exception as exc:
                            raise CompileError(
                                f"collective {inst.op}: {exc}"
                            ) from None
                        codes.append(_COLL)
                        arg1.append(len(coll_costs))
                        arg2.append(0)
                        coll_costs.append(cost)
                        inst.emitted = True
                        emitted = True
                if not inst.emitted:
                    return emitted
                coll_idx[rank] += 1
                coll_counted[rank] = False
                pos[rank] = g + 1
                continue

            else:
                raise CompileError(
                    f"rank {rank}: unknown record kind code {kind}"
                )

            pos[rank] = g + 1
            emitted = True

    next_release = _RELEASE_INTERVAL
    remaining = True
    while remaining:
        progress = False
        remaining = False
        for rank in range(nproc):
            if _advance(rank):
                progress = True
            if pos[rank] < ends[rank] or pending_rdv[rank] is not None:
                remaining = True
            if len(codes) >= next_release:
                # release inside the pass: a single worklist sweep can
                # emit most of the world, so waiting for the pass
                # boundary would let every column page go resident
                world.release_pages()
                next_release = len(codes) + _RELEASE_INTERVAL
        if remaining and not progress:
            stuck = [
                r for r in range(nproc)
                if pos[r] < ends[r] or pending_rdv[r] is not None
            ]
            raise CompileError(
                f"compile-time deadlock: ranks {stuck} cannot progress"
            )

    world.release_pages()
    add_engine_stats(compiled_compiles=1)
    return CompiledProgram(
        nproc=nproc,
        platform=platform,
        time_model=time_model,
        codes=codes,
        arg1=arg1,
        arg2=arg2,
        wait_off=wait_off,
        wait_kind=wait_kind,
        wait_slot=wait_slot,
        marker_label=marker_label,
        marker_iter=marker_iter,
        dur=dur,
        beta=beta,
        brank=brank,
        wire_eager=ch.wire_eager,
        wire_rdv=ch.wire_rdv,
        coll_costs=coll_costs,
        programs=programs,
    )


def _pool_view(arr: array, dtype: Any) -> np.ndarray:
    """Zero-copy numpy view over an ``array.array`` constant pool."""
    if len(arr) == 0:
        return np.empty(0, dtype=dtype)
    return np.frombuffer(arr, dtype=dtype)


class CompiledProgram:
    """A compiled world: an instruction tape plus its constant pools.

    ``evaluate`` prices one frequency vector bit-identically to the
    DES; ``evaluate_many`` prices a ``(K, nproc)`` batch in one tape
    pass.  Programs are immutable and reusable across any number of
    evaluations (the whole point).

    The tape is struct-of-arrays: one opcode byte plus two int32
    arguments per instruction (~9 B), with wait join lists, marker
    payloads and burst constants in flat side pools — the tuple tape it
    replaced cost ~20× that in boxed objects, which mattered once
    100k-rank worlds stopped paying for column copies.  The legacy
    tuple view is still available as :attr:`instrs` (materialised
    lazily; tests and debuggers read it, the evaluators never do).
    """

    def __init__(
        self,
        nproc: int,
        platform: PlatformConfig,
        time_model: BetaTimeModel,
        codes: bytearray,
        arg1: array,
        arg2: array,
        wait_off: array,
        wait_kind: bytearray,
        wait_slot: array,
        marker_label: list[str],
        marker_iter: array,
        dur: array,
        beta: array,
        brank: array,
        wire_eager: array,
        wire_rdv: array,
        coll_costs: array,
        programs: "list[list[Record]] | ColumnarTrace",
    ):
        self.nproc = nproc
        self.platform = platform
        self.time_model = time_model
        self._codes = codes
        self._arg1 = arg1
        self._arg2 = arg2
        self._wait_off = wait_off
        self._wait_kind = wait_kind
        self._wait_slot = wait_slot
        self._marker_label = marker_label
        self._marker_iter = marker_iter
        self._dur = dur
        self._beta = beta
        self._brank = brank
        self._wire_eager = wire_eager
        self._wire_rdv = wire_rdv
        self._coll_costs = coll_costs
        # DES cross-validation source; CompiledReplayEngine.compile_trace
        # swaps a trace it caches the program on for a weak reference
        self._programs: Any = programs
        self._instrs_cache: tuple[tuple[Any, ...], ...] | None = None
        # numpy constant pools for the batch VM (views, not copies)
        self._np_dur = _pool_view(dur, float)
        self._np_beta = _pool_view(beta, float)
        self._np_brank = _pool_view(brank, np.int32)

    @property
    def n_instructions(self) -> int:
        return len(self._codes)

    @property
    def instrs(self) -> tuple[tuple[Any, ...], ...]:
        """The tape as legacy instruction tuples (lazy; debug/tests)."""
        cached = self._instrs_cache
        if cached is None:
            cached = self._materialise_instrs()
            self._instrs_cache = cached
        return cached

    def _materialise_instrs(self) -> tuple[tuple[Any, ...], ...]:
        codes, a1, a2 = self._codes, self._arg1, self._arg2
        woff, wkind, wslot = self._wait_off, self._wait_kind, self._wait_slot
        mlabel, miter = self._marker_label, self._marker_iter
        out: list[tuple[Any, ...]] = []
        for i in range(len(codes)):
            code = codes[i]
            if code == _WAIT:
                wid = a2[i]
                vals = tuple(
                    (wkind[j], wslot[j])
                    for j in range(woff[wid], woff[wid + 1])
                )
                out.append((code, a1[i], vals))
            elif code == _MARKER:
                mid = a2[i]
                out.append((code, a1[i], mlabel[mid], miter[mid]))
            elif code == _COLL:
                out.append((code, a1[i]))
            elif code == _IRECV_EAGER:
                out.append((code, a1[i]))
            else:
                out.append((code, a1[i], a2[i]))
        return tuple(out)

    # ------------------------------------------------------------------
    def _normalize(self, frequencies: Any) -> np.ndarray | None:
        from repro.netsim.simulator import MpiSimulator

        return MpiSimulator._normalize_frequencies(frequencies, self.nproc)

    def evaluate(
        self,
        frequencies: Sequence[float] | float | None = None,
        meta: dict[str, Any] | None = None,
    ) -> RunResult:
        """Price one assignment; returns a DES-identical RunResult."""
        freqs = self._normalize(frequencies)
        start = perf_counter()
        nproc = self.nproc
        if freqs is None:
            sdur: Sequence[float] = self._dur
        else:
            fmax = self.time_model.fmax
            # same operand order as timemodel.time_ratio, per burst
            r1 = [fmax / float(freqs[r]) - 1.0 for r in range(nproc)]
            dur, bet, brk = self._dur, self._beta, self._brank
            sdur = [
                dur[j] * (bet[j] * r1[brk[j]] + 1.0) for j in range(len(dur))
            ]
        t = [0.0] * nproc
        comp = [0.0] * nproc
        comm = [0.0] * nproc
        arr = [0.0] * len(self._wire_eager)
        sp = [0.0] * len(self._wire_rdv)
        rp = [0.0] * len(self._wire_rdv)
        markers: list[list[Marker]] = [[] for _ in range(nproc)]
        wire_e, wire_r = self._wire_eager, self._wire_rdv
        costs = self._coll_costs
        send_ov = self.platform.send_overhead
        recv_ov = self.platform.recv_overhead
        ranks = range(nproc)
        codes, a1, a2 = self._codes, self._arg1, self._arg2
        woff, wkind, wslot = self._wait_off, self._wait_kind, self._wait_slot
        mlabel, miter = self._marker_label, self._marker_iter

        for i in range(len(codes)):
            code = codes[i]
            if code == _COMPUTE:
                r = a1[i]
                t0 = t[r]
                nt = t0 + sdur[a2[i]]
                comp[r] += nt - t0
                t[r] = nt
            elif code == _SEND_EAGER:
                r, m = a1[i], a2[i]
                t0 = t[r]
                arr[m] = t0 + wire_e[m]
                nt = t0 + send_ov
                comm[r] += nt - t0
                t[r] = nt
            elif code == _RECV_EAGER:
                r, m = a1[i], a2[i]
                t0 = t[r]
                tr = t0 + recv_ov
                a = arr[m]
                nt = tr if tr >= a else a
                comm[r] += nt - t0
                t[r] = nt
            elif code == _WAIT:
                r = a1[i]
                t0 = t[r]
                cur = t0
                wid = a2[i]
                for j in range(woff[wid], woff[wid + 1]):
                    m = wslot[j]
                    if wkind[j] == _VAL_ARR:
                        val = arr[m]
                    else:
                        s, p = sp[m], rp[m]
                        val = (s if s >= p else p) + wire_r[m]
                    if val > cur:
                        cur = val
                comm[r] += cur - t0
                t[r] = cur
            elif code == _COLL:
                lv = max(t) + costs[a1[i]]
                for r in ranks:
                    comm[r] += lv - t[r]
                    t[r] = lv
            elif code == _SEND_RDV_POST:
                sp[a2[i]] = t[a1[i]]
            elif code == _SEND_RDV_DONE:
                r, m = a1[i], a2[i]
                t0 = t[r]
                s, p = sp[m], rp[m]
                nt = (s if s >= p else p) + wire_r[m]
                comm[r] += nt - t0
                t[r] = nt
            elif code == _ISEND_RDV:
                r, m = a1[i], a2[i]
                t0 = t[r]
                sp[m] = t0
                nt = t0 + send_ov
                comm[r] += nt - t0
                t[r] = nt
            elif code == _RECV_RDV:
                r, m = a1[i], a2[i]
                t0 = t[r]
                tr = t0 + recv_ov
                rp[m] = tr
                s = sp[m]
                nt = (s if s >= tr else tr) + wire_r[m]
                comm[r] += nt - t0
                t[r] = nt
            elif code == _IRECV_EAGER:
                r = a1[i]
                t0 = t[r]
                nt = t0 + recv_ov
                comm[r] += nt - t0
                t[r] = nt
            elif code == _IRECV_RDV:
                r, m = a1[i], a2[i]
                t0 = t[r]
                rp[m] = t0
                nt = t0 + recv_ov
                comm[r] += nt - t0
                t[r] = nt
            else:  # _MARKER
                r = a1[i]
                mid = a2[i]
                markers[r].append(Marker(t[r], mlabel[mid], miter[mid]))

        end_times = np.array(t)
        elapsed = perf_counter() - start
        add_engine_stats(
            compiled_runs=1,
            compiled_evaluations=1,
            compiled_instructions=len(codes),
            compiled_seconds=elapsed,
        )
        return RunResult(
            execution_time=float(end_times.max(initial=0.0)),
            compute_times=np.array(comp),
            comm_times=np.array(comm),
            end_times=end_times,
            events=len(codes),
            intervals=None,
            markers=markers,
            trace=None,
            meta=meta or {},
            engine="compiled",
        )

    # ------------------------------------------------------------------
    def evaluate_many(
        self, frequencies: Any, *, burst_block: int | None = None
    ) -> dict[str, np.ndarray]:
        """Price K assignments in one vectorised tape pass.

        ``frequencies`` is a ``(K, nproc)`` array-like of per-rank GHz.
        Returns ``execution_time`` ``(K,)`` plus per-rank
        ``compute_times`` / ``comm_times`` / ``end_times`` ``(K,
        nproc)`` — each row bit-identical to :meth:`evaluate` (markers
        are not materialised in batch mode).

        ``burst_block`` bounds the duration-scaling *temporaries* to
        ``O(K × burst_block)`` by filling the scaled-duration pool in
        fixed-size slices along the burst axis.  Blocking cannot change
        results — the scaling is elementwise, so every slice computes
        the same operations on the same operands — it only matters for
        out-of-core worlds where three full ``(K, nbursts)`` gather
        temporaries would rival the mapped columns they avoid.
        """
        fmat = np.asarray(frequencies, dtype=float)
        if fmat.ndim != 2 or fmat.shape[1] != self.nproc:
            raise ValueError(
                f"frequency matrix shape {fmat.shape} does not match "
                f"(K, nproc={self.nproc})"
            )
        if (fmat <= 0.0).any():
            raise ValueError("frequencies must be positive")
        start = perf_counter()
        K = fmat.shape[0]
        nproc = self.nproc
        r1 = self.time_model.fmax / fmat - 1.0            # (K, nproc)
        nbursts = self._np_dur.shape[0]
        if burst_block is None or burst_block >= nbursts:
            ratio = self._np_beta * r1[:, self._np_brank] + 1.0
            sdur = self._np_dur * ratio                    # (K, nbursts)
            del ratio
        else:
            sdur = np.empty((K, nbursts))
            for lo in range(0, nbursts, burst_block):
                hi = lo + burst_block
                sdur[:, lo:hi] = self._np_dur[lo:hi] * (
                    self._np_beta[lo:hi] * r1[:, self._np_brank[lo:hi]]
                    + 1.0
                )
        t = np.zeros((K, nproc))
        comp = np.zeros((K, nproc))
        comm = np.zeros((K, nproc))
        arr = np.zeros((K, len(self._wire_eager)))
        sp = np.zeros((K, len(self._wire_rdv)))
        rp = np.zeros((K, len(self._wire_rdv)))
        wire_e, wire_r = self._wire_eager, self._wire_rdv
        costs = self._coll_costs
        send_ov = self.platform.send_overhead
        recv_ov = self.platform.recv_overhead
        maximum = np.maximum
        codes, a1, a2 = self._codes, self._arg1, self._arg2
        woff, wkind, wslot = self._wait_off, self._wait_kind, self._wait_slot

        for i in range(len(codes)):
            code = codes[i]
            if code == _COMPUTE:
                r = a1[i]
                col = t[:, r]
                nt = col + sdur[:, a2[i]]
                comp[:, r] += nt - col
                t[:, r] = nt
            elif code == _SEND_EAGER:
                r, m = a1[i], a2[i]
                col = t[:, r]
                arr[:, m] = col + wire_e[m]
                nt = col + send_ov
                comm[:, r] += nt - col
                t[:, r] = nt
            elif code == _RECV_EAGER:
                r, m = a1[i], a2[i]
                col = t[:, r]
                nt = maximum(col + recv_ov, arr[:, m])
                comm[:, r] += nt - col
                t[:, r] = nt
            elif code == _WAIT:
                r = a1[i]
                col = t[:, r]
                cur = col
                wid = a2[i]
                for j in range(woff[wid], woff[wid + 1]):
                    m = wslot[j]
                    if wkind[j] == _VAL_ARR:
                        val = arr[:, m]
                    else:
                        val = maximum(sp[:, m], rp[:, m]) + wire_r[m]
                    cur = maximum(cur, val)
                if cur is not col:
                    comm[:, r] += cur - col
                    t[:, r] = cur
            elif code == _COLL:
                lv = t.max(axis=1) + costs[a1[i]]
                comm += lv[:, None] - t
                t[:] = lv[:, None]
            elif code == _SEND_RDV_POST:
                sp[:, a2[i]] = t[:, a1[i]]
            elif code == _SEND_RDV_DONE:
                r, m = a1[i], a2[i]
                col = t[:, r]
                nt = maximum(sp[:, m], rp[:, m]) + wire_r[m]
                comm[:, r] += nt - col
                t[:, r] = nt
            elif code == _ISEND_RDV:
                r, m = a1[i], a2[i]
                col = t[:, r]
                sp[:, m] = col
                nt = col + send_ov
                comm[:, r] += nt - col
                t[:, r] = nt
            elif code == _RECV_RDV:
                r, m = a1[i], a2[i]
                col = t[:, r]
                tr = col + recv_ov
                rp[:, m] = tr
                nt = maximum(sp[:, m], tr) + wire_r[m]
                comm[:, r] += nt - col
                t[:, r] = nt
            elif code == _IRECV_EAGER:
                r = a1[i]
                col = t[:, r]
                nt = col + recv_ov
                comm[:, r] += nt - col
                t[:, r] = nt
            elif code == _IRECV_RDV:
                r, m = a1[i], a2[i]
                col = t[:, r]
                rp[:, m] = col
                nt = col + recv_ov
                comm[:, r] += nt - col
                t[:, r] = nt
            # _MARKER: timestamps are not materialised in batch mode

        elapsed = perf_counter() - start
        add_engine_stats(
            compiled_runs=1,
            compiled_evaluations=K,
            compiled_instructions=len(codes) * K,
            compiled_seconds=elapsed,
        )
        return {
            "execution_time": t.max(axis=1),
            "compute_times": comp,
            "comm_times": comm,
            "end_times": t,
        }

    # ------------------------------------------------------------------
    def assert_equivalent(
        self,
        frequencies: Sequence[float] | float | None = None,
        simulator: Any = None,
    ) -> RunResult:
        """Validation mode: cross-check this program against the DES.

        Replays the compiled world's source programs through
        :class:`~repro.netsim.simulator.MpiSimulator` and asserts
        *exact* (bit-identical) agreement of makespan and per-rank
        compute/comm/end seconds.  Returns the compiled result.
        """
        import weakref

        from repro.netsim.simulator import MpiSimulator

        sim = simulator or MpiSimulator(self.platform, self.time_model)
        programs = self._programs
        if isinstance(programs, weakref.ref):
            programs = programs()
            if programs is None:
                raise ReferenceError(
                    "the trace this program was compiled from is gone"
                )
        if isinstance(programs, ColumnarTrace):
            programs = programs.to_programs()
        des = sim.run(programs, frequencies=frequencies)
        mine = self.evaluate(frequencies)
        checks = (
            ("execution_time", des.execution_time, mine.execution_time),
            ("compute_times", des.compute_times, mine.compute_times),
            ("comm_times", des.comm_times, mine.comm_times),
            ("end_times", des.end_times, mine.end_times),
        )
        for name, want, got in checks:
            if not np.array_equal(np.asarray(want), np.asarray(got)):
                delta = np.max(
                    np.abs(np.asarray(want) - np.asarray(got))
                )
                raise AssertionError(
                    f"compiled replay diverges from DES on {name}: "
                    f"max |Δ| = {delta:.3e}"
                )
        if des.markers != mine.markers:
            raise AssertionError(
                "compiled replay diverges from DES on markers"
            )
        return mine


class CompiledReplayEngine:
    """Drop-in engine facade over :func:`compile_world`.

    Mirrors :class:`~repro.netsim.simulator.MpiSimulator`'s ``run`` /
    ``run_trace`` surface on the supported subset (interval/trace
    recording raise :class:`UnsupportedWorldError`; ``max_events`` is
    accepted but moot — a compiled tape is finite by construction).
    Compiled programs are cached on the :class:`Trace` object, keyed by
    (platform, fmax, β), so a sweep compiles once and evaluates many
    times; capability rejections are negative-cached the same way.
    """

    name = "compiled"

    def __init__(
        self,
        platform: PlatformConfig | None = None,
        time_model: BetaTimeModel | None = None,
        validate: bool = False,
    ):
        self.platform = platform or MYRINET_LIKE
        self.time_model = time_model or BetaTimeModel(fmax=2.3)
        self.validate = validate

    # ------------------------------------------------------------------
    def compile_programs(
        self, programs: Sequence[Iterable[Record]]
    ) -> CompiledProgram:
        return compile_world(programs, self.platform, self.time_model)

    def compile_trace(self, trace: "Trace | ColumnarTrace") -> CompiledProgram:
        key = (self.platform, self.time_model.fmax, self.time_model.beta)
        cache = getattr(trace, "_compiled_cache", None)
        if cache is None:
            cache = []
            trace._compiled_cache = cache  # plain attribute; never pickled
        for cached_key, entry in cache:
            if cached_key == key:
                if isinstance(entry, UnsupportedWorldError):
                    raise type(entry)(str(entry))
                return entry
        try:
            if isinstance(trace, ColumnarTrace):
                import weakref

                program = compile_columnar_world(
                    trace, self.platform, self.time_model
                )
                # the trace caches the program, so a strong back-reference
                # would make a cycle that keeps the columns (and any file
                # mapping) alive until a full garbage collection
                program._programs = weakref.ref(trace)
            else:
                program = compile_world(
                    [stream.records for stream in trace],
                    self.platform,
                    self.time_model,
                )
        except UnsupportedWorldError as exc:
            cache.append((key, exc))
            raise
        cache.append((key, program))
        return program

    def supports(self, trace: "Trace | ColumnarTrace") -> tuple[bool, str]:
        """Capability check: (accepted, reason-if-not)."""
        try:
            self.compile_trace(trace)
        except UnsupportedWorldError as exc:
            return False, str(exc)
        return True, ""

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
        if record_intervals or record_trace:
            raise UnsupportedWorldError(
                "interval/trace recording requires the DES engine"
            )
        program = self.compile_programs(programs)
        result = program.evaluate(frequencies, meta=meta or {})
        if self.validate:
            program.assert_equivalent(frequencies)
        return result

    def run_trace(
        self,
        trace: "Trace | ColumnarTrace",
        frequencies: Sequence[float] | float | None = None,
        **kwargs: Any,
    ) -> RunResult:
        meta = kwargs.pop("meta", None) or dict(trace.meta)
        if kwargs.pop("record_intervals", False) or kwargs.pop(
            "record_trace", False
        ):
            raise UnsupportedWorldError(
                "interval/trace recording requires the DES engine"
            )
        kwargs.pop("max_events", None)
        if kwargs:
            raise TypeError(f"unexpected arguments {sorted(kwargs)}")
        program = self.compile_trace(trace)
        result = program.evaluate(frequencies, meta=meta)
        if self.validate:
            program.assert_equivalent(frequencies)
        return result

    def evaluate_assignments(
        self,
        trace: "Trace | ColumnarTrace",
        frequencies: Any,
        chunk_size: int | None = None,
    ) -> dict[str, np.ndarray]:
        """Compile (cached) + batch-evaluate a (K, nproc) matrix.

        ``chunk_size`` bounds the candidate count per vectorised tape
        pass, which bounds peak working-set memory (each pass allocates
        ``O(chunk × (nproc + messages))`` floats; the burst-scaling
        temporaries are additionally blocked along the burst axis).
        Chunking cannot change results:
        :meth:`CompiledProgram.evaluate_many` computes every row
        independently and the burst blocking is elementwise, so the
        concatenation of chunked passes is bit-identical to one full
        pass.
        """
        program = self.compile_trace(trace)
        fmat = np.asarray(frequencies, dtype=float)
        if fmat.ndim != 2:
            raise ValueError(
                f"frequency matrix must be (K, nproc), got shape {fmat.shape}"
            )
        K = fmat.shape[0]
        if chunk_size is None or chunk_size <= 0 or chunk_size >= K:
            parts = [program.evaluate_many(fmat)]
        else:
            parts = [
                program.evaluate_many(
                    fmat[lo : lo + chunk_size],
                    burst_block=_BURST_BLOCK,
                )
                for lo in range(0, K, chunk_size)
            ]
        add_engine_stats(
            batch_batches=1, batch_candidates=K, batch_chunks=len(parts)
        )
        if len(parts) == 1:
            return parts[0]
        return {
            key: np.concatenate([p[key] for p in parts])
            for key in parts[0]
        }
