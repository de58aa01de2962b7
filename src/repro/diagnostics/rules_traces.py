"""Trace rule pack (codes ``TR...``).

TR001–TR007 migrate the historical advisory linter (W001–W007 of
``repro.traces.lint``); TR008–TR010 are new, backed by the static
deadlock analysis of :mod:`repro.diagnostics.deadlock`:

=====  ========  ========================================================
code   severity  finding
=====  ========  ========================================================
TR001  WARNING   no iteration markers
TR002  WARNING   rank never computes
TR003  WARNING   unmatched point-to-point traffic (pair counts)
TR004  WARNING   any-source receives (matching timing-dependent)
TR005  INFO      messages just above the eager threshold
TR006  INFO      collective contribution spread > 3x across ranks
TR007  INFO      compute bursts shorter than the network latency
TR008  ERROR     circular wait (replay deadlock) between ranks
TR009  ERROR     orphaned operation / undelivered messages
TR010  ERROR     ranks disagree on collective operation order
=====  ========  ========================================================

Every rule reads the trace through the columnar accessors of
:mod:`repro.diagnostics.traceview`: a :class:`ColumnarTrace` subject is
analysed directly on its numpy columns with no record materialisation,
and a record-object trace is converted once when its
:class:`TraceContext` is built.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from typing import Any

from repro.diagnostics.deadlock import DeadlockReport, analyze_deadlock
from repro.diagnostics.model import Diagnostic, Severity
from repro.diagnostics.registry import Maker, rule
from repro.diagnostics.traceview import ColumnarTraceView
from repro.netsim.platform import MYRINET_LIKE, PlatformConfig
from repro.traces.columnar import as_columnar

__all__ = ["TraceContext"]


class TraceContext:
    """What the trace rules see: the trace, the platform, a subject name.

    ``trace`` may be a record-object :class:`~repro.traces.trace.Trace`
    or a :class:`~repro.traces.columnar.ColumnarTrace`; a record trace is
    converted here, once, so the ``view`` accessors and the deadlock
    analysis only ever see columns.  The deadlock analysis is shared by
    TR008/TR009/TR010 and computed at most once per context.
    """

    def __init__(
        self,
        trace: Any,
        platform: PlatformConfig | None = None,
        subject: str | None = None,
    ):
        self.trace = as_columnar(trace)
        self.platform = platform or MYRINET_LIKE
        self.subject = subject if subject is not None else trace.name
        self.view = ColumnarTraceView(self.trace)

    @cached_property
    def deadlock(self) -> DeadlockReport:
        return analyze_deadlock(self.trace, self.platform)

    def suppressed_codes(self) -> tuple[str, ...]:
        """Per-trace suppression: ``meta["lint-ignore"] = ["TR006", ...]``."""
        raw = self.trace.meta.get("lint-ignore", ())
        if isinstance(raw, str):
            raw = (raw,)
        return tuple(str(code) for code in raw)


@rule(
    "TR001",
    severity=Severity.WARNING,
    domain="traces",
    summary="no iteration markers",
    fix="emit MarkerRecord(label, iteration) at iteration boundaries",
)
def _tr001(ctx: TraceContext, make: Maker) -> Iterator[Diagnostic]:
    if not ctx.view.has_iteration_markers():
        yield make(
            "no iteration markers: region cutting, per-iteration stats and "
            "the Jitter runtime will be unavailable",
            subject=ctx.subject,
        )


@rule(
    "TR002",
    severity=Severity.WARNING,
    domain="traces",
    summary="rank never computes",
    fix="check the decomposition; an all-communication rank is usually a bug",
)
def _tr002(ctx: TraceContext, make: Maker) -> Iterator[Diagnostic]:
    for rank in ctx.view.silent_ranks():
        yield make("rank never computes", subject=ctx.subject, rank=rank)


@rule(
    "TR003",
    severity=Severity.WARNING,
    domain="traces",
    summary="unmatched point-to-point traffic (pair counts)",
    fix="balance sends and receives per (src, dst) pair",
)
def _tr003(ctx: TraceContext, make: Maker) -> Iterator[Diagnostic]:
    sends, recvs, wildcard_recv_ranks = ctx.view.pair_counts()
    for key in sorted(set(sends) | set(recvs)):
        if key[1] in wildcard_recv_ranks:
            continue  # wildcards may absorb the difference
        n_send = sends.get(key, 0)
        n_recv = recvs.get(key, 0)
        if n_send != n_recv:
            yield make(
                f"pair r{key[0]}->r{key[1]}: {n_send} send(s) vs "
                f"{n_recv} recv(s)",
                subject=ctx.subject,
            )


@rule(
    "TR004",
    severity=Severity.WARNING,
    domain="traces",
    summary="any-source receives",
    fix="use concrete sources where the sender is statically known",
)
def _tr004(ctx: TraceContext, make: Maker) -> Iterator[Diagnostic]:
    for rank, n in ctx.view.wildcard_recv_counts():
        yield make(
            f"{n} any-source receive(s): matching becomes "
            "timing-dependent",
            subject=ctx.subject,
            rank=rank,
        )


@rule(
    "TR005",
    severity=Severity.INFO,
    domain="traces",
    summary="messages just above the eager threshold",
    fix="shrink the message below the threshold or raise eager_threshold",
)
def _tr005(ctx: TraceContext, make: Maker) -> Iterator[Diagnostic]:
    threshold = ctx.platform.eager_threshold
    if threshold <= 0:
        return
    for rank, n in ctx.view.eager_cliff_counts(threshold):
        yield make(
            f"{n} message(s) just above the {threshold}-byte eager "
            "threshold: rendezvous cliff",
            subject=ctx.subject,
            rank=rank,
        )


@rule(
    "TR006",
    severity=Severity.INFO,
    domain="traces",
    summary="collective contribution spread > 3x across ranks",
    fix="rebalance per-rank contributions (the largest paces everyone)",
)
def _tr006(ctx: TraceContext, make: Maker) -> Iterator[Diagnostic]:
    # align per-rank collective sequences (validate() ensured equal counts)
    ops0, sizes_by_index = ctx.view.collective_alignment()
    for idx, (op, sizes) in enumerate(zip(ops0, sizes_by_index)):
        positive = [s for s in sizes if s > 0]
        if not positive:
            continue
        if max(positive) > 3 * min(positive):
            yield make(
                f"{op} #{idx} contributions spread >3x "
                "across ranks (cost is paced by the largest)",
                subject=ctx.subject,
                index=idx,
            )


@rule(
    "TR007",
    severity=Severity.INFO,
    domain="traces",
    summary="compute bursts shorter than the network latency",
    fix="coalesce bursts; the trace is overhead-dominated as recorded",
)
def _tr007(ctx: TraceContext, make: Maker) -> Iterator[Diagnostic]:
    latency = ctx.platform.latency
    if latency <= 0.0:
        return
    for rank, tiny, total in ctx.view.tiny_burst_counts(latency):
        if tiny > total // 4:
            yield make(
                f"{tiny} compute burst(s) shorter than the network "
                f"latency ({latency:g}s): overhead-dominated trace",
                subject=ctx.subject,
                rank=rank,
            )


@rule(
    "TR008",
    severity=Severity.ERROR,
    domain="traces",
    summary="circular wait between ranks (replay deadlock)",
    fix="break the cycle: reorder the operations or make one side "
        "non-blocking",
)
def _tr008(ctx: TraceContext, make: Maker) -> Iterator[Diagnostic]:
    report = ctx.deadlock
    by_rank = {b.rank: b for b in report.blocked}
    for cycle in report.cycles:
        chain = " -> ".join(
            f"r{r} [{by_rank[r].description} @ record {by_rank[r].index}]"
            for r in cycle
        )
        trailing = [
            b.rank for b in report.blocked
            if b.rank not in cycle and b not in report.orphans
        ]
        suffix = (
            f"; {len(trailing)} more rank(s) blocked behind the cycle"
            if trailing
            else ""
        )
        yield make(
            f"circular wait: {chain}{suffix}",
            subject=ctx.subject,
            rank=cycle[0],
        )
    if report.deadlocked and not report.cycles and not report.orphans:
        # theoretical backstop: replay stalled without an attributable cause
        ranks = ", ".join(f"r{b.rank}" for b in report.blocked)
        yield make(
            f"replay makes no progress; blocked ranks: {ranks}",
            subject=ctx.subject,
        )


@rule(
    "TR009",
    severity=Severity.ERROR,
    domain="traces",
    summary="orphaned operation or undelivered messages",
    fix="add the missing matching operation on the peer rank",
)
def _tr009(ctx: TraceContext, make: Maker) -> Iterator[Diagnostic]:
    report = ctx.deadlock
    for orphan in report.orphans:
        yield make(
            f"{orphan.description} can never complete: every candidate "
            "peer terminated without the matching operation",
            subject=ctx.subject,
            rank=orphan.rank,
            index=orphan.index,
        )
    for src, dst, count in report.undelivered:
        yield make(
            f"{count} eager message(s) r{src}->r{dst} sent but never "
            "received",
            subject=ctx.subject,
            rank=src,
        )


@rule(
    "TR010",
    severity=Severity.ERROR,
    domain="traces",
    summary="ranks disagree on collective operation order",
    fix="issue collectives in the same order with the same op on every rank",
)
def _tr010(ctx: TraceContext, make: Maker) -> Iterator[Diagnostic]:
    for k, description in ctx.deadlock.collective_mismatches:
        yield make(
            f"collective #{k}: {description}",
            subject=ctx.subject,
            index=k,
        )
