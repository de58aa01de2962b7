"""Trace transformations.

The paper's methodology (§4) rewrites the Dimemas tracefile: compute
burst durations are rescaled for each rank's assigned frequency, then
the modified trace is replayed.  :func:`scale_compute` is that rewrite.
:func:`cut_iterations` extracts an iterative region (the Paraver step of
"discarding initialization"), and :func:`concat_traces` splices regions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.timemodel import BetaTimeModel
from repro.traces.columnar import K_COMPUTE, K_MARKER, ColumnarTrace
from repro.traces.records import ComputeBurst, MarkerRecord
from repro.traces.trace import Trace

__all__ = ["concat_traces", "cut_iterations", "scale_compute"]


def scale_compute(
    trace: Trace | ColumnarTrace,
    frequencies: Sequence[float] | float,
    model: BetaTimeModel,
) -> Trace | ColumnarTrace:
    """Rewrite compute-burst durations for per-rank frequencies.

    Every :class:`ComputeBurst` of rank *k* gets duration
    ``T * (beta * (fmax/f_k - 1) + 1)`` (per-burst β overrides honoured).
    All other records pass through untouched.  The result's metadata
    records the frequencies for provenance.

    A :class:`ColumnarTrace` input is rewritten column-wise (no record
    objects) and yields a :class:`ColumnarTrace` whose durations are
    bit-identical to the record path's — the per-event arithmetic is
    the same IEEE operations in the same order.

    Note: the rescaled durations are *actual* times at the new frequency,
    so the resulting trace must be replayed at nominal speed (pass no
    ``frequencies`` to the simulator) to avoid double scaling.
    """
    if np.isscalar(frequencies):
        freqs = np.full(trace.nproc, float(frequencies))
    else:
        freqs = np.asarray(frequencies, dtype=float)
    if freqs.shape != (trace.nproc,):
        raise ValueError(
            f"frequencies shape {freqs.shape} does not match nproc={trace.nproc}"
        )
    if (freqs <= 0.0).any():
        raise ValueError("frequencies must be positive")

    meta = dict(trace.meta)
    meta["scaled_frequencies"] = [float(f) for f in freqs]
    meta["time_model"] = {"fmax": model.fmax, "beta": model.beta}
    if isinstance(trace, ColumnarTrace):
        return _scale_compute_columns(trace, freqs, model, meta)
    out = Trace(trace.nproc, meta=meta)
    for stream in trace:
        f = freqs[stream.rank]
        ratio_default = model.ratio(f)
        new_records = []
        for rec in stream:
            if isinstance(rec, ComputeBurst) and rec.duration > 0.0:
                ratio = ratio_default if rec.beta is None else model.ratio(f, rec.beta)
                # the rewritten burst is an *actual* duration: β no longer
                # applies to it, so drop the override
                rec = ComputeBurst(rec.duration * ratio, phase=rec.phase)
            new_records.append(rec)
        out[stream.rank].records = new_records
    return out


def _scale_compute_columns(
    trace: ColumnarTrace,
    freqs: np.ndarray,
    model: BetaTimeModel,
    meta: dict,
) -> ColumnarTrace:
    """Column-wise :func:`scale_compute` (bit-identical to the record path)."""
    duration = trace.duration.copy()
    beta = trace.beta.copy()
    offsets = trace.offsets
    kind = trace.kind
    default_beta = model.beta
    for rank in range(trace.nproc):
        lo, hi = int(offsets[rank]), int(offsets[rank + 1])
        seg_dur = duration[lo:hi]
        sel = (kind[lo:hi] == K_COMPUTE) & (seg_dur > 0.0)
        if not sel.any():
            continue
        # same IEEE operations in the same order as model.ratio(f, beta)
        x = model.fmax / float(freqs[rank]) - 1.0
        seg_beta = beta[lo:hi]
        b_eff = np.where(np.isnan(seg_beta), default_beta, seg_beta)
        seg_dur[sel] = seg_dur[sel] * (b_eff[sel] * x + 1.0)
        # the rewritten burst is an *actual* duration: β no longer
        # applies to it, so drop the override
        seg_beta[sel] = math.nan
    return ColumnarTrace(
        nproc=trace.nproc,
        meta=meta,
        offsets=offsets,
        kind=kind,
        duration=duration,
        beta=beta,
        peer=trace.peer,
        tag=trace.tag,
        size=trace.size,
        req=trace.req,
        aux=trace.aux,
        label=trace.label,
        collop=trace.collop,
        reqpool=trace.reqpool,
        strings=trace.strings,
    )


def cut_iterations(
    trace: Trace | ColumnarTrace, first: int, last: int
) -> Trace | ColumnarTrace:
    """Extract iterations ``first..last`` (inclusive) of the trace.

    Iterations are delimited by :class:`MarkerRecord` entries with
    ``iteration >= 0``: a rank's records belong to iteration *i* from the
    first marker carrying ``iteration == i`` up to (excluding) the next
    marker with a different iteration.  Records before any iteration
    marker (initialization) are dropped — exactly the Paraver trace-
    cutting step the paper describes.

    A :class:`ColumnarTrace` input is cut column-wise (no record
    objects) and yields a :class:`ColumnarTrace` holding the same
    events as the record path's result.
    """
    if first < 0 or last < first:
        raise ValueError(f"bad iteration range [{first}, {last}]")
    meta = dict(trace.meta)
    meta["cut"] = {"first": first, "last": last}
    if isinstance(trace, ColumnarTrace):
        return _cut_iterations_columns(trace, first, last, meta)
    out = Trace(trace.nproc, meta=meta)
    saw_any = False
    for stream in trace:
        current = -1  # -1 = initialization, not part of any iteration
        kept = []
        for rec in stream:
            if isinstance(rec, MarkerRecord) and rec.iteration >= 0:
                current = rec.iteration
            if first <= current <= last and current >= 0:
                kept.append(rec)
                saw_any = True
        out[stream.rank].records = kept
    if not saw_any:
        raise ValueError(
            f"no records in iterations [{first}, {last}]; does the trace "
            "carry iteration markers?"
        )
    return out


def _cut_iterations_columns(
    trace: ColumnarTrace, first: int, last: int, meta: dict
) -> ColumnarTrace:
    """Column-wise :func:`cut_iterations` (same events as the record path)."""
    offsets = trace.offsets
    kind = trace.kind
    aux = trace.aux
    opens = (kind == K_MARKER) & (aux >= 0)
    # index of the latest iteration marker at or before each event; each
    # rank's first event restarts the scan, so the initialization part
    # of a rank never inherits the previous rank's iteration
    latest = np.where(opens, np.arange(len(kind)), -1)
    starts = offsets[:-1][offsets[1:] > offsets[:-1]]
    latest[starts] = starts
    np.maximum.accumulate(latest, out=latest)
    current = np.where(opens[latest], aux[latest], -1)
    keep = (current >= first) & (current <= last)
    if not keep.any():
        raise ValueError(
            f"no records in iterations [{first}, {last}]; does the trace "
            "carry iteration markers?"
        )
    kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    # waitall events keep their request-pool pointers, so the pool and
    # the string table carry over whole
    return ColumnarTrace(
        nproc=trace.nproc,
        meta=meta,
        offsets=kept_before[offsets],
        kind=kind[keep],
        duration=trace.duration[keep],
        beta=trace.beta[keep],
        peer=trace.peer[keep],
        tag=trace.tag[keep],
        size=trace.size[keep],
        req=trace.req[keep],
        aux=aux[keep],
        label=trace.label[keep],
        collop=trace.collop[keep],
        reqpool=trace.reqpool,
        strings=trace.strings,
    )


def concat_traces(traces: Sequence[Trace]) -> Trace:
    """Concatenate same-world traces back-to-back (e.g. repeat a region)."""
    if not traces:
        raise ValueError("need at least one trace")
    nproc = traces[0].nproc
    for t in traces[1:]:
        if t.nproc != nproc:
            raise ValueError(
                f"cannot concat traces with different worlds: {t.nproc} vs {nproc}"
            )
    out = Trace(nproc, meta=dict(traces[0].meta))
    for rank in range(nproc):
        for t in traces:
            out[rank].records.extend(t[rank].records)
    return out
