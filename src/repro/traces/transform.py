"""Trace transformations.

The paper's methodology (§4) rewrites the Dimemas tracefile: compute
burst durations are rescaled for each rank's assigned frequency, then
the modified trace is replayed.  :func:`scale_compute` is that rewrite.
:func:`cut_iterations` extracts an iterative region (the Paraver step of
"discarding initialization"), and :func:`concat_traces` splices regions.

The rewrite and the cut work on the pooled columns of a
:class:`~repro.traces.columnar.ColumnarTrace` and return one; a
record-object :class:`~repro.traces.trace.Trace` is converted on entry
by :func:`~repro.traces.columnar.as_columnar`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core.timemodel import BetaTimeModel
from repro.traces.columnar import K_COMPUTE, K_MARKER, ColumnarTrace, as_columnar
from repro.traces.trace import Trace

__all__ = ["concat_traces", "cut_iterations", "scale_compute"]


def scale_compute(
    trace: Trace | ColumnarTrace,
    frequencies: Sequence[float] | float,
    model: BetaTimeModel,
) -> ColumnarTrace:
    """Rewrite compute-burst durations for per-rank frequencies.

    Every compute burst of rank *k* gets duration
    ``T * (beta * (fmax/f_k - 1) + 1)`` (per-burst β overrides honoured).
    All other events pass through untouched.  The result's metadata
    records the frequencies for provenance.

    The rewrite runs column-wise on a :class:`ColumnarTrace` (a record
    trace is converted first) with the same IEEE operations, in the same
    order, as :meth:`BetaTimeModel.ratio`.

    Note: the rescaled durations are *actual* times at the new frequency,
    so the resulting trace must be replayed at nominal speed (pass no
    ``frequencies`` to the simulator) to avoid double scaling.
    """
    trace = as_columnar(trace)
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
    return _rescale_bursts(
        trace,
        np.repeat(freqs, np.diff(trace.offsets)),
        (trace.kind == K_COMPUTE) & (trace.duration > 0.0),
        model,
        meta,
    )


def _rescale_bursts(
    trace: ColumnarTrace,
    freqs: np.ndarray,
    scale: np.ndarray,
    model: BetaTimeModel,
    meta: dict,
) -> ColumnarTrace:
    """Copy of ``trace`` with the bursts selected by the ``scale`` mask
    rescaled to their per-event frequencies ``freqs``."""
    duration = trace.duration.copy()
    beta = trace.beta.copy()
    # same IEEE operations in the same order as model.ratio(f, beta)
    x = model.fmax / freqs[scale] - 1.0
    b_eff = np.where(np.isnan(beta[scale]), model.beta, beta[scale])
    duration[scale] = duration[scale] * (b_eff * x + 1.0)
    # the rewritten burst is an *actual* duration: β no longer applies
    # to it, so drop the override
    beta[scale] = math.nan
    return ColumnarTrace(
        nproc=trace.nproc,
        meta=meta,
        offsets=trace.offsets,
        kind=trace.kind,
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
) -> ColumnarTrace:
    """Extract iterations ``first..last`` (inclusive) of the trace.

    Iterations are delimited by marker events with ``iteration >= 0``: a
    rank's events belong to iteration *i* from the first marker carrying
    ``iteration == i`` up to (excluding) the next marker with a different
    iteration.  Events before any iteration marker (initialization) are
    dropped — exactly the Paraver trace-cutting step the paper describes.

    The cut runs column-wise on a :class:`ColumnarTrace` (a record trace
    is converted first).
    """
    if first < 0 or last < first:
        raise ValueError(f"bad iteration range [{first}, {last}]")
    trace = as_columnar(trace)
    meta = dict(trace.meta)
    meta["cut"] = {"first": first, "last": last}
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
