"""Unit tests for trace transformations (the Dimemas tracefile rewrite)."""

import pytest

from repro.apps import build_app
from repro.core.timemodel import BetaTimeModel
from repro.traces.columnar import ColumnarTrace
from repro.traces.records import ComputeBurst, MarkerRecord, SendRecord
from repro.traces.trace import Trace
from repro.traces.transform import concat_traces, cut_iterations, scale_compute

MODEL = BetaTimeModel(fmax=2.3, beta=0.5)


def simple_trace():
    return Trace.from_streams(
        [
            [ComputeBurst(1.0), SendRecord(1, 10)],
            [ComputeBurst(2.0)],
        ],
        meta={"name": "t"},
    )


class TestScaleCompute:
    def test_nominal_frequency_is_identity(self):
        t = simple_trace()
        scaled = scale_compute(t, 2.3, MODEL)
        assert scaled[0].records[0].duration == pytest.approx(1.0)
        assert scaled[1].records[0].duration == pytest.approx(2.0)

    def test_half_frequency_with_beta_half(self):
        t = simple_trace()
        scaled = scale_compute(t, 1.15, MODEL)
        # ratio = 0.5*(2-1)+1 = 1.5
        assert scaled[0].records[0].duration == pytest.approx(1.5)

    def test_per_rank_frequencies(self):
        t = simple_trace()
        scaled = scale_compute(t, [1.15, 2.3], MODEL)
        assert scaled[0].records[0].duration == pytest.approx(1.5)
        assert scaled[1].records[0].duration == pytest.approx(2.0)

    def test_non_compute_records_pass_through(self):
        t = simple_trace()
        scaled = scale_compute(t, 1.15, MODEL)
        assert scaled[0].records[1] == SendRecord(1, 10)

    def test_per_burst_beta_override_honoured_then_dropped(self):
        t = Trace.from_streams([[ComputeBurst(1.0, beta=1.0)]])
        scaled = scale_compute(t, 1.15, MODEL)
        # beta=1: halving frequency doubles time
        burst = scaled[0].records[0]
        assert burst.duration == pytest.approx(2.0)
        # rewritten burst is an actual duration; override must not persist
        assert burst.beta is None

    def test_overclock_shrinks_duration(self):
        t = simple_trace()
        scaled = scale_compute(t, 2.76, MODEL)  # +20%
        assert scaled[0].records[0].duration < 1.0

    def test_metadata_records_provenance(self):
        scaled = scale_compute(simple_trace(), [2.3, 1.15], MODEL)
        assert scaled.meta["scaled_frequencies"] == [2.3, 1.15]
        assert scaled.meta["time_model"] == {"fmax": 2.3, "beta": 0.5}

    def test_original_trace_unmodified(self):
        t = simple_trace()
        scale_compute(t, 1.15, MODEL)
        assert t[0].records[0].duration == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            scale_compute(simple_trace(), [1.0, 1.0, 1.0], MODEL)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            scale_compute(simple_trace(), [0.0, 1.0], MODEL)


class TestCutIterations:
    def make_iter_trace(self):
        def rank(scale):
            recs = [ComputeBurst(99.0)]  # initialization, must be dropped
            for it in range(3):
                recs.append(MarkerRecord("iter", it))
                recs.append(ComputeBurst(scale * (it + 1)))
            return recs

        return Trace.from_streams([rank(1.0), rank(2.0)])

    def test_cut_single_iteration(self):
        cut = cut_iterations(self.make_iter_trace(), 1, 1)
        assert cut[0].compute_time() == pytest.approx(2.0)
        assert cut[1].compute_time() == pytest.approx(4.0)

    def test_cut_range(self):
        cut = cut_iterations(self.make_iter_trace(), 0, 1)
        assert cut[0].compute_time() == pytest.approx(1.0 + 2.0)

    def test_initialization_dropped(self):
        cut = cut_iterations(self.make_iter_trace(), 0, 2)
        assert cut[0].compute_time() == pytest.approx(6.0)  # not 99+6

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            cut_iterations(self.make_iter_trace(), 7, 9)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            cut_iterations(self.make_iter_trace(), 2, 1)

    def test_markerless_trace_rejected(self):
        t = simple_trace()
        with pytest.raises(ValueError, match="iteration markers"):
            cut_iterations(t, 0, 0)

    def test_columnar_markerless_trace_rejected(self):
        t = ColumnarTrace.from_trace(simple_trace())
        with pytest.raises(ValueError, match="iteration markers"):
            cut_iterations(t, 0, 0)

    @pytest.mark.parametrize("first,last", [(0, 0), (1, 1), (0, 1), (1, 2)])
    def test_columnar_cut_matches_records(self, first, last):
        # WRF has waitall requests and ranks whose markers sit mid-stream
        rec = build_app("WRF-16", iterations=3).columnar_trace().to_trace()
        for trace in (self.make_iter_trace(), rec):
            want = cut_iterations(trace, first, last)
            got = cut_iterations(ColumnarTrace.from_trace(trace), first, last)
            assert isinstance(got, ColumnarTrace)
            assert got.meta == want.meta
            got.validate()
            for rank in range(trace.nproc):
                assert got.records_of(rank) == want[rank].records


class TestConcat:
    def test_concat_doubles_compute(self):
        t = simple_trace()
        cc = concat_traces([t, t])
        assert cc[0].compute_time() == pytest.approx(2.0)
        assert cc.total_records() == 2 * t.total_records()

    def test_world_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different worlds"):
            concat_traces([simple_trace(), Trace(3)])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            concat_traces([])
