"""Columnar trace storage: losslessness, byte-identity, scaling hooks.

The columnar layout is only allowed to exist because it is
*indistinguishable* from the record-object path: same records back,
same JSON bytes, same compile tape, same makespans, same balance
reports.  These tests pin every one of those contracts, with
hypothesis driving the codec round-trips over adversarial streams
(wildcard receives, per-burst β overrides, unicode phase labels).
"""

import dataclasses
import gc
import io
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_app, vmpi
from repro.core.balancer import PowerAwareLoadBalancer
from repro.core.timemodel import BetaTimeModel
from repro.core.gears import uniform_gear_set
from repro.netsim.compiled import (
    compile_columnar_world,
    compile_world,
)
from repro.netsim.platform import MYRINET_LIKE
from repro.netsim.simulator import MpiSimulator
from repro.traces.columnar import (
    BYTES_PER_EVENT,
    ColumnarTrace,
    ColumnarTraceBuilder,
)
from repro.traces.jsonio import dumps_trace, loads_trace
from repro.traces.prv import ColumnarPrv, parse_prv, write_prv
from repro.traces.records import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_OPS,
    CollectiveRecord,
)
from repro.traces.trace import Trace
from repro.traces.transform import scale_compute

MODEL = BetaTimeModel(fmax=2.3, beta=0.5)

NPROC = 4

phase_labels = st.sampled_from(["", "solve-x", "smooth-l0", "相位", "a b c"])


@st.composite
def stream_records(draw):
    """One rank's record list: structurally valid, not necessarily
    runnable (codec round-trips don't replay)."""
    records = []
    n = draw(st.integers(0, 8))
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["compute", "send", "recv", "isend", "irecv", "wait",
             "waitall", "collective", "marker"]
        ))
        if kind == "compute":
            records.append(vmpi.compute(
                draw(st.floats(0.0, 100.0, allow_nan=False)),
                phase=draw(phase_labels),
                beta=draw(st.one_of(st.none(), st.floats(0.0, 1.0))),
            ))
        elif kind == "send":
            records.append(vmpi.send(
                draw(st.integers(0, NPROC - 1)),
                draw(st.integers(0, 1_000_000)),
                tag=draw(st.integers(0, 15)),
            ))
        elif kind == "recv":
            records.append(vmpi.recv(
                src=draw(st.sampled_from([ANY_SOURCE, 0, 1, 2, 3])),
                tag=draw(st.sampled_from([ANY_TAG, 0, 1, 7])),
            ))
        elif kind == "isend":
            records.append(vmpi.isend(
                draw(st.integers(0, NPROC - 1)),
                draw(st.integers(0, 100_000)),
                tag=draw(st.integers(0, 15)),
                request=draw(st.integers(0, 30)),
            ))
        elif kind == "irecv":
            records.append(vmpi.irecv(
                src=draw(st.sampled_from([ANY_SOURCE, 0, 1, 2, 3])),
                tag=draw(st.sampled_from([ANY_TAG, 0, 3])),
                request=draw(st.integers(0, 30)),
            ))
        elif kind == "wait":
            records.append(vmpi.wait(draw(st.integers(0, 30))))
        elif kind == "waitall":
            records.append(vmpi.waitall(
                draw(st.lists(st.integers(0, 30), max_size=5))
            ))
        elif kind == "collective":
            records.append(CollectiveRecord(
                draw(st.sampled_from(COLLECTIVE_OPS)),
                nbytes=draw(st.integers(0, 1_000_000)),
                root=draw(st.integers(0, NPROC - 1)),
            ))
        else:
            records.append(vmpi.marker(
                draw(phase_labels), iteration=draw(st.integers(-1, 10))
            ))
    return records


def record_trace(streams):
    trace = Trace(NPROC, meta={"name": "fuzz", "nproc": NPROC})
    for rank, records in enumerate(streams):
        trace.streams[rank].records = list(records)
    return trace


class TestLosslessRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(streams=st.lists(
        stream_records(), min_size=NPROC, max_size=NPROC
    ))
    def test_records_survive_columnarisation(self, streams):
        trace = record_trace(streams)
        ct = ColumnarTrace.from_trace(trace)
        back = ct.to_trace()
        for rank in range(NPROC):
            assert back[rank].records == trace[rank].records
        assert back.meta == trace.meta
        assert ct.n_events == sum(len(s) for s in streams)

    @settings(max_examples=50, deadline=None)
    @given(streams=st.lists(
        stream_records(), min_size=NPROC, max_size=NPROC
    ))
    def test_jsonio_bytes_and_columnar_load(self, streams):
        trace = record_trace(streams)
        ct = ColumnarTrace.from_trace(trace)
        text_rec = dumps_trace(trace)
        text_col = dumps_trace(ct)
        assert text_rec == text_col  # byte-identical serialisation
        loaded_col = loads_trace(text_rec, columnar=True)
        assert isinstance(loaded_col, ColumnarTrace)
        loaded_rec = loads_trace(text_rec)
        for rank in range(NPROC):
            assert (
                loaded_col.records_of(rank) == loaded_rec[rank].records
            )
        # and writing the columnar load reproduces the file again
        assert dumps_trace(loaded_col) == text_rec

    @settings(max_examples=25, deadline=None)
    @given(streams=st.lists(
        stream_records(), min_size=NPROC, max_size=NPROC
    ))
    def test_analyses_agree(self, streams):
        trace = record_trace(streams)
        ct = ColumnarTrace.from_trace(trace)
        for rank in range(NPROC):
            assert ct[rank].compute_time() == trace[rank].compute_time()
            assert (
                ct[rank].compute_time_by_phase()
                == trace[rank].compute_time_by_phase()
            )
            assert ct[rank].bytes_sent() == trace[rank].bytes_sent()


class TestBuilder:
    def test_out_of_order_ranks_stable_sorted(self):
        b = ColumnarTraceBuilder(2)
        b.compute(1, 0.5, phase="late")
        b.compute(0, 0.25)
        b.marker(1, "iter", iteration=0)
        ct = b.build()
        assert [r.kind for r in ct.records_of(1)] == ["compute", "marker"]
        assert ct.records_of(0)[0].duration == 0.25

    def test_rank_out_of_range(self):
        b = ColumnarTraceBuilder(2)
        with pytest.raises(ValueError, match="out of range"):
            b.compute(2, 0.1)

    def test_validation_mirrors_records(self):
        b = ColumnarTraceBuilder(2)
        with pytest.raises(ValueError, match="duration"):
            b.compute(0, -1.0)
        with pytest.raises(ValueError, match="beta"):
            b.compute(0, 1.0, beta=1.5)
        with pytest.raises(ValueError, match="nbytes"):
            b.send(0, 1, -4)
        with pytest.raises(ValueError, match="collective"):
            b.collective(0, "alltoallw")

    def test_append_dict_rejects_unknown_fields(self):
        b = ColumnarTraceBuilder(1)
        with pytest.raises(ValueError, match="unexpected fields"):
            b.append_dict(0, {"kind": "wait", "request": 1, "bogus": 2})
        with pytest.raises(ValueError, match="missing field"):
            b.append_dict(0, {"kind": "send", "dst": 0})
        with pytest.raises(ValueError, match="unknown record kind"):
            b.append_dict(0, {"kind": "sendrecv"})

    def test_bytes_per_event_accounting(self):
        app = build_app("CG-8", iterations=2)
        ct = app.columnar_trace()
        overhead = (8 + 1) * 8 + ct.reqpool.nbytes  # offsets + waitall pool
        assert ct.nbytes() == ct.n_events * BYTES_PER_EVENT + overhead


class TestValidateParity:
    def test_valid_trace_passes_both(self, small_trace):
        ct = ColumnarTrace.from_trace(small_trace)
        small_trace.validate()
        ct.validate()  # must not raise either

    @pytest.mark.parametrize("breaker, message", [
        (lambda b: b.send(0, 5, 10), "out of range"),
        (lambda b: b.send(0, 0, 10), "self-send"),
        (lambda b: b.recv(0, src=0), "self-recv"),
        (lambda b: b.isend(0, 1, 8, request=1), "never waited"),
        (lambda b: b.wait(0, 9), "unknown or already-completed"),
    ])
    def test_structural_errors(self, breaker, message):
        b = ColumnarTraceBuilder(2)
        breaker(b)
        with pytest.raises(ValueError, match=message):
            b.build().validate()

    def test_request_reuse_detected(self):
        b = ColumnarTraceBuilder(2)
        b.isend(0, 1, 8, request=3)
        b.isend(0, 1, 8, request=3)
        with pytest.raises(ValueError, match="reused before wait"):
            b.build().validate()

    def test_collective_count_mismatch(self):
        b = ColumnarTraceBuilder(2)
        b.collective(0, "barrier")
        with pytest.raises(ValueError, match="disagree on collective count"):
            b.build().validate()


APP_SPECS = [
    "BT-MZ-16", "CG-16", "MG-16", "IS-16", "SPECFEM3D-16", "WRF-16",
    "PEPC-16",
]


def des_recorded(app):
    """The DES oracle: the app recorded through a full simulation."""
    trace = MpiSimulator(app.platform).run(
        app.programs(), record_trace=True, meta={"name": app.name}
    ).trace
    trace.meta.setdefault("nproc", trace.nproc)
    return trace


class TestEmitterEquivalence:
    """emit_rank ≡ rank_program ≡ DES-recorded trace, per family."""

    @pytest.mark.parametrize("spec", APP_SPECS)
    def test_columnar_trace_matches_recorded(self, spec):
        app = build_app(spec, iterations=2)
        balancer = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6))
        recorded = des_recorded(app)
        ct = balancer.trace_app(app)
        assert isinstance(ct, ColumnarTrace)
        assert ct.meta == recorded.meta
        for rank in range(app.nproc):
            assert ct.records_of(rank) == recorded[rank].records

    def test_synthetic_matches_recorded(self):
        from repro.apps.synthetic import build_synthetic

        app = build_synthetic(
            nproc=8, target_lb=0.7, target_pe=0.5,
            shape="wave", pattern="mixed", phases=2,
        )
        assert (
            app.columnar_trace().to_trace()[3].records
            == list(app.rank_program(3))
        )


class TestCompiledIdentity:
    """One compile core: both storage paths yield the same tape."""

    @pytest.mark.parametrize("spec", ["CG-16", "BT-MZ-16", "PEPC-16"])
    def test_tape_and_makespan_identical(self, spec):
        app = build_app(spec, iterations=2)
        p_rec = compile_world(app.programs(), MYRINET_LIKE, MODEL)
        p_col = compile_columnar_world(app.columnar_trace(), MYRINET_LIKE, MODEL)
        assert p_rec.instrs == p_col.instrs
        assert p_rec._dur == p_col._dur
        assert p_rec._beta == p_col._beta
        assert p_rec._wire_eager == p_col._wire_eager
        assert p_rec._wire_rdv == p_col._wire_rdv
        assert p_rec._coll_costs == p_col._coll_costs
        freqs = [1.8 + 0.05 * (r % 5) for r in range(app.nproc)]
        a = p_rec.evaluate(freqs)
        b = p_col.evaluate(freqs)
        assert a.execution_time == b.execution_time
        assert np.array_equal(a.compute_times, b.compute_times)
        assert np.array_equal(a.comm_times, b.comm_times)
        assert np.array_equal(a.end_times, b.end_times)

    def test_columnar_program_cross_validates_against_des(self):
        app = build_app("WRF-16", iterations=2)
        program = compile_columnar_world(
            app.columnar_trace(), MYRINET_LIKE, MODEL
        )
        program.assert_equivalent([2.0] * 16)  # raises on any divergence

    def test_engine_compiles_columnar_trace_with_cache(self):
        from repro.netsim.compiled import CompiledReplayEngine

        app = build_app("CG-16", iterations=2)
        ct = app.columnar_trace()
        engine = CompiledReplayEngine(MYRINET_LIKE, MODEL)
        first = engine.compile_trace(ct)
        assert engine.compile_trace(ct) is first  # cached on the trace
        result = engine.run_trace(ct, 2.0)
        assert result.engine == "compiled"


class TestBalanceReportIdentity:
    @pytest.mark.parametrize("engine", ["auto", "des", "compiled"])
    def test_report_json_byte_identical(self, engine):
        app = build_app("CG-16", iterations=2)
        r_rec = PowerAwareLoadBalancer(
            uniform_gear_set(6), engine=engine
        ).balance_trace(des_recorded(app))
        r_col = PowerAwareLoadBalancer(
            uniform_gear_set(6), engine=engine
        ).balance_app(app)
        assert r_rec.to_json() == r_col.to_json()

    def test_bus_world_report_byte_identical(self):
        # bus contention replays on the DES only, so the two traces
        # meet in the same engine with no compiled cross-check
        bus = dataclasses.replace(MYRINET_LIKE, buses=2)
        app = build_app("CG-16", iterations=2, platform=bus)
        r_rec = PowerAwareLoadBalancer(
            uniform_gear_set(6), platform=bus
        ).balance_trace(des_recorded(app))
        r_col = PowerAwareLoadBalancer(
            uniform_gear_set(6), platform=bus
        ).balance_app(app)
        assert r_rec.to_json() == r_col.to_json()


class TestTraceMemos:
    """Balancing memoises compiled programs and baselines on the trace."""

    @staticmethod
    def cg16(storage, tmp_path):
        ct = build_app("CG-16", iterations=2).columnar_trace()
        if storage == "mmap":
            ct.save(tmp_path / "cg.rpcs")
            ct = ColumnarTrace.open(tmp_path / "cg.rpcs", mmap=True)
        ct.meta.setdefault("nproc", ct.nproc)
        return ct

    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    def test_balanced_trace_freed_without_cyclic_gc(self, storage, tmp_path):
        trace = self.cg16(storage, tmp_path)
        balancer = PowerAwareLoadBalancer(uniform_gear_set(6))
        gc.collect()
        gc.disable()
        try:
            balancer.balance_trace(trace)
            assert trace._compiled_cache and trace._baseline_cache
            ref = weakref.ref(trace)
            del trace
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    def test_cached_program_still_cross_validates(self, storage, tmp_path):
        from repro.netsim.compiled import CompiledReplayEngine

        trace = self.cg16(storage, tmp_path)
        program = CompiledReplayEngine(MYRINET_LIKE, MODEL).compile_trace(trace)
        program.assert_equivalent([2.0] * trace.nproc)

    @pytest.mark.parametrize("records", [False, True])
    def test_pickle_size_unchanged_by_balancing(self, records):
        balancer = PowerAwareLoadBalancer(uniform_gear_set(6))
        trace = balancer.trace_app(build_app("CG-64", iterations=2))
        if records:
            trace = trace.to_trace()
        before = len(pickle.dumps(trace))
        balancer.balance_trace(trace)
        assert trace._baseline_cache
        assert len(pickle.dumps(trace)) == before


class TestScaleCompute:
    def test_columnar_scaling_bit_identical(self, small_trace):
        ct = ColumnarTrace.from_trace(small_trace)
        freqs = [1.2 + 0.1 * (r % 4) for r in range(small_trace.nproc)]
        scaled_rec = scale_compute(small_trace, freqs, MODEL)
        scaled_col = scale_compute(ct, freqs, MODEL)
        assert isinstance(scaled_col, ColumnarTrace)
        assert scaled_col.meta == scaled_rec.meta
        for rank in range(small_trace.nproc):
            assert (
                scaled_col.records_of(rank) == scaled_rec[rank].records
            )

    def test_beta_override_honoured_then_dropped(self):
        trace = Trace(1)
        trace[0].append(vmpi.compute(1.0, beta=0.25))
        trace[0].append(vmpi.compute(0.0, beta=0.75))  # zero: untouched
        ct = ColumnarTrace.from_trace(trace)
        out = scale_compute(ct, 1.15, MODEL)
        burst, untouched = out.records_of(0)
        assert burst.duration == 1.0 * MODEL.ratio(1.15, 0.25)
        assert burst.beta is None
        assert untouched.beta == 0.75


class TestPrvColumnar:
    @pytest.fixture()
    def prv_text(self):
        app = build_app("CG-8", iterations=2)
        result = MpiSimulator().run(app.programs(), record_intervals=True)
        buf = io.StringIO()
        write_prv(result, buf)
        return buf.getvalue()

    def test_parse_modes_agree(self, prv_text):
        rec = parse_prv(io.StringIO(prv_text))
        col = parse_prv(io.StringIO(prv_text), columnar=True)
        assert isinstance(col, ColumnarPrv)
        assert col.nproc == rec.nproc
        assert col.duration == rec.duration
        back = col.to_prv_trace()
        assert back.intervals == rec.intervals
        for rank in range(rec.nproc):
            for kind in ("compute", "send", "recv", "wait", "collective"):
                assert col.state_time(rank, kind) == rec.state_time(
                    rank, kind
                )

    def test_round_trip_through_columns(self, prv_text):
        rec = parse_prv(io.StringIO(prv_text))
        again = ColumnarPrv.from_prv_trace(rec).to_prv_trace()
        assert again.intervals == rec.intervals
        assert again.duration == rec.duration


class TestCliColumnar:
    def test_trace_command_writes_identical_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.traces.jsonio import write_trace

        rec_path = tmp_path / "rec.jsonl"
        col_path = tmp_path / "col.jsonl"
        write_trace(des_recorded(build_app("CG-8", iterations=6)), rec_path)
        assert main(["trace", "CG-8", "-o", str(col_path)]) == 0
        assert rec_path.read_bytes() == col_path.read_bytes()
