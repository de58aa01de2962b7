"""Columnar-native lint: record/columnar diagnostic identity.

The contract of the scale-aware diagnostics engine: linting a
:class:`ColumnarTrace` produces **diagnostic-identical** output to
linting the equivalent record-object trace — same codes, same messages,
same ranks/indices, same sort order — while never materialising a
record object.  A record trace is converted to columns at the door, so
these tests pin that the conversion loses nothing the rules read.
Hypothesis drives the identity property over all nine record kinds
(wildcard receives and waitalls included) on two platforms
(eager-friendly and rendezvous-heavy); deliberate-deadlock fixtures pin
the TR008/TR009/TR010 replay paths at 4096 ranks.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnostics.engine import LintConfig, lint_trace_subject
from repro.diagnostics.model import Severity
from repro.netsim.platform import MYRINET_LIKE
from repro.traces.columnar import (
    ColumnarRankView,
    ColumnarTrace,
    ColumnarTraceBuilder,
)
from repro.traces.records import ComputeBurst
from repro.traces.trace import Trace

from tests.test_columnar import NPROC, record_trace, stream_records

#: Everything a diagnostic carries that the identity contract covers.
def _key(diag):
    return (
        diag.code,
        diag.severity,
        diag.domain,
        diag.subject,
        diag.rank,
        diag.index,
        diag.message,
        diag.fix,
    )


#: Tiny eager threshold: most fuzzed sends go rendezvous, exercising
#: the blocking-send replay paths the default platform rarely hits.
RENDEZVOUS = dataclasses.replace(
    MYRINET_LIKE, name="rendezvous-heavy", eager_threshold=64
)

CONFIG = LintConfig()


def assert_identical(trace, platform=None, subject="fuzz"):
    ct = (
        trace
        if isinstance(trace, ColumnarTrace)
        else ColumnarTrace.from_trace(trace)
    )
    rt = ct.to_trace()
    record_diags = lint_trace_subject(rt, platform, subject, CONFIG)
    columnar_diags = lint_trace_subject(ct, platform, subject, CONFIG)
    assert [_key(d) for d in record_diags] == [
        _key(d) for d in columnar_diags
    ]
    return columnar_diags


class TestIdentityProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        streams=st.lists(stream_records(), min_size=NPROC, max_size=NPROC)
    )
    def test_all_nine_kinds_default_platform(self, streams):
        assert_identical(record_trace(streams), MYRINET_LIKE)

    @settings(max_examples=60, deadline=None)
    @given(
        streams=st.lists(stream_records(), min_size=NPROC, max_size=NPROC)
    )
    def test_all_nine_kinds_rendezvous_platform(self, streams):
        assert_identical(record_trace(streams), RENDEZVOUS)


BIG = MYRINET_LIKE.eager_threshold + 1  # rendezvous on the default net


def _ring_deadlock(nproc: int) -> ColumnarTrace:
    """Every rank rendezvous-sends to its successor before receiving:
    one giant circular wait."""
    builder = ColumnarTraceBuilder(nproc)
    for rank in range(nproc):
        builder.compute(rank, 1.0)
        builder.send(rank, dst=(rank + 1) % nproc, nbytes=BIG, tag=0)
        builder.recv(rank, src=(rank - 1) % nproc, tag=0)
    return builder.build(meta={"name": f"ring-deadlock-{nproc}"})


def _orphan_world(nproc: int) -> ColumnarTrace:
    """Rank nproc-1 receives from rank 0, which never sends."""
    builder = ColumnarTraceBuilder(nproc)
    for rank in range(nproc):
        builder.compute(rank, 1.0)
    builder.recv(nproc - 1, src=0, tag=0)
    return builder.build(meta={"name": f"orphan-{nproc}"})


def _collective_clash(nproc: int) -> ColumnarTrace:
    """The last rank calls allreduce where everyone else calls barrier
    (one mismatch: TR010 reports each rank disagreeing with the first
    arriver)."""
    builder = ColumnarTraceBuilder(nproc)
    for rank in range(nproc):
        builder.compute(rank, 1.0)
        odd = rank == nproc - 1
        builder.collective(
            rank, op="allreduce" if odd else "barrier",
            nbytes=8 if odd else 0,
        )
    return builder.build(meta={"name": f"clash-{nproc}"})


class TestDeadlockFixtures4k:
    """Deliberate-deadlock columnar fixtures at >= 4k ranks."""

    NRANKS = 4096

    def test_ring_deadlock_identity_and_tr008(self):
        diags = assert_identical(
            _ring_deadlock(self.NRANKS), subject="ring"
        )
        tr008 = [d for d in diags if d.code == "TR008"]
        assert len(tr008) == 1
        assert tr008[0].severity is Severity.ERROR
        # the cycle covers the whole ring
        assert f"r{self.NRANKS - 1}" in tr008[0].message

    def test_orphan_identity_and_tr009(self):
        diags = assert_identical(
            _orphan_world(self.NRANKS), subject="orphan"
        )
        tr009 = [d for d in diags if d.code == "TR009"]
        assert len(tr009) == 1
        assert tr009[0].rank == self.NRANKS - 1
        assert "recv from rank 0" in tr009[0].message

    def test_collective_clash_identity_and_tr010(self):
        diags = assert_identical(
            _collective_clash(self.NRANKS), subject="clash"
        )
        tr010 = [d for d in diags if d.code == "TR010"]
        assert len(tr010) == 1
        assert (
            f"rank 0 calls barrier but rank {self.NRANKS - 1} calls "
            "allreduce" in tr010[0].message
        )


class TestNoMaterialization:
    """The columnar lint path must never round-trip through records."""

    @pytest.fixture
    def poisoned(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError(
                "record materialisation on the columnar lint path"
            )

        monkeypatch.setattr(ColumnarTrace, "to_trace", boom)
        monkeypatch.setattr(ColumnarTrace, "record_at", boom)
        monkeypatch.setattr(ColumnarTrace, "records_of", boom)
        monkeypatch.setattr(ColumnarRankView, "__iter__", boom)

    def test_clean_world_lints_without_records(self, poisoned):
        from repro.apps import build_app

        ct = build_app("CG-32", iterations=2).columnar_trace()
        diags = lint_trace_subject(ct, MYRINET_LIKE, "CG-32", CONFIG)
        # DX000 would mean a rule crashed on the poisoned accessors —
        # i.e. it tried to materialise records
        assert not [d for d in diags if d.code == "DX000"]

    def test_deadlocked_world_lints_without_records(self, poisoned):
        ct = _ring_deadlock(64)
        diags = lint_trace_subject(ct, MYRINET_LIKE, "ring", CONFIG)
        assert not [d for d in diags if d.code == "DX000"]
        assert [d for d in diags if d.code == "TR008"]

    def test_mmap_store_lints_without_records(self, poisoned, tmp_path):
        """TR001–TR010 over an mmap-opened binary store: the columns
        stay out of core and no record ever materialises."""
        ct = _ring_deadlock(64)
        path = tmp_path / "ring.rpcs"
        # save through a fresh (unpoisoned-irrelevant) trace, reopen mapped
        ct.save(path)
        mapped = ColumnarTrace.open(path, mmap=True)
        assert mapped.is_mapped
        diags = lint_trace_subject(mapped, MYRINET_LIKE, "ring", CONFIG)
        assert not [d for d in diags if d.code == "DX000"]
        assert [d for d in diags if d.code == "TR008"]
        mapped.detach_mapping()

    def test_load_target_routes_store_by_magic(self, tmp_path):
        """`repro lint` classifies a store by magic bytes even when the
        extension lies."""
        from repro.diagnostics.cli import _load_target

        from repro.apps import build_app

        path = tmp_path / "innocent.bin"
        build_app("CG-32", iterations=2).columnar_trace().save(path)
        assert _load_target(str(path)) == ("trace", str(path))
        rpcs = tmp_path / "t.rpcs"
        rpcs.write_bytes(path.read_bytes())
        assert _load_target(str(rpcs)) == ("trace", str(rpcs))

    def test_service_lint_gate_is_record_free(self, poisoned):
        """The /v1/balance admission path must stay columnar-safe: the
        gate lints gear sets/models/caps, never a materialised trace."""
        from types import SimpleNamespace

        from repro.service.routes import parse_balance_request

        defaults = SimpleNamespace(beta=0.5, iterations=2, base_compute=1.0)
        spec, is_async = parse_balance_request(
            {"app": "CG-32", "power_cap": 100.0}, defaults
        )
        assert spec["app"] == "CG-32"
        assert spec["power_cap"] == 100.0  # gates admission AND selects
        assert not is_async


class TestSuppressionParity:
    def test_lint_ignore_meta_respected_on_columnar(self):
        trace = Trace(2, meta={"name": "supp", "lint-ignore": ["TR001"]})
        trace[0].append(ComputeBurst(duration=1.0))
        trace[1].append(ComputeBurst(duration=1.0))
        ct = ColumnarTrace.from_trace(trace)
        diags = lint_trace_subject(ct, MYRINET_LIKE, "supp", CONFIG)
        assert not [d for d in diags if d.code == "TR001"]
        assert_identical(ct, MYRINET_LIKE, "supp")
