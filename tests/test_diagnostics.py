"""Tests for the cross-layer diagnostics engine (``repro lint``)."""

import dataclasses
import json

import pytest

from repro.apps import build_app
from repro.cli import main
from repro.core.gears import (
    ContinuousGearSet,
    Gear,
    LinearVoltageLaw,
    uniform_gear_set,
)
from repro.diagnostics import (
    Severity,
    all_rules,
    analyze_deadlock,
    apply_baseline,
    exit_code,
    is_selected,
    lint_gear_set,
    lint_models,
    lint_platform,
    lint_trace_subject,
    load_baseline,
    to_sarif,
    write_baseline,
)
from repro.diagnostics.engine import LintConfig, run_domain
from repro.diagnostics.rules_results import ResultsContext
from repro.experiments.fig9 import avg_discrete_set
from repro.netsim.platform import MYRINET_LIKE, PlatformConfig
from repro.netsim.simulator import MpiSimulator
from repro.simx.errors import DeadlockError, SimulationError
from repro.traces.jsonio import write_trace
from repro.traces.records import (
    CollectiveRecord,
    ComputeBurst,
    IrecvRecord,
    IsendRecord,
    MarkerRecord,
    RecvRecord,
    SendRecord,
    WaitRecord,
)
from repro.traces.trace import Trace

RENDEZVOUS = PlatformConfig(eager_threshold=100)


def marked(records_per_rank, meta=None):
    return Trace.from_streams(
        [[MarkerRecord("iter", 0), *recs] for recs in records_per_rank],
        meta=meta,
    )


def codes(diagnostics):
    return {d.code for d in diagnostics}


class TestRegistry:
    def test_rule_table_is_sane(self):
        rules = all_rules()
        assert len(rules) >= 20
        assert len({r.code for r in rules}) == len(rules)
        for rule in rules:
            assert rule.summary
            assert isinstance(rule.severity, Severity)

    def test_selection_prefixes(self):
        assert is_selected("TR008", select=("TR",))
        assert is_selected("TR008", select=("TR008",))
        assert not is_selected("TR008", select=("GR",))
        assert not is_selected("TR008", ignore=("TR",))
        # ignore wins over select
        assert not is_selected("TR008", select=("TR",), ignore=("TR008",))
        # empty select means everything
        assert is_selected("MD001")

    def test_engine_select_and_ignore(self):
        trace = marked([[ComputeBurst(0.01)], []])  # rank 1 idle -> TR002
        only = lint_trace_subject(
            trace, config=LintConfig(select=("TR002",))
        )
        assert codes(only) == {"TR002"}
        none = lint_trace_subject(trace, config=LintConfig(ignore=("TR",)))
        assert none == []

    def test_per_trace_suppression_via_meta(self):
        trace = marked(
            [[ComputeBurst(0.01)], []], meta={"lint-ignore": ["TR002"]}
        )
        assert "TR002" not in codes(lint_trace_subject(trace))

    def test_crashing_rule_becomes_dx000(self, monkeypatch):
        from repro.diagnostics import registry as reg

        def boom(ctx, make):
            raise RuntimeError("synthetic failure")

        broken = dataclasses.replace(reg._REGISTRY["TR001"], check=boom)
        monkeypatch.setitem(reg._REGISTRY, "TR001", broken)
        trace = marked([[ComputeBurst(0.01)]])
        found = lint_trace_subject(trace)
        assert "DX000" in codes(found)
        dx = next(d for d in found if d.code == "DX000")
        assert "TR001" in dx.message and dx.severity is Severity.ERROR


class TestDeadlockDetector:
    def test_head_to_head_rendezvous_cycle(self):
        trace = marked(
            [
                [ComputeBurst(0.01), SendRecord(1, 10_000), RecvRecord(1)],
                [ComputeBurst(0.01), SendRecord(0, 10_000), RecvRecord(0)],
            ]
        )
        report = analyze_deadlock(trace, RENDEZVOUS)
        assert report.deadlocked
        assert report.cycles == ((0, 1),)
        found = lint_trace_subject(trace, RENDEZVOUS)
        errors = [d for d in found if d.severity is Severity.ERROR]
        assert codes(errors) == {"TR008"}
        # pair counts are balanced: the old W003 heuristic saw nothing
        assert "TR003" not in codes(found)

    def test_three_rank_circular_wait(self):
        ring = marked(
            [
                [ComputeBurst(0.01), RecvRecord(2), SendRecord(1, 10)],
                [ComputeBurst(0.01), RecvRecord(0), SendRecord(2, 10)],
                [ComputeBurst(0.01), RecvRecord(1), SendRecord(0, 10)],
            ]
        )
        report = analyze_deadlock(ring, MYRINET_LIKE)
        assert report.deadlocked and report.cycles == ((0, 1, 2),)

    def test_eager_exchange_is_clean(self):
        trace = marked(
            [
                [ComputeBurst(0.01), SendRecord(1, 10), RecvRecord(1)],
                [ComputeBurst(0.01), SendRecord(0, 10), RecvRecord(0)],
            ]
        )
        report = analyze_deadlock(trace, RENDEZVOUS)
        assert not report.deadlocked
        assert not report.undelivered

    def test_nonblocking_breaks_the_cycle(self):
        trace = marked(
            [
                [
                    ComputeBurst(0.01),
                    IsendRecord(1, 10_000, request=1),
                    RecvRecord(1),
                    WaitRecord(1),
                ],
                [
                    ComputeBurst(0.01),
                    IsendRecord(0, 10_000, request=1),
                    RecvRecord(0),
                    WaitRecord(1),
                ],
            ]
        )
        assert not analyze_deadlock(trace, RENDEZVOUS).deadlocked

    def test_orphaned_recv(self):
        trace = marked(
            [[ComputeBurst(0.01)], [ComputeBurst(0.01), RecvRecord(0)]]
        )
        report = analyze_deadlock(trace, MYRINET_LIKE)
        assert report.deadlocked and not report.cycles
        assert [o.rank for o in report.orphans] == [1]
        assert "TR009" in codes(lint_trace_subject(trace))

    def test_undelivered_eager_message(self):
        trace = marked(
            [[ComputeBurst(0.01), SendRecord(1, 10)], [ComputeBurst(0.01)]]
        )
        report = analyze_deadlock(trace, MYRINET_LIKE)
        assert not report.deadlocked
        assert report.undelivered == ((0, 1, 1),)
        assert "TR009" in codes(lint_trace_subject(trace))

    def test_irecv_wait_orphan(self):
        trace = marked(
            [
                [ComputeBurst(0.01)],
                [ComputeBurst(0.01), IrecvRecord(0, request=7), WaitRecord(7)],
            ]
        )
        report = analyze_deadlock(trace, MYRINET_LIKE)
        assert report.deadlocked
        assert [o.rank for o in report.orphans] == [1]

    def test_collective_order_mismatch(self):
        trace = marked(
            [
                [ComputeBurst(0.01), CollectiveRecord("barrier")],
                [ComputeBurst(0.01), CollectiveRecord("bcast", 64)],
            ]
        )
        found = lint_trace_subject(trace)
        assert "TR010" in codes(found)

    def test_collective_entered_before_send_is_a_cycle(self):
        # classic pattern: rank 0 enters the barrier before sending the
        # message rank 1 is still blocked receiving — a circular wait
        trace = marked(
            [
                [ComputeBurst(0.01), CollectiveRecord("barrier")],
                [ComputeBurst(0.01), RecvRecord(0), CollectiveRecord("barrier")],
            ]
        )
        report = analyze_deadlock(trace, MYRINET_LIKE)
        assert report.deadlocked and report.cycles == ((0, 1),)

    def test_builtin_apps_deadlock_free_at_error_level(self):
        for name in ("BT-MZ-32", "CG-32", "MG-32", "IS-32", "WRF-32",
                     "SPECFEM3D-32", "PEPC-128"):
            app = build_app(name, iterations=2)
            trace = MpiSimulator().run(
                app.programs(), record_trace=True, meta={"name": app.name}
            ).trace
            errors = [
                d for d in lint_trace_subject(trace, subject=name)
                if d.severity is Severity.ERROR
            ]
            assert errors == [], f"{name}: {[str(d) for d in errors]}"



def _ring(nbytes):
    """Four ranks each send to their successor, then receive."""
    return marked(
        [
            [
                ComputeBurst(0.01),
                SendRecord((rank + 1) % 4, nbytes),
                RecvRecord((rank - 1) % 4),
            ]
            for rank in range(4)
        ]
    )


BIG = MYRINET_LIKE.eager_threshold + 1  # rendezvous on the default net

#: name -> (world builder, what the DES does with it).  No wildcard
#: receives: the replay settles those FIFO, the DES by timing.
DES_ORACLE_WORLDS = {
    "rendezvous-ring": (lambda: _ring(BIG), "deadlock"),
    "eager-ring": (lambda: _ring(8), "clean"),
    "head-to-head-rendezvous": (
        lambda: marked(
            [
                [ComputeBurst(0.01), SendRecord(1, BIG), RecvRecord(1)],
                [ComputeBurst(0.01), SendRecord(0, BIG), RecvRecord(0)],
            ]
        ),
        "deadlock",
    ),
    "orphan-recv": (
        lambda: marked(
            [[ComputeBurst(0.01)], [ComputeBurst(0.01), RecvRecord(0)]]
        ),
        "deadlock",
    ),
    "collective-clash": (
        lambda: marked(
            [
                [ComputeBurst(0.01), CollectiveRecord("barrier")],
                [ComputeBurst(0.01), CollectiveRecord("allreduce", 8)],
            ]
        ),
        "mismatch",
    ),
    "app-CG-16": (
        lambda: build_app("CG-16", iterations=2).columnar_trace(),
        "clean",
    ),
    "app-BT-MZ-32": (
        lambda: build_app("BT-MZ-32", iterations=2).columnar_trace(),
        "clean",
    ),
}


class TestDesJudgesTheReplay:
    """The discrete-event simulator is the independent check of the
    static replay: a deadlock report holds exactly when the DES raises
    ``DeadlockError``, and a collective mismatch exactly when the DES
    rejects the collective order."""

    @pytest.mark.parametrize("name", list(DES_ORACLE_WORLDS))
    def test_replay_agrees_with_des(self, name):
        build, expected = DES_ORACLE_WORLDS[name]
        trace = build()
        try:
            MpiSimulator(MYRINET_LIKE).run_trace(trace)
        except DeadlockError:
            outcome = "deadlock"
        except SimulationError as exc:
            assert "collective mismatch" in str(exc)
            outcome = "mismatch"
        else:
            outcome = "clean"
        assert outcome == expected

        report = analyze_deadlock(trace, MYRINET_LIKE)
        assert report.deadlocked == (outcome == "deadlock")
        assert bool(report.collective_mismatches) == (outcome == "mismatch")


class TestGearAndPlatformRules:
    def test_default_sets_have_no_errors(self):
        for gear_set in (
            uniform_gear_set(6),
            avg_discrete_set(),
            ContinuousGearSet(0.8, 2.3),
        ):
            errors = [
                d for d in lint_gear_set(gear_set)
                if d.severity is Severity.ERROR
            ]
            assert errors == []

    def test_gr001_non_monotone_voltage(self):
        decreasing = LinearVoltageLaw(f0=0.8, v0=1.5, f1=2.3, v1=1.0)
        gear_set = ContinuousGearSet(0.8, 2.3, law=decreasing)
        assert "GR001" in codes(lint_gear_set(gear_set))

    def test_gr002_below_validated_range(self):
        from repro.core.gears import unlimited_continuous_set

        assert "GR002" in codes(lint_gear_set(unlimited_continuous_set()))
        assert "GR002" not in codes(lint_gear_set(uniform_gear_set(6)))

    def test_gr003_overclock_off_the_line(self):
        bad = uniform_gear_set(6).with_extra_gear(Gear(2.6, 1.7))
        assert "GR003" in codes(lint_gear_set(bad))
        # the paper's validated 2.6 GHz / 1.6 V point is accepted
        assert "GR003" not in codes(lint_gear_set(avg_discrete_set()))

    def test_platform_defaults_clean(self):
        assert lint_platform(MYRINET_LIKE) == []

    def test_pl001_and_pl002(self):
        weird = PlatformConfig(
            eager_threshold=0, latency=0.5, bandwidth=2e5
        )
        found = codes(lint_platform(weird))
        assert {"PL001", "PL002"} <= found


class TestModelRules:
    def test_defaults_clean(self):
        assert lint_models() == []

    def test_md001_beta_out_of_range(self):
        found = lint_models(beta=1.5)
        assert codes(found) == {"MD001"}
        assert exit_code(found, Severity.ERROR) == 1


class TestResultsRules:
    def _context(self, tmp_path, manifest, csvs=(), golden=None):
        for name, text in csvs:
            (tmp_path / name).write_text(text)
        return ResultsContext(
            manifest, tmp_path, subject="manifest.json", golden=golden
        )

    def test_rs001_error_entry(self, tmp_path):
        ctx = self._context(
            tmp_path,
            {"experiments": {"fig2": {"error": "boom", "seconds": 0.1}}},
        )
        assert "RS001" in codes(run_domain("results", ctx))

    def test_rs002_nan_and_negative_metrics(self, tmp_path):
        ctx = self._context(
            tmp_path,
            {"experiments": {"fig2": {"rows": 2, "seconds": 0.1}}},
            csvs=[
                (
                    "fig2.csv",
                    "application,normalized_energy_pct\nCG-32,nan\n"
                    "MG-32,-4.0\n",
                )
            ],
        )
        found = [d for d in run_domain("results", ctx) if d.code == "RS002"]
        assert len(found) == 2

    def test_rs003_incomplete_campaign(self, tmp_path):
        ctx = self._context(tmp_path, {"experiments": {}})
        assert "RS003" in codes(run_domain("results", ctx))

    def test_rs004_golden_drift(self, tmp_path):
        golden = {
            "config": {"iterations": 3, "beta": 0.5},
            "table3": {"CG-32": [97.82, 78.54]},
        }
        manifest = {
            "config": {"iterations": 3, "beta": 0.5},
            "experiments": {"table3": {"rows": 1}},
        }
        drifted = (
            "application,load_balance_pct,parallel_efficiency_pct\n"
            "CG-32,90.00,78.54\n"
        )
        ctx = self._context(
            tmp_path, manifest, csvs=[("table3.csv", drifted)], golden=golden
        )
        assert "RS004" in codes(run_domain("results", ctx))
        # a different configuration must not be compared
        other = dict(manifest, config={"iterations": 6, "beta": 0.5})
        ctx2 = self._context(
            tmp_path, other, csvs=[("table3.csv", drifted)], golden=golden
        )
        assert "RS004" not in codes(run_domain("results", ctx2))


class TestSarifOutput:
    def test_schema_shape(self):
        trace = marked(
            [[ComputeBurst(0.01)], [ComputeBurst(0.01), RecvRecord(0)]]
        )
        log = to_sarif(lint_trace_subject(trace, subject="toy"))
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        for descriptor in driver["rules"]:
            assert descriptor["defaultConfiguration"]["level"] in (
                "error", "warning", "note",
            )
        assert run["results"], "expected findings for the orphaned recv"
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert result["level"] in ("error", "warning", "note")
            assert result["message"]["text"]
            assert result["locations"][0]["logicalLocations"][0]["name"]
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]

    def test_severity_level_mapping(self):
        assert Severity.ERROR.sarif_level == "error"
        assert Severity.WARNING.sarif_level == "warning"
        assert Severity.INFO.sarif_level == "note"


class TestBaseline:
    def test_roundtrip_and_ratchet(self, tmp_path):
        trace = marked(
            [[ComputeBurst(0.01)], [ComputeBurst(0.01), RecvRecord(0)]]
        )
        found = lint_trace_subject(trace, subject="toy")
        assert found
        path = tmp_path / "baseline.json"
        write_baseline(path, found)
        accepted = load_baseline(path)
        assert apply_baseline(found, accepted) == []
        # a new finding (different subject) is not covered
        fresh = lint_trace_subject(trace, subject="other")
        assert apply_baseline(fresh, accepted) == fresh

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-baseline.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_baseline(path)


class TestLintCli:
    @pytest.fixture()
    def deadlock_trace_path(self, tmp_path):
        trace = marked(
            [
                [ComputeBurst(0.01), SendRecord(1, 100_000), RecvRecord(1)],
                [ComputeBurst(0.01), SendRecord(0, 100_000), RecvRecord(0)],
            ]
        )
        path = tmp_path / "deadlock.jsonl"
        write_trace(trace, path)
        return str(path)

    def test_fail_on_levels(self, deadlock_trace_path):
        assert main(["lint", deadlock_trace_path]) == 1
        assert (
            main(["lint", deadlock_trace_path, "--select", "TR001"]) == 0
        )
        # info findings only fail at --fail-on info
        assert (
            main(["lint", deadlock_trace_path, "--select", "TR005",
                  "--fail-on", "warning"]) == 0
        )

    def test_select_ignore_and_json(self, deadlock_trace_path, capsys):
        rc = main(
            ["lint", deadlock_trace_path, "--select", "TR008",
             "--format", "json"]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert [d["code"] for d in payload] == ["TR008"]
        rc = main(["lint", deadlock_trace_path, "--ignore", "TR"])
        assert rc == 0

    def test_sarif_file_output(self, deadlock_trace_path, tmp_path):
        out = tmp_path / "lint.sarif"
        rc = main(
            ["lint", deadlock_trace_path, "--format", "sarif",
             "-o", str(out)]
        )
        assert rc == 1
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        assert any(
            r["ruleId"] == "TR008" for r in log["runs"][0]["results"]
        )

    def test_baseline_workflow(self, deadlock_trace_path, tmp_path):
        baseline = tmp_path / "baseline.json"
        rc = main(
            ["lint", deadlock_trace_path, "--baseline", str(baseline),
             "--write-baseline"]
        )
        assert rc == 0 and baseline.is_file()
        # ratcheted: the accepted deadlock no longer fails the run
        assert (
            main(["lint", deadlock_trace_path, "--baseline", str(baseline)])
            == 0
        )

    def test_builtin_audit_passes_at_error(self):
        assert main(["lint", "--apps", "CG-32,IS-32"]) == 0

    def test_bad_target_is_usage_error(self, tmp_path):
        bogus = tmp_path / "file.txt"
        bogus.write_text("hi")
        assert main(["lint", str(bogus)]) == 2


class TestLegacyShim:
    def test_w006_reports_each_collective_index(self):
        from repro.traces.lint import lint_trace

        trace = marked(
            [
                [
                    ComputeBurst(0.01),
                    CollectiveRecord("alltoall", 100_000),
                    CollectiveRecord("alltoall", 100_000),
                ],
                [
                    ComputeBurst(0.01),
                    CollectiveRecord("alltoall", 10),
                    CollectiveRecord("alltoall", 10),
                ],
            ]
        )
        w006 = [w for w in lint_trace(trace) if w.code == "W006"]
        assert len(w006) == 2
        assert "#0" in w006[0].message and "#1" in w006[1].message

    def test_sort_is_deterministic_and_rank_none_first(self):
        from repro.traces.lint import lint_trace

        trace = Trace.from_streams(
            [[ComputeBurst(0.01)], []]  # W001 trace-wide + W002 rank 1
        )
        warnings = lint_trace(trace)
        key = [(w.code, w.rank is not None, w.rank or 0) for w in warnings]
        assert key == sorted(key)
        assert warnings[0].code == "W001" and warnings[0].rank is None
