"""Tests for the simulation service (``repro serve``).

Integration tests drive the real asyncio HTTP stack through
:class:`~repro.service.client.ServiceThread`; concurrency behaviour
(backpressure, coalescing, graceful drain) is made deterministic by
injecting a *gated* thread executor whose jobs block until the test
opens a gate — no sleeps-as-synchronization, no timing flakes.
"""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import ServiceConfig, ServiceThread
from repro.service.workers import execute_balance

#: The acceptance-criteria request: BT-MZ-32 / uniform:6 / MAX.
SPEC = {
    "app": "BT-MZ-32",
    "gears": "uniform:6",
    "algorithm": "max",
    "beta": 0.5,
    "iterations": 3,
    "base_compute": 0.02,
}


class GatedExecutor(ThreadPoolExecutor):
    """Executor whose jobs wait for :attr:`gate` before running."""

    def __init__(self, max_workers: int = 4):
        super().__init__(max_workers=max_workers)
        self.gate = threading.Event()
        self.simulations = 0
        self._lock = threading.Lock()

    def submit(self, fn, *args, **kwargs):
        def gated(*a, **kw):
            assert self.gate.wait(timeout=60), "test gate never opened"
            with self._lock:
                self.simulations += 1
            return fn(*a, **kw)

        return super().submit(gated, *args, **kwargs)


def make_service(tmp_path, executor=None, **overrides):
    overrides.setdefault("workers", 2)
    config = ServiceConfig(
        port=0,
        cache_dir=str(tmp_path / "service-cache"),
        **overrides,
    )
    return ServiceThread(config, executor=executor or ThreadPoolExecutor(2))


def metric_value(metrics_text: str, name: str) -> float:
    """The current value of an unlabelled counter/gauge in a scrape."""
    for line in metrics_text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[-1])
    return 0.0


def wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise TimeoutError("condition not reached in time")


# ----------------------------------------------------------------------
# Plumbing endpoints
# ----------------------------------------------------------------------

class TestPlumbing:
    def test_healthz(self, tmp_path):
        with make_service(tmp_path) as svc:
            health = svc.client.healthz()
            assert health["status"] == "ok"
            assert health["workers"]["total"] == 2
            assert health["queue"]["depth"] == 0
            assert health["jobs_pending"] == 0

    def test_unknown_route_404_and_wrong_method_405(self, tmp_path):
        with make_service(tmp_path) as svc:
            assert svc.client.request("GET", "/nope").status == 404
            r = svc.client.request("GET", "/v1/balance")
            assert r.status == 405
            assert r.json()["error"]["code"] == "method-not-allowed"

    def test_request_id_echoed(self, tmp_path):
        with make_service(tmp_path) as svc:
            r = svc.client.request(
                "GET", "/healthz", headers={"X-Request-Id": "abc-123"}
            )
            assert r.headers["X-Request-Id"] == "abc-123"
            # generated when absent
            r2 = svc.client.request("GET", "/healthz")
            assert r2.headers["X-Request-Id"]

    def test_experiment_index(self, tmp_path):
        from repro.experiments import EXPERIMENT_IDS

        with make_service(tmp_path) as svc:
            r = svc.client.request("GET", "/v1/experiments")
            assert r.status == 200
            assert r.json()["experiments"] == list(EXPERIMENT_IDS)


# ----------------------------------------------------------------------
# Balance round-trip + caching
# ----------------------------------------------------------------------

class TestBalance:
    def test_round_trip_byte_equal_to_direct_balancer(self, tmp_path):
        """The wire body is byte-identical to the offline pipeline."""
        report, _runner = execute_balance(dict(SPEC))
        expected = (
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        ).encode()
        with make_service(tmp_path) as svc:
            r = svc.client.balance(**SPEC)
            assert r.status == 200
            assert r.headers["X-Cache"] == "miss"
            assert r.body == expected

    def test_repeat_request_hits_cache(self, tmp_path):
        with make_service(tmp_path) as svc:
            first = svc.client.balance(**SPEC)
            second = svc.client.balance(**SPEC)
            assert first.headers["X-Cache"] == "miss"
            assert second.headers["X-Cache"] == "hit"
            assert second.body == first.body
            metrics = svc.client.metrics()
            assert (
                'repro_service_cache_fast_hits_total{kind="balance"} 1'
                in metrics
            )

    def test_defaults_applied(self, tmp_path):
        # only "app" is required; everything else has server defaults
        with make_service(tmp_path) as svc:
            r = svc.client.balance(app="CG-16", iterations=2)
            assert r.status == 200
            body = r.json()
            assert body["application"] == "CG-16"
            assert body["algorithm"] == "MAX"
            assert body["gear_set"] == "uniform-6"

    def test_custom_gear_list(self, tmp_path):
        with make_service(tmp_path) as svc:
            r = svc.client.balance(
                app="CG-16", iterations=2,
                gears=[[1.2, 0.9], [1.8, 1.0], [2.3, 1.1]],
            )
            assert r.status == 200
            assert r.json()["gear_set"] == "custom[3]"

    def test_engine_selection_is_body_identical(self, tmp_path):
        # 'des' and 'auto' change *how* a miss is computed, never the
        # result — and the selector must not split the cache identity,
        # so the second request is a fast hit of the first.
        with make_service(tmp_path) as svc:
            des = svc.client.balance(**SPEC, engine="des")
            auto = svc.client.balance(**SPEC, engine="auto")
            assert des.status == auto.status == 200
            assert auto.body == des.body
            assert auto.headers["X-Cache"] == "hit"

    def test_engine_counters_scraped(self, tmp_path):
        with make_service(tmp_path) as svc:
            assert svc.client.balance(**SPEC).status == 200
            metrics = svc.client.metrics()
            assert "repro_engine_compiled_runs_total" in metrics
            assert "repro_engine_auto_fallbacks_total" in metrics
            assert "repro_engine_compiled_evals_per_second" in metrics


# ----------------------------------------------------------------------
# Batched balance ("candidates" body)
# ----------------------------------------------------------------------

class TestBalanceBatch:
    CANDIDATES = [
        {"gears": "uniform:3"},
        {"gears": "uniform:6", "algorithm": "avg"},
    ]

    def test_each_result_byte_identical_to_scalar(self, tmp_path):
        """results[i] matches the scalar /v1/balance body for cell i."""
        with make_service(tmp_path) as svc:
            batch = svc.client.balance(**SPEC, candidates=self.CANDIDATES)
            assert batch.status == 200
            assert batch.headers["X-Cache"] == "miss"
            body = batch.json()
            assert body["count"] == len(self.CANDIDATES)
            for cand, got in zip(self.CANDIDATES, body["results"]):
                scalar = svc.client.balance(**{**SPEC, **cand})
                assert scalar.status == 200
                # the batch warmed the per-candidate report blobs, so
                # the scalar request is a front-end fast hit
                assert scalar.headers["X-Cache"] == "hit"
                assert json.dumps(got, sort_keys=True) == json.dumps(
                    scalar.json(), sort_keys=True
                )

    def test_repeat_batch_hits_cache(self, tmp_path):
        with make_service(tmp_path) as svc:
            first = svc.client.balance(**SPEC, candidates=self.CANDIDATES)
            second = svc.client.balance(**SPEC, candidates=self.CANDIDATES)
            assert first.headers["X-Cache"] == "miss"
            assert second.headers["X-Cache"] == "hit"
            assert second.body == first.body
            metrics = svc.client.metrics()
            assert (
                'repro_service_cache_fast_hits_total{kind="balance_batch"} 1'
                in metrics
            )

    def test_scalar_warm_cache_serves_batch_candidates(self, tmp_path):
        # scalar traffic first: the batch finds every cell in the shared
        # report blobs and prices nothing (engine counters are process-
        # cumulative, so assert on the scrape-to-scrape delta)
        with make_service(tmp_path) as svc:
            for cand in self.CANDIDATES:
                assert svc.client.balance(**{**SPEC, **cand}).status == 200
            before = metric_value(
                svc.client.metrics(), "repro_engine_batch_batches_total"
            )
            batch = svc.client.balance(**SPEC, candidates=self.CANDIDATES)
            assert batch.status == 200
            after = metric_value(
                svc.client.metrics(), "repro_engine_batch_batches_total"
            )
            assert after == before

    def test_batch_counters_scraped(self, tmp_path):
        with make_service(tmp_path) as svc:
            before = svc.client.metrics()
            assert svc.client.balance(
                **SPEC, candidates=self.CANDIDATES
            ).status == 200
            after = svc.client.metrics()
            for name, least in (
                ("repro_engine_batch_batches_total", 1),
                ("repro_engine_batch_candidates_total",
                 len(self.CANDIDATES)),
            ):
                assert (
                    metric_value(after, name) - metric_value(before, name)
                    >= least
                )
            fallback = "repro_engine_batch_fallback_candidates_total"
            assert metric_value(after, fallback) == metric_value(
                before, fallback
            )

    def test_async_batch_job(self, tmp_path):
        with make_service(tmp_path) as svc:
            r = svc.client.balance(
                **SPEC, candidates=self.CANDIDATES, **{"async": True}
            )
            assert r.status == 202
            job = svc.client.wait_job(r.json()["job"]["id"])
            assert job["status"] == "done"
            assert job["result"]["count"] == len(self.CANDIDATES)


class TestBalanceBatchValidation:
    @pytest.fixture(scope="class")
    def svc(self, tmp_path_factory):
        with make_service(tmp_path_factory.mktemp("svc-batch")) as service:
            yield service

    def test_candidates_must_be_a_nonempty_list(self, svc):
        for bad in ([], {"gears": "uniform:3"}, "uniform:3"):
            r = svc.client.balance(**SPEC, candidates=bad)
            assert r.status == 400
            assert "non-empty list" in r.json()["error"]["message"]

    def test_non_object_candidate_rejected(self, svc):
        r = svc.client.balance(**SPEC, candidates=["uniform:3"])
        assert r.status == 400
        assert "candidates[0] must be an object" in (
            r.json()["error"]["message"]
        )

    def test_unknown_candidate_key_rejected(self, svc):
        r = svc.client.balance(
            **SPEC, candidates=[{"gears": "uniform:3", "beta": 0.5}]
        )
        assert r.status == 400
        assert "candidates[0]" in r.json()["error"]["message"]

    def test_bad_candidate_gears_is_labelled(self, svc):
        r = svc.client.balance(
            **SPEC,
            candidates=[{"gears": "uniform:3"}, {"gears": "warp:9"}],
        )
        assert r.status == 400
        assert "candidates[1]" in r.json()["error"]["message"]

    def test_bad_candidate_algorithm_rejected(self, svc):
        r = svc.client.balance(**SPEC, candidates=[{"algorithm": "min"}])
        assert r.status == 400
        assert "'max' or 'avg'" in r.json()["error"]["message"]

    def test_candidate_cap_enforced(self, svc):
        too_many = [{"gears": "uniform:3"}] * 257
        r = svc.client.balance(**SPEC, candidates=too_many)
        assert r.status == 400
        assert "at most 256" in r.json()["error"]["message"]

    def test_lint_gate_covers_every_candidate(self, svc):
        # a 0.4 GHz gear extrapolates the voltage law: GR002 is only a
        # warning, so strict mode is what rejects it — per candidate
        gears = [[0.4, 0.7], [2.3, 1.1]]
        relaxed = svc.client.balance(
            **SPEC, candidates=[{"gears": gears}]
        )
        assert relaxed.status == 200
        strict = svc.client.balance(
            **SPEC, candidates=[{"gears": gears}], strict=True
        )
        assert strict.status == 400
        err = strict.json()["error"]
        assert err["code"] == "lint-rejected"
        codes = {d["code"] for d in err["detail"]["diagnostics"]}
        assert "GR002" in codes


# ----------------------------------------------------------------------
# Validation + lint gate
# ----------------------------------------------------------------------

class TestValidation:
    @pytest.fixture(scope="class")
    def svc(self, tmp_path_factory):
        # validation never reaches a worker; one service for the class
        with make_service(tmp_path_factory.mktemp("svc")) as service:
            yield service

    def test_unknown_field_rejected(self, svc):
        r = svc.client.balance(app="CG-16", bogus=1)
        assert r.status == 400
        err = r.json()["error"]
        assert err["code"] == "invalid-request"
        assert "bogus" in err["message"]

    def test_missing_app_rejected(self, svc):
        r = svc.client.balance(gears="uniform:6")
        assert r.status == 400
        assert "'app' is required" in r.json()["error"]["message"]

    def test_bad_app_name_rejected(self, svc):
        assert svc.client.balance(app="NOT-AN-APP").status == 400

    def test_bad_gear_spec_rejected(self, svc):
        assert svc.client.balance(app="CG-16", gears="warp:9").status == 400

    def test_non_object_body_rejected(self, svc):
        empty = svc.client.request("POST", "/v1/balance")
        assert empty.status == 400  # empty body -> {} -> missing 'app'
        bad = svc.client.request(
            "POST", "/v1/balance", payload=["not", "an", "object"]
        )
        assert bad.status == 400
        assert bad.json()["error"]["code"] == "invalid-request"

    def test_bad_iterations_rejected(self, svc):
        assert svc.client.balance(app="CG-16", iterations=0).status == 400
        assert svc.client.balance(app="CG-16", iterations="six").status == 400

    def test_unknown_engine_rejected(self, svc):
        r = svc.client.balance(app="CG-16", engine="turbo")
        assert r.status == 400
        assert "engine" in r.json()["error"]["message"]

    def test_unphysical_beta_is_lint_rejected(self, svc):
        r = svc.client.balance(app="CG-16", beta=2.0)
        assert r.status == 400
        err = r.json()["error"]
        assert err["code"] == "lint-rejected"
        codes = {d["code"] for d in err["detail"]["diagnostics"]}
        assert "MD001" in codes

    def test_strict_mode_rejects_warnings(self, svc):
        # a 0.4 GHz gear extrapolates the voltage law: GR002 (warning)
        gears = [[0.4, 0.7], [2.3, 1.1]]
        relaxed = svc.client.balance(
            app="CG-16", iterations=2, gears=gears
        )
        assert relaxed.status == 200
        strict = svc.client.balance(
            app="CG-16", iterations=2, gears=gears, strict=True
        )
        assert strict.status == 400
        codes = {
            d["code"]
            for d in strict.json()["error"]["detail"]["diagnostics"]
        }
        assert "GR002" in codes

    def test_unknown_experiment_404(self, svc):
        r = svc.client.experiment("not-a-figure")
        assert r.status == 404
        assert r.json()["error"]["code"] == "not-found"


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------

class TestBackpressure:
    def test_queue_full_returns_429_with_retry_after(self, tmp_path):
        gate = GatedExecutor()
        with make_service(
            tmp_path, executor=gate, queue_limit=2, workers=1
        ) as svc:
            # two async jobs fill the bounded queue (workers are gated)
            for i in (101, 102):
                r = svc.client.balance(
                    app="CG-16", iterations=i, **{"async": True}
                )
                assert r.status == 202
            wait_for(lambda: svc.client.healthz()["queue"]["depth"] == 2)

            burst = svc.client.balance(app="CG-16", iterations=103)
            assert burst.status == 429
            err = burst.json()["error"]
            assert err["code"] == "queue-full"
            assert int(burst.headers["Retry-After"]) >= 1
            assert err["detail"]["depth"] == 2

            metrics = svc.client.metrics()
            assert "repro_service_queue_rejected_total 1" in metrics

            # opening the gate drains the queue; service recovers
            gate.gate.set()
            wait_for(lambda: svc.client.healthz()["queue"]["depth"] == 0)
            ok = svc.client.balance(app="CG-16", iterations=2)
            assert ok.status == 200

    def test_rejected_request_burns_no_worker(self, tmp_path):
        gate = GatedExecutor()
        with make_service(
            tmp_path, executor=gate, queue_limit=1, workers=1
        ) as svc:
            r = svc.client.balance(
                app="CG-16", iterations=111, **{"async": True}
            )
            assert r.status == 202
            wait_for(lambda: svc.client.healthz()["queue"]["depth"] == 1)
            assert svc.client.balance(
                app="CG-16", iterations=112
            ).status == 429
            gate.gate.set()
        assert gate.simulations == 1  # the 429 never reached the pool


# ----------------------------------------------------------------------
# Single-flight coalescing
# ----------------------------------------------------------------------

class TestCoalescing:
    def test_concurrent_identical_requests_run_one_simulation(self, tmp_path):
        gate = GatedExecutor()
        n_clients = 5
        with make_service(tmp_path, executor=gate, queue_limit=8) as svc:
            results = [None] * n_clients

            def fire(i):
                results[i] = svc.client.balance(**SPEC)

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            # exactly one leader is admitted; followers coalesce
            wait_for(
                lambda: svc.client.healthz()["queue"]["depth"] == 1
            )
            wait_for(lambda: svc.app.flight.followers_total == n_clients - 1)
            gate.gate.set()
            for t in threads:
                t.join(timeout=60)

            states = sorted(r.headers["X-Cache"] for r in results)
            assert states == ["coalesced"] * (n_clients - 1) + ["miss"]
            bodies = {r.body for r in results}
            assert len(bodies) == 1  # everyone got the same bytes
            assert all(r.status == 200 for r in results)
            metrics = svc.client.metrics()
            assert (
                f'repro_service_coalesced_total{{kind="balance"}} '
                f"{n_clients - 1}" in metrics
            )
        assert gate.simulations == 1

    def test_different_requests_do_not_coalesce(self, tmp_path):
        gate = GatedExecutor()
        gate.gate.set()  # run freely; this test is about keying only
        with make_service(tmp_path, executor=gate) as svc:
            a = svc.client.balance(app="CG-16", iterations=2)
            b = svc.client.balance(app="CG-16", iterations=3)
            assert a.status == b.status == 200
            assert a.headers["X-Cache"] == b.headers["X-Cache"] == "miss"
        assert gate.simulations == 2


# ----------------------------------------------------------------------
# Async jobs
# ----------------------------------------------------------------------

class TestAsyncJobs:
    def test_job_lifecycle(self, tmp_path):
        with make_service(tmp_path) as svc:
            r = svc.client.balance(**SPEC, **{"async": True})
            assert r.status == 202
            job_ref = r.json()["job"]
            assert job_ref["poll"] == f"/v1/jobs/{job_ref['id']}"
            job = svc.client.wait_job(job_ref["id"])
            assert job["status"] == "done"
            assert job["result"]["application"] == "BT-MZ-32"
            assert job["seconds"] >= 0
            # the async result matches the sync wire format
            sync = svc.client.balance(**SPEC)
            assert sync.headers["X-Cache"] == "hit"
            assert job["result"] == sync.json()

    def test_failed_job_reports_error(self, tmp_path):
        with make_service(tmp_path, queue_limit=1) as svc:
            # lint failures happen at parse time even for async
            r = svc.client.balance(app="CG-16", beta=2.0, **{"async": True})
            assert r.status == 400

    def test_unknown_job_404(self, tmp_path):
        with make_service(tmp_path) as svc:
            assert svc.client.job("balance-999999-abc").status == 404


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------

class TestShutdown:
    def test_drain_finishes_inflight_jobs(self, tmp_path):
        gate = GatedExecutor()
        svc = make_service(tmp_path, executor=gate).start()
        r = svc.client.balance(app="CG-16", iterations=2, **{"async": True})
        assert r.status == 202
        job_id = r.json()["job"]["id"]
        wait_for(lambda: svc.client.healthz()["queue"]["depth"] == 1)

        stopper = threading.Thread(target=svc.stop)
        stopper.start()
        # shutdown must wait for the gated job, not abandon it
        time.sleep(0.1)
        assert stopper.is_alive()
        gate.gate.set()
        stopper.join(timeout=60)
        assert not stopper.is_alive()

        job = svc.app.jobs.get(job_id)
        assert job is not None and job.status == "done"
        assert gate.simulations == 1

    def test_stop_is_idempotent_and_clean_when_idle(self, tmp_path):
        svc = make_service(tmp_path).start()
        assert svc.client.healthz()["status"] == "ok"
        svc.stop()
        svc.stop()


# ----------------------------------------------------------------------
# Experiments over HTTP
# ----------------------------------------------------------------------

class TestExperiments:
    def test_experiment_round_trip_and_cache(self, tmp_path):
        with make_service(tmp_path) as svc:
            r = svc.client.experiment(
                "table_gears", iterations=2, apps=["CG-16"]
            )
            assert r.status == 200
            assert r.headers["X-Cache"] == "miss"
            body = r.json()
            assert body["eid"] == "table_gears"
            assert body["columns"] and body["rows"]
            again = svc.client.experiment(
                "table_gears", iterations=2, apps=["CG-16"]
            )
            assert again.headers["X-Cache"] == "hit"
            assert again.body == r.body


# ----------------------------------------------------------------------
# Metrics exposition format
# ----------------------------------------------------------------------

class TestMetrics:
    def test_scrape_format(self, tmp_path):
        with make_service(tmp_path) as svc:
            svc.client.balance(**SPEC)
            svc.client.balance(**SPEC)
            r = svc.client.request("GET", "/metrics")
            assert r.status == 200
            assert r.headers["Content-Type"].startswith("text/plain")
            text = r.text
        assert text.endswith("\n")
        lines = text.splitlines()
        helps = [ln for ln in lines if ln.startswith("# HELP ")]
        types = [ln for ln in lines if ln.startswith("# TYPE ")]
        assert len(helps) == len(types) >= 10
        assert (
            'repro_service_requests_total{endpoint="balance",'
            'method="POST",status="200"} 2' in lines
        )
        assert 'repro_service_simulations_total{kind="balance"} 1' in lines
        assert "# TYPE repro_service_request_seconds histogram" in text
        bucket_lines = [
            ln for ln in lines
            if ln.startswith("repro_service_request_seconds_bucket")
        ]
        assert any('le="+Inf"' in ln for ln in bucket_lines)
        assert "repro_service_request_seconds_count" in text
        assert "repro_service_queue_limit 16" in lines
        assert "repro_service_result_cache_hits_total" in text
        assert "repro_service_result_cache_corrupt_total 0" in lines
        assert "repro_service_cache_hit_ratio" in text

    def test_hit_ratio_counts_requests_not_lookups(self, tmp_path):
        """One count per request: a cold request is one miss however
        many cache lookups it makes, a warm one is one hit."""
        def ratio(svc):
            text = svc.client.request("GET", "/metrics").text
            return metric_value(text, "repro_service_cache_hit_ratio")

        with make_service(tmp_path) as svc:
            svc.client.balance(**SPEC)
            assert ratio(svc) == 0.0
            svc.client.balance(**SPEC)
            assert ratio(svc) == 0.5
            svc.client.balance(**SPEC)
            assert ratio(svc) == pytest.approx(2 / 3)

    def test_unit_metric_primitives(self):
        from repro.service.metrics import MetricsRegistry

        reg = MetricsRegistry()
        c = reg.counter("c_total", "help.", ("op",))
        c.inc(op="x")
        c.inc(2, op="x")
        assert c.value(op="x") == 3
        with pytest.raises(ValueError):
            c.inc(-1, op="x")
        g = reg.gauge("g", "help.", fn=lambda: 7)
        assert g.value() == 7
        with pytest.raises(ValueError):
            g.set(1)
        h = reg.histogram("h_seconds", "help.", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        assert h.count() == 2
        text = reg.render()
        assert 'c_total{op="x"} 3' in text
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 2' in text
        assert "h_seconds_count 2" in text
        with pytest.raises(ValueError):
            reg.gauge("g", "duplicate name.")


# ----------------------------------------------------------------------
# Unit tests: admission controller + single-flight
# ----------------------------------------------------------------------

class TestAdmissionController:
    def test_rejects_beyond_limit(self):
        import asyncio

        from repro.service.errors import QueueFull
        from repro.service.queue import AdmissionController

        async def scenario():
            q = AdmissionController(limit=2, workers=1)
            q.acquire()
            q.acquire()
            with pytest.raises(QueueFull) as exc:
                q.acquire()
            assert exc.value.retry_after >= 1
            assert q.stats()["rejected"] == 1
            q.release(0.5)
            q.acquire()  # slot freed
            q.release(0.5)
            q.release(0.5)
            await q.drain()  # returns immediately at depth 0

        asyncio.run(scenario())

    def test_retry_after_tracks_job_duration(self):
        import asyncio

        from repro.service.queue import AdmissionController

        async def scenario():
            q = AdmissionController(limit=4, workers=1)
            for _ in range(6):
                q.acquire()
                q.release(10.0)  # EMA converges toward 10s jobs
            q.acquire()
            q.acquire()
            # 2 queued jobs at ~10s each on one worker: >= ~15s estimate
            assert q.retry_after() >= 15
            q.release()
            q.release()

        asyncio.run(scenario())

    def test_release_without_acquire_is_a_bug(self):
        import asyncio

        from repro.service.queue import AdmissionController

        async def scenario():
            q = AdmissionController(limit=1, workers=1)
            with pytest.raises(RuntimeError):
                q.release()

        asyncio.run(scenario())


class TestSingleFlight:
    def test_followers_share_leader_result(self):
        import asyncio

        from repro.service.coalesce import SingleFlight

        async def scenario():
            flight = SingleFlight()
            release = asyncio.Event()
            calls = 0

            async def thunk():
                nonlocal calls
                calls += 1
                await release.wait()
                return "value"

            tasks = [
                asyncio.create_task(flight.do("k", thunk)) for _ in range(5)
            ]
            await asyncio.sleep(0)  # let every task reach do()
            assert flight.inflight() == 1
            release.set()
            results = await asyncio.gather(*tasks)
            assert calls == 1
            assert sum(1 for _r, led in results if led) == 1
            assert {r for r, _led in results} == {"value"}
            assert flight.leaders_total == 1
            assert flight.followers_total == 4
            assert flight.inflight() == 0

        asyncio.run(scenario())

    def test_leader_failure_propagates_to_followers(self):
        import asyncio

        from repro.service.coalesce import SingleFlight

        async def scenario():
            flight = SingleFlight()
            release = asyncio.Event()

            async def thunk():
                await release.wait()
                raise RuntimeError("boom")

            tasks = [
                asyncio.create_task(flight.do("k", thunk)) for _ in range(3)
            ]
            await asyncio.sleep(0)
            release.set()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            # the key is free again after failure
            assert flight.inflight() == 0
            ok, led = await flight.do("k", _ok)
            assert ok == "recovered" and led

        async def _ok():
            return "recovered"

        asyncio.run(scenario())

    def test_distinct_keys_run_independently(self):
        import asyncio

        from repro.service.coalesce import SingleFlight

        async def scenario():
            flight = SingleFlight()

            async def make(value):
                return value

            a, led_a = await flight.do("a", lambda: make(1))
            b, led_b = await flight.do("b", lambda: make(2))
            assert (a, b) == (1, 2)
            assert led_a and led_b
            assert flight.leaders_total == 2
            assert flight.followers_total == 0

        asyncio.run(scenario())
