"""`repro serve`: the asyncio simulation-as-a-service application.

Architecture (one process, inference-server shaped)::

    client ──HTTP──▶ parse/validate ──▶ lint gate (diagnostics)
                       │ 400 on bad input      │ 400 with diagnostics
                       ▼                       ▼
                 single-flight ──▶ ResultCache fast path (disk, ~100 µs)
                       │ followers await leader     │ hit: respond
                       ▼                            ▼ miss
                 admission control (bounded queue; 429 + Retry-After)
                       ▼
                 ProcessPoolExecutor workers (simulate, populate cache)

Everything except the simulations runs on one event loop; the pure,
deterministic trace-driven workload lives in worker processes that
share the content-addressed on-disk cache, so any result is computed
at most once per cache generation — across the service, the CLI *and*
parallel campaigns.

Graceful shutdown (SIGTERM/SIGINT): stop accepting connections, let
admitted jobs and in-flight requests finish, cancel idle keep-alive
readers, then shut the pool down.  Every request carries an
``X-Request-Id`` (client-provided or generated) that is echoed in the
response and stamped on every log line.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import signal
import time
from dataclasses import dataclass
from typing import Any

from repro.service import routes as _routes
from repro.service.coalesce import SingleFlight
from repro.service.errors import (
    InternalError,
    ServiceError,
    ShuttingDown,
    ValidationError,
)
from repro.service.jobs import Job, JobTable
from repro.service.metrics import MetricsRegistry
from repro.service.queue import AdmissionController
from repro.service.routes import HttpRequest, Response, error_response
from repro.service.workers import (
    SimulationPool,
    run_balance_batch_job,
    run_balance_job,
    run_experiment_job,
)

__all__ = ["ServiceApp", "ServiceConfig"]

log = logging.getLogger("repro.service")

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: kind -> (pool job function, cache kind for the fast path).
_JOB_FNS = {
    "balance": run_balance_job,
    "balance_batch": run_balance_batch_job,
    "experiment": run_experiment_job,
}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (see ``repro serve --help``)."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 2
    #: Max admitted jobs (queued + running); beyond it requests get 429.
    queue_limit: int = 16
    #: Result-cache directory; ``None`` resolves to the default dir.
    cache_dir: str | None = None
    #: Defaults applied to requests that omit the field.
    iterations: int = 6
    base_compute: float = 0.02
    beta: float = 0.5
    #: How long finished async jobs stay pollable.
    job_ttl_seconds: float = 3600.0
    #: How long a draining replica keeps answering GETs (job polls,
    #: health) after its last admitted job finished, so 202-polling
    #: clients observe terminal states before the process exits.
    drain_linger: float = 0.0
    #: Display name in logs and fleet health ("replica-0", ...).
    replica_name: str | None = None


class ServiceApp:
    """Composition root: HTTP front-end + queue + pool + cache + metrics."""

    def __init__(self, config: ServiceConfig | None = None, executor=None):
        from repro.experiments.cache import ResultCache, default_cache_dir

        self.config = config or ServiceConfig()
        cache_dir = self.config.cache_dir or str(default_cache_dir())
        self.cache = ResultCache(cache_dir)
        self.queue = AdmissionController(
            self.config.queue_limit, self.config.workers
        )
        self.flight = SingleFlight()
        self.pool = SimulationPool(self.config.workers, executor=executor)
        self.jobs = JobTable(self.config.job_ttl_seconds)
        self.metrics = MetricsRegistry()
        self._worker_cache: dict[str, int] = {}
        self._worker_engines: dict[str, float] = {}
        # compute requests served, and how many of them the cache answered
        self._served = 0
        self._served_from_cache = 0
        self._build_metrics()

        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._started = 0.0
        self._draining = False
        self._warm = False
        self._active_requests = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._job_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _cache_counter(self, key: str) -> float:
        return self.cache.stats().get(key, 0) + self._worker_cache.get(key, 0)

    def _engine_counter(self, key: str) -> float:
        from repro.netsim.enginestats import process_engine_stats

        return process_engine_stats()[key] + self._worker_engines.get(key, 0)

    def _engine_stats(self) -> dict[str, float]:
        from repro.netsim.enginestats import ENGINE_STAT_KEYS

        return {k: self._engine_counter(k) for k in ENGINE_STAT_KEYS}

    def _build_metrics(self) -> None:
        m = self.metrics
        self.requests_total = m.counter(
            "repro_service_requests_total",
            "HTTP requests served, by endpoint/method/status.",
            ("endpoint", "method", "status"),
        )
        self.request_seconds = m.histogram(
            "repro_service_request_seconds",
            "End-to-end request latency in seconds.",
            ("endpoint",),
        )
        m.gauge(
            "repro_service_queue_depth",
            "Admitted jobs currently queued or running.",
            fn=lambda: self.queue.depth,
        )
        m.gauge(
            "repro_service_queue_limit",
            "Admission limit; beyond it requests receive 429.",
            fn=lambda: self.queue.limit,
        )
        m.counter(
            "repro_service_queue_rejected_total",
            "Requests rejected with 429 by admission control.",
            fn=lambda: self.queue.rejected_total,
        )
        m.gauge(
            "repro_service_workers",
            "Size of the simulation worker pool.",
            fn=lambda: self.pool.workers,
        )
        m.gauge(
            "repro_service_workers_busy",
            "Workers currently executing a simulation job.",
            fn=lambda: self.pool.busy,
        )
        m.gauge(
            "repro_service_worker_utilization",
            "Busy workers / total workers.",
            fn=lambda: self.pool.busy / self.pool.workers,
        )
        self.simulations_total = m.counter(
            "repro_service_simulations_total",
            "Jobs actually executed by the worker pool (cache misses).",
            ("kind",),
        )
        self.coalesced_total = m.counter(
            "repro_service_coalesced_total",
            "Requests served by piggybacking on an identical in-flight "
            "computation (single-flight followers).",
            ("kind",),
        )
        self.fast_hits_total = m.counter(
            "repro_service_cache_fast_hits_total",
            "Requests answered from the result cache without a worker.",
            ("kind",),
        )
        for key, help_text in (
            ("hits", "Result-cache hits (front-end + workers)."),
            ("misses", "Result-cache misses, corrupt blobs included."),
            ("corrupt", "Result-cache misses caused by corrupt blobs."),
            ("stores", "Result-cache blobs written."),
        ):
            m.counter(
                f"repro_service_result_cache_{key}_total",
                help_text,
                fn=lambda key=key: self._cache_counter(key),
            )
        m.gauge(
            "repro_service_cache_hit_ratio",
            "Balance, batch and experiment requests answered from the "
            "result cache / all such requests served since start (0 when "
            "idle).",
            fn=self._hit_ratio,
        )
        m.gauge(
            "repro_service_cache_entries",
            "Blobs currently in the result-cache directory.",
            fn=lambda: self.cache.entry_count(),
        )
        for key, help_text in (
            ("des_runs", "World replays executed by the DES engine."),
            ("des_events", "Heap events processed by the DES engine."),
            ("des_seconds", "Wall seconds spent inside DES event loops."),
            ("compiled_compiles", "Worlds compiled by the replay kernel."),
            ("compiled_runs", "Compiled-kernel tape passes (scalar or "
             "batch)."),
            ("compiled_evaluations", "Frequency assignments priced by the "
             "compiled kernel."),
            ("compiled_instructions", "Instruction nodes evaluated by the "
             "compiled kernel."),
            ("compiled_seconds", "Wall seconds spent evaluating compiled "
             "tapes."),
            ("auto_fallbacks", "auto-engine runs routed back to the DES by "
             "the capability check."),
            ("batch_batches", "Batched sweep pricing passes "
             "(evaluate_assignments calls)."),
            ("batch_candidates", "Candidates priced across all batched "
             "sweeps."),
            ("batch_chunks", "Vectorised evaluate_many chunk passes issued "
             "by batched sweeps."),
            ("batch_fallback_candidates", "Batch candidates priced by "
             "per-candidate DES replays instead of vectorised lanes."),
        ):
            m.counter(
                f"repro_engine_{key}_total",
                help_text + " Front-end + worker processes.",
                fn=lambda key=key: self._engine_counter(key),
            )
        from repro.netsim.enginestats import engine_rates

        for rate in ("des_evals_per_second", "compiled_evals_per_second"):
            m.gauge(
                f"repro_engine_{rate}",
                "Cumulative world evaluations per wall second on this "
                "engine (0 when idle).",
                fn=lambda rate=rate: engine_rates(self._engine_stats())[rate],
            )
        self.jobs_total = m.counter(
            "repro_service_jobs_total",
            "Async jobs by kind and terminal outcome.",
            ("kind", "outcome"),
        )
        m.gauge(
            "repro_service_inflight_requests",
            "Requests currently being dispatched.",
            fn=lambda: self._active_requests,
        )
        m.gauge(
            "repro_service_ready",
            "1 when this replica should receive traffic (warm, not "
            "draining).",
            fn=lambda: 1.0 if self.ready else 0.0,
        )

    def _hit_ratio(self) -> float:
        return self._served_from_cache / self._served if self._served else 0.0

    # ------------------------------------------------------------------
    # Core pipeline
    # ------------------------------------------------------------------
    def _cache_identity(self, kind: str, spec: dict[str, Any]):
        from repro.service.identity import cache_identity

        return cache_identity(kind, spec)

    def _cache_fetch(self, kind: str, cache_kind: str, payload: Any):
        """Blocking fast-path lookup (runs in a thread); None on a miss."""
        value = self.cache.get(cache_kind, payload)
        if value is not None and kind == "balance":
            return value.to_json()
        return value

    def _cache_store(self, cache_kind: str, payload: Any, value: Any) -> None:
        if cache_kind in ("service-exp", "balance-batch"):
            # scalar balance results are stored by the worker's Runner
            self.cache.put(cache_kind, payload, value)

    async def perform(self, kind: str, spec: dict[str, Any]):
        """Serve one compute request; returns ``(result, cache_state)``.

        ``cache_state`` is ``hit`` (served from the on-disk cache, which
        every replica of a fleet shares), ``miss`` (a worker simulated
        it) or ``coalesced`` (piggybacked on an identical in-flight
        request).
        """
        if self._draining:
            raise ShuttingDown()
        cache_kind, payload = self._cache_identity(kind, spec)
        key = self.cache.key(cache_kind, payload)

        async def leader():
            found = await asyncio.to_thread(
                self._cache_fetch, kind, cache_kind, payload
            )
            if found is not None:
                self.fast_hits_total.inc(kind=kind)
                return found, "hit"
            self.queue.acquire()
            start = time.perf_counter()
            try:
                job_spec = {**spec, "cache_dir": str(self.cache.cache_dir)}
                envelope = await self.pool.run(_JOB_FNS[kind], job_spec)
            finally:
                self.queue.release(time.perf_counter() - start)
            for counter, delta in envelope.get("cache", {}).items():
                self._worker_cache[counter] = (
                    self._worker_cache.get(counter, 0) + delta
                )
            for counter, delta in envelope.get("engines", {}).items():
                self._worker_engines[counter] = (
                    self._worker_engines.get(counter, 0) + delta
                )
            self.simulations_total.inc(kind=kind)
            result = envelope["result"]
            await asyncio.to_thread(
                self._cache_store, cache_kind, payload, result
            )
            return result, "miss"

        (result, state), led = await self.flight.do(key, leader)
        self._served += 1
        if state == "hit":  # followers of a cache hit count as hits too
            self._served_from_cache += 1
        if not led:
            self.coalesced_total.inc(kind=kind)
            state = "coalesced"
        return result, state

    # ------------------------------------------------------------------
    # Async jobs
    # ------------------------------------------------------------------
    def submit_job(self, kind: str, spec: dict[str, Any]) -> Job:
        if self._draining:
            raise ShuttingDown()
        job = self.jobs.create(kind)
        task = asyncio.get_running_loop().create_task(
            self._run_job(job, kind, spec)
        )
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return job

    async def _run_job(self, job: Job, kind: str, spec: dict[str, Any]):
        self.jobs.mark_running(job)
        try:
            result, _state = await self.perform(kind, spec)
        except ServiceError as err:
            self.jobs.mark_failed(
                job, {**err.to_payload()["error"], "status": err.status}
            )
            self.jobs_total.inc(kind=kind, outcome="failed")
        except Exception:
            log.exception("job %s crashed", job.id)
            self.jobs.mark_failed(
                job, {"code": "internal", "message": "job crashed", "status": 500}
            )
            self.jobs_total.inc(kind=kind, outcome="failed")
        else:
            self.jobs.mark_done(job, result)
            self.jobs_total.inc(kind=kind, outcome="done")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        """Whether this replica should receive traffic."""
        return self._warm and not self._draining

    def health_payload(self) -> dict[str, Any]:
        if self._draining:
            status = "draining"
        elif not self._warm:
            status = "warming"
        else:
            status = "ok"
        payload: dict[str, Any] = {
            "status": status,
            "uptime_seconds": round(time.time() - self._started, 3),
            "queue": self.queue.stats(),
            "workers": {"total": self.pool.workers, "busy": self.pool.busy},
            "jobs_pending": self.jobs.pending(),
            "cache_dir": str(self.cache.cache_dir),
        }
        if self.config.replica_name:
            payload["replica"] = self.config.replica_name
        return payload

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; None on clean EOF; raises ValidationError."""
        return await _routes.read_http_request(reader)

    async def _dispatch(self, request: HttpRequest) -> tuple[Response, str]:
        start = time.perf_counter()
        endpoint = "unmatched"
        try:
            endpoint, handler, params = _routes.match_route(
                request.method, request.path
            )
            response = await handler(self, request, params)
        except ServiceError as err:
            response = error_response(err)
        except Exception:
            log.exception(
                "rid=%s %s %s crashed", request.request_id, request.method,
                request.path,
            )
            response = error_response(
                InternalError("unexpected server error; see server log")
            )
        elapsed = time.perf_counter() - start
        self.requests_total.inc(
            endpoint=endpoint, method=request.method,
            status=str(response.status),
        )
        self.request_seconds.observe(elapsed, endpoint=endpoint)
        log.info(
            "rid=%s %s %s -> %d in %.1f ms%s",
            request.request_id, request.method, request.path,
            response.status, elapsed * 1e3,
            f" cache={response.headers['X-Cache']}"
            if "X-Cache" in response.headers else "",
        )
        return response, endpoint

    async def _write_response(
        self, writer: asyncio.StreamWriter, request: HttpRequest | None,
        response: Response, keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        headers = {
            "Content-Type": response.content_type,
            "Content-Length": str(len(response.body)),
            "Connection": "keep-alive" if keep_alive else "close",
            **response.headers,
        }
        if request is not None:
            headers.setdefault("X-Request-Id", request.request_id)
        head = [f"HTTP/1.1 {response.status} {reason}"]
        head += [f"{k}: {v}" for k, v in headers.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode())
        writer.write(response.body)
        await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValidationError as err:
                    await self._write_response(
                        writer, None, error_response(err), False
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    # oversized header line (asyncio's readline limit)
                    # or similar framing garbage: answer 400, not an
                    # unhandled-task traceback
                    await self._write_response(
                        writer, None,
                        error_response(
                            ValidationError("malformed request framing")
                        ),
                        False,
                    )
                    break
                if request is None:
                    break
                self._active_requests += 1
                try:
                    response, _endpoint = await self._dispatch(request)
                finally:
                    self._active_requests -= 1
                wants_close = (
                    request.headers.get("connection", "").lower() == "close"
                )
                keep_alive = not wants_close and not self._draining
                await self._write_response(
                    writer, request, response, keep_alive
                )
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass  # drain cancels idle keep-alive readers
        except ConnectionError:
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind and start serving; returns the bound port.

        The socket accepts immediately, but ``/healthz`` answers 503
        ``warming`` until the worker pool is warm — the router keeps
        the replica out of the ring until the first simulation would
        not eat the pool-spawn latency.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.time()
        log.info(
            "serving on http://%s:%d (workers=%d queue=%d cache=%s)",
            self.config.host, self.port, self.config.workers,
            self.config.queue_limit, self.cache.cache_dir,
        )
        asyncio.get_running_loop().create_task(self._warmup())
        return self.port

    async def _warmup(self) -> None:
        """Spin the worker pool up, then flip readiness."""
        try:
            await asyncio.to_thread(self.pool.prewarm)
        except Exception:
            log.exception("worker-pool warmup failed; serving anyway")
        self._warm = True

    async def shutdown(self) -> None:
        """Graceful drain: finish everything admitted, then stop.

        Readiness flips to 503 ``draining`` immediately (the router
        stops routing here), new compute is rejected with 503 +
        ``Retry-After``, admitted jobs and in-flight requests run to
        completion, then the replica *lingers* for
        ``config.drain_linger`` seconds still answering GETs so
        202-polling clients observe their jobs' terminal states —
        only then does the listener close and the pool stop.
        """
        if self._draining:
            return
        self._draining = True
        if self._job_tasks:
            await asyncio.gather(*self._job_tasks, return_exceptions=True)
        await self.queue.drain()
        while self._active_requests > 0:
            await asyncio.sleep(0.02)
        if self.config.drain_linger > 0:
            log.info(
                "drained; lingering %.1fs for job polls",
                self.config.drain_linger,
            )
            await asyncio.sleep(self.config.drain_linger)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await asyncio.to_thread(self.pool.shutdown)
        log.info("drained and stopped")

    async def run(self) -> int:
        """CLI entry: serve until SIGTERM/SIGINT, then drain."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        log.info("shutdown signal received; draining")
        await self.shutdown()
        return 0
