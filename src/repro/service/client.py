"""Thin stdlib client for the simulation service, plus a test harness.

:class:`ServiceClient` wraps ``http.client`` — one connection per
request, JSON in/out, no retries (retry policy belongs to callers; the
server's ``Retry-After`` header tells them when).  :class:`ServiceThread`
hosts a :class:`~repro.service.app.ServiceApp` on a background event
loop so tests and benchmarks can exercise the real HTTP stack in-process::

    with ServiceThread(ServiceConfig(port=0)) as service:
        response = service.client.balance(app="BT-MZ-32")
        assert response.status == 200
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from typing import Any

from repro.service.app import ServiceApp, ServiceConfig

__all__ = ["ServiceClient", "ServiceResponse", "ServiceThread"]


@dataclass
class ServiceResponse:
    """Status, headers and body of one service reply."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        return json.loads(self.body) if self.body else None

    @property
    def text(self) -> str:
        return self.body.decode()


class ServiceClient:
    """Blocking JSON client for one service endpoint."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8080,
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(
        self, method: str, path: str, payload: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
    ) -> ServiceResponse:
        body = json.dumps(payload).encode() if payload is not None else None
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            raw = conn.getresponse()
            return ServiceResponse(
                status=raw.status,
                headers={k.title(): v for k, v in raw.getheaders()},
                body=raw.read(),
            )
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self.request("GET", "/healthz").json()

    def livez(self) -> dict[str, Any]:
        return self.request("GET", "/livez").json()

    def metrics(self) -> str:
        return self.request("GET", "/metrics").text

    def balance(self, **fields: Any) -> ServiceResponse:
        return self.request("POST", "/v1/balance", payload=fields)

    def experiment(self, eid: str, **fields: Any) -> ServiceResponse:
        return self.request("POST", f"/v1/experiments/{eid}", payload=fields)

    def job(self, job_id: str) -> ServiceResponse:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def wait_job(
        self, job_id: str, timeout: float = 120.0, interval: float = 0.05
    ) -> dict[str, Any]:
        """Poll ``/v1/jobs/{id}`` until it reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            response = self.job(job_id)
            if response.status != 200:
                raise RuntimeError(
                    f"job {job_id} poll failed: HTTP {response.status}"
                )
            job = response.json()["job"]
            if job["status"] in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['status']} after {timeout}s"
                )
            time.sleep(interval)


class ServiceThread:
    """Run a :class:`ServiceApp` on a daemon thread (context manager).

    The app's event loop lives entirely on the background thread; the
    calling thread talks plain HTTP through :attr:`client`.  ``port=0``
    in the config binds an ephemeral port, read back after startup.
    """

    def __init__(
        self, config: ServiceConfig | None = None, executor: Any = None
    ):
        self.app = ServiceApp(config, executor=executor)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.app.port is not None, "service not started"
        return self.app.port

    @property
    def client(self) -> ServiceClient:
        return ServiceClient(self.app.config.host, self.port)

    def start(self) -> ServiceThread:
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") \
                from self._startup_error
        # block until /healthz would answer 200 (worker pool warm), so
        # callers never observe the transient "warming" readiness gap
        deadline = time.monotonic() + 120
        while not self.app.ready and time.monotonic() < deadline:
            time.sleep(0.005)
        if not self.app.ready:
            raise RuntimeError("service never became ready (pool warmup)")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            self._stop = asyncio.Event()
            try:
                await self.app.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self._stop.wait()
            await self.app.shutdown()

        try:
            self._loop.run_until_complete(main())
        except BaseException:
            pass  # startup errors are re-raised on the calling thread
        finally:
            self._loop.close()

    def stop(self) -> None:
        if (
            self._loop is not None
            and self._stop is not None
            and not self._loop.is_closed()
        ):
            with contextlib.suppress(RuntimeError):  # raced loop close
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> ServiceThread:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
