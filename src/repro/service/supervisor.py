"""Fleet supervisor: ``repro serve --replicas N``.

One supervisor process owns the whole fleet shape::

    supervisor (this process)
      ├── FrontRouter          client-facing port (consistent-hash)
      ├── replica-0            repro serve subprocess, port+1
      ├── replica-1            repro serve subprocess, port+2
      └── ...                  each: own worker pool, shared cache root

Replicas are real ``repro serve`` subprocesses on adjacent ports —
separate interpreters, so N replicas are N event loops *and* N GILs,
which is where fleet throughput on the warm path comes from.  Every
replica gets the same ``--cache-dir``: the fleet shares one on-disk
result cache, so a result computed by any replica is a hit on all of
them.  :class:`~repro.experiments.cache.ResultCache` writes blobs
atomically (temp file + rename) and verifies each one's digest on
read, so concurrent replicas need no further coordination.

Supervision policy:

* **liveness, not readiness, decides restarts** — a replica that
  exits unexpectedly is relaunched with exponential backoff (reset
  after a stable run); a replica that is merely warming or draining
  is left alone and simply stays out of the router's ring.
* **SIGTERM/SIGINT drains the fleet**: restarts stop, every replica
  gets SIGTERM and runs its own graceful drain (finish admitted jobs,
  linger for job polls, then exit); stragglers are killed after a
  deadline; the router stops last, so clients keep getting routed
  answers for as long as any replica still has them.

``/healthz`` and ``/metrics`` on the router aggregate the fleet, with
per-replica labels plus supervisor-level restart counters.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.service.app import ServiceConfig
from repro.service.router import FrontRouter, RouterConfig

__all__ = ["FleetConfig", "FleetThread", "ReplicaProcess", "Supervisor"]

log = logging.getLogger("repro.service.fleet")

#: Restart backoff schedule (seconds); sticks at the last entry.
_BACKOFF = (0.5, 1.0, 2.0, 4.0, 8.0)
#: A replica alive this long gets its backoff reset.
_STABLE_SECONDS = 30.0


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one supervised fleet."""

    host: str = "127.0.0.1"
    #: Router (client-facing) port; replicas take the adjacent ports.
    #: 0 binds an ephemeral block.
    port: int = 8080
    replicas: int = 3
    #: Worker processes *per replica*.
    workers: int = 2
    queue_limit: int = 16
    #: Result-cache directory shared by every replica.
    cache_dir: str | None = None
    iterations: int = 6
    beta: float = 0.5
    #: Per-replica drain linger (kept serving job polls after drain).
    drain_linger: float = 1.0
    #: Seconds a replica gets to drain on SIGTERM before SIGKILL.
    drain_timeout: float = 60.0
    hot_threshold: int = 32


def _free_adjacent_ports(host: str, base: int, count: int) -> list[int]:
    """``count`` bindable ports starting right after ``base``.

    With ``base == 0`` an ephemeral anchor is picked first.  Ports that
    turn out busy are skipped (the block stays contiguous-ish rather
    than failing), so ``--port 8080 --replicas 3`` yields 8081..8083 on
    an idle host.
    """
    if base == 0:
        with socket.socket() as probe:
            probe.bind((host, 0))
            base = probe.getsockname()[1]
    ports: list[int] = []
    candidate = base + 1
    while len(ports) < count and candidate < 65536:
        try:
            with socket.socket() as probe:
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                probe.bind((host, candidate))
            ports.append(candidate)
        except OSError:
            pass
        candidate += 1
    if len(ports) < count:
        raise RuntimeError(f"no {count} free ports above {base} on {host}")
    return ports


class ReplicaProcess:
    """One supervised ``repro serve`` subprocess."""

    def __init__(self, name: str, host: str, port: int, argv: list[str]):
        self.name = name
        self.host = host
        self.port = port
        self.argv = argv
        self.proc: subprocess.Popen | None = None
        self.restarts = 0
        self._backoff_idx = 0
        self._spawned_at = 0.0
        self.restart_at: float | None = None

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def spawn(self) -> None:
        env = dict(os.environ)
        # make `python -m repro` importable in the child even when the
        # parent runs from a source checkout that is not installed
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_dir + (os.pathsep + existing if existing else "")
            )
        # own session: the replica and its worker pool form a process
        # group the supervisor can nuke wholesale if a drain stalls
        self.proc = subprocess.Popen(
            self.argv, env=env, start_new_session=True
        )
        self._spawned_at = time.monotonic()
        self.restart_at = None
        log.info("%s: spawned pid %d on %s", self.name, self.proc.pid,
                 self.addr)

    def note_exit_and_schedule_restart(self) -> float:
        """Record an unexpected exit; returns the restart delay."""
        assert self.proc is not None
        code = self.proc.returncode
        uptime = time.monotonic() - self._spawned_at
        if uptime >= _STABLE_SECONDS:
            self._backoff_idx = 0
        delay = _BACKOFF[min(self._backoff_idx, len(_BACKOFF) - 1)]
        self._backoff_idx += 1
        self.restarts += 1
        self.restart_at = time.monotonic() + delay
        log.warning(
            "%s: exited with code %s after %.1fs; restart #%d in %.1fs",
            self.name, code, uptime, self.restarts, delay,
        )
        return delay

    def terminate(self) -> None:
        if self.alive:
            assert self.proc is not None
            self.proc.terminate()

    def kill(self) -> None:
        if self.alive:
            assert self.proc is not None
            log.warning("%s: drain deadline passed; killing", self.name)
            try:
                os.killpg(os.getpgid(self.proc.pid), signal.SIGKILL)
            except (OSError, ProcessLookupError):
                self.proc.kill()


class Supervisor:
    """Own a router plus N replica subprocesses; drain on signal."""

    def __init__(self, config: FleetConfig):
        if config.replicas < 1:
            raise ValueError("a fleet needs at least one replica")
        from repro.experiments.cache import default_cache_dir

        self.config = config
        self.cache_root = Path(config.cache_dir or default_cache_dir())
        ports = _free_adjacent_ports(
            config.host, config.port, config.replicas
        )
        self.replicas: list[ReplicaProcess] = []
        addrs = [f"{config.host}:{p}" for p in ports]
        for i, port in enumerate(ports):
            name = f"replica-{i}"
            argv = [
                sys.executable, "-m", "repro", "serve",
                "--host", config.host,
                "--port", str(port),
                "--workers", str(config.workers),
                "--queue-limit", str(config.queue_limit),
                "--cache-dir", str(self.cache_root),
                "--iterations", str(config.iterations),
                "--beta", str(config.beta),
                "--replica-name", name,
                "--drain-linger", str(config.drain_linger),
            ]
            self.replicas.append(ReplicaProcess(name, config.host, port, argv))
        self.router = FrontRouter(
            RouterConfig(
                host=config.host,
                port=config.port,
                replicas=tuple(addrs),
                hot_threshold=config.hot_threshold,
                defaults=ServiceConfig(
                    iterations=config.iterations, beta=config.beta
                ),
            ),
            extra_metrics=self._fleet_metrics_text,
        )
        self._draining = False
        self._monitor_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int | None:
        return self.router.port

    def _fleet_metrics_text(self) -> str:
        lines = [
            "# HELP repro_fleet_replica_restarts_total Replica processes "
            "relaunched by the supervisor after an unexpected exit.",
            "# TYPE repro_fleet_replica_restarts_total counter",
        ]
        for r in self.replicas:
            lines.append(
                "repro_fleet_replica_restarts_total"
                f'{{replica="{r.name}"}} {r.restarts}'
            )
        lines += [
            "# HELP repro_fleet_replicas_alive Replica subprocesses "
            "currently running.",
            "# TYPE repro_fleet_replicas_alive gauge",
            "repro_fleet_replicas_alive "
            f"{sum(1 for r in self.replicas if r.alive)}",
        ]
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Spawn the fleet; returns the router's client-facing port."""
        self.cache_root.mkdir(parents=True, exist_ok=True)
        for replica in self.replicas:
            replica.spawn()
        port = await self.router.start()
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor_loop()
        )
        log.info(
            "fleet up: router on http://%s:%d, %d replica(s) on %s",
            self.config.host, port, len(self.replicas),
            ",".join(r.addr for r in self.replicas),
        )
        return port

    async def _monitor_loop(self) -> None:
        """Restart crashed replicas (with backoff) until draining."""
        while not self._draining:
            now = time.monotonic()
            for replica in self.replicas:
                if replica.alive:
                    continue
                if replica.restart_at is None:
                    replica.note_exit_and_schedule_restart()
                elif now >= replica.restart_at:
                    replica.spawn()
            await asyncio.sleep(0.2)

    async def drain(self) -> None:
        """Fleet-wide graceful shutdown: replicas first, router last."""
        if self._draining:
            return
        self._draining = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor_task
        log.info("draining fleet: signalling %d replica(s)",
                 len(self.replicas))
        for replica in self.replicas:
            replica.terminate()
        deadline = time.monotonic() + self.config.drain_timeout
        for replica in self.replicas:
            while replica.alive and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            replica.kill()
            if replica.proc is not None:
                await asyncio.to_thread(replica.proc.wait)
        await self.router.stop()
        log.info("fleet drained and stopped")

    async def run(self) -> int:
        """CLI entry: serve until SIGTERM/SIGINT, then drain the fleet."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        log.info("shutdown signal received; draining fleet")
        await self.drain()
        return 0


class FleetThread:
    """Run a :class:`Supervisor` on a daemon thread (context manager).

    The subprocess-spawning sibling of the in-process harnesses:
    ``start()`` blocks until the router reports at least one ready
    replica, so tests can issue traffic immediately.
    """

    def __init__(self, config: FleetConfig):
        self.supervisor = Supervisor(config)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.supervisor.port is not None, "fleet not started"
        return self.supervisor.port

    @property
    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.supervisor.config.host, self.port)

    def start(self, ready_timeout: float = 120.0) -> FleetThread:
        self._thread = threading.Thread(
            target=self._run, name="repro-fleet", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("fleet failed to start within 60s")
        if self._startup_error is not None:
            raise RuntimeError("fleet failed to start") \
                from self._startup_error
        deadline = time.monotonic() + ready_timeout
        while time.monotonic() < deadline:
            if self.supervisor.router.any_ready:
                return self
            time.sleep(0.05)
        self.stop()
        raise RuntimeError("no replica became ready in time")

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            self._stop = asyncio.Event()
            try:
                await self.supervisor.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self._stop.wait()
            await self.supervisor.drain()

        try:
            self._loop.run_until_complete(main())
        except BaseException:
            pass  # startup errors re-raise on the calling thread
        finally:
            self._loop.close()

    def stop(self) -> None:
        if (
            self._loop is not None
            and self._stop is not None
            and not self._loop.is_closed()
        ):
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=180)

    def __enter__(self) -> FleetThread:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
