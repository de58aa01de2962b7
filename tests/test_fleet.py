"""Fleet-mode tests: hash ring, shared cache root, router, graceful drain.

Most tests run an in-process fleet — N :class:`ServiceThread` replicas
(each on its own event loop, with a gated executor where determinism
matters) behind a :class:`RouterThread` — so the real HTTP stack and
the real routing/drain machinery are exercised without subprocess
spawn costs.  One suite (:class:`TestSupervisor`) spawns the genuine
``repro serve`` subprocess fleet to cover process supervision itself.
"""

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.cache import cache_key
from repro.service import RouterConfig, RouterThread, ServiceConfig, ServiceThread
from repro.service.client import ServiceClient
from repro.service.metrics import inject_label, merge_expositions
from repro.service.router import HashRing
from repro.service.workers import execute_balance

from tests.test_service import SPEC, GatedExecutor, wait_for


def _free_ports(n: int) -> list[int]:
    """Distinct bindable ports, reserved by a momentary bind."""
    ports = []
    socks = []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def _report_bytes(spec: dict) -> bytes:
    """What the service answers for ``spec``: in-process, no cache."""
    report, _runner = execute_balance(dict(spec))
    return (
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    ).encode()


def _simulations(replica) -> float:
    return replica.app.simulations_total.value(kind="balance")


class Fleet:
    """N in-process replicas on one cache root behind a front router."""

    def __init__(self, tmp_path, n, executor_factory=None, **overrides):
        self.cache_dir = tmp_path / "fleet-cache"
        ports = _free_ports(n)
        addrs = [f"127.0.0.1:{p}" for p in ports]
        self.replicas = []
        self.executors = []
        for i, port in enumerate(ports):
            executor = (
                executor_factory() if executor_factory
                else ThreadPoolExecutor(2)
            )
            self.executors.append(executor)
            config = ServiceConfig(
                port=port,
                workers=2,
                cache_dir=str(self.cache_dir),
                replica_name=f"replica-{i}",
                **overrides,
            )
            self.replicas.append(ServiceThread(config, executor=executor))
        self.router = RouterThread(
            RouterConfig(replicas=tuple(addrs), health_interval=0.05)
        )

    def start(self):
        for replica in self.replicas:
            replica.start()
        self.router.start()
        wait_for(lambda: len(self.router.router.ring.nodes)
                 == len(self.replicas))
        return self

    def stop(self):
        self.router.stop()
        for replica in self.replicas:
            replica.stop()

    @property
    def client(self):
        return self.router.client

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------

class TestHashRing:
    def test_lookup_is_deterministic_and_member(self):
        ring = HashRing()
        ring.set_nodes(["a:1", "b:2", "c:3"])
        keys = [f"report-{i:064x}" for i in range(200)]
        owners = [ring.lookup(k) for k in keys]
        assert owners == [ring.lookup(k) for k in keys]
        assert set(owners) <= {"a:1", "b:2", "c:3"}

    def test_distribution_roughly_even(self):
        ring = HashRing(vnodes=64)
        ring.set_nodes(["a:1", "b:2", "c:3"])
        counts = {"a:1": 0, "b:2": 0, "c:3": 0}
        for i in range(3000):
            counts[ring.lookup(f"key-{i}")] += 1
        for n in counts.values():
            assert 500 < n < 1700  # no node starved or dominant

    def test_node_removal_only_moves_its_share(self):
        ring = HashRing()
        ring.set_nodes(["a:1", "b:2", "c:3"])
        keys = [f"key-{i}" for i in range(1000)]
        before = {k: ring.lookup(k) for k in keys}
        ring.set_nodes(["a:1", "b:2"])
        moved = sum(
            1 for k in keys
            if before[k] != ring.lookup(k) and before[k] != "c:3"
        )
        assert moved == 0  # only c's keys may move
        assert all(ring.lookup(k) != "c:3" for k in keys)

    def test_rebalance_counter_and_empty_ring(self):
        ring = HashRing()
        assert ring.lookup("anything") is None
        assert ring.set_nodes(["a:1"]) is True
        assert ring.set_nodes(["a:1"]) is False  # no change, no count
        assert ring.set_nodes([]) is True
        assert ring.rebalances == 2
        assert ring.lookup("anything") is None


# ----------------------------------------------------------------------
# Exposition merging
# ----------------------------------------------------------------------

class TestExpositionMerge:
    def test_inject_label_bare_and_labelled(self):
        assert inject_label("foo 3", "replica", "r0") == \
            'foo{replica="r0"} 3'
        assert inject_label('foo{a="b"} 3', "replica", "r0") == \
            'foo{replica="r0",a="b"} 3'
        assert inject_label("# HELP foo x", "replica", "r0") == \
            "# HELP foo x"

    def test_merge_emits_headers_once(self):
        text = (
            "# HELP foo help\n# TYPE foo counter\nfoo 1\n"
        )
        merged = merge_expositions({"r0": text, "r1": text})
        assert merged.count("# HELP foo help") == 1
        assert 'foo{replica="r0"} 1' in merged
        assert 'foo{replica="r1"} 1' in merged


# ----------------------------------------------------------------------
# No cache blob protocol on the wire
# ----------------------------------------------------------------------

class TestCacheEndpointGating:
    def test_router_never_routes_cache_traffic(self, tmp_path):
        """``/v1/cache/<key>`` is 404 on the router and on a replica:
        replicas share results through the cache directory only."""
        with Fleet(tmp_path, 2) as fleet:
            path = "/v1/cache/" + cache_key("report", {"payload": 1})
            for client in (fleet.client, fleet.replicas[0].client):
                assert client.request("GET", path).status == 404
                assert client.request("PUT", path).status == 404


# ----------------------------------------------------------------------
# Malformed HTTP framing (raw sockets; http.client refuses to send it)
# ----------------------------------------------------------------------

def _raw_http(port: int, data: bytes, timeout: float = 15.0) -> bytes:
    """One raw request/response exchange against 127.0.0.1:port."""
    with socket.create_connection(("127.0.0.1", port), timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except (ConnectionResetError, socket.timeout):
                break
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


_NEGATIVE_LENGTH = (
    b"POST /v1/balance HTTP/1.1\r\n"
    b"Host: t\r\n"
    b"Content-Length: -5\r\n\r\n"
)
#: One header line past asyncio's 64 KiB readline limit, which used to
#: surface as an unhandled ValueError instead of a 400.
_OVERSIZED_HEADER = (
    b"GET /healthz HTTP/1.1\r\n"
    b"Host: t\r\n"
    b"X-Big: " + b"a" * 70_000 + b"\r\n\r\n"
)


class TestRequestFraming:
    def test_replica_answers_negative_content_length_with_400(
        self, tmp_path
    ):
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "c"))
        with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
            raw = _raw_http(svc.port, _NEGATIVE_LENGTH)
            assert raw.startswith(b"HTTP/1.1 400 ")
            assert b"invalid-request" in raw

    def test_replica_answers_oversized_header_with_400(self, tmp_path):
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "c"))
        with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
            raw = _raw_http(svc.port, _OVERSIZED_HEADER)
            assert raw.startswith(b"HTTP/1.1 400 ")

    def test_router_answers_bad_framing_with_400(self, tmp_path):
        with Fleet(tmp_path, 1) as fleet:
            raw = _raw_http(fleet.router.port, _NEGATIVE_LENGTH)
            assert raw.startswith(b"HTTP/1.1 400 ")
            raw = _raw_http(fleet.router.port, _OVERSIZED_HEADER)
            assert raw.startswith(b"HTTP/1.1 400 ")


# ----------------------------------------------------------------------
# Liveness vs readiness
# ----------------------------------------------------------------------

class TestReadiness:
    def test_livez_always_alive_healthz_gates_traffic(self, tmp_path):
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "c"))
        with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
            live = svc.client.request("GET", "/livez")
            assert live.status == 200
            assert live.json() == {"status": "alive", "draining": False}
            ready = svc.client.request("GET", "/healthz")
            assert ready.status == 200
            assert ready.json()["status"] == "ok"

    def test_draining_replica_503s_healthz_but_stays_alive(self, tmp_path):
        gate = GatedExecutor()
        config = ServiceConfig(port=0, cache_dir=str(tmp_path / "c"))
        svc = ServiceThread(config, executor=gate).start()
        r = svc.client.balance(
            app="CG-16", iterations=2, **{"async": True}
        )
        assert r.status == 202
        stopper = threading.Thread(target=svc.stop)
        stopper.start()
        try:
            wait_for(
                lambda: svc.client.request("GET", "/healthz").status == 503
            )
            health = svc.client.request("GET", "/healthz")
            assert health.json()["status"] == "draining"
            assert health.headers["Retry-After"] == "1"
            live = svc.client.request("GET", "/livez")
            assert live.status == 200
            assert live.json()["draining"] is True
            # new compute is rejected with backpressure semantics
            rejected = svc.client.balance(app="CG-16", iterations=2)
            assert rejected.status == 503
            assert rejected.headers["Retry-After"] == "1"
        finally:
            gate.gate.set()
            stopper.join(timeout=60)
        assert not stopper.is_alive()


# ----------------------------------------------------------------------
# Routed fleet behaviour
# ----------------------------------------------------------------------

class TestRoutedFleet:
    def test_byte_identity_through_router(self, tmp_path):
        report, _runner = execute_balance(dict(SPEC))
        expected = (
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        ).encode()
        with Fleet(tmp_path, 3) as fleet:
            r = fleet.client.balance(**SPEC)
            assert r.status == 200
            assert r.body == expected
            assert r.headers["X-Repro-Replica"].startswith("replica-")

    def test_identical_bodies_stick_to_one_replica(self, tmp_path):
        with Fleet(tmp_path, 3) as fleet:
            seen = {
                fleet.client.balance(
                    app="CG-16", iterations=2
                ).headers["X-Repro-Replica"]
                for _ in range(5)
            }
            assert len(seen) == 1
            # second request onward is a warm hit on the owner
            assert fleet.client.balance(
                app="CG-16", iterations=2
            ).headers["X-Cache"] == "hit"

    def test_validation_error_still_canonical_through_router(
        self, tmp_path
    ):
        with Fleet(tmp_path, 2) as fleet:
            r = fleet.client.balance(app="not-an-app")
            assert r.status == 400
            assert r.json()["error"]["code"] == "invalid-request"

    def _shared_pair(self, tmp_path, names):
        ports = _free_ports(2)
        shared = str(tmp_path / "fleet-cache")
        return [
            ServiceThread(ServiceConfig(
                port=port, cache_dir=shared, replica_name=name,
            ), executor=ThreadPoolExecutor(2))
            for port, name in zip(ports, names)
        ]

    def test_forwarded_request_pushes_blob_to_owner(self, tmp_path):
        """A replica handling an off-ring request warms the ring owner.

        The router's hot-key spill sends a request to a replica that
        does not own it; the body that replica writes to the shared
        cache root is a hit on the owner, which never computes it.
        """
        owner, handler = self._shared_pair(tmp_path, ("owner", "handler"))
        with owner, handler:
            r = handler.client.balance(app="CG-16", iterations=2)
            assert r.status == 200
            assert r.headers["X-Cache"] == "miss"
            on_owner = owner.client.balance(app="CG-16", iterations=2)
            assert on_owner.headers["X-Cache"] == "hit"
            assert on_owner.body == r.body
            assert _simulations(owner) == 0
            assert _simulations(handler) == 1

    def test_peer_read_through_over_http(self, tmp_path):
        """Replica B serves, byte-identical, a body only replica A computed."""
        a, b = self._shared_pair(tmp_path, "ab")
        with a, b:
            first = a.client.balance(app="CG-16", iterations=2)
            assert first.headers["X-Cache"] == "miss"
            on_b = b.client.balance(app="CG-16", iterations=2)
            assert on_b.headers["X-Cache"] == "hit"
            assert on_b.body == first.body
            assert _simulations(b) == 0
            assert b.client.balance(
                app="CG-16", iterations=2
            ).headers["X-Cache"] == "hit"
            assert _simulations(a) == 1
            assert _simulations(b) == 0

    def test_router_aggregates_health_and_metrics(self, tmp_path):
        with Fleet(tmp_path, 2) as fleet:
            health = fleet.client.healthz()
            assert health["status"] == "ok"
            assert health["fleet"]["replicas"] == 2
            assert health["fleet"]["ready"] == 2
            assert set(health["replicas"]) == {"replica-0", "replica-1"}
            metrics = fleet.client.metrics()
            assert 'replica="replica-0"' in metrics
            assert 'replica="replica-1"' in metrics
            assert "repro_router_ring_rebalances_total" in metrics
            assert "repro_router_ready_replicas 2" in metrics


# ----------------------------------------------------------------------
# Fault injection on the shared cache root
# ----------------------------------------------------------------------

class TestSharedCacheFaults:
    def test_corrupt_blobs_are_recomputed_not_served(self, tmp_path):
        """A truncated and a bit-flipped blob each come back as a
        recomputed miss, byte-identical to the in-process answer, and
        count once as corrupt; the rewritten blob then hits."""
        specs = [dict(SPEC, gears="uniform:3"), dict(SPEC, gears="uniform:6")]
        bodies = [
            {k: v for k, v in spec.items() if k != "base_compute"}
            for spec in specs
        ]
        with Fleet(tmp_path, 2) as fleet:
            blobs = []
            for body in bodies:
                seen = set(fleet.cache_dir.glob("report-*.pkl"))
                assert fleet.client.balance(**body).status == 200
                (blob,) = set(fleet.cache_dir.glob("report-*.pkl")) - seen
                blobs.append(blob)
            truncated, flipped = blobs
            truncated.write_bytes(truncated.read_bytes()[:-7])
            raw = bytearray(flipped.read_bytes())
            raw[len(raw) // 2] ^= 0x01
            flipped.write_bytes(bytes(raw))

            def corrupt_total():
                text = "".join(r.client.metrics() for r in fleet.replicas)
                return sum(
                    float(line.split()[-1]) for line in text.splitlines()
                    if line.startswith(
                        "repro_service_result_cache_corrupt_total "
                    )
                )

            before = corrupt_total()
            for spec, body in zip(specs, bodies):
                again = fleet.client.balance(**body)
                assert again.headers["X-Cache"] == "miss"
                assert again.body == _report_bytes(spec)
                assert corrupt_total() == before + 1
                before += 1
                rehit = fleet.client.balance(**body)
                assert rehit.headers["X-Cache"] == "hit"
                assert rehit.body == again.body


# ----------------------------------------------------------------------
# Fleet-wide graceful drain (satellite c)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3])
class TestFleetDrain:
    def test_drain_completes_inflight_async_jobs(self, tmp_path, n):
        fleet = Fleet(
            tmp_path, n, executor_factory=GatedExecutor,
            drain_linger=2.0,
        ).start()
        try:
            scalar = fleet.client.balance(
                app="CG-16", iterations=2, **{"async": True}
            )
            batch = fleet.client.balance(
                app="CG-16", iterations=2,
                candidates=[{"gears": "uniform:4"}, {"algorithm": "avg"}],
                **{"async": True},
            )
            assert scalar.status == 202
            assert batch.status == 202
            scalar_id = scalar.json()["job"]["id"]
            batch_id = batch.json()["job"]["id"]

            stoppers = [
                threading.Thread(target=r.stop) for r in fleet.replicas
            ]
            for s in stoppers:
                s.start()
            # replicas leave the ring; new work is rejected with a
            # Retry-After while the fleet drains
            wait_for(lambda: not fleet.router.router.any_ready, timeout=30)
            rejected = fleet.client.balance(app="CG-16", iterations=2)
            assert rejected.status == 503
            assert rejected.headers["Retry-After"] == "1"

            for executor in fleet.executors:
                executor.gate.set()
            # 202-polling clients observe terminal states through the
            # router during the drain-linger window
            jobs = {}
            deadline = time.monotonic() + 30
            while len(jobs) < 2 and time.monotonic() < deadline:
                for job_id in (scalar_id, batch_id):
                    if job_id in jobs:
                        continue
                    r = fleet.client.job(job_id)
                    if r.status == 200 and r.json()["job"]["status"] in (
                        "done", "failed"
                    ):
                        jobs[job_id] = r.json()["job"]
                time.sleep(0.05)
            for s in stoppers:
                s.join(timeout=60)
            assert len(jobs) == 2, "jobs never reached a terminal state"
            assert jobs[scalar_id]["status"] == "done"
            assert jobs[batch_id]["status"] == "done"
            assert jobs[batch_id]["result"]["count"] == 2
        finally:
            for executor in fleet.executors:
                executor.gate.set()
            fleet.stop()

    def test_drain_rejects_new_async_submissions(self, tmp_path, n):
        fleet = Fleet(
            tmp_path, n, executor_factory=GatedExecutor, drain_linger=1.0
        ).start()
        try:
            replica = fleet.replicas[0]
            held = replica.client.balance(
                app="CG-16", iterations=2, **{"async": True}
            )
            assert held.status == 202
            stopper = threading.Thread(target=replica.stop)
            stopper.start()
            wait_for(lambda: replica.app.draining, timeout=30)
            r = replica.client.balance(
                app="CG-16", iterations=3, **{"async": True}
            )
            assert r.status == 503
            assert r.headers["Retry-After"] == "1"
            assert r.json()["error"]["code"] == "shutting-down"
            fleet.executors[0].gate.set()
            stopper.join(timeout=60)
            assert not stopper.is_alive()
        finally:
            for executor in fleet.executors:
                executor.gate.set()
            fleet.stop()


# ----------------------------------------------------------------------
# Real subprocess supervision
# ----------------------------------------------------------------------

class TestSupervisor:
    def test_fleet_of_two_serves_and_drains(self, tmp_path):
        from repro.service import FleetConfig, FleetThread

        config = FleetConfig(
            port=0, replicas=2, workers=1,
            cache_dir=str(tmp_path / "fleet"), drain_linger=0.2,
        )
        with FleetThread(config) as fleet:
            wait_for(
                lambda: fleet.client.healthz()["fleet"]["ready"] == 2,
                timeout=120,
            )
            first = fleet.client.balance(app="CG-16", iterations=2)
            assert first.status == 200
            again = fleet.client.balance(app="CG-16", iterations=2)
            assert again.status == 200
            assert again.headers["X-Cache"] == "hit"
            assert again.body == first.body
            metrics = fleet.client.metrics()
            assert "repro_fleet_replica_restarts_total" in metrics
            assert "repro_fleet_replicas_alive 2" in metrics
            # every replica writes straight into the one fleet root
            root = tmp_path / "fleet"
            assert list(root.glob("report-*.pkl"))
            assert not list(root.glob("replica-*"))
            # ... so the replica that did not compute it hits as well
            for replica in fleet.supervisor.replicas:
                direct = ServiceClient("127.0.0.1", replica.port).balance(
                    app="CG-16", iterations=2
                )
                assert direct.headers["X-Cache"] == "hit"
                assert direct.body == first.body
        # context exit drains: replica processes must be gone
        assert all(not r.alive for r in fleet.supervisor.replicas)

    def test_crashed_replica_is_restarted(self, tmp_path):
        from repro.service import FleetConfig, FleetThread

        config = FleetConfig(
            port=0, replicas=1, workers=1,
            cache_dir=str(tmp_path / "fleet"), drain_linger=0.1,
        )
        with FleetThread(config) as fleet:
            wait_for(
                lambda: fleet.client.healthz()["fleet"]["ready"] == 1,
                timeout=120,
            )
            replica = fleet.supervisor.replicas[0]
            replica.proc.kill()
            wait_for(lambda: replica.restarts >= 1, timeout=30)
            wait_for(
                lambda: replica.alive
                and fleet.client.healthz()["fleet"]["ready"] == 1,
                timeout=120,
            )
            # the ring re-admits the replica on the next poll tick
            wait_for(lambda: fleet.supervisor.router.any_ready, timeout=30)
            assert fleet.client.balance(
                app="CG-16", iterations=2
            ).status == 200
            metrics = fleet.client.metrics()
            assert (
                'repro_fleet_replica_restarts_total{replica="replica-0"} 1'
                in metrics
            )
