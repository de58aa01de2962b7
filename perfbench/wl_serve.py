"""``serve`` workload: a seeded open loop against a two-replica fleet.

Starts ``repro serve --replicas 2 --workers 1`` (router, two replicas,
one worker process each) on a fresh cache directory, prewarms a hot set
of bodies on the paper's instances, then sends ``RATE`` requests per
second for the run's length:

* about 88% from the hot set, Zipf-popular: cache hits through the router;
* every 10th request a never-seen body (new gear set, β, iteration
  count or cap) that a worker has to simulate;
* about 2% bodies the lint gate must reject with a coded 400.

Among valid bodies about 15% are ``candidates`` batches and 5% carry a
``power_cap``.  Counts per class are exact for a given length (a shuffled
deck, not independent draws), and never-seen bodies cycle through the
apps evenly, so two seeds differ in order and body choice, not in mix.

After the load, and outside any timing, every distinct valid body is
recomputed in process with ``execute_balance`` / ``execute_balance_many``
and each response's bytes are compared with it.

    python3 perfbench/wl_serve.py --seed 1 --seconds 36 [--trace]
        [--setup-samples N]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import common
import loadgen

RATE = 50.0
#: p99 latency limit a response must meet to count toward goodput; the
#: same limit as benchmarks/baselines/loadtest.json (warm_p99_ms_max).
LATENCY_LIMIT_S = 0.250
MISS_EVERY = 10
REJECT_EVERY = 50
#: (kind, share of valid bodies, never-seen variant types)
KINDS = (
    ("scalar", 0.80, ("gears", "beta", "iterations")),
    ("batch", 0.15, ("gears", "beta")),
    ("capped", 0.05, ("cap", "beta")),
)
ZIPF_EXPONENT = 1.0
HOT_ITERATIONS = 2
CAP_PER_RANK = 4.0  # model watts; binding but feasible for uniform:6
BETAS = [round(0.30 + 0.01 * i, 2) for i in range(41) if i != 20]


def _nproc(app: str) -> int:
    return int(app.rsplit("-", 1)[1])


def hot_bodies(apps) -> dict[str, list[dict]]:
    return {
        "scalar": [
            {"app": a, "gears": g, "algorithm": alg, "iterations": HOT_ITERATIONS}
            for a in apps for g in ("uniform:4", "uniform:6")
            for alg in ("max", "avg")
        ],
        "batch": [
            {"app": a, "iterations": HOT_ITERATIONS, "candidates": [
                {"gears": "uniform:4"}, {"gears": "uniform:6", "algorithm": "avg"},
            ]}
            for a in apps
        ],
        "capped": [
            {"app": a, "gears": "uniform:6", "iterations": HOT_ITERATIONS,
             "power_cap": CAP_PER_RANK * _nproc(a)}
            for a in apps
        ],
    }


def miss_pool(kind: str, variant: str, app: str) -> list[dict]:
    """Bodies of one kind and app that differ from every hot body."""
    base = hot_bodies([app])[kind][0]
    if kind == "scalar":
        # uniform:6 under max is no batch body's candidate, so a never-seen
        # scalar body is never already cached by a batch (and vice versa)
        base = {**base, "gears": "uniform:6"}
    if variant == "beta":
        return [{**base, "beta": b} for b in BETAS]
    if variant == "iterations":
        # two new trace lengths per app, one shorter and one longer than
        # the hot set's, then other gears and algorithms on those traces:
        # a longer run sends more bodies, not ever longer worlds
        return [{**base, "iterations": it, "gears": g, "algorithm": alg}
                for g in ("uniform:6", "uniform:4") for alg in ("max", "avg")
                for it in (1, 3)]
    if variant == "cap":
        return [{**base, "power_cap": f * _nproc(app)}
                for f in (2.5, 3.0, 3.5, 4.5, 5.0, 5.5)]
    if kind == "batch":
        specs = ("uniform:9", "uniform:10", "exponential:3", "exponential:5")
        return [{**base, "candidates": [{"gears": a}, {"gears": b, "algorithm": "avg"}]}
                for a in specs for b in specs if a != b]
    specs = ("uniform:3", "uniform:5", "uniform:7", "uniform:8",
             "exponential:4", "exponential:6")
    return [{**base, "gears": g, "algorithm": alg}
            for g in specs for alg in ("max", "avg")]


def reject_bodies(app: str) -> list[dict]:
    """Bodies the lint gate rejects: β outside [0, 1] (MD001) and a cap
    below the idle floor of the world (PC001)."""
    base = {"app": app, "gears": "uniform:6", "iterations": HOT_ITERATIONS}
    return [{**base, "beta": 1.5}, {**base, "power_cap": 0.5 * _nproc(app)}]


def _split(n: int):
    """(kind, count, variants) with counts in KINDS proportions summing to n."""
    out, left = [], n
    for i, (kind, share, variants) in enumerate(KINDS):
        count = left if i == len(KINDS) - 1 else round(n * share)
        out.append((kind, count, variants))
        left -= count
    return out


def schedule(apps, seconds: float, seed: int):
    """The run's arrivals: (offset_s, body index), distinct bodies, hot set.

    Classes are interleaved evenly — every 10th arrival is never-seen and
    every 50th is rejected, at seeded phases — so two misses never arrive
    closer than 200 ms.  Never-seen bodies cycle through the apps in a
    fixed order, so every seed simulates the same mix of worlds; the seed
    picks the hot bodies, the body of each variant and the order.
    """
    rng = random.Random(seed)
    n = max(1, round(seconds * RATE))
    miss_phase = rng.randrange(MISS_EVERY)
    reject_phase = rng.randrange(REJECT_EVERY)
    classes = [
        "miss" if i % MISS_EVERY == miss_phase
        else "reject" if i % REJECT_EVERY == reject_phase
        else "hot"
        for i in range(n)
    ]
    hot = hot_bodies(apps)

    bodies: list[dict] = []
    index: dict[str, int] = {}

    def add(body: dict) -> int:
        key = json.dumps(body, sort_keys=True)
        if key not in index:
            index[key] = len(bodies)
            bodies.append(body)
        return index[key]

    hot_ids = {kind: [add(b) for b in hot[kind]] for kind, _s, _v in KINDS}
    decks: dict[str, list[int]] = {"hot": [], "miss": [], "reject": []}
    for kind, count, _variants in _split(classes.count("hot")):
        ranked = rng.sample(hot_ids[kind], len(hot_ids[kind]))
        weights = [1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(len(ranked))]
        decks["hot"] += rng.choices(ranked, weights=weights, k=count)
    pools: dict[tuple, list[dict]] = {}
    for kind, count, variants in _split(classes.count("miss")):
        for j in range(count):
            app = apps[j % len(apps)]
            variant = variants[(j // len(apps)) % len(variants)]
            key = (kind, variant, app)
            if key not in pools:
                pool = miss_pool(*key)
                # iteration variants stay in order: an app's first two
                # pops record its two new trace lengths, whatever the seed
                pools[key] = pool[::-1] if variant == "iterations" else rng.sample(pool, len(pool))
            decks["miss"].append(add(pools[key].pop()))
    for j in range(classes.count("reject")):
        app = apps[j % len(apps)]
        decks["reject"].append(add(reject_bodies(app)[(j // len(apps)) % 2]))
    for deck in decks.values():
        rng.shuffle(deck)
    arrivals = [(i / RATE, decks[c].pop()) for i, c in enumerate(classes)]
    hot_all = [i for ids in hot_ids.values() for i in ids]
    return arrivals, bodies, hot_all


# ----------------------------------------------------------------------
# the fleet under test


def _port_block(count: int) -> int:
    """A port whose next ``count`` neighbours are free too (router + replicas)."""
    for _ in range(50):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            base = probe.getsockname()[1]
        if base + count >= 65536:
            continue
        try:
            for port in range(base + 1, base + count + 1):
                with socket.socket() as probe:
                    probe.bind(("127.0.0.1", port))
        except OSError:
            continue
        return base
    raise RuntimeError("no free block of ports")


def _children(pid: int) -> list[int]:
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry.name))
    return out


def _matching(text: str) -> list[int]:
    """Processes whose command line contains ``text``."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if text.encode() in cmdline:
            out.append(int(entry.name))
    return out


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class Fleet:
    """One ``repro serve --replicas 2 --workers 1`` process tree."""

    def __init__(self, cache_dir: Path):
        self.cache_dir = cache_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, attempts: int = 3) -> float:
        """Spawn the fleet; seconds until the router has both replicas in
        its ring.  A fleet that exits while starting (a port taken between
        the probe and the bind) is started again on other ports."""
        for _ in range(attempts):
            self.port = _port_block(2)
            log = open(self.cache_dir.parent / f"{self.cache_dir.name}.log", "ab")
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--replicas", "2",
                 "--workers", "1", "--port", str(self.port),
                 "--cache-dir", str(self.cache_dir), "--drain-linger", "0.05"],
                env=common.child_env(), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True, cwd=common.ROOT,
            )
            log.close()
            while self.proc.poll() is None:
                if self.metric("repro_router_ready_replicas") == 2:
                    return time.perf_counter() - start
                if time.perf_counter() - start > 120:
                    raise RuntimeError("fleet not ready within 120 s")
                time.sleep(0.01)
            self.stop()
        raise RuntimeError(f"fleet exited during start-up {attempts} times")

    def metrics(self) -> dict[str, float]:
        """The router's /metrics, summed over labels (0 when unreachable)."""
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{self.port}/metrics", timeout=10
            ) as response:
                text = response.read().decode()
        except OSError:
            return {}
        totals: dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            name = name.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def metric(self, name: str) -> float:
        return self.metrics().get(name, 0.0)

    def replica_addrs(self) -> list[tuple[str, int]]:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{self.port}/healthz", timeout=10
        ) as response:
            health = json.loads(response.read())
        addrs = []
        for replica in health["replicas"].values():
            host, _, port = replica["addr"].rpartition(":")
            addrs.append((host, int(port)))
        return addrs

    def tree(self) -> list[int]:
        pids, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            frontier += _children(pid)
        return pids

    def peak_rss_mb(self) -> float:
        """Summed high-water RSS of every process in the fleet."""
        total_kb = 0
        for pid in self.tree():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM drains the fleet; anything left after 30 s is killed."""
        if self.proc is None:
            return
        pids = self.tree()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        # replicas lead sessions of their own, so one left behind by a
        # supervisor that died is found by its cache directory instead
        replicas = _matching(str(self.cache_dir))
        deadline = time.perf_counter() + 10
        for pid in {*pids[1:], *replicas}:
            while _alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for pid in replicas:  # and the worker processes in their groups
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc = None


# ----------------------------------------------------------------------
# checks and samples outside the timed window


def expected_bytes(body: dict, defaults) -> bytes | None:
    """The response body the service must return, computed in process;
    None for a body the lint gate rejects."""
    from repro.service.errors import LintRejected
    from repro.service.routes import parse_balance_request
    from repro.service.workers import execute_balance, execute_balance_many

    try:
        spec, _is_async = parse_balance_request(body, defaults)
    except LintRejected:
        return None
    if "candidates" in spec:
        reports, _runner = execute_balance_many(spec)
        payload = {"count": len(reports), "results": [r.to_json() for r in reports]}
    else:
        report, _runner = execute_balance(spec)
        payload = report.to_json()
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def lint_gate_seconds(bodies: list[dict], defaults, rounds: int = 5) -> float:
    """Median per-body time of the service's request parser and lint gate."""
    from repro.service.errors import ServiceError
    from repro.service.routes import parse_balance_request

    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for body in bodies:
            try:
                parse_balance_request(body, defaults)
            except ServiceError:
                pass
        samples.append((time.perf_counter() - t0) / len(bodies))
    return common.median(samples)


async def hop_samples(fleet: Fleet, payloads: list[bytes], rounds: int = 3):
    """Hit latency through the router and sent straight to a replica holding
    the result, interleaved; returns (routed, direct) lists of seconds."""
    router = loadgen.Connection("127.0.0.1", fleet.port)
    replicas = [loadgen.Connection(h, p) for h, p in fleet.replica_addrs()]
    routed, direct = [], []
    loop = asyncio.get_running_loop()
    try:
        for _ in range(rounds):
            for payload in payloads:
                t0 = loop.time()
                _s, reply, _b = await router.request("POST", "/v1/balance", payload)
                if reply.get("x-cache") == "hit":
                    routed.append(loop.time() - t0)
                for conn in replicas:
                    t0 = loop.time()
                    _s, reply, _b = await conn.request("POST", "/v1/balance", payload)
                    if reply.get("x-cache") == "hit":
                        direct.append(loop.time() - t0)
    finally:
        for conn in (router, *replicas):
            await conn.close()
    return routed, direct


# ----------------------------------------------------------------------


COUNTERS = {
    "simulations": "repro_service_simulations_total",
    "coalesced": "repro_service_coalesced_total",
    "peer_fills": "repro_service_peer_cache_hits_total",
    "queue_rejected": "repro_service_queue_rejected_total",
    "forwarded": "repro_router_forwarded_total",
    "proxy_errors": "repro_router_proxy_errors_total",
    "compiled_compiles": "repro_engine_compiled_compiles_total",
    "des_runs": "repro_engine_des_runs_total",
    "compiled_instructions": "repro_engine_compiled_instructions_total",
    "batch_chunks": "repro_engine_batch_chunks_total",
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-samples", type=int, default=3)
    args = parser.parse_args()

    common.use_source_tree()
    from repro.apps.registry import TABLE3_INSTANCES
    from repro.service.app import ServiceConfig

    common.signal_ready()
    defaults = ServiceConfig()
    arrivals, bodies, hot = schedule(TABLE3_INSTANCES, args.seconds, args.seed)
    payloads = [json.dumps(b, sort_keys=True).encode() for b in bodies]
    connections = os.cpu_count() or 1
    run_dir = common.WORK / f"serve-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)

    setups = []
    fleet = None
    try:
        for i in range(max(1, args.setup_samples)):
            if fleet is not None:
                fleet.stop()
            fleet = Fleet(run_dir / f"cache-{i}")
            setups.append(fleet.start())
        warm = asyncio.run(loadgen.drive(
            "127.0.0.1", fleet.port, [(0.0, payloads[i]) for i in hot],
            connections, timeout=120.0,
        ))
        before = fleet.metrics()
        outcomes = asyncio.run(loadgen.drive(
            "127.0.0.1", fleet.port,
            [(offset, payloads[i]) for offset, i in arrivals], connections,
        ))
        after = fleet.metrics()
        rss = fleet.peak_rss_mb()
        routed = direct = []
        if args.trace:
            scalar_hot = [payloads[i] for i in hot if "candidates" not in bodies[i]]
            routed, direct = asyncio.run(hop_samples(fleet, scalar_hot[:24]))
    finally:
        if fleet is not None:
            fleet.stop()

    # correctness, outside the timed window
    warm_failed = sum(o.status != 200 for o in warm)
    expected: dict[int, bytes | None] = {}
    ok = []
    for (_offset, i), outcome in zip(arrivals, outcomes):
        if i not in expected:
            expected[i] = expected_bytes(bodies[i], defaults)
        if expected[i] is None:
            good = outcome.status == 400 and (
                json.loads(outcome.body or b"{}").get("error", {}).get("code")
                == "lint-rejected"
            )
        else:
            good = outcome.status == 200 and outcome.body == expected[i]
        ok.append(good)

    result = {
        "ops": len(warm) + len(outcomes),
        "failed": warm_failed + ok.count(False),
        "setup_s": setups,
        "latencies_s": [o.latency_s for o in outcomes],
        "late_s": [o.late_s for o in outcomes],
        "good": sum(good and o.latency_s <= LATENCY_LIMIT_S
                    for good, o in zip(ok, outcomes)),
        "cache": [o.cache for o in outcomes],
        "window_s": args.seconds,
        "peak_rss_mb": rss,
        "counters": {k: after.get(m, 0.0) - before.get(m, 0.0)
                     for k, m in COUNTERS.items()},
        "outputs": {str(i): common.digest(o.body.decode("utf-8", "replace"))
                    for (_t, i), o in zip(arrivals, outcomes)},
    }
    if args.trace:
        import spans

        t0 = time.perf_counter()
        recorder = spans.SpanRecorder()
        for op, ((_t, i), o) in enumerate(zip(arrivals, outcomes)):
            recorder.op = op
            recorder.add("loadgen.request", o.sent, o.done, due=o.due,
                         body=i, status=o.status, cache=o.cache)
        recorder.dump(common.WORK / "spans-serve.json")
        result["recorder_s"] = time.perf_counter() - t0
        result["spans"] = len(recorder.spans)
        result["lint_gate_s"] = lint_gate_seconds([bodies[i] for _t, i in arrivals], defaults)
        result["hop_s"] = common.median(routed) - common.median(direct) if routed and direct else 0.0
    shutil.rmtree(run_dir, ignore_errors=True)
    common.emit(result)


if __name__ == "__main__":
    main()
