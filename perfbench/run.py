"""Repository benchmark: one command, every workload, every metric.

    python3 perfbench/run.py [--workload balance|serve|all]
        [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process.  With ``--trace 0`` the
child runs untraced and the end-to-end metrics of ``BENCHMARK.json`` are
printed, one per line with their units.  With ``--trace 1`` the workload
runs twice, untraced and then with span recorders wrapped around the
program's public calls (spans.py); the two runs' outputs must be
byte-identical, the difference in their times is reported as the tracing
overhead, and the per-layer metrics come from the traced run.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Set-up time is measured from spawning a process to its first timed
operation (see README.md for what that covers per workload), sampled
several times per run; the median is reported.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
SCRIPTS = {
    "balance": "wl_balance.py",
    "serve": "wl_serve.py",
}
#: Set-up-only processes spawned per run, besides the measured one.
SETUP_REPEATS = 4
IMPORTTIME_REPEATS = 3


class WorkloadError(RuntimeError):
    pass


def spawn(script: str, *args: str) -> tuple[float, dict]:
    """Run a workload process; (seconds until its ready line, its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        stdout=subprocess.PIPE, text=True, cwd=common.ROOT,
        env=common.child_env(),
    )
    setup = None
    last = ""
    try:
        for line in proc.stdout:
            if setup is None and line.strip() == common.READY:
                setup = time.perf_counter() - start
            elif line.strip():
                last = line
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or setup is None:
        raise WorkloadError(f"{script} {' '.join(args)} exited with {code}")
    return setup, (json.loads(last) if last else {})


def run_child(name: str, seed: int, seconds: float, traced: bool,
              *extra: str) -> tuple[float, dict]:
    args = ["--seed", str(seed), "--seconds", str(seconds), *extra]
    return spawn(SCRIPTS[name], *args, *(["--trace"] if traced else []))


def setup_samples(name: str, measured: float, result: dict) -> list[float]:
    if name == "serve":  # set-up is the fleet start, timed by the workload
        return result["setup_s"]
    extra = [spawn(SCRIPTS[name], "--setup-only")[0] for _ in range(SETUP_REPEATS)]
    return [measured, *extra]


#: Requests per latency window on ``serve`` (2 s at 50 req/s).
SERVE_WINDOW = 100


def quietest_window(values: list[float], size: int) -> float:
    """The lowest median over consecutive windows of ``size`` values.

    The host's slow spells double the median of the windows they cover
    and leave the others alone, while a slower program raises every
    window: the quietest window tracks the program, not the host.
    """
    chunks = [values[i:i + size] for i in range(0, len(values), size)]
    if len(chunks) > 1 and len(chunks[-1]) < size:
        chunks.pop()
    return min(common.median(c) for c in chunks)


def end_to_end(name: str, setups: list[float], r: dict) -> dict[str, float]:
    if name == "balance":
        # each cell's mean over the run's sweeps, then the median over the
        # cells: cells come in groups of four per app, so a p50 taken
        # straight over cells sits between two apps' groups and jumps by
        # the gap between them whenever one slow cell changes sides
        per_cell: dict[str, list[float]] = {}
        for cell, t in zip(r["cells"], r["latencies_s"]):
            per_cell.setdefault(cell, []).append(t)
        p50 = common.median([sum(ts) / len(ts) for ts in per_cell.values()])
        throughput = len(r["latencies_s"]) / sum(r["pass_s"])
    else:
        p50 = quietest_window(r["latencies_s"], SERVE_WINDOW)
        throughput = r["good"] / r["window_s"]
    return {
        "setup_s": common.median(setups),
        "throughput_ops_s": throughput,
        "latency_p50_ms": p50 * 1e3,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def import_times() -> tuple[float, float]:
    """(whole import, repro.service share) of the `repro balance` path, in
    ms, from ``-X importtime`` in fresh interpreters (medians)."""
    totals, service = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import repro.cli, repro.service.workers"],
            capture_output=True, text=True, cwd=common.ROOT,
            env=common.child_env(), check=True,
        )
        total = share = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _cumulative, module = line[len("import time:"):].split("|")
            total += int(self_us)
            if module.strip().startswith("repro.service"):
                share += int(self_us)
        totals.append(total / 1e3)
        service.append(share / 1e3)
    return common.median(totals), common.median(service)


def per_layer(name: str, r: dict, untraced: dict,
              import_ms: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run; 0 where the workload does not
    exercise the layer."""
    pct = common.percentile
    ops = r["ops"] if name == "balance" else 1
    self_s = r.get("self_s", {})

    def per_op(span: str, scale: float) -> float:
        return self_s.get(span, 0.0) / ops * scale

    engine = r.get("engine") or {}
    counters = r.get("counters") or {}
    if name == "serve":
        engine = counters
        sims = counters.get("simulations", 0.0) or 1.0
        compiles_per_op = counters.get("compiled_compiles", 0.0) / sims
    else:
        compiles_per_op = engine.get("compiled_compiles", 0.0) / ops
    m = {
        "import.cli_ms": import_ms[0],
        "import.service_ms": import_ms[1],
        "apps.build_ms": per_op("apps.build", 1e3),
        "netsim.record_ms": per_op("netsim.record", 1e3),
        "netsim.compile_ms": per_op("netsim.compile", 1e3),
        "netsim.baseline_ms": per_op("netsim.baseline", 1e3),
        "netsim.replay_ms": per_op("netsim.replay", 1e3),
        "netsim.compiles_per_op": compiles_per_op,
        "netsim.des_runs": engine.get("des_runs", 0.0),
        "netsim.compiled_instructions": engine.get("compiled_instructions", 0.0),
        "netsim.batch_chunks": engine.get("batch_chunks", 0.0),
        "traces.compute_times_ms": per_op("traces.compute_times", 1e3),
        "core.assign_ms": per_op("core.assign", 1e3),
        "core.energy_ms": per_op("core.energy", 1e3),
        "core.serialise_ms": per_op("core.serialise", 1e3),
    }
    lat = r.get("latencies_s", [])
    cache = r.get("cache", [])
    for state in ("hit", "miss", "peer", "coalesced"):
        mine = [t for t, c in zip(lat, cache) if c == state]
        m[f"service.{state}_p50_ms"] = pct(mine, 50) * 1e3
        m[f"service.{state}_p99_ms"] = pct(mine, 99) * 1e3
    valid = sum(1 for c in cache if c)
    m["service.hit_ratio"] = cache.count("hit") / valid if valid else 0.0
    for key in ("simulations", "coalesced", "peer_fills", "queue_rejected"):
        m[f"service.{key}"] = counters.get(key, 0.0)
    m["router.hop_ms"] = r.get("hop_s", 0.0) * 1e3
    m["router.forwarded"] = counters.get("forwarded", 0.0)
    m["router.proxy_errors"] = counters.get("proxy_errors", 0.0)
    m["diagnostics.lint_gate_ms"] = r.get("lint_gate_s", 0.0) * 1e3
    m["loadgen.late_p99_ms"] = pct(r.get("late_s", []), 99) * 1e3
    if name == "serve":
        # the fleet runs no recorders: the cost is the generator's own
        # span recording, per request
        base = common.median(r["latencies_s"])
        overhead = r["recorder_s"] / len(r["latencies_s"])
    else:
        # mean cell time, traced minus untraced
        base = mean_cell_s(untraced)
        overhead = mean_cell_s(r) - base
    m["tracing.overhead_ms"] = overhead * 1e3
    m["tracing.overhead_pct"] = overhead / base * 100.0
    m["tracing.spans"] = float(r.get("spans", 0))
    return m


def mean_cell_s(r: dict) -> float:
    return sum(r["latencies_s"]) / len(r["latencies_s"])


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 declared: dict, notes: dict) -> dict:
    """One workload's result; ``notes`` receives values that are printed
    but are not declared metrics."""
    if not traced:
        measured, r = run_child(name, seed, seconds, False)
        metrics = end_to_end(name, setup_samples(name, measured, r), r)
        correct, attempted, failed = r["failed"] == 0, r["ops"], r["failed"]
        if name == "serve":
            notes["loadgen.late_p99_ms"] = common.percentile(r["late_s"], 99) * 1e3
    else:
        quick = ("--setup-samples", "1") if name == "serve" else ()
        _s, base = run_child(name, seed, seconds, False, *quick)
        _s, r = run_child(name, seed, seconds, True, *quick)
        metrics = per_layer(name, r, base, import_times())
        identical = base["outputs"] == r["outputs"]
        if not identical:
            print(f"{name}: traced and untraced outputs differ", file=sys.stderr)
        attempted = base["ops"] + r["ops"]
        failed = base["failed"] + r["failed"]
        correct = identical and failed == 0
    missing = set(declared) - set(metrics)
    unknown = set(metrics) - set(declared)
    if missing or unknown:
        raise WorkloadError(f"metrics out of step with BENCHMARK.json: "
                            f"missing {sorted(missing)}, unknown {sorted(unknown)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*SCRIPTS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds "
                        "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    common.WORK.mkdir(exist_ok=True)

    names = list(SCRIPTS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        notes: dict[str, float] = {}
        try:
            results[name] = run_workload(name, args.seed, seconds,
                                         bool(args.trace), declared, notes)
        except WorkloadError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} "
              f"failed_ratio={res['failed'] / res['attempted']:.4f}")
        for metric, value in res["metrics"].items():
            print(f"  {metric:32s} {value['value']:14.4f} {value['unit']}")
        for note, value in notes.items():
            print(f"  ({note} {value:.4f}, not a declared metric)")
    if len(names) == 1:
        common.emit(results[names[0]])
    else:
        common.emit({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
