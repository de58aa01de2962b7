"""``balance`` workload: a cold sweep of the paper's cells.

Every cell goes through ``repro.service.workers.execute_balance`` — the
call ``repro balance --json`` and the service share — with no result
cache, so each cell pays the whole §4 pipeline: DES trace recording,
compile, baseline and modified replays, assignment, energy and
serialisation.

    python3 perfbench/wl_balance.py --seed 1 --seconds 36 [--trace]

Prints the ready line once the ``repro balance`` import path is loaded,
then one JSON line with the raw measurements (see run.py).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from contextlib import nullcontext

import common

GEARS = ("uniform:4", "uniform:6")
ALGORITHMS = ("max", "avg")
ITERATIONS = 6  # the `repro balance` default
BETA = 0.5


def cells(apps) -> list[str]:
    return [f"{a}/{g}/{alg}" for a in apps for g in GEARS for alg in ALGORITHMS]


def spec(cell: str, engine: str = "auto") -> dict:
    app, gears, algorithm = cell.split("/")
    return {
        "app": app,
        "gears": gears,
        "algorithm": algorithm,
        "beta": BETA,
        "iterations": ITERATIONS,
        "base_compute": 0.02,
        "engine": engine,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    common.use_source_tree()
    import repro.cli  # noqa: F401  (the `repro balance` import path)
    from repro.apps.registry import TABLE3_INSTANCES
    from repro.netsim.enginestats import process_engine_stats
    from repro.service.workers import execute_balance

    common.signal_ready()
    if args.setup_only:
        return

    reference = common.load_reference()["balance"]
    recorder = None
    if args.trace:
        import spans

        recorder = spans.install()
    rng = random.Random(args.seed)
    all_cells = cells(TABLE3_INSTANCES)
    latencies: list[float] = []
    executed: list[str] = []
    pass_times: list[float] = []
    outputs: dict[str, str] = {}
    failed = 0
    before = process_engine_stats()
    start = time.perf_counter()
    while True:
        order = rng.sample(all_cells, len(all_cells))
        pass_start = time.perf_counter()
        for cell in order:
            if recorder is not None:
                recorder.op = len(latencies)
            t0 = time.perf_counter()
            try:
                report, _runner = execute_balance(spec(cell))
                with recorder.span("core.serialise") if recorder else nullcontext():
                    text = common.render_report(report)
            except Exception as exc:  # one failed cell must not stop the sweep
                print(f"balance: {cell} raised {exc!r}", file=sys.stderr)
                text = ""
            latencies.append(time.perf_counter() - t0)
            executed.append(cell)
            outputs[cell] = common.digest(text)
            if outputs[cell] != reference[cell]:
                failed += 1
        pass_times.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if elapsed + pass_times[-1] > args.seconds:
            break
    window = time.perf_counter() - start
    after = process_engine_stats()

    result = {
        "ops": len(latencies),
        "failed": failed,
        "window_s": window,
        "latencies_s": latencies,
        "cells": executed,
        "pass_s": pass_times,
        "peak_rss_mb": common.peak_rss_mb(),
        "engine": {k: after[k] - before[k] for k in after},
        "outputs": outputs,
    }
    if recorder is not None:
        recorder.uninstall()
        result["self_s"] = recorder.self_times()
        result["spans"] = len(recorder.spans)
        recorder.dump(common.WORK / "spans-balance.json")
    common.emit(result)


if __name__ == "__main__":
    main()
