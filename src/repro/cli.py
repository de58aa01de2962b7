"""Command-line interface.

::

    repro list                          # available experiments
    repro run fig2 [--csv f.csv]        # regenerate a table/figure
    repro reproduce-all --out results --jobs 4   # parallel campaign
    repro balance BT-MZ-32 --gears uniform:6 --algorithm max
    repro trace CG-32 -o cg32.jsonl     # record a skeleton trace
    repro timeline BT-MZ-32             # ASCII Fig.1-style timeline
    repro lint --format sarif           # static analysis (see docs/diagnostics.md)
    repro serve --port 8080 --workers 2 # simulation service (docs/service.md)
    repro cache stats                   # persistent result-cache maintenance

Also runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["main", "build_gear_set"]


def build_gear_set(spec: str):
    """Parse a gear-set spec: ``uniform:N``, ``exponential:N``,
    ``unlimited``, ``limited``, ``limited+ocP`` or ``avg-discrete``."""
    from repro.core.gears import (
        exponential_gear_set,
        limited_continuous_set,
        overclocked,
        uniform_gear_set,
        unlimited_continuous_set,
    )

    spec = spec.strip().lower()
    if spec == "unlimited":
        return unlimited_continuous_set()
    if spec == "limited":
        return limited_continuous_set()
    if spec == "avg-discrete":
        from repro.experiments.fig9 import avg_discrete_set

        return avg_discrete_set()
    if spec.startswith("limited+oc"):
        return overclocked(limited_continuous_set(), float(spec[len("limited+oc"):]))
    for prefix, factory in (("uniform:", uniform_gear_set),
                            ("exponential:", exponential_gear_set)):
        if spec.startswith(prefix):
            return factory(int(spec[len(prefix):]))
    raise argparse.ArgumentTypeError(
        f"bad gear set {spec!r}; try uniform:6, exponential:5, unlimited, "
        "limited, limited+oc10, avg-discrete"
    )


def _config_from(args: argparse.Namespace):
    from repro.experiments.runner import RunnerConfig

    kwargs = {}
    if getattr(args, "iterations", None):
        kwargs["iterations"] = args.iterations
    if getattr(args, "beta", None) is not None:
        kwargs["beta"] = args.beta
    if getattr(args, "apps", None):
        kwargs["apps"] = tuple(a.strip() for a in args.apps.split(","))
    if getattr(args, "platform", None):
        from repro.netsim.config import load_platform

        kwargs["platform"] = load_platform(args.platform)
    if getattr(args, "engine", None):
        kwargs["engine"] = args.engine
    if getattr(args, "mmap", False):
        kwargs["storage"] = "mmap"
    return RunnerConfig(**kwargs)


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENT_IDS

    for eid in EXPERIMENT_IDS:
        print(eid)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import get_experiment

    result = get_experiment(args.experiment)(_config_from(args))
    if args.md:
        from repro.experiments.report import format_markdown

        print(format_markdown(result.columns, result.rows, decimals=args.decimals))
    else:
        print(result.to_ascii(decimals=args.decimals))
    if args.experiment == "fig1":
        print("\n--- original ---")
        print(result.series["ascii_original"])
        print("\n--- after MAX ---")
        print(result.series["ascii_after"])
    if args.csv:
        result.to_csv(args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.svg:
        numeric = [
            c for c in result.columns
            if result.rows and isinstance(result.rows[0].get(c), (int, float))
        ]
        if args.experiment == "fig1":
            svg = result.series["svg_after"]
        else:
            svg = result.to_svg(result.columns[0], numeric[:6])
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.svg}", file=sys.stderr)
    return 0


def _cmd_platform(args: argparse.Namespace) -> int:
    import json

    from repro.netsim.config import platform_to_dict
    from repro.netsim.platform import MYRINET_LIKE

    text = json.dumps(platform_to_dict(MYRINET_LIKE), indent=2)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    import json

    # Shared with the service's worker pool, so `repro balance --json`
    # is byte-identical to the `POST /v1/balance` response body.
    from repro.service.workers import execute_balance

    spec = {
        "app": args.app,
        "gears": args.gears,
        "algorithm": args.algorithm,
        "beta": args.beta,
        "iterations": args.iterations,
        "base_compute": 0.02,
        "engine": args.engine,
    }
    if args.cache_dir:
        spec["cache_dir"] = args.cache_dir
    if getattr(args, "power_cap", None) is not None:
        # additive: capless specs stay byte-identical to the pre-cap
        # wire format (and keep their cache identities)
        spec["power_cap"] = args.power_cap
    if getattr(args, "mmap", False):
        spec["storage"] = "mmap"
    try:
        report, _runner = execute_balance(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report)
        for key, value in sorted(report.row().items()):
            print(f"  {key:28s} {value}")
        power = getattr(report, "power", None)
        if power is not None:
            print("  power cap")
            for key in (
                "cap_w", "peak_power_w", "avg_power_w", "headroom_w",
                "uncapped_peak_power_w", "binding_count",
            ):
                print(f"    {key:26s} {power[key]}")
    if args.save_assignment:
        with open(args.save_assignment, "w", encoding="utf-8") as fh:
            json.dump(report.assignment.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.save_assignment}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
    )
    if args.replicas > 0:
        from repro.service.supervisor import FleetConfig, Supervisor

        fleet = FleetConfig(
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            workers=args.workers,
            queue_limit=args.queue_limit,
            cache_dir=args.cache_dir,
            iterations=args.iterations,
            beta=args.beta,
            drain_linger=args.drain_linger or 1.0,
        )
        return asyncio.run(Supervisor(fleet).run())

    from repro.service.app import ServiceApp, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        cache_dir=args.cache_dir,
        iterations=args.iterations,
        beta=args.beta,
        drain_linger=args.drain_linger,
        replica_name=args.replica_name,
    )
    return asyncio.run(ServiceApp(config).run())


def _cmd_cache(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.experiments.cache import ResultCache, default_cache_dir

    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.cache_command == "stats":
        stats = cache.disk_stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"cache dir:   {stats['cache_dir']}")
        print(f"entries:     {stats['entries']}")
        print(f"total bytes: {stats['total_bytes']}")
        for kind, count in stats["kinds"].items():
            print(f"  {kind:14s} {count}")
        if stats["oldest_mtime"] is not None:
            age_days = (time.time() - stats["oldest_mtime"]) / 86400.0
            print(f"oldest:      {age_days:.1f} day(s)")
        return 0
    if args.cache_command == "gc":
        out = cache.gc(args.max_age)
        print(
            f"removed {out['removed']} blob(s), freed {out['freed_bytes']} "
            f"bytes from {cache.cache_dir}"
        )
        return 0
    removed = cache.clear()
    print(f"removed {removed} blob(s) from {cache.cache_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Side-by-side: every strategy this library implements, one app."""
    from repro.apps import build_app
    from repro.core.algorithms import AvgAlgorithm, MaxAlgorithm
    from repro.core.balancer import PowerAwareLoadBalancer
    from repro.core.dynamic import CommPhaseScalingRuntime, JitterRuntime
    from repro.core.gears import uniform_gear_set
    from repro.core.phasebalancer import PhaseAwareLoadBalancer
    from repro.experiments.fig9 import avg_discrete_set
    from repro.experiments.report import format_table

    gear_set = build_gear_set(args.gears)
    app = build_app(args.app, iterations=max(args.iterations, 2))
    trace = PowerAwareLoadBalancer(gear_set=gear_set).trace_app(app)

    rows = []

    def add(label, energy, time):
        rows.append(
            {
                "strategy": label,
                "normalized_energy_pct": 100.0 * energy,
                "normalized_time_pct": 100.0 * time,
                "normalized_edp_pct": 100.0 * energy * time,
            }
        )

    r = PowerAwareLoadBalancer(gear_set=gear_set).balance_trace(
        trace, algorithm=MaxAlgorithm()
    )
    add("MAX (paper, static)", r.normalized_energy, r.normalized_time)
    r = PowerAwareLoadBalancer(gear_set=avg_discrete_set()).balance_trace(
        trace, algorithm=AvgAlgorithm()
    )
    add("AVG (paper, +2.6 GHz gear)", r.normalized_energy, r.normalized_time)
    p = PhaseAwareLoadBalancer(gear_set=gear_set).balance_trace(trace)
    add("per-phase MAX (future work)", p.normalized_energy, p.normalized_time)
    j = JitterRuntime(gear_set=gear_set).run(trace)
    add("Jitter (dynamic)", j.normalized_energy, j.normalized_time)
    c = CommPhaseScalingRuntime(gear_set=uniform_gear_set(6)).run(trace)
    add("comm-phase scaling", c.normalized_energy, c.normalized_time)

    print(format_table(
        ["strategy", "normalized_energy_pct", "normalized_time_pct",
         "normalized_edp_pct"],
        rows,
        title=f"DVFS strategies on {app.name} "
              f"(LB {r.load_balance:.1%}, gears {gear_set.name})",
    ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.apps import build_app
    from repro.traces.jsonio import write_trace

    app = build_app(args.app, iterations=args.iterations)
    # shard-parallel generation is byte-identical whatever the worker count
    trace = app.columnar_trace(jobs=max(args.jobs, 1))
    trace.meta.setdefault("nproc", trace.nproc)
    write_trace(trace, args.output)
    print(f"wrote {args.output} ({trace.total_records()} records, "
          f"{trace.nproc} ranks)")
    return 0


def _cmd_trace_pack(args: argparse.Namespace) -> int:
    from repro.traces import colstore
    from repro.traces.columnar import ColumnarTrace
    from repro.traces.jsonio import read_trace, write_trace

    try:
        if colstore.is_store_file(args.input):
            # binary -> JSON-lines: stream rows straight off the mapped
            # columns, never materialising record objects
            trace = ColumnarTrace.open(args.input, mmap=True)
            try:
                write_trace(trace, args.output)
            finally:
                trace.detach_mapping()
            direction = "store -> jsonl"
        else:
            # JSON-lines -> binary: the columnar reader parses line by
            # line, so both representations never coexist in full
            trace = read_trace(args.input, columnar=True)
            trace.save(args.output)
            direction = "jsonl -> store"
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"packed {args.input} -> {args.output} ({direction})")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    import json

    from repro.traces.colstore import describe_store

    try:
        info = describe_store(args.store)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"{info['path']}: {info['format']} v{info['version']}")
    print(f"  ranks:           {info['nproc']}")
    print(f"  events:          {info['n_events']}")
    print(f"  file bytes:      {info['file_nbytes']}")
    print(f"  payload bytes:   {info['payload_nbytes']} "
          f"(offset {info['payload_offset']})")
    print(f"  bytes/event:     {info['bytes_per_event']:.1f}")
    print(f"  payload sha256:  {info['payload_sha256']}")
    if info["meta"]:
        print(f"  meta:            {json.dumps(info['meta'], sort_keys=True)}")
    print(f"  strings:         {info['strings']['count']} "
          f"({info['strings']['nbytes']} bytes)")
    print("  columns:")
    for col in info["columns"]:
        print(f"    {col['name']:<10s} {col['dtype']:<5s} "
              f"count={col['count']:<12d} nbytes={col['nbytes']}")
    return 0


def _cmd_reproduce_all(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import reproduce_all

    experiments = None
    if args.experiments:
        experiments = tuple(e.strip() for e in args.experiments.split(","))
    cache_dir = None
    if not args.no_cache:
        if args.cache_dir:
            cache_dir = args.cache_dir
        else:
            from repro.experiments.cache import default_cache_dir

            cache_dir = default_cache_dir()
    manifest = reproduce_all(
        args.out,
        _config_from(args),
        experiments=experiments,
        jobs=args.jobs,
        cache_dir=cache_dir,
    )
    return 1 if manifest["errors"] else 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.netsim.simulator import MpiSimulator
    from repro.traces.analysis import trace_stats
    from repro.traces.iterstats import iteration_stats
    from repro.traces.jsonio import read_trace

    trace = read_trace(args.trace)
    trace.validate()
    print(f"{args.trace}: structurally valid")
    result = MpiSimulator().run_trace(trace)
    stats = trace_stats(trace, result.execution_time)
    print(f"  name:                {stats.name}")
    print(f"  ranks:               {stats.nproc}")
    print(f"  records:             {stats.total_records}")
    print(f"  iterations:          {stats.iterations}")
    print(f"  load balance:        {stats.load_balance:.2%}")
    print(f"  parallel efficiency: {stats.parallel_efficiency:.2%}")
    print(f"  replay time:         {result.execution_time:.6g} s")
    print(f"  bytes sent:          {stats.bytes_sent}")
    if stats.collective_counts:
        ops = ", ".join(
            f"{op}x{n}" for op, n in sorted(stats.collective_counts.items())
        )
        print(f"  collectives:         {ops}")
    if stats.iterations >= 2:
        it = iteration_stats(trace)
        print(f"  per-iteration LB:    {it.mean_lb:.2%} (mean)")
        print(f"  drift:               {it.drift:.3f}  "
              f"max rank CV: {it.max_rank_cv:.3f}")
    from repro.traces.analysis import top_communicators

    pairs = top_communicators(trace, k=5)
    if pairs:
        print("  heaviest p2p pairs:  " + ", ".join(
            f"r{src}->r{dst} {int(nbytes)}B" for src, dst, nbytes in pairs
        ))
    from repro.traces.lint import lint_trace

    findings = lint_trace(trace)
    if findings:
        print(f"  lint ({len(findings)} finding(s)):")
        for warning in findings[:10]:
            print(f"    {warning}")
        if len(findings) > 10:
            print(f"    ... and {len(findings) - 10} more")
    else:
        print("  lint:                clean")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.diagnostics.cli import run_lint

    return run_lint(args)


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.apps import build_app
    from repro.netsim.simulator import MpiSimulator
    from repro.traces.timeline import ascii_timeline

    app = build_app(args.app, iterations=args.iterations)
    result = MpiSimulator().run(app.programs(), record_intervals=True)
    print(ascii_timeline(result, width=args.width, detailed=args.detailed))
    return 0


#: ``repro trace`` subcommands; a first token outside this set keeps
#: the historical ``repro trace APP`` spelling working (it becomes
#: ``repro trace record APP``).
_TRACE_SUBCOMMANDS = frozenset({"record", "pack", "info"})


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if (
        len(argv) >= 2
        and argv[0] == "trace"
        and argv[1] not in _TRACE_SUBCOMMANDS
        and argv[1] not in ("-h", "--help")
    ):
        argv.insert(1, "record")
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power-aware DVFS load balancing of MPI applications "
        "(IPDPS'09 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="regenerate a paper table/figure")
    p_run.add_argument("experiment")
    p_run.add_argument("--csv", help="also write rows as CSV")
    p_run.add_argument("--svg", help="also write a bar-chart/timeline SVG")
    p_run.add_argument("--iterations", type=int, default=None)
    p_run.add_argument("--beta", type=float, default=None)
    p_run.add_argument("--apps", help="comma-separated instance subset")
    p_run.add_argument("--platform", help="platform JSON file (see 'platform')")
    p_run.add_argument("--decimals", type=int, default=2)
    p_run.add_argument("--md", action="store_true", help="markdown table output")
    p_run.add_argument(
        "--engine", choices=("auto", "des", "compiled"), default=None,
        help="replay engine (default auto: compiled kernel with DES "
             "fallback; results are identical)",
    )
    p_run.add_argument(
        "--mmap", action="store_true",
        help="record traces through the memory-mapped columnar store "
             "(identical results; out-of-core columns for huge worlds)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_all = sub.add_parser(
        "reproduce-all", help="regenerate every table/figure into a directory"
    )
    p_all.add_argument("--out", default="results")
    p_all.add_argument("--iterations", type=int, default=None)
    p_all.add_argument("--beta", type=float, default=None)
    p_all.add_argument("--apps", help="comma-separated instance subset")
    p_all.add_argument("--platform", help="platform JSON file")
    p_all.add_argument(
        "--engine", choices=("auto", "des", "compiled"), default=None,
        help="replay engine (default auto; identical results, "
             "engine counters land in manifest.json)",
    )
    p_all.add_argument(
        "--experiments", help="comma-separated experiment-id subset"
    )
    p_all.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (<=0 means one per CPU; default 1)",
    )
    p_all.add_argument(
        "--cache-dir",
        help="persistent result cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p_all.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )
    p_all.set_defaults(fn=_cmd_reproduce_all)

    p_info = sub.add_parser(
        "info", help="validate a trace file and print its statistics"
    )
    p_info.add_argument("trace", help="JSON-lines trace file (.jsonl / .jsonl.gz)")
    p_info.set_defaults(fn=_cmd_info)

    p_plat = sub.add_parser(
        "platform", help="dump the reference platform as JSON (edit + pass "
        "back with --platform)"
    )
    p_plat.add_argument("-o", "--output", default="-")
    p_plat.set_defaults(fn=_cmd_platform)

    p_bal = sub.add_parser("balance", help="balance one application")
    p_bal.add_argument("app", help="e.g. BT-MZ-32")
    p_bal.add_argument("--gears", default="uniform:6")
    p_bal.add_argument("--algorithm", choices=("max", "avg"), default="max")
    p_bal.add_argument("--beta", type=float, default=0.5)
    p_bal.add_argument("--iterations", type=int, default=6)
    p_bal.add_argument(
        "--engine", choices=("auto", "des", "compiled"), default="auto",
        help="replay engine; 'auto' (default) and 'des' produce "
             "byte-identical --json output",
    )
    p_bal.add_argument(
        "--json",
        action="store_true",
        help="print the full report as JSON (the service wire format)",
    )
    p_bal.add_argument(
        "--cache-dir",
        help="use a persistent result cache (shared with serve/reproduce-all)",
    )
    p_bal.add_argument(
        "--save-assignment",
        help="write the per-rank frequency assignment as JSON",
    )
    p_bal.add_argument(
        "--power-cap", type=float, metavar="WATTS",
        help="cluster power budget in model watts; selects the power-cap "
        "balancer (critical-path-first greedy with water-filling "
        "fallback) instead of --algorithm",
    )
    p_bal.add_argument(
        "--mmap", action="store_true",
        help="trace through the memory-mapped columnar store "
             "(byte-identical --json output; out-of-core columns)",
    )
    p_bal.set_defaults(fn=_cmd_balance)

    p_srv = sub.add_parser(
        "serve", help="run the simulation service (HTTP/JSON, asyncio)"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8080)
    p_srv.add_argument(
        "--workers", type=int, default=2,
        help="simulation worker processes (default 2)",
    )
    p_srv.add_argument(
        "--queue-limit", type=int, default=16,
        help="admitted jobs beyond which requests get 429 (default 16)",
    )
    p_srv.add_argument(
        "--cache-dir",
        help="persistent result cache directory; with --replicas every "
        "replica shares it (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p_srv.add_argument("--iterations", type=int, default=6)
    p_srv.add_argument("--beta", type=float, default=0.5)
    p_srv.add_argument(
        "--replicas", type=int, default=0,
        help="run a supervised fleet: N replica processes on adjacent "
        "ports behind a consistent-hash router on --port (default 0 = "
        "single process, no router)",
    )
    p_srv.add_argument(
        "--replica-name",
        help="display name for logs and fleet health (set automatically "
        "by --replicas)",
    )
    p_srv.add_argument(
        "--drain-linger", type=float, default=0.0,
        help="seconds a draining replica keeps answering job polls "
        "after its last job finished (default 0; fleets default to 1)",
    )
    p_srv.set_defaults(fn=_cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain the persistent result cache"
    )
    p_cache.add_argument(
        "--cache-dir",
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cs = cache_sub.add_parser("stats", help="entry/byte totals by kind")
    p_cs.add_argument("--json", action="store_true")
    p_cs.set_defaults(fn=_cmd_cache)
    p_cg = cache_sub.add_parser("gc", help="drop blobs older than --max-age")
    p_cg.add_argument(
        "--max-age", type=float, default=30.0, metavar="DAYS",
        help="age threshold in days (default 30)",
    )
    p_cg.set_defaults(fn=_cmd_cache)
    cache_sub.add_parser("clear", help="remove every cache blob") \
        .set_defaults(fn=_cmd_cache)

    p_cmp = sub.add_parser(
        "compare", help="side-by-side DVFS strategies for one application"
    )
    p_cmp.add_argument("app")
    p_cmp.add_argument("--gears", default="uniform:6")
    p_cmp.add_argument("--iterations", type=int, default=6)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_tr = sub.add_parser(
        "trace", help="record / convert / inspect trace files"
    )
    trace_sub = p_tr.add_subparsers(dest="trace_command", required=True)
    p_trr = trace_sub.add_parser(
        "record", help="record a skeleton trace (JSON-lines or .rpcs)"
    )
    p_trr.add_argument("app")
    p_trr.add_argument("-o", "--output", default="trace.jsonl")
    p_trr.add_argument("--iterations", type=int, default=6)
    p_trr.add_argument(
        "--jobs", type=int, default=1,
        help="shard-parallel generation workers "
        "(output bytes are identical whatever the worker count)",
    )
    p_trr.set_defaults(fn=_cmd_trace)
    p_trp = trace_sub.add_parser(
        "pack", help="convert JSON-lines <-> binary columnar store"
    )
    p_trp.add_argument("input", help="trace file (direction is sniffed)")
    p_trp.add_argument("output")
    p_trp.set_defaults(fn=_cmd_trace_pack)
    p_tri = trace_sub.add_parser(
        "info", help="layout/size report of a binary trace store"
    )
    p_tri.add_argument("store", help=".rpcs store file")
    p_tri.add_argument("--json", action="store_true")
    p_tri.set_defaults(fn=_cmd_trace_info)

    p_lint = sub.add_parser(
        "lint",
        help="static analysis: traces, gear sets, platform, models, results",
    )
    from repro.diagnostics.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(fn=_cmd_lint)

    p_tl = sub.add_parser("timeline", help="ASCII timeline of one run")
    p_tl.add_argument("app")
    p_tl.add_argument("--iterations", type=int, default=4)
    p_tl.add_argument("--width", type=int, default=100)
    p_tl.add_argument("--detailed", action="store_true")
    p_tl.set_defaults(fn=_cmd_timeline)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
