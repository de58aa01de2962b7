"""Reproduce-all campaign: regenerate every artifact into a directory.

``repro reproduce-all --out results/`` is the repository's "make all
figures" entry point: it runs every experiment, writes per-experiment
ASCII/CSV (+SVG bar charts, and the Fig. 1 timelines), and emits a
``manifest.json`` plus a combined ``REPORT.md`` with every table as
markdown — the complete evidence bundle for the reproduction.

The campaign is a parallel engine: experiments fan out over a
``ProcessPoolExecutor`` (``--jobs N``), share a persistent result
cache (``--cache-dir``; see :mod:`repro.experiments.cache`), and are
individually failure-isolated — one crashing experiment becomes an
``error`` entry in ``manifest.json`` instead of killing the run.
Artifacts are written by the parent in submission order, so the
manifest and report are byte-identical across job counts (timings
aside).
"""

from __future__ import annotations

import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

from repro.experiments import EXPERIMENT_IDS
from repro.experiments.report import format_markdown
from repro.experiments.runner import ExperimentResult, RunnerConfig, get_experiment

__all__ = ["reproduce_all", "run_one_experiment"]

#: Experiments whose first-column/value-columns make a sensible bar chart.
_SVG_VALUE_LIMIT = 6


def _write_svgs(result: ExperimentResult, outdir: Path) -> list[str]:
    written: list[str] = []
    if result.eid == "fig1":
        for key in ("svg_original", "svg_after"):
            path = outdir / f"{result.eid}_{key.split('_')[1]}.svg"
            path.write_text(result.series[key], encoding="utf-8")
            written.append(path.name)
        return written
    numeric = [
        c
        for c in result.columns[1:]
        if result.rows and isinstance(result.rows[0].get(c), (int, float))
    ][:_SVG_VALUE_LIMIT]
    if numeric:
        path = outdir / f"{result.eid}.svg"
        path.write_text(
            result.to_svg(result.columns[0], numeric), encoding="utf-8"
        )
        written.append(path.name)
    return written


def run_one_experiment(eid: str, config: RunnerConfig) -> dict[str, Any]:
    """Execute one experiment, isolating failures into the payload.

    Runs in a worker process under ``--jobs N`` (must stay a top-level
    function so it pickles) and inline for the serial path.  Returns
    either ``{"ok": True, "result": ..., ...}`` or ``{"ok": False,
    "error": <traceback>, ...}`` plus timing and cache statistics.
    """
    from repro.experiments.cache import process_cache_stats
    from repro.netsim.enginestats import process_engine_stats

    before = process_cache_stats()
    engines_before = process_engine_stats()
    start = time.perf_counter()
    try:
        result = get_experiment(eid)(config)
        payload: dict[str, Any] = {"eid": eid, "ok": True, "result": result}
    except Exception:
        payload = {"eid": eid, "ok": False, "error": traceback.format_exc()}
    after = process_cache_stats()
    engines_after = process_engine_stats()
    payload["seconds"] = time.perf_counter() - start
    payload["cache"] = {
        k: after[k] - before[k]
        for k in ("hits", "misses", "corrupt")
    }
    payload["engines"] = {
        k: round(engines_after[k] - engines_before[k], 6)
        for k in engines_after
    }
    return payload


def _collect(ids, config, jobs):
    """Yield one result payload per experiment id, in id order."""
    if jobs <= 1:
        for eid in ids:
            yield run_one_experiment(eid, config)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
        futures = {eid: pool.submit(run_one_experiment, eid, config)
                   for eid in ids}
        for eid in ids:
            try:
                yield futures[eid].result()
            except Exception:
                # pool-level failure (e.g. a worker died): isolate it
                # exactly like an in-experiment crash
                from repro.netsim.enginestats import ENGINE_STAT_KEYS

                yield {
                    "eid": eid,
                    "ok": False,
                    "error": traceback.format_exc(),
                    "seconds": 0.0,
                    "cache": {"hits": 0, "misses": 0, "corrupt": 0},
                    "engines": dict.fromkeys(ENGINE_STAT_KEYS, 0),
                }


def reproduce_all(
    outdir: str | os.PathLike,
    config: RunnerConfig | None = None,
    experiments: tuple[str, ...] | None = None,
    echo: Any = print,
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
) -> dict[str, Any]:
    """Run every experiment, write all artifacts, return the manifest.

    ``jobs`` > 1 fans the experiments out over worker processes;
    ``jobs`` <= 0 means one per CPU.  ``cache_dir`` (or a config with
    ``cache_dir`` set) enables the persistent result cache shared by
    all workers.  Output files and the manifest are deterministic:
    experiments are always emitted in the order requested, whatever
    finishes first.
    """
    import dataclasses

    config = config or RunnerConfig()
    if cache_dir is not None:
        config = dataclasses.replace(config, cache_dir=os.fspath(cache_dir))
    if config.cache_dir:
        cache_path = Path(config.cache_dir).expanduser()
        if cache_path.exists() and not cache_path.is_dir():
            raise ValueError(
                f"cache dir {config.cache_dir!r} exists and is not a directory"
            )
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    ids = experiments or EXPERIMENT_IDS
    unknown = [eid for eid in ids if eid not in EXPERIMENT_IDS]
    if unknown:
        raise ValueError(
            f"unknown experiment {unknown[0]!r}; known: {EXPERIMENT_IDS}"
        )

    manifest: dict[str, Any] = {
        "config": {
            "iterations": config.iterations,
            "base_compute": config.base_compute,
            "beta": config.beta,
            "apps": list(config.apps) if config.apps else None,
            "platform": config.platform.name,
            "cache_dir": config.cache_dir,
        },
        "jobs": jobs,
        "experiments": {},
    }
    report_md: list[str] = [
        "# Reproduction report",
        "",
        "Regenerated tables and figures for *Power-Aware Load Balancing "
        "Of Large Scale MPI Applications* (IPDPS'09).",
        "",
    ]

    from repro.netsim.enginestats import ENGINE_STAT_KEYS, engine_rates

    wall_start = time.perf_counter()
    cache_totals = {"hits": 0, "misses": 0, "corrupt": 0}
    engine_totals: dict[str, float] = dict.fromkeys(ENGINE_STAT_KEYS, 0)
    errors = 0
    for payload in _collect(ids, config, jobs):
        eid = payload["eid"]
        elapsed = payload["seconds"]
        for key in cache_totals:
            cache_totals[key] += payload["cache"].get(key, 0)
        for key in engine_totals:
            engine_totals[key] += payload.get("engines", {}).get(key, 0)

        if not payload["ok"]:
            errors += 1
            manifest["experiments"][eid] = {
                "error": payload["error"].strip().splitlines()[-1],
                "traceback": payload["error"],
                "seconds": round(elapsed, 3),
            }
            report_md += [
                f"## {eid} — FAILED",
                "",
                "```",
                payload["error"].rstrip(),
                "```",
                "",
            ]
            echo(f"[{eid}] FAILED in {elapsed:.1f}s (see manifest.json)")
            continue

        result: ExperimentResult = payload["result"]
        txt_path = out / f"{eid}.txt"
        txt_path.write_text(result.to_ascii() + "\n", encoding="utf-8")
        csv_path = out / f"{eid}.csv"
        result.to_csv(csv_path)
        svgs = _write_svgs(result, out)

        manifest["experiments"][eid] = {
            "title": result.title,
            "rows": len(result.rows),
            "seconds": round(elapsed, 3),
            "files": [txt_path.name, csv_path.name, *svgs],
            "notes": result.notes,
            "cache": payload["cache"],
            "engines": payload["engines"],
        }
        if "power" in result.series:
            # budget-sweep aggregate (cap_sweep): the per-app
            # performance-vs-budget curves ride along in the manifest
            manifest["experiments"][eid]["power"] = result.series["power"]
        report_md += [
            f"## {eid} — {result.title}",
            "",
            format_markdown(result.columns, result.rows),
            "",
        ]
        if result.notes:
            report_md += [f"> {note}" for note in result.notes] + [""]
        echo(f"[{eid}] {len(result.rows)} rows in {elapsed:.1f}s")

    manifest["wall_seconds"] = round(time.perf_counter() - wall_start, 3)
    manifest["errors"] = errors
    manifest["cache"] = {
        "enabled": bool(config.cache_dir),
        "dir": config.cache_dir,
        **cache_totals,
    }
    manifest["engines"] = {
        "engine": config.engine,
        **{k: round(v, 6) for k, v in engine_totals.items()},
        **{k: round(v, 3) for k, v in engine_rates(engine_totals).items()},
    }

    (out / "REPORT.md").write_text("\n".join(report_md), encoding="utf-8")
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    echo(
        f"wrote {out}/REPORT.md and manifest.json ({len(ids)} experiments, "
        f"{errors} failed, jobs={jobs}, cache {cache_totals['hits']} hit / "
        f"{cache_totals['misses']} miss, {manifest['wall_seconds']:.1f}s)"
    )
    return manifest
