"""Helpers shared by run.py and the workload processes.

Stdlib only: run.py imports this module before it knows whether the
checkout holds the program at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources; workloads import ``repro`` from here.
SRC = ROOT / "src"
#: Scratch space for fleet caches and span dumps (git-ignored).
WORK = ROOT / ".perfbench"
#: Digests of the oracle (DES engine) outputs, see make_reference.py.
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: First stdout line a workload process prints once its imports are done;
#: run.py stops its set-up clock when it reads this line.
READY = "perfbench-ready"


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for processes that import ``repro`` from ``src/``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def signal_ready() -> None:
    print(READY, flush=True)


def emit(payload: dict) -> None:
    """A workload's result: the last line of its stdout."""
    print(json.dumps(payload, sort_keys=True), flush=True)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]; 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """This process's high-water RSS in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def render_report(report) -> str:
    """A report exactly as ``repro balance --json`` prints it."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
