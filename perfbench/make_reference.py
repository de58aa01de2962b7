"""Regenerate reference.json: digests of every report ``balance`` checks.

The oracle is the discrete-event simulator (``engine="des"``), not the
compiled engine the workloads run on, so a compiled-engine fault cannot
hide in its own reference.  Run from the checkout root:

    python3 perfbench/make_reference.py

Takes a few minutes (every world is replayed event by event).
"""

from __future__ import annotations

import json

import common
import wl_balance


def main() -> None:
    common.use_source_tree()
    from repro.apps.registry import TABLE3_INSTANCES
    from repro.service.workers import execute_balance

    balance = {}
    for cell in wl_balance.cells(TABLE3_INSTANCES):
        report, _runner = execute_balance(wl_balance.spec(cell, engine="des"))
        balance[cell] = common.digest(common.render_report(report))

    common.REFERENCE.write_text(
        json.dumps({"balance": balance}, indent=2, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
