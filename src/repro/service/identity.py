"""Content-addressed request identity, shared by replica and router.

One validated request spec maps to exactly one ``(cache kind, payload)``
pair, and through :func:`repro.experiments.cache.cache_key` to one
SHA-256 digest.  That digest is simultaneously

* the result-cache blob name on disk,
* the single-flight coalescing key inside one replica, and
* the consistent-hash ring key the front router places the request
  with (:mod:`repro.service.router`) — which is what makes coalescing
  and the warm cache *fleet-wide*: every identical body lands on the
  same replica, so the fleet computes it once.

Balance requests reuse the Runner's ``"report"`` keying verbatim, so
the service, the CLI and campaign workers all dedupe through the same
blobs.
"""

from __future__ import annotations

from typing import Any

__all__ = ["cache_identity", "request_digest"]


def cache_identity(kind: str, spec: dict[str, Any]) -> tuple[str, Any]:
    """(cache kind, payload) addressing this request's result.

    ``spec`` is a fully validated worker spec (defaults applied), as
    produced by :func:`repro.service.routes.parse_balance_request` /
    ``parse_experiment_request``.
    """
    from repro.experiments.cache import (
        describe_gear_set,
        describe_power_model,
        platform_payload,
    )
    from repro.netsim.platform import MYRINET_LIKE
    from repro.service.workers import resolve_algorithm, resolve_gear_set

    platform = spec.get("platform") or platform_payload(MYRINET_LIKE)
    cap = spec.get("power_cap")

    def _algorithm_name(name: str) -> str:
        # a budget overrides the requested algorithm (the worker
        # prices through PowerCapAlgorithm), so the identity must
        # carry the effective name — mirroring Runner._report_payload
        if cap is not None:
            from repro.core.powercap import PowerCapAlgorithm

            return PowerCapAlgorithm(cap).name
        return resolve_algorithm(name).name

    if kind == "balance":
        payload = {
            "app": spec["app"],
            "iterations": spec["iterations"],
            "base_compute": spec["base_compute"],
            "platform": platform,
            "gear_set": describe_gear_set(resolve_gear_set(spec["gears"])),
            "algorithm": _algorithm_name(spec["algorithm"]),
            "beta": spec["beta"],
            "power_model": describe_power_model(None),
        }
        if cap is not None:
            # additive: capless payloads keep their pre-cap digests
            payload["power_cap"] = float(cap)
        return "report", payload
    if kind == "balance_batch":
        # batch-level fast path: the assembled response, addressed
        # by the ordered candidate list (per-candidate reports are
        # separately stored under the Runner's "report" keying by
        # the worker, so scalar requests still hit them)
        payload = {
            "app": spec["app"],
            "iterations": spec["iterations"],
            "base_compute": spec["base_compute"],
            "platform": platform,
            "beta": spec["beta"],
            "power_model": describe_power_model(None),
            "candidates": [
                {
                    "gear_set": describe_gear_set(
                        resolve_gear_set(c["gears"])
                    ),
                    "algorithm": _algorithm_name(c["algorithm"]),
                }
                for c in spec["candidates"]
            ],
        }
        if cap is not None:
            payload["power_cap"] = float(cap)
        return "balance-batch", payload
    payload = {
        "eid": spec["eid"],
        "iterations": spec["iterations"],
        "base_compute": spec["base_compute"],
        "beta": spec["beta"],
        "apps": list(spec["apps"]) if spec.get("apps") else None,
        "platform": platform,
    }
    return "service-exp", payload


def request_digest(kind: str, spec: dict[str, Any]) -> str:
    """The content-addressed cache key for a validated request spec."""
    from repro.experiments.cache import cache_key

    cache_kind, payload = cache_identity(kind, spec)
    return cache_key(cache_kind, payload)
