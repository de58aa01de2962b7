"""Persistent, content-addressed result cache for experiment sweeps.

The in-memory caches of :class:`repro.experiments.runner.Runner` die
with the interpreter; every ``reproduce-all`` re-simulates traces and
replays from scratch.  This module keeps those artifacts on disk,
keyed by a stable SHA-256 digest of everything that can influence the
result:

* **traces** — (app, iterations, base_compute, platform);
* **balance reports** — the trace key plus (gear set, algorithm, β,
  power model).

Keys are digests of canonical JSON, so two configs hash equal exactly
when every physical parameter matches — gear *frequencies*, not just
the set's display name, and the full platform dict, not just its
label.  Blobs are framed pickles (magic + SHA-256 of the pickle body)
written atomically (temp file + rename), so a concurrent ``--jobs N``
campaign never observes a half-written entry; on read the body digest
is re-verified, and a blob that fails framing, digest or unpickling is
counted as a *corrupt* miss (``stats()["corrupt"]``, a subset of
``misses``) and rewritten on the next store — so silent bit-rot in a
long-lived cache directory is visible, not just slow.

Bump :data:`CACHE_VERSION` whenever a model change makes old blobs
meaningless — the version is salted into every key, so stale entries
are simply never hit again.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.core.gears import ContinuousGearSet, DiscreteGearSet, GearSet
from repro.core.power import CpuPowerModel
from repro.netsim.config import platform_to_dict
from repro.netsim.platform import PlatformConfig

__all__ = [
    "CACHE_VERSION",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
    "describe_gear_set",
    "describe_power_model",
    "frame_blob",
    "process_cache_stats",
    "reset_process_cache_stats",
    "unframe_blob",
]

#: Salted into every key; bump on any change that invalidates old blobs.
#: v2: digest-framed blob format (magic + SHA-256 of the pickle body).
#: v3: ``"trace"`` blobs hold a ``ColumnarTrace`` instead of a ``Trace``.
CACHE_VERSION = 3

#: Every blob starts with this magic; the version byte tracks the
#: framing format, not :data:`CACHE_VERSION` (which salts the *keys*).
_BLOB_MAGIC = b"RPRC\x02"
_DIGEST_BYTES = 32

#: Process-wide hit/miss counters, aggregated across every
#: :class:`ResultCache` instance (each experiment builds its own
#: ``Runner``, hence its own cache handle — the campaign driver reads
#: these to report per-experiment stats without threading the handle
#: through every ``run()`` signature).  ``corrupt`` counts the subset
#: of ``misses`` caused by blobs that failed digest verification.
_PROCESS_STATS = {"hits": 0, "misses": 0, "corrupt": 0, "stores": 0}

#: :meth:`ResultCache.gc` leaves temp files younger than this alone:
#: they belong to a ``put`` that may still be writing and is about to
#: rename them into place.  Older ones are leftovers of dead writers.
_TMP_GRACE_SECONDS = 3600.0


def process_cache_stats() -> dict[str, int]:
    """Snapshot of the process-wide hit/miss/store counters."""
    return dict(_PROCESS_STATS)


def reset_process_cache_stats() -> None:
    for key in _PROCESS_STATS:
        _PROCESS_STATS[key] = 0


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


# ----------------------------------------------------------------------
# canonical descriptions of the key ingredients


def describe_gear_set(gear_set: GearSet) -> dict[str, Any]:
    """A JSON-able description that pins the set's physical content."""
    if isinstance(gear_set, DiscreteGearSet):
        return {
            "kind": "discrete",
            "name": gear_set.name,
            "gears": [[g.frequency, g.voltage] for g in gear_set.gears],
        }
    if isinstance(gear_set, ContinuousGearSet):
        law = gear_set.law
        return {
            "kind": "continuous",
            "name": gear_set.name,
            "fmin": gear_set.fmin,
            "fmax": gear_set.fmax,
            "law": [law.f0, law.v0, law.f1, law.v1],
        }
    # Unknown subclass: fall back to its envelope + name.  Custom sets
    # with identical envelopes but different selection rules should set
    # distinct names (they already must, for reporting).
    return {
        "kind": type(gear_set).__name__,
        "name": gear_set.name,
        "fmin": gear_set.fmin,
        "fmax": gear_set.fmax,
    }


def describe_power_model(model: CpuPowerModel | None) -> dict[str, Any]:
    if model is None:
        return {"kind": "default"}
    law = model.law
    return {
        "kind": "cpu",
        "activity_ratio": model.activity_ratio,
        "static_fraction": model.static_fraction,
        "nominal_fmax": model.nominal_fmax,
        "law": [law.f0, law.v0, law.f1, law.v1],
    }


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def cache_key(kind: str, payload: Any) -> str:
    """The content-addressed key for (kind, payload).

    A module-level function (not a method) because the key is a pure
    function of the request: the service front-router computes keys
    for ring placement without owning any cache directory.
    """
    material = _canonical(
        {"v": CACHE_VERSION, "kind": kind, "payload": payload}
    )
    return f"{kind}-{hashlib.sha256(material.encode()).hexdigest()}"


def frame_blob(body: bytes) -> bytes:
    """Wrap a pickle body in the RPRC frame (magic + body digest)."""
    return _BLOB_MAGIC + hashlib.sha256(body).digest() + body


def unframe_blob(raw: bytes) -> bytes | None:
    """The verified pickle body of a framed blob; ``None`` if torn.

    Every read re-verifies magic and body digest before anything is
    unpickled, so a truncated or bit-rotten blob is a miss, never a
    wrong result.
    """
    header = len(_BLOB_MAGIC) + _DIGEST_BYTES
    if len(raw) < header or raw[: len(_BLOB_MAGIC)] != _BLOB_MAGIC:
        return None
    digest = raw[len(_BLOB_MAGIC):header]
    body = raw[header:]
    if hashlib.sha256(body).digest() != digest:
        return None
    return body


class ResultCache:
    """Content-addressed pickle store under one directory.

    ``get``/``put`` take a *kind* (``"trace"`` / ``"report"``) and a
    JSON-able payload describing every input; the payload is hashed
    into the blob's filename, so lookups are a single ``open``.
    """

    def __init__(self, cache_dir: str | os.PathLike):
        self.cache_dir = Path(cache_dir).expanduser()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def key(self, kind: str, payload: Any) -> str:
        return cache_key(kind, payload)

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"

    def _decode(self, raw: bytes) -> Any | None:
        """Unframe + digest-check + unpickle; ``None`` means corrupt."""
        body = unframe_blob(raw)
        if body is None:
            return None
        try:
            return pickle.loads(body)
        except Exception:
            return None

    def get(self, kind: str, payload: Any) -> Any | None:
        """The cached object, or ``None`` on a cold or corrupt miss.

        Every blob's body digest is re-verified on read; a blob that
        fails framing, digest or unpickling counts in both ``misses``
        and ``corrupt`` (cold misses = ``misses - corrupt``) and is
        unlinked, so each corrupt blob is counted once, not once per
        reader.  Should a concurrent ``put`` have just replaced it with
        a good blob, that one goes too: a recompute, never a wrong
        answer.
        """
        path = self._path(self.key(kind, payload))
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raw = None
        except OSError:
            raw = b""  # unreadable existing blob: corrupt, not cold
        if raw is None:
            self.misses += 1
            _PROCESS_STATS["misses"] += 1
            return None
        value = self._decode(raw)
        if value is None:
            with contextlib.suppress(OSError):
                path.unlink()
            self.misses += 1
            self.corrupt += 1
            _PROCESS_STATS["misses"] += 1
            _PROCESS_STATS["corrupt"] += 1
            return None
        self.hits += 1
        _PROCESS_STATS["hits"] += 1
        return value

    def put(self, kind: str, payload: Any, value: Any) -> Path:
        """Atomically persist ``value``; concurrent writers are safe.

        Temp-file + ``os.replace`` on the same filesystem: a concurrent
        reader (another replica of a fleet sharing the directory, say)
        sees either no file or the complete frame, never a torn blob.
        """
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._path(self.key(kind, payload))
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(frame_blob(body))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.stores += 1
        _PROCESS_STATS["stores"] += 1
        return path

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
        }

    def entry_count(self) -> int:
        try:
            return sum(1 for _ in self.cache_dir.glob("*.pkl"))
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # disk maintenance (``repro cache`` CLI)
    def disk_stats(self) -> dict[str, Any]:
        """What is on disk: entry/byte totals and a per-kind breakdown."""
        entries = 0
        total_bytes = 0
        kinds: dict[str, int] = {}
        oldest: float | None = None
        for path in self._blobs():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries += 1
            total_bytes += stat.st_size
            kind = path.stem.rsplit("-", 1)[0]
            kinds[kind] = kinds.get(kind, 0) + 1
            if oldest is None or stat.st_mtime < oldest:
                oldest = stat.st_mtime
        return {
            "cache_dir": str(self.cache_dir),
            "entries": entries,
            "total_bytes": total_bytes,
            "kinds": dict(sorted(kinds.items())),
            "oldest_mtime": oldest,
        }

    def gc(self, max_age_days: float) -> dict[str, int]:
        """Drop blobs not touched for ``max_age_days`` and temp files
        older than :data:`_TMP_GRACE_SECONDS` (younger ones may belong
        to a live ``put``).  Returns ``{"removed": n, "freed_bytes": n}``.

        Safe against concurrent writers — in a replica fleet several
        processes share (or maintain) a directory, so any file may
        vanish between the directory walk, the ``stat`` and the
        ``unlink``.  A blob that disappears mid-walk is simply not
        counted; it is never an error and never double-counted.
        """
        cutoff = time.time() - max_age_days * 86400.0
        removed = 0
        freed = 0
        for path in self._blobs():
            try:
                stat = path.stat()
                if stat.st_mtime >= cutoff:
                    continue
                path.unlink()
            except FileNotFoundError:
                continue  # raced another gc/clear: already gone
            except OSError:
                continue
            removed += 1
            freed += stat.st_size
        for tmp, stat in self._stale_tmp_files():
            try:
                tmp.unlink()
            except OSError:
                continue  # a writer renamed/cleaned it first
            removed += 1
            freed += stat.st_size
        return {"removed": removed, "freed_bytes": freed}

    def clear(self) -> int:
        """Remove every blob and every temp file older than
        :data:`_TMP_GRACE_SECONDS`; returns how many.

        Younger temp files are spared, as in :meth:`gc`: they may belong
        to a live ``put`` whose rename would otherwise fail.  Tolerant of
        files vanishing mid-walk: two replicas clearing the same
        directory both succeed, and the counts only reflect files this
        call actually removed.
        """
        removed = 0
        stale = [tmp for tmp, _ in self._stale_tmp_files()]
        for path in list(self._blobs()) + stale:
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def _blobs(self):
        try:
            yield from self.cache_dir.glob("*.pkl")
        except OSError:
            return

    def _stale_tmp_files(self):
        """``(path, stat)`` of temp files older than the grace period."""
        cutoff = time.time() - _TMP_GRACE_SECONDS
        try:
            tmps = list(self.cache_dir.glob("*.tmp"))
        except OSError:
            return
        for tmp in tmps:
            try:
                stat = tmp.stat()
            except OSError:
                continue  # a writer renamed/cleaned it first
            if stat.st_mtime < cutoff:
                yield tmp, stat


def platform_payload(platform: PlatformConfig) -> dict[str, Any]:
    """The platform as a stable JSON-able dict (collectives included)."""
    return platform_to_dict(platform)
