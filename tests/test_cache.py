"""Unit tests for the persistent result cache and the parallel campaign.

Covers the invalidation contract (same config hits, any physical
change misses), corruption tolerance, and the determinism of
``reproduce_all`` across job counts.
"""

import copy
import dataclasses
import json

import pytest

from repro.core.gears import uniform_gear_set
from repro.experiments.cache import (
    _TMP_GRACE_SECONDS,
    ResultCache,
    describe_gear_set,
)
from repro.experiments.campaign import reproduce_all
from repro.experiments.runner import Runner, RunnerConfig

FAST = dict(iterations=2)


def make_runner(cache_dir, **overrides):
    return Runner(RunnerConfig(**{**FAST, **overrides}, cache_dir=str(cache_dir)))


class TestCacheHits:
    def test_same_config_hits_with_identical_rows(self, tmp_path):
        r1 = make_runner(tmp_path).balance("CG-16", uniform_gear_set(6))
        runner = make_runner(tmp_path)  # fresh process-equivalent
        r2 = runner.balance("CG-16", uniform_gear_set(6))
        assert runner.cache.hits == 1 and runner.cache.misses == 0
        assert r1 is not r2
        assert r1.row() == r2.row()

    def test_trace_shared_across_runners(self, tmp_path):
        make_runner(tmp_path).trace("IS-16")
        runner = make_runner(tmp_path)
        runner.trace("IS-16")
        assert runner.cache.stats() == {
            "hits": 1, "misses": 0, "corrupt": 0, "stores": 0,
        }

    def test_changed_beta_misses(self, tmp_path):
        make_runner(tmp_path).balance("CG-16", uniform_gear_set(6), beta=0.5)
        runner = make_runner(tmp_path)
        runner.balance("CG-16", uniform_gear_set(6), beta=0.9)
        # the trace (β-independent) hits; the report misses
        assert runner.cache.hits == 1
        assert runner.cache.misses == 1

    def test_changed_gear_set_misses(self, tmp_path):
        make_runner(tmp_path).balance("CG-16", uniform_gear_set(6))
        runner = make_runner(tmp_path)
        runner.balance("CG-16", uniform_gear_set(8))
        assert runner.cache.hits == 1  # trace
        assert runner.cache.misses == 1  # report

    def test_changed_platform_misses_everything(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.balance("CG-16", uniform_gear_set(6))
        slow = dataclasses.replace(runner.config.platform, latency=5e-4)
        other = make_runner(tmp_path, platform=slow)
        other.balance("CG-16", uniform_gear_set(6))
        assert other.cache.hits == 0
        assert other.cache.misses == 2  # trace and report

    def test_changed_iterations_misses_everything(self, tmp_path):
        make_runner(tmp_path).balance("CG-16", uniform_gear_set(6))
        other = make_runner(tmp_path, iterations=3)
        other.balance("CG-16", uniform_gear_set(6))
        assert other.cache.hits == 0
        assert other.cache.misses == 2

    def test_gear_set_description_pins_frequencies(self):
        d6 = describe_gear_set(uniform_gear_set(6))
        d8 = describe_gear_set(uniform_gear_set(8))
        assert d6 != d8
        assert d6 == describe_gear_set(uniform_gear_set(6))


class TestCorruption:
    def test_corrupted_blob_is_ignored_and_rewritten(self, tmp_path):
        baseline = make_runner(tmp_path).balance("CG-16", uniform_gear_set(6))
        blobs = list(tmp_path.glob("*.pkl"))
        assert blobs
        for blob in blobs:
            blob.write_bytes(b"\x00garbage, not a pickle")

        runner = make_runner(tmp_path)
        recomputed = runner.balance("CG-16", uniform_gear_set(6))
        assert runner.cache.hits == 0
        assert runner.cache.misses == 2
        # both misses were corruption, not cold cache
        assert runner.cache.corrupt == 2
        assert recomputed.row() == baseline.row()

        # the recompute rewrote good blobs: a third runner hits again
        third = make_runner(tmp_path)
        assert third.balance("CG-16", uniform_gear_set(6)).row() == baseline.row()
        assert third.cache.hits == 1
        assert third.cache.corrupt == 0

    def test_cold_miss_is_not_counted_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("report", {"k": 1}) is None
        assert cache.stats() == {
            "hits": 0, "misses": 1, "corrupt": 0, "stores": 0,
        }

    def test_flipped_bit_in_body_fails_digest_check(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("report", {"k": 1}, {"v": 2})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one bit inside the pickle body
        path.write_bytes(bytes(raw))
        assert cache.get("report", {"k": 1}) is None
        assert cache.corrupt == 1

    def test_truncated_blob_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("report", {"k": 1}, {"v": 2})
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get("report", {"k": 1}) is None
        assert cache.corrupt == 1

    def test_corrupt_blob_is_counted_once(self, tmp_path):
        """The first reader drops a corrupt blob; later readers (other
        replicas or workers sharing the directory) see a cold miss."""
        first = ResultCache(tmp_path)
        path = first.put("report", {"k": 1}, {"v": 2})
        path.write_bytes(path.read_bytes()[:-1])
        assert first.get("report", {"k": 1}) is None
        assert first.corrupt == 1 and not path.exists()
        second = ResultCache(tmp_path)
        assert second.get("report", {"k": 1}) is None
        assert (second.misses, second.corrupt) == (1, 0)

    def test_missing_dir_is_created_lazily(self, tmp_path):
        cache = ResultCache(tmp_path / "does" / "not" / "exist")
        assert cache.get("report", {"k": 1}) is None
        cache.put("report", {"k": 1}, {"v": 2})
        assert cache.get("report", {"k": 1}) == {"v": 2}


class TestDiskMaintenance:
    def test_disk_stats_counts_by_kind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("trace", {"a": 1}, [1, 2, 3])
        cache.put("report", {"a": 1}, {"x": 1})
        cache.put("report", {"a": 2}, {"x": 2})
        stats = cache.disk_stats()
        assert stats["entries"] == 3
        assert stats["kinds"] == {"report": 2, "trace": 1}
        assert stats["total_bytes"] > 0
        assert stats["oldest_mtime"] is not None

    def test_gc_drops_only_old_blobs(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        old = cache.put("report", {"a": 1}, {"x": 1})
        new = cache.put("report", {"a": 2}, {"x": 2})
        stale = time.time() - 10 * 86400
        os.utime(old, (stale, stale))
        out = cache.gc(max_age_days=5)
        assert out["removed"] == 1 and out["freed_bytes"] > 0
        assert not old.exists() and new.exists()

    def test_gc_sweeps_stray_tmp_files(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        cache.put("report", {"a": 1}, {"x": 1})
        leftover = tmp_path / "leftover.tmp"
        leftover.write_bytes(b"half-written")
        stale = time.time() - 2 * _TMP_GRACE_SECONDS
        os.utime(leftover, (stale, stale))
        out = cache.gc(max_age_days=365)
        assert out["removed"] == 1
        assert cache.entry_count() == 1

    def test_gc_spares_temp_files_of_live_writers(self, tmp_path):
        """A fresh temp file belongs to a ``put`` that has not renamed
        it into place yet; sweeping it would make that rename fail."""
        import os
        import tempfile
        import time

        cache = ResultCache(tmp_path)
        fd, live = tempfile.mkstemp(dir=tmp_path, suffix=".tmp")
        os.close(fd)
        assert cache.gc(max_age_days=0) == {"removed": 0, "freed_bytes": 0}
        os.replace(live, tmp_path / "landed.pkl")  # the writer finishes

        fd, dead = tempfile.mkstemp(dir=tmp_path, suffix=".tmp")
        os.close(fd)
        stale = time.time() - _TMP_GRACE_SECONDS - 60
        os.utime(dead, (stale, stale))
        cache.gc(max_age_days=365)
        assert not os.path.exists(dead)

    def test_clear_spares_temp_files_of_live_writers(self, tmp_path):
        """``repro cache clear`` on a live fleet's root must not break a
        ``put`` between its temp-file write and its rename."""
        import os
        import tempfile
        import time

        cache = ResultCache(tmp_path)
        fd, live = tempfile.mkstemp(dir=tmp_path, suffix=".tmp")
        os.close(fd)
        assert cache.clear() == 0
        os.replace(live, tmp_path / "landed.pkl")  # the writer finishes

        fd, dead = tempfile.mkstemp(dir=tmp_path, suffix=".tmp")
        os.close(fd)
        stale = time.time() - _TMP_GRACE_SECONDS - 60
        os.utime(dead, (stale, stale))
        assert cache.clear() == 2  # the landed blob and the stale temp
        assert not os.path.exists(dead)

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("trace", {"a": 1}, [1])
        cache.put("report", {"a": 1}, {"x": 1})
        assert cache.clear() == 2
        assert cache.entry_count() == 0
        assert cache.disk_stats()["entries"] == 0


class TestConcurrentMaintenance:
    """gc/clear/disk_stats vs files vanishing mid-walk.

    In a replica fleet several processes share (or maintain) a cache
    directory; any path yielded by the directory walk may be unlinked
    by a sibling before this process stats or removes it.  The vanish
    is simulated deterministically by feeding the walk a stale listing.
    """

    def _stale_walk(self, cache, monkeypatch, delete_index=0):
        """Freeze the blob listing, then delete one listed file."""
        paths = list(cache._blobs())
        paths[delete_index].unlink()
        monkeypatch.setattr(cache, "_blobs", lambda: iter(paths))
        return paths[delete_index]

    def test_gc_tolerates_blob_vanishing_mid_walk(self, tmp_path, monkeypatch):
        import os
        import time

        cache = ResultCache(tmp_path)
        first = cache.put("report", {"a": 1}, {"x": 1})
        second = cache.put("report", {"a": 2}, {"x": 2})
        stale = time.time() - 10 * 86400
        os.utime(first, (stale, stale))
        os.utime(second, (stale, stale))
        gone = self._stale_walk(cache, monkeypatch)
        out = cache.gc(max_age_days=5)
        # the raced file is not counted; the surviving one is collected
        assert out["removed"] == 1
        assert not gone.exists()
        assert cache.entry_count() == 0

    def test_clear_tolerates_blob_vanishing_mid_walk(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cache.put("report", {"a": 1}, {"x": 1})
        cache.put("report", {"a": 2}, {"x": 2})
        self._stale_walk(cache, monkeypatch, delete_index=1)
        assert cache.clear() == 1
        assert cache.entry_count() == 0

    def test_disk_stats_tolerates_blob_vanishing_mid_walk(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cache.put("report", {"a": 1}, {"x": 1})
        cache.put("report", {"a": 2}, {"x": 2})
        self._stale_walk(cache, monkeypatch)
        stats = cache.disk_stats()
        assert stats["entries"] == 1
        assert stats["kinds"] == {"report": 1}

    def test_maintenance_on_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.gc(max_age_days=0) == {"removed": 0, "freed_bytes": 0}
        assert cache.clear() == 0
        assert cache.entry_count() == 0

    def test_puts_survive_concurrent_gc(self, tmp_path):
        """Fleet replicas writing one directory while ``repro cache gc``
        sweeps it: no ``put`` loses its temp file, no read is wrong."""
        import sys
        import threading

        cache = ResultCache(tmp_path)
        stop = threading.Event()
        errors = []

        def writer():
            writer_cache = ResultCache(tmp_path)
            for i in range(150):
                try:
                    writer_cache.put("report", {"i": i % 10}, {"x": i % 10})
                    got = writer_cache.get("report", {"i": i % 10})
                    assert got in (None, {"x": i % 10}), got
                except Exception as exc:  # collected for the main thread
                    errors.append(exc)

        def sweeper():
            while not stop.is_set():
                cache.gc(max_age_days=0)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sweep = threading.Thread(target=sweeper)
            writers = [threading.Thread(target=writer) for _ in range(6)]
            sweep.start()
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            stop.set()
            sweep.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not sweep.is_alive()
        assert not any(t.is_alive() for t in writers)
        assert errors == []

    def test_concurrent_clears_never_raise(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        cache = ResultCache(tmp_path)
        for i in range(30):
            cache.put("report", {"a": i}, {"x": i})
        siblings = [ResultCache(tmp_path) for _ in range(4)]
        with ThreadPoolExecutor(4) as pool:
            counts = list(pool.map(lambda c: c.clear(), siblings))
        # every file removed exactly once, whoever got there first
        assert sum(counts) == 30
        assert cache.entry_count() == 0


class TestCacheCli:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_stats_and_clear(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("report", {"a": 1}, {"x": 1})
        assert self._run("cache", "--cache-dir", str(tmp_path), "stats") == 0
        out = capsys.readouterr().out
        assert "entries:     1" in out and "report" in out

        assert self._run(
            "cache", "--cache-dir", str(tmp_path), "stats", "--json"
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1 and stats["kinds"] == {"report": 1}

        assert self._run("cache", "--cache-dir", str(tmp_path), "clear") == 0
        assert "removed 1 blob(s)" in capsys.readouterr().out
        assert cache.entry_count() == 0

    def test_gc_respects_max_age(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("report", {"a": 1}, {"x": 1})
        assert self._run(
            "cache", "--cache-dir", str(tmp_path), "gc", "--max-age", "30"
        ) == 0
        assert "removed 0 blob(s)" in capsys.readouterr().out
        assert self._run(
            "cache", "--cache-dir", str(tmp_path), "gc", "--max-age", "0"
        ) == 0
        assert "removed 1 blob(s)" in capsys.readouterr().out


class TestCampaignJobs:
    EXPERIMENTS = ("table_gears", "fig3", "table3")
    CONFIG = RunnerConfig(iterations=2, apps=("BT-MZ-32", "CG-32"))

    @staticmethod
    def _normalized(manifest):
        m = copy.deepcopy(manifest)
        m.pop("wall_seconds")
        m.pop("jobs")
        # engine counters are deterministic; their wall-clock-derived
        # fields (seconds, rates) are not
        for timing in ("des_seconds", "compiled_seconds",
                       "des_evals_per_second", "compiled_evals_per_second"):
            m["engines"].pop(timing)
        for entry in m["experiments"].values():
            entry.pop("seconds")
            entry["engines"].pop("des_seconds")
            entry["engines"].pop("compiled_seconds")
        return m

    def test_jobs4_manifest_matches_jobs1(self, tmp_path):
        quiet = lambda *args: None  # noqa: E731
        serial = reproduce_all(
            tmp_path / "serial", self.CONFIG,
            experiments=self.EXPERIMENTS, echo=quiet, jobs=1,
        )
        parallel = reproduce_all(
            tmp_path / "parallel", self.CONFIG,
            experiments=self.EXPERIMENTS, echo=quiet, jobs=4,
        )
        assert parallel["jobs"] == 4
        assert self._normalized(serial) == self._normalized(parallel)
        # artifacts are byte-identical, not just the manifest
        for name in ["REPORT.md", *(f"{e}.csv" for e in self.EXPERIMENTS),
                     *(f"{e}.txt" for e in self.EXPERIMENTS)]:
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes(), name

    def test_failing_experiment_is_isolated(self, tmp_path):
        bad = RunnerConfig(iterations=2, apps=("NO-SUCH-APP-32",))
        manifest = reproduce_all(
            tmp_path, bad, experiments=("table_gears", "fig3"),
            echo=lambda *args: None,
        )
        assert manifest["errors"] == 1
        assert "error" in manifest["experiments"]["fig3"]
        assert "traceback" in manifest["experiments"]["fig3"]
        # the app-independent experiment still completed and wrote files
        assert "error" not in manifest["experiments"]["table_gears"]
        assert (tmp_path / "table_gears.csv").exists()
        assert "FAILED" in (tmp_path / "REPORT.md").read_text()
        written = json.loads((tmp_path / "manifest.json").read_text())
        assert written["errors"] == 1

    def test_parallel_failure_is_isolated_too(self, tmp_path):
        bad = RunnerConfig(iterations=2, apps=("NO-SUCH-APP-32",))
        manifest = reproduce_all(
            tmp_path, bad, experiments=("table_gears", "fig3"),
            echo=lambda *args: None, jobs=2,
        )
        assert manifest["errors"] == 1
        assert "error" in manifest["experiments"]["fig3"]
        assert "error" not in manifest["experiments"]["table_gears"]

    def test_cache_dir_that_is_a_file_rejected_upfront(self, tmp_path):
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        with pytest.raises(ValueError, match="not a directory"):
            reproduce_all(
                tmp_path / "out", self.CONFIG, experiments=("table_gears",),
                echo=lambda *args: None, cache_dir=blocker,
            )

    def test_campaign_cache_stats_reported(self, tmp_path):
        quiet = lambda *args: None  # noqa: E731
        cold = reproduce_all(
            tmp_path / "cold", self.CONFIG, experiments=("fig3",),
            echo=quiet, cache_dir=tmp_path / "cache",
        )
        warm = reproduce_all(
            tmp_path / "warm", self.CONFIG, experiments=("fig3",),
            echo=quiet, cache_dir=tmp_path / "cache",
        )
        assert cold["cache"]["enabled"] and warm["cache"]["enabled"]
        assert cold["cache"]["misses"] > 0
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hits"] > 0
        rows = (tmp_path / "cold" / "fig3.csv").read_bytes()
        assert rows == (tmp_path / "warm" / "fig3.csv").read_bytes()
