"""Tests for the parallel, cache-aware experiment engine."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.registry import benchmark_by_name
from repro.core.families import LogicFamily
from repro.experiments.engine import (
    CACHE_SCHEMA,
    CharacterizationJob,
    ExperimentEngine,
    MapJob,
    ResultCache,
    aig_fingerprint,
    default_cache_dir,
    figure6_payload,
    library_fingerprint,
    table2_payload,
    table3_payload,
)
from repro.experiments.figure6 import figure6_from_table3
from repro.experiments.table3 import run_table3
from repro.core.library import build_library

SUBSET = ("add-16",)
FAMILIES = (LogicFamily.TG_STATIC, LogicFamily.CMOS)


#: ``library_fingerprint`` of every family, pinned: the characterized cells
#: (Table-2 values, power model) and with them every cache key must not move
#: unless a change means to.
PINNED_LIBRARY_FINGERPRINTS = {
    LogicFamily.TG_STATIC: "37310f4ebb69efc818d081d059bf5ea670b56fdcf786be7d499c75eb6136f453",
    LogicFamily.TG_PSEUDO: "92030a56a423a4d6a00ef115bce9d7c35fb4dfa5856fa5dfb0f43da8666b932e",
    LogicFamily.PASS_STATIC: "ef3370b6c94c075cd2a8275b6e1c6f0ae441916d30dd73c348d8deeab4a26b28",
    LogicFamily.PASS_PSEUDO: "71ce04360bb51fc5ccf87918ab787638f482a1dbfbabd246402d0061631969f1",
    LogicFamily.CMOS: "dcb12d5927da57f181ad6ed2bd0144d256111a62d808a777c9285f6c90690063",
}


def _jobs():
    return [MapJob("add-16", family) for family in FAMILIES]


def _cache_entries(directory):
    """Committed entries of a sharded cache directory (sorted)."""
    return sorted(directory.glob("??/??/*.json"))


def _stats_view(result):
    return [(row.name, row.aig_nodes, row.aig_depth, row.results) for row in result.rows]


class TestFingerprints:
    def test_aig_fingerprint_is_structural(self):
        a = benchmark_by_name("add-16").build()
        b = benchmark_by_name("add-16").build()
        assert aig_fingerprint(a) == aig_fingerprint(b)
        c = benchmark_by_name("add-32").build()
        assert aig_fingerprint(a) != aig_fingerprint(c)

    def test_library_fingerprint_distinguishes_families(self):
        static = library_fingerprint(build_library(LogicFamily.TG_STATIC))
        cmos = library_fingerprint(build_library(LogicFamily.CMOS))
        assert static != cmos
        assert static == library_fingerprint(build_library(LogicFamily.TG_STATIC))

    @pytest.mark.parametrize("family", list(LogicFamily), ids=lambda f: f.value)
    def test_library_fingerprints_are_pinned(self, family):
        assert library_fingerprint(build_library(family)) == (
            PINNED_LIBRARY_FINGERPRINTS[family]
        )

    def test_job_keys_separate_by_family_and_objective(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        keys = {
            engine.map_job_key(MapJob("add-16", LogicFamily.TG_STATIC)),
            engine.map_job_key(MapJob("add-16", LogicFamily.CMOS)),
            engine.map_job_key(MapJob("add-16", LogicFamily.TG_STATIC, objective="area")),
            engine.map_job_key(MapJob("add-32", LogicFamily.TG_STATIC)),
        }
        assert len(keys) == 4

    def test_recovered_jobs_cached_separately_and_replayed(self, tmp_path):
        jobs = [
            MapJob("add-16", LogicFamily.TG_STATIC, rounds=0),
            MapJob("add-16", LogicFamily.TG_STATIC, rounds=2),
        ]
        first = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(jobs)
        again = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(jobs)
        round0, recovered = jobs
        assert not first[round0].cached and again[round0].cached
        assert not first[recovered].cached and again[recovered].cached
        assert first[recovered].stats == again[recovered].stats
        # Recovery never worsens the delay-objective circuit.
        assert first[recovered].stats.area <= first[round0].stats.area + 1e-9
        assert (
            first[recovered].stats.normalized_delay
            <= first[round0].stats.normalized_delay + 1e-9
        )

    def test_job_keys_separate_by_flow(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        keys = {
            engine.map_job_key(MapJob("add-16", LogicFamily.TG_STATIC, flow=flow))
            for flow in ("resyn2rs", "quick", "deep", "none")
        }
        assert len(keys) == 4

    def test_job_key_tracks_flow_definition(self, tmp_path, monkeypatch):
        # Redefining a flow (different pass pipeline under the same name)
        # must change the cache key, invalidating stale artifacts.
        from dataclasses import replace
        from unittest import mock

        from repro.flow import FLOWS

        engine = ExperimentEngine(cache_dir=tmp_path)
        job = MapJob("add-16", LogicFamily.TG_STATIC, flow="quick")
        before = engine.map_job_key(job)
        redefined = replace(FLOWS["quick"], max_rounds=2, round_passes=("rewrite",))
        with mock.patch.dict(FLOWS, {"quick": redefined}):
            assert engine.map_job_key(job) != before
        assert engine.map_job_key(job) == before


#: Prints the cache keys of a few map jobs and of every characterization
#: job, computed by whichever ``repro`` tree is first on ``PYTHONPATH``.
_KEYS_SCRIPT = """
import json
from repro.core.families import LogicFamily
from repro.experiments.engine import CharacterizationJob, ExperimentEngine, MapJob

engine = ExperimentEngine(use_cache=False)
keys = [
    engine.map_job_key(MapJob(name, family))
    for name in ("add-16", "t481")
    for family in (LogicFamily.TG_STATIC, LogicFamily.CMOS)
]
keys += [engine.characterization_job_key(CharacterizationJob(f)) for f in LogicFamily]
print(json.dumps(keys))
"""


def _keys_under(src_root: Path) -> list[str]:
    """The job keys computed in a fresh interpreter importing ``src_root``."""
    completed = subprocess.run(
        [sys.executable, "-c", _KEYS_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src_root)},
        cwd=src_root,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


class TestRecipeKeys:
    """Keys hash recipes plus the package source digest, never products."""

    def test_source_edit_changes_every_key(self, tmp_path):
        import shutil

        import repro

        package = Path(repro.__file__).parent
        parent_keys = _keys_under(package.parent)
        assert len(set(parent_keys)) == len(parent_keys)

        copy = tmp_path / "elsewhere"
        shutil.copytree(
            package, copy / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        # A byte-identical tree at another path: the digest hashes
        # package-relative paths, so every key is unchanged.
        assert _keys_under(copy) == parent_keys

        mapper = copy / "repro" / "synthesis" / "mapper.py"
        source = mapper.read_text()
        assert "_RECOVERY_RETRIES = 3\n" in source
        mapper.write_text(
            source.replace("_RECOVERY_RETRIES = 3\n", "_RECOVERY_RETRIES = 4\n")
        )
        edited_keys = _keys_under(copy)
        assert not set(edited_keys) & set(parent_keys)

    def test_builtin_keys_build_nothing(self, tmp_path, monkeypatch):
        from repro.bench.registry import BenchmarkCase
        from repro.experiments import engine as engine_module

        def forbidden(*args, **kwargs):
            raise AssertionError("a cache key must not build its subject")

        monkeypatch.setattr(BenchmarkCase, "build", forbidden)
        monkeypatch.setattr(engine_module, "build_library", forbidden)
        engine = ExperimentEngine(cache_dir=tmp_path)
        for family in LogicFamily:
            engine.map_job_key(MapJob("add-16", family))
            engine.characterization_job_key(CharacterizationJob(family))

    def test_replaced_registration_changes_the_key(self, tmp_path):
        from repro.bench.registry import (
            BenchmarkCase,
            register_benchmark,
            unregister_benchmark,
        )

        def case_of(width):
            def generator():
                return benchmark_by_name(f"add-{width}").generator()

            return BenchmarkCase(
                name="custom-adder",
                function="adder",
                paper_inputs=0,
                paper_outputs=0,
                exact=True,
                generator=generator,
                xor_rich=True,
            )

        engine = ExperimentEngine(cache_dir=tmp_path)
        job = MapJob("custom-adder", LogicFamily.TG_STATIC)
        try:
            register_benchmark(case_of(16))
            first = engine.map_job_key(job)
            assert engine.map_job_key(job) == first
            register_benchmark(case_of(32), replace=True)
            assert engine.map_job_key(job) != first
            register_benchmark(case_of(16), replace=True)
            assert engine.map_job_key(job) == first
        finally:
            unregister_benchmark("custom-adder")


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        first = engine.run_map_jobs(_jobs())
        assert all(not result.cached for result in first.values())
        assert _cache_entries(tmp_path)

        again = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(_jobs())
        assert all(result.cached for result in again.values())
        for job in _jobs():
            assert first[job].stats == again[job].stats
            assert first[job].aig_nodes == again[job].aig_nodes

    def test_corrupted_entries_are_recomputed(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.run_map_jobs(_jobs())
        entries = _cache_entries(tmp_path)
        entries[0].write_text("{ this is not json")
        entries[1].write_text(json.dumps({"schema": CACHE_SCHEMA + 999, "key": "x", "payload": {}}))

        redo_engine = ExperimentEngine(cache_dir=tmp_path)
        redone = redo_engine.run_map_jobs(_jobs())
        assert sum(1 for result in redone.values() if not result.cached) == 2
        # The unreadable entry was quarantined, the stale-schema one was a miss.
        assert redo_engine.cache.stats.corrupt == 1
        assert len(list(redo_engine.cache.quarantine_dir().iterdir())) == 1
        # The corrupted files were replaced with valid entries.
        fresh = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(_jobs())
        assert all(result.cached for result in fresh.values())

    def test_wrong_key_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"stats": {}})
        # Rename the entry so its embedded key no longer matches the filename.
        target = cache.path_for("b" * 64)
        target.parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("a" * 64).rename(target)
        assert cache.get("b" * 64) is None

    def test_disabled_cache_writes_nothing(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, use_cache=False)
        engine.run_map_jobs(_jobs())
        assert not _cache_entries(tmp_path)

    def test_cached_flow_does_not_satisfy_other_flows(self, tmp_path):
        # A cached resyn2rs result must not be served for a quick request.
        ExperimentEngine(cache_dir=tmp_path).run_map_jobs(_jobs())
        quick_jobs = [
            MapJob("add-16", family, flow="quick") for family in FAMILIES
        ]
        first_quick = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(quick_jobs)
        assert all(not result.cached for result in first_quick.values())
        second_quick = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(quick_jobs)
        assert all(result.cached for result in second_quick.values())

    def test_default_cache_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "experiments"


class TestCacheHardening:
    """The hardened ResultCache: sharding, checksums, quarantine, eviction."""

    def test_entries_live_in_two_level_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "deadbeef" * 8
        cache.put(key, {"value": 1})
        assert cache.path_for(key) == tmp_path / "de" / "ad" / f"{key}.json"
        assert cache.path_for(key).exists()
        assert cache.get(key) == {"value": 1}
        assert cache.stats.hits == 1 and cache.stats.puts == 1

    def test_concurrent_same_key_puts_keep_entry_valid(self, tmp_path):
        # Regression for the shared ".tmp" staging-file collision: many
        # writers racing on one key must never leave a truncated entry or
        # stray staging files behind.
        import threading

        cache = ResultCache(tmp_path)
        key = "ab" * 32
        observed = []

        def writer(worker):
            local = ResultCache(tmp_path)
            for i in range(25):
                local.put(key, {"worker": worker, "i": i})
                observed.append(local.get(key))

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(isinstance(payload, dict) for payload in observed)
        assert cache.stats.corrupt == 0
        assert isinstance(cache.get(key), dict)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"value": 1})
        path = cache.path_for(key)
        entry = json.loads(path.read_text())
        entry["payload"]["value"] = 2  # tamper without updating the checksum
        path.write_text(json.dumps(entry))

        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # moved aside, not left to fail forever
        assert len(list(cache.quarantine_dir().iterdir())) == 1
        # The follow-up read is a plain miss, not another corruption event.
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1 and cache.stats.misses == 1

    def test_stale_schema_is_a_miss_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"value": 1})
        path = cache.path_for(key)
        path.write_text(json.dumps({"schema": CACHE_SCHEMA - 1, "key": key,
                                    "payload": {}, "checksum": "x"}))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 0 and cache.stats.misses == 1
        assert path.exists()  # left in place for the next put to overwrite

    def test_size_budget_evicts_least_recently_used(self, tmp_path):
        import os as _os

        cache = ResultCache(tmp_path)  # no budget while seeding
        keys = [f"{i:02x}" * 32 for i in range(4)]
        for stamp, key in enumerate(keys):
            cache.put(key, {"value": key})
            _os.utime(cache.path_for(key), (100.0 + stamp, 100.0 + stamp))
        entry_size = cache.path_for(keys[0]).stat().st_size
        # A freshly read entry becomes most-recent and must survive.
        assert cache.get(keys[0]) is not None

        bounded = ResultCache(tmp_path, max_bytes=3 * entry_size + 1)
        bounded.put("ff" * 32, {"value": "new"})
        assert bounded.stats.evicted == 2
        survivors = {p.name for p in _cache_entries(tmp_path)}
        assert f"{keys[0]}.json" in survivors  # refreshed by the hit above
        assert f"{keys[1]}.json" not in survivors
        assert f"{keys[2]}.json" not in survivors
        assert f"{'ff' * 32}.json" in survivors

    def test_cache_events_mirrored_to_profiler_counters(self, tmp_path):
        from repro import obs

        cache = ResultCache(tmp_path)
        obs.enable_tracing()
        try:
            cache.put("aa" * 32, {"value": 1})
            cache.get("aa" * 32)
            cache.get("bb" * 32)
            counters = obs.counters()
        finally:
            obs.reset()
        assert counters["cache.put"] == 1
        assert counters["cache.hit"] == 1
        assert counters["cache.miss"] == 1


class TestParallelExecution:
    def test_parallel_results_bit_identical_to_sequential(self):
        sequential = ExperimentEngine(jobs=1, use_cache=False).run_table3(
            benchmark_names=SUBSET
        )
        parallel = ExperimentEngine(jobs=3, use_cache=False).run_table3(
            benchmark_names=SUBSET
        )
        assert _stats_view(sequential) == _stats_view(parallel)

    def test_parallel_table2_identical_to_sequential(self):
        sequential = ExperimentEngine(jobs=1, use_cache=False).run_table2()
        parallel = ExperimentEngine(jobs=4, use_cache=False).run_table2()
        assert sequential.summaries == parallel.summaries
        assert sequential.rows == parallel.rows

    def test_engine_matches_legacy_run_table3(self):
        legacy = run_table3(benchmark_names=SUBSET)
        engine = ExperimentEngine(jobs=2, use_cache=False).run_table3(
            benchmark_names=SUBSET
        )
        assert _stats_view(legacy) == _stats_view(engine)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            ExperimentEngine(use_cache=False).run_table3(benchmark_names=("nope",))

    def test_unknown_flow_rejected_before_work(self):
        with pytest.raises(KeyError):
            ExperimentEngine(use_cache=False).run_table3(
                benchmark_names=SUBSET, flow="no-such-flow"
            )

    def test_flows_run_end_to_end_with_distinct_results_or_stats(self):
        # Both named flows run through the engine; `none` must reflect the
        # unoptimized subject graph while resyn2rs shrinks or preserves it.
        engine = ExperimentEngine(use_cache=False)
        via_resyn = engine.run_table3(benchmark_names=SUBSET)
        via_quick = engine.run_table3(benchmark_names=SUBSET, flow="quick")
        via_none = engine.run_table3(benchmark_names=SUBSET, flow="none")
        assert via_none.rows[0].aig_nodes >= via_resyn.rows[0].aig_nodes
        for result in (via_resyn, via_quick, via_none):
            for row in result.rows:
                for stats in row.results.values():
                    assert stats.gates > 0


class TestTable2Jobs:
    def test_characterization_cache_round_trip(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        first = engine.run_table2()
        assert _cache_entries(tmp_path)
        second = ExperimentEngine(cache_dir=tmp_path).run_table2()
        assert first.summaries == second.summaries
        assert first.rows == second.rows
        assert first.paper_averages == second.paper_averages

    def test_characterization_job_key_stable(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        job = CharacterizationJob(LogicFamily.CMOS)
        assert engine.characterization_job_key(job) == engine.characterization_job_key(job)


class TestArtifacts:
    def test_write_artifacts_emits_valid_json(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path / "cache")
        table2 = engine.run_table2(families=(LogicFamily.TG_STATIC, LogicFamily.CMOS))
        table3 = engine.run_table3(benchmark_names=SUBSET)
        figure6 = figure6_from_table3(table3)
        written = engine.write_artifacts(
            tmp_path / "artifacts", table2=table2, table3=table3, figure6=figure6
        )
        assert {path.name for path in written} == {
            "table2.json",
            "table3.json",
            "figure6.json",
        }
        loaded = {path.name: json.loads(path.read_text()) for path in written}
        assert "add-16" in {row["name"] for row in loaded["table3.json"]["rows"]}
        assert loaded["table3.json"]["flow"] == "resyn2rs"
        assert LogicFamily.TG_STATIC.value in loaded["table2.json"]["families"]
        assert loaded["figure6.json"]["series"]["add-16"]["static"] > 1.0

    def test_table3_artifact_records_selected_flow(self, tmp_path):
        engine = ExperimentEngine(use_cache=False)
        table3 = engine.run_table3(benchmark_names=SUBSET, flow="quick")
        assert table3.flow == "quick"
        assert table3_payload(table3)["flow"] == "quick"
        none_result = engine.run_table3(benchmark_names=SUBSET, flow="none")
        assert none_result.flow == "none"

    def test_payload_helpers_are_json_serializable(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        table3 = engine.run_table3(benchmark_names=SUBSET)
        for payload in (
            table3_payload(table3),
            table2_payload(engine.run_table2(families=(LogicFamily.CMOS,))),
            figure6_payload(figure6_from_table3(table3)),
        ):
            assert json.loads(json.dumps(payload)) == payload


class TestSharedMemoryTransport:
    """The shared-memory subject transport and the lifetime of batch memos."""

    def test_publish_resolve_roundtrip_through_attach_path(self):
        """A resolved handle attaches the segment and rebuilds a structurally
        identical subject with the published arrays installed, which maps
        identically."""
        import numpy as np

        from repro.experiments import shm
        from repro.flow import run_flow
        from repro.synthesis.aig_array import aig_arrays
        from repro.synthesis.cuts import cut_set_for
        from repro.synthesis.mapper import technology_map
        from repro.synthesis.matcher import matcher_for

        aig = run_flow("resyn2rs", benchmark_by_name("add-16").build()).aig
        arrays = aig_arrays(aig)
        cut_set = cut_set_for(aig)
        key = f"{aig_fingerprint(aig)}:{cut_set.max_inputs}:{cut_set.cut_limit}"
        try:
            handle = shm.publish_subject(key, aig, arrays, cut_set)
        except OSError:
            pytest.skip("no usable shared memory on this platform")
        try:
            rebuilt = shm.resolve_subject(handle)
            assert rebuilt is not aig
            assert aig_fingerprint(rebuilt) == aig_fingerprint(aig)
            assert rebuilt.pi_names == aig.pi_names
            assert rebuilt.po_names == aig.po_names
            r_arrays = aig_arrays(rebuilt)
            assert np.array_equal(r_arrays.fanin0, arrays.fanin0)
            assert np.array_equal(r_arrays.fanout, arrays.fanout)
            r_cuts = cut_set_for(rebuilt)  # must hit the installed memo
            assert np.array_equal(r_cuts.leaves, cut_set.leaves)
            assert np.array_equal(r_cuts.table, cut_set.table)
            library = build_library(LogicFamily.TG_STATIC)
            original = technology_map(aig, library, matcher=matcher_for(library))
            remapped = technology_map(rebuilt, library, matcher=matcher_for(library))
            assert [
                (g.output, g.cell_name, g.leaves, g.table, g.inverted)
                for g in original.gates
            ] == [
                (g.output, g.cell_name, g.leaves, g.table, g.inverted)
                for g in remapped.gates
            ]
            assert original.normalized_delay == remapped.normalized_delay
        finally:
            shm.drop_attachments()
            shm.release_subjects()
        assert shm.attachment_count() == 0
        assert shm.published_count() == 0

    def test_release_attached_subjects_closes_every_attachment(self, monkeypatch):
        """The pool workers' exit finalizer drops the subject memos that pin
        the segment views, then closes every attachment: none is left for
        ``SharedMemory.__del__`` or parked as still exported."""
        from repro.experiments import engine as engine_module
        from repro.experiments import shm
        from repro.flow import run_flow
        from repro.synthesis.aig_array import aig_arrays
        from repro.synthesis.cuts import cut_set_for

        aig = run_flow("resyn2rs", benchmark_by_name("add-16").build()).aig
        cut_set = cut_set_for(aig)
        key = f"{aig_fingerprint(aig)}:{cut_set.max_inputs}:{cut_set.cut_limit}"
        try:
            handle = shm.publish_subject(key, aig, aig_arrays(aig), cut_set)
        except OSError:
            pytest.skip("no usable shared memory on this platform")
        monkeypatch.setattr(engine_module, "_OPTIMIZED_AIGS", {})
        monkeypatch.setattr(engine_module, "_ACTIVITY_REPORTS", {})
        try:
            engine_module._OPTIMIZED_AIGS[("add-16", "resyn2rs")] = (
                shm.resolve_subject(handle)
            )
            assert shm.attachment_count() == 1
            engine_module._release_attached_subjects()
            assert engine_module._OPTIMIZED_AIGS == {}
            assert shm.attachment_count() == 0
            assert shm._ZOMBIES == []
        finally:
            shm.drop_attachments()
            shm.release_subjects()

    def test_jobs2_shared_memory_smoke(self):
        """Fast-lane transport smoke: a --jobs 2 run over two benchmarks must
        publish subjects, drain the pool and stay bit-identical to jobs=1."""
        from repro.experiments import shm

        published = []
        original_publish = shm.publish_subject

        def counting_publish(key, aig, arrays, cut_set):
            handle = original_publish(key, aig, arrays, cut_set)
            published.append(key)
            return handle

        names = ("add-16", "t481")
        shm.publish_subject = counting_publish
        try:
            parallel = ExperimentEngine(jobs=2, use_cache=False).run_table3(
                benchmark_names=names, families=FAMILIES
            )
        finally:
            shm.publish_subject = original_publish
        sequential = ExperimentEngine(jobs=1, use_cache=False).run_table3(
            benchmark_names=names, families=FAMILIES
        )
        assert _stats_view(sequential) == _stats_view(parallel)
        assert len(published) == len(names)  # one segment per distinct subject
        assert shm.published_count() == 0  # released in the engine's finally

    def test_published_handle_carries_match_index(self):
        """Publishing ships the cut set's distinct-function match index
        (``fn_*`` segments); a worker-side resolve pre-installs it so the
        mapper never re-canonicalizes the subject's cut functions."""
        import numpy as np

        from repro.experiments import shm
        from repro.flow import run_flow
        from repro.synthesis.aig_array import aig_arrays
        from repro.synthesis.cuts import cut_set_for
        from repro.synthesis.matcher import cut_function_table

        aig = run_flow("resyn2rs", benchmark_by_name("add-16").build()).aig
        arrays = aig_arrays(aig)
        cut_set = cut_set_for(aig)
        key = f"{aig_fingerprint(aig)}:{cut_set.max_inputs}:{cut_set.cut_limit}"
        try:
            handle = shm.publish_subject(key, aig, arrays, cut_set)
        except OSError:
            pytest.skip("no usable shared memory on this platform")
        try:
            fields = {segment[0] for segment in handle.segments}
            assert {"fn_inverse", "fn_canon", "fn_cut_perm"} <= fields
            parent_table = cut_function_table(cut_set, arrays.and_nodes)
            rebuilt = shm.resolve_subject(handle)
            rebuilt_cuts = cut_set_for(rebuilt)
            worker_table = rebuilt_cuts.__dict__.get("_function_table")
            assert worker_table is not None
            assert np.array_equal(worker_table.inverse, parent_table.inverse)
            assert np.array_equal(worker_table.canon, parent_table.canon)
            assert np.array_equal(worker_table.cut_perm, parent_table.cut_perm)
            assert np.array_equal(worker_table.cut_phase, parent_table.cut_phase)
            assert np.array_equal(worker_table.reduced, parent_table.reduced)
            # The memoized entry is what the matcher consumes -- no rebuild.
            assert (
                cut_function_table(rebuilt_cuts, aig_arrays(rebuilt).and_nodes)
                is worker_table
            )
        finally:
            shm.drop_attachments()
            shm.release_subjects()

    def test_jobs4_with_match_index_is_byte_identical(self):
        """jobs=4 mapping through the shm-published match index must produce
        a byte-identical Table-3 artifact payload to the jobs=1 path."""
        names = ("add-16", "t481")
        parallel = ExperimentEngine(jobs=4, use_cache=False).run_table3(
            benchmark_names=names, families=FAMILIES
        )
        sequential = ExperimentEngine(jobs=1, use_cache=False).run_table3(
            benchmark_names=names, families=FAMILIES
        )
        assert json.dumps(
            table3_payload(sequential), indent=2, sort_keys=True
        ) == json.dumps(table3_payload(parallel), indent=2, sort_keys=True)

    def test_batch_memos_die_with_the_batch(self, monkeypatch):
        """After run_map_jobs returns, the batch's cut sets and their function
        and match tables are garbage and the activity memo is empty; only the
        optimized subjects stay, for reuse by the next in-process batch."""
        import gc
        import weakref

        import repro.experiments.engine as engine_module
        from repro.synthesis.cuts import cut_set_for

        refs = []
        real_map = engine_module.technology_map

        def spying_map(aig, library, **kwargs):
            mapped = real_map(aig, library, **kwargs)
            cut_set = cut_set_for(aig, kwargs["max_inputs"], kwargs["cut_limit"])
            refs.append(weakref.ref(cut_set))
            refs.append(weakref.ref(cut_set.__dict__["_function_table"]))
            for entry in cut_set.__dict__.get("_match_tables", {}).values():
                table = entry[1] if isinstance(entry, tuple) else entry
                refs.append(weakref.ref(table))
            return mapped

        monkeypatch.setattr(engine_module, "technology_map", spying_map)
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run_map_jobs(_jobs())
        assert len(refs) > len(_jobs())  # cut sets plus their tables
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        assert engine_module._ACTIVITY_REPORTS == {}

        subject = engine_module._OPTIMIZED_AIGS[("add-16", "resyn2rs")]
        engine.run_map_jobs(_jobs()[:1])
        assert engine_module._OPTIMIZED_AIGS[("add-16", "resyn2rs")] is subject

    @staticmethod
    def _map_on_pool(start_method: str) -> subprocess.CompletedProcess:
        """A two-subject jobs=2 batch on a ``start_method`` pool, run in a
        fresh interpreter so its teardown output can be inspected."""
        import repro

        script = f"""
import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.core.families import LogicFamily
from repro.experiments import resilience
from repro.experiments.engine import ExperimentEngine, MapJob

if __name__ == "__main__":
    resilience.ProcessPoolExecutor = functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context({start_method!r})
    )
    jobs = [MapJob(name, LogicFamily.TG_STATIC) for name in ("add-16", "t481")]
    engine = ExperimentEngine(jobs=2, use_cache=False)
    engine.run_map_jobs(jobs)
    print("shm_degraded", engine.robustness_stats()["shm_degraded"])
"""
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "shm_degraded 0" in done.stdout, done.stdout
        return done

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="no forkserver start method on this platform",
    )
    def test_forkserver_attach_leaves_no_tracker_noise(self):
        """forkserver workers attach the published segments; releasing them
        must not make the shared resource tracker report a KeyError."""
        done = self._map_on_pool("forkserver")
        assert "KeyError" not in done.stderr, done.stderr

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="no spawn start method on this platform",
    )
    def test_spawn_workers_close_attachments_before_exit(self):
        """spawn workers attach the published segments; they must close
        them before exiting instead of leaving SharedMemory.__del__ to
        report a BufferError on the still-exported views."""
        done = self._map_on_pool("spawn")
        assert "BufferError" not in done.stderr, done.stderr
