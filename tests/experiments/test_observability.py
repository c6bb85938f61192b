"""End-to-end observability: cross-process traces, stage merge, CLI flags.

The tracer unit tests live in ``tests/obs``; this module pins the contract
*through the engine and runner*: worker spans come home pid-tagged, cache
hits synthesize spans in the parent, a parallel trace carries the same
per-job stage spans as a sequential one, fault handling leaves crash/retry
markers in the trace, and the CLI exporters write valid files while leaving
the artifacts byte-identical.
"""

import json
import os

import pytest

from repro import obs
from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.experiments import faults
from repro.experiments.engine import ExperimentEngine, MapJob
from repro.experiments.faults import FaultPlan
from repro.experiments.resilience import RetryPolicy, run_resilient
from repro.experiments.runner import main
from repro.experiments.table2 import TABLE2_FAMILIES
from repro.experiments.table3 import TABLE3_FAMILIES
from tests.experiments.test_resilience import _crash_in_pool_workers

#: Small-but-parallel workload: four independent jobs on the fast adder.
FAMILIES = (
    LogicFamily.TG_STATIC,
    LogicFamily.TG_PSEUDO,
    LogicFamily.PASS_PSEUDO,
    LogicFamily.CMOS,
)

#: Retries resolve fast in tests; correctness must not depend on pacing.
FAST_POLICY = RetryPolicy(backoff_base=0.01, backoff_max=0.05)


def _jobs():
    return [MapJob("add-16", family) for family in FAMILIES]


def _result_view(results):
    return {
        job: (r.stats, r.power, r.aig_nodes, r.aig_depth)
        for job, r in results.items()
    }


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs.reset()
    yield
    obs.reset()


class TestCrossProcessTrace:
    def test_parallel_run_ships_worker_spans_home(self):
        obs.enable_tracing()
        engine = ExperimentEngine(jobs=2, use_cache=False)
        engine.run_map_jobs(_jobs())
        spans = obs.spans()

        job_spans = [s for s in spans if s.category == "job"]
        assert len(job_spans) == len(FAMILIES)
        worker_pids = {s.pid for s in job_spans}
        assert os.getpid() not in worker_pids
        assert len(worker_pids) >= 2  # both workers contributed

        # The parent's scheduling spans frame the merged worker tracks.
        engine_spans = {s.name for s in spans if s.category == "engine"}
        assert "run_map_jobs" in engine_spans
        assert "prepare-parallel" in engine_spans
        parent_pids = {s.pid for s in spans if s.category == "engine"}
        assert parent_pids == {os.getpid()}

    def test_worker_job_spans_parent_their_stages(self):
        obs.enable_tracing()
        engine = ExperimentEngine(jobs=2, use_cache=False)
        engine.run_map_jobs(_jobs())
        spans = obs.spans()
        by_key = {(s.pid, s.span_id): s for s in spans}
        stage_spans = [s for s in spans if s.category == "stage"]
        assert stage_spans
        for stage in stage_spans:
            # Every stage recorded in a worker hangs under a span of the
            # same process (ids are only unique per pid).
            ancestor = stage
            while ancestor.parent_id is not None:
                ancestor = by_key[(ancestor.pid, ancestor.parent_id)]
            if stage.pid != os.getpid():
                assert ancestor.category == "job"

    def test_trace_is_deterministically_mergeable(self):
        obs.enable_tracing()
        engine = ExperimentEngine(jobs=2, use_cache=False)
        engine.run_map_jobs(_jobs())
        keys = [(s.pid, s.span_id) for s in obs.spans()]
        assert len(keys) == len(set(keys))  # (pid, id) namespacing holds

    def test_cache_hits_synthesize_parent_spans(self, tmp_path):
        jobs = _jobs()
        warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        warm.run_map_jobs(jobs)

        obs.enable_tracing()
        engine = ExperimentEngine(jobs=2, cache_dir=tmp_path)
        engine.run_map_jobs(jobs)
        spans = obs.spans()
        hits = [s for s in spans if s.category == "cache"]
        assert len(hits) == len(jobs)
        assert {s.pid for s in hits} == {os.getpid()}
        assert all(s.name.startswith("cache-hit:add-16:") for s in hits)
        assert all("key" in s.attributes for s in hits)
        assert not [s for s in spans if s.category == "job"]

    def test_tracing_does_not_change_results(self):
        jobs = _jobs()
        plain = ExperimentEngine(jobs=2, use_cache=False).run_map_jobs(jobs)
        obs.enable_tracing()
        traced = ExperimentEngine(jobs=2, use_cache=False).run_map_jobs(jobs)
        assert _result_view(traced) == _result_view(plain)


    def test_tracing_does_not_change_the_synthesis_calls(self, monkeypatch):
        """No job path branches on tracing: a traced run makes exactly the
        synthesis calls of an untraced one."""
        from repro.experiments import engine as engine_module

        calls = []
        for name in (
            "run_flow",
            "compute_activities",
            "technology_map",
            "analyze_power",
        ):
            original = getattr(engine_module, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine_module, name, spy)

        def run():
            calls.clear()
            monkeypatch.setattr(engine_module, "_OPTIMIZED_AIGS", {})
            ExperimentEngine(jobs=1, use_cache=False).run_map_jobs(_jobs())
            return list(calls)

        untraced = run()
        obs.enable_tracing()
        traced = run()
        assert traced == untraced
        assert traced.count("technology_map") == len(FAMILIES)


class TestStageMerge:
    """A trace with --jobs > 1 must not drop worker stage spans."""

    def _trace(self, jobs):
        obs.enable_tracing()
        try:
            ExperimentEngine(jobs=jobs, use_cache=False).run_map_jobs(_jobs())
            return obs.spans()
        finally:
            obs.disable_tracing()
            obs.reset()

    @staticmethod
    def _stage_counts(spans):
        counts = {}
        for record in spans:
            if record.category == "stage":
                counts[record.name] = counts.get(record.name, 0) + 1
        return counts

    def test_parallel_trace_matches_sequential_stage_counts(self):
        sequential = self._stage_counts(self._trace(1))
        parallel = self._stage_counts(self._trace(4))
        # One span per job for the per-job stages, both ways.  (optimize /
        # activity memoize per process, so their counts legitimately
        # differ between one process and four.)
        for stage in ("cuts", "match", "cover", "power"):
            assert parallel[stage] == sequential[stage], stage

    def test_parallel_trace_reports_nonzero_stage_totals(self):
        totals = obs.build_metrics(self._trace(2), {})["stage_totals_ms"]
        assert totals["match"] > 0
        assert totals["cover"] > 0


class TestFailureTelemetry:
    """Satellite bugfix: retry/crash/timeout/degradation counters flow
    through the counter API (and, when tracing, leave trace markers)."""

    @pytest.fixture
    def arm(self, tmp_path, monkeypatch):
        spool = tmp_path / "spool"
        spool.mkdir()

        def _arm(**kwargs):
            plan = FaultPlan(once_dir=str(spool), **kwargs)
            monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
            return plan

        return _arm

    @pytest.mark.chaos
    def test_worker_kill_leaves_crash_markers_and_counters(self, arm):
        arm(kill_job=0)
        obs.enable_tracing()
        engine = ExperimentEngine(jobs=4, use_cache=False, retry_policy=FAST_POLICY)
        engine.run_map_jobs(_jobs())

        counters = obs.counters()
        assert counters["jobs.crash"] >= 1
        assert counters["jobs.retry"] >= 1
        assert counters["jobs.backoff_seconds"] > 0

        markers = [
            (name, attrs)
            for span in obs.spans()
            for _, name, attrs in span.events
        ]
        crash_markers = [m for m in markers if m[0] == "job.crash"]
        assert crash_markers
        assert all(m[1]["resolution"] == "retry" for m in crash_markers)
        assert all("attempt" in m[1] and "index" in m[1] for m in crash_markers)

    def test_exhausted_retries_count_degraded_inprocess(self):
        obs.enable_tracing()
        outcome = run_resilient(
            _crash_in_pool_workers,
            [(5, os.getpid()), (9, os.getpid())],
            jobs=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.01),
        )
        counters = obs.counters()
        assert outcome.results == [4, 8]
        assert counters["jobs.degraded_inprocess"] == 2
        # max_attempts=2: every job crashes twice before degrading.
        assert counters["jobs.crash"] == 4
        assert counters["jobs.retry"] == 2
        assert counters["jobs.backoff_seconds"] > 0

        markers = [
            (name, attrs)
            for span in obs.spans()
            for _, name, attrs in span.events
        ] + [
            (span.name, span.attributes)
            for span in obs.spans()
            if span.category == "event"
        ]
        resolutions = [
            attrs["resolution"] for name, attrs in markers if name == "job.crash"
        ]
        assert resolutions.count("retry") == 2
        assert resolutions.count("in-process") == 2


class TestRunnerExporters:
    def _run(self, tmp_path, *extra):
        argv = [
            "add-16",
            "--cache-dir",
            str(tmp_path / "cache"),
            *extra,
        ]
        assert main(argv) == 0

    def test_trace_flag_writes_a_valid_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        self._run(tmp_path, "--jobs", "2", "--trace", str(trace_path))
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        assert events
        pids = {e["pid"] for e in events}
        assert len(pids) >= 3  # parent + at least two workers
        tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "parent" in tracks
        assert any(t.startswith("worker-") for t in tracks)
        assert payload["otherData"]["run_id"]
        assert "[trace" in capsys.readouterr().out

    def test_metrics_out_reports_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_ID", "metrics-run")
        metrics_path = tmp_path / "metrics.json"
        self._run(tmp_path, "--jobs", "2", "--metrics-out", str(metrics_path))
        report = json.loads(metrics_path.read_text())
        assert report["run_id"] == "metrics-run"
        assert report["jobs"]["executed"] > 0
        assert report["histograms"]["job_latency_ms"]["count"] > 0
        assert report["robustness"]["cache"]["misses"] > 0
        assert len(report["spans"]["pids"]) >= 3

    def test_events_out_writes_run_scoped_jsonl(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        self._run(tmp_path, "--events-out", str(events_path))
        lines = [json.loads(l) for l in events_path.read_text().splitlines()]
        assert lines[0]["type"] == "run-start"
        assert lines[-1]["type"] == "run-end"
        run_ids = {line["run_id"] for line in lines}
        assert len(run_ids) == 1 and None not in run_ids

    def test_exporters_leave_artifacts_byte_identical(self, tmp_path):
        plain_dir = tmp_path / "plain"
        traced_dir = tmp_path / "traced"
        self._run(tmp_path, "--no-cache", "--json", str(plain_dir))
        self._run(
            tmp_path,
            "--no-cache",
            "--json",
            str(traced_dir),
            "--jobs",
            "2",
            "--trace",
            str(tmp_path / "t.json"),
            "--metrics-out",
            str(tmp_path / "m.json"),
            "--events-out",
            str(tmp_path / "e.jsonl"),
        )
        plain_files = sorted(p.name for p in plain_dir.iterdir())
        assert plain_files == sorted(p.name for p in traced_dir.iterdir())
        for name in plain_files:
            assert (plain_dir / name).read_bytes() == (
                traced_dir / name
            ).read_bytes(), name

    def test_metrics_out_attributes_stages_with_parallel_jobs(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        self._run(
            tmp_path, "--jobs", "2", "--no-cache", "--metrics-out", str(metrics_path)
        )
        report = json.loads(metrics_path.read_text())
        # optimize is memoized per process, so an earlier run in this
        # process may have done it already; the per-job stages always run.
        assert set(report["stage_entries"]) == set(report["stage_totals_ms"])
        assert {"cuts", "match", "cover", "power"} <= set(report["stage_entries"])
        assert report["stage_entries"]["match"] > 0
        assert report["stage_totals_ms"]["match"] > 0

    def test_metrics_out_attributes_characterization(self, tmp_path):
        # Libraries are memoized per process: forget them so this run builds
        # every family it needs, each under one ``characterize`` stage.
        build_library.cache_clear()
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        self._run(
            tmp_path,
            "--no-cache",
            "--metrics-out",
            str(metrics_path),
            "--trace",
            str(trace_path),
        )
        built = {family.value for family in TABLE2_FAMILIES + TABLE3_FAMILIES}
        report = json.loads(metrics_path.read_text())
        assert report["stage_entries"]["characterize"] == len(built)
        assert report["stage_totals_ms"]["characterize"] > 0
        events = json.loads(trace_path.read_text())["traceEvents"]
        families = [
            event["args"]["family"]
            for event in events
            if event["ph"] == "X" and event["name"] == "characterize"
        ]
        assert sorted(families) == sorted(built)

    def test_cold_run_builds_each_benchmark_once(self, tmp_path, monkeypatch):
        # Keys hash recipes, so only the subject preparation builds a
        # benchmark, once, under one ``build`` stage; a run over the cache
        # that run filled builds and characterizes nothing.
        from repro.bench.registry import BenchmarkCase
        from repro.experiments import engine as engine_module

        def forget_memos():
            monkeypatch.setattr(engine_module, "_OPTIMIZED_AIGS", {})
            build_library.cache_clear()

        builds = []
        build = BenchmarkCase.build

        def counted_build(case):
            builds.append(case.name)
            return build(case)

        monkeypatch.setattr(BenchmarkCase, "build", counted_build)
        forget_memos()
        metrics_path = tmp_path / "metrics.json"
        argv = ["add-16", "t481", "--cache-dir", str(tmp_path / "cache"),
                "--metrics-out", str(metrics_path)]
        assert main([*argv, "--no-cache"]) == 0
        report = json.loads(metrics_path.read_text())
        assert report["stage_entries"]["build"] == 2
        assert sorted(builds) == ["add-16", "t481"]

        assert main(argv) == 0  # fills the shared cache
        forget_memos()
        builds.clear()
        assert main(argv) == 0
        report = json.loads(metrics_path.read_text())
        assert "build" not in report["stage_entries"]
        assert "characterize" not in report["stage_entries"]
        assert builds == []

    @pytest.mark.parametrize("flag", [["--profile"], ["--profile-out", "p.json"]])
    def test_profile_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["add-16", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
