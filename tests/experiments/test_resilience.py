"""Unit tests for the fault-tolerant batch executor.

The worker functions live at module top level so ProcessPoolExecutor can
pickle them; crash-prone workers only misbehave inside pool workers (they
check the parent pid or a cross-process once-latch), so the deterministic
in-process degrade path stays safe to run in the test process.
"""

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing.connection import wait as wait_for_exit

import pytest

from repro.experiments import resilience
from repro.experiments.faults import claim_once
from repro.experiments.resilience import (
    CRASH,
    FLOW_ERROR,
    TIMEOUT,
    BatchOutcome,
    JobFailure,
    RetryPolicy,
    backoff_delay,
    classify_exception,
    run_resilient,
)

FAST = RetryPolicy(backoff_base=0.01, backoff_max=0.05)


def _square(value):
    return value * value


def _crash_first_job_once(payload):
    value, spool = payload
    if value == 0 and claim_once(spool, "crash"):
        os._exit(13)
    return value * 10


def _crash_in_pool_workers(payload):
    value, parent_pid = payload
    if os.getpid() != parent_pid:
        os._exit(13)
    return value - 1


def _sleep_first_job_once(payload):
    value, spool, seconds = payload
    if seconds and claim_once(spool, f"sleep-{value}"):
        time.sleep(seconds)
    return value + 100


def _record_then_raise(payload):
    value, spool = payload
    claim_once(spool, f"ran-{value}-{os.getpid()}-{time.monotonic_ns():x}")
    raise ValueError(f"bad payload {value}")


class TestRetryPolicy:
    def test_from_env_defaults(self):
        policy = RetryPolicy.from_env({})
        assert policy == RetryPolicy()
        assert policy.timeout is None and policy.max_attempts == 3

    def test_from_env_parses_timeout_and_retries(self):
        policy = RetryPolicy.from_env(
            {"REPRO_JOB_TIMEOUT": "1.5", "REPRO_JOB_RETRIES": "4"}
        )
        assert policy.timeout == 1.5
        assert policy.max_attempts == 5

    def test_from_env_zero_timeout_means_unbounded(self):
        assert RetryPolicy.from_env({"REPRO_JOB_TIMEOUT": "0"}).timeout is None

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(seed=7)
        for index in range(3):
            for attempt in range(1, 5):
                first = backoff_delay(policy, index, attempt)
                assert first == backoff_delay(policy, index, attempt)
                assert 0.0 <= first <= policy.backoff_max * (1 + policy.jitter)
        # Different jobs de-synchronize their retry schedules.
        assert backoff_delay(policy, 0, 1) != backoff_delay(policy, 1, 1)

    def test_backoff_zero_base_disables_delay(self):
        assert backoff_delay(RetryPolicy(backoff_base=0.0), 0, 1) == 0.0

    def test_classification(self):
        assert classify_exception(BrokenExecutor("gone")) == CRASH
        assert classify_exception(ValueError("boom")) == FLOW_ERROR

    def test_failure_counts(self):
        outcome = BatchOutcome(
            results=[],
            failures=[
                JobFailure(0, CRASH, 1, "x", "retry"),
                JobFailure(1, CRASH, 1, "x", "retry"),
                JobFailure(0, TIMEOUT, 2, "x", "in-process"),
            ],
        )
        assert outcome.failure_counts() == {CRASH: 2, TIMEOUT: 1}


class TestRunResilient:
    def test_clean_batch_ordered_results_and_callbacks(self):
        seen = {}
        outcome = run_resilient(
            _square,
            [3, 1, 4, 1, 5],
            jobs=2,
            policy=FAST,
            on_result=lambda index, payload: seen.setdefault(index, payload),
        )
        assert outcome.results == [9, 1, 16, 1, 25]
        assert seen == {0: 9, 1: 1, 2: 16, 3: 1, 4: 25}
        assert outcome.failures == [] and outcome.rebuilds == 0
        assert outcome.pool_used

    def test_worker_crash_is_retried_to_identical_results(self, tmp_path):
        payloads = [(value, str(tmp_path)) for value in range(4)]
        outcome = run_resilient(
            _crash_first_job_once, payloads, jobs=2, policy=FAST
        )
        assert outcome.results == [0, 10, 20, 30]
        assert outcome.rebuilds >= 1
        assert outcome.degraded == 0
        kinds = {failure.kind for failure in outcome.failures}
        assert kinds == {CRASH}
        assert all(f.resolution == "retry" for f in outcome.failures)

    def test_exhausted_retries_degrade_to_in_process(self):
        payloads = [(value, os.getpid()) for value in (5, 9)]
        outcome = run_resilient(
            _crash_in_pool_workers,
            payloads,
            jobs=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.01),
        )
        # Every pool attempt dies; the deterministic parent path finishes.
        assert outcome.results == [4, 8]
        assert outcome.degraded == 2
        assert [f.resolution for f in outcome.failures].count("in-process") == 2
        assert all(f.kind == CRASH for f in outcome.failures)

    def test_timeout_charges_job_and_retry_succeeds(self, tmp_path):
        payloads = [
            (0, str(tmp_path), 30.0),  # would hang far past the budget
            (1, str(tmp_path), 0.0),
        ]
        policy = RetryPolicy(timeout=0.5, backoff_base=0.01)
        start = time.monotonic()
        outcome = run_resilient(_sleep_first_job_once, payloads, jobs=2, policy=policy)
        elapsed = time.monotonic() - start
        assert outcome.results == [100, 101]
        assert TIMEOUT in {failure.kind for failure in outcome.failures}
        assert outcome.rebuilds >= 1
        assert elapsed < 20.0  # the stuck worker was reclaimed, not awaited

    def test_flow_errors_propagate_without_retry(self, tmp_path):
        with pytest.raises(ValueError, match="bad payload"):
            run_resilient(
                _record_then_raise,
                [(0, str(tmp_path)), (1, str(tmp_path))],
                jobs=2,
                policy=FAST,
            )
        # Each payload executed at most once: deterministic bugs never retry.
        runs = [path.name for path in tmp_path.glob("ran-*.fired")]
        for value in (0, 1):
            assert sum(1 for name in runs if name.startswith(f"ran-{value}-")) <= 1

    def test_pool_creation_failure_runs_whole_batch_in_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(resilience, "ProcessPoolExecutor", refuse)
        seen = []
        outcome = run_resilient(
            _square,
            [2, 3],
            jobs=2,
            policy=FAST,
            on_result=lambda index, payload: seen.append((index, payload)),
        )
        assert outcome.results == [4, 9]
        assert not outcome.pool_used
        assert seen == [(0, 4), (1, 9)]

    def test_submit_to_a_broken_pool_keeps_the_attempt_and_rebuilds(
        self, monkeypatch
    ):
        pools = []

        class BrokenFirstPool(ThreadPoolExecutor):
            def __init__(self, max_workers, initializer=None, initargs=()):
                super().__init__(max_workers, initializer=initializer,
                                 initargs=initargs)
                pools.append(self)

            def submit(self, *args, **kwargs):
                if self is pools[0]:
                    raise BrokenExecutor("a worker died while idle")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(resilience, "ProcessPoolExecutor", BrokenFirstPool)
        outcome = run_resilient(_square, [2, 3], jobs=2, policy=FAST)
        assert outcome.results == [4, 9]
        assert outcome.rebuilds == 1
        assert outcome.failures == []  # no job ran, so none was charged

    def test_abandon_kills_a_wedged_worker(self, tmp_path):
        pool = ProcessPoolExecutor(max_workers=1)
        pool.submit(_sleep_first_job_once, (0, str(tmp_path), 30.0))
        deadline = time.monotonic() + 10.0
        while not (tmp_path / "sleep-0.fired").exists():
            assert time.monotonic() < deadline, "the job never started"
            time.sleep(0.01)
        # Watch the exit sentinels rather than join(): the pool's manager
        # thread may reap the killed worker first.
        sentinels = [process.sentinel for process in pool._processes.values()]
        resilience._abandon(pool)
        assert sorted(wait_for_exit(sentinels, timeout=10.0)) == sorted(sentinels)

    def test_single_job_batches_still_work(self):
        outcome = run_resilient(_square, [6], jobs=4, policy=FAST)
        assert outcome.results == [36]
