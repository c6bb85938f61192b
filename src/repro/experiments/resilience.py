"""Fault-tolerant batch execution for the experiment engine.

The engine's jobs are pure functions of their specs, which makes them safe
to retry: a result computed on the second attempt is bit-identical to one
computed on the first.  This module exploits that purity to run a batch of
jobs through a :class:`~concurrent.futures.ProcessPoolExecutor` without the
all-or-nothing failure mode of ``pool.map``:

* **Per-job futures.**  Jobs are ``submit()``-ed individually (at most one
  per worker slot at a time, so a submitted job starts immediately and its
  wall-clock deadline is meaningful) and their results are committed the
  moment each future resolves -- a later crash never discards work that
  already finished.
* **Failure taxonomy.**  A worker death (:class:`BrokenExecutor`) is a
  *crash*; a job overrunning its wall-clock budget is a *timeout*; any
  other exception raised by the job itself is a *flow error* and propagates
  unretried -- a deterministic bug must fail the run, not burn retries.
* **Bounded retries with backoff.**  Crashed and timed-out jobs are
  re-dispatched up to :attr:`RetryPolicy.max_attempts` times, spaced by
  exponential backoff with deterministic seeded jitter
  (:func:`backoff_delay`), so a transient failure (OOM kill, descheduled
  worker) converges to a correct result instead of aborting the batch.
* **Pool rebuild.**  A broken or stuck pool is abandoned (best-effort
  ``kill`` of its worker processes) and rebuilt; only the jobs that were
  lost in flight are re-dispatched.
* **Graceful degradation.**  A job that exhausts its retries -- and the
  whole batch, when no pool can be (re)built at all -- falls back to the
  deterministic in-process path, which computes the same payload the
  worker would have.

Every abnormal event is recorded as a structured :class:`JobFailure` on the
returned :class:`BatchOutcome`, which is what the chaos suite and the
failure-classification artifact assert against.
"""

from __future__ import annotations

import heapq
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Sequence

from repro import obs

#: Failure kinds recorded in :class:`JobFailure` (the taxonomy).
CRASH = "crash"
TIMEOUT = "timeout"
#: Flow errors are never recorded on an outcome -- they propagate to the
#: caller unretried -- but the name participates in the taxonomy so reports
#: can classify exceptions uniformly.
FLOW_ERROR = "flow-error"


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout configuration of one batch.

    ``max_attempts`` counts *pool* attempts per job (the terminal in-process
    degrade is not an attempt).  ``timeout`` is the per-job wall-clock
    budget in seconds (``None``: unbounded).  Backoff before attempt ``k``'s
    retry is ``min(backoff_max, backoff_base * backoff_factor**(k-1))``
    scaled by a deterministic jitter in ``[1-jitter, 1+jitter]`` derived
    from ``seed``, the job index and the attempt number -- reproducible
    schedules, but concurrent retries still spread out.
    """

    max_attempts: int = 3
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    @classmethod
    def from_env(cls, environ=None) -> "RetryPolicy":
        """Policy with ``REPRO_JOB_TIMEOUT`` / ``REPRO_JOB_RETRIES`` applied.

        ``REPRO_JOB_TIMEOUT`` is the per-job budget in seconds (``0`` or
        unset: unbounded); ``REPRO_JOB_RETRIES`` the number of retries after
        the first attempt (so ``max_attempts = retries + 1``).
        """
        env = os.environ if environ is None else environ
        kwargs: dict = {}
        raw = env.get("REPRO_JOB_TIMEOUT")
        if raw:
            timeout = float(raw)
            kwargs["timeout"] = timeout if timeout > 0 else None
        raw = env.get("REPRO_JOB_RETRIES")
        if raw:
            kwargs["max_attempts"] = max(1, int(raw) + 1)
        return cls(**kwargs)


def backoff_delay(policy: RetryPolicy, index: int, attempt: int) -> float:
    """Deterministic backoff before re-dispatching job ``index``.

    ``attempt`` is the 1-based attempt that just failed.  Same policy, same
    job, same attempt -> same delay, on every platform.
    """
    if policy.backoff_base <= 0:
        return 0.0
    delay = min(
        policy.backoff_max,
        policy.backoff_base * policy.backoff_factor ** max(0, attempt - 1),
    )
    if policy.jitter > 0:
        swing = Random(f"{policy.seed}:{index}:{attempt}").uniform(
            -policy.jitter, policy.jitter
        )
        delay *= max(0.0, 1.0 + swing)
    return delay


@dataclass(frozen=True)
class JobFailure:
    """One abnormal event in a batch (a job lost to a crash or a timeout).

    ``index`` is the job's position in the batch, ``attempt`` the 1-based
    pool attempt that failed, ``resolution`` what the executor did about it
    (``"retry"``: re-dispatched to the pool after backoff; ``"in-process"``:
    retries exhausted, computed deterministically in the parent).
    """

    index: int
    kind: str
    attempt: int
    message: str
    resolution: str

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "attempt": self.attempt,
            "message": self.message,
            "resolution": self.resolution,
        }


@dataclass
class BatchOutcome:
    """Results plus the failure/recovery record of one batch."""

    results: list
    failures: list[JobFailure] = field(default_factory=list)
    #: Times the worker pool was abandoned and rebuilt.
    rebuilds: int = 0
    #: Jobs that exhausted their retries and ran in-process.
    degraded: int = 0
    #: False when no pool could be created and the whole batch ran in-process.
    pool_used: bool = True

    def failure_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for failure in self.failures:
            counts[failure.kind] = counts.get(failure.kind, 0) + 1
        return counts


def classify_exception(error: BaseException) -> str:
    """Map an exception from a pool future onto the failure taxonomy."""
    if isinstance(error, BrokenExecutor):
        return CRASH
    return FLOW_ERROR


def _abandon(executor: ProcessPoolExecutor) -> None:
    """Tear an executor down without waiting on (possibly stuck) workers."""
    # shutdown() only delivers sentinels; a worker wedged inside a job (the
    # timeout case) never reads one.  Reclaim it for real -- the process
    # table is taken first because shutdown() drops the executor's copy.
    processes = list((getattr(executor, "_processes", None) or {}).values())
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of a broken pool
        pass
    for process in processes:
        try:
            process.kill()
        except Exception:  # pragma: no cover - already gone
            pass


def run_resilient(
    worker: Callable,
    payloads: Sequence,
    *,
    jobs: int,
    policy: RetryPolicy | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    on_result: Callable[[int, object], None] | None = None,
    on_failure: Callable[[JobFailure], None] | None = None,
) -> BatchOutcome:
    """Run ``worker`` over ``payloads`` with per-job retries and timeouts.

    Results are returned in payload order regardless of completion order;
    ``on_result(index, payload)`` fires the moment each job finishes (pool
    or in-process), so callers can commit completed work immediately, and
    ``on_failure(failure)`` fires the moment each abnormal event is
    recorded (live progress reporting).  Exceptions raised *by* a job
    propagate unchanged after the pool is shut down; crashes and timeouts
    are retried per ``policy`` and degrade to the in-process path once
    exhausted.  Every failure is mirrored to the tracer's counters
    (``jobs.crash`` / ``jobs.timeout`` / ``jobs.retry`` /
    ``jobs.degraded_inprocess`` and the ``jobs.backoff_seconds`` total) and
    recorded as a tracer event, so ``--trace`` and ``--metrics-out`` see
    the failure-path traffic.
    """
    policy = policy or RetryPolicy()
    payloads = list(payloads)
    total = len(payloads)
    outcome = BatchOutcome(results=[None] * total)

    def finish(index: int, payload) -> None:
        outcome.results[index] = payload
        if on_result is not None:
            on_result(index, payload)

    def run_in_process(index: int) -> None:
        finish(index, worker(payloads[index]))

    slots = max(1, min(jobs, total))

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=slots, initializer=initializer, initargs=initargs
        )

    try:
        pool: ProcessPoolExecutor | None = new_pool()
    except OSError:
        pool = None
    if pool is None:
        # No process pool on this platform: the deterministic fallback.
        outcome.pool_used = False
        for index in range(total):
            run_in_process(index)
        return outcome

    attempts = [0] * total
    ready: deque[int] = deque(range(total))
    timers: list[tuple[float, int]] = []  # (due, index) backoff heap
    in_flight: dict[Future, int] = {}
    deadlines: dict[Future, float | None] = {}

    def settle_failure(index: int, kind: str, message: str) -> None:
        attempt = attempts[index]
        obs.count(f"jobs.{kind}")
        if attempt >= policy.max_attempts:
            failure = JobFailure(index, kind, attempt, message, "in-process")
            outcome.failures.append(failure)
            obs.count("jobs.degraded_inprocess")
            obs.event(f"job.{kind}", index=index, attempt=attempt,
                      resolution="in-process")
            if on_failure is not None:
                on_failure(failure)
            outcome.degraded += 1
            run_in_process(index)
        else:
            failure = JobFailure(index, kind, attempt, message, "retry")
            outcome.failures.append(failure)
            delay = backoff_delay(policy, index, attempt)
            obs.count("jobs.retry")
            obs.count("jobs.backoff_seconds", delay)
            obs.event(f"job.{kind}", index=index, attempt=attempt,
                      resolution="retry", backoff_seconds=delay)
            if on_failure is not None:
                on_failure(failure)
            due = time.monotonic() + delay
            heapq.heappush(timers, (due, index))

    def rebuild_pool() -> None:
        nonlocal pool
        if pool is not None:
            _abandon(pool)
        outcome.rebuilds += 1
        try:
            pool = new_pool()
        except OSError:
            pool = None

    def next_tick() -> float | None:
        bounds = [due for due in deadlines.values() if due is not None]
        if timers:
            bounds.append(timers[0][0])
        if not bounds:
            return None
        return max(0.0, min(bounds) - time.monotonic())

    try:
        while ready or timers or in_flight:
            now = time.monotonic()
            while timers and timers[0][0] <= now:
                ready.append(heapq.heappop(timers)[1])
            if pool is None:
                # Rebuild failed: drain every remaining job deterministically.
                remaining = sorted(set(ready) | {index for _due, index in timers})
                ready.clear()
                timers.clear()
                for index in remaining:
                    run_in_process(index)
                continue
            while ready and len(in_flight) < slots:
                index = ready.popleft()
                try:
                    future = pool.submit(worker, payloads[index])
                except BrokenExecutor:
                    # A worker died and its future is not collected yet.
                    # This job never started, so it keeps its attempt and its
                    # place; the pool is rebuilt once the in-flight futures
                    # report the crash, or right away if none are in flight.
                    ready.appendleft(index)
                    if not in_flight:
                        rebuild_pool()
                    break
                attempts[index] += 1
                in_flight[future] = index
                deadlines[future] = (
                    time.monotonic() + policy.timeout if policy.timeout else None
                )
            if not in_flight:
                if timers:  # waiting out a backoff delay
                    time.sleep(max(0.0, timers[0][0] - time.monotonic()))
                continue
            done, _ = wait(
                list(in_flight), timeout=next_tick(), return_when=FIRST_COMPLETED
            )
            crashed = False
            flow_error: BaseException | None = None
            for future in sorted(done, key=in_flight.get):
                index = in_flight.pop(future)
                deadlines.pop(future, None)
                error = future.exception()
                if error is None:
                    finish(index, future.result())
                elif classify_exception(error) == CRASH:
                    crashed = True
                    settle_failure(index, CRASH, str(error) or type(error).__name__)
                else:
                    # A real job exception: fail fast, never retry.
                    flow_error = error
            if flow_error is not None:
                raise flow_error
            if crashed:
                # The pool is broken; every other in-flight job died with it.
                for future, index in sorted(in_flight.items(), key=lambda kv: kv[1]):
                    settle_failure(
                        index, CRASH, "worker pool broke while the job was in flight"
                    )
                in_flight.clear()
                deadlines.clear()
                rebuild_pool()
                continue
            now = time.monotonic()
            expired = {
                future
                for future, due in deadlines.items()
                if due is not None and due <= now and not future.done()
            }
            if expired:
                # A stuck worker can only be reclaimed by abandoning the
                # pool.  Charge the timed-out jobs; the preempted bystanders
                # re-dispatch without losing an attempt.
                for future, index in sorted(in_flight.items(), key=lambda kv: kv[1]):
                    if future in expired:
                        settle_failure(
                            index,
                            TIMEOUT,
                            f"job exceeded its {policy.timeout:.3g}s wall-clock budget",
                        )
                    else:
                        attempts[index] -= 1
                        ready.append(index)
                in_flight.clear()
                deadlines.clear()
                rebuild_pool()
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    return outcome
