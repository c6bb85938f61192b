"""Parallel, cache-aware experiment engine.

The engine decomposes the paper's experiments into independent jobs and is
the single scheduling/caching layer behind :mod:`repro.experiments.table2`,
:mod:`repro.experiments.table3`, :mod:`repro.experiments.figure6`, the
``benchmarks/`` suite and the CLI runner:

* **Job decomposition.**  Table 3 becomes one :class:`MapJob` per
  ``(benchmark, library, objective)`` triple; Table 2 becomes one
  :class:`CharacterizationJob` per family; Figure 6 is derived from the
  Table-3 results and needs no jobs of its own.
* **Parallel execution.**  Jobs run across processes via
  :class:`concurrent.futures.ProcessPoolExecutor` when ``jobs > 1``.  Every
  job is a pure function of its spec, so the parallel schedule is
  bit-identical to the deterministic single-process fallback (which is also
  used automatically if a process pool cannot be created).
* **Fault tolerance.**  Parallel batches go through
  :mod:`repro.experiments.resilience`: per-job futures with a wall-clock
  timeout, bounded retries with deterministic backoff for crashed or
  timed-out jobs, pool rebuild on ``BrokenExecutor`` re-dispatching only
  the jobs still pending, and in-process degradation once retries are
  exhausted.  Real job exceptions (flow errors) propagate unretried.
  Completed payloads are cache-committed the moment they arrive, never at
  batch end.  The chaos harness (:mod:`repro.experiments.faults`) injects
  deterministic worker kills / delays / attach failures to prove all of
  this keeps artifacts bit-identical.
* **Recipe-keyed caching.**  Each job result is memoized in an on-disk
  JSON cache keyed by a SHA-256 hash of the job's recipe (family,
  benchmark, flow spec, job parameters) and :func:`source_digest`, so a
  key builds nothing and a warm run is a cache read.  The store is safe
  for concurrent runners: two-level sharded directories, unique
  ``mkstemp`` staging with atomic ``os.replace`` commits under an advisory
  per-entry lock, per-entry payload checksums verified on read,
  quarantine (``<cache>/corrupt/``) of damaged entries instead of silent
  re-misses, and optional size-based LRU eviction
  (``REPRO_CACHE_MAX_BYTES``).  The cache directory is
  ``$REPRO_CACHE_DIR``, falling back to ``$XDG_CACHE_HOME/repro/experiments``
  and then ``~/.cache/repro/experiments``.
* **JSON artifacts.**  :meth:`ExperimentEngine.write_artifacts` emits
  machine-readable ``table2.json`` / ``table3.json`` / ``figure6.json``
  next to the rendered text tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Iterator, Sequence

try:  # advisory file locking; absent on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only dependency
    fcntl = None  # type: ignore[assignment]

import numpy

import repro
from repro.analysis.activity import DEFAULT_SEED, DEFAULT_VECTORS, compute_activities
from repro.analysis.power import analyze_power
from repro.bench.registry import BENCHMARKS, benchmark_by_name
from repro.core.characterize import (
    CellCharacterization,
    FamilySummary,
    characterize_family,
)
from repro.core.families import LogicFamily
from repro.core.library import GateLibrary, build_library
from repro.core.paper_data import PAPER_TABLE2, PAPER_TABLE2_AVERAGES
from repro.experiments.figure6 import Figure6Result, figure6_from_table3
from repro.experiments.table2 import FAMILY_KEYS, TABLE2_FAMILIES, Table2Result
from repro.experiments.table3 import (
    TABLE3_FAMILIES,
    MappingStats,
    PowerStats,
    Table3Result,
    Table3Row,
    _paper_row,
)
from repro import obs
from repro.experiments import faults, resilience, shm
from repro.flow import DEFAULT_FLOW, get_flow, run_flow
from repro.synthesis.aig import Aig
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cuts import (
    DEFAULT_CUT_LIMIT,
    DEFAULT_MAX_INPUTS,
    cut_set_for,
)
from repro.synthesis.mapper import technology_map
from repro.synthesis.matcher import matcher_for

#: On-disk entry-format tag of :class:`ResultCache` (sharded paths, payload
#: checksum); what a payload means is covered by :func:`source_digest` in
#: every key, so behaviour changes no longer bump it.
CACHE_SCHEMA = 5


def default_cache_dir() -> Path:
    """Resolve the on-disk cache location (see module docstring)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "experiments"


def aig_fingerprint(aig: Aig) -> str:
    """Content hash of an AIG's structure (inputs, AND nodes, outputs)."""
    digest = hashlib.sha256()
    digest.update(",".join(aig.pi_names).encode())
    digest.update(b"|")
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        digest.update(f"{node}:{f0}:{f1};".encode())
    digest.update(b"|")
    for name, literal in zip(aig.po_names, aig.po_literals):
        digest.update(f"{name}={literal};".encode())
    return digest.hexdigest()


def library_fingerprint(library: GateLibrary) -> str:
    """Content hash of a characterized library.

    Covers every cell field that can reach a cached payload (Table-2 rows
    cache transistor counts, with-inverter figures and the full-swing flag
    in addition to the area/delay numbers used by mapping), so any change
    to the cell construction rules invalidates the cache.
    """
    digest = hashlib.sha256()
    digest.update(f"{library.name}:{library.tau_ps};".encode())
    for cell in library.cells:
        power = cell.power
        # The per-literal capacitance *distribution* matters, not just the
        # total: the pin loads recorded on mapped gates (and the power DP)
        # read individual polarity wires.
        literal_caps = ",".join(
            f"{literal.name}{'~' if literal.negated else ''}={cap:.9f}"
            for literal, cap in sorted(
                power.literal_capacitance.items(),
                key=lambda item: (item[0].name, item[0].negated),
            )
        )
        digest.update(
            f"{cell.function_id}:{cell.name}:{cell.arity}:{cell.function.bits}:"
            f"{cell.expression_text}:{cell.transistor_count}:{int(cell.full_swing)}:"
            f"{cell.area:.9f}:{cell.area_with_inverter:.9f}:"
            f"{cell.delay.fo4_worst:.9f}:{cell.delay.fo4_average:.9f}:"
            f"{cell.delay.parasitic_output:.9f}:"
            f"{power.switched_capacitance:.9f}:[{literal_caps}]:"
            f"{power.static_current_low:.9f}:{power.static_current_average:.9f}:"
            f"{power.low_state_fraction:.9f};".encode()
        )
    return digest.hexdigest()


@lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 of the ``repro`` source, the Python minor and numpy versions.

    Hashes the package-relative path and bytes of every ``*.py`` under the
    package, so any edit to the code that computes a payload changes every
    cache key, while an identical tree at another path keeps them.
    Computed once per process, at the first key.
    """
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    digest.update(repr((tuple(sys.version_info[:2]), numpy.__version__)).encode())
    sources = {path.relative_to(root).as_posix(): path for path in root.rglob("*.py")}
    for relative in sorted(sources):
        content = sources[relative].read_bytes()
        digest.update(f"{relative}:{len(content)};".encode())
        digest.update(content)
    return digest.hexdigest()


#: Registration rejects these names, so they always denote built-in cases.
_BUILTIN_NAMES = frozenset(case.name for case in BENCHMARKS)


def _benchmark_recipe(name: str) -> dict:
    """A built-in case's name (its generator is in :func:`source_digest`),
    else the structure of the AIG a run-time registration builds."""
    if name in _BUILTIN_NAMES:
        return {"builtin": name}
    return {"aig": aig_fingerprint(benchmark_by_name(name).build())}


@dataclass(frozen=True)
class MapJob:
    """One (benchmark, library, objective, flow) unit of Table-3 work.

    ``power_vectors``/``power_seed`` parameterize the Monte-Carlo activity
    estimation behind the power axis (and the ``power`` mapping objective);
    ``rounds``/``recovery`` select the mapper's required-time recovery
    rounds and their cost axis (see :func:`repro.synthesis.mapper.map_rounds`).
    All four are folded into the content-addressed cache key so results
    computed under one configuration never satisfy another.
    """

    benchmark: str
    family: LogicFamily
    objective: str = "delay"
    flow: str = DEFAULT_FLOW
    max_inputs: int = DEFAULT_MAX_INPUTS
    cut_limit: int = DEFAULT_CUT_LIMIT
    power_vectors: int = DEFAULT_VECTORS
    power_seed: int = DEFAULT_SEED
    rounds: int = 0
    recovery: str = "auto"

    def spec(self) -> tuple:
        """Picklable description handed to worker processes."""
        return (
            self.benchmark,
            self.family.value,
            self.objective,
            self.flow,
            self.max_inputs,
            self.cut_limit,
            self.power_vectors,
            self.power_seed,
            self.rounds,
            self.recovery,
        )

    def label(self) -> str:
        """Human-readable identity used by spans and the progress line."""
        return f"{self.benchmark}:{self.family.value}:{self.objective}"


@dataclass(frozen=True)
class MapJobResult:
    """Outcome of one :class:`MapJob`."""

    job: MapJob
    stats: MappingStats
    power: PowerStats
    aig_nodes: int
    aig_depth: int
    cached: bool


@dataclass(frozen=True)
class CharacterizationJob:
    """One Table-2 unit of work: characterize a whole family."""

    family: LogicFamily

    def spec(self) -> tuple:
        return (self.family.value,)

    def label(self) -> str:
        return f"table2:{self.family.value}"


def _payload_checksum(payload: dict) -> str:
    """Canonical sha256 over a payload's JSON form (verified on read)."""
    material = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/corruption/eviction tally of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    evicted: int = 0
    puts: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class ResultCache:
    """Content-addressed JSON store hardened for concurrent runners.

    One file per job result, in two-level shard directories
    (``<dir>/ab/cd/<key>.json``) so no single directory grows unbounded.
    Writes stage through a uniquely named ``mkstemp`` file in the target
    shard and commit with an atomic ``os.replace`` under an advisory
    per-entry ``flock`` -- two runners sharing the directory can race on
    the same key and the survivor is always one complete, valid entry.
    Entries carry a sha256 checksum of their payload, verified on every
    read; an unreadable or checksum-failing entry is *quarantined* (moved
    to ``<dir>/corrupt/`` and counted) instead of being silently re-read
    as a miss forever.  Entries with a different schema version are stale,
    not corrupt, and are overwritten in place by the next put.  With a
    size budget (``max_bytes`` or ``REPRO_CACHE_MAX_BYTES``) puts evict
    least-recently-used entries (hits refresh mtime) back under budget.
    All traffic is tallied in :attr:`stats` and mirrored to the tracer's
    counters.
    """

    def __init__(self, directory: Path, max_bytes: int | None = None) -> None:
        self.directory = Path(directory)
        if max_bytes is None:
            raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
            max_bytes = int(raw) if raw else None
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / key[2:4] / f"{key}.json"

    def quarantine_dir(self) -> Path:
        return self.directory / "corrupt"

    def get(self, key: str) -> dict | None:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (FileNotFoundError, NotADirectoryError):
            self.stats.misses += 1
            obs.count("cache.miss")
            return None
        except (OSError, ValueError):
            self._quarantine(path)
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
            # Foreign or older-schema content is stale, not corrupt; the
            # next put overwrites it in place.
            self.stats.misses += 1
            obs.count("cache.miss")
            return None
        payload = entry.get("payload")
        if (
            entry.get("key") != key
            or not isinstance(payload, dict)
            or entry.get("checksum") != _payload_checksum(payload)
        ):
            self._quarantine(path)
            return None
        self.stats.hits += 1
        obs.count("cache.hit")
        try:
            os.utime(path)  # LRU recency for size-based eviction
        except OSError:  # pragma: no cover - raced with an eviction
            pass
        return payload

    def put(self, key: str, payload: dict) -> None:
        path = self.path_for(key)
        shard = path.parent
        shard.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "payload": payload,
            "checksum": _payload_checksum(payload),
        }
        text = json.dumps(entry, sort_keys=True)
        with self._locked(path):
            fd, staging = tempfile.mkstemp(
                dir=shard, prefix=f".{key[:8]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(staging, path)
            except BaseException:
                try:
                    os.unlink(staging)
                except OSError:  # pragma: no cover - never committed
                    pass
                raise
        self.stats.puts += 1
        obs.count("cache.put")
        if self.max_bytes is not None:
            self._evict_to_budget()

    @contextmanager
    def _locked(self, path: Path) -> Iterator[None]:
        """Advisory per-entry write lock (no-op where flock is unavailable).

        ``os.replace`` already guarantees each committed entry is complete;
        the lock additionally serializes same-key writers so checkers never
        observe two staging files for one entry.  Lock files are tiny and
        deliberately never deleted (unlinking a held advisory lock file is
        the classic two-inode race).
        """
        if fcntl is None:
            yield
            return
        try:
            fd = os.open(path.with_suffix(".lock"), os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:  # pragma: no cover - unwritable shard
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing drops the flock

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside (counted) instead of dropping it."""
        self.stats.corrupt += 1
        obs.count("cache.corrupt")
        quarantine = self.quarantine_dir()
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            target = quarantine / f"{path.name}.{os.getpid()}-{self.stats.corrupt}"
            os.replace(path, target)
        except OSError:  # pragma: no cover - concurrent runner won the move
            pass

    def _evict_to_budget(self) -> None:
        """Unlink least-recently-used entries until back under ``max_bytes``."""
        entries: list[tuple[float, int, Path]] = []
        total = 0
        # Quarantined files and .lock files never count against the budget:
        # the glob only sees committed entries in two-level shards.
        for path in self.directory.glob("??/??/*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced with another evictor
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        for _mtime, size, path in sorted(entries, key=lambda e: (e[0], str(e[2]))):
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced with another evictor
                continue
            total -= size
            self.stats.evicted += 1
            obs.count("cache.evict")


def _job_label(job) -> str:
    """Span/progress label of a job (falls back to the class name)."""
    label = getattr(job, "label", None)
    return label() if callable(label) else type(job).__name__


def _resolve_cases(benchmark_names: tuple[str, ...] | None):
    """The benchmark cases, optionally restricted to a subset.

    Covers the built-in Table-3 set plus any benchmarks registered at run
    time (``repro.bench.registry.register_benchmark`` /
    ``register_blif_benchmark``, the runner's ``--extra-benchmark`` lane);
    without registrations this is exactly the built-in set.
    """
    from repro.bench.registry import all_benchmarks

    cases = all_benchmarks()
    if benchmark_names is None:
        return cases
    wanted = set(benchmark_names)
    cases = tuple(case for case in cases if case.name in wanted)
    missing = wanted - {case.name for case in cases}
    if missing:
        raise KeyError(f"unknown benchmarks requested: {sorted(missing)}")
    return cases


# Flow-optimized benchmark AIGs, so the three family jobs of one benchmark
# that land in the same process run the flow only once.  Lives for the
# process, keyed by the finite (benchmark, flow) registry: a later batch
# reuses flow outputs (e.g. --pareto after Table 3).  run_map_jobs strips
# their cut and array memos at batch end.
_OPTIMIZED_AIGS: dict[tuple[str, str], Aig] = {}

# Activity reports: the signal statistics depend only on (benchmark, flow,
# vectors, seed), so the family x objective jobs of one benchmark share a
# single propagation.  Lives for one batch: run_map_jobs clears it at the end.
_ACTIVITY_REPORTS: dict[tuple[str, str, int, int], object] = {}


def _pool_initializer(obs_config: dict | None = None) -> None:
    """Prepare a fresh pool worker.

    Installs any fault plan carried by the environment -- only here, so
    chaos faults fire exclusively in pool workers and the parent's
    deterministic in-process path stays fault-free by construction -- and
    adopts the parent's tracing switch (``obs_config``, see
    :func:`repro.obs.worker_config`): the worker clears any span buffer it
    inherited through ``fork`` and starts buffering telemetry per job for
    shipment back inside the payloads.  At exit the worker closes its
    shared-memory attachments (:func:`_release_attached_subjects`).
    """
    obs.activate_worker(obs_config)
    faults.install_from_env()
    mp_util.Finalize(None, _release_attached_subjects, exitpriority=0)


def _release_attached_subjects() -> None:
    """Close this worker's shared-memory attachments before it exits.

    Left to interpreter teardown, ``SharedMemory.__del__`` runs while the
    memoized AIGs still pin zero-copy views of the segment and prints a
    ``BufferError``.  Dropping the memos first releases the views.  Fork
    workers inherit their subjects, attach nothing and skip all of it.
    """
    if not shm.attachment_count():
        return
    _OPTIMIZED_AIGS.clear()
    _ACTIVITY_REPORTS.clear()
    shm.drop_attachments()


def _subject_aig(benchmark: str, flow: str) -> Aig:
    key = (benchmark, flow)
    cached = _OPTIMIZED_AIGS.get(key)
    if cached is None:
        try:
            case = benchmark_by_name(benchmark)
        except KeyError as error:
            # Worker processes started via spawn/forkserver re-import modules
            # and only see benchmarks registered at import time; surface that
            # instead of a bare KeyError from the registry.
            raise RuntimeError(
                f"benchmark {benchmark!r} is not registered in this worker "
                "process; run-time registrations (--extra-benchmark / "
                "register_benchmark) must come from an imported module (or "
                "use jobs=1) for parallel runs on spawn-based platforms"
            ) from error
        with obs.stage("build", benchmark=benchmark):
            subject = case.build()
        with obs.stage("optimize"):
            cached = run_flow(flow, subject).aig
        _OPTIMIZED_AIGS[key] = cached
    return cached


def _attach_obs(payload: dict) -> dict:
    """Ship this worker's buffered telemetry back inside the job payload.

    A no-op in the parent (in-process jobs record straight into the global
    buffer) and in disabled workers; the parent strips the blob before the
    payload reaches the result cache or the decoded results.
    """
    if obs.remote_active():
        blob = obs.drain_worker_blob()
        if blob is not None:
            payload["obs"] = blob
    return payload


def _run_map_job(transport: tuple) -> dict:
    """Execute one mapping job (worker-side; must stay picklable/pure).

    ``transport`` is ``(spec, subject_handle_or_None)``: the job spec and,
    when the parent published the optimized subject, the shared-memory
    handle that lets this process skip the flow and cut enumeration.  A
    failed attach is reported back in the payload (``shm_degraded``), which
    the parent counts and strips before caching.
    """
    spec, handle = transport
    degraded = False
    (
        benchmark,
        family_value,
        objective,
        flow,
        max_inputs,
        cut_limit,
        power_vectors,
        power_seed,
        rounds,
        recovery,
    ) = spec
    faults.on_job_start(f"{benchmark}:{family_value}:{objective}:{flow}:{rounds}")
    family = LogicFamily(family_value)
    with obs.span(
        f"job:{benchmark}:{family_value}:{objective}",
        category="job",
        benchmark=benchmark,
        family=family_value,
        objective=objective,
        flow=flow,
        rounds=rounds,
    ) as job_span:
        if handle is not None and (benchmark, flow) not in _OPTIMIZED_AIGS:
            try:
                _OPTIMIZED_AIGS[(benchmark, flow)] = shm.resolve_subject(handle)
                job_span.set("shm_subject", handle.key)
            except (OSError, ValueError):
                # Unreadable segment: recompute the subject from the spec.
                degraded = True
        aig = _subject_aig(benchmark, flow)
        job_span.set("aig_nodes", aig.num_ands)
        library = build_library(family)
        activity_key = (benchmark, flow, power_vectors, power_seed)
        activities = _ACTIVITY_REPORTS.get(activity_key)
        if activities is None:
            with obs.stage("activity"):
                activities = compute_activities(
                    aig, vectors=power_vectors, seed=power_seed
                )
            _ACTIVITY_REPORTS[activity_key] = activities
        mapped = technology_map(
            aig,
            library,
            matcher=matcher_for(library),
            objective=objective,
            max_inputs=max_inputs,
            cut_limit=cut_limit,
            activities=activities,
            rounds=rounds,
            recovery=recovery,
        )
        with obs.stage("power"):
            power = analyze_power(mapped, aig, library, activities)
        payload = {
            "stats": asdict(MappingStats.from_mapped(mapped)),
            "power": asdict(PowerStats.from_analysis(power)),
            "aig_nodes": aig.num_ands,
            "aig_depth": aig.depth(),
        }
    if degraded:
        payload["shm_degraded"] = 1
    return _attach_obs(payload)


def _run_characterization_job(spec: tuple) -> dict:
    """Execute one Table-2 characterization job (worker-side)."""
    (family_value,) = spec
    with obs.span(
        f"job:table2:{family_value}", category="job", family=family_value
    ):
        library = build_library(LogicFamily(family_value))
        rows, summary = characterize_family(library)
        payload = {
            "rows": [asdict(row) for row in rows],
            "summary": asdict(summary),
        }
    return _attach_obs(payload)


class ExperimentEngine:
    """Schedules experiment jobs over processes with on-disk memoization.

    ``jobs`` is the number of worker processes (``1`` selects the
    deterministic in-process path, which parallel runs are bit-identical
    to).  ``use_cache=False`` disables the on-disk cache entirely; otherwise
    results live under ``cache_dir`` (default: :func:`default_cache_dir`)
    bounded by ``cache_max_bytes`` (default: ``REPRO_CACHE_MAX_BYTES``,
    unbounded when unset).  ``retry_policy`` governs the parallel batches'
    per-job timeouts and crash/timeout retries (default:
    :meth:`repro.experiments.resilience.RetryPolicy.from_env`); every
    abnormal event is collected on :attr:`failures` and summarized by
    :meth:`robustness_stats`.  ``progress`` is an optional
    :class:`repro.obs.LiveProgress` fed from the completion callbacks
    (cache hits, per-job commits, resilience failures) -- the live stderr
    line of parallel runs.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Path | str | None = None,
        use_cache: bool = True,
        retry_policy: resilience.RetryPolicy | None = None,
        cache_max_bytes: int | None = None,
        progress: "obs.LiveProgress | None" = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.progress = progress
        self.retry_policy = retry_policy or resilience.RetryPolicy.from_env()
        self.failures: list[resilience.JobFailure] = []
        self.pool_rebuilds = 0
        self.degraded_jobs = 0
        self.cache: ResultCache | None = None
        if use_cache:
            self.cache = ResultCache(
                Path(cache_dir) if cache_dir else default_cache_dir(),
                max_bytes=cache_max_bytes,
            )
        # Unlink shared-memory segments leaked by crashed earlier runs
        # before this one publishes its own (see shm.reap_stale_segments).
        try:
            shm.reap_stale_segments()
        except OSError:  # pragma: no cover - /dev/shm in a bad state
            pass

    # -- generic job scheduling ---------------------------------------------

    def _execute(
        self,
        worker,
        payloads: list[tuple],
        initializer: Callable | None = None,
        initargs: tuple = (),
        on_result: Callable[[int, dict], None] | None = None,
    ) -> list[dict]:
        """Run job payloads through ``worker``, in processes when possible.

        Parallel batches go through the resilient executor: per-job
        futures with the engine's retry policy, pool rebuild on worker
        crashes, and per-job in-process degradation once retries are
        exhausted (whole-batch fallback only when no pool can be created
        at all).  Exceptions raised *by* a job propagate unchanged so real
        flow errors are never silently retried.  ``on_result(index,
        payload)`` fires the moment each job completes, in both the
        parallel and the in-process paths.
        """
        if self.jobs > 1 and len(payloads) > 1:
            outcome = resilience.run_resilient(
                worker,
                payloads,
                jobs=min(self.jobs, len(payloads)),
                policy=self.retry_policy,
                initializer=initializer,
                initargs=initargs,
                on_result=on_result,
                on_failure=(
                    (lambda failure: self.progress.job_failed(
                        failure.kind, failure.resolution))
                    if self.progress is not None
                    else None
                ),
            )
            self.failures.extend(outcome.failures)
            self.pool_rebuilds += outcome.rebuilds
            self.degraded_jobs += outcome.degraded
            return outcome.results
        results = []
        for index, payload_in in enumerate(payloads):
            payload = worker(payload_in)
            if on_result is not None:
                on_result(index, payload)
            results.append(payload)
        return results

    def _run_jobs(
        self,
        worker,
        jobs: Sequence,
        keys: dict,
        prepare_parallel: Callable[[list], None] | None = None,
        transport: Callable[[object], tuple] | None = None,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> dict:
        """Cache-aware scheduling shared by map and characterization jobs.

        ``prepare_parallel`` runs in the parent just before a process pool
        would be forked (i.e. only when there are cache misses to execute
        in parallel), so expensive shared state can be built once and
        inherited by the workers.  ``transport`` turns a pending job into
        the picklable payload handed to ``worker`` (default: the job's
        ``spec()``); it runs after ``prepare_parallel`` so it can embed
        handles to state published there.
        """
        if self.progress is not None:
            self.progress.start_batch(len(jobs))
        results: dict = {}
        pending = []
        for job in jobs:
            payload = self.cache.get(keys[job]) if self.cache else None
            if payload is not None:
                # Synthesized span: a hit executes nothing, but the trace
                # must still attribute the job to the cache (the service
                # telemetry's hit-rate view reads these).
                obs.add_span(
                    f"cache-hit:{_job_label(job)}",
                    "cache",
                    key=keys[job],
                )
                if self.progress is not None:
                    self.progress.job_cached()
                results[job] = (payload, True)
            else:
                pending.append(job)
        if pending:
            if prepare_parallel is not None and self.jobs > 1 and len(pending) > 1:
                prepare_parallel(pending)

            def commit(index: int, payload: dict) -> None:
                # Worker-side telemetry and transport fallbacks ride back
                # inside the payload; fold them into the parent's counters
                # and strip them before the payload is cached or decoded
                # (they must never leak into content-addressed artifacts).
                obs.merge_blob(payload.pop("obs", None))
                if payload.pop("shm_degraded", False):
                    shm.note_degraded()
                if self.progress is not None:
                    self.progress.job_done()
                # Committed the moment each job finishes, not at batch end:
                # a crash later in the batch never discards finished work,
                # and a rerun after a fatal error resumes from the cache.
                if self.cache is not None:
                    self.cache.put(keys[pending[index]], payload)

            payloads = self._execute(
                worker,
                [transport(job) if transport else job.spec() for job in pending],
                initializer=initializer,
                initargs=initargs,
                on_result=commit,
            )
            for job, payload in zip(pending, payloads):
                results[job] = (payload, False)
        return results

    def robustness_stats(self) -> dict:
        """Cache / transport / failure counters accumulated by this engine.

        What the runner prints under ``--cache-stats`` and the chaos suite
        serializes into the failure-classification artifact.
        """
        counts: dict[str, int] = {}
        for failure in self.failures:
            counts[failure.kind] = counts.get(failure.kind, 0) + 1
        return {
            "cache": self.cache.stats.as_dict() if self.cache else None,
            "shm_degraded": shm.degraded_count(),
            "pool_rebuilds": self.pool_rebuilds,
            "degraded_jobs": self.degraded_jobs,
            "failure_counts": counts,
            "failures": [failure.as_dict() for failure in self.failures],
        }

    # -- mapping jobs (Table 3 / Figure 6) ----------------------------------

    def map_job_key(self, job: MapJob) -> str:
        """Cache key of one mapping job, from its recipe (nothing is built)."""
        material = json.dumps(
            {
                "kind": "map",
                "source": source_digest(),
                "benchmark": _benchmark_recipe(job.benchmark),
                "family": job.family.value,
                "objective": job.objective,
                "flow": job.flow,
                "flow_spec": get_flow(job.flow).fingerprint(),
                "max_inputs": job.max_inputs,
                "cut_limit": job.cut_limit,
                "power_vectors": job.power_vectors,
                "power_seed": job.power_seed,
                "rounds": job.rounds,
                "recovery": job.recovery,
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def run_map_jobs(self, jobs: Sequence[MapJob]) -> dict[MapJob, MapJobResult]:
        """Run mapping jobs (cache first, then processes) and decode results."""
        keys = {job: self.map_job_key(job) for job in jobs}
        handles: dict[tuple[str, str, int, int], shm.SubjectHandle] = {}

        def subject_of(job: MapJob) -> tuple[str, str, int, int]:
            return (job.benchmark, job.flow, job.max_inputs, job.cut_limit)

        def prepare_parallel(pending: list) -> None:
            # Build every required library matcher before the pool forks so
            # worker processes inherit the warm caches instead of each paying
            # the (expensive) matcher construction on their own.
            with obs.span(
                "prepare-parallel", category="engine", pending=len(pending)
            ):
                for family in {job.family for job in pending}:
                    matcher_for(build_library(family))
                # Publish each distinct optimized subject (flow output plus
                # enumerated cuts) into shared memory once, keyed by its
                # content-addressed structure hash, so every worker maps the
                # same buffers instead of re-running the flow per process.
                for benchmark, flow, max_inputs, cut_limit in sorted(
                    {subject_of(job) for job in pending}
                ):
                    try:
                        aig = _subject_aig(benchmark, flow)
                        handles[(benchmark, flow, max_inputs, cut_limit)] = (
                            shm.publish_subject(
                                f"{aig_fingerprint(aig)}:{max_inputs}:{cut_limit}",
                                aig,
                                aig_arrays(aig),
                                cut_set_for(aig, max_inputs, cut_limit),
                            )
                        )
                    except OSError:
                        # No usable shared memory on this platform/filesystem:
                        # ship the bare spec and let workers recompute.
                        shm.note_degraded()
                        continue

        def transport(job: MapJob) -> tuple:
            return (job.spec(), handles.get(subject_of(job)))

        try:
            with obs.span("run_map_jobs", category="engine", jobs=len(jobs)):
                raw = self._run_jobs(
                    _run_map_job,
                    list(jobs),
                    keys,
                    prepare_parallel=prepare_parallel,
                    transport=transport,
                    initializer=_pool_initializer,
                    initargs=(obs.worker_config(),),
                )
        finally:
            shm.release_subjects()
            # The single release point of the batch's memos in the parent:
            # the cut sets (the largest per-run allocations, with their
            # function/match/candidate tables) and array views are stripped
            # from the AIGs pinned by _OPTIMIZED_AIGS.  Built-in subjects
            # stay cached for later batches; a run-time registration's file
            # or generator may change before the next batch, so its
            # subjects are dropped.
            _ACTIVITY_REPORTS.clear()
            for key in [key for key in _OPTIMIZED_AIGS if key[0] not in _BUILTIN_NAMES]:
                del _OPTIMIZED_AIGS[key]
            for aig in _OPTIMIZED_AIGS.values():
                aig.__dict__.pop("_cut_sets", None)
                aig.__dict__.pop("_array_view", None)
        results: dict[MapJob, MapJobResult] = {}
        for job, (payload, cached) in raw.items():
            results[job] = MapJobResult(
                job=job,
                stats=MappingStats(**payload["stats"]),
                power=PowerStats(**payload["power"]),
                aig_nodes=int(payload["aig_nodes"]),
                aig_depth=int(payload["aig_depth"]),
                cached=cached,
            )
        return results

    def run_table3(
        self,
        benchmark_names: tuple[str, ...] | None = None,
        families: tuple[LogicFamily, ...] = TABLE3_FAMILIES,
        objective: str = "delay",
        flow: str = DEFAULT_FLOW,
        power_vectors: int = DEFAULT_VECTORS,
        power_seed: int = DEFAULT_SEED,
        rounds: int = 0,
        recovery: str = "auto",
    ) -> Table3Result:
        """Regenerate Table 3 through the job engine.

        ``flow`` names the built-in technology-independent flow run before
        mapping.  ``rounds``/``recovery`` select the mapper's required-time
        recovery configuration (``--map-rounds`` / ``--map-recovery`` on the
        runner).
        """
        get_flow(flow)  # reject unknown flows before doing any work
        cases = _resolve_cases(benchmark_names)

        def job_for(case_name: str, family: LogicFamily) -> MapJob:
            return MapJob(
                case_name,
                family,
                objective=objective,
                flow=flow,
                power_vectors=power_vectors,
                power_seed=power_seed,
                rounds=rounds,
                recovery=recovery,
            )

        jobs = [job_for(case.name, family) for case in cases for family in families]
        by_job = self.run_map_jobs(jobs)

        result = Table3Result(
            flow=flow, objective=objective, rounds=rounds, recovery=recovery
        )
        for case in cases:
            stats: dict[LogicFamily, MappingStats] = {}
            power: dict[LogicFamily, PowerStats] = {}
            aig_nodes = aig_depth = 0
            for family in families:
                job_result = by_job[job_for(case.name, family)]
                stats[family] = job_result.stats
                power[family] = job_result.power
                aig_nodes = job_result.aig_nodes
                aig_depth = job_result.aig_depth
            result.rows.append(
                Table3Row(
                    name=case.name,
                    function=case.function,
                    aig_nodes=aig_nodes,
                    aig_depth=aig_depth,
                    results=stats,
                    paper=_paper_row(case.name),
                    power=power,
                )
            )
        return result

    # -- characterization jobs (Table 2) ------------------------------------

    def characterization_job_key(self, job: CharacterizationJob) -> str:
        material = json.dumps(
            {
                "kind": "table2",
                "family": job.family.value,
                "source": source_digest(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def run_table2(
        self, families: tuple[LogicFamily, ...] = TABLE2_FAMILIES
    ) -> Table2Result:
        """Regenerate Table 2 through the job engine."""
        jobs = [CharacterizationJob(family) for family in families]
        keys = {job: self.characterization_job_key(job) for job in jobs}
        with obs.span("run_table2", category="engine", jobs=len(jobs)):
            raw = self._run_jobs(
                _run_characterization_job,
                jobs,
                keys,
                initializer=_pool_initializer,
                initargs=(obs.worker_config(),),
            )

        rows: dict[LogicFamily, tuple[CellCharacterization, ...]] = {}
        summaries: dict[LogicFamily, FamilySummary] = {}
        paper_rows: dict[LogicFamily, dict] = {}
        paper_averages: dict[LogicFamily, object] = {}
        for job in jobs:
            payload, _cached = raw[job]
            rows[job.family] = tuple(
                CellCharacterization(**row) for row in payload["rows"]
            )
            summaries[job.family] = FamilySummary(**payload["summary"])
            key = FAMILY_KEYS[job.family]
            paper_rows[job.family] = {
                function_id: columns[key]
                for function_id, columns in PAPER_TABLE2.items()
                if key in columns
            }
            paper_averages[job.family] = PAPER_TABLE2_AVERAGES[key]
        return Table2Result(
            rows=rows,
            summaries=summaries,
            paper_rows=paper_rows,
            paper_averages=paper_averages,
        )

    # -- figure 6 ------------------------------------------------------------

    def run_figure6(
        self, benchmark_names: tuple[str, ...] | None = None
    ) -> Figure6Result:
        """Regenerate the Figure-6 series (reuses the Table-3 job results)."""
        return figure6_from_table3(self.run_table3(benchmark_names=benchmark_names))

    # -- pareto fronts -------------------------------------------------------

    def run_pareto(self, benchmark_names: tuple[str, ...] | None = None, **kwargs):
        """Per-benchmark area/delay/power Pareto fronts across the families.

        Thin wrapper over :func:`repro.experiments.pareto.run_pareto` bound
        to this engine; see that module for the family/objective knobs.
        """
        from repro.experiments.pareto import run_pareto

        return run_pareto(benchmark_names=benchmark_names, engine=self, **kwargs)

    # -- artifacts -----------------------------------------------------------

    def write_artifacts(
        self,
        directory: Path | str,
        table2: Table2Result | None = None,
        table3: Table3Result | None = None,
        figure6: Figure6Result | None = None,
        pareto=None,
    ) -> list[Path]:
        """Write JSON artifacts for the given results; returns written paths."""
        from repro.experiments.pareto import pareto_payload

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        payloads = {
            "table2.json": table2_payload(table2) if table2 else None,
            "table3.json": table3_payload(table3) if table3 else None,
            "figure6.json": figure6_payload(figure6) if figure6 else None,
            "pareto.json": pareto_payload(pareto) if pareto else None,
        }
        for filename, payload in payloads.items():
            if payload is None:
                continue
            path = directory / filename
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            written.append(path)
        return written


def table2_payload(result: Table2Result) -> dict:
    """JSON-ready view of a Table-2 result."""
    return {
        "families": {
            family.value: {
                "summary": asdict(result.summaries[family]),
                "cells": [asdict(row) for row in result.rows[family]],
            }
            for family in result.summaries
        }
    }


def table3_payload(result: Table3Result) -> dict:
    """JSON-ready view of a Table-3 result.

    The recovery metadata is only emitted for recovered runs: round-0
    payloads stay byte-identical to the pre-recovery format so archived
    artifacts remain directly comparable.
    """
    payload = {
        "flow": result.flow,
        "objective": result.objective,
        "rows": [
            {
                "name": row.name,
                "function": row.function,
                "aig_nodes": row.aig_nodes,
                "aig_depth": row.aig_depth,
                "results": {
                    family.value: asdict(stats)
                    for family, stats in row.results.items()
                },
                "power": {
                    family.value: asdict(stats)
                    for family, stats in row.power.items()
                },
            }
            for row in result.rows
        ],
        "average_improvements": {
            family.value: {
                metric: result.average_improvement(family, metric)
                for metric in ("gates", "area", "levels", "normalized_delay")
            }
            for family in (LogicFamily.TG_STATIC, LogicFamily.TG_PSEUDO)
            if result.rows and family in result.rows[0].results
        },
        "average_speedups": {
            family.value: result.average_speedup(family)
            for family in (LogicFamily.TG_STATIC, LogicFamily.TG_PSEUDO)
            if result.rows and family in result.rows[0].results
        },
    }
    if result.rounds:
        payload["map_rounds"] = result.rounds
        payload["map_recovery"] = result.recovery
    return payload


def figure6_payload(result: Figure6Result) -> dict:
    """JSON-ready view of a Figure-6 result."""
    return {
        "series": result.series(),
        "average_static_speedup": result.average_static_speedup,
        "average_pseudo_speedup": result.average_pseudo_speedup,
        "paper_average_static_speedup": result.paper_average_static_speedup,
        "paper_average_pseudo_speedup": result.paper_average_pseudo_speedup,
    }
