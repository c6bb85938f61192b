"""The benchmark's workloads and the runner arguments each one sends.

Every workload regenerates Table 2, Table 3 and Figure 6 with ``--json``.
They differ in the layers they load:

``paper_cold``
    The default command on a first run (``--jobs 1``, empty cache): the
    synthesis layers (flow, cuts, match, cover) do most of the work.
``paper_warm``
    The same command against a cache filled by an untimed set-up run: no
    synthesis runs, so characterization, cache keys, source-AIG builds,
    cache reads and imports take all the time.  It bypasses every
    synthesis optimisation.
``recover_j2``
    ``--jobs 2 --map-rounds 2`` on an empty cache: the only workload that
    runs the parent's serial prelude, the process pool, the shared-memory
    transport and the resilience layer; the recovery rounds roughly double
    the mapper's work.  ``paper_cold`` is its bypass.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int
    map_rounds: int
    warm: bool


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "paper_cold",
            "default command, empty cache, --jobs 1: synthesis (flow, cuts, "
            "match, cover) does most of the work",
            jobs=1,
            map_rounds=0,
            warm=False,
        ),
        Workload(
            "paper_warm",
            "same command on a filled cache (49/49 hits): synthesis is "
            "bypassed, imports, characterization and cache reads remain",
            jobs=1,
            map_rounds=0,
            warm=True,
        ),
        Workload(
            "recover_j2",
            "--jobs 2 --map-rounds 2, empty cache: serial prelude, process "
            "pool, shared memory and resilience run, mapper work doubles",
            jobs=2,
            map_rounds=2,
            warm=False,
        ),
    )
}

#: Jobs of one full run: 4 Table-2 characterizations plus 15 benchmarks x 3
#: Table-3 libraries.  A warm run must hit the cache for every one of them.
EXPECTED_JOBS = 49


def runner_args(
    workload: Workload, seed: int, cache_dir: str, json_dir: str, jobs: int | None = None
) -> list[str]:
    """Arguments of ``repro.experiments.runner`` for one run of ``workload``.

    ``seed`` is the workload seed, passed on as ``--power-seed``; ``jobs``
    overrides the workload's worker count (the traced ``--jobs 1`` view of
    a parallel workload).
    """
    args = [
        "--jobs",
        str(workload.jobs if jobs is None else jobs),
        "--power-seed",
        str(seed),
        "--cache-dir",
        cache_dir,
        "--json",
        json_dir,
        "--cache-stats",
    ]
    if workload.map_rounds:
        args += ["--map-rounds", str(workload.map_rounds)]
    return args
