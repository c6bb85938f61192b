"""Run one workload of the runner benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_cold --seed 2009 --seconds 20 --trace 0

Load comes from this one benchmark process in a closed loop: one runner
invocation at a time, the next one started when the previous one ended,
for ``--seconds`` seconds.  Every invocation is a fresh process with its
own temporary ``--cache-dir`` and ``--json`` directory under
``.perfbench/`` in the checkout, and every output is checked
(:mod:`perfbench.gate`).

``--trace 0`` reports the end-to-end metrics: median wall time, CPU time
and peak resident set per invocation, and ``setup_s``, the median over
:data:`SETUP_REPEATS` fresh interpreters of importing
``repro.experiments.runner`` and constructing an ``ExperimentEngine``.
Failed operations (a run that fails a check, or a job the runner retried,
degraded or lost to a crash) are reported as ``failed`` out of
``attempted``, one operation per run and per job.

``--trace 1`` reports the per-layer metrics: the loop alternates an
untraced and a traced invocation of :mod:`perfbench.traced` (for a
parallel workload also a traced ``--jobs 1`` invocation, whose in-process
view supplies the layers that run inside workers), and each metric is the
median over those cycles.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run record
(:mod:`perfbench.record`) and the metrics are also written to
``.perfbench/results/``.  The exit code is non-zero when an output check
failed or when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import gate, imports, procs, tracing  # noqa: E402
from perfbench.record import run_record  # noqa: E402
from perfbench.workloads import EXPECTED_JOBS, WORKLOADS, Workload, runner_args  # noqa: E402

WORK_DIR = ".perfbench"
SETUP_REPEATS = 7
IMPORT_REPEATS = 3

END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")

#: Layers that run inside the workers of a parallel run, where the parent's
#: wrappers cannot see; a parallel workload takes them from its traced
#: ``--jobs 1`` invocation.  Everything else comes from the parallel run.
WORKER_SIDE = (
    "core.characterize_family_s",
    "matcher.match_table_s",
    "matcher.matched_ratio",
    "mapper.technology_map_s",
    "mapper.gates_n",
    "analysis.activity_s",
    "analysis.power_s",
)

POOL_METRICS = (
    "engine.job_p50_ms",
    "engine.job_p90_ms",
    "engine.worker_busy_ratio",
    "resilience.retries_n",
    "resilience.rebuilds_n",
    "resilience.degraded_n",
    "mem.parent_rss_mb",
    "mem.worker_rss_mb",
)

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
import repro.experiments.runner
from repro.experiments.engine import ExperimentEngine
ExperimentEngine(jobs=int(sys.argv[2]), cache_dir=sys.argv[1])
print(time.perf_counter() - start)
"""


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), ("_n", "count"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"metric {metric!r} has no unit suffix")


def per_layer_names() -> tuple[str, ...]:
    """Every per-layer metric a ``--trace 1`` run reports."""
    layers = tuple(tracing.layer_metrics([], {}, 0.0))
    return imports.METRICS + layers + POOL_METRICS + ("trace.overhead_s",)


class WorkloadRun:
    """One workload run: its directories, checks and failure tally."""

    def __init__(self, workload: Workload, seed: int, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = procs.child_env(ROOT, tmp)
        self.expected = gate.expected_digests(gate.load_digests(), workload.name, seed)
        self.template: Path | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._runs = 0

    def fresh_dir(self) -> Path:
        self._runs += 1
        path = self.tmp / f"run{self._runs:04d}"
        path.mkdir()
        return path

    def setup(self) -> list[float]:
        """Untimed preparation, then the ``setup_s`` samples."""
        procs.invoke(
            procs.python("-m", "compileall", "-q", str(ROOT / "src")),
            self.env, ROOT, self.tmp / "compileall.log",
        )
        samples = []
        for _ in range(SETUP_REPEATS):
            run = self.fresh_dir()
            done = procs.invoke(
                procs.python("-c", SETUP_PROBE, str(run / "cache"), str(self.workload.jobs)),
                self.env, ROOT, run / "log.txt",
            )
            if done.exit_code != 0:
                raise RuntimeError(f"set-up probe failed:\n{done.output}")
            samples.append(float(done.output.split()[-1]))
        if self.workload.warm:
            # Fill a template cache once; each timed run gets its own copy.
            _, run = self.invoke(None, warm=False)
            self.template = run / "cache"
            _, run = self.invoke(None)  # must already see 49/49 hits
        return samples

    def invoke(self, harness: str | None, jobs: int | None = None, metrics_out: bool = False, warm: bool | None = None):
        """One checked runner invocation; ``harness`` is ``None`` for the
        bare runner, ``"plain"`` or ``"traced"`` for :mod:`perfbench.traced`."""
        warm = self.workload.warm if warm is None else warm
        run = self.fresh_dir()
        if warm:
            shutil.copytree(self.template, run / "cache")
        args = runner_args(self.workload, self.seed, str(run / "cache"), str(run / "json"), jobs=jobs)
        if metrics_out:
            args += ["--metrics-out", str(run / "metrics.json")]
        if harness is None:
            command = procs.python("-m", "repro.experiments.runner", *args)
        else:
            flags = ["--plain"] if harness == "plain" else []
            command = procs.python(
                str(ROOT / "perfbench" / "traced.py"), *flags, str(run / "trace.json"), "--", *args
            )
        done = procs.invoke(command, self.env, ROOT, run / "log.txt")
        self.check(done, run, warm, harness is not None)
        return done, run

    def check(self, done: procs.Completed, run: Path, warm: bool, traced: bool) -> None:
        errors = []
        if done.exit_code != 0:
            errors.append(f"exit code {done.exit_code}")
        errors += gate.artifact_errors(run / "json", self.expected)
        if done.leaked_segments:
            errors.append(f"leaked shared memory: {done.leaked_segments}")
        job_failures = 0
        stats = procs.cache_stats(done.output)
        if stats is None:
            errors.append("no --cache-stats counters in the output")
        else:
            cache = stats["cache"]
            if warm and (cache["hits"], cache["misses"]) != (EXPECTED_JOBS, 0):
                errors.append(f"warm run: {cache['hits']} hits, {cache['misses']} misses")
            if not warm and (cache["misses"], cache["puts"]) != (EXPECTED_JOBS, EXPECTED_JOBS):
                errors.append(f"cold run: {cache['misses']} misses, {cache['puts']} puts")
            job_failures = len(stats["failures"]) + stats["shm_degraded"] + cache["corrupt"]
        if traced:
            report_path = run / "trace.json"
            if report_path.is_file():
                errors += json.loads(report_path.read_text())["netlist_errors"]
            else:
                errors.append("the traced harness wrote no report")
        self.attempted += 1 + EXPECTED_JOBS
        self.failed += (1 if errors else 0) + job_failures
        self.errors += [f"{run.name}: {error}" for error in errors]
        if errors:
            print(f"{run.name}: FAILED {errors}\n{done.output[-4000:]}", file=sys.stderr)


def timed_loop(workload_run: WorkloadRun, seconds: float) -> dict[str, list[float]]:
    """Closed loop of bare runner invocations for ``seconds``."""
    samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    deadline = time.perf_counter() + seconds
    while not samples["wall_s"] or time.perf_counter() < deadline:
        done, _ = workload_run.invoke(None)
        samples["wall_s"].append(done.wall_s)
        samples["cpu_s"].append(done.cpu_s)
        samples["peak_rss_mb"].append(done.peak_rss_mb)
    return samples


class RunFailed(Exception):
    """A traced invocation failed its checks, so it yields no metrics."""


def _report(run: Path) -> dict:
    path = run / "trace.json"
    if not path.is_file():
        raise RunFailed(run.name)
    return json.loads(path.read_text())


def _layers(report: dict) -> tuple[list[tracing.Span], dict[str, float]]:
    spans = [tracing.Span(**span) for span in report["spans"]]
    return spans, tracing.layer_metrics(spans, report["counts"], report["wall_s"])


def traced_cycle(workload_run: WorkloadRun) -> tuple[dict[str, float], float, float]:
    """One untraced and one traced invocation (plus the traced ``--jobs 1``
    view of a parallel workload); returns the per-layer metrics and the
    untraced and traced wall times of the timed call."""
    parallel = workload_run.workload.jobs > 1
    _, plain_run = workload_run.invoke("plain")
    # --metrics-out turns on the program's own tracer, whose job histograms
    # are the only view into the workers; its cost lands in trace.overhead_s.
    _, run = workload_run.invoke("traced", metrics_out=parallel)
    plain, report = _report(plain_run), _report(run)
    spans, metrics = _layers(report)
    metrics.update(dict.fromkeys(POOL_METRICS, 0.0))
    if parallel:
        _, serial_run = workload_run.invoke("traced", jobs=1)
        _, serial = _layers(_report(serial_run))
        for name in WORKER_SIDE:
            metrics[name] = serial[name]
        jobs = json.loads((run / "metrics.json").read_text())["histograms"]["job_latency_ms"]
        pool_s = tracing.total_duration(spans, "engine.pool")
        metrics["engine.job_p50_ms"] = jobs["p50"]
        metrics["engine.job_p90_ms"] = jobs["p90"]
        if pool_s > 0:
            busy_s = jobs["count"] * jobs["mean"] / 1000.0
            metrics["engine.worker_busy_ratio"] = busy_s / (pool_s * workload_run.workload.jobs)
    stats = procs.cache_stats((run / "log.txt").read_text())
    if stats is None:
        raise RunFailed(run.name)
    metrics["resilience.retries_n"] = sum(
        1 for failure in stats["failures"] if failure["resolution"] == "retry"
    )
    metrics["resilience.rebuilds_n"] = stats["pool_rebuilds"]
    metrics["resilience.degraded_n"] = stats["degraded_jobs"] + stats["shm_degraded"]
    metrics["mem.parent_rss_mb"] = report["parent_rss_mb"]
    metrics["mem.worker_rss_mb"] = report["worker_rss_mb"]
    return metrics, plain["wall_s"], report["wall_s"]


def import_breakdown(workload_run: WorkloadRun) -> dict[str, list[float]]:
    runs = []
    for _ in range(IMPORT_REPEATS):
        run = workload_run.fresh_dir()
        done = procs.invoke(
            procs.python("-X", "importtime", "-c", "import repro.experiments.runner"),
            workload_run.env, ROOT, run / "log.txt",
        )
        if done.exit_code != 0:
            raise RuntimeError(f"import of the runner failed:\n{done.output}")
        runs.append(imports.import_metrics(done.output))
    return {name: [run[name] for run in runs] for name in imports.METRICS}


def measure(workload_run: WorkloadRun, seconds: float, trace: int) -> dict[str, list[float]]:
    """The samples of every metric the run reports (``--trace`` selects
    the end-to-end or the per-layer set); each metric is their median."""
    setup = workload_run.setup()
    if not trace:
        samples = timed_loop(workload_run, seconds)
        samples["setup_s"] = setup
        return {name: samples[name] for name in END_TO_END}
    cycles, plain_walls, traced_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        metrics, plain_wall, traced_wall = traced_cycle(workload_run)
        cycles.append(metrics)
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
    samples = {name: [cycle[name] for cycle in cycles] for name in cycles[0]}
    samples["trace.overhead_s"] = [
        statistics.median(traced_walls) - statistics.median(plain_walls)
    ]
    samples.update(import_breakdown(workload_run))
    return {name: samples[name] for name in per_layer_names()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument(
        "--seed", type=int, default=gate.load_digests()["seed"],
        help="workload seed, passed to the runner as --power-seed "
        "(default: the program's default power seed)",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "experiments" / "runner.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    work = ROOT / WORK_DIR
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    workload_run = WorkloadRun(WORKLOADS[args.workload], args.seed, tmp)
    try:
        samples = measure(workload_run, args.seconds, args.trace)
    except RunFailed:
        samples = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    counts = {name: len(values) for name, values in samples.items()}

    record = run_record(ROOT, args.workload, args.seed, args.trace, load_before, counts)
    correct = not workload_run.errors
    result = {
        "correct": correct,
        "attempted": workload_run.attempted,
        "failed": workload_run.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    results = work / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"record": record, "result": result, "samples": samples, "errors": workload_run.errors},
            handle, indent=2,
        )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit_of(name):<6} n={counts[name]}")
    print(f"  {'failed_frac':<34} {workload_run.failed / workload_run.attempted:>14.6g} {'ratio':<6} "
          f"n={workload_run.attempted}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
