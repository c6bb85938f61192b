"""One in-process runner invocation, with or without the layer wrappers.

Usage: ``python perfbench/traced.py [--plain] OUT.json -- RUNNER_ARGS...``

Imports ``repro.experiments.runner``, installs the wrappers of
:mod:`perfbench.tracing` (unless ``--plain``), times
``runner.main(RUNNER_ARGS)`` and writes to ``OUT.json``: the wall time of
that call, the spans, the counts, the process's and its reaped children's
peak resident sets and the verdict of :func:`perfbench.gate.netlist_errors`
on every netlist ``technology_map`` returned in this process.  The
``--plain`` invocation times the same call untraced; the difference between
the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import gate, tracing  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plain", action="store_true", help="install no wrappers")
    parser.add_argument("out")
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    runner_args = argv[split + 1:]

    from repro.bench.registry import benchmark_by_name
    from repro.experiments import runner

    recorder = tracing.Recorder()
    if not args.plain:
        tracing.install(recorder)
    start = time.perf_counter()
    exit_code = runner.main(runner_args)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    # The check below builds source circuits through wrapped calls: keep
    # only what the timed call recorded.
    spans, counts = list(recorder.spans), dict(recorder.counts)

    errors: list[str] = []
    for netlist in recorder.netlists:
        errors += gate.netlist_errors(netlist, benchmark_by_name(netlist.benchmark).build())
    report = {
        "exit_code": exit_code,
        "wall_s": wall,
        "spans": [asdict(span) for span in spans],
        "counts": counts,
        "parent_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "worker_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "netlists_checked": len(recorder.netlists),
        "netlist_errors": errors,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
