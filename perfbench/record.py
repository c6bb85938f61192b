"""The run record written next to every result.

Numbers from different boxes or commits must never be compared; the record
says where a result came from and under what load it was taken.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy


def commit(root: Path) -> str | None:
    """The checkout's git commit, or ``None`` outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_lines(root: Path) -> int:
    """Lines of Python under ``src/`` (informational, not a metric)."""
    return sum(
        len(path.read_bytes().splitlines()) for path in (root / "src").rglob("*.py")
    )


def run_record(root: Path, workload: str, seed: int, trace: int, load_before, samples) -> dict:
    return {
        "commit": commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "samples": samples,
        "src.lines_n": src_lines(root),
    }
