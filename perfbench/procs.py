"""Hermetic child processes: environment, timing, resource use, leak check."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

SHM_DIR = Path("/dev/shm")
#: Prefix of the runner's shared-memory segments (``repro.experiments.shm``).
SHM_PREFIX = "repro"

#: A single invocation that runs longer is killed and counted as failed.
INVOCATION_TIMEOUT_S = 120.0


def child_env(root: Path, tmp: Path) -> dict[str, str]:
    """The environment of every child: the checkout's ``src`` and no ambient
    ``REPRO_*`` knob (fault plans, timeouts, retries, cache bounds, scalar
    matching, cache location), with the live progress line forced off."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["REPRO_LIVE"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env


def shm_segments() -> set[str]:
    """Names of the runner's shared-memory segments now present."""
    if not SHM_DIR.is_dir():
        return set()
    return {entry.name for entry in SHM_DIR.iterdir() if entry.name.startswith(SHM_PREFIX)}


@dataclass
class Completed:
    exit_code: int
    wall_s: float
    #: User plus system CPU of the process and every child it reaped.
    cpu_s: float
    #: Largest resident set of the process and its reaped children.
    peak_rss_mb: float
    output: str
    leaked_segments: list[str]


def invoke(command: list[str], env: dict[str, str], cwd: Path, log: Path) -> Completed:
    """Run ``command`` to completion; stdout and stderr go to ``log``.

    The child leads its own process group, so a run over
    :data:`INVOCATION_TIMEOUT_S` is killed together with its workers.
    """
    before = shm_segments()
    with open(log, "w+b") as out:
        start = time.perf_counter()
        process = subprocess.Popen(
            command, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=cwd,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            INVOCATION_TIMEOUT_S, os.killpg, (process.pid, signal.SIGKILL)
        )
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        output = out.read().decode(errors="replace")
    return Completed(
        exit_code=process.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        output=output,
        leaked_segments=sorted(shm_segments() - before),
    )


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def cache_stats(output: str) -> dict | None:
    """The ``--cache-stats`` JSON block of a runner's output, if present."""
    marker = "robustness counters:\n"
    at = output.rfind(marker)
    if at < 0:
        return None
    try:
        stats, _ = json.JSONDecoder().raw_decode(output, at + len(marker))
    except json.JSONDecodeError:
        return None
    return stats
