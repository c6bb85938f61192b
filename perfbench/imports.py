"""Import-time breakdown of ``repro.experiments.runner``.

``python -X importtime`` prints one ``import time: SELF | CUMULATIVE | NAME``
line per imported module on stderr, times in microseconds.  Self times
partition the import, so summing them by package prefix gives each
package's share.
"""

from __future__ import annotations

#: Subpackages of ``repro`` at the commit that defined the benchmark.
SUBPACKAGES = (
    "analysis",
    "bench",
    "circuits",
    "core",
    "devices",
    "experiments",
    "flow",
    "logic",
    "obs",
    "synthesis",
)

METRICS = ("import.total_s", "import.numpy_s") + tuple(
    f"import.repro.{name}_s" for name in SUBPACKAGES
)


def self_times_us(text: str) -> dict[str, int]:
    """Self time per module from ``-X importtime`` output."""
    times = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        times[fields[2].strip()] = times.get(fields[2].strip(), 0) + int(fields[0])
    return times


def _under(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def import_metrics(text: str) -> dict[str, float]:
    """The :data:`METRICS` of one ``-X importtime`` run, in seconds."""
    times = self_times_us(text)
    metrics = {
        "import.total_s": sum(times.values()) / 1e6,
        "import.numpy_s": sum(t for m, t in times.items() if _under(m, "numpy")) / 1e6,
    }
    for name in SUBPACKAGES:
        metrics[f"import.repro.{name}_s"] = (
            sum(t for m, t in times.items() if _under(m, f"repro.{name}")) / 1e6
        )
    return metrics
