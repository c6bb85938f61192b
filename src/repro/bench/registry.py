"""Registry of the 15 Table-3 benchmarks and their generator stand-ins.

Each :class:`BenchmarkCase` records the paper's benchmark name, its function
class (the "Function" column of Table 3), the published I/O counts, and the
generator call that produces our structural stand-in.  The add-N entries are
exact reconstructions; the others are functional-class substitutes (see
DESIGN.md, Sec. 4) whose sizes are chosen to keep the pure-Python mapping
flow tractable while preserving the circuit-class contrasts that drive the
paper's results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bench.generators.adders import ripple_adder_circuit
from repro.bench.generators.alu import alu_control_circuit, dedicated_alu_circuit
from repro.bench.generators.des import des_round_circuit
from repro.bench.generators.ecc import hamming_circuit
from repro.bench.generators.logic_misc import (
    random_control_logic_circuit,
    symmetric_logic_circuit,
)
from repro.bench.generators.multiplier import array_multiplier_circuit
from repro.synthesis.aig import Aig


@dataclass(frozen=True)
class BenchmarkCase:
    """One Table-3 benchmark and the generator producing its stand-in."""

    name: str
    function: str
    paper_inputs: int
    paper_outputs: int
    exact: bool
    generator: Callable[[], Aig]
    xor_rich: bool

    def build(self) -> Aig:
        """Generate the benchmark circuit as an AIG."""
        aig = self.generator()
        aig.name = self.name
        return aig


def _case(name, function, inputs, outputs, exact, xor_rich, generator):
    return BenchmarkCase(
        name=name,
        function=function,
        paper_inputs=inputs,
        paper_outputs=outputs,
        exact=exact,
        generator=generator,
        xor_rich=xor_rich,
    )


#: The 15 benchmarks of Table 3, in paper order.
BENCHMARKS: tuple[BenchmarkCase, ...] = (
    _case(
        "C2670", "ALU and control", 233, 140, False, False,
        lambda: alu_control_circuit(data_width=12, control_inputs=16,
                                    control_outputs=32, seed=2670, name="C2670"),
    ),
    _case(
        "C1908", "Error correcting", 33, 25, False, True,
        lambda: hamming_circuit(data_width=32, corrected_output=True, name="C1908"),
    ),
    _case(
        "C3540", "ALU and control", 50, 22, False, False,
        lambda: alu_control_circuit(data_width=16, control_inputs=12,
                                    control_outputs=20, seed=3540, name="C3540"),
    ),
    _case(
        "dalu", "Dedicated ALU", 75, 16, False, False,
        lambda: dedicated_alu_circuit(data_width=16, seed=1984, name="dalu"),
    ),
    _case(
        "C7552", "ALU and control", 207, 108, False, False,
        lambda: alu_control_circuit(data_width=24, control_inputs=20,
                                    control_outputs=48, seed=7552, name="C7552"),
    ),
    _case(
        "C6288", "Multiplier", 32, 32, False, True,
        lambda: array_multiplier_circuit(width=12, name="C6288"),
    ),
    _case(
        "C5315", "ALU and selector", 178, 123, False, False,
        lambda: alu_control_circuit(data_width=20, control_inputs=18,
                                    control_outputs=40, seed=5315, name="C5315"),
    ),
    _case(
        "des", "Data encryption", 256, 245, False, False,
        lambda: des_round_circuit(block_width=64, rounds=1, seed=1977, name="des"),
    ),
    _case(
        "i10", "Logic", 257, 224, False, False,
        lambda: random_control_logic_circuit(num_inputs=96, num_outputs=64,
                                             levels=6, seed=10, name="i10"),
    ),
    _case(
        "t481", "Logic", 16, 1, False, False,
        lambda: symmetric_logic_circuit(num_inputs=16, name="t481"),
    ),
    _case(
        "i18", "Logic", 133, 81, False, False,
        lambda: random_control_logic_circuit(num_inputs=64, num_outputs=48,
                                             levels=5, seed=18, name="i18"),
    ),
    _case(
        "C1355", "Error correcting", 41, 32, False, True,
        lambda: hamming_circuit(data_width=32, corrected_output=False, name="C1355"),
    ),
    _case(
        "add-16", "16-bit adder", 33, 17, True, True,
        lambda: ripple_adder_circuit(16, name="add-16"),
    ),
    _case(
        "add-32", "32-bit adder", 65, 33, True, True,
        lambda: ripple_adder_circuit(32, name="add-32"),
    ),
    _case(
        "add-64", "64-bit adder", 129, 65, True, True,
        lambda: ripple_adder_circuit(64, name="add-64"),
    ),
)


#: Benchmarks registered at run time on top of the built-in Table-3 set
#: (external BLIF circuits, generator sweeps).  Kept separate so the
#: built-in tuple -- and therefore the default artifact set -- never
#: changes under registration.
_EXTRA_BENCHMARKS: dict[str, BenchmarkCase] = {}


def register_benchmark(case: BenchmarkCase, replace: bool = False) -> BenchmarkCase:
    """Register an additional benchmark case.

    The name must not collide with a built-in Table-3 benchmark; an already
    registered extra of the same name is rejected unless ``replace`` is
    set.  Worker processes of the experiment engine inherit registrations
    through ``fork``; on spawn-based platforms register from an imported
    module (the same rule as custom flows) or run with ``jobs=1``.
    """
    if any(case.name == builtin.name for builtin in BENCHMARKS):
        raise ValueError(
            f"benchmark {case.name!r} collides with a built-in Table-3 entry"
        )
    if not replace and case.name in _EXTRA_BENCHMARKS:
        raise ValueError(f"benchmark {case.name!r} is already registered")
    _EXTRA_BENCHMARKS[case.name] = case
    return case


def register_blif_benchmark(
    path, name: str | None = None, function: str = "External BLIF",
    replace: bool = False,
) -> BenchmarkCase:
    """Register an external BLIF file as a benchmark (runner ``--extra-benchmark``).

    The file is parsed eagerly so malformed input fails at registration
    rather than mid-experiment, and the recorded I/O counts describe the
    actual circuit.  The registered generator re-reads the file on every
    build.  The file lies outside the package source that keys the
    built-in benchmarks, so the engine keys its jobs on the structure of
    the AIG built from it, not on its name or path: an edited file misses
    the cache, and a renamed one still hits.
    """
    from pathlib import Path

    from repro.synthesis.blif import read_blif_file

    path = Path(path)
    aig = read_blif_file(path)  # validate + measure
    case = BenchmarkCase(
        name=name or path.stem,
        function=function,
        paper_inputs=aig.num_pis,
        paper_outputs=aig.num_pos,
        exact=True,
        generator=lambda: read_blif_file(path),
        xor_rich=False,
    )
    return register_benchmark(case, replace=replace)


def unregister_benchmark(name: str) -> None:
    """Remove a previously registered extra benchmark (no-op if absent)."""
    _EXTRA_BENCHMARKS.pop(name, None)


def all_benchmarks() -> tuple[BenchmarkCase, ...]:
    """The built-in Table-3 set followed by the registered extras."""
    return BENCHMARKS + tuple(_EXTRA_BENCHMARKS.values())


def benchmark_by_name(name: str) -> BenchmarkCase:
    """Look up a benchmark case by name (built-in or registered)."""
    for case in all_benchmarks():
        if case.name == name:
            return case
    raise KeyError(f"unknown benchmark {name!r}")


def build_benchmark(name: str) -> Aig:
    """Generate the stand-in circuit for a Table-3 benchmark."""
    return benchmark_by_name(name).build()
