"""Output gate: a timing counts only when the run's outputs check.

Two independent checks:

* :func:`artifact_errors` compares the ``--json`` artifacts of a run with
  the sha256 digests in ``digests.json``, recorded at the program's default
  power seed.  On that seed all three artifacts must match; on any other
  seed only the seed-independent ``table2.json`` is compared (the others
  must still exist).
* :func:`netlist_errors` re-simulates a mapped netlist captured from
  ``technology_map`` against the *unoptimized* source circuit.  Gates are
  evaluated here, bit by bit, as a lookup of ``MappedGate.table`` indexed by
  the leaf values (leaf 0 least significant); the reference is
  ``Aig.simulate_words`` on the source.  Circuits with at most
  :data:`EXHAUSTIVE_MAX_PIS` inputs are checked on every input pattern,
  larger ones on :data:`RANDOM_WORDS` seeded 64-bit words per input.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("digests.json")
ARTIFACTS = ("table2.json", "table3.json", "figure6.json")
SEED_INDEPENDENT = ("table2.json",)

EXHAUSTIVE_MAX_PIS = 16
RANDOM_WORDS = 4


def load_digests(path: Path = DIGESTS_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def expected_digests(digests: dict, workload: str, seed: int) -> dict[str, str]:
    """The artifact digests a run of ``workload`` at ``seed`` must reproduce."""
    recorded = digests["workloads"][workload]
    names = ARTIFACTS if seed == digests["seed"] else SEED_INDEPENDENT
    return {name: recorded[name] for name in names}


def artifact_errors(directory: Path, expected: dict[str, str]) -> list[str]:
    """Missing artifacts and digest mismatches of one run (empty: correct)."""
    errors = []
    for name in ARTIFACTS:
        path = Path(directory) / name
        if not path.is_file():
            errors.append(f"{name}: missing")
        elif name in expected and sha256_file(path) != expected[name]:
            errors.append(f"{name}: sha256 differs from the recorded digest")
    return errors


@dataclass(frozen=True)
class MappedNetlist:
    """A mapped netlist plus the subject-graph wiring it refers to.

    ``gates`` holds ``(output node, leaf nodes, truth table)`` per gate;
    ``pi_nodes`` and ``po_literals`` name the subject AIG's input nodes and
    output literals (an odd literal is a complemented output).
    """

    benchmark: str
    library: str
    pi_nodes: dict[str, int]
    po_literals: dict[str, int]
    gates: tuple[tuple[int, tuple[int, ...], int], ...]

    @classmethod
    def capture(cls, subject, mapped) -> "MappedNetlist":
        """Record what :func:`netlist_errors` needs from a mapping call."""
        return cls(
            benchmark=subject.name,
            library=mapped.library_name,
            pi_nodes={
                name: subject.pi_literal(name) >> 1 for name in subject.pi_names
            },
            po_literals=dict(zip(subject.po_names, subject.po_literals)),
            gates=tuple(
                (gate.output, tuple(gate.leaves), gate.table) for gate in mapped.gates
            ),
        )


def input_bits(benchmark: str, pi_names) -> dict[str, np.ndarray]:
    """One uint8 bit per pattern for every input of ``benchmark``."""
    pi_names = list(pi_names)
    if len(pi_names) <= EXHAUSTIVE_MAX_PIS:
        patterns = np.arange(max(64, 1 << len(pi_names)), dtype=np.int64)
        return {
            name: ((patterns >> index) & 1).astype(np.uint8)
            for index, name in enumerate(pi_names)
        }
    rng = np.random.default_rng(zlib.crc32(benchmark.encode()))
    bits = rng.integers(0, 2, size=(len(pi_names), 64 * RANDOM_WORDS), dtype=np.uint8)
    return dict(zip(pi_names, bits))


def pack_words(bits: np.ndarray) -> list[int]:
    """Pattern ``p`` becomes bit ``p % 64`` of word ``p // 64``."""
    return np.packbits(bits, bitorder="little").view("<u8").tolist()


def simulate_netlist(
    netlist: MappedNetlist, pi_bits: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Output bits of the mapped netlist on the given input bits."""
    count = len(next(iter(pi_bits.values())))
    values = {0: np.zeros(count, dtype=np.uint8)}
    for name, node in netlist.pi_nodes.items():
        values[node] = pi_bits[name]
    for output, leaves, table in sorted(netlist.gates):
        index = np.zeros(count, dtype=np.int64)
        for position, leaf in enumerate(leaves):
            if leaf not in values:
                raise ValueError(f"gate {output} reads undriven node {leaf}")
            index |= values[leaf].astype(np.int64) << position
        lookup = np.array(
            [(table >> minterm) & 1 for minterm in range(1 << len(leaves))],
            dtype=np.uint8,
        )
        values[output] = lookup[index]
    outputs = {}
    for name, literal in netlist.po_literals.items():
        node = literal >> 1
        if node not in values:
            raise ValueError(f"output {name} is driven by no gate")
        outputs[name] = values[node] ^ np.uint8(literal & 1)
    return outputs


def netlist_errors(netlist: MappedNetlist, source) -> list[str]:
    """Mismatches between a mapped netlist and its source circuit."""
    where = f"{netlist.benchmark}/{netlist.library}"
    if set(netlist.pi_nodes) != set(source.pi_names):
        return [f"{where}: inputs differ from the source circuit"]
    if set(netlist.po_literals) != set(source.po_names):
        return [f"{where}: outputs differ from the source circuit"]
    pi_bits = input_bits(netlist.benchmark, source.pi_names)
    try:
        mapped = simulate_netlist(netlist, pi_bits)
    except ValueError as error:
        return [f"{where}: {error}"]
    reference = source.simulate_words(
        {name: pack_words(bits) for name, bits in pi_bits.items()}
    )
    return [
        f"{where}: output {name} differs from the source circuit"
        for name in source.po_names
        if pack_words(mapped[name]) != reference[name]
    ]
