"""BLIF import / export.

BLIF (Berkeley Logic Interchange Format) is the netlist format used by SIS
and ABC; the paper's benchmark circuits circulate in this format.  The reader
builds an :class:`~repro.synthesis.aig.Aig` from the ``.names`` sum-of-product
covers; the writer emits either an AIG or a mapped circuit so that results
can be inspected with external tools.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.synthesis.aig import Aig, AigLiteral, CONST0, CONST1, lit_complement


class BlifParseError(ValueError):
    """Raised on malformed BLIF input."""


def _join_continuations(lines: Iterable[str]) -> list[str]:
    joined: list[str] = []
    buffer = ""
    for raw in lines:
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        if line.endswith("\\"):
            buffer += line[:-1] + " "
            continue
        joined.append(buffer + line)
        buffer = ""
    if buffer.strip():
        joined.append(buffer)
    return joined


def read_blif(text: str, name: str | None = None) -> Aig:
    """Parse BLIF text into an AIG.

    Supports the combinational subset: ``.model``, ``.inputs``, ``.outputs``,
    ``.names`` (with multi-cube covers and the ``0``/``1``/``-`` input
    notation) and ``.end``.  Latches and subcircuits are rejected, and so
    are covers mixing on-set and off-set rows, output values other than
    ``0``/``1`` and signals driven twice (by two covers, or by a cover and
    ``.inputs``).
    """
    lines = _join_continuations(text.splitlines())
    model_name = name or "blif"
    inputs: list[str] = []
    outputs: list[str] = []
    covers: dict[str, tuple[list[str], list[str], str]] = {}

    index = 0
    while index < len(lines):
        line = lines[index]
        tokens = line.split()
        keyword = tokens[0]
        if keyword == ".model":
            if len(tokens) > 1:
                model_name = tokens[1]
            index += 1
        elif keyword == ".inputs":
            inputs.extend(tokens[1:])
            index += 1
        elif keyword == ".outputs":
            outputs.extend(tokens[1:])
            index += 1
        elif keyword == ".names":
            signals = tokens[1:]
            if not signals:
                raise BlifParseError(".names with no signals")
            target = signals[-1]
            if target in covers:
                raise BlifParseError(f"signal {target!r} is driven twice")
            fanins = signals[:-1]
            cubes: list[str] = []
            output_values: set[str] = set()
            bare_rows = cube_rows = 0
            index += 1
            while index < len(lines) and not lines[index].startswith("."):
                row = lines[index].split()
                if len(row) == 1:
                    # Cube part omitted: a constant driver.  Zero-input
                    # ``.names`` covers are the common form, but tools also
                    # emit the bare output value under declared fanins
                    # (every input a don't-care), so accept both.
                    output_values.add(row[0])
                    cubes.append("-" * len(fanins))
                    bare_rows += 1
                elif len(row) == 2:
                    cubes.append(row[0])
                    output_values.add(row[1])
                    cube_rows += 1
                else:
                    raise BlifParseError(f"malformed cover row: {lines[index]!r}")
                index += 1
            if bare_rows and cube_rows:
                # A bare output value only means "constant driver"; mixed
                # with cube rows it is almost certainly a cube whose output
                # column was dropped, so keep rejecting that.
                raise BlifParseError(
                    f"cover of {target!r} mixes bare output-value rows with "
                    "cube rows"
                )
            if not output_values <= {"0", "1"}:
                raise BlifParseError(
                    f"cover of {target!r} has an output value other than 0/1"
                )
            if len(output_values) > 1:
                raise BlifParseError(
                    f"cover of {target!r} mixes on-set (1) and off-set (0) rows"
                )
            output_value = output_values.pop() if output_values else "1"
            covers[target] = (fanins, cubes, output_value)
        elif keyword == ".end":
            index += 1
        elif keyword in (".latch", ".subckt", ".gate"):
            raise BlifParseError(f"unsupported BLIF construct {keyword}")
        else:
            raise BlifParseError(f"unknown BLIF keyword {keyword!r}")

    aig = Aig(model_name)
    literals: dict[str, AigLiteral] = {}
    for input_name in inputs:
        if input_name in covers:
            raise BlifParseError(f"primary input {input_name!r} is driven by .names")
        literals[input_name] = aig.add_pi(input_name)

    def build_cover(signal: str) -> AigLiteral:
        fanins, cubes, output_value = covers[signal]
        if not fanins:
            return CONST1 if cubes and output_value == "1" else CONST0
        fanin_literals = [literals[fanin] for fanin in fanins]

        cube_literals: list[AigLiteral] = []
        for cube in cubes:
            if len(cube) != len(fanins):
                raise BlifParseError(
                    f"cube {cube!r} width does not match fanins of {signal!r}"
                )
            terms: list[AigLiteral] = []
            for value, fanin_literal in zip(cube, fanin_literals):
                if value == "1":
                    terms.append(fanin_literal)
                elif value == "0":
                    terms.append(lit_complement(fanin_literal))
                elif value == "-":
                    continue
                else:
                    raise BlifParseError(f"invalid cube character {value!r}")
            cube_literals.append(aig.and_many(terms) if terms else CONST1)
        literal = aig.or_many(cube_literals) if cube_literals else CONST0
        if output_value == "0":
            literal = lit_complement(literal)
        return literal

    def build_signal(root: str) -> AigLiteral:
        # Depth-first over the fanin cone with an explicit stack, because a
        # netlist can be deeper than the interpreter's recursion limit.
        # Fanins are built left to right before their cover; ``visiting``
        # holds the covers on the current path.
        visiting: set[str] = set()
        stack = [(root, False)]
        while stack:
            signal, fanins_built = stack.pop()
            if fanins_built:
                visiting.remove(signal)
                literals[signal] = build_cover(signal)
            elif signal not in literals:
                if signal not in covers:
                    raise BlifParseError(f"signal {signal!r} is never defined")
                if signal in visiting:
                    raise BlifParseError(f"combinational loop through {signal!r}")
                visiting.add(signal)
                stack.append((signal, True))
                stack.extend((fanin, False) for fanin in reversed(covers[signal][0]))
        return literals[root]

    for output_name in outputs:
        aig.add_po(output_name, build_signal(output_name))
    return aig


def read_blif_file(path: str | Path) -> Aig:
    """Read a BLIF file from disk."""
    path = Path(path)
    return read_blif(path.read_text(), name=path.stem)


def write_blif(aig: Aig) -> str:
    """Serialize an AIG to BLIF (one two-input AND cover per node)."""
    lines = [f".model {aig.name}"]
    if aig.pi_names:
        lines.append(".inputs " + " ".join(aig.pi_names))
    if aig.po_names:
        lines.append(".outputs " + " ".join(aig.po_names))

    def node_name(node: int) -> str:
        if aig.is_pi(node):
            return aig.pi_names[aig.pi_nodes().index(node)]
        return f"n{node}"

    def literal_expr(literal: AigLiteral) -> tuple[str, bool]:
        return node_name(literal >> 1), bool(literal & 1)

    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        n0, c0 = literal_expr(f0)
        n1, c1 = literal_expr(f1)
        lines.append(f".names {n0} {n1} n{node}")
        lines.append(f"{'0' if c0 else '1'}{'0' if c1 else '1'} 1")

    for name, literal in zip(aig.po_names, aig.po_literals):
        if literal == CONST0 or literal == CONST1:
            lines.append(f".names {name}")
            if literal == CONST1:
                lines.append("1")
            continue
        source, complemented = literal_expr(literal)
        lines.append(f".names {source} {name}")
        lines.append("0 1" if complemented else "1 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"
