"""Fuzz the BLIF reader with mutated valid netlists and random token streams.

``read_blif`` parses outside input (the runner's ``--extra-benchmark``), so
whatever it is fed it must either return an :class:`Aig` or raise
``ValueError`` (``BlifParseError`` subclasses it, and the runner turns it
into a usage error).  Any other exception is a reader bug.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.synthesis import CircuitBuilder, read_blif, write_blif
from repro.synthesis.aig import Aig


def _seed_netlist() -> str:
    builder = CircuitBuilder("seed")
    a = builder.input_bus("a", 3)
    b = builder.input_bus("b", 3)
    total, carry = builder.ripple_adder(a, b)
    builder.output_bus("s", total)
    builder.output("cout", carry)
    return write_blif(builder.finish())


SEED_LINES = _seed_netlist().splitlines() + [
    ".names one",
    "1",
    ".names a0 b0 mixed",
    "1- 1",
    "-1 1",
]

TOKENS = (
    ".model", ".inputs", ".outputs", ".names", ".end", ".latch", ".subckt",
    ".gate", ".exdc", "a0", "b0", "s0", "cout", "n7", "y", "0", "1", "-",
    "2", "01", "10", "11", "1-", "-0", "0-1", "\\", "#", "#c", "",
)


def _read(text: str) -> None:
    try:
        result = read_blif(text)
    except ValueError:
        return
    assert isinstance(result, Aig)


@st.composite
def mutated_netlists(draw):
    lines = list(SEED_LINES)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if not lines:
            break
        index = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        action = draw(st.sampled_from(("drop", "duplicate", "swap", "token", "insert")))
        if action == "drop":
            del lines[index]
        elif action == "duplicate":
            lines.insert(index, lines[index])
        elif action == "swap":
            other = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[index], lines[other] = lines[other], lines[index]
        elif action == "token":
            tokens = lines[index].split() or [""]
            position = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
            tokens[position] = draw(st.sampled_from(TOKENS))
            lines[index] = " ".join(tokens)
        else:
            line = " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=4)))
            lines.insert(index, line)
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(mutated_netlists())
def test_mutated_netlists_parse_or_raise_value_error(text):
    _read(text)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(TOKENS), st.sampled_from((" ", "\n", "\\\n"))),
        max_size=40,
    )
)
# A file ending in a bare line continuation once left a blank line behind.
@example([(".end", "\n"), ("\\", "\n")])
def test_token_streams_parse_or_raise_value_error(stream):
    _read("".join(token + separator for token, separator in stream))
