"""Table 1 of the paper: the 46 ambipolar CNTFET logic functions F00..F45.

Every function is realizable with no more than three transmission gates or
transistors in series in each of the pull-up and pull-down networks, with at
most three inputs on regular gates and three control inputs on polarity
gates.  With the same topological constraints a CMOS library realizes only
the seven unate functions F00, F02, F03, F10, F11, F12 and F13
(Sec. 3.1 of the paper).

Functions are written in the paper's algebra (``^`` for XOR, ``|``/``+`` for
OR, ``&``/``.`` for AND); inputs named ``A``, ``B``, ``C`` are applied to
regular gates and ``D``, ``E``, ``F`` are the free control variables applied
to polarity gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.logic.expr import Expr, parse_expr
from repro.logic.truth_table import TruthTable


@dataclass(frozen=True)
class FunctionSpec:
    """One Table-1 entry."""

    function_id: str
    expression_text: str

    @property
    def expression(self) -> Expr:
        return parse_expr(self.expression_text)

    @property
    def input_names(self) -> tuple[str, ...]:
        """Distinct input names in alphabetical order (A, B, C, D, E, F)."""
        return self.expression.variables()

    @property
    def arity(self) -> int:
        return len(self.input_names)

    def truth_table(self) -> TruthTable:
        """Truth table of the function over its sorted input names."""
        return self.expression.to_truth_table(self.input_names)

    def uses_xor(self) -> bool:
        """Whether the function contains at least one XOR term."""
        return "^" in self.expression_text

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.function_id}: {self.expression_text}"


#: The 46 functions of Table 1, in paper order.
TABLE1_FUNCTIONS: tuple[FunctionSpec, ...] = (
    FunctionSpec("F00", "A"),
    FunctionSpec("F01", "A ^ B"),
    FunctionSpec("F02", "A | B"),
    FunctionSpec("F03", "A & B"),
    FunctionSpec("F04", "(A ^ B) | C"),
    FunctionSpec("F05", "(A ^ B) & C"),
    FunctionSpec("F06", "(A ^ B) | (A ^ C)"),
    FunctionSpec("F07", "(A ^ B) & (A ^ C)"),
    FunctionSpec("F08", "(A ^ B) | (C ^ D)"),
    FunctionSpec("F09", "(A ^ B) & (C ^ D)"),
    FunctionSpec("F10", "A | B | C"),
    FunctionSpec("F11", "(A | B) & C"),
    FunctionSpec("F12", "A | (B & C)"),
    FunctionSpec("F13", "A & B & C"),
    FunctionSpec("F14", "(A ^ D) | B | C"),
    FunctionSpec("F15", "(A ^ D) | (B ^ D) | C"),
    FunctionSpec("F16", "(A ^ D) | (B ^ D) | (C ^ D)"),
    FunctionSpec("F17", "((A ^ D) | B) & C"),
    FunctionSpec("F18", "((A ^ D) | (B ^ D)) & C"),
    FunctionSpec("F19", "((A ^ D) | B) & (C ^ D)"),
    FunctionSpec("F20", "((A ^ D) | (B ^ D)) & (C ^ D)"),
    FunctionSpec("F21", "(A | B) & (C ^ D)"),
    FunctionSpec("F22", "(A ^ D) | (B & C)"),
    FunctionSpec("F23", "A | ((B ^ D) & C)"),
    FunctionSpec("F24", "(A ^ D) | ((B ^ D) & C)"),
    FunctionSpec("F25", "A | ((B ^ D) & (C ^ D))"),
    FunctionSpec("F26", "(A ^ D) | ((B ^ D) & (C ^ D))"),
    FunctionSpec("F27", "(A ^ D) & B & C"),
    FunctionSpec("F28", "(A ^ D) & (B ^ D) & C"),
    FunctionSpec("F29", "(A ^ D) & (B ^ D) & (C ^ D)"),
    FunctionSpec("F30", "(A ^ D) | (B ^ E) | C"),
    FunctionSpec("F31", "(A ^ D) | (B ^ D) | (C ^ E)"),
    FunctionSpec("F32", "((A ^ D) | (B ^ E)) & C"),
    FunctionSpec("F33", "((A ^ D) | B) & (C ^ E)"),
    FunctionSpec("F34", "((A ^ D) | (B ^ D)) & (C ^ E)"),
    FunctionSpec("F35", "((A ^ D) | (B ^ E)) & (C ^ D)"),
    FunctionSpec("F36", "(A ^ D) | ((B ^ E) & C)"),
    FunctionSpec("F37", "A | ((B ^ D) & (C ^ E))"),
    FunctionSpec("F38", "(A ^ D) | ((B ^ E) & (C ^ E))"),
    FunctionSpec("F39", "(A ^ D) | ((B ^ E) & (C ^ D))"),
    FunctionSpec("F40", "(A ^ D) & (B ^ E) & C"),
    FunctionSpec("F41", "(A ^ D) & (B ^ D) & (C ^ E)"),
    FunctionSpec("F42", "(A ^ D) | (B ^ E) | (C ^ F)"),
    FunctionSpec("F43", "((A ^ D) | (B ^ E)) & (C ^ F)"),
    FunctionSpec("F44", "(A ^ D) | ((B ^ E) & (C ^ F))"),
    FunctionSpec("F45", "(A ^ D) & (B ^ E) & (C ^ F)"),
)

#: Function ids realizable by the CMOS reference library with the same
#: topology constraints (no XOR terms) -- 7 functions, as stated in Sec. 3.1.
CMOS_FUNCTION_IDS: tuple[str, ...] = ("F00", "F02", "F03", "F10", "F11", "F12", "F13")


# Process-lifetime, a single entry.
@lru_cache(maxsize=None)
def _function_index() -> dict[str, FunctionSpec]:
    return {spec.function_id: spec for spec in TABLE1_FUNCTIONS}


def function_by_id(function_id: str) -> FunctionSpec:
    """Look up a Table-1 entry by its id (e.g. ``"F05"``)."""
    try:
        return _function_index()[function_id]
    except KeyError as exc:
        raise KeyError(f"unknown Table-1 function id {function_id!r}") from exc


def cmos_functions() -> tuple[FunctionSpec, ...]:
    """The subset of Table 1 realizable in the CMOS reference library."""
    return tuple(function_by_id(fid) for fid in CMOS_FUNCTION_IDS)
