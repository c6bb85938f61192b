"""Bit-packed truth tables.

A :class:`TruthTable` stores the output column of a completely specified
Boolean function of ``n`` ordered variables as an integer bit mask.  Bit
``i`` of :attr:`TruthTable.bits` holds the function value for the input
assignment whose integer encoding is ``i`` (variable 0 is the least
significant input bit).

Truth tables are the lingua franca of the reproduction: the gate library
(:mod:`repro.core`), the switch-level simulator (:mod:`repro.circuits`), the
cut enumeration and the Boolean matcher (:mod:`repro.synthesis`) all exchange
functions in this representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


def _mask(num_vars: int) -> int:
    """Bit mask covering all ``2**num_vars`` minterm positions."""
    return (1 << (1 << num_vars)) - 1


# Pre-computed "variable column" patterns var_pattern(i, n): the truth table of
# the projection function x_i over n variables.  Built lazily and cached for
# the process; keys are (index < num_vars) pairs over the table widths in use.
_VAR_PATTERN_CACHE: dict[tuple[int, int], int] = {}


def var_pattern(index: int, num_vars: int) -> int:
    """Truth-table bits of the projection function ``x_index`` on ``num_vars`` inputs."""
    if index < 0 or index >= num_vars:
        raise ValueError(f"variable index {index} out of range for {num_vars} inputs")
    key = (index, num_vars)
    cached = _VAR_PATTERN_CACHE.get(key)
    if cached is not None:
        return cached
    block = 1 << index
    # Pattern: 'block' zeros followed by 'block' ones, repeated.
    chunk = ((1 << block) - 1) << block
    period = block * 2
    bits = 0
    for start in range(0, 1 << num_vars, period):
        bits |= chunk << start
    _VAR_PATTERN_CACHE[key] = bits
    return bits


@dataclass(frozen=True)
class TruthTable:
    """A completely specified Boolean function of ``num_vars`` ordered inputs."""

    num_vars: int
    bits: int

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        if self.num_vars > 20:
            raise ValueError("truth tables beyond 20 variables are not supported")
        object.__setattr__(self, "bits", self.bits & _mask(self.num_vars))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(value: bool, num_vars: int = 0) -> "TruthTable":
        """The constant-0 or constant-1 function on ``num_vars`` inputs."""
        return TruthTable(num_vars, _mask(num_vars) if value else 0)

    @staticmethod
    def variable(index: int, num_vars: int) -> "TruthTable":
        """The projection function ``x_index``."""
        return TruthTable(num_vars, var_pattern(index, num_vars))

    @staticmethod
    def from_function(func: Callable[..., bool], num_vars: int) -> "TruthTable":
        """Build a table by evaluating ``func`` on every input assignment."""
        bits = 0
        for assignment in range(1 << num_vars):
            values = [bool((assignment >> i) & 1) for i in range(num_vars)]
            if func(*values):
                bits |= 1 << assignment
        return TruthTable(num_vars, bits)

    @staticmethod
    def from_values(values: Sequence[int | bool]) -> "TruthTable":
        """Build a table from an explicit output column (length must be a power of two)."""
        length = len(values)
        if length == 0 or length & (length - 1):
            raise ValueError("output column length must be a power of two")
        num_vars = length.bit_length() - 1
        bits = 0
        for i, v in enumerate(values):
            if v:
                bits |= 1 << i
        return TruthTable(num_vars, bits)

    @staticmethod
    def from_minterms(minterms: Iterable[int], num_vars: int) -> "TruthTable":
        """Build a table from the set of satisfying input assignments."""
        bits = 0
        size = 1 << num_vars
        for m in minterms:
            if m < 0 or m >= size:
                raise ValueError(f"minterm {m} out of range for {num_vars} variables")
            bits |= 1 << m
        return TruthTable(num_vars, bits)

    # -- evaluation and inspection ----------------------------------------

    def evaluate(self, assignment: Sequence[int | bool]) -> bool:
        """Evaluate on one input assignment (``assignment[i]`` is variable ``i``)."""
        if len(assignment) != self.num_vars:
            raise ValueError(
                f"expected {self.num_vars} input values, got {len(assignment)}"
            )
        index = 0
        for i, value in enumerate(assignment):
            if value:
                index |= 1 << i
        return bool((self.bits >> index) & 1)

    def value_at(self, minterm_index: int) -> bool:
        """Function value for the assignment encoded as an integer."""
        if minterm_index < 0 or minterm_index >= (1 << self.num_vars):
            raise ValueError("minterm index out of range")
        return bool((self.bits >> minterm_index) & 1)

    def output_column(self) -> list[int]:
        """The full output column as a list of 0/1 values."""
        return [(self.bits >> i) & 1 for i in range(1 << self.num_vars)]

    def count_ones(self) -> int:
        """Number of satisfying assignments (on-set size)."""
        return self.bits.bit_count()

    def is_constant(self) -> bool:
        return self.bits == 0 or self.bits == _mask(self.num_vars)

    # -- Boolean algebra ---------------------------------------------------

    def _check_compatible(self, other: "TruthTable") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                "truth tables must be over the same number of variables "
                f"({self.num_vars} vs {other.num_vars})"
            )

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.num_vars, ~self.bits)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.num_vars, self.bits ^ other.bits)

    # -- structure ---------------------------------------------------------

    def cofactor(self, index: int, value: bool) -> "TruthTable":
        """Shannon cofactor with variable ``index`` fixed; result keeps ``num_vars``."""
        pattern = var_pattern(index, self.num_vars)
        block = 1 << index
        if value:
            positive = self.bits & pattern
            result = positive | (positive >> block)
        else:
            negative = self.bits & ~pattern
            result = negative | (negative << block)
        return TruthTable(self.num_vars, result)

    def depends_on(self, index: int) -> bool:
        """True when the function actually depends on variable ``index``."""
        return self.cofactor(index, True).bits != self.cofactor(index, False).bits

    def support(self) -> tuple[int, ...]:
        """Indices of variables the function depends on."""
        return tuple(i for i in range(self.num_vars) if self.depends_on(i))

    def support_size(self) -> int:
        return len(self.support())

    def shrink_to_support(self) -> tuple["TruthTable", tuple[int, ...]]:
        """Project onto the support variables.

        Returns the reduced table and the tuple mapping new variable positions
        back to the original indices.
        """
        support = self.support()
        reduced = self.permute_expand(support, len(support))
        return reduced, support

    def permute_expand(
        self, source_indices: Sequence[int], new_num_vars: int
    ) -> "TruthTable":
        """Re-express the function over a new variable ordering.

        ``source_indices[j]`` gives, for each new variable position ``j``, the
        original variable it corresponds to.  Original variables not listed
        must not be in the support.  ``new_num_vars`` may exceed
        ``len(source_indices)`` to pad with don't-care inputs.
        """
        if new_num_vars < len(source_indices):
            raise ValueError("new_num_vars smaller than the provided mapping")
        listed = set(source_indices)
        for var in self.support():
            if var not in listed:
                raise ValueError(
                    f"variable {var} is in the support but absent from the mapping"
                )
        bits = 0
        for new_index in range(1 << new_num_vars):
            old_index = 0
            for new_pos, old_pos in enumerate(source_indices):
                if (new_index >> new_pos) & 1:
                    old_index |= 1 << old_pos
            if (self.bits >> old_index) & 1:
                bits |= 1 << new_index
        return TruthTable(new_num_vars, bits)

    def place_variables(
        self, positions: Sequence[int], new_num_vars: int
    ) -> "TruthTable":
        """Inverse of :meth:`shrink_to_support`.

        Re-express the function over ``new_num_vars`` variables, placing the
        current variable ``j`` at position ``positions[j]``.  Positions not
        listed become don't-care inputs.
        """
        if len(positions) != self.num_vars:
            raise ValueError("one target position is required per current variable")
        if len(set(positions)) != len(positions):
            raise ValueError("target positions must be distinct")
        if any(p < 0 or p >= new_num_vars for p in positions):
            raise ValueError("target position out of range")
        bits = 0
        for new_index in range(1 << new_num_vars):
            old_index = 0
            for old_pos, new_pos in enumerate(positions):
                if (new_index >> new_pos) & 1:
                    old_index |= 1 << old_pos
            if (self.bits >> old_index) & 1:
                bits |= 1 << new_index
        return TruthTable(new_num_vars, bits)

    def permute_inputs(self, permutation: Sequence[int]) -> "TruthTable":
        """Apply an input permutation.

        ``permutation[j]`` is the original variable placed at new position ``j``.
        """
        if sorted(permutation) != list(range(self.num_vars)):
            raise ValueError("permutation must be a rearrangement of all inputs")
        return self.permute_expand(permutation, self.num_vars)

    def flip_input(self, index: int) -> "TruthTable":
        """Complement one input variable."""
        pattern = var_pattern(index, self.num_vars)
        block = 1 << index
        high = self.bits & pattern
        low = self.bits & ~pattern
        return TruthTable(self.num_vars, (high >> block) | (low << block))

    def apply_phase(self, phase_mask: int) -> "TruthTable":
        """Complement every input whose bit is set in ``phase_mask``."""
        table = self
        for i in range(self.num_vars):
            if (phase_mask >> i) & 1:
                table = table.flip_input(i)
        return table

    def compose(self, inputs: Sequence["TruthTable"]) -> "TruthTable":
        """Substitute a function for every input variable.

        All substituted functions must share the same variable count; the
        result is expressed over that variable set.
        """
        if len(inputs) != self.num_vars:
            raise ValueError("one substituted function is required per input")
        if not inputs:
            return TruthTable(0, self.bits & 1)
        inner_vars = inputs[0].num_vars
        for table in inputs:
            if table.num_vars != inner_vars:
                raise ValueError("substituted functions must agree on variable count")
        result_bits = 0
        full = _mask(inner_vars)
        for minterm in range(1 << self.num_vars):
            if not ((self.bits >> minterm) & 1):
                continue
            term = full
            for i, table in enumerate(inputs):
                if (minterm >> i) & 1:
                    term &= table.bits
                else:
                    term &= full & ~table.bits
            result_bits |= term
        return TruthTable(inner_vars, result_bits)

    # -- presentation -------------------------------------------------------

    def to_hex(self) -> str:
        """Hexadecimal string of the output column (LSB = minterm 0)."""
        width = max(1, (1 << self.num_vars) // 4)
        return format(self.bits, f"0{width}x")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"TruthTable({self.num_vars} vars, 0x{self.to_hex()})"


def truth_table_distance(a: TruthTable, b: TruthTable) -> int:
    """Number of input assignments on which two functions differ."""
    if a.num_vars != b.num_vars:
        raise ValueError("tables must have the same number of variables")
    return (a.bits ^ b.bits).bit_count()
