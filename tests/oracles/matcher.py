"""Scalar Boolean matching (oracles of the batched NPN match pipeline).

* :class:`ExhaustiveLibraryMatcher` -- the original matcher: every table
  reachable from every cell by permuting inputs, complementing inputs and
  complementing the output, pre-expanded into a dictionary keyed by the raw
  table bits.  :class:`repro.synthesis.matcher.LibraryMatcher` must select
  the same cells.
* :func:`match_positions` / :func:`match_reduced` -- the per-function scalar
  match after support projection, over any matcher exposing ``match``;
  ``LibraryMatcher.match_positions_batch`` / ``match_table`` must reproduce
  it row for row, composed pin transforms included.
* :class:`ScalarMatcher` -- an adapter giving a scalar matcher the
  ``match_table`` interface the mapper consumes, resolved one distinct cut
  function at a time through :func:`match_positions`.  Mapping through it
  is the mapper-level parity oracle.
"""

from __future__ import annotations

import weakref
from itertools import permutations

import numpy as np

from repro.core.library import GateLibrary
from repro.logic.npn import InputMatch
from repro.synthesis.cuts import project_table, table_support
from repro.synthesis.matcher import CellMatch, MatchTable, _area_order, _delay_order

_ALL_POSITIONS = tuple(tuple(range(n)) for n in range(8))


class ExhaustiveLibraryMatcher:
    """Pre-computed permutation/phase match tables for one library.

    Every reachable truth table of every cell is materialized in a
    dictionary keyed by ``(arity, raw bits)``, so matching is a single lookup
    but construction enumerates up to ``2 * n! * 2**n`` variants per cell.
    Ties between equally good cells resolve by the same stable
    ``(cost, cell name)`` order as the canonical index.
    """

    def __init__(self, library: GateLibrary, allow_output_negation: bool = True) -> None:
        self.library = library
        self.allow_output_negation = allow_output_negation
        self._by_area: dict[tuple[int, int], CellMatch] = {}
        self._by_delay: dict[tuple[int, int], CellMatch] = {}
        self._build(allow_output_negation)

    def _build(self, allow_output_negation: bool) -> None:
        for cell in self.library.cells:
            tables = _fast_permutation_phase_tables(
                cell.function.bits, cell.arity, allow_output_negation
            )
            for bits, match in tables.items():
                key = (cell.arity, bits)
                candidate = CellMatch(cell, match)
                best_area = self._by_area.get(key)
                if best_area is None or _area_order(candidate) < _area_order(best_area):
                    self._by_area[key] = candidate
                best_delay = self._by_delay.get(key)
                if best_delay is None or _delay_order(candidate) < _delay_order(
                    best_delay
                ):
                    self._by_delay[key] = candidate

    def __len__(self) -> int:
        """Number of stored index entries (one per reachable raw table)."""
        return len(self._by_area)

    def match(
        self, num_leaves: int, table_bits: int, prefer: str = "delay"
    ) -> CellMatch | None:
        """Single-dictionary-lookup match against the pre-expanded tables."""
        table = self._by_delay if prefer == "delay" else self._by_area
        return table.get((num_leaves, table_bits))


def _fast_permutation_phase_tables(
    bits: int, num_vars: int, include_output_negation: bool
) -> dict[int, InputMatch]:
    """Vectorized equivalent of :func:`repro.logic.npn.all_input_permutation_phase_tables`.

    Enumerates every table reachable by permuting and complementing inputs
    (and optionally complementing the output) using numpy gathers, which keeps
    matcher construction fast even for the six-input cells (46k variants
    each).
    """
    size = 1 << num_vars
    column = np.fromiter(((bits >> i) & 1 for i in range(size)), dtype=np.uint8, count=size)
    indices = np.arange(size, dtype=np.int64)
    phases = np.arange(size, dtype=np.int64)
    result: dict[int, InputMatch] = {}

    for perm in permutations(range(num_vars)):
        sigma = np.zeros(size, dtype=np.int64)
        for new_position, old_position in enumerate(perm):
            sigma |= ((indices >> new_position) & 1) << old_position
        gathered = column[np.bitwise_xor.outer(phases, sigma)]
        packed = np.packbits(gathered, axis=1, bitorder="little")
        for phase in range(size):
            table_bits = int.from_bytes(packed[phase].tobytes(), "little")
            result.setdefault(table_bits, InputMatch(tuple(perm), phase, False))
            if include_output_negation:
                negated = table_bits ^ ((1 << size) - 1)
                result.setdefault(negated, InputMatch(tuple(perm), phase, True))
    return result


#: Per-matcher memo of :func:`match_positions` results (dies with the matcher).
_POSITIONS_MEMOS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def match_positions(
    matcher,
    num_leaves: int,
    table_bits: int,
    prefer: str = "delay",
    support_mask: int | None = None,
) -> tuple[CellMatch, tuple[int, ...], int] | None:
    """Match a cut function after projecting it onto its true support.

    Returns the match, the leaf *positions* (indices into the cut's leaf
    tuple) the matched table reads, and the reduced table bits -- or
    ``None`` when the function is constant or no cell matches.  The result
    depends only on ``(num_leaves, table_bits, prefer)``, so it is memoized
    per matcher.
    """
    memo = _POSITIONS_MEMOS.setdefault(matcher, {})
    memo_key = (num_leaves, table_bits, prefer)
    try:
        return memo[memo_key]
    except KeyError:
        pass
    if support_mask is None:
        support_mask = table_support(table_bits, num_leaves)
    result: tuple[CellMatch, tuple[int, ...], int] | None = None
    if support_mask == 0:
        pass
    elif support_mask == (1 << num_leaves) - 1:
        found = matcher.match(num_leaves, table_bits, prefer)
        if found is not None:
            result = (found, _ALL_POSITIONS[num_leaves], table_bits)
    else:
        reduced_bits = project_table(table_bits, num_leaves, support_mask)
        support = tuple(p for p in range(num_leaves) if (support_mask >> p) & 1)
        found = matcher.match(len(support), reduced_bits, prefer)
        if found is not None:
            result = (found, support, reduced_bits)
    memo[memo_key] = result
    return result


def match_reduced(
    matcher,
    leaves: tuple[int, ...],
    table_bits: int,
    prefer: str = "delay",
    support_mask: int | None = None,
) -> tuple[CellMatch, tuple[int, ...], int] | None:
    """Match a cut after projecting its function onto its true support.

    Returns the match, the reduced leaf tuple (in the order seen by the
    matched table) and the reduced table bits, or ``None`` when no cell
    matches.  Thin wrapper over :func:`match_positions`.
    """
    found = match_positions(
        matcher, len(leaves), table_bits, prefer=prefer, support_mask=support_mask
    )
    if found is None:
        return None
    match, positions, reduced_bits = found
    if len(positions) == len(leaves):
        return match, tuple(leaves), reduced_bits
    return match, tuple(leaves[p] for p in positions), reduced_bits


def scalar_match_table(matcher, cut_set, and_nodes, prefer: str = "delay") -> MatchTable:
    """The :class:`MatchTable` of a cut set, one scalar match per function.

    Flattens the ranked cuts (nodes ascending, slot order, trivial cut
    excluded), deduplicates their ``(size, table)`` keys and resolves every
    distinct function through :func:`match_positions`.
    """
    max_inputs = cut_set.max_inputs
    per_node = cut_set.count[and_nodes] - 1
    total = int(per_node.sum())
    nodes_rep = np.repeat(and_nodes, per_node)
    starts = np.concatenate(([0], np.cumsum(per_node)[:-1]))
    slots = np.arange(total) - np.repeat(starts, per_node)
    sizes = cut_set.size[nodes_rep, slots].astype(np.uint64)
    tables = cut_set.table[nodes_rep, slots]
    supports = cut_set.support[nodes_rep, slots]

    keys = np.empty((total, 2), dtype=np.uint64)
    keys[:, 0] = sizes
    keys[:, 1] = tables
    distinct, first_index, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)

    num_distinct = distinct.shape[0]
    matched = np.zeros(num_distinct, dtype=bool)
    positions = np.zeros((num_distinct, max_inputs), dtype=np.int64)
    widths = np.zeros(num_distinct, dtype=np.int64)
    reduced = np.zeros(num_distinct, dtype=np.uint64)
    match_ids = np.full(num_distinct, -1, dtype=np.int64)
    cell_delay = np.zeros(num_distinct, dtype=np.float64)
    cell_area = np.zeros(num_distinct, dtype=np.float64)
    cell_parasitic = np.zeros(num_distinct, dtype=np.float64)
    cell_effort = np.zeros(num_distinct, dtype=np.float64)
    matches: list[CellMatch] = []

    size_list = distinct[:, 0].tolist()
    table_list = distinct[:, 1].tolist()
    support_list = supports[first_index].tolist()
    for index in range(num_distinct):
        found = match_positions(
            matcher,
            size_list[index],
            table_list[index],
            prefer=prefer,
            support_mask=support_list[index],
        )
        if found is None:
            continue
        match, match_pos, match_table_bits = found
        matched[index] = True
        widths[index] = len(match_pos)
        positions[index, : len(match_pos)] = match_pos
        reduced[index] = match_table_bits
        match_ids[index] = len(matches)
        matches.append(match)
        cell = match.cell
        fo4 = cell.delay.fo4_average
        parasitic = cell.delay.parasitic_output
        cell_delay[index] = fo4
        cell_area[index] = cell.area
        cell_parasitic[index] = parasitic
        cell_effort[index] = max(fo4 - parasitic, 0.0) / 4.0

    return MatchTable(
        inverse=inverse.astype(np.int64),
        matched=matched,
        positions=positions,
        width=widths,
        reduced=reduced,
        match_index=match_ids,
        delay=cell_delay,
        area=cell_area,
        parasitic=cell_parasitic,
        effort=cell_effort,
        matches=matches,
    )


class ScalarMatcher:
    """Routes the mapper's ``match_table`` calls through the scalar oracle.

    Wraps any matcher exposing ``library`` and ``match`` (the canonical
    :class:`~repro.synthesis.matcher.LibraryMatcher` or the
    :class:`ExhaustiveLibraryMatcher`), so ``technology_map(...,
    matcher=ScalarMatcher(m))`` maps with per-function scalar matching.
    """

    def __init__(self, matcher) -> None:
        self.matcher = matcher
        self.library = matcher.library

    def match_table(self, cut_set, and_nodes, prefer: str = "delay") -> MatchTable:
        return scalar_match_table(self.matcher, cut_set, and_nodes, prefer)
