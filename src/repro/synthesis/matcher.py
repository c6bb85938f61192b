"""Boolean matching of cut functions against a gate library.

:class:`LibraryMatcher` is an **NPN-canonical index**.  Every library cell
is canonicalized once (:func:`repro.logic.npn.npn_canonicalize`) and the
index stores a single entry per ``(arity, canonical class)``.  A cut is
matched by canonicalizing its function and composing the cut's
canonicalizing transform with the cell's stored transform, which yields
exactly the pin assignment an exhaustive permutation/phase table would have
looked up -- with orders of magnitude fewer index entries and no
pre-expansion at build time (``tests/oracles/matcher.py`` keeps the
exhaustive matcher the index is pinned to).

The mapper resolves whole cut sets at once: :func:`cut_function_table`
deduplicates and canonicalizes the distinct cut functions in batch, and
:meth:`LibraryMatcher.match_table` resolves them against the index into a
columnar :class:`MatchTable`.  :meth:`LibraryMatcher.match` is the
single-function lookup.

Ties between equally good cells resolve by a stable ``(cost, cell name)``
order, so the selected cell -- and therefore every downstream artifact --
is bit-identical across runs and hash seeds.

The input/output phase freedom models the paper's statement that the mapping
tool is aware of the extra gates obtained by swapping the signal polarities at
the transmission gates, and the fact that every cell carries an output
inverter providing both output polarities (Sec. 3.1 and 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.cell import LibraryCell
from repro.core.library import GateLibrary
from repro.logic.npn import (
    InputMatch,
    canonicalize_bits,
    canonicalize_bits_batch_columns,
    compose_matches,
    invert_match,
)
from repro.synthesis.cut_kernels import (
    project_table_batch,
    support_positions,
    table_support_batch,
)


@dataclass(frozen=True)
class CellMatch:
    """A library cell together with the pin assignment realizing a cut function."""

    cell: LibraryCell
    match: InputMatch

    @property
    def area(self) -> float:
        return self.cell.area

    @property
    def delay(self) -> float:
        return self.cell.delay.fo4_average


def _area_order(candidate: CellMatch) -> tuple[float, float, str]:
    """Stable total order for area-optimal selection (ties -> cell name)."""
    return (candidate.area, candidate.delay, candidate.cell.name)


def _delay_order(candidate: CellMatch) -> tuple[float, float, str]:
    """Stable total order for delay-optimal selection (ties -> cell name)."""
    return (candidate.delay, candidate.area, candidate.cell.name)


@dataclass(frozen=True)
class CutFunctionTable:
    """Distinct ranked-cut functions of a :class:`~repro.synthesis.cuts.CutSet`.

    The library-independent half of the batched matching pipeline: the
    flattened ranked cuts (nodes ascending, slot order per node, trivial cut
    excluded -- the same flattening the mapper uses) deduplicated to their
    distinct ``(size, table)`` functions, each with its support positions,
    support-projected table and exact NPN canonicalization columns.
    ``inverse`` maps every flattened row back onto its distinct id.  Shared
    by every (matcher, policy) pair of a mapping call, memoized on the cut
    set, and shipped across processes by the shared-memory transport.
    """

    inverse: np.ndarray  #: (rows,) int64 flattened ranked cut -> distinct id
    sizes: np.ndarray  #: (d,) int64 cut arity
    tables: np.ndarray  #: (d,) uint64 raw cut function
    support: np.ndarray  #: (d,) uint8 true-support mask
    width: np.ndarray  #: (d,) int64 reduced arity (popcount of support)
    positions: np.ndarray  #: (d, 6) int64 support positions, zero-padded
    reduced: np.ndarray  #: (d,) uint64 support-projected table
    canon: np.ndarray  #: (d,) uint64 canonical bits of the reduced function
    cut_perm: np.ndarray  #: (d, 6) int8 canonicalizing permutation, zero-padded
    cut_phase: np.ndarray  #: (d,) int16 canonicalizing phase
    cut_negated: np.ndarray  #: (d,) bool canonicalizing output negation

    @property
    def num_distinct(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def num_rows(self) -> int:
        return int(self.inverse.shape[0])


@dataclass(frozen=True)
class MatchTable:
    """Columnar match results over the distinct functions of a cut set.

    One row per distinct ``(size, table)`` cut function (aligned with the
    :class:`CutFunctionTable` that produced it); ``inverse`` scatters the
    rows back onto the flattened ranked cuts.  ``matches`` holds one
    materialized :class:`CellMatch` per *matched* row (in row order) and
    ``match_index`` maps rows onto it (``-1`` when unmatched); the cost
    columns carry the matched cell's FO4 delay / area / parasitic / effort
    so the candidate-table build never touches cell objects.
    """

    inverse: np.ndarray  #: (rows,) int64 flattened ranked cut -> row
    matched: np.ndarray  #: (d,) bool
    positions: np.ndarray  #: (d, 6) int64 support positions, zero-padded
    width: np.ndarray  #: (d,) int64 reduced arity
    reduced: np.ndarray  #: (d,) uint64 support-projected table
    match_index: np.ndarray  #: (d,) int64 index into ``matches`` (-1 unmatched)
    delay: np.ndarray  #: (d,) float64 cell FO4 delay
    area: np.ndarray  #: (d,) float64 cell area
    parasitic: np.ndarray  #: (d,) float64 parasitic delay
    effort: np.ndarray  #: (d,) float64 effort delay per unit load
    matches: list[CellMatch]


def _flatten_ranked_cuts(cut_set, and_nodes) -> tuple[np.ndarray, np.ndarray]:
    """The valid ``(node, slot)`` pairs of the ranked (non-trivial) cuts,
    flattened exactly as the mapper's candidate-table build flattens them."""
    per_node = cut_set.count[and_nodes] - 1
    total = int(per_node.sum())
    nodes_rep = np.repeat(and_nodes, per_node)
    starts = np.concatenate(([0], np.cumsum(per_node)[:-1]))
    slots = np.arange(total) - np.repeat(starts, per_node)
    return nodes_rep, slots


def build_function_table(
    sizes: np.ndarray,
    tables: np.ndarray,
    supports: np.ndarray,
    reduced: np.ndarray,
    inverse: np.ndarray,
) -> CutFunctionTable:
    """Assemble a :class:`CutFunctionTable` from distinct-function columns.

    ``reduced`` must already be the support-projected tables (the cut set's
    :meth:`~repro.synthesis.cuts.CutSet.projected_tables` column).  Every
    non-constant reduced function is canonicalized per reduced arity through
    one batched orbit scan each.  Also the worker-side rebuild entry point
    for function tables shipped over shared memory.
    """
    positions, width = support_positions(supports)
    count = sizes.shape[0]
    canon = np.zeros(count, dtype=np.uint64)
    cut_perm = np.zeros((count, 6), dtype=np.int8)
    cut_phase = np.zeros(count, dtype=np.int16)
    cut_negated = np.zeros(count, dtype=bool)
    for arity in range(1, 7):
        group = np.nonzero(width == arity)[0]
        if group.size == 0:
            continue
        group_canon, group_perm, group_phase, group_neg = (
            canonicalize_bits_batch_columns(reduced[group], arity, True)
        )
        canon[group] = group_canon
        cut_perm[group, :arity] = group_perm
        cut_phase[group] = group_phase
        cut_negated[group] = group_neg
    return CutFunctionTable(
        inverse=inverse.astype(np.int64),
        sizes=sizes.astype(np.int64),
        tables=tables.astype(np.uint64),
        support=supports.astype(np.uint8),
        width=width,
        positions=positions,
        reduced=reduced.astype(np.uint64),
        canon=canon,
        cut_perm=cut_perm,
        cut_phase=cut_phase,
        cut_negated=cut_negated,
    )


def cut_function_table(cut_set, and_nodes) -> CutFunctionTable:
    """The (memoized) distinct-function table of a cut set.

    Deduplicates all ranked cut functions with one ``np.unique`` pass over
    ``(size, table)`` keys, reads the projected tables from the cut set's
    batched :meth:`~repro.synthesis.cuts.CutSet.projected_tables` column and
    canonicalizes every distinct reduced function through the columnar batch
    canonicalizer.  Memoized on the cut set -- every library/policy pair of a mapping call shares one table, and the
    shared-memory transport pre-installs it in worker processes.
    """
    cached = cut_set.__dict__.get("_function_table")
    if cached is not None:
        return cached

    nodes_rep, slots = _flatten_ranked_cuts(cut_set, and_nodes)
    total = nodes_rep.shape[0]
    keys = np.empty((total, 2), dtype=np.uint64)
    keys[:, 0] = cut_set.size[nodes_rep, slots]
    keys[:, 1] = cut_set.table[nodes_rep, slots]
    distinct, first_index, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1).astype(np.int64)
    supports = cut_set.support[nodes_rep, slots][first_index]
    projected = cut_set.projected_tables()[nodes_rep, slots][first_index]
    table = build_function_table(
        distinct[:, 0].astype(np.int64),
        distinct[:, 1],
        supports,
        projected,
        inverse,
    )
    object.__setattr__(cut_set, "_function_table", table)
    return table


#: Entries :meth:`LibraryMatcher.match` memoizes before starting over.
_MATCH_MEMO_LIMIT = 1 << 16


class LibraryMatcher:
    """NPN-canonical match index for one library.

    The index stores, per ``(arity, canonical table)``, the best cell of the
    class by area and by delay together with the cell's canonicalizing
    transform ``t_cell`` (``apply_match(cell.function, t_cell) ==
    canonical``).  At match time the cut function is canonicalized to the
    same form with transform ``t_cut`` and the returned pin assignment is
    ``compose_matches(t_cell, invert_match(t_cut))``, i.e. cell -> canonical
    -> cut.
    """

    def __init__(self, library: GateLibrary) -> None:
        self.library = library
        self._by_area: dict[tuple[int, int], CellMatch] = {}
        self._by_delay: dict[tuple[int, int], CellMatch] = {}
        # Lives with the matcher; cleared whenever it reaches _MATCH_MEMO_LIMIT.
        self._match_memo: dict[tuple[int, int, str], CellMatch | None] = {}
        self._build()

    def _build(self) -> None:
        for cell in self.library.cells:
            canon_bits, perm, phase, negated = canonicalize_bits(
                cell.function.bits, cell.arity, True
            )
            key = (cell.arity, canon_bits)
            candidate = CellMatch(cell, InputMatch(perm, phase, negated))
            best_area = self._by_area.get(key)
            if best_area is None or _area_order(candidate) < _area_order(best_area):
                self._by_area[key] = candidate
            best_delay = self._by_delay.get(key)
            if best_delay is None or _delay_order(candidate) < _delay_order(best_delay):
                self._by_delay[key] = candidate

    def __len__(self) -> int:
        """Number of stored index entries (one per matched canonical class)."""
        return len(self._by_area)

    def match(
        self, num_leaves: int, table_bits: int, prefer: str = "delay"
    ) -> CellMatch | None:
        """Find the best cell realizing a ``num_leaves``-input function.

        The function is matched as given, over all ``num_leaves`` inputs;
        project it onto its true support first to match a smaller cell
        (:func:`cut_function_table` does that for the mapper's cuts).
        Returns ``None`` when no cell of that arity matches.
        """
        memo_key = (num_leaves, table_bits, prefer)
        try:
            return self._match_memo[memo_key]
        except KeyError:
            pass
        canon_bits, perm, phase, negated = canonicalize_bits(
            table_bits, num_leaves, True
        )
        table = self._by_delay if prefer == "delay" else self._by_area
        entry = table.get((num_leaves, canon_bits))
        result: CellMatch | None = None
        if entry is not None:
            t_cut = InputMatch(perm, phase, negated)
            composed = compose_matches(entry.match, invert_match(t_cut))
            result = CellMatch(entry.cell, composed)
        if len(self._match_memo) >= _MATCH_MEMO_LIMIT:
            self._match_memo.clear()
        self._match_memo[memo_key] = result
        return result

    def _batch_index(self) -> dict[str, dict[int, "_ArityIndex"]]:
        """The per-policy, per-arity sorted canonical-key index (built once).

        For every stored canonical class the index keeps the class key, the
        best cell's canonicalizing transform as columns and its cost model
        (FO4 delay, area, parasitic, effort) -- everything the batched match
        resolution needs without touching cell objects per cut.
        """
        index = self.__dict__.get("_batch_index_cache")
        if index is None:
            index = {
                "delay": _build_arity_index(self._by_delay),
                "area": _build_arity_index(self._by_area),
            }
            self.__dict__["_batch_index_cache"] = index
        return index

    def _resolve_function_table(
        self, functions: CutFunctionTable, prefer: str
    ) -> MatchTable:
        """Resolve every distinct cut function against the canonical index.

        One ``np.searchsorted`` per reduced arity finds the canonical class
        of every function; the returned pin assignments are the vectorized
        equivalent of ``compose_matches(entry.match, invert_match(t_cut))``.
        :class:`CellMatch` objects are materialized only for matched rows, in
        row order.
        """
        per_arity = self._batch_index()[prefer if prefer == "delay" else "area"]
        count = functions.num_distinct
        matched = np.zeros(count, dtype=bool)
        entry_rows = np.zeros(count, dtype=np.int64)
        delay = np.zeros(count, dtype=np.float64)
        area = np.zeros(count, dtype=np.float64)
        parasitic = np.zeros(count, dtype=np.float64)
        effort = np.zeros(count, dtype=np.float64)
        comp_perm = np.zeros((count, 6), dtype=np.int64)
        comp_phase = np.zeros(count, dtype=np.int64)
        comp_neg = np.zeros(count, dtype=bool)

        for arity in range(1, 7):
            group = np.nonzero(functions.width == arity)[0]
            if group.size == 0:
                continue
            arity_index = per_arity.get(arity)
            if arity_index is None:
                continue
            keys = functions.canon[group]
            slot = np.searchsorted(arity_index.keys, keys)
            slot = np.minimum(slot, arity_index.keys.shape[0] - 1)
            hit = arity_index.keys[slot] == keys
            if not hit.any():
                continue
            rows = group[hit]
            entries = slot[hit]
            matched[rows] = True
            entry_rows[rows] = entries
            delay[rows] = arity_index.delay[entries]
            area[rows] = arity_index.area[entries]
            parasitic[rows] = arity_index.parasitic[entries]
            effort[rows] = arity_index.effort[entries]

            # compose_matches(entry.match, invert_match(t_cut)), vectorized:
            # invert the cut transform (inverse perm by argsort, phase bits
            # gathered through the perm), then chain entry's perm/phase.
            cut_perm = functions.cut_perm[rows, :arity].astype(np.int64)
            cut_phase = functions.cut_phase[rows].astype(np.int64)
            entry_perm = arity_index.perm[entries, :arity].astype(np.int64)
            entry_phase = arity_index.phase[entries].astype(np.int64)
            inv_perm = np.argsort(cut_perm, axis=1)
            inv_phase_bits = (cut_phase[:, None] >> cut_perm) & 1
            comp_perm[rows, :arity] = np.take_along_axis(
                entry_perm, inv_perm, axis=1
            )
            comp_phase[rows] = entry_phase ^ (inv_phase_bits << entry_perm).sum(
                axis=1
            )
            comp_neg[rows] = arity_index.negated[entries] ^ functions.cut_negated[
                rows
            ]

        matched_rows = np.nonzero(matched)[0]
        match_index = np.full(count, -1, dtype=np.int64)
        match_index[matched_rows] = np.arange(matched_rows.shape[0])
        matches: list[CellMatch] = []
        perm_list = comp_perm[matched_rows].tolist()
        phase_list = comp_phase[matched_rows].tolist()
        neg_list = comp_neg[matched_rows].tolist()
        width_list = functions.width[matched_rows].tolist()
        for local, row in enumerate(matched_rows.tolist()):
            width = width_list[local]
            cell = per_arity[width].cells[int(entry_rows[row])]
            transform = InputMatch(
                tuple(perm_list[local][:width]),
                phase_list[local],
                bool(neg_list[local]),
            )
            matches.append(CellMatch(cell, transform))
        return MatchTable(
            inverse=functions.inverse,
            matched=matched,
            positions=functions.positions,
            width=functions.width,
            reduced=functions.reduced,
            match_index=match_index,
            delay=delay,
            area=area,
            parasitic=parasitic,
            effort=effort,
            matches=matches,
        )

    def match_positions_batch(
        self,
        sizes: np.ndarray,
        tables: np.ndarray,
        prefer: str = "delay",
        support_masks: np.ndarray | None = None,
    ) -> MatchTable:
        """Match raw ``(size, table)`` cut functions after support projection.

        Computes supports and projected tables with the batch kernels,
        canonicalizes every row and resolves the canonical index in one
        vectorized pass.  Row ``i`` of the returned :class:`MatchTable`
        corresponds to input row ``i`` (``inverse`` is the identity).
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        tables = np.asarray(tables, dtype=np.uint64)
        if support_masks is None:
            support_masks = table_support_batch(tables, sizes)
        else:
            support_masks = np.asarray(support_masks, dtype=np.uint8)
        reduced = project_table_batch(tables, support_masks)
        inverse = np.arange(sizes.shape[0], dtype=np.int64)
        functions = build_function_table(
            sizes, tables, support_masks, reduced, inverse
        )
        return self._resolve_function_table(functions, prefer)

    def match_table(self, cut_set, and_nodes, prefer: str = "delay") -> MatchTable:
        """The (memoized) :class:`MatchTable` of a cut set under one policy.

        Builds (or reuses) the cut set's :func:`cut_function_table` and
        resolves it against this matcher's canonical index.  Memoized on the
        cut set next to the candidate tables, so repeated mapping rounds and
        co-resident policies never re-resolve.
        """
        memo = cut_set.__dict__.get("_match_tables")
        if memo is None:
            memo = {}
            object.__setattr__(cut_set, "_match_tables", memo)
        key = ("match", id(self), prefer)
        cached = memo.get(key)
        if cached is not None:
            return cached
        with obs.span(
            "match-batch", category="synthesis",
            library=self.library.name, prefer=prefer,
        ) as span:
            functions = cut_function_table(cut_set, and_nodes)
            table = self._resolve_function_table(functions, prefer)
            hits = int(table.matched.sum())
            obs.count("match.batch_rows", functions.num_rows)
            obs.count("match.unique_functions", functions.num_distinct)
            obs.count("match.index_hits", hits)
            span.set("rows", functions.num_rows)
            span.set("unique_functions", functions.num_distinct)
            span.set("index_hits", hits)
        memo[key] = table
        return table


@dataclass(frozen=True)
class _ArityIndex:
    """One arity's slice of the batched canonical index (sorted by key)."""

    keys: np.ndarray  #: (m,) uint64 canonical bits, ascending
    perm: np.ndarray  #: (m, 6) int8 cell canonicalizing permutation
    phase: np.ndarray  #: (m,) int16 cell canonicalizing phase
    negated: np.ndarray  #: (m,) bool cell canonicalizing output negation
    delay: np.ndarray  #: (m,) float64 cell FO4 delay
    area: np.ndarray  #: (m,) float64 cell area
    parasitic: np.ndarray  #: (m,) float64 parasitic output delay
    effort: np.ndarray  #: (m,) float64 effort delay per unit load
    cells: list[LibraryCell]


def _build_arity_index(
    table: dict[tuple[int, int], CellMatch]
) -> dict[int, _ArityIndex]:
    """Columnar per-arity index over one best-cell dictionary."""
    by_arity: dict[int, list[tuple[int, CellMatch]]] = {}
    for (arity, canon_bits), entry in table.items():
        by_arity.setdefault(arity, []).append((canon_bits, entry))
    index: dict[int, _ArityIndex] = {}
    for arity, entries in by_arity.items():
        entries.sort(key=lambda item: item[0])
        count = len(entries)
        keys = np.array([canon for canon, _ in entries], dtype=np.uint64)
        perm = np.zeros((count, 6), dtype=np.int8)
        phase = np.zeros(count, dtype=np.int16)
        negated = np.zeros(count, dtype=bool)
        delay = np.zeros(count, dtype=np.float64)
        area = np.zeros(count, dtype=np.float64)
        parasitic = np.zeros(count, dtype=np.float64)
        effort = np.zeros(count, dtype=np.float64)
        cells: list[LibraryCell] = []
        for row, (_canon, entry) in enumerate(entries):
            perm[row, :arity] = entry.match.permutation
            phase[row] = entry.match.phase
            negated[row] = entry.match.output_negated
            cell = entry.cell
            fo4 = cell.delay.fo4_average
            parasitic_output = cell.delay.parasitic_output
            delay[row] = fo4
            area[row] = cell.area
            parasitic[row] = parasitic_output
            effort[row] = max(fo4 - parasitic_output, 0.0) / 4.0
            cells.append(cell)
        index[arity] = _ArityIndex(
            keys=keys, perm=perm, phase=phase, negated=negated,
            delay=delay, area=area, parasitic=parasitic, effort=effort,
            cells=cells,
        )
    return index


# Process-lifetime, keyed by the finite library registry.
_MATCHER_CACHE: dict[str, LibraryMatcher] = {}


def matcher_for(library: GateLibrary) -> LibraryMatcher:
    """Build (and cache) the matcher of a library.

    One matcher per library is reused across all benchmarks of an
    experiment run.
    """
    cached = _MATCHER_CACHE.get(library.name)
    if cached is None or cached.library is not library:
        cached = LibraryMatcher(library)
        _MATCHER_CACHE[library.name] = cached
    return cached
