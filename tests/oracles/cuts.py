"""Pure-Python priority-cut enumeration (oracle of the ``CutSet`` paths).

:func:`repro.synthesis.cuts.enumerate_cuts_arrays` -- both its vectorized
and its scalar arm -- must agree with :func:`enumerate_cuts_reference` cut
for cut: same leaves, tables, supports and order.
"""

from __future__ import annotations

import numpy as np

from repro.synthesis.aig import Aig, lit_is_complemented, lit_node
from repro.synthesis.aig_array import AigArrays
from repro.synthesis.cuts import (
    _FULL_MASK,
    DEFAULT_CUT_LIMIT,
    DEFAULT_MAX_INPUTS,
    LEAF_SENTINEL,
    Cut,
    CutSet,
    _expand_table,
    _validate_parameters,
    table_support,
)


def _merge_leaves(a: tuple[int, ...], b: tuple[int, ...], limit: int) -> tuple[int, ...] | None:
    """Sorted union of two leaf sets, or ``None`` if it exceeds ``limit``."""
    merged = sorted(set(a) | set(b))
    if len(merged) > limit:
        return None
    return tuple(merged)


def enumerate_cuts_reference(
    aig: Aig,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> dict[int, list[Cut]]:
    """Pure-Python reference enumeration (the pre-vectorization algorithm)."""
    _validate_parameters(max_inputs, cut_limit)

    cuts: dict[int, list[Cut]] = {}
    # Constant node and primary inputs only have their trivial cut.
    cuts[0] = [Cut((0,), 0b10, 0b1)]  # unused in practice
    for pi in aig.pi_nodes():
        cuts[pi] = [Cut((pi,), 0b10, 0b1)]

    fanout = aig.fanout_counts()

    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        node0, node1 = lit_node(f0), lit_node(f1)
        comp0, comp1 = lit_is_complemented(f0), lit_is_complemented(f1)
        candidates: dict[tuple[int, ...], int] = {}

        for cut0 in cuts[node0]:
            for cut1 in cuts[node1]:
                merged = _merge_leaves(cut0.leaves, cut1.leaves, max_inputs)
                if merged is None:
                    continue
                full = _FULL_MASK[len(merged)]
                t0 = _expand_table(cut0.table, cut0.leaves, merged)
                t1 = _expand_table(cut1.table, cut1.leaves, merged)
                if comp0:
                    t0 = ~t0 & full
                if comp1:
                    t1 = ~t1 & full
                table = t0 & t1
                existing = candidates.get(merged)
                if existing is None:
                    candidates[merged] = table
                # Identical leaf sets always produce the same function, so no
                # merge policy is needed beyond first-wins.

        ranked = sorted(
            candidates.items(),
            key=lambda item: (len(item[0]), sum(fanout[l] == 1 for l in item[0])),
        )
        node_cuts = [
            Cut(leaves, table, table_support(table, len(leaves)))
            for leaves, table in ranked[:cut_limit]
        ]
        # The trivial cut participates in fanout cut merging.
        node_cuts.append(Cut((node,), 0b10, 0b1))
        cuts[node] = node_cuts

    return cuts


def cut_set_from_dict(
    cuts: dict[int, list[Cut]], arrays: AigArrays, max_inputs: int, cut_limit: int
) -> CutSet:
    """Pack a dict-of-:class:`Cut` enumeration into the array representation."""
    num_nodes = arrays.num_nodes
    slots = cut_limit + 1
    count = np.zeros(num_nodes, dtype=np.int64)
    leaves = np.full((num_nodes, slots, max_inputs), LEAF_SENTINEL, dtype=np.int32)
    size = np.zeros((num_nodes, slots), dtype=np.int8)
    table = np.zeros((num_nodes, slots), dtype=np.uint64)
    support = np.zeros((num_nodes, slots), dtype=np.uint8)
    for node, node_cuts in cuts.items():
        count[node] = len(node_cuts)
        for slot, cut in enumerate(node_cuts):
            width = len(cut.leaves)
            leaves[node, slot, :width] = cut.leaves
            size[node, slot] = width
            table[node, slot] = cut.table
            support[node, slot] = cut.support_mask()
    return CutSet(
        max_inputs=max_inputs,
        cut_limit=cut_limit,
        count=count,
        leaves=leaves,
        size=size,
        table=table,
        support=support,
    )
