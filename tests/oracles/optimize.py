"""Per-node reference ``balance`` / ``rewrite`` (oracles of the array passes).

:func:`repro.synthesis.optimize.balance` and
:func:`repro.synthesis.optimize.rewrite` are pinned node-for-node to these:
same candidate order, same gate-emission stream (losing rewrite candidates
included), same structural hashing order, same levels.
"""

from __future__ import annotations

import heapq
from unittest import mock

from repro.flow.passes import _PASS_REGISTRY, FunctionPass
from repro.flow.pipeline import FlowResult, get_flow
from repro.synthesis.aig import (
    Aig,
    AigLiteral,
    CONST0,
    CONST1,
    lit_complement,
    lit_is_complemented,
    lit_node,
)
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cuts import cut_set_for
from repro.synthesis.rewrite_lib import _isop


def balance_reference(aig: Aig, trace: list | None = None) -> Aig:
    """Reference depth-balancing (the pre-vectorization per-node algorithm).

    The only change from its original form is the scheduling container: the
    ``ordered.pop(0)`` / ``insert`` list (O(n^2) on wide collapsed trees) is
    a ``heapq`` keyed on ``(level, insertion index)``.  The heap pops in
    exactly the old order -- the list was kept sorted by level with stable
    insertion after ties, which is precisely the (level, sequence) total
    order -- so the produced tree is identical gate for gate.
    """
    fanout = aig_arrays(aig).fanout.tolist()
    new = Aig(aig.name)
    mapping: dict[int, AigLiteral] = {0: CONST0}
    for name in aig.pi_names:
        mapping[lit_node(aig.pi_literal(name))] = new.add_pi(name)

    def translate(literal: AigLiteral) -> AigLiteral:
        return mapping[lit_node(literal)] ^ (literal & 1)

    def collect_and_leaves(literal: AigLiteral, root: bool) -> list[AigLiteral]:
        """Leaves of the maximal AND tree rooted at ``literal``."""
        node = lit_node(literal)
        if (
            lit_is_complemented(literal)
            or not aig.is_and(node)
            or (not root and fanout[node] > 1)
        ):
            return [literal]
        f0, f1 = aig.fanins(node)
        return collect_and_leaves(f0, False) + collect_and_leaves(f1, False)

    def rebuild(node: int) -> AigLiteral:
        if node in mapping:
            return mapping[node]
        leaves = collect_and_leaves(node << 1, True)
        translated = []
        for leaf in leaves:
            leaf_node = lit_node(leaf)
            if leaf_node not in mapping:
                rebuild(leaf_node)
            translated.append(translate(leaf))
        # Pair shallow literals first so the deepest signal sees the fewest
        # levels; ties resolve by insertion order (combined gates last).
        heap = [
            (new.literal_level(literal), order, literal)
            for order, literal in enumerate(translated)
        ]
        heapq.heapify(heap)
        sequence = len(heap)
        while len(heap) > 1:
            _, _, a = heapq.heappop(heap)
            _, _, b = heapq.heappop(heap)
            combined = new.and_gate(a, b)
            heapq.heappush(heap, (new.literal_level(combined), sequence, combined))
            sequence += 1
        result = heap[0][2] if heap else CONST1
        mapping[node] = result
        if trace is not None:
            trace.append((node, result))
        return result

    for node in aig.and_nodes():
        rebuild(node)
    for name, literal in zip(aig.po_names, aig.po_literals):
        node = lit_node(literal)
        if node not in mapping:
            rebuild(node)
        new.add_po(name, translate(literal))
    return new.cleanup()


def _synthesize_sop(
    aig: Aig, leaves: list[AigLiteral], cubes: tuple[tuple[int, int], ...], num_vars: int
) -> AigLiteral:
    """Build an AND-OR implementation of a cube cover."""
    terms: list[AigLiteral] = []
    for care, value in cubes:
        factors: list[AigLiteral] = []
        for var in range(num_vars):
            if not (care >> var) & 1:
                continue
            literal = leaves[var]
            if not (value >> var) & 1:
                literal = lit_complement(literal)
            factors.append(literal)
        terms.append(aig.and_many(factors) if factors else CONST1)
    return aig.or_many(terms) if terms else CONST0


def rewrite_reference(
    aig: Aig, max_inputs: int = 4, trace: list | None = None
) -> Aig:
    """Reference cut-based rewriting (the pre-vectorization algorithm).

    For every AND node the best small cut is taken, the node function over the
    cut leaves is computed, and an AND-OR implementation of its irredundant
    cover (or of the complement, whichever is smaller) is built in a fresh
    AIG.  Structural hashing shares the rebuilt logic; the pass never
    increases the size of an individual cone beyond its SOP cost but may keep
    the existing structure when that is cheaper.
    """
    cut_set = cut_set_for(aig, max_inputs=max_inputs, cut_limit=4)
    cut_count, cut_size, cut_leaves, cut_table, _ = cut_set.as_python()
    new = Aig(aig.name)
    mapping: dict[int, AigLiteral] = {0: CONST0}
    for name in aig.pi_names:
        mapping[lit_node(aig.pi_literal(name))] = new.add_pi(name)

    def translate(literal: AigLiteral) -> AigLiteral:
        return mapping[lit_node(literal)] ^ (literal & 1)

    for node in aig.and_nodes():
        best_literal: AigLiteral | None = None
        best_cost: int | None = None
        best_slot = -1
        node_sizes = cut_size[node]
        node_leaves = cut_leaves[node]
        node_tables = cut_table[node]
        for slot in range(cut_count[node]):
            num_vars = node_sizes[slot]
            if num_vars == 1:
                continue
            cut_leaf_ids = node_leaves[slot][:num_vars]
            if any(leaf not in mapping for leaf in cut_leaf_ids):
                continue
            leaves = [mapping[leaf] for leaf in cut_leaf_ids]
            table = node_tables[slot]
            size_before = new.num_ands
            positive = _isop(table, num_vars)
            negative = _isop(~table & ((1 << (1 << num_vars)) - 1), num_vars)
            if len(negative) < len(positive):
                literal = lit_complement(
                    _synthesize_sop(new, leaves, negative, num_vars)
                )
            else:
                literal = _synthesize_sop(new, leaves, positive, num_vars)
            cost = new.num_ands - size_before
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_literal = literal
                best_slot = slot
        if best_literal is None:
            f0, f1 = aig.fanins(node)
            best_literal = new.and_gate(translate(f0), translate(f1))
        mapping[node] = best_literal
        if trace is not None:
            trace.append((node, best_slot, -1 if best_cost is None else best_cost))

    for name, literal in zip(aig.po_names, aig.po_literals):
        new.add_po(name, translate(literal))
    return new.cleanup()


def run_reference_flow(flow: str, aig: Aig) -> FlowResult:
    """Run a registered flow with ``balance``/``rewrite`` bound to the oracles.

    The flow's own spec and driver run unchanged; only the two pass names
    resolve to :func:`balance_reference` / :func:`rewrite_reference` for the
    duration of the call, so the result is the flow's oracle twin.
    """
    oracles = {
        "balance": FunctionPass("balance", balance_reference),
        "rewrite": FunctionPass("rewrite", rewrite_reference),
    }
    with mock.patch.dict(_PASS_REGISTRY, oracles):
        return get_flow(flow).run(aig)
