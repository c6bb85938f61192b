"""Scalar mapping DP and bit-at-a-time verification (mapper oracles).

* :func:`build_candidates` / :func:`price_candidates` / :func:`dp_round` --
  the per-candidate incumbent scan the batched DP
  (:func:`repro.synthesis.mapper._dp_round_batched`) must reproduce
  decision for decision: the ``1e-9`` tie-breaks are not transitive, so the
  comparison *sequence* is the contract, not just the optimum.
* :data:`SCALAR_BETTER` -- the scalar tie-break of every built-in cost
  model, the elementwise twin of ``CostModel.better_batch``.
* :func:`verify_mapping_reference` -- evaluates every mapped gate one
  pattern bit at a time; oracle of the word-parallel ``verify_mapping``.
"""

from __future__ import annotations

import numpy as np

from repro.core.library import GateLibrary
from repro.synthesis.aig import Aig
from repro.synthesis.cost import EPSILON, CostModel, MappingContext, MatchCandidate
from repro.synthesis.mapper import (
    MappedCircuit,
    MappingError,
    _outputs_match,
    topological_gates,
)
from tests.oracles.matcher import match_positions


def delay_better(
    arrival: float, flow: float, best_arrival: float, best_flow: float
) -> bool:
    """Arrival first, flow breaks ties (``DelayCost``)."""
    return arrival < best_arrival - EPSILON or (
        abs(arrival - best_arrival) <= EPSILON and flow < best_flow - EPSILON
    )


def flow_better(
    arrival: float, flow: float, best_arrival: float, best_flow: float
) -> bool:
    """Flow first, arrival breaks ties (``AreaFlowCost``, ``PowerFlowCost``)."""
    return flow < best_flow - EPSILON or (
        abs(flow - best_flow) <= EPSILON and arrival < best_arrival - EPSILON
    )


#: Scalar tie-break per built-in objective name.
SCALAR_BETTER = {"delay": delay_better, "area": flow_better, "power": flow_better}


def build_candidates(arrays, cut_set, matcher, prefer: str) -> list[list[MatchCandidate]]:
    """Per-node candidate table: every matched ranked cut of every AND node.

    Candidate order per node is slot order (the cut ranking), nodes in
    topological order -- the sequence the batched ``CandidateTable`` rows
    follow.
    """
    candidates: list[list[MatchCandidate]] = [[] for _ in range(arrays.num_nodes)]
    and_nodes = arrays.and_nodes
    if and_nodes.size == 0:
        return candidates
    # Ranked cuts only: the last valid slot of every node is the trivial
    # ``{node}`` cut, which participates in fanout merging but is never
    # matched on its own.
    per_node = cut_set.count[and_nodes] - 1
    total = int(per_node.sum())
    if total == 0:
        return candidates
    nodes_rep = np.repeat(and_nodes, per_node)
    starts = np.concatenate(([0], np.cumsum(per_node)[:-1]))
    slots = np.arange(total) - np.repeat(starts, per_node)

    node_list = nodes_rep.tolist()
    size_list = cut_set.size[nodes_rep, slots].tolist()
    table_list = cut_set.table[nodes_rep, slots].tolist()
    support_list = cut_set.support[nodes_rep, slots].tolist()
    leaves_rows = cut_set.leaves[nodes_rep, slots].tolist()

    for index in range(total):
        found = match_positions(
            matcher,
            size_list[index],
            table_list[index],
            prefer=prefer,
            support_mask=support_list[index],
        )
        if found is None:
            continue
        match, positions, table = found
        row = leaves_rows[index]
        cell = match.cell
        fo4 = cell.delay.fo4_average
        parasitic = cell.delay.parasitic_output
        candidates[node_list[index]].append(
            MatchCandidate(
                leaves=tuple(row[p] for p in positions),
                table=table,
                match=match,
                delay=fo4,
                area=cell.area,
                parasitic=parasitic,
                effort=max(fo4 - parasitic, 0.0) / 4.0,
            )
        )
    return candidates


def price_candidates(
    and_node_list: list[int],
    candidates: list[list[MatchCandidate]],
    model: CostModel,
    context: MappingContext,
) -> list[list[float]]:
    """Per-candidate local gate costs under one cost model."""
    gate_cost = model.gate_cost
    prices: list[list[float]] = [[] for _ in range(len(candidates))]
    for node in and_node_list:
        prices[node] = [gate_cost(cand, node, context) for cand in candidates[node]]
    return prices


def dp_round(
    aig: Aig,
    library: GateLibrary,
    and_node_list: list[int],
    candidates: list[list[MatchCandidate]],
    prices: list[list[float]],
    model: CostModel,
    references: list[float],
    required: list[float] | None = None,
    load_aware: bool = False,
) -> tuple[dict[int, MatchCandidate], list[float], list[float]]:
    """One forward DP pass: best candidate, arrival and flow per node.

    Without ``required`` this is the classical single-pass mapping under
    ``model`` with FO4 cell delays (round 0).  With ``required`` only
    candidates meeting their node's deadline compete under ``model``; if
    none does, the arrival-optimal candidate is chosen instead.
    ``load_aware`` switches the arrival model to ``parasitic + effort *
    loads`` using the per-node reference estimate as the load (the recovery
    rounds' model).
    """
    num_nodes = len(candidates)
    arrival_list = [0.0] * num_nodes
    flow_list = [0.0] * num_nodes
    choices: dict[int, MatchCandidate] = {}
    better = SCALAR_BETTER[model.name]
    fallback_better = delay_better

    for node in and_node_list:
        best: MatchCandidate | None = None
        best_arrival = best_flow = 0.0
        fallback: MatchCandidate | None = None
        fallback_arrival = fallback_flow = 0.0
        node_required = required[node] if required is not None else None
        node_references = references[node]
        for candidate, cost in zip(candidates[node], prices[node]):
            leaves = candidate.leaves
            gate_delay = (
                candidate.parasitic + candidate.effort * node_references
                if load_aware
                else candidate.delay
            )
            arrival = (
                max((arrival_list[leaf] for leaf in leaves), default=0.0)
                + gate_delay
            )
            flow = (
                cost + sum(flow_list[leaf] for leaf in leaves)
            ) / node_references
            if node_required is not None:
                if fallback is None or fallback_better(
                    arrival, flow, fallback_arrival, fallback_flow
                ):
                    fallback = candidate
                    fallback_arrival, fallback_flow = arrival, flow
                if arrival > node_required + EPSILON:
                    continue
            if best is None or better(arrival, flow, best_arrival, best_flow):
                best = candidate
                best_arrival, best_flow = arrival, flow
        if best is None:
            if fallback is None:
                raise MappingError(
                    f"node {node} of {aig.name!r} has no matching cell in library "
                    f"{library.name!r}"
                )
            best = fallback
            best_arrival, best_flow = fallback_arrival, fallback_flow
        choices[node] = best
        arrival_list[node] = best_arrival
        flow_list[node] = best_flow
    return choices, arrival_list, flow_list


def verify_mapping_reference(
    mapped: MappedCircuit, aig: Aig, patterns: dict[str, list[int]]
) -> bool:
    """Slow reference implementation of ``verify_mapping``.

    Evaluates every gate one pattern bit at a time by assembling the minterm
    index explicitly.
    """
    reference = aig.simulate_words(patterns)
    mask = (1 << 64) - 1
    num_words = len(next(iter(patterns.values()))) if patterns else 1
    values: dict[int, list[int]] = {0: [0] * num_words}
    for name in aig.pi_names:
        node = aig.pi_literal(name) >> 1
        values[node] = [w & mask for w in patterns[name]]

    for gate in topological_gates(mapped.gates):
        leaf_words = [values[leaf] for leaf in gate.leaves]
        output_words = []
        for word_index in range(num_words):
            word = 0
            for bit in range(64):
                minterm = 0
                for position, leaf_values in enumerate(leaf_words):
                    if (leaf_values[word_index] >> bit) & 1:
                        minterm |= 1 << position
                if (gate.table >> minterm) & 1:
                    word |= 1 << bit
            output_words.append(word)
        values[gate.output] = output_words

    return _outputs_match(values, aig, reference)
