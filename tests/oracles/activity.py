"""One-assignment-at-a-time signal probabilities (oracle of
:func:`repro.analysis.activity.exact_activities`)."""

from __future__ import annotations

import numpy as np

from repro.analysis.activity import ActivityReport
from repro.synthesis.aig import Aig, lit_is_complemented, lit_node


def exact_activities_reference(aig: Aig) -> ActivityReport:
    """Slow reference for :func:`repro.analysis.activity.exact_activities`.

    Evaluates the AIG one input assignment at a time through plain Python
    fanin recursion -- no packed words, no numpy batching.
    """
    num_nodes = aig.num_nodes
    counts = [0] * num_nodes
    pi_nodes = aig.pi_nodes()
    for minterm in range(1 << aig.num_pis):
        values = [False] * num_nodes
        for i, node in enumerate(pi_nodes):
            values[node] = bool((minterm >> i) & 1)
        for node in aig.and_nodes():
            f0, f1 = aig.fanins(node)
            v0 = values[lit_node(f0)] ^ lit_is_complemented(f0)
            v1 = values[lit_node(f1)] ^ lit_is_complemented(f1)
            values[node] = v0 and v1
        for node in range(num_nodes):
            if values[node]:
                counts[node] += 1
    total = 1 << aig.num_pis
    probability = np.array(counts, dtype=np.float64) / float(total)
    activity = 2.0 * probability * (1.0 - probability)
    return ActivityReport(
        method="exact",
        patterns=total,
        seed=None,
        probability=probability,
        activity=activity,
    )
