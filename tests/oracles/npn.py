"""Brute-force NPN canonicalization (oracle of ``repro.logic.npn``)."""

from __future__ import annotations

from itertools import permutations

from repro.logic.truth_table import TruthTable


def npn_canonical_exhaustive(table: TruthTable) -> TruthTable:
    """Brute-force reference for :func:`repro.logic.npn.npn_canonical`.

    Exhaustive search over ``2 * n! * 2**n`` candidates.
    """
    n = table.num_vars
    if n > 6:
        raise ValueError("npn_canonical is limited to 6 inputs")
    best: int | None = None
    for output_negated in (False, True):
        base = ~table if output_negated else table
        for phase in range(1 << n):
            phased = base.apply_phase(phase)
            for perm in permutations(range(n)):
                candidate = phased.permute_inputs(perm).bits
                if best is None or candidate < best:
                    best = candidate
    assert best is not None
    return TruthTable(n, best)
