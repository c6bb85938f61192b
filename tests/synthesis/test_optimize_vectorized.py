"""Vectorized resynthesis passes vs the reference oracles.

The mapper DP is pinned to its scalar oracle decision for decision; the
vectorized ``balance``/``rewrite`` passes carry the same contract: the
array-backed passes must reproduce the reference passes of
``tests/oracles/optimize.py`` **node for node** -- same candidate order,
same gate-emission stream (losing rewrite candidates included, since their
structural-hash side effects feed later cost decisions), same structural
hashing order, same levels -- so that every table2/table3/figure6/pareto
artifact stays byte-identical to the original algorithms.  These tests pin
that contract:

* full-graph signatures and per-node choice streams (``trace``) compared on
  registered benchmarks and hypothesis-generated AIGs (small graphs
  included), for rewrite at K=3/4/5 and balance;
* the complete ``resyn2rs`` flow against its oracle twin (the same flow
  spec and driver with the reference passes bound to its pass names);
* the heapq scheduling of ``balance_reference`` against a verbatim copy of
  the original ``ordered.pop(0)``/``insert`` algorithm;
* the NPN-class rewrite library: member programs replayed through
  ``compile_ops``/``replay_ops`` equal ``replay_cover`` gate for gate, and
  ``instantiate`` (class template + composed transform) is functionally
  equivalent to direct member synthesis for every class encountered;
* the mask-based ``_cube_minterms`` against the per-minterm loop it
  replaced, and all three cut enumerators cut for cut.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.registry import benchmark_by_name
from repro.flow import run_flow
from repro.synthesis.aig import Aig, CONST0, CONST1, lit_is_complemented, lit_node
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cuts import enumerate_cuts_scalar, enumerate_cuts_vectorized
from repro.synthesis.optimize import balance, rewrite
from repro.synthesis.rewrite_lib import (
    REWRITE_LIBRARY,
    RewriteLibrary,
    _cube_minterms,
    compile_cover,
    compile_ops,
    replay_cover,
    replay_ops,
)
from tests.oracles.cuts import cut_set_from_dict, enumerate_cuts_reference
from tests.oracles.optimize import (
    balance_reference,
    rewrite_reference,
    run_reference_flow,
)

FAST_BENCHMARKS = ("add-16", "t481")


def _random_aig(seed: int, num_inputs: int, num_nodes: int) -> Aig:
    import random

    rng = random.Random(seed)
    aig = Aig(f"rand-{seed}")
    literals = [aig.add_pi(f"x{i}") for i in range(num_inputs)]
    for _ in range(num_nodes):
        a = rng.choice(literals) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(aig.and_gate(a, b))
    for i, literal in enumerate(literals[-max(2, num_inputs // 2):]):
        aig.add_po(f"y{i}", literal ^ rng.randint(0, 1))
    return aig


def _degenerate_aig(kind: str) -> Aig:
    """Tiny graphs at the edges of the array passes' input space."""
    aig = Aig(kind)
    if kind == "empty":
        return aig
    x = aig.add_pi("x")
    y = aig.add_pi("y")
    if kind == "wires":
        aig.add_po("x", x)
        aig.add_po("nx", x ^ 1)
        aig.add_po("zero", CONST0)
        aig.add_po("one", CONST1)
    elif kind == "single-and":
        gate = aig.and_gate(x, y)
        aig.add_po("g", gate)
        aig.add_po("ng", gate ^ 1)
        aig.add_po("x", x)
    elif kind == "dead-logic":
        z = aig.add_pi("z")
        aig.and_gate(aig.and_gate(x, y), z)
        aig.add_po("x", x)
    return aig


def _signature(aig: Aig) -> tuple:
    """Full structural identity: every node's fanins/level, POs, names."""
    return (
        tuple((node.fanin0, node.fanin1, node.level) for node in aig._nodes),
        tuple(aig.po_literals),
        tuple(aig.po_names),
        tuple(aig.pi_names),
    )


def _compare_rewrite(aig: Aig, max_inputs: int) -> None:
    reference_trace: list = []
    reference = rewrite_reference(aig, max_inputs=max_inputs, trace=reference_trace)
    fast_trace: list = []
    fast = rewrite(aig, max_inputs=max_inputs, trace=fast_trace)
    assert fast_trace == reference_trace, "rewrite choice streams diverge"
    assert _signature(fast) == _signature(reference)


def _compare_balance(aig: Aig) -> None:
    reference_trace: list = []
    reference = balance_reference(aig, trace=reference_trace)
    fast_trace: list = []
    fast = balance(aig, trace=fast_trace)
    assert fast_trace == reference_trace, "balance choice streams diverge"
    assert _signature(fast) == _signature(reference)


class TestPassParity:
    """Vectorized passes vs reference oracles, node for node."""

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    @pytest.mark.parametrize("max_inputs", (3, 4, 5))
    def test_benchmark_rewrite(self, bench_name, max_inputs):
        _compare_rewrite(benchmark_by_name(bench_name).build(), max_inputs)

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    def test_benchmark_balance(self, bench_name):
        _compare_balance(benchmark_by_name(bench_name).build())

    @pytest.mark.parametrize("kind", ("empty", "wires", "single-and", "dead-logic"))
    def test_degenerate_graphs(self, kind):
        aig = _degenerate_aig(kind)
        for max_inputs in (3, 4, 5):
            _compare_rewrite(aig, max_inputs)
        _compare_balance(aig)
        fast = run_flow("resyn2rs", aig)
        reference = run_reference_flow("resyn2rs", aig)
        assert _signature(fast.aig) == _signature(reference.aig)

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    def test_benchmark_resyn2rs_flow(self, bench_name):
        aig = benchmark_by_name(bench_name).build()
        fast = run_flow("resyn2rs", aig)
        reference = run_reference_flow("resyn2rs", aig)
        assert _signature(fast.aig) == _signature(reference.aig)
        assert len(fast.passes) == len(reference.passes)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=7),
        num_nodes=st.integers(min_value=5, max_value=60),
        max_inputs=st.sampled_from((3, 4, 5)),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_rewrite(self, seed, num_inputs, num_nodes, max_inputs):
        _compare_rewrite(_random_aig(seed, num_inputs, num_nodes), max_inputs)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=7),
        num_nodes=st.integers(min_value=5, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_balance(self, seed, num_inputs, num_nodes):
        _compare_balance(_random_aig(seed, num_inputs, num_nodes))

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=6),
        num_nodes=st.integers(min_value=8, max_value=50),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_resyn2rs_flow(self, seed, num_inputs, num_nodes):
        aig = _random_aig(seed, num_inputs, num_nodes)
        fast = run_flow("resyn2rs", aig)
        reference = run_reference_flow("resyn2rs", aig)
        assert _signature(fast.aig) == _signature(reference.aig)


def _balance_original(aig: Aig) -> Aig:
    """Verbatim pre-heapq balance: sorted list with pop(0)/insert-after-ties.

    The oracle for the satellite fix: ``balance_reference``'s heap keyed on
    ``(level, insertion index)`` must reproduce this scheduling exactly.
    """
    fanout = aig_arrays(aig).fanout.tolist()
    new = Aig(aig.name)
    mapping: dict[int, int] = {0: CONST0}
    for name in aig.pi_names:
        mapping[lit_node(aig.pi_literal(name))] = new.add_pi(name)

    def translate(literal: int) -> int:
        return mapping[lit_node(literal)] ^ (literal & 1)

    def collect_and_leaves(literal: int, root: bool) -> list:
        node = lit_node(literal)
        if (
            lit_is_complemented(literal)
            or not aig.is_and(node)
            or (not root and fanout[node] > 1)
        ):
            return [literal]
        f0, f1 = aig.fanins(node)
        return collect_and_leaves(f0, False) + collect_and_leaves(f1, False)

    def rebuild(node: int) -> int:
        if node in mapping:
            return mapping[node]
        leaves = collect_and_leaves(node << 1, True)
        translated = []
        for leaf in leaves:
            leaf_node = lit_node(leaf)
            if leaf_node not in mapping:
                rebuild(leaf_node)
            translated.append(translate(leaf))
        ordered = sorted(translated, key=new.literal_level)
        while len(ordered) > 1:
            a = ordered.pop(0)
            b = ordered.pop(0)
            combined = new.and_gate(a, b)
            level = new.literal_level(combined)
            position = 0
            while position < len(ordered) and new.literal_level(
                ordered[position]
            ) <= level:
                position += 1
            ordered.insert(position, combined)
        result = ordered[0] if ordered else CONST1
        mapping[node] = result
        return result

    for node in aig.and_nodes():
        rebuild(node)
    for name, literal in zip(aig.po_names, aig.po_literals):
        if lit_node(literal) not in mapping:
            rebuild(lit_node(literal))
        new.add_po(name, translate(literal))
    return new.cleanup()


class TestBalanceHeapEquivalence:
    """heapq scheduling == the original sorted-list scheduling, gate for gate."""

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    def test_benchmarks(self, bench_name):
        aig = benchmark_by_name(bench_name).build()
        assert _signature(balance_reference(aig)) == _signature(
            _balance_original(aig)
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=7),
        num_nodes=st.integers(min_value=5, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_random(self, seed, num_inputs, num_nodes):
        aig = _random_aig(seed, num_inputs, num_nodes)
        assert _signature(balance_reference(aig)) == _signature(
            _balance_original(aig)
        )


def _table_strategy():
    return st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)
        )
    )


def _simulate_literal_table(aig: Aig, literal: int, num_vars: int) -> int:
    """Truth table of ``literal`` over the first ``num_vars`` PIs."""
    size = 1 << num_vars
    words = {
        name: [
            sum(
                1 << m
                for m in range(size)
                if (m >> index) & 1
            )
        ]
        for index, name in enumerate(aig.pi_names)
    }
    aig.add_po("_probe", literal)
    try:
        result = aig.simulate_words(words)["_probe"][0]
    finally:
        aig._po_names.pop()
        aig._po_literals.pop()
    return result & ((1 << size) - 1)


class TestRewriteLibrary:
    """Program compilation, op schedules and template instantiation."""

    @given(_table_strategy())
    @settings(max_examples=60, deadline=None)
    def test_replay_ops_equals_replay_cover(self, arity_table):
        num_vars, table = arity_table
        program = compile_cover(table, num_vars)
        ops, result = compile_ops(program)

        a = Aig("cover")
        leaves_a = [a.add_pi(f"x{i}") for i in range(num_vars)]
        lit_a = replay_cover(a.and_gate, leaves_a, program)

        b = Aig("ops")
        leaves_b = [b.add_pi(f"x{i}") for i in range(num_vars)]
        lit_b = replay_ops(b.and_gate, leaves_b, ops, result)

        assert lit_a == lit_b, "op schedule returned a different literal"
        assert _signature(a) == _signature(b), "op schedule emitted different gates"

    @given(_table_strategy())
    @settings(max_examples=60, deadline=None)
    def test_template_instantiation_is_functionally_equivalent(self, arity_table):
        num_vars, table = arity_table
        aig = Aig("inst")
        leaves = [aig.add_pi(f"x{i}") for i in range(num_vars)]

        direct = replay_cover(
            aig.and_gate, leaves, REWRITE_LIBRARY.program(table, num_vars)
        )
        via_template = REWRITE_LIBRARY.instantiate(aig, leaves, table, num_vars)

        assert _simulate_literal_table(aig, direct, num_vars) == table
        assert _simulate_literal_table(aig, via_template, num_vars) == table

    def test_class_compression(self):
        """Members share class templates: classes <= members, and a member
        equal to its canonical form reuses the template program object."""
        library = RewriteLibrary()
        for table in range(1 << (1 << 2)):
            library.program(table, 2)
        assert library.member_count == 16
        assert library.class_count < library.member_count
        template, _match = library.template_for(0b1000, 2)
        canonical_program = library.program(template.table, 2)
        assert canonical_program is template.program


class TestCubeMintermMasks:
    """Mask-based cube arithmetic vs the per-minterm loop it replaced."""

    @given(
        num_vars=st.integers(min_value=1, max_value=6),
        care=st.integers(min_value=0, max_value=63),
        value=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=120, deadline=None)
    def test_cube_minterms_matches_loop(self, num_vars, care, value):
        care &= (1 << num_vars) - 1
        naive = 0
        for minterm in range(1 << num_vars):
            if (minterm & care) == value:
                naive |= 1 << minterm
        assert _cube_minterms(num_vars, care, value) == naive


class TestEnumeratorParity:
    """All three cut enumerators produce identical CutSet arrays."""

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    @pytest.mark.parametrize("params", ((4, 4), (3, 4), (6, 8)))
    def test_benchmarks(self, bench_name, params):
        max_inputs, cut_limit = params
        aig = benchmark_by_name(bench_name).build()
        scalar = enumerate_cuts_scalar(aig, max_inputs, cut_limit)
        vectorized = enumerate_cuts_vectorized(aig, max_inputs, cut_limit)
        reference = cut_set_from_dict(
            enumerate_cuts_reference(aig, max_inputs, cut_limit),
            aig_arrays(aig),
            max_inputs,
            cut_limit,
        )
        for other in (vectorized, reference):
            for field in ("count", "leaves", "size", "table", "support"):
                assert np.array_equal(
                    getattr(scalar, field), getattr(other, field)
                ), f"cut enumerators disagree on {field}"

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_inputs=st.integers(min_value=3, max_value=7),
        num_nodes=st.integers(min_value=5, max_value=40),
    )
    @settings(max_examples=20, deadline=None)
    def test_random(self, seed, num_inputs, num_nodes):
        aig = _random_aig(seed, num_inputs, num_nodes)
        scalar = enumerate_cuts_scalar(aig, 4, 4)
        vectorized = enumerate_cuts_vectorized(aig, 4, 4)
        reference = cut_set_from_dict(
            enumerate_cuts_reference(aig, 4, 4), aig_arrays(aig), 4, 4
        )
        for other in (vectorized, reference):
            for field in ("count", "leaves", "size", "table", "support"):
                assert np.array_equal(getattr(scalar, field), getattr(other, field))
