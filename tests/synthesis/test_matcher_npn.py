"""Equivalence of the NPN-canonical matcher with the exhaustive reference.

The canonical index must be a drop-in replacement: the same cuts match, the
same cells win (stable tie-break), the composed pin assignments realize the
cut functions, and the Table-3 statistics of every mapping are bit-identical
at every cut width.  The fast lane exercises a benchmark subset; the slow
lane adds the mid-size C1908.  The exhaustive matcher and the scalar
match-table adapter are the oracles of ``tests/oracles/matcher.py``.
"""

import random

import pytest

from repro.bench.registry import benchmark_by_name
from repro.core import LogicFamily, build_library
from repro.flow import run_flow
from repro.logic.npn import apply_match
from repro.synthesis.matcher import LibraryMatcher, matcher_for
from repro.synthesis.mapper import technology_map
from tests.oracles.matcher import (
    ExhaustiveLibraryMatcher,
    ScalarMatcher,
    match_reduced,
)

SUBSET = ("add-16", "C1355", "t481", pytest.param("C1908", marks=pytest.mark.slow))


@pytest.fixture(scope="module")
def tg_static_library():
    return build_library(LogicFamily.TG_STATIC)


@pytest.fixture(scope="module")
def cmos_library():
    return build_library(LogicFamily.CMOS)


@pytest.fixture(scope="module")
def npn_matcher(tg_static_library):
    return LibraryMatcher(tg_static_library)


@pytest.fixture(scope="module")
def exhaustive_matcher(tg_static_library):
    return ExhaustiveLibraryMatcher(tg_static_library)


@pytest.fixture(scope="module")
def exhaustive_cmos_matcher(cmos_library):
    return ExhaustiveLibraryMatcher(cmos_library)


class TestIndexShape:
    def test_canonical_index_is_at_least_10x_smaller(
        self, npn_matcher, exhaustive_matcher
    ):
        assert len(npn_matcher) * 10 <= len(exhaustive_matcher)

    def test_one_entry_per_class_at_most_one_per_cell(
        self, npn_matcher, tg_static_library
    ):
        assert 0 < len(npn_matcher) <= len(tg_static_library)


class TestMatchEquivalence:
    def _assert_same_match(self, npn, exhaustive, num_vars, bits, prefer):
        ours = npn.match(num_vars, bits, prefer)
        reference = exhaustive.match(num_vars, bits, prefer)
        assert (ours is None) == (reference is None), (num_vars, bits, prefer)
        if ours is not None:
            assert ours.cell.name == reference.cell.name
            full = (1 << (1 << num_vars)) - 1
            rebuilt = apply_match(ours.cell.function, ours.match)
            assert rebuilt.bits == bits & full

    def test_random_tables_match_identically(self, npn_matcher, exhaustive_matcher):
        rng = random.Random(23)
        for _ in range(1500):
            num_vars = rng.randint(2, 4)
            bits = rng.getrandbits(1 << num_vars)
            for prefer in ("delay", "area"):
                self._assert_same_match(
                    npn_matcher, exhaustive_matcher, num_vars, bits, prefer
                )

    def test_cell_function_variants_match_identically(
        self, npn_matcher, exhaustive_matcher, tg_static_library
    ):
        # Every cell's own orbit, including the 5/6-input cells random
        # sampling would practically never hit.
        from repro.logic.npn import InputMatch

        rng = random.Random(24)
        for cell in tg_static_library.cells:
            n = cell.arity
            for _ in range(5):
                variant = apply_match(
                    cell.function,
                    InputMatch(
                        tuple(rng.sample(range(n), n)),
                        rng.getrandbits(n),
                        rng.random() < 0.5,
                    ),
                )
                self._assert_same_match(
                    npn_matcher, exhaustive_matcher, n, variant.bits, "delay"
                )

    def test_match_reduced_equivalent(self, npn_matcher, exhaustive_matcher):
        # A 3-leaf cut whose function ignores the middle leaf: x0 & x2.
        table = 0
        for minterm in range(8):
            if (minterm & 1) and (minterm & 4):
                table |= 1 << minterm
        ours = match_reduced(npn_matcher, (10, 11, 12), table)
        reference = match_reduced(exhaustive_matcher, (10, 11, 12), table)
        assert ours is not None and reference is not None
        assert ours[1] == reference[1] == (10, 12)
        assert ours[2] == reference[2]
        assert ours[0].cell.name == reference[0].cell.name


class TestMappingBitIdentity:
    @pytest.mark.parametrize("benchmark_name", SUBSET)
    @pytest.mark.parametrize("max_inputs", (4, 6))
    def test_mapping_statistics_identical(
        self,
        benchmark_name,
        max_inputs,
        tg_static_library,
        cmos_library,
        exhaustive_matcher,
        exhaustive_cmos_matcher,
    ):
        """NPN-matched mapping reproduces the exhaustive (seed) Table-3 numbers."""
        aig = run_flow("resyn2rs", benchmark_by_name(benchmark_name).build()).aig
        for library, exhaustive in (
            (tg_static_library, exhaustive_matcher),
            (cmos_library, exhaustive_cmos_matcher),
        ):
            ours = technology_map(
                aig,
                library,
                matcher=matcher_for(library),
                max_inputs=max_inputs,
            )
            reference = technology_map(
                aig,
                library,
                matcher=ScalarMatcher(exhaustive),
                max_inputs=max_inputs,
            )
            assert ours.statistics() == reference.statistics()
            assert [gate.cell_name for gate in ours.gates] == [
                gate.cell_name for gate in reference.gates
            ]

    def test_matcher_for_caches_one_canonical_matcher(self, tg_static_library):
        matcher = matcher_for(tg_static_library)
        assert isinstance(matcher, LibraryMatcher)
        assert matcher_for(tg_static_library) is matcher
        with pytest.raises(TypeError):
            matcher_for(tg_static_library, style="exhaustive")
