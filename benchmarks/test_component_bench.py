"""Component micro-benchmarks for the synthesis substrate.

These complement the table/figure harness by timing the individual stages of
the flow (library construction, matcher construction, optimization, cut
enumeration, mapping) on a fixed mid-size circuit, so performance regressions
in any one stage are visible in isolation.
"""

import pytest

from repro import obs
from repro.bench.generators.adders import ripple_adder_circuit
from repro.bench.generators.multiplier import array_multiplier_circuit
from repro.core.families import LogicFamily, build_family_cells
from repro.core.library import build_library
from repro.logic import npn
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cuts import cut_set_for, enumerate_cuts
from repro.synthesis.mapper import technology_map
from repro.synthesis.matcher import LibraryMatcher
from repro.synthesis.optimize import balance, optimize, rewrite


@pytest.fixture(scope="module")
def multiplier_aig():
    return array_multiplier_circuit(8)


def test_bench_library_construction(benchmark):
    """Build and verify all 46 static transmission-gate cells."""
    cells = benchmark(build_family_cells, LogicFamily.TG_STATIC)
    assert len(cells) == 46


def test_bench_matcher_construction(benchmark):
    """Build the NPN-canonical match index of the static library."""
    library = build_library(LogicFamily.TG_STATIC)
    matcher = benchmark(LibraryMatcher, library)
    # One entry per matched canonical class, at most one per cell.
    assert 0 < len(matcher) <= len(library)


def test_bench_balance(benchmark, multiplier_aig):
    balanced = benchmark(balance, multiplier_aig)
    assert balanced.depth() <= multiplier_aig.depth()


def test_bench_rewrite(benchmark, multiplier_aig):
    rewritten = benchmark(rewrite, multiplier_aig)
    assert rewritten.num_ands > 0


def test_bench_optimize_adder(benchmark):
    aig = ripple_adder_circuit(32)
    optimized = benchmark(optimize, aig)
    assert optimized.num_ands <= aig.num_ands


def test_bench_cut_enumeration(benchmark, multiplier_aig):
    cuts = benchmark(enumerate_cuts, multiplier_aig)
    assert len(cuts) >= multiplier_aig.num_ands


def test_bench_matching_batch(benchmark, multiplier_aig, libraries, matchers):
    """Batched match resolution (cut_function_table + match_table) on the
    multiplier's ranked cuts.

    Every round drops the per-cut-set memos and the batch canonicalizer memo
    first, so the benchmark times the full canonicalize/searchsorted/compose
    pipeline rather than a memo hit.
    """
    matcher = matchers[LogicFamily.TG_STATIC]
    arrays = aig_arrays(multiplier_aig)
    cut_set = cut_set_for(multiplier_aig)

    def run():
        for field in ("_match_tables", "_function_table", "_projected"):
            cut_set.__dict__.pop(field, None)
        npn._COLUMN_MEMO.clear()
        return matcher.match_table(cut_set, arrays.and_nodes, "delay")

    table = benchmark(run)
    assert table.matched.any()
    assert table.inverse.shape[0] == int(
        (cut_set.count[arrays.and_nodes] - 1).sum()
    )


def test_bench_mapping_only(benchmark, multiplier_aig, libraries, matchers):
    """Technology mapping alone (cuts + matching + covering) on an 8x8 multiplier."""
    library = libraries[LogicFamily.TG_STATIC]
    matcher = matchers[LogicFamily.TG_STATIC]
    mapped = benchmark(technology_map, multiplier_aig, library, matcher)
    assert mapped.gate_count > 0


def test_bench_obs_disabled_overhead(benchmark):
    """The observability off-path across 1000 instrumented sections.

    Every pipeline stage / mapper round / flow pass runs through these call
    sites unconditionally, so the disabled path (one module-attribute read
    each) must stay effectively free -- this pins it in seconds per 1000
    stage+span+count triples.
    """
    obs.reset()  # tracing off: measure the path production runs on
    assert not obs.tracing_active()

    def hot_loop():
        for _ in range(1000):
            with obs.stage("bench-stage"):
                with obs.span("bench-span", category="task"):
                    obs.count("bench-counter")

    benchmark(hot_loop)
    assert obs.spans() == []  # disabled: nothing may have been recorded
    assert obs.counters() == {}
