"""Benchmark: the named synthesis flows and their balance/rewrite passes.

Times every registered flow through the pass manager on a mid-size
benchmark, plus the two passes of the ``resyn2rs`` lane on their own.
Results are exported as pytest-benchmark JSON by the nightly CI job (see
``.github/workflows/ci.yml``).
"""

import pytest

from repro.bench.registry import benchmark_by_name
from repro.flow import available_flows, run_flow

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("flow", sorted(available_flows()))
def test_bench_named_flows(benchmark, flow):
    """Per-flow optimization time on a mid-size benchmark (pass telemetry on)."""
    aig = benchmark_by_name("C1355").build()
    result = benchmark(run_flow, flow, aig)
    assert result.aig.num_ands > 0
    if flow != "none":
        assert result.passes


@pytest.mark.parametrize("pass_name", ("balance", "rewrite"))
def test_bench_single_pass(benchmark, pass_name):
    """Balance/rewrite split of the ``resyn2rs`` lane (vectorized fast paths).

    ``rewrite`` is timed on the balanced subject -- its position in the
    flow -- with the per-AIG cut-set memo dropped each round so every round
    pays for cut enumeration like a cold flow does.
    """
    from repro.flow.passes import get_pass

    aig = benchmark_by_name("C1355").build()
    if pass_name == "rewrite":
        aig = run_flow("quick", aig).aig

    run = get_pass(pass_name).run

    def setup():
        aig.__dict__.pop("_cut_sets", None)
        return (aig,), {}

    result = benchmark.pedantic(run, setup=setup, rounds=20)
    assert result.num_ands > 0
