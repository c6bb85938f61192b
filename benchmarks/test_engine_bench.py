"""Benchmark: the experiment engine's caching and scheduling wins.

Measures the full Table-3 regeneration through the engine: a cold run
(every job computed) against a warm run (every job served from the
content-addressed cache), asserting the cache delivers at least the 3x
wall-clock reduction the engine exists for.
"""

import time

import pytest

from repro.experiments.engine import ExperimentEngine

pytestmark = pytest.mark.slow


def test_engine_warm_cache_at_least_3x_faster(benchmark, tmp_path_factory):
    """Full Table 3: cold compute vs. warm content-addressed cache."""
    cache_dir = tmp_path_factory.mktemp("engine-cache")
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)

    start = time.perf_counter()
    cold = engine.run_table3()
    cold_seconds = time.perf_counter() - start

    warm = benchmark.pedantic(engine.run_table3, iterations=1, rounds=1)
    warm_seconds = benchmark.stats.stats.mean

    view = lambda result: [(row.name, row.results) for row in result.rows]
    assert view(cold) == view(warm)
    assert cold_seconds >= 3.0 * warm_seconds, (
        f"warm cache run ({warm_seconds:.3f}s) not >=3x faster than cold "
        f"({cold_seconds:.3f}s)"
    )
