"""Tests of the runner benchmark's own parts (not of the program)."""

from __future__ import annotations

import json
import re
import subprocess
from pathlib import Path

import pytest

from perfbench import gate, imports, procs, tracing
from perfbench.run import END_TO_END, per_layer_names, unit_of
from perfbench.workloads import WORKLOADS, runner_args

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_declared():
    end_to_end = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    per_layer = [metric["name"] for metric in BENCHMARK["per_layer"]]
    for name in end_to_end + per_layer:
        assert METRIC_NAME.fullmatch(name), name
    assert end_to_end == list(END_TO_END)
    assert per_layer == list(per_layer_names())
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"])


def test_benchmark_json_declares_the_workloads():
    declared = {workload["name"]: workload["why"] for workload in BENCHMARK["workloads"]}
    assert declared == {name: workload.why for name, workload in WORKLOADS.items()}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_self_times_and_unattributed_sum_to_the_wall():
    ticks = iter(range(100))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))
    cuts = recorder.wrap("cuts.cut_set", lambda: None)

    def flow():
        cuts()
        cuts()

    recorder.wrap("flow.run_flow", flow)()  # spans 0..5, children 1..2 and 3..4
    cuts()  # 6..7
    metrics = tracing.layer_metrics(recorder.spans, recorder.counts, wall=10.0)
    assert metrics["flow.run_flow_s"] == 3.0
    assert metrics["cuts.cut_set_s"] == 3.0
    assert metrics["trace.unattributed_s"] == 4.0
    layers = sum(metrics[f"{name}_s"] for name in tracing.SPAN_NAMES)
    assert layers + metrics["trace.unattributed_s"] == metrics["trace.wall_s"]


def test_traced_run_attributes_its_wall_and_checks_its_netlists(tmp_path):
    args = runner_args(WORKLOADS["paper_cold"], 2009, str(tmp_path / "cache"), str(tmp_path / "json"))
    done = subprocess.run(
        procs.python(str(ROOT / "perfbench" / "traced.py"), str(tmp_path / "trace.json"), "--",
                     "add-16", "t481", *args),
        env=procs.child_env(ROOT, tmp_path), cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads((tmp_path / "trace.json").read_text())
    assert report["netlists_checked"] == 6
    assert report["netlist_errors"] == []
    spans = [tracing.Span(**span) for span in report["spans"]]
    metrics = tracing.layer_metrics(spans, report["counts"], report["wall_s"])
    layers = sum(metrics[f"{name}_s"] for name in tracing.SPAN_NAMES)
    assert 0 <= metrics["trace.unattributed_s"] < report["wall_s"]
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(report["wall_s"])
    assert metrics["mapper.technology_map_s"] > 0 and metrics["mapper.gates_n"] > 0


def test_artifact_gate_fails_on_one_flipped_byte(tmp_path):
    for name in gate.ARTIFACTS:
        (tmp_path / name).write_text(json.dumps({"artifact": name}))
    expected = {name: gate.sha256_file(tmp_path / name) for name in gate.ARTIFACTS}
    assert gate.artifact_errors(tmp_path, expected) == []
    data = bytearray((tmp_path / "table3.json").read_bytes())
    data[len(data) // 2] ^= 0x01
    (tmp_path / "table3.json").write_bytes(bytes(data))
    assert gate.artifact_errors(tmp_path, expected) == [
        "table3.json: sha256 differs from the recorded digest"
    ]


def test_other_seeds_compare_only_the_seed_independent_artifact():
    digests = gate.load_digests()
    assert set(gate.expected_digests(digests, "recover_j2", digests["seed"])) == set(gate.ARTIFACTS)
    assert set(gate.expected_digests(digests, "recover_j2", digests["seed"] + 1)) == {"table2.json"}


def test_digests_were_recorded_at_the_programs_default_seed():
    from repro.analysis.activity import DEFAULT_SEED

    assert gate.load_digests()["seed"] == DEFAULT_SEED


@pytest.mark.parametrize("circuit", ["t481", "add-16"])  # exhaustive / seeded patterns
def test_netlist_gate_accepts_a_mapping_and_rejects_a_complemented_gate(circuit):
    from repro.bench.registry import benchmark_by_name
    from repro.core.families import LogicFamily
    from repro.core.library import build_library
    from repro.synthesis.mapper import technology_map

    source = benchmark_by_name(circuit).build()
    mapped = technology_map(source, build_library(LogicFamily.TG_STATIC))
    netlist = gate.MappedNetlist.capture(source, mapped)
    assert gate.netlist_errors(netlist, source) == []

    outputs = {output for output, _, _ in netlist.gates}
    po_node = next(lit >> 1 for lit in netlist.po_literals.values() if lit >> 1 in outputs)
    gates = tuple(
        (output, leaves, table ^ ((1 << (1 << len(leaves))) - 1)) if output == po_node
        else (output, leaves, table)
        for output, leaves, table in netlist.gates
    )
    broken = gate.MappedNetlist(
        netlist.benchmark, netlist.library, netlist.pi_nodes, netlist.po_literals, gates
    )
    assert gate.netlist_errors(broken, source)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_always_yields_the_same_runner_arguments(name):
    workload = WORKLOADS[name]
    first = runner_args(workload, 7, "cache", "json")
    assert runner_args(workload, 7, "cache", "json") == first
    assert first[first.index("--power-seed") + 1] == "7"
    other = runner_args(workload, 8, "cache", "json")
    assert [a for a, b in zip(first, other) if a != b] == ["7"]


def test_import_breakdown_sums_self_times_by_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:        20 |         20 |     repro.synthesis.aig",
        "import time:        30 |         50 |   repro.synthesis",
        "import time:        40 |         40 | repro.experimentsx",
    ])
    metrics = imports.import_metrics(text)
    assert metrics["import.total_s"] == pytest.approx(240e-6)
    assert metrics["import.numpy_s"] == pytest.approx(150e-6)
    assert metrics["import.repro.synthesis_s"] == pytest.approx(50e-6)
    assert metrics["import.repro.experiments_s"] == 0
