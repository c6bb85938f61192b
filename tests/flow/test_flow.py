"""Tests for the built-in synthesis flows and their driver."""

import pytest

from repro.flow import FLOWS, PASSES, FlowSpec, available_flows, get_flow, run_flow
from repro.logic.simulation import random_pattern_words
from repro.synthesis import CircuitBuilder, optimize
from repro.synthesis.optimize import balance, rewrite


def _adder(width=6, name="adder"):
    builder = CircuitBuilder(name)
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    total, carry = builder.ripple_adder(a, b)
    builder.output_bus("s", total)
    builder.output("cout", carry)
    return builder.finish()


def _equivalent(a, b, seed=5):
    patterns = random_pattern_words(a.pi_names, num_words=4, seed=seed)
    return a.simulate_words(patterns) == b.simulate_words(patterns)


def _shape(aig):
    return (
        aig.num_ands,
        aig.depth(),
        [(node, aig.fanins(node)) for node in aig.and_nodes()],
        tuple(aig.po_literals),
    )


class TestTables:
    def test_builtin_flows(self):
        assert set(available_flows()) == {"none", "quick", "resyn2rs", "deep"}

    def test_builtin_flows_name_only_builtin_passes(self):
        used = {name for spec in FLOWS.values() for name in spec.pass_names()}
        assert used == set(PASSES) == {"balance", "rewrite", "rewrite3"}

    def test_unknown_names_raise_with_suggestions(self):
        with pytest.raises(KeyError, match="resyn2rs"):
            get_flow("not-a-flow")
        with pytest.raises(KeyError, match="balance"):
            FlowSpec(name="broken-test-flow", prologue=("no-such-pass",))

    def test_flow_with_unknown_round_pass_rejected(self):
        with pytest.raises(KeyError, match="no-such-pass"):
            FlowSpec(
                name="broken-round-flow", round_passes=("no-such-pass",), max_rounds=1
            )

    @pytest.mark.parametrize("name", ("balance", "rewrite", "rewrite3"))
    def test_every_pass_preserves_function(self, name):
        aig = _adder(5, f"adder-pass-{name}")
        assert _equivalent(aig, PASSES[name](aig))


class TestFlowExecution:
    def test_resyn2rs_reproduces_optimize_exactly(self):
        aig = _adder(8, "adder8")
        via_flow = run_flow("resyn2rs", aig).aig
        via_optimize = optimize(aig)
        assert _shape(via_flow) == _shape(via_optimize)

    def test_resyn2rs_matches_hand_rolled_driver(self):
        # The flow driver must replicate the historical optimize() loop
        # structure bit for bit (balance; rounds of rewrite+balance; keep
        # best; prefer the input when it was already smaller).
        aig = _adder(8, "adder8b")
        current = balance(aig)
        best = current
        for _ in range(3):
            before = current.num_ands
            current = balance(rewrite(current))
            if (current.num_ands, current.depth()) < (best.num_ands, best.depth()):
                best = current
            if current.num_ands >= before:
                break
        if (aig.num_ands, aig.depth()) < (best.num_ands, best.depth()):
            best = aig
        assert _shape(run_flow("resyn2rs", aig).aig) == _shape(best)

    @pytest.mark.parametrize("flow", ("none", "quick", "resyn2rs", "deep"))
    def test_every_flow_preserves_function(self, flow):
        aig = _adder(6, f"adder-{flow}")
        result = run_flow(flow, aig)
        assert _equivalent(aig, result.aig)

    @pytest.mark.parametrize("flow", ("quick", "resyn2rs", "deep"))
    def test_flows_never_worse_than_input(self, flow):
        aig = _adder(6, f"adder-m-{flow}")
        result = run_flow(flow, aig)
        assert (result.aig.num_ands, result.aig.depth()) <= (aig.num_ands, aig.depth())

    def test_none_flow_is_identity(self):
        aig = _adder(3, "adder3")
        result = run_flow("none", aig)
        assert result.aig is aig
        assert result.passes == []

    def test_run_flow_accepts_spec_instances(self):
        aig = _adder(3, "adder3s")
        spec = FlowSpec(name="inline", prologue=("balance",))
        assert _equivalent(aig, run_flow(spec, aig).aig)

    def test_negative_max_rounds_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec(name="bad", max_rounds=-1)


class TestTelemetry:
    def test_per_pass_node_and_depth_accounting(self):
        aig = _adder(8, "adder8t")
        result = run_flow("resyn2rs", aig)
        assert result.passes, "resyn2rs must execute at least the balance prologue"
        assert result.passes[0].name == "balance"
        assert result.passes[0].nodes_before == aig.num_ands
        assert result.passes[0].depth_before == aig.depth()
        for before, after in zip(result.passes, result.passes[1:]):
            assert after.nodes_before == before.nodes_after
            assert after.depth_before == before.depth_after
        assert all(p.seconds >= 0 for p in result.passes)
        assert result.seconds == pytest.approx(sum(p.seconds for p in result.passes))
        assert len(result.telemetry_lines()) == len(result.passes)

    def test_fingerprint_identifies_behaviour(self):
        resyn = get_flow("resyn2rs")
        quick = get_flow("quick")
        assert resyn.fingerprint() != quick.fingerprint()
        from dataclasses import replace

        tweaked = replace(resyn, max_rounds=5)
        assert tweaked.fingerprint() != resyn.fingerprint()

    def test_pass_names_in_first_use_order(self):
        assert get_flow("resyn2rs").pass_names() == ("balance", "rewrite")
        assert get_flow("deep").pass_names() == ("balance", "rewrite", "rewrite3")
