"""Switch-level simulation tests: functional correctness and full swing.

These tests reproduce the qualitative claims of Sec. 3 of the paper:

* every static transmission-gate cell computes the complement of its Table-1
  function at the output node, with full swing for every input assignment;
* a pull network built from pass transistors (or the dynamic GNOR of Fig. 2)
  exhibits degraded levels for some assignments, which is exactly why the
  transmission-gate construction and the restoration stages exist.
"""

import pytest

from repro.circuits import (
    CellStyle,
    build_cell_netlist,
    network_from_expr,
    simulate_cell,
)
from repro.logic import parse_expr

TABLE1_SAMPLE = [
    "A",
    "A ^ B",
    "A | B",
    "A & B",
    "(A ^ B) | C",
    "(A ^ B) & C",
    "(A ^ B) | (A ^ C)",
    "(A ^ B) & (A ^ C)",
    "(A ^ B) | (C ^ D)",
    "(A ^ B) & (C ^ D)",
    "A | B | C",
    "(A | B) & C",
    "A | (B & C)",
    "A & B & C",
    "(A ^ D) | (B ^ D) | (C ^ D)",
    "((A ^ D) | (B ^ D)) & (C ^ D)",
    "(A ^ D) | ((B ^ E) & (C ^ F))",
    "(A ^ D) & (B ^ E) & (C ^ F)",
]


def verify_cell_function(netlist, expected_output):
    """Simulate a cell and assert its output function is ``expected_output``
    (over the netlist's sorted input signal order)."""
    result = simulate_cell(netlist)
    if result.output_table != expected_output:
        raise AssertionError(
            f"cell {netlist.name!r} computes {result.output_table} "
            f"but {expected_output} was expected"
        )
    return result


def _expected_output(expr_text):
    expr = parse_expr(expr_text)
    order = sorted(expr.variables())
    return ~expr.to_truth_table(order)


class TestTransmissionGateStatic:
    @pytest.mark.parametrize("expr_text", TABLE1_SAMPLE)
    def test_output_is_complement_of_function(self, expr_text):
        network = network_from_expr(parse_expr(expr_text))
        cell = build_cell_netlist("cell", network, CellStyle.TRANSMISSION_GATE_STATIC)
        result = verify_cell_function(cell, _expected_output(expr_text))
        assert result.is_well_formed

    @pytest.mark.parametrize("expr_text", TABLE1_SAMPLE)
    def test_full_swing_everywhere(self, expr_text):
        network = network_from_expr(parse_expr(expr_text))
        cell = build_cell_netlist("cell", network, CellStyle.TRANSMISSION_GATE_STATIC)
        result = simulate_cell(cell)
        assert result.is_full_swing, (
            f"{expr_text}: degraded levels at minterms {result.degraded_minterms}"
        )


class TestPseudoLogic:
    @pytest.mark.parametrize("expr_text", TABLE1_SAMPLE)
    def test_pseudo_output_function(self, expr_text):
        network = network_from_expr(parse_expr(expr_text))
        cell = build_cell_netlist("cell", network, CellStyle.TRANSMISSION_GATE_PSEUDO)
        verify_cell_function(cell, _expected_output(expr_text))

    def test_pseudo_never_floats(self):
        network = network_from_expr(parse_expr("(A ^ B) & C"))
        cell = build_cell_netlist("cell", network, CellStyle.TRANSMISSION_GATE_PSEUDO)
        result = simulate_cell(cell)
        assert not result.floating_minterms

    def test_pseudo_high_level_is_full_swing(self):
        # The always-on p-type load restores the high level fully.
        network = network_from_expr(parse_expr("(A ^ B) | C"))
        cell = build_cell_netlist("cell", network, CellStyle.TRANSMISSION_GATE_PSEUDO)
        result = simulate_cell(cell)
        assert result.is_full_swing


class TestPassTransistorDegradation:
    def test_pass_transistor_pd_degrades_low_level(self):
        # With a single ambipolar pass transistor in the PD network, the
        # assignments that configure it as p-type pull the output down only to
        # |VTp| (Sec. 3.2) -> flagged as degraded.
        network = network_from_expr(parse_expr("A ^ B"))
        cell = build_cell_netlist("cell", network, CellStyle.PASS_TRANSISTOR_STATIC)
        result = simulate_cell(cell)
        assert not result.is_full_swing
        assert result.degraded_minterms

    def test_pass_transistor_still_functionally_correct(self):
        network = network_from_expr(parse_expr("(A ^ B) & C"))
        cell = build_cell_netlist("cell", network, CellStyle.PASS_TRANSISTOR_STATIC)
        verify_cell_function(cell, _expected_output("(A ^ B) & C"))

    def test_dynamic_gnor_weakness_reproduced(self):
        # Fig. 2: the dynamic GNOR pull-down formed exclusively by p-type
        # devices (B = D = 1) cannot pull the output to a full low level.
        # We model its PD network as two parallel pass-transistor XOR switches.
        network = network_from_expr(parse_expr("(A ^ B) | (C ^ D)"))
        cell = build_cell_netlist("gnor", network, CellStyle.PASS_TRANSISTOR_PSEUDO)
        result = simulate_cell(cell)
        order = result.input_order
        degraded_envs = [
            {name: bool((m >> i) & 1) for i, name in enumerate(order)}
            for m in result.degraded_minterms
        ]
        # Some degraded assignment has both control signals high, the exact
        # scenario described in Sec. 3.
        assert any(env["B"] and env["D"] for env in degraded_envs)


class TestWellFormedness:
    def test_static_cells_never_float_or_contend(self):
        for expr_text in TABLE1_SAMPLE:
            network = network_from_expr(parse_expr(expr_text))
            cell = build_cell_netlist("cell", network, CellStyle.TRANSMISSION_GATE_STATIC)
            result = simulate_cell(cell)
            assert result.is_well_formed

    def test_cmos_nor2_function(self):
        network = network_from_expr(parse_expr("A | B"), allow_xor=False)
        cell = build_cell_netlist("nor2", network, CellStyle.CMOS_STATIC)
        result = verify_cell_function(cell, _expected_output("A | B"))
        assert result.is_full_swing

    def test_verify_cell_function_raises_on_mismatch(self):
        network = network_from_expr(parse_expr("A | B"))
        cell = build_cell_netlist("nor2", network, CellStyle.TRANSMISSION_GATE_STATIC)
        with pytest.raises(AssertionError):
            verify_cell_function(cell, _expected_output("A & B"))

    def test_simulation_input_limit(self):
        text = " | ".join(f"X{i}" for i in range(13))
        network = network_from_expr(parse_expr(text))
        cell = build_cell_netlist("wide", network, CellStyle.TRANSMISSION_GATE_STATIC)
        with pytest.raises(ValueError):
            simulate_cell(cell)
