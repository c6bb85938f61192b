"""The mask switch-level solver reproduces the scalar solver exactly.

``simulate_cell``, ``characterize_delay`` and ``characterize_power`` read one
shared bitmask analysis per cell with stacked Laplacian inverses; the
one-assignment-at-a-time solver they replaced lives in
``tests/oracles/switch.py``.  Every report must compare ``==`` -- the floats
bit for bit -- on every cell of all five families and on hand-built netlists
that exercise pass transistors, the dynamic GNOR, contention, a floating
output and a singular (islanded) Laplacian.
"""

import numpy as np
import pytest

from repro.analysis.cell_power import characterize_power
from repro.circuits import (
    CellStyle,
    build_cell_netlist,
    characterize_delay,
    network_from_expr,
    simulate_cell,
)
from repro.circuits.netlist import OUTPUT, VDD, VSS, CellNetlist
from repro.circuits.sp_network import LiteralSwitch
from repro.circuits.switch_sim import _inverse
from repro.core.families import LogicFamily
from repro.devices.models import CNTFET_32NM
from repro.devices.transistor import (
    ChannelType,
    Device,
    DeviceRole,
    Literal,
    PolarityControl,
)
from repro.logic import parse_expr
from tests.oracles.switch import (
    characterize_delay_reference,
    characterize_power_reference,
    simulate_cell_reference,
)


def _assert_parity(netlist):
    assert simulate_cell(netlist) == simulate_cell_reference(netlist)
    assert characterize_delay(netlist) == characterize_delay_reference(netlist)
    assert characterize_power(netlist) == characterize_power_reference(netlist)


def _cell(expr_text, style):
    allow_xor = style is not CellStyle.CMOS_STATIC
    network = network_from_expr(parse_expr(expr_text), allow_xor=allow_xor)
    return build_cell_netlist("cell", network, style)


def _device(role, gate, channel, node_a, node_b, width=1.0):
    return Device(
        role=role,
        gate=Literal(gate),
        polarity=PolarityControl.fixed(channel),
        width=width,
        node_a=node_a,
        node_b=node_b,
    )


def _hand_built(name, *devices):
    return CellNetlist(
        name=name,
        style=CellStyle.TRANSMISSION_GATE_STATIC,
        technology=CNTFET_32NM,
        devices=devices,
        pd_network=LiteralSwitch(Literal("A")),
        pu_network=None,
        input_signals=("A", "B"),
    )


@pytest.mark.parametrize("family", list(LogicFamily), ids=lambda f: f.value)
def test_every_family_cell_matches_the_oracle(family):
    for spec in family.function_specs():
        _assert_parity(_cell(spec.expression_text, family.style))


@pytest.mark.parametrize(
    "expr_text, style",
    [
        ("A ^ B", CellStyle.PASS_TRANSISTOR_STATIC),
        ("(A ^ B) & C", CellStyle.PASS_TRANSISTOR_STATIC),
        ("(A ^ B) | (C ^ D)", CellStyle.PASS_TRANSISTOR_PSEUDO),
        ("A | B", CellStyle.CMOS_STATIC),
    ],
    ids=["pass-xnor", "pass-and", "gnor", "cmos-nor2"],
)
def test_hand_built_cells_match_the_oracle(expr_text, style):
    _assert_parity(_cell(expr_text, style))


def test_contention_and_floating_netlist_matches_the_oracle():
    # Pull-down on A, pull-up on B': both conduct at A=1, B=0 and neither
    # at A=0, B=1.
    netlist = _hand_built(
        "contend",
        _device(DeviceRole.PULL_DOWN, "A", ChannelType.N, OUTPUT, VSS),
        _device(DeviceRole.PULL_UP, "B", ChannelType.P, OUTPUT, VDD),
    )
    result = simulate_cell(netlist)
    assert result.contention_minterms == (1,)
    assert result.floating_minterms == (2,)
    _assert_parity(netlist)


def test_floating_netlist_matches_the_oracle():
    # No pull-up at all: the output floats whenever the pull-down is off,
    # and the p-type pull-down degrades the low level it does drive.
    netlist = _hand_built(
        "float",
        _device(DeviceRole.PULL_DOWN, "A", ChannelType.N, OUTPUT, "pd_n1"),
        _device(DeviceRole.PULL_DOWN, "B", ChannelType.P, "pd_n1", VSS),
    )
    result = simulate_cell(netlist)
    assert result.floating_minterms == (0, 2, 3)
    assert result.degraded_minterms == (1,)
    _assert_parity(netlist)


@pytest.mark.parametrize(
    "style", [CellStyle.TRANSMISSION_GATE_STATIC, CellStyle.TRANSMISSION_GATE_PSEUDO]
)
def test_singular_laplacian_matches_the_oracle(style):
    # With D on and A, E off, the conducting B device forms an island off
    # the rail: its reduced Laplacian is singular, so the stacked inverse
    # falls back to per-matrix solves and those states carry no drive.
    netlist = _cell("D | (A & (B | C) & E)", style)
    islands = [m for m, d in netlist.switch_analysis.drive.items() if d is None]
    assert islands == [10, 12, 14]
    _assert_parity(netlist)


def test_singular_inverse_is_none():
    regular = np.array([[2.0, -1.0], [-1.0, 1.0]])
    singular = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert _inverse(np.array([regular, singular])) is None
    assert _inverse(singular) is None
    stacked = _inverse(np.array([regular, regular]))
    assert np.array_equal(stacked[1], np.linalg.inv(regular))
