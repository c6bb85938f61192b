"""Switch-level analysis of cell netlists over every input assignment at once.

Simulation verifies, for every input assignment, that

* the cell output is driven to exactly one logic level (no contention between
  the pull networks and no floating output for the static families);
* the computed output function matches the intended Boolean function;
* the driven level reaches the full rail voltage, i.e. there exists a
  conducting path to the rail whose devices all pass that level strongly
  (n-type for a low level, p-type for a high level).  This is the property
  that the transmission-gate construction of Sec. 3.1 restores, and that the
  dynamic GNOR gate of Fig. 2 and the pass-transistor families lack.

Cells have few inputs, so every per-assignment fact is a bitmask over the
minterms (bit ``m``: input ``i`` of ``input_signals`` takes bit ``i`` of
``m``).  A device is p-type on its polarity-literal mask (all or nothing for
a fixed polarity) and conducts on ``gate ^ p-type``; an always-on load
conducts everywhere.  Rail connectivity is one bitwise fixpoint over node
masks (``reach[a] |= reach[b] & conducts``).  :class:`SwitchAnalysis` also
holds the per-minterm drive resistances the delay and power models read;
each netlist computes it once (:attr:`CellNetlist.switch_analysis`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.circuits.netlist import OUTPUT, VDD, VSS, CellNetlist
from repro.devices.transistor import ChannelType, Device, DeviceRole, Literal
from repro.logic.truth_table import TruthTable

_PULL_DOWN_ROLES = (DeviceRole.PULL_DOWN,)
_PULL_UP_ROLES = (DeviceRole.PULL_UP, DeviceRole.PSEUDO_LOAD)

#: A pull-network device with its conduction and p-type minterm masks.
_MaskedDevice = tuple[Device, int, int]


def minterms(mask: int) -> Iterator[int]:
    """The minterms set in ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _variable_masks(num_vars: int) -> list[int]:
    """``masks[i]`` holds the minterms in which input ``i`` is 1."""
    full = (1 << (1 << num_vars)) - 1
    masks = []
    for i in range(num_vars):
        half = 1 << i
        # The high half of one 2*half-bit period, repeated over the table.
        masks.append((((1 << half) - 1) << half) * (full // ((1 << (2 * half)) - 1)))
    return masks


def _rail_reach(network: list[_MaskedDevice], rail: str, full: int,
                strong_for: bool | None = None) -> int:
    """Minterms in which the output connects to ``rail`` through ``network``
    (the fixpoint grows every node's mask from the rail's).

    With ``strong_for`` set, a device is traversed only where it passes that
    level strongly: p-type for a high level, n-type for a low one.
    """
    edges = [
        (device.node_a, device.node_b,
         conduct if strong_for is None else conduct & (ptype if strong_for else ~ptype))
        for device, conduct, ptype in network
    ]
    reach = {rail: full}
    changed = True
    while changed:
        changed = False
        for a, b, conduct in edges:
            before_a = reach.get(a, 0)
            before_b = reach.get(b, 0)
            joined = (before_a | before_b) & conduct
            if joined & ~(before_a & before_b):
                reach[a] = before_a | joined
                reach[b] = before_b | joined
                changed = True
    return reach.get(OUTPUT, 0)


def _reduced_laplacian(
    network: list[_MaskedDevice], minterm: int, rail: str, rail_value: bool,
    weak_factor: float,
) -> tuple[list[str], list[list[float]]] | None:
    """Conductance Laplacian of the devices conducting under ``minterm``,
    with the ``rail`` row and column removed, and the names of its nodes.

    Nodes are numbered in order of first appearance over the conducting
    devices and conductances accumulate in device order, so every entry is
    the same float a dense per-assignment build produces.  ``None`` when the
    rail or the output is not on a conducting device.
    """
    bit = 1 << minterm
    index: dict[str, int] = {}
    branches: list[tuple[int, int, float]] = []
    for device, conduct, ptype in network:
        if not conduct & bit:
            continue
        strong = bool(ptype & bit) == rail_value
        g = device.width if strong else device.width / weak_factor
        a = index.setdefault(device.node_a, len(index))
        b = index.setdefault(device.node_b, len(index))
        branches.append((a, b, g))
    if rail not in index or OUTPUT not in index:
        return None
    n = len(index)
    laplacian = [[0.0] * n for _ in range(n)]
    for a, b, g in branches:
        laplacian[a][a] += g
        laplacian[b][b] += g
        laplacian[a][b] -= g
        laplacian[b][a] -= g
    rail_idx = index[rail]
    keep = [i for i in range(n) if i != rail_idx]
    nodes = list(index)
    return (
        [nodes[i] for i in keep],
        [[laplacian[i][j] for j in keep] for i in keep],
    )


def _inverse(matrix: np.ndarray) -> np.ndarray | None:
    """``np.linalg.inv`` of one matrix or a stack, ``None`` when singular."""
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return None


class SwitchAnalysis:
    """Switch-level behaviour of one cell under every input assignment.

    Every ``int`` attribute is a minterm mask over ``2**num_vars`` bits:

    * ``driven`` -- the output is driven to exactly one level (every minterm
      of a pseudo cell, whose weak load always conducts);
    * ``high`` -- the output is driven high (pseudo: the pull-down is off);
    * ``contention`` / ``floating`` -- both / neither pull networks conduct
      (always empty for pseudo cells);
    * ``degraded`` -- the level reached is not full swing: high without a
      p-type-only path to VDD, or low (with the pull-down on) without an
      n-type-only path to VSS.
    """

    def __init__(self, netlist: CellNetlist) -> None:
        order = netlist.input_signals
        self.num_vars = len(order)
        full = (1 << (1 << self.num_vars)) - 1
        self._weak_factor = netlist.technology.weak_direction_factor
        self._node_cap = {
            node: netlist.node_capacitance(node) for node in netlist.internal_nodes()
        }
        self._var_masks = _variable_masks(self.num_vars)
        position = {name: i for i, name in enumerate(order)}

        def literal_mask(literal: Literal) -> int:
            mask = self._var_masks[position[literal.name]]
            return full ^ mask if literal.negated else mask

        def masked(device: Device) -> _MaskedDevice:
            polarity = device.polarity
            if polarity.is_fixed:
                ptype = full if polarity.fixed_channel is ChannelType.P else 0
            else:
                ptype = literal_mask(polarity.literal)
            if device.gate is None:
                return device, full, ptype
            return device, literal_mask(device.gate) ^ ptype, ptype

        devices = netlist.devices
        self._pull_down = [masked(d) for d in devices if d.role in _PULL_DOWN_ROLES]
        self._pull_up = [masked(d) for d in devices if d.role in _PULL_UP_ROLES]
        self.pseudo = any(d.role is DeviceRole.PSEUDO_LOAD for d in devices)

        pd_on = _rail_reach(self._pull_down, VSS, full)
        if self.pseudo:
            self.driven = full
            self.high = full ^ pd_on
            self.contention = self.floating = 0
        else:
            pu_on = _rail_reach(self._pull_up, VDD, full)
            self.driven = pd_on ^ pu_on
            self.high = pu_on & ~pd_on
            self.contention = pd_on & pu_on
            self.floating = full ^ (pd_on | pu_on)
        strong_up = _rail_reach(self._pull_up, VDD, full, strong_for=True)
        strong_down = _rail_reach(self._pull_down, VSS, full, strong_for=False)
        self.degraded = (self.high & ~strong_up) | (pd_on & ~self.high & ~strong_down)

    def switching(self, i: int) -> int:
        """Minterms whose driven output flips to the other driven level when
        input ``i`` toggles."""
        var = self._var_masks[i]
        shift = 1 << i

        def toggled(mask: int) -> int:
            return ((mask & var) >> shift) | ((mask & ~var) << shift)

        driven = self.driven
        return driven & toggled(driven) & (self.high ^ toggled(self.high))

    @cached_property
    def drive(self) -> dict[int, tuple[float, float] | None]:
        """Per driven minterm, how the driving rail charges the output: VDD
        through the pull-up when high, VSS through the pull-down when low.

        A value is the output's effective resistance to that rail and the
        Elmore charge ``sum(R_node * C_node)`` of the conducting internal
        nodes, summed in order of first appearance.  ``None`` when the rail
        or the output touches no conducting device, the reduced Laplacian is
        singular or the output resistance is not finite.  The systems of one
        size are inverted in one stacked call (LAPACK runs on each matrix
        exactly as alone); a stack holding a singular system raises and is
        redone one by one.
        """
        result: dict[int, tuple[float, float] | None]
        result = dict.fromkeys(minterms(self.driven))
        batches: dict[int, list[tuple]] = {}
        for minterm in result:
            high = bool(self.high >> minterm & 1)
            network, rail = (self._pull_up, VDD) if high else (self._pull_down, VSS)
            system = _reduced_laplacian(network, minterm, rail, high, self._weak_factor)
            if system is not None:
                batches.setdefault(len(system[0]), []).append((minterm, *system))
        for batch in batches.values():
            stack = np.array([matrix for *_, matrix in batch])
            inverses = _inverse(stack)
            if inverses is None:
                inverses = [_inverse(matrix) for matrix in stack]
            for (minterm, names, _), inverse in zip(batch, inverses):
                if inverse is None:
                    continue
                internal = 0.0
                for pos, name in enumerate(names):
                    if name == OUTPUT:
                        r_out = float(inverse[pos, pos])
                    elif name in self._node_cap:
                        internal += float(inverse[pos, pos]) * self._node_cap[name]
                if math.isfinite(r_out):
                    result[minterm] = (r_out, internal)
        return result


@dataclass(frozen=True)
class SwitchLevelResult:
    """Outcome of exhaustively simulating a cell netlist."""

    input_order: tuple[str, ...]
    output_table: TruthTable
    contention_minterms: tuple[int, ...]
    floating_minterms: tuple[int, ...]
    degraded_minterms: tuple[int, ...]

    @property
    def is_well_formed(self) -> bool:
        """No contention and no floating output for any assignment."""
        return not self.contention_minterms and not self.floating_minterms

    @property
    def is_full_swing(self) -> bool:
        """Every driven level reaches the rail through a strong path."""
        return not self.degraded_minterms


def simulate_cell(netlist: CellNetlist) -> SwitchLevelResult:
    """Exhaustively simulate a cell netlist at switch level.

    The low level of a pseudo cell is ratioed against its weak load, which
    is acceptable by construction (the pull-down is sized 4x stronger), but
    a low level reachable only through p-type devices is stuck near |VTp|
    regardless of sizing -- the degradation the transmission-gate
    construction removes (Sec. 3.1/3.2) -- so it is flagged for pseudo cells
    as well.  Contending and floating minterms read as output 0.
    """
    order = netlist.input_signals
    if len(order) > 12:
        raise ValueError("switch-level simulation is limited to 12 cell inputs")
    analysis = netlist.switch_analysis
    return SwitchLevelResult(
        input_order=order,
        output_table=TruthTable(len(order), analysis.high),
        contention_minterms=tuple(minterms(analysis.contention)),
        floating_minterms=tuple(minterms(analysis.floating)),
        degraded_minterms=tuple(minterms(analysis.degraded)),
    )
