"""6T SRAM cell: butterfly curves and static noise margins (Fig. 9).

The butterfly diagram is measured SPICE-style: one internal storage node
is *forced* by an ideal source and swept while the other node's response
is recorded; repeating with the roles swapped gives the mirrored curve.
No loop-breaking is needed — the ideal source overrides the local
inverter drive.

READ mode: wordline high, both bitlines held at Vdd (post-precharge).
HOLD mode: wordline low (access devices off).

Both sweeps of a Monte-Carlo run share the same sampled devices (the six
transistors are drawn once), as they must — they are two measurements of
the *same* cell instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.analysis.snm import largest_square_snm
from repro.cells.factory import DeviceFactory
from repro.circuit.dcop import initial_guess
from repro.circuit.dcsweep import dc_sweep
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.waveforms import DC


@dataclass(frozen=True)
class SRAMSpec:
    """6T cell sizing.

    The paper gives "N/P sizes are 150nm/40nm"; we read the pull-down
    NMOS as W=150 nm at L=40 nm and complete the cell with the usual
    read-stability ratios (weaker PMOS pull-up, intermediate access).
    """

    wn_pd_nm: float = 150.0    #: pull-down NMOS width
    wp_pu_nm: float = 100.0    #: pull-up PMOS width
    wn_ax_nm: float = 120.0    #: access NMOS width
    l_nm: float = 40.0


def _sampled_devices(factory: DeviceFactory, spec: SRAMSpec) -> Dict[str, object]:
    """Draw the six transistors once (shared between both sweeps)."""
    return {
        "pu_l": factory("pmos", spec.wp_pu_nm, spec.l_nm),
        "pd_l": factory("nmos", spec.wn_pd_nm, spec.l_nm),
        "pu_r": factory("pmos", spec.wp_pu_nm, spec.l_nm),
        "pd_r": factory("nmos", spec.wn_pd_nm, spec.l_nm),
        "ax_l": factory("nmos", spec.wn_ax_nm, spec.l_nm),
        "ax_r": factory("nmos", spec.wn_ax_nm, spec.l_nm),
    }


def _build_half_forced(
    devices: Dict[str, object],
    vdd: float,
    mode: str,
    forced_node: str,
) -> Circuit:
    """Cell with *forced_node* (``'ql'`` or ``'qr'``) driven by VFORCE."""
    if mode not in ("read", "hold"):
        raise ValueError(f"mode must be 'read' or 'hold', got {mode!r}")
    if forced_node not in ("ql", "qr"):
        raise ValueError(f"forced_node must be 'ql' or 'qr', got {forced_node!r}")

    circuit = Circuit(title=f"SRAM6T_{mode}_{forced_node}")
    circuit.add_vsource("vdd", GROUND, DC(vdd), name="VDD")
    wl = vdd if mode == "read" else 0.0
    circuit.add_vsource("wl", GROUND, DC(wl), name="VWL")
    circuit.add_vsource("bl", GROUND, DC(vdd), name="VBL")
    circuit.add_vsource("blb", GROUND, DC(vdd), name="VBLB")

    # Cross-coupled inverters: left drives ql (input qr), right drives qr.
    circuit.add_mosfet(devices["pu_l"], d="ql", g="qr", s="vdd", name="PUL")
    circuit.add_mosfet(devices["pd_l"], d="ql", g="qr", s=GROUND, name="PDL")
    circuit.add_mosfet(devices["pu_r"], d="qr", g="ql", s="vdd", name="PUR")
    circuit.add_mosfet(devices["pd_r"], d="qr", g="ql", s=GROUND, name="PDR")
    # Access transistors.
    circuit.add_mosfet(devices["ax_l"], d="bl", g="wl", s="ql", name="AXL")
    circuit.add_mosfet(devices["ax_r"], d="blb", g="wl", s="qr", name="AXR")

    circuit.add_vsource(forced_node, GROUND, DC(0.0), name="VFORCE")
    return circuit


def butterfly_curves(
    factory: DeviceFactory,
    spec: SRAMSpec,
    vdd: float,
    mode: str = "read",
    n_points: int = 61,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both butterfly branches: ``(v_forced, qr_of_ql, ql_of_qr)``.

    Curves have shape ``(n_points,) + batch``.
    """
    devices = _sampled_devices(factory, spec)
    sweep = np.linspace(0.0, vdd, n_points)

    responses = []
    for forced, observed in (("ql", "qr"), ("qr", "ql")):
        circuit = _build_half_forced(devices, vdd, mode, forced)
        # Start from the state consistent with the forced node at 0 V:
        # the observed node then sits high.
        hints = {"vdd": vdd, observed: vdd, forced: 0.0}
        if mode == "read":
            hints["wl"] = vdd
        hints["bl"] = vdd
        hints["blb"] = vdd
        v0 = initial_guess(circuit, hints)
        result = dc_sweep(circuit, "VFORCE", sweep, v0=v0)
        responses.append(result[observed])

    return sweep, responses[0], responses[1]


def sram_snm(
    factory: DeviceFactory,
    spec: SRAMSpec,
    vdd: float,
    mode: str = "read",
    n_points: int = 61,
) -> np.ndarray:
    """Static noise margin per Monte-Carlo sample [V]."""
    sweep, curve_a, curve_b = butterfly_curves(factory, spec, vdd, mode, n_points)
    return largest_square_snm(sweep, curve_a, curve_b)
