"""Master-slave D flip-flop with NMOS-only pass transistors (Fig. 8).

Topology (paper Fig. 8a): two pass-transistor latches.

* Master: ``D --M1(CLK)--> x``, ``INV1: x -> y``, feedback
  ``INV2: y -> z``, ``z --M2(CLKB)--> x``.
* Slave: ``y --M3(CLKB)--> u``, ``INV3: u -> q``, feedback
  ``INV4: q -> v``, ``v --M4(CLK)--> u``.

CLK high: master transparent (x follows D), slave latched (Q holds).
CLK low: master latched, slave transparent — Q captures D's value at the
falling clock edge, so the setup constraint is on D settling before that
edge.  Inverter P/N widths are 600/300 nm and pass devices 300 nm, per
the paper's sizing note.

The setup-time measurement is the indirect one the paper describes:
sweep the data-to-clock offset until the flop stops capturing, here by a
*batched* bisection (each Monte-Carlo sample gets its own offset in a
shared transient).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.analysis.delay import crossing_time
from repro.analysis.setup_hold import bisect_min_passing
from repro.cells.factory import DeviceFactory
from repro.cells.inverter import InverterSpec, _add_inverter
from repro.circuit.dcop import initial_guess
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.transient import transient
from repro.circuit.waveforms import DC, PiecewiseLinear, Pulse


@dataclass(frozen=True)
class DFFSpec:
    """Flip-flop sizing (paper: inverters 600/300, passes 300 nm wide)."""

    inv_wp_nm: float = 600.0
    inv_wn_nm: float = 300.0
    pass_wn_nm: float = 300.0
    l_nm: float = 40.0
    #: Storage-node wire capacitance [F].
    node_cap_f: float = 2e-17


def build_dff(
    factory: DeviceFactory,
    spec: DFFSpec,
    vdd: float,
    d_waveform,
    clk_waveform,
    clkb_waveform,
) -> Tuple[Circuit, Dict[str, float]]:
    """Construct the register; returns circuit and CLK-high/D-low hints."""
    circuit = Circuit(title="DFF_MS_NMOS_PASS")
    circuit.add_vsource("vdd", GROUND, DC(vdd), name="VDD")
    circuit.add_vsource("d", GROUND, d_waveform, name="VD")
    circuit.add_vsource("clk", GROUND, clk_waveform, name="VCLK")
    circuit.add_vsource("clkb", GROUND, clkb_waveform, name="VCLKB")

    inv = InverterSpec(wp_nm=spec.inv_wp_nm, wn_nm=spec.inv_wn_nm, l_nm=spec.l_nm)

    # Master latch.
    circuit.add_mosfet(factory("nmos", spec.pass_wn_nm, spec.l_nm),
                       d="d", g="clk", s="x", name="M1")
    _add_inverter(circuit, factory, inv, "x", "y", "inv1")
    _add_inverter(circuit, factory, inv, "y", "z", "inv2")
    circuit.add_mosfet(factory("nmos", spec.pass_wn_nm, spec.l_nm),
                       d="z", g="clkb", s="x", name="M2")

    # Slave latch.
    circuit.add_mosfet(factory("nmos", spec.pass_wn_nm, spec.l_nm),
                       d="y", g="clkb", s="u", name="M3")
    _add_inverter(circuit, factory, inv, "u", "q", "inv3")
    _add_inverter(circuit, factory, inv, "q", "v", "inv4")
    circuit.add_mosfet(factory("nmos", spec.pass_wn_nm, spec.l_nm),
                       d="v", g="clk", s="u", name="M4")

    for node in ("x", "u"):
        circuit.add_capacitor(node, GROUND, spec.node_cap_f, name=f"C{node}")

    # CLK starts high with D low: master transparent at 0, slave holding 0.
    hints = {
        "vdd": vdd, "clk": vdd, "clkb": 0.0,
        "x": 0.0, "y": vdd, "z": 0.0,
        "u": vdd, "q": 0.0, "v": vdd,
    }
    return circuit, hints


def dff_setup_time(
    factory: DeviceFactory,
    spec: DFFSpec,
    vdd: float,
    offset_lo: float = 1e-12,
    offset_hi: float = 60e-12,
    n_iterations: int = 9,
    dt: float = 1e-12,
    t_edge: float = 6e-12,
) -> np.ndarray:
    """Setup time per Monte-Carlo sample, by batched bisection.

    Protocol: CLK is high from t=0 (master transparent, D=0), falls at
    ``t_fall``; D rises ``offset`` before the falling edge.  The flop
    passes when Q reaches Vdd/2 within the observation window.  The
    returned setup time is the smallest passing offset.
    """
    t_fall = 120e-12
    t_check = 150e-12
    t_stop = t_fall + t_check

    batch = factory.batch_shape

    clk = Pulse(vdd, 0.0, delay=t_fall, t_rise=t_edge, t_fall=t_edge,
                width=2.0 * t_stop)
    clkb = Pulse(0.0, vdd, delay=t_fall, t_rise=t_edge, t_fall=t_edge,
                 width=2.0 * t_stop)

    # Build the circuit ONCE so all bisection iterations share the same
    # sampled devices; only the D-source delay changes between runs.
    d_wave = PiecewiseLinear(
        times=[0.0, t_edge], values=[0.0, vdd], delay=0.0
    )
    circuit, hints = build_dff(factory, spec, vdd, d_wave, clk, clkb)
    guess = initial_guess(circuit, hints)

    def passes(offsets: np.ndarray) -> np.ndarray:
        d_wave.delay = t_fall - offsets  # D rises `offset` before CLK falls
        result = transient(circuit, t_stop, dt, dc_guess=guess)
        t_q = crossing_time(result.times, result["q"], 0.5 * vdd, "rise")
        captured = np.isfinite(t_q)
        return np.broadcast_to(captured, offsets.shape)

    lo = np.full(batch if batch else (1,), offset_lo)
    hi = np.full(batch if batch else (1,), offset_hi)
    setup = bisect_min_passing(passes, lo, hi, n_iterations=n_iterations)
    return setup if batch else setup[0]


def dff_hold_time(
    factory: DeviceFactory,
    spec: DFFSpec,
    vdd: float,
    offset_lo: float = -30e-12,
    offset_hi: float = 40e-12,
    n_iterations: int = 9,
    dt: float = 1e-12,
    t_edge: float = 6e-12,
) -> np.ndarray:
    """Hold time per Monte-Carlo sample, by batched bisection.

    Protocol: D is high well before the falling clock edge at ``t_fall``
    (the flop should capture 1), then D *falls* ``offset`` after the
    edge.  Too small (or negative) an offset lets the new low value race
    through the still-transparent master and corrupt the captured state;
    the hold time is the smallest offset for which Q still reads 1 at
    the end of the window.
    """
    t_fall = 120e-12
    t_check = 150e-12
    t_stop = t_fall + t_check

    batch = factory.batch_shape

    clk = Pulse(vdd, 0.0, delay=t_fall, t_rise=t_edge, t_fall=t_edge,
                width=2.0 * t_stop)
    clkb = Pulse(0.0, vdd, delay=t_fall, t_rise=t_edge, t_fall=t_edge,
                 width=2.0 * t_stop)

    # D: high from t=0 (captured by the transparent master), falling at
    # t_fall + offset.
    d_wave = PiecewiseLinear(
        times=[0.0, t_edge], values=[vdd, 0.0], delay=0.0
    )
    circuit, hints = build_dff(factory, spec, vdd, d_wave, clk, clkb)
    # D starts high: the master holds 1, so flip the storage-node hints.
    hints.update({"x": vdd, "y": 0.0, "z": vdd, "u": 0.0, "q": vdd, "v": 0.0})
    guess = initial_guess(circuit, hints)

    def passes(offsets: np.ndarray) -> np.ndarray:
        d_wave.delay = t_fall + offsets
        result = transient(circuit, t_stop, dt, dc_guess=guess)
        q_end = result["q"][-1]
        held = q_end > 0.5 * vdd
        return np.broadcast_to(held, offsets.shape)

    lo = np.full(batch if batch else (1,), offset_lo)
    hi = np.full(batch if batch else (1,), offset_hi)
    hold = bisect_min_passing(passes, lo, hi, n_iterations=n_iterations)
    return hold if batch else hold[0]
