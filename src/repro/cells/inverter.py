"""Static CMOS inverter with fanout loading (Figs. 5 and 6).

The paper's first benchmark is a fanout-of-3 INV at three drive
strengths (P/N = 300/150, 600/300, 1200/600 nm).  The testbench here
builds the driver plus *fanout* real inverter loads (their gate charge is
the load — no lumped-C approximation), pulses the input, and measures
both propagation delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.delay import DelayResult, propagation_delay
from repro.cells.factory import DeviceFactory
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.transient import transient
from repro.circuit.waveforms import DC, Pulse

#: Paper Fig. 5 geometries: (label, P width, N width) in nm, L = 40 nm.
FIG5_SIZES = (
    ("1x", 300.0, 150.0),
    ("2x", 600.0, 300.0),
    ("4x", 1200.0, 600.0),
)


@dataclass(frozen=True)
class InverterSpec:
    """Inverter sizing and loading."""

    wp_nm: float = 600.0
    wn_nm: float = 300.0
    l_nm: float = 40.0
    fanout: int = 3
    #: Small wire cap on every load output keeps those nodes stiff [F].
    tail_cap_f: float = 5e-17


def _add_inverter(
    circuit: Circuit,
    factory: DeviceFactory,
    spec: InverterSpec,
    in_node: str,
    out_node: str,
    tag: str,
) -> None:
    circuit.add_mosfet(
        factory("pmos", spec.wp_nm, spec.l_nm), d=out_node, g=in_node, s="vdd",
        name=f"MP_{tag}",
    )
    circuit.add_mosfet(
        factory("nmos", spec.wn_nm, spec.l_nm), d=out_node, g=in_node, s=GROUND,
        name=f"MN_{tag}",
    )


def build_inverter_fo(
    factory: DeviceFactory,
    spec: InverterSpec,
    vdd: float,
    input_waveform=None,
    separate_load_supply: bool = False,
) -> Tuple[Circuit, Dict[str, float]]:
    """Driver + fanout loads; returns the circuit and DC node hints.

    The hints assume the input starts low (output high), which matches
    the default pulse.  With *separate_load_supply* the load inverters
    hang off their own ``VDDL`` source, so the ``VDD`` branch current is
    the driver's supply current alone — the standard DUT-pin leakage
    measurement (used by the Fig. 6 experiment).
    """
    circuit = Circuit(title=f"INV_FO{spec.fanout}")
    circuit.add_vsource("vdd", GROUND, DC(vdd), name="VDD")
    load_rail = "vdd"
    if separate_load_supply:
        load_rail = "vdd_load"
        circuit.add_vsource(load_rail, GROUND, DC(vdd), name="VDDL")
    circuit.add_vsource("in", GROUND, input_waveform if input_waveform is not None else DC(0.0), name="VIN")
    _add_inverter(circuit, factory, spec, "in", "out", "drv")
    for k in range(spec.fanout):
        load_out = f"load{k}"
        circuit.add_mosfet(
            factory("pmos", spec.wp_nm, spec.l_nm), d=load_out, g="out",
            s=load_rail, name=f"MP_ld{k}",
        )
        circuit.add_mosfet(
            factory("nmos", spec.wn_nm, spec.l_nm), d=load_out, g="out",
            s=GROUND, name=f"MN_ld{k}",
        )
        circuit.add_capacitor(load_out, GROUND, spec.tail_cap_f, name=f"CT{k}")

    hints = {"vdd": vdd, "out": vdd}
    if separate_load_supply:
        hints[load_rail] = vdd
    for k in range(spec.fanout):
        hints[f"load{k}"] = 0.0
    return circuit, hints


def default_pulse(vdd: float, t_edge: float = 8e-12, t_delay: float = 30e-12,
                  width: float = 150e-12) -> Pulse:
    """The standard stimulus: one rise, a flat top, one fall."""
    return Pulse(0.0, vdd, delay=t_delay, t_rise=t_edge, t_fall=t_edge, width=width)


def inverter_delays(
    factory: DeviceFactory,
    spec: InverterSpec,
    vdd: float,
    dt: float = 0.5e-12,
    t_edge: float = 8e-12,
) -> Dict[str, DelayResult]:
    """Measure tpHL (input rise) and tpLH (input fall) in one transient.

    Returns ``{"tphl": ..., "tplh": ...}``; delays carry the factory's
    Monte-Carlo batch shape.
    """
    t_delay = 30e-12
    width = 150e-12
    pulse = Pulse(0.0, vdd, delay=t_delay, t_rise=t_edge, t_fall=t_edge, width=width)
    circuit, hints = build_inverter_fo(factory, spec, vdd, input_waveform=pulse)

    from repro.circuit.dcop import initial_guess

    t_stop = t_delay + width + t_edge + 150e-12
    result = transient(circuit, t_stop, dt, dc_guess=initial_guess(circuit, hints))

    tphl = propagation_delay(result, "in", "out", vdd, input_edge="rise")
    fall_start = t_delay + t_edge + width * 0.5
    tplh = propagation_delay(
        result, "in", "out", vdd, input_edge="fall", t_min=fall_start
    )
    return {"tphl": tphl, "tplh": tplh}
