"""Ring oscillator: the canonical frequency monitor for process variation.

An odd chain of inverters oscillates at ``f = 1 / (2 N t_stage)``; fabs
scatter ring oscillators across the die precisely to measure the kind of
within-die variation this library models.  The cell complements Fig. 6's
1/delay frequency proxy with a self-timed measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.analysis.delay import crossing_time
from repro.cells.factory import DeviceFactory
from repro.cells.inverter import InverterSpec, _add_inverter
from repro.circuit.dcop import initial_guess
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.transient import transient
from repro.circuit.waveforms import DC, Pulse


@dataclass(frozen=True)
class RingOscSpec:
    """Ring sizing: *n_stages* must be odd."""

    n_stages: int = 5
    wp_nm: float = 600.0
    wn_nm: float = 300.0
    l_nm: float = 40.0
    stage_cap_f: float = 5e-17

    def __post_init__(self):
        if self.n_stages < 3 or self.n_stages % 2 == 0:
            raise ValueError("ring needs an odd stage count >= 3")


def build_ring(
    factory: DeviceFactory, spec: RingOscSpec, vdd: float
) -> Tuple[Circuit, dict]:
    """Closed inverter ring with a kick-start source on stage 0's input.

    The kick source drives node ``n0`` through a large resistor and
    pulses once at t=0 to break the metastable all-at-Vdd/2 DC point.
    """
    circuit = Circuit(title=f"RING{spec.n_stages}")
    circuit.add_vsource("vdd", GROUND, DC(vdd), name="VDD")
    inv = InverterSpec(wp_nm=spec.wp_nm, wn_nm=spec.wn_nm, l_nm=spec.l_nm)

    n = spec.n_stages
    for k in range(n):
        node_in = f"n{k}"
        node_out = f"n{(k + 1) % n}"
        _add_inverter(circuit, factory, inv, node_in, node_out, f"st{k}")
        circuit.add_capacitor(node_in, GROUND, spec.stage_cap_f, name=f"C{k}")

    # Kick: brief pull of n0 low through a weak resistor.
    circuit.add_vsource(
        "kick", GROUND,
        Pulse(vdd, 0.0, delay=1e-12, t_rise=1e-12, t_fall=1e-12,
              width=15e-12),
        name="VKICK",
    )
    circuit.add_resistor("kick", "n0", 5e3, name="RKICK")

    # Alternating logic levels as the DC hint (consistent ring state).
    hints = {"vdd": vdd, "kick": vdd}
    level = vdd
    for k in range(n):
        hints[f"n{k}"] = level
        level = vdd - level
    return circuit, hints


def ring_frequency(
    factory: DeviceFactory,
    spec: RingOscSpec = RingOscSpec(),
    vdd: float = 0.9,
    dt: float = 1e-12,
    n_periods: float = 4.0,
    t_stage_guess: float = 8e-12,
) -> np.ndarray:
    """Oscillation frequency [Hz] per Monte-Carlo sample.

    Measured from the spacing of successive rising 50 %-crossings of one
    ring node, skipping the start-up transient.
    """
    circuit, hints = build_ring(factory, spec, vdd)
    t_period_guess = 2.0 * spec.n_stages * t_stage_guess
    t_stop = (n_periods + 2.0) * t_period_guess
    result = transient(circuit, t_stop, dt, dc_guess=initial_guess(circuit, hints))

    wave = result["n0"]
    t_first = crossing_time(result.times, wave, 0.5 * vdd, "rise",
                            t_min=1.2 * t_period_guess)
    # Second rising crossing: one full period later (per-sample search).
    t_second = _next_rise(result, vdd, t_first)
    period = t_second - t_first
    return 1.0 / period


def _next_rise(result, vdd: float, t_after: np.ndarray) -> np.ndarray:
    """First rising crossing strictly after the per-sample time *t_after*."""
    times = result.times
    wave = result["n0"]
    threshold = 0.5 * vdd
    above = wave >= threshold
    crossed = ~above[:-1] & above[1:]
    seg_times = times[1:]
    shaped = seg_times.reshape((-1,) + (1,) * (wave.ndim - 1))
    # Require the crossing to start after t_after (+ a hold-off of one
    # sample to skip the crossing at t_after itself).
    eligible = crossed & (shaped > np.asarray(t_after) + (times[1] - times[0]))
    any_cross = eligible.any(axis=0)
    first = np.argmax(eligible, axis=0)

    flat_first = np.atleast_1d(first).reshape(-1)
    batch_idx = np.arange(flat_first.size)
    w0 = wave[:-1].reshape(wave.shape[0] - 1, -1)[flat_first, batch_idx]
    w1 = wave[1:].reshape(wave.shape[0] - 1, -1)[flat_first, batch_idx]
    t0 = times[:-1][flat_first]
    t1 = times[1:][flat_first]
    denom = np.where(w1 - w0 == 0.0, 1.0, w1 - w0)
    tc = t0 + (threshold - w0) / denom * (t1 - t0)
    tc = tc.reshape(np.atleast_1d(first).shape)
    out = np.where(np.atleast_1d(any_cross), tc, np.nan)
    return out if np.ndim(t_after) else float(out[0])
