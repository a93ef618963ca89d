"""Fig. 6 — leakage vs frequency scatter for the INV FO3 testbench.

5000 Monte-Carlo samples per model in the paper.  The reported shape
features: total leakage spread of ~37x, and within-die frequency spread
of ~45-50 % of the mean.  We measure static leakage over both input
states (DC) and frequency as 1/(average propagation delay) from the same
sampled devices, for both statistical models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.leakage import supply_leakage
from repro.api import FactoryMap, Sweep, default_session, experiment
from repro.cells.inverter import InverterSpec, build_inverter_fo, inverter_delays
from repro.circuit.waveforms import DC
from repro.experiments.common import format_table, si

#: Stream base of the model-axis sweep (bsim is point 0, vs point 1).
SEED_BASE = 30
MODEL_ORDER = ("bsim", "vs")


@dataclass(frozen=True)
class LeakageFrequencyCloud:
    """One model's scatter data."""

    model: str
    leakage: np.ndarray       #: [A] per sample
    frequency: np.ndarray     #: [Hz] per sample

    @property
    def leakage_spread(self) -> float:
        """max/min leakage ratio (the paper's '37x')."""
        return float(self.leakage.max() / self.leakage.min())

    @property
    def frequency_spread_fraction(self) -> float:
        """Peak-to-peak frequency spread over the mean (paper: 45-50 %)."""
        return float(
            (self.frequency.max() - self.frequency.min()) / self.frequency.mean()
        )


@dataclass(frozen=True)
class Fig6Result:
    vdd: float
    n_samples: int
    clouds: Dict[str, LeakageFrequencyCloud]


@dataclass(frozen=True)
class DelayLeakageWork:
    """Delay + static leakage of the SAME sampled devices, one work call.

    The delay transient consumes the factory's stream; the static
    leakage testbench then runs on ``factory.replay()`` — a rewind to
    the construction-time generator state — so identical device-request
    order re-draws the identical dice and the per-sample speed/leak
    correlation is physical.  Returns ``(n, 2)``: delay, leakage.
    """

    spec: InverterSpec
    vdd: float

    def __call__(self, factory) -> np.ndarray:
        factory_static = factory.replay()
        delay = inverter_delays(factory, self.spec, self.vdd)["tphl"].delay

        # Leakage is the DUT supply pin's current with the input low —
        # dominated by the driver's off NMOS, the single-device
        # log-normal behind the paper's multi-x spread.
        circuit, hints = build_inverter_fo(
            factory_static, self.spec, self.vdd, input_waveform=DC(0.0),
            separate_load_supply=True,
        )
        leakage = supply_leakage(circuit, "VDD", hints)
        return np.stack([delay, leakage], axis=1)


def _cloud(model: str, point_payload: np.ndarray) -> LeakageFrequencyCloud:
    delay, leakage = np.asarray(point_payload).T
    valid = np.isfinite(delay) & (leakage > 0.0)
    return LeakageFrequencyCloud(
        model=model,
        leakage=leakage[valid],
        frequency=1.0 / delay[valid],
    )


@experiment(
    "fig6",
    title="Leakage vs frequency scatter, INV FO3",
    quick={"n_samples": 300},
    full={"n_samples": 5000},
)
def run(
    n_samples: int = 5000,
    spec: InverterSpec = InverterSpec(wp_nm=300.0, wn_nm=150.0),
    *,
    session=None,
) -> Fig6Result:
    """Generate both scatter clouds (one model-axis sweep)."""
    session = session or default_session()
    vdd = session.technology.vdd
    sweep = session.run(Sweep(
        FactoryMap(
            work=DelayLeakageWork(spec, vdd),
            n_samples=n_samples,
            model=MODEL_ORDER[0],
            seed_offset=SEED_BASE,
        ),
        over={"model": MODEL_ORDER},
    ))
    clouds = {
        model: _cloud(model, sweep.points[k].payload)
        for k, model in enumerate(MODEL_ORDER)
    }
    return Fig6Result(vdd=vdd, n_samples=n_samples, clouds=clouds)


def report(result: Fig6Result) -> str:
    """Spread metrics of both clouds (the paper's annotations)."""
    rows = []
    for model in ("bsim", "vs"):
        cloud = result.clouds[model]
        rows.append(
            (
                model,
                si(float(cloud.leakage.mean()), "A"),
                f"{cloud.leakage_spread:.1f}x",
                si(float(cloud.frequency.mean()), "Hz"),
                f"{100 * cloud.frequency_spread_fraction:.0f} %",
            )
        )
    table = format_table(
        ("model", "mean leakage", "leak spread", "mean freq", "freq spread"),
        rows,
    )
    lines = [
        f"Fig. 6 -- leakage vs frequency (INV FO3, {result.n_samples} MC, "
        f"Vdd={result.vdd} V)",
        table,
        "Paper: ~37x leakage spread; 45 % (BSIM) / 50 % (VS) frequency spread.",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(report(run(n_samples=500)))
