"""Baseline study — VS vs the alpha-power-law model (paper Sec. I, ref [5]).

The introduction claims the VS model is "capable of closely tracking
process parameter variations while achieving better timing accuracy than
[the alpha-power law] using a similar number of parameters".  This
experiment fits both compact models to the same golden kit and compares:

* I-V accuracy (on-region relative RMS; subthreshold for VS only — the
  alpha-power law carries no subthreshold current at all);
* inverter FO3 timing accuracy against the golden model;
* parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.api import default_session, experiment
from repro.cells.factory import DeviceFactory
from repro.cells.inverter import InverterSpec, inverter_delays
from repro.devices.alphapower import (
    AlphaPowerDevice,
    AlphaPowerParams,
    fit_alpha_power,
)
from repro.devices.base import Polarity
from repro.devices.bsim.model import BSIMDevice
from repro.experiments.common import format_table
from repro.fitting.nominal import iv_reference_data

#: DC parameter counts: VS (paper Sec. I) vs the 5-parameter empirical law.
PARAMETER_COUNT = {"vs": 11, "alpha-power": 5}


class _AlphaPowerFactory(DeviceFactory):
    """Cell factory serving fitted alpha-power cards."""

    batch_shape = ()

    def __init__(self, cards: Dict[str, AlphaPowerParams]):
        self.cards = cards

    def __call__(self, polarity: str, w_nm: float, l_nm: float):
        return AlphaPowerDevice(
            self.cards[polarity].replace(w_nm=w_nm, l_nm=l_nm)
        )


@dataclass(frozen=True)
class BaselineResult:
    """Accuracy comparison of the two compact models."""

    vdd: float
    #: model -> {"tphl": ..., "tplh": ...} absolute delays [s].
    delays: Dict[str, Dict[str, float]]
    #: model -> relative timing error vs golden (worst of the two edges).
    timing_error: Dict[str, float]
    ap_fit_rms: Dict[str, float]
    vs_fit_rms_decades: float


@experiment(
    "baseline",
    title="VS vs alpha-power-law model (timing accuracy)",
)
def run(spec: InverterSpec = InverterSpec(600.0, 300.0),
        *, session=None) -> BaselineResult:
    """Fit both models, measure inverter timing against the golden kit."""
    session = session or default_session()
    tech = session.technology
    vdd = tech.vdd

    ap_cards: Dict[str, AlphaPowerParams] = {}
    ap_rms: Dict[str, float] = {}
    for polarity in ("nmos", "pmos"):
        char = tech[polarity]
        ref = iv_reference_data(BSIMDevice(char.golden_nominal), vdd)
        start = AlphaPowerParams(
            polarity=Polarity.NMOS if polarity == "nmos" else Polarity.PMOS,
            vth=0.4,
            b_a_per_m=2000.0 if polarity == "nmos" else 1200.0,
        )
        fit = fit_alpha_power(start, ref)
        ap_cards[polarity] = fit.params
        ap_rms[polarity] = fit.rms_rel_error

    factories = {
        "golden": session.nominal_factory("bsim"),
        "vs": session.nominal_factory("vs"),
        "alpha-power": _AlphaPowerFactory(ap_cards),
    }
    delays: Dict[str, Dict[str, float]] = {}
    for name, factory in factories.items():
        measured = inverter_delays(factory, spec, vdd)
        delays[name] = {
            edge: float(measured[edge].delay) for edge in ("tphl", "tplh")
        }

    timing_error = {}
    for name in ("vs", "alpha-power"):
        errs = [
            abs(delays[name][edge] - delays["golden"][edge])
            / delays["golden"][edge]
            for edge in ("tphl", "tplh")
        ]
        timing_error[name] = max(errs)

    return BaselineResult(
        vdd=vdd,
        delays=delays,
        timing_error=timing_error,
        ap_fit_rms=ap_rms,
        vs_fit_rms_decades=tech.nmos.fit.rms_log_error,
    )


def report(result: BaselineResult) -> str:
    """Timing-accuracy comparison table."""
    rows = []
    for name in ("golden", "vs", "alpha-power"):
        d = result.delays[name]
        err = (
            "--"
            if name == "golden"
            else f"{100 * result.timing_error[name]:.1f} %"
        )
        count = "--" if name == "golden" else str(PARAMETER_COUNT[name])
        rows.append(
            (
                name,
                f"{d['tphl'] * 1e12:.2f}",
                f"{d['tplh'] * 1e12:.2f}",
                err,
                count,
            )
        )
    table = format_table(
        ("model", "tpHL (ps)", "tpLH (ps)", "worst timing err", "DC params"),
        rows,
    )
    return "\n".join(
        [
            f"Baseline -- VS vs alpha-power law (INV FO3, Vdd={result.vdd} V)",
            table,
            "Paper claim (Sec. I): VS achieves better timing accuracy than "
            "the alpha-power law with a similar parameter count — and, "
            "unlike it, supports leakage/statistical modeling at all.",
        ]
    )


if __name__ == "__main__":
    print(report(run()))
