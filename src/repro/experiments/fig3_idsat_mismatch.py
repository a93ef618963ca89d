"""Fig. 3 — Idsat mismatch vs width, decomposed by process parameter.

The paper plots sigma(Idsat)/mean against width at L = 40 nm, together
with the contribution of each underlying parameter (VT0, Leff/Weff, mu,
Cinv).  Contributions come from the first-order propagation (Eq. 9) on
the extracted statistical VS model; the total is cross-checked against a
full VS Monte-Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.api import MonteCarlo, default_session, experiment
from repro.experiments.common import format_table
from repro.stats.pelgrom import PARAMETER_ORDER, pelgrom_sigmas
from repro.stats.sensitivity import vs_sensitivities

DEFAULT_WIDTHS = (120.0, 300.0, 600.0, 1000.0, 1500.0)


@dataclass(frozen=True)
class Fig3Result:
    """sigma/mu of Idsat and per-parameter contributions vs width."""

    polarity: str
    l_nm: float
    widths_nm: np.ndarray
    total_mc: np.ndarray                       #: MC sigma/mu per width
    total_linear: np.ndarray                   #: Eq.-9 sigma/mu per width
    contributions: Dict[str, np.ndarray]       #: parameter -> sigma/mu


@experiment(
    "fig3",
    title="Idsat mismatch vs width, decomposed by parameter",
    quick={"n_samples": 1500},
    full={"n_samples": 3000},
)
def run(
    polarity: str = "nmos",
    widths_nm=DEFAULT_WIDTHS,
    l_nm: float = 40.0,
    n_samples: int = 3000,
    *,
    session=None,
    execution=None,
) -> Fig3Result:
    """Compute the Fig. 3 decomposition.

    The per-width Monte-Carlo runs as one :class:`MonteCarlo` spec per
    width (width *k* draws from seed-tree stream *k*) on *execution*, or
    on the session default when omitted.
    """
    session = session or default_session()
    char = session.technology[polarity]
    stat = char.statistical

    totals_mc: List[float] = []
    totals_lin: List[float] = []
    contribs: Dict[str, List[float]] = {p: [] for p in PARAMETER_ORDER}
    for k, w in enumerate(widths_nm):
        sens = vs_sensitivities(char.vs_nominal, w, l_nm, char.vdd)
        sigmas = pelgrom_sigmas(stat.alphas, w, l_nm)
        idsat_nominal = sens.nominal_targets["idsat"]

        var_total = 0.0
        for p in PARAMETER_ORDER:
            term = abs(sens.entry("idsat", p)) * sigmas[p]
            contribs[p].append(term / idsat_nominal)
            var_total += term**2
        totals_lin.append(np.sqrt(var_total) / idsat_nominal)

        samples = session.run(
            MonteCarlo(
                n_samples=n_samples, polarity=polarity, model="vs",
                w_nm=w, l_nm=l_nm, seed_offset=k, execution=execution,
            )
        ).payload
        totals_mc.append(samples.sigma("idsat") / samples.mean("idsat"))

    return Fig3Result(
        polarity=polarity,
        l_nm=l_nm,
        widths_nm=np.asarray(widths_nm, dtype=float),
        total_mc=np.asarray(totals_mc),
        total_linear=np.asarray(totals_lin),
        contributions={p: np.asarray(v) for p, v in contribs.items()},
    )


def report(result: Fig3Result) -> str:
    """The Fig. 3 series as percentage rows per width."""
    rows = []
    for i, w in enumerate(result.widths_nm):
        rows.append(
            (
                f"{w:.0f}",
                f"{100 * result.total_mc[i]:.2f}",
                f"{100 * result.total_linear[i]:.2f}",
                f"{100 * result.contributions['vt0'][i]:.2f}",
                f"{100 * np.hypot(result.contributions['leff'][i], result.contributions['weff'][i]):.2f}",
                f"{100 * result.contributions['mu'][i]:.2f}",
                f"{100 * result.contributions['cinv'][i]:.2f}",
            )
        )
    table = format_table(
        (
            "Width (nm)",
            "sig(Id) MC %",
            "sig(Id) lin %",
            "VT0 %",
            "L&W %",
            "mu %",
            "Cinv %",
        ),
        rows,
    )
    lines = [
        f"Fig. 3 -- Idsat mismatch decomposition "
        f"({result.polarity}, L={result.l_nm:.0f} nm)",
        table,
        "Expected shape: all series fall ~1/sqrt(W); VT0 dominates.",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(report(run()))
