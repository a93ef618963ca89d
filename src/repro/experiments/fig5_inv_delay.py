"""Fig. 5 — INV FO3 delay PDFs for three drive strengths, VS vs golden.

2500 Monte-Carlo transients per model per size in the paper; the delay
histograms of the two models overlay.  We report mean/sigma per case plus
the two-sample KS distance between the VS and golden delay samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.api import FactoryMap, Sweep, default_session, experiment
from repro.cells.inverter import FIG5_SIZES, InverterSpec, inverter_delays
from repro.experiments.common import finite, format_table, si
from repro.stats.distributions import (
    DistributionSummary,
    centered_ks,
    ks_between,
    summarize,
)

#: Per-model stream bases (sweep point *k* draws ``spawn_key=(k, i)``).
SEED_BASE = {"vs": 10, "bsim": 20}


@dataclass(frozen=True)
class DelayComparison:
    """One size's delay statistics under both models."""

    label: str
    wp_nm: float
    wn_nm: float
    vs_delays: np.ndarray
    golden_delays: np.ndarray
    vs_summary: DistributionSummary
    golden_summary: DistributionSummary
    ks_distance: float
    shape_ks: float              #: KS after mean-centering (pure shape)


@dataclass(frozen=True)
class Fig5Result:
    """All three sizes."""

    vdd: float
    n_samples: int
    cases: Tuple[DelayComparison, ...]


@dataclass(frozen=True)
class InvDelayWork:
    """Picklable INV FO3 ``tphl`` workload for ``FactoryMap`` sweeps."""

    spec: InverterSpec
    vdd: float

    def __call__(self, factory) -> np.ndarray:
        return inverter_delays(factory, self.spec, self.vdd)["tphl"].delay


def _delay_sweep(model: str, specs, vdd: float, n_samples: int) -> Sweep:
    """The per-model drive-strength sweep."""
    return Sweep(
        FactoryMap(
            work=InvDelayWork(specs[0], vdd),
            n_samples=n_samples,
            model=model,
            seed_offset=SEED_BASE[model],
        ),
        over={"work.spec": specs},
    )


@experiment(
    "fig5",
    title="INV FO3 delay PDFs for three drive strengths",
    quick={"n_samples": 150},
    full={"n_samples": 2500},
)
def run(n_samples: int = 2500, sizes=FIG5_SIZES, *, session=None) -> Fig5Result:
    """Monte-Carlo the INV delay under both statistical models.

    One drive-strength :class:`Sweep` per model — the axis values are
    whole ``InverterSpec`` instances, swept into the work callable.
    """
    session = session or default_session()
    vdd = session.technology.vdd
    sizes = tuple(sizes)
    specs = tuple(InverterSpec(wp_nm=wp, wn_nm=wn) for _, wp, wn in sizes)
    vs_sweep = session.run(_delay_sweep("vs", specs, vdd, n_samples))
    golden_sweep = session.run(_delay_sweep("bsim", specs, vdd, n_samples))
    cases = []
    for k, (label, wp, wn) in enumerate(sizes):
        vs = finite(vs_sweep.points[k].payload)
        golden = finite(golden_sweep.points[k].payload)
        cases.append(
            DelayComparison(
                label=label,
                wp_nm=wp,
                wn_nm=wn,
                vs_delays=vs,
                golden_delays=golden,
                vs_summary=summarize(vs),
                golden_summary=summarize(golden),
                ks_distance=ks_between(vs, golden),
                shape_ks=centered_ks(vs, golden),
            )
        )
    return Fig5Result(vdd=vdd, n_samples=n_samples, cases=tuple(cases))


def report(result: Fig5Result) -> str:
    """The Fig. 5 panels as mean/sigma rows."""
    rows = []
    for case in result.cases:
        rows.append(
            (
                f"{case.label} ({case.wp_nm:.0f}/{case.wn_nm:.0f})",
                si(case.golden_summary.mean, "s"),
                si(case.golden_summary.std, "s"),
                si(case.vs_summary.mean, "s"),
                si(case.vs_summary.std, "s"),
                f"{case.ks_distance:.3f}",
                f"{case.shape_ks:.3f}",
            )
        )
    table = format_table(
        ("size", "golden mean", "golden sigma", "VS mean", "VS sigma", "KS",
         "shape-KS"),
        rows,
    )
    lines = [
        f"Fig. 5 -- INV FO3 delay PDFs at Vdd={result.vdd} V "
        f"({result.n_samples} MC)",
        table,
        "Matched PDFs => small KS distance and near-equal sigmas.",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(report(run(n_samples=500)))
