"""Table III — device-level sigma comparison, VS vs golden model.

sigma(Idsat) and sigma(log10 Ioff) for wide/medium/short devices
(1500/600/120 x 40 nm), both polarities, both statistical models — the
direct validation that BPV transferred the golden kit's variability onto
the VS parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.api import MonteCarlo, Sweep, default_session, experiment
from repro.experiments.common import format_table

#: Paper's device classes.
DEVICE_CLASSES = (("Wide", 1500.0, 40.0), ("Medium", 600.0, 40.0),
                  ("Short", 120.0, 40.0))

#: Per-model stream bases (device class *k* draws ``spawn_key=(k, i)``;
#: both polarities intentionally share the class's stream).
SEED_BASE = {"bsim": 100, "vs": 110}

#: Published Table III values for side-by-side printing:
#: {(class, polarity): (sigma_idsat_uA, sigma_log10_ioff)}.
PAPER_TABLE3 = {
    ("Wide", "nmos"): (33.1, 0.13),
    ("Wide", "pmos"): (21.6, 0.15),
    ("Medium", "nmos"): (20.2, 0.17),
    ("Medium", "pmos"): (14.8, 0.24),
    ("Short", "nmos"): (8.7, 0.33),
    ("Short", "pmos"): (6.95, 0.49),
}


@dataclass(frozen=True)
class Table3Row:
    label: str
    polarity: str
    w_nm: float
    l_nm: float
    sigma_idsat_golden: float      #: [A]
    sigma_idsat_vs: float          #: [A]
    sigma_logioff_golden: float
    sigma_logioff_vs: float


@dataclass(frozen=True)
class Table3Result:
    n_samples: int
    rows: Tuple[Table3Row, ...]

    def worst_relative_mismatch(self) -> float:
        """Largest relative sigma disagreement between the models."""
        worst = 0.0
        for row in self.rows:
            worst = max(
                worst,
                abs(row.sigma_idsat_vs - row.sigma_idsat_golden)
                / row.sigma_idsat_golden,
                abs(row.sigma_logioff_vs - row.sigma_logioff_golden)
                / row.sigma_logioff_golden,
            )
        return worst


def _geometry_sweep(model: str, polarity: str, n_samples: int) -> Sweep:
    """The per-(model, polarity) device-class sweep: a zipped (W, L) axis."""
    geometries = tuple((w, l) for _, w, l in DEVICE_CLASSES)
    return Sweep(
        MonteCarlo(n_samples=n_samples, polarity=polarity, model=model,
                   seed_offset=SEED_BASE[model]),
        over={("w_nm", "l_nm"): geometries},
    )


@experiment(
    "table3",
    title="Device-level sigma comparison, VS vs golden",
    quick={"n_samples": 2000},
    full={"n_samples": 4000},
)
def run(n_samples: int = 4000, *, session=None) -> Table3Result:
    """Monte-Carlo both models across the Table III geometry set.

    Four geometry sweeps (model x polarity), each a zipped (W, L) axis
    through ``session.run`` — parallel sessions fan the classes out as
    shard tasks with the per-class streams intact.
    """
    session = session or default_session()
    sweeps = {
        (model, polarity): session.run(
            _geometry_sweep(model, polarity, n_samples)
        )
        for polarity in ("nmos", "pmos")
        for model in ("bsim", "vs")
    }
    rows = []
    for k, (label, w, l) in enumerate(DEVICE_CLASSES):
        for polarity in ("nmos", "pmos"):
            g = sweeps[("bsim", polarity)].points[k].payload
            v = sweeps[("vs", polarity)].points[k].payload
            rows.append(
                Table3Row(
                    label=label,
                    polarity=polarity,
                    w_nm=w,
                    l_nm=l,
                    sigma_idsat_golden=g.sigma("idsat"),
                    sigma_idsat_vs=v.sigma("idsat"),
                    sigma_logioff_golden=g.sigma("log10_ioff"),
                    sigma_logioff_vs=v.sigma("log10_ioff"),
                )
            )
    return Table3Result(n_samples=n_samples, rows=tuple(rows))


def report(result: Table3Result) -> str:
    """Table III layout (sigmas in uA / decades) plus paper columns."""
    rows = []
    for row in result.rows:
        paper = PAPER_TABLE3[(row.label, row.polarity)]
        rows.append(
            (
                f"{row.label} ({row.w_nm:.0f}/{row.l_nm:.0f})",
                row.polarity.upper(),
                f"{row.sigma_idsat_golden * 1e6:.1f}",
                f"{row.sigma_idsat_vs * 1e6:.1f}",
                f"{paper[0]:.1f}",
                f"{row.sigma_logioff_golden:.3f}",
                f"{row.sigma_logioff_vs:.3f}",
                f"{paper[1]:.2f}",
            )
        )
    table = format_table(
        (
            "device", "pol",
            "sig Idsat golden (uA)", "sig Idsat VS (uA)", "paper (uA)",
            "sig logIoff golden", "sig logIoff VS", "paper",
        ),
        rows,
    )
    return "\n".join(
        [
            f"Table III -- device sigma, VS vs golden ({result.n_samples} MC)",
            table,
            f"worst VS-vs-golden relative mismatch: "
            f"{100 * result.worst_relative_mismatch():.1f} % "
            "(paper: within a few %)",
        ]
    )


if __name__ == "__main__":
    print(report(run(n_samples=2000)))
