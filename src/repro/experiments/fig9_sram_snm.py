"""Fig. 9 — 6T SRAM butterfly curves and READ/HOLD SNM distributions.

2500 Monte-Carlo cells in the paper.  Deliverables: the nominal butterfly
patterns (panels a/d), the SNM probability densities for both models
(panels b/e), and the HOLD-SNM QQ data whose slight non-Gaussianity the
paper points out (panel f).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.api import default_session, experiment
from repro.cells.sram import SRAMSpec, butterfly_curves, sram_snm
from repro.experiments.common import format_table, si
from repro.stats.distributions import (
    DistributionSummary,
    ks_between,
    qq_tail_nonlinearity,
    summarize,
)

#: Seed-tree stream of each (mode, model) SNM Monte-Carlo.
SEED_OFFSETS = {
    ("read", "vs"): 70, ("hold", "vs"): 71,
    ("read", "bsim"): 80, ("hold", "bsim"): 81,
}


@dataclass(frozen=True)
class SNMWork:
    """Picklable SNM Monte-Carlo workload for the parallel runtime.

    ``session.map_mc`` ships this to worker processes; each shard builds
    its own factory and evaluates the butterfly SNM for its samples.
    """

    spec: SRAMSpec
    vdd: float
    mode: str

    def __call__(self, factory) -> "np.ndarray":
        return sram_snm(factory, self.spec, self.vdd, self.mode)


@dataclass(frozen=True)
class SNMCase:
    """One mode's SNM statistics under both models."""

    mode: str
    vs_snm: np.ndarray
    golden_snm: np.ndarray
    vs_summary: DistributionSummary
    golden_summary: DistributionSummary
    ks_distance: float
    vs_qq_nonlinearity: float


@dataclass(frozen=True)
class Fig9Result:
    vdd: float
    n_samples: int
    #: mode -> (sweep, curve_a, curve_b) nominal butterfly (VS model).
    butterflies: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]
    cases: Tuple[SNMCase, ...]


@experiment(
    "fig9",
    title="6T SRAM butterfly curves and SNM distributions",
    quick={"n_samples": 250},
    full={"n_samples": 2500},
)
def run(n_samples: int = 2500, spec: SRAMSpec = SRAMSpec(),
        *, session=None, execution=None) -> Fig9Result:
    """Butterflies plus SNM Monte-Carlo for READ and HOLD.

    The SNM Monte-Carlo runs sharded through the parallel runtime on
    *execution*, or on the session default when omitted —
    ``python -m repro fig9 --workers 4`` fans the shards out.
    """
    session = session or default_session()
    vdd = session.technology.vdd

    nominal = session.nominal_factory("vs")
    butterflies = {
        mode: butterfly_curves(nominal, spec, vdd, mode)
        for mode in ("read", "hold")
    }

    cases = []
    for mode in ("read", "hold"):
        # Sample-sharding — not a 2-point mode sweep — is this
        # workload's parallelism axis, so map_mc splits each mode's
        # draw across shards.
        vs, _ = session.map_mc(
            SNMWork(spec, vdd, mode), n_samples, model="vs",
            seed_offset=SEED_OFFSETS[mode, "vs"], execution=execution,
        )
        golden, _ = session.map_mc(
            SNMWork(spec, vdd, mode), n_samples, model="bsim",
            seed_offset=SEED_OFFSETS[mode, "bsim"], execution=execution,
        )
        cases.append(
            SNMCase(
                mode=mode,
                vs_snm=vs,
                golden_snm=golden,
                vs_summary=summarize(vs),
                golden_summary=summarize(golden),
                ks_distance=ks_between(vs, golden),
                vs_qq_nonlinearity=qq_tail_nonlinearity(vs),
            )
        )
    return Fig9Result(
        vdd=vdd, n_samples=n_samples, butterflies=butterflies, cases=tuple(cases)
    )


def report(result: Fig9Result) -> str:
    """SNM rows per mode per model + butterfly sanity."""
    rows = []
    for case in result.cases:
        rows.append(
            (
                case.mode.upper(),
                si(case.golden_summary.mean, "V"),
                si(case.golden_summary.std, "V"),
                si(case.vs_summary.mean, "V"),
                si(case.vs_summary.std, "V"),
                f"{case.ks_distance:.3f}",
                f"{case.vs_qq_nonlinearity:.3f}",
            )
        )
    table = format_table(
        ("mode", "golden mean", "golden sigma", "VS mean", "VS sigma", "KS",
         "VS QQ-curve"),
        rows,
    )
    sweep, a, b = result.butterflies["read"]
    lines = [
        f"Fig. 9 -- 6T SRAM SNM ({result.n_samples} MC, Vdd={result.vdd} V)",
        f"READ butterfly: response falls {a[0]:.2f} V -> {a[-1]:.2f} V over "
        f"the {sweep[0]:.1f}..{sweep[-1]:.1f} V sweep",
        table,
        "Expected: READ SNM well below HOLD SNM; VS matches golden; HOLD "
        "QQ slightly curved (non-Gaussian tails).",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(report(run(n_samples=300)))
