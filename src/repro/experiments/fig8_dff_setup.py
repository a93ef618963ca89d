"""Fig. 8 — D flip-flop setup-time distribution (250 Monte-Carlo runs).

The paper stresses that setup/hold characterization needs ~20x more SPICE
work than a combinational cell because the metric is found by sweeping
the data-to-clock offset; this is where a fast statistical model pays.
Our batched bisection measures all samples' setup times simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.api import FactoryMap, Sweep, default_session, experiment
from repro.cells.dff import DFFSpec, dff_setup_time
from repro.experiments.common import finite, format_table, si
from repro.stats.distributions import DistributionSummary, ks_between, summarize

#: Stream base of the model-axis sweep (vs is point 0, bsim point 1).
SEED_BASE = 60
MODEL_ORDER = ("vs", "bsim")


@dataclass(frozen=True)
class Fig8Result:
    vdd: float
    n_samples: int
    setup_vs: np.ndarray
    setup_golden: np.ndarray
    vs_summary: DistributionSummary
    golden_summary: DistributionSummary
    ks_distance: float


@dataclass(frozen=True)
class DFFSetupWork:
    """Picklable batched-bisection setup-time workload for sweeps."""

    spec: DFFSpec
    vdd: float
    n_iterations: int

    def __call__(self, factory) -> np.ndarray:
        return dff_setup_time(factory, self.spec, self.vdd,
                              n_iterations=self.n_iterations)


@experiment(
    "fig8",
    title="D flip-flop setup-time distribution",
    quick={"n_samples": 30, "n_iterations": 6},
    full={"n_samples": 250},
)
def run(n_samples: int = 250, n_iterations: int = 8, *, session=None) -> Fig8Result:
    """Setup-time Monte-Carlo for both models (one model-axis sweep)."""
    session = session or default_session()
    sweep = session.run(Sweep(
        FactoryMap(
            work=DFFSetupWork(DFFSpec(), session.technology.vdd,
                              n_iterations),
            n_samples=n_samples,
            model=MODEL_ORDER[0],
            seed_offset=SEED_BASE,
        ),
        over={"model": MODEL_ORDER},
    ))
    vs = finite(sweep.points[0].payload)
    golden = finite(sweep.points[1].payload)
    return Fig8Result(
        vdd=session.technology.vdd,
        n_samples=n_samples,
        setup_vs=vs,
        setup_golden=golden,
        vs_summary=summarize(vs),
        golden_summary=summarize(golden),
        ks_distance=ks_between(vs, golden),
    )


def report(result: Fig8Result) -> str:
    """Setup-time distribution summary, both models."""
    rows = [
        (
            "golden",
            si(result.golden_summary.mean, "s"),
            si(result.golden_summary.std, "s"),
            f"{result.golden_summary.skewness:+.2f}",
        ),
        (
            "VS",
            si(result.vs_summary.mean, "s"),
            si(result.vs_summary.std, "s"),
            f"{result.vs_summary.skewness:+.2f}",
        ),
    ]
    table = format_table(("model", "mean setup", "sigma", "skew"), rows)
    lines = [
        f"Fig. 8 -- DFF setup time ({result.n_samples} MC, "
        f"Vdd={result.vdd} V)",
        table,
        f"two-sample KS distance: {result.ks_distance:.3f}",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(report(run(n_samples=40, n_iterations=6)))
