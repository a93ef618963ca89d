"""Table IV — Monte-Carlo runtime and memory, VS vs golden BSIM-lite.

The paper times Verilog-A VS against C-coded BSIM4 in Spectre and finds a
4.2x speedup with 8.7x less memory.  In this reproduction both models run
inside the same Python engine, so the comparison isolates exactly what
the paper argues: the VS model's far smaller equation count per
evaluation.  Expect a smaller but clearly >1 speedup; memory is measured
as the tracemalloc peak of each run.

Substitution note: the paper's third row is an SRAM "AC" analysis; our
engine measures the SRAM via its DC butterfly sweeps (same device-
evaluation-bound workload class).
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.api import default_session, experiment
from repro.cells.dff import DFFSpec, dff_setup_time
from repro.cells.nand import Nand2Spec
from repro.cells.sram import SRAMSpec
from repro.experiments.common import format_table
from repro.experiments.fig9_sram_snm import SNMWork
from repro.experiments.ssta_low_vdd import ArcDelayWork

#: Paper's Table IV rows: (runtime ratio, memory ratio) BSIM/VS.
PAPER_RATIOS = {"NAND2": (3.8, 8.5), "DFF": (3.5, 6.8), "SRAM": (5.3, 11.0)}


@dataclass(frozen=True)
class DFFWork:
    """Picklable DFF setup-time workload.

    The NAND2 and SRAM rows reuse the shared work dataclasses
    (:class:`~repro.experiments.ssta_low_vdd.ArcDelayWork`,
    :class:`~repro.experiments.fig9_sram_snm.SNMWork`) so each cell's
    Monte-Carlo workload has exactly one definition repo-wide; only the
    DFF bisection is unique to this table.
    """

    spec: DFFSpec
    vdd: float

    def __call__(self, factory):
        return dff_setup_time(factory, self.spec, self.vdd, n_iterations=3)


@dataclass(frozen=True)
class TimedRun:
    """Wall time and peak traced memory of one Monte-Carlo workload."""

    runtime_s: float
    peak_memory_mb: float


@dataclass(frozen=True)
class Table4Row:
    cell: str
    analysis: str
    n_samples: int
    vs: TimedRun
    golden: TimedRun

    @property
    def speedup(self) -> float:
        return self.golden.runtime_s / self.vs.runtime_s

    @property
    def memory_ratio(self) -> float:
        return self.golden.peak_memory_mb / self.vs.peak_memory_mb


@dataclass(frozen=True)
class Table4Result:
    rows: Tuple[Table4Row, ...]


def _timed(workload: Callable[[], None]) -> TimedRun:
    tracemalloc.start()
    start = time.perf_counter()
    workload()
    runtime = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return TimedRun(runtime_s=runtime, peak_memory_mb=peak / 1e6)


@experiment(
    "table4",
    title="Monte-Carlo runtime and memory, VS vs golden",
    quick={"n_nand": 150, "n_dff": 20, "n_sram": 150},
    full={"n_nand": 2000, "n_dff": 250, "n_sram": 2000},
)
def run(
    n_nand: int = 2000, n_dff: int = 250, n_sram: int = 2000, *,
    session=None, execution=None
) -> Table4Result:
    """Time the three Table IV workloads under both models.

    Each workload routes through ``session.map_mc``, so *execution*
    options (``python -m repro table4 --workers 4``) shard and
    parallelize the timed Monte-Carlo itself — the VS-vs-golden ratio
    then reflects the multi-worker runtime the way the paper's Spectre
    numbers reflect its simulator.  The pool is warmed before timing so
    worker start-up is not charged to the first (VS) run; note that
    under multi-process execution the tracemalloc column measures the
    parent process only (dispatch + merge, not worker evaluation).
    """
    session = session or default_session()
    execution = execution or session.default_execution()
    if execution.workers != 1:
        # workers may be an int or "cluster"; warm() waits for agents
        # on a cluster executor and spawns pool processes otherwise.
        session.executor_for(execution).warm()
    vdd = session.technology.vdd

    def make_workload(work, n: int, seed_offset: int,
                      model: str) -> Callable[[], None]:
        def timed_work():
            session.map_mc(work, n, model=model, seed_offset=seed_offset,
                           execution=execution)

        return timed_work

    rows = []
    for cell, analysis, n, work, seed_offset in (
        ("NAND2", "Tran", n_nand, ArcDelayWork(Nand2Spec(), vdd), 200),
        ("DFF", "Tran (bisect)", n_dff, DFFWork(DFFSpec(), vdd), 201),
        ("SRAM", "DC butterfly", n_sram, SNMWork(SRAMSpec(), vdd, "read"), 202),
    ):
        vs_run = _timed(make_workload(work, n, seed_offset, "vs"))
        golden_run = _timed(make_workload(work, n, seed_offset, "bsim"))
        rows.append(
            Table4Row(cell=cell, analysis=analysis, n_samples=n,
                      vs=vs_run, golden=golden_run)
        )
    return Table4Result(rows=tuple(rows))


def report(result: Table4Result) -> str:
    """Table IV layout: runtime and memory per cell per model."""
    rows = []
    for row in result.rows:
        rows.append(
            (
                row.cell,
                row.analysis,
                f"{row.n_samples}",
                f"{row.vs.runtime_s:.1f}",
                f"{row.vs.peak_memory_mb:.1f}",
                f"{row.golden.runtime_s:.1f}",
                f"{row.golden.peak_memory_mb:.1f}",
                f"{row.speedup:.2f}x",
            )
        )
    table = format_table(
        (
            "cell", "analysis", "samples",
            "VS time (s)", "VS mem (MB)",
            "golden time (s)", "golden mem (MB)",
            "speedup",
        ),
        rows,
    )
    return "\n".join(
        [
            "Table IV -- Monte-Carlo runtime / memory, VS vs golden",
            table,
            "Paper (Verilog-A VS vs C BSIM4): ~4.2x faster, ~8.7x less "
            "memory; here both models share one engine, so the gap "
            "reflects equation count only.",
        ]
    )


if __name__ == "__main__":
    print(report(run(n_nand=200, n_dff=30, n_sram=200)))
