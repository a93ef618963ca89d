"""Library characterization — NLDM tables + Liberty for the benchmark cells.

The closing deliverable of the paper's flow: the statistical VS model's
benchmark cells (INV, NAND2, DFF), characterized over a (slew, load)
grid with per-arc Monte-Carlo mean/sigma tables, exported as a
multi-cell Liberty library.  Runs entirely through
``Session.run(CharacterizeLibrary(...))``, so the grid fans out over the
parallel runtime with ``python -m repro charlib --workers 4`` and the
tables are bit-identical at every worker count (the grid-point seed
contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.api import CharacterizeLibrary, default_session, experiment
from repro.charlib import LibraryTiming
from repro.experiments.common import format_table, si

#: Seed-tree offset of the characterization streams.
SEED_OFFSET = 500


@dataclass(frozen=True)
class CharlibResult:
    """Characterized library + its Liberty rendering."""

    library: LibraryTiming
    liberty: str
    #: Dropped-sample accounting per "CELL.arc" (empty when clean).
    diagnostics: Dict
    n_mc: int


@experiment(
    "charlib",
    title="Standard-cell library characterization (NLDM + Liberty)",
    quick={"cells": ("inv", "nand2"), "slews": (5e-12, 20e-12),
           "loads": (1e-15, 4e-15), "n_mc": 12},
    full={"n_mc": 150},
)
def run(
    cells: Tuple[str, ...] = ("inv", "nand2", "dff"),
    vdd: float = 0.9,
    slews: Optional[Tuple[float, ...]] = None,
    loads: Optional[Tuple[float, ...]] = None,
    n_mc: int = 150,
    *,
    session=None,
    execution=None,
) -> CharlibResult:
    """Characterize *cells* over the grid and render the Liberty library."""
    session = session or default_session()
    result = session.run(CharacterizeLibrary(
        cells=tuple(cells), vdd=vdd, slews=slews, loads=loads,
        n_mc=n_mc, seed_offset=SEED_OFFSET, execution=execution,
    ))
    library: LibraryTiming = result.payload
    return CharlibResult(
        library=library,
        liberty=library.liberty(),
        diagnostics=result.meta["diagnostics"],
        n_mc=n_mc,
    )


def report(result: CharlibResult) -> str:
    """Per-arc mean/sigma at the grid's center operating point."""
    library = result.library
    slew = 0.5 * (library.slews[0] + library.slews[-1])
    load = 0.5 * (library.loads[0] + library.loads[-1])
    rows = []
    for cell in library.cells:
        for arc in cell.delay:
            mean = float(cell.delay[arc](slew, load))
            sigma = (
                float(cell.delay_sigma[arc](slew, load))
                if cell.delay_sigma else 0.0
            )
            tran = float(cell.transition[arc](slew, load))
            rows.append((
                cell.name, arc, si(mean, "s"), si(sigma, "s"),
                si(tran, "s"),
                f"{100.0 * sigma / mean:.1f} %" if mean else "-",
            ))
    table = format_table(
        ("cell", "arc", "delay", "sigma", "transition", "sigma/mean"),
        rows,
    )
    lines = [
        f"Library characterization -- {len(library.cells)} cells, "
        f"{len(library.slews)}x{len(library.loads)} grid, "
        f"{result.n_mc} MC/point "
        f"(at slew={si(slew, 's')}, load={si(load, 'F')})",
        table,
        f"Liberty: {len(result.liberty.splitlines())} lines, "
        f"library ({library.name}).",
    ]
    if result.diagnostics:
        dropped = sum(d["dropped"] for d in result.diagnostics.values())
        lines.append(f"Diagnostics: {dropped} non-finite samples dropped "
                     f"({', '.join(sorted(result.diagnostics))}).")
    return "\n".join(lines)


if __name__ == "__main__":
    print(report(run()))
