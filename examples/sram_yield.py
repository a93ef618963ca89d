"""SRAM read-stability yield analysis with the statistical VS model.

The scenario the paper's SRAM section motivates: a 6T cell's READ static
noise margin is highly sensitive to within-die variation, and the
designer wants the failure probability (SNM below a noise budget) as a
function of supply voltage.  The ultra-compact statistical VS model makes
the required thousands of butterfly extractions cheap.

All Monte-Carlo plumbing (technology, seeding, executors) comes from
one `repro.api.Session`; the per-supply seed offsets make every row
independently reproducible.

Run:  python examples/sram_yield.py
"""

import numpy as np

from repro.api import Session
from repro.cells import SRAMSpec, sram_snm
from repro.stats.distributions import summarize

#: Noise budget: a READ SNM below this is counted as a stability failure.
SNM_BUDGET_V = 0.06

N_SAMPLES = 800
SUPPLIES = (0.9, 0.8, 0.7)


def main() -> None:
    session = Session(seed=31)
    spec = SRAMSpec()
    print(f"6T SRAM read-stability yield "
          f"(PD/PU/AX = {spec.wn_pd_nm:.0f}/{spec.wp_pu_nm:.0f}/"
          f"{spec.wn_ax_nm:.0f} nm, {N_SAMPLES} MC cells)\n")
    print(f"{'Vdd (V)':>8}  {'mean SNM (mV)':>14}  {'sigma (mV)':>11}  "
          f"{'P(SNM < ' + str(int(SNM_BUDGET_V * 1e3)) + ' mV)':>16}")

    for vdd in SUPPLIES:
        factory = session.mc_factory(N_SAMPLES, model="vs",
                                     seed_offset=int(vdd * 100))
        snm = sram_snm(factory, spec, vdd, mode="read")
        stats = summarize(snm)
        fail = float(np.mean(snm < SNM_BUDGET_V))
        print(f"{vdd:>8.2f}  {stats.mean * 1e3:>14.1f}  "
              f"{stats.std * 1e3:>11.2f}  {fail:>16.4f}")

    print("\nLower supply squeezes the butterfly lobes: the mean SNM "
          "drops while sigma holds, so the failure tail grows fast — the "
          "yield cliff the paper's low-power discussion warns about.")


if __name__ == "__main__":
    main()
