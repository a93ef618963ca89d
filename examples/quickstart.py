"""Quickstart: one `Session`, and your first statistical analyses.

This walks the library's core loop in five steps, all through the
public declarative API (`repro.api`):

1. open a :class:`Session` — it owns the characterized 40-nm technology
   (fit the nominal VS model to the golden kit, extract the Pelgrom
   alphas by BPV) and a seed tree;
2. inspect the extracted statistical coefficients (paper Table II);
3. Monte-Carlo a single device under both models with a declarative
   :class:`MonteCarlo` spec (paper Table III) — note the uniform
   ``Result`` envelope;
4. simulate a CMOS inverter at SPICE level with a session factory;
5. emit the statistical VS Verilog-A module.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import MonteCarlo, Session
from repro.cells import InverterSpec, inverter_delays
from repro.codegen import generate_veriloga


def main() -> None:
    # ------------------------------------------------------------------
    # 1. One session = technology + seeds.
    # ------------------------------------------------------------------
    session = Session(seed=1)
    tech = session.technology
    nmos = tech.nmos
    print(f"technology characterized at Vdd = {tech.vdd} V")
    print(f"nominal VS fit quality: {nmos.fit.rms_log_error:.3f} decades RMS\n")

    # ------------------------------------------------------------------
    # 2. The statistical coefficients (Table II).
    # ------------------------------------------------------------------
    a = nmos.bpv.alphas
    print("extracted NMOS Pelgrom coefficients (BPV):")
    print(f"  alpha1 (VT0)  = {a.alpha1_v_nm:.2f} V nm")
    print(f"  alpha2 (Leff) = {a.alpha2_nm:.2f} nm")
    print(f"  alpha4 (mu)   = {a.alpha4_nm_cm2:.0f} nm cm^2/Vs")
    print(f"  alpha5 (Cinv) = {a.alpha5_nm_uf:.2f} nm uF/cm^2 (measured)\n")

    # ------------------------------------------------------------------
    # 3. Device-level Monte-Carlo: VS vs golden (Table III flavor).
    #    Declarative specs in, Result envelopes out.
    # ------------------------------------------------------------------
    w, l = 600.0, 40.0
    golden = session.run(
        MonteCarlo(n_samples=3000, model="bsim", w_nm=w, l_nm=l, seed_offset=0)
    )
    vs = session.run(
        MonteCarlo(n_samples=3000, model="vs", w_nm=w, l_nm=l, seed_offset=1)
    )
    print(f"medium device ({w:.0f}/{l:.0f} nm), 3000 MC samples "
          f"(seeds {golden.seed}/{vs.seed}, {golden.wall_time_s * 1e3:.0f} ms):")
    print(f"  sigma(Idsat): golden {golden.payload.sigma('idsat') * 1e6:.1f} uA, "
          f"VS {vs.payload.sigma('idsat') * 1e6:.1f} uA")
    print(f"  sigma(log10 Ioff): golden {golden.payload.sigma('log10_ioff'):.3f}, "
          f"VS {vs.payload.sigma('log10_ioff'):.3f}\n")

    # ------------------------------------------------------------------
    # 4. Circuit-level: a 200-sample INV FO3 delay distribution.
    # ------------------------------------------------------------------
    # Offset 6 on root seed 1 replays the pre-API default_rng(7) stream.
    factory = session.mc_factory(200, model="vs", seed_offset=6)
    delays = inverter_delays(factory, InverterSpec(600.0, 300.0), tech.vdd)
    tphl = delays["tphl"].delay
    print("INV FO3 (600/300 nm), 200-sample Monte-Carlo transient:")
    print(f"  tpHL = {np.mean(tphl) * 1e12:.2f} ps "
          f"+/- {np.std(tphl, ddof=1) * 1e12:.2f} ps\n")

    # ------------------------------------------------------------------
    # 5. The Verilog-A artifact.
    # ------------------------------------------------------------------
    va = generate_veriloga(nmos.vs_nominal, a)
    print("generated Verilog-A module "
          f"({len(va.splitlines())} lines); first lines:")
    for line in va.splitlines()[:4]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
