"""One module per figure/table of the paper's evaluation (see DESIGN.md).

Every experiment module exposes

* ``run(..., session=None)`` returning a result dataclass with the
  numbers behind the paper artifact — the function is decorated with
  :func:`repro.api.experiment`, which registers it (with its quick/full
  CLI presets) into the shared registry the ``python -m repro`` driver
  iterates; and
* ``report(result)`` rendering the same rows/series the paper prints.

All randomness and device factories come from the
:class:`repro.api.Session` (the shared default session when ``run`` is
called bare, as the golden-figure regressions do); no experiment module
seeds a generator itself.
"""

from repro.experiments import common

#: Import path of every experiment module, in paper-artifact order.
#: :func:`repro.api.load_all` imports these to populate the registry.
ALL_MODULES = (
    "repro.experiments.fig1_iv_fit",
    "repro.experiments.fig2_bpv_consistency",
    "repro.experiments.fig3_idsat_mismatch",
    "repro.experiments.fig4_scatter_ellipses",
    "repro.experiments.fig5_inv_delay",
    "repro.experiments.fig6_leakage_freq",
    "repro.experiments.fig7_nand2_vdd",
    "repro.experiments.fig8_dff_setup",
    "repro.experiments.fig9_sram_snm",
    "repro.experiments.table2_alphas",
    "repro.experiments.table3_device_sigma",
    "repro.experiments.table4_runtime",
    "repro.experiments.baseline_alphapower",
    "repro.experiments.ssta_low_vdd",
    "repro.experiments.charlib_library",
    "repro.experiments.yield_rare_event",
)

__all__ = ["common", "ALL_MODULES"]
