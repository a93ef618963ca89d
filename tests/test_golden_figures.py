"""Golden regression tests for the fig. 3-9 experiment outputs.

Each experiment runs at a reduced Monte-Carlo count with its fixed seed
(the experiments seed themselves from ``EXPERIMENT_SEED``); a handful of
scalar features per figure is compared against committed golden values.
The goldens pin the exact numeric behaviour of the full stack — device
sampling, BPV characterization, the batched circuit engine, and the
statistics layer — so a refactor that silently shifts paper numbers
fails here instead of in a reviewer's eyeball diff.

Regenerate after an *intentional* numeric change with::

    PYTHONPATH=src python tests/test_golden_figures.py

and paste the printed dict over ``GOLDEN``.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig3_idsat_mismatch,
    fig4_scatter_ellipses,
    fig5_inv_delay,
    fig6_leakage_freq,
    fig7_nand2_vdd,
    fig8_dff_setup,
    fig9_sram_snm,
)
from repro.cells.inverter import FIG5_SIZES

#: Relative tolerance for smooth statistics.  Goldens were generated on
#: this repo's reference toolchain; the slack absorbs BLAS/LAPACK
#: rounding differences across builds without letting real changes slip.
RTOL = 1e-6
#: Extra absolute slack for bisection-measured times (fig. 8): a
#: last-bit flip of a pass/fail transient shifts the boundary by one
#: bisection cell.
SETUP_ATOL = 1.0e-12


def features_fig3():
    result = fig3_idsat_mismatch.run(widths_nm=(150.0, 600.0), n_samples=400)
    return {
        "total_mc": list(result.total_mc),
        "total_linear": list(result.total_linear),
        "vt0_contribution": list(result.contributions["vt0"]),
    }


def features_fig4():
    result = fig4_scatter_ellipses.run(n_samples=300)
    ion_g, logioff_g = result.golden_cloud
    ion_v, logioff_v = result.vs_cloud
    return {
        "golden_ion_mean": float(np.mean(ion_g)),
        "golden_logioff_mean": float(np.mean(logioff_g)),
        "vs_ion_std": float(np.std(ion_v, ddof=1)),
        "vs_logioff_std": float(np.std(logioff_v, ddof=1)),
        "cross_coverage": [
            result.cross_coverage[k] for k in sorted(result.cross_coverage)
        ],
    }


def features_fig5():
    result = fig5_inv_delay.run(n_samples=8, sizes=(FIG5_SIZES[1],))
    case = result.cases[0]
    return {
        "vs_mean": case.vs_summary.mean,
        "vs_std": case.vs_summary.std,
        "golden_mean": case.golden_summary.mean,
        "golden_std": case.golden_summary.std,
    }


def features_fig6():
    result = fig6_leakage_freq.run(n_samples=24)
    out = {}
    for model, cloud in sorted(result.clouds.items()):
        out[f"{model}_leak_mean"] = float(np.mean(cloud.leakage))
        out[f"{model}_freq_mean"] = float(np.mean(cloud.frequency))
    return out


def features_fig7():
    result = fig7_nand2_vdd.run(n_samples=8, vdds=(0.9,))
    case = result.cases[0]
    return {
        "vs_mean": case.vs_summary.mean,
        "vs_std": case.vs_summary.std,
        "golden_mean": case.golden_summary.mean,
    }


def features_fig8():
    result = fig8_dff_setup.run(n_samples=8, n_iterations=6)
    return {
        "setup_vs": list(result.setup_vs),
        "setup_golden": list(result.setup_golden),
    }


def features_fig9():
    result = fig9_sram_snm.run(n_samples=8)
    out = {}
    for case in result.cases:
        out[f"{case.mode}_vs_mean"] = case.vs_summary.mean
        out[f"{case.mode}_golden_mean"] = case.golden_summary.mean
        out[f"{case.mode}_vs_std"] = case.vs_summary.std
    return out


FEATURES = {
    "fig3": features_fig3,
    "fig4": features_fig4,
    "fig5": features_fig5,
    "fig6": features_fig6,
    "fig7": features_fig7,
    "fig8": features_fig8,
    "fig9": features_fig9,
}

GOLDEN = {
    "fig3": {
        "total_linear": [0.08510690036667924, 0.04255345018333983],
        "total_mc": [0.08429628693360466, 0.04261881433189341],
        "vt0_contribution": [0.061354152480288304, 0.030677076240144152],
    },
    "fig4": {
        "cross_coverage": [0.42, 0.9, 0.9966666666666667],
        "golden_ion_mean": 0.0005283661999144594,
        "golden_logioff_mean": -9.040546196609508,
        "vs_ion_std": 2.270288160630354e-05,
        "vs_logioff_std": 0.17854856265457886,
    },
    "fig5": {
        "golden_mean": 5.748239723501856e-12,
        "golden_std": 4.285630540016898e-13,
        "vs_mean": 5.579233900970439e-12,
        "vs_std": 3.3606948480336577e-13,
    },
    "fig6": {
        "bsim_freq_mean": 173325093049.5271,
        "bsim_leak_mean": 5.119677395286004e-10,
        "vs_freq_mean": 181518931048.17416,
        "vs_leak_mean": 3.9996589747184917e-10,
    },
    "fig7": {
        "golden_mean": 5.102756535520768e-12,
        "vs_mean": 4.844471881895759e-12,
        "vs_std": 9.120287223693416e-14,
    },
    "fig8": {
        "setup_golden": [
            2.4507812499999995e-11, 3.64921875e-11,
            2.3585937499999997e-11, 2.0820312499999995e-11,
            1.9898437499999997e-11, 1.8976562499999998e-11,
            1.9898437499999997e-11, 1.9898437499999997e-11,
        ],
        "setup_vs": [
            1.71328125e-11, 2.3585937499999997e-11, 2.26640625e-11,
            1.5289062499999998e-11, 1.8976562499999998e-11,
            3.74140625e-11, 2.91171875e-11, 2.0820312499999995e-11,
        ],
    },
    "fig9": {
        "hold_golden_mean": 0.3210986137390137,
        "hold_vs_mean": 0.31174392700195314,
        "hold_vs_std": 0.01285597607920163,
        "read_golden_mean": 0.12522611618041993,
        "read_vs_mean": 0.12279109954833986,
        "read_vs_std": 0.013968428617923384,
    },
}


@pytest.mark.parametrize("figure", sorted(FEATURES))
def test_golden(figure):
    assert figure in GOLDEN, f"no golden committed for {figure}"
    actual = FEATURES[figure]()
    expected = GOLDEN[figure]
    assert sorted(actual) == sorted(expected)
    for key, want in expected.items():
        atol = SETUP_ATOL if figure == "fig8" else 0.0
        np.testing.assert_allclose(
            np.asarray(actual[key], dtype=float),
            np.asarray(want, dtype=float),
            rtol=RTOL,
            atol=atol,
            err_msg=f"{figure}:{key}",
        )


if __name__ == "__main__":
    import pprint

    regenerated = {
        name: {key: np.asarray(value, dtype=float).tolist()
               for key, value in fn().items()}
        for name, fn in sorted(FEATURES.items())
    }
    print("GOLDEN = ", end="")
    pprint.pprint(regenerated)
