"""repro — Statistical Virtual Source MOSFET model (DATE 2013) reproduction.

The package provides:

* :mod:`repro.api` — the public entry point: a declarative
  ``Session``/``AnalysisSpec`` API over every analysis and experiment
  (seeding, plan caching, execution, uniform ``Result``
  envelopes, the experiment registry);
* :mod:`repro.devices` — the Virtual Source compact model and a BSIM4-lite
  "golden" model, both vectorized over a Monte-Carlo sample axis;
* :mod:`repro.circuit` — a batched MNA circuit simulator (DC, sweep,
  transient) so benchmark cells can be simulated at SPICE level;
* :mod:`repro.stats` — Pelgrom scaling, finite-difference sensitivities and
  the Backward Propagation of Variance (BPV) extractor;
* :mod:`repro.fitting` — nominal VS parameter extraction against golden I-V;
* :mod:`repro.cells` / :mod:`repro.analysis` — INV/NAND2/DFF/SRAM benchmark
  circuits and their figures of merit;
* :mod:`repro.experiments` — one module per figure/table of the paper.
"""

__version__ = "1.1.0"

from repro.api import (
    AC,
    AnalysisSpec,
    DCOp,
    DCSweep,
    ImportanceSampling,
    MonteCarlo,
    Result,
    Session,
    Transient,
)
from repro.devices.base import DeviceModel, Polarity
from repro.devices.vs import VSParams, VSDevice, StatisticalVSModel
from repro.devices.bsim import BSIMParams, BSIMDevice, BSIMMismatch, MismatchSpec
from repro.stats.pelgrom import PelgromAlphas

__all__ = [
    "Session",
    "Result",
    "AnalysisSpec",
    "DCOp",
    "Transient",
    "AC",
    "DCSweep",
    "MonteCarlo",
    "ImportanceSampling",
    "DeviceModel",
    "Polarity",
    "VSParams",
    "VSDevice",
    "StatisticalVSModel",
    "BSIMParams",
    "BSIMDevice",
    "BSIMMismatch",
    "MismatchSpec",
    "PelgromAlphas",
    "__version__",
]
