"""Public, declarative API: ``Session`` + ``AnalysisSpec`` + ``Result``.

The one stable entry point every analysis and experiment plugs into::

    from repro.api import Session, MonteCarlo

    session = Session(seed=424242)                # technology + seed tree
    result = session.run(MonteCarlo(n_samples=2000, w_nm=600.0))
    print(result.payload.sigma("idsat"), result.to_json(include_payload=False))

See :mod:`repro.api.session` for the facade, :mod:`repro.api.specs` for
the spec vocabulary, and :mod:`repro.api.registry` for the
``@experiment`` registration the CLI iterates.
"""

from repro.api.fingerprint import canonical_document, fingerprint, strip_execution
from repro.api.futures import Progress, RunCancelled, RunHandle, RunSnapshot
from repro.api.registry import (
    REGISTRY,
    ExperimentDef,
    experiment,
    get,
    load_all,
    names,
)
from repro.api.result import Result, SweepResult, jsonify
from repro.api.seeding import EXPERIMENT_SEED, SeedScope, SeedTree, derived_rng
from repro.api.session import Session, default_session
from repro.api.specs import (
    AC,
    AnalysisSpec,
    Characterize,
    CharacterizeLibrary,
    DCOp,
    DCSweep,
    ExperimentSpec,
    Execution,
    FactoryMap,
    ImportanceSampling,
    MonteCarlo,
    Sweep,
    Transient,
    Yield,
)
from repro.circuit.plans import PlanCache
from repro.stats.yield_engine import YieldEstimate

__all__ = [
    "Session",
    "default_session",
    "AnalysisSpec",
    "DCOp",
    "Transient",
    "AC",
    "DCSweep",
    "MonteCarlo",
    "ImportanceSampling",
    "Yield",
    "YieldEstimate",
    "FactoryMap",
    "Characterize",
    "CharacterizeLibrary",
    "Sweep",
    "ExperimentSpec",
    "Execution",
    "Result",
    "SweepResult",
    "jsonify",
    "Progress",
    "RunHandle",
    "RunSnapshot",
    "RunCancelled",
    "fingerprint",
    "canonical_document",
    "strip_execution",
    "PlanCache",
    "SeedTree",
    "SeedScope",
    "derived_rng",
    "EXPERIMENT_SEED",
    "experiment",
    "ExperimentDef",
    "REGISTRY",
    "load_all",
    "names",
    "get",
]
