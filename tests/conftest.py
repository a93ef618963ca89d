"""Shared fixtures: one characterized technology for the whole test session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline import Technology, characterize_technology


@pytest.fixture(scope="session")
def technology() -> Technology:
    """Characterized 40-nm technology (reduced MC count: tests need
    stable sigmas, not publication-grade tails)."""
    return characterize_technology(n_measure=2500, seed=1234)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(99)


@pytest.fixture()
def cold_plan_cache(monkeypatch):
    """A fresh process plan cache for one test; the warm one comes back
    afterwards."""
    import repro.circuit.plans as plans

    monkeypatch.setattr(plans, "_PROCESS_PLAN_CACHE", None)
    return plans.process_plan_cache()
