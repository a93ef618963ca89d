"""Tests for the public content-addressed spec fingerprint (PR 7).

``repro.api.fingerprint`` is a release-stable contract: the analysis
service files results (and checkpoints) under these hashes, so a store
written today must stay readable after any refactor.  The golden hex
digests pinned at the bottom are the enforcement — if one of these
tests fails, either revert the encoding change or write a store
migration, never just update the constant.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    Execution,
    MonteCarlo,
    Sweep,
    Yield,
    canonical_document,
    fingerprint,
    strip_execution,
)
from repro.stats import ParameterMetric


def _yield_spec(**overrides) -> Yield:
    base = dict(
        metric=ParameterMetric("vt0"), threshold=0.55, shifts={"vt0": 3.0},
        n_samples=2048, n_rounds=2, n_per_round=512, block_size=128,
        w_nm=600.0, l_nm=40.0, fail_below=False,
    )
    base.update(overrides)
    return Yield(**base)


class TestStripExecution:
    def test_removes_top_level_execution(self):
        spec = MonteCarlo(n_samples=500, execution=Execution(workers=4))
        stripped = strip_execution(spec)
        assert stripped.execution is None
        assert stripped.n_samples == 500

    def test_recurses_into_wrapped_specs(self):
        sweep = Sweep(
            MonteCarlo(n_samples=500, execution=Execution(workers=4)),
            over={"w_nm": (600.0, 1200.0)},
            execution=Execution(workers=2, shard_size=1),
        )
        stripped = strip_execution(sweep)
        assert stripped.execution is None
        assert stripped.spec.execution is None
        # The workload fields are untouched.
        assert stripped.spec.n_samples == 500
        assert stripped.axes == sweep.axes

    def test_identity_when_nothing_to_strip(self):
        spec = MonteCarlo(n_samples=500)
        assert strip_execution(spec) is spec
        sweep = Sweep(spec, over={"w_nm": (600.0,)})
        assert strip_execution(sweep) is sweep

    def test_plain_values_pass_through(self):
        assert strip_execution(3) == 3
        assert strip_execution(("a", 1)) == ("a", 1)


class TestFingerprint:
    def test_execution_invariance(self):
        """Scheduling must never change the content address."""
        bare = MonteCarlo(n_samples=2000)
        variants = [
            MonteCarlo(n_samples=2000, execution=Execution(workers=8)),
            MonteCarlo(n_samples=2000,
                       execution=Execution(shard_size=64, wave_size=2)),
            MonteCarlo(n_samples=2000,
                       execution=Execution(checkpoint="/tmp/x")),
        ]
        for spec in variants:
            assert fingerprint(spec) == fingerprint(bare)

    def test_workload_fields_discriminate(self):
        base = MonteCarlo(n_samples=2000)
        assert fingerprint(MonteCarlo(n_samples=2001)) != fingerprint(base)
        assert fingerprint(MonteCarlo(n_samples=2000, seed_offset=1)) != (
            fingerprint(base)
        )
        assert fingerprint(MonteCarlo(n_samples=2000, polarity="pmos")) != (
            fingerprint(base)
        )

    def test_seed_inclusion(self):
        spec = MonteCarlo(n_samples=2000)
        assert fingerprint(spec, seed=1) != fingerprint(spec, seed=2)
        assert fingerprint(spec, seed=1) != fingerprint(spec)

    def test_shape(self):
        digest = fingerprint(MonteCarlo())
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_closure_metric_has_no_address(self):
        spec = _yield_spec(metric=lambda params: np.asarray(params.vt0))
        with pytest.raises(TypeError):
            canonical_document(spec)

    def test_canonical_document_is_tagged_json(self):
        document = canonical_document(MonteCarlo(n_samples=2000))
        assert document.startswith('{"__dataclass__":"repro.api.specs:MonteCarlo"')
        assert '"execution":null' in document

    def test_sweep_point_identity(self):
        """A sweep's fingerprint differs from its points' — the grid is
        part of the workload."""
        spec = MonteCarlo(n_samples=2000)
        sweep = Sweep(spec, over={"w_nm": (600.0, 1200.0)})
        assert fingerprint(sweep) != fingerprint(spec)
        assert fingerprint(sweep) != fingerprint(sweep.point_spec(0))


class TestGoldenFingerprints:
    """Pinned store keys — the release-stability contract itself.

    Computed from the canonical tagged-JSON documents at PR 7; any
    change here invalidates every existing service store.
    """

    def test_montecarlo(self):
        spec = MonteCarlo(n_samples=2000, w_nm=600.0, l_nm=40.0)
        assert fingerprint(spec) == (
            "8060a75984af48bcb1dabca8051314a8d8e1ae3a5d3750b68579cde946f8100c"
        )
        assert fingerprint(spec, seed=424242) == (
            "b964848861d0b9694e9ec142971c653d816b8d354b539111429706362af082be"
        )
        # Execution options hash identically (execution-stripped key).
        assert fingerprint(
            dataclasses.replace(spec, execution=Execution(workers=16))
        ) == fingerprint(spec)

    def test_yield(self):
        assert fingerprint(_yield_spec()) == (
            "e7fb27b75c35d65e6dc4c4eb9d4ec652e28cc5e5f8e41f9c647dbcb7e2b25d7c"
        )

    def test_sweep(self):
        # Moved when Sweep lost ``seed_mode`` (one seed contract): old
        # Sweep store entries are misses and recompute.
        sweep = Sweep(MonteCarlo(n_samples=2000, w_nm=600.0, l_nm=40.0),
                      over={"w_nm": (600.0, 1200.0)})
        assert fingerprint(sweep) == (
            "73fea101fbdf6564f4007be45fbf776c1c5176deba5efd5676ce8844fc58aa55"
        )
