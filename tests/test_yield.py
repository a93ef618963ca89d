"""Rare-event yield engine: adaptive CE importance sampling as a spec.

Covers the PR-6 contracts end to end:

* statistical correctness — the 3-sigma estimate cross-validates against
  brute-force sharded Monte-Carlo within the combined confidence
  intervals at a >= 10x sims advantage;
* the fixed-shift special case — ``ImportanceSampling`` runs on the
  yield engine, so ``Yield(n_rounds=0, n_components=1)`` equals it field
  for field at ``block_size`` = its shard size (explicit or automatic,
  with or without a stop rule);
* the block seed contract — envelopes bit-identical at 1/2/8 workers,
  across ``Execution.shard_size`` values (which do not apply to
  ``Yield``), under ``Sweep`` composition, through checkpoint/resume
  mid-round-wave, and through the tagged-JSON round-trip;
* the CE machinery itself — mixture algebra, elite levels, NaN policy,
  spec validation.
"""

from __future__ import annotations

import dataclasses
import glob

import numpy as np
import pytest
from scipy.stats import norm

from repro.api import (
    Execution,
    ImportanceSampling,
    Session,
    Sweep,
    Yield,
    YieldEstimate,
)
from repro.api.serialize import dumps, loads
from repro.runtime import RunObserver, auto_shard_size
from repro.stats.yield_engine import (
    GaussianMixtureShift,
    ce_update,
    initial_mixture,
)


@pytest.fixture()
def session(technology) -> Session:
    return Session(technology=technology, seed=20260101)


def _vt0_metric(params):
    """Module-level (picklable) device-tail metric."""
    return np.asarray(params.vt0)


def _threshold(technology, n_sigma: float = 3.0) -> float:
    model = technology["nmos"].statistical
    sigma = model.sigmas(600.0, 40.0)["vt0"]
    return float(np.asarray(model.nominal.vt0)) + n_sigma * sigma


def _yield_spec(technology, **overrides) -> Yield:
    base = dict(
        metric=_vt0_metric, threshold=_threshold(technology),
        shifts={"vt0": 3.0}, n_samples=2048, n_rounds=2, n_per_round=512,
        block_size=128, w_nm=600.0, l_nm=40.0, fail_below=False,
    )
    base.update(overrides)
    return Yield(**base)


# ----------------------------------------------------------------------
# Statistical correctness.
# ----------------------------------------------------------------------
class TestYieldCrossValidation:
    def test_three_sigma_matches_brute_force_within_ci(self, session,
                                                       technology):
        brute = session.run(ImportanceSampling(
            metric=_vt0_metric, threshold=_threshold(technology),
            shifts={"vt0": 0.0}, n_samples=120_000, w_nm=600.0, l_nm=40.0,
            fail_below=False, execution=Execution(shard_size=8192),
        )).payload
        adaptive = session.run(_yield_spec(
            technology, n_samples=4096, n_rounds=2, n_per_round=1024,
        )).payload

        # Within the combined 95 % intervals, and also compatible with
        # the analytic 3-sigma Gaussian tail.
        combined = 1.96 * (brute.std_error + adaptive.std_error)
        assert abs(adaptive.probability - brute.probability) <= combined
        assert adaptive.covers(norm.sf(3.0))
        # The rare-event budget: >= 10x fewer sims at a *tighter* error.
        assert adaptive.total_samples * 10 <= brute.n_samples
        assert adaptive.relative_error < brute.relative_error

    def test_adaptation_steers_into_the_tail(self, session, technology):
        # Seeded far short of the failure region (0.5 sigma), the CE
        # rounds must walk the proposal out to ~3 sigma.
        result = session.run(_yield_spec(
            technology, shifts={"vt0": 0.5}, n_rounds=4, n_per_round=1024,
        ))
        meta = result.meta["yield"]
        final_shift = meta["final_mixture"]["shifts"][0][0]
        assert final_shift > 2.0
        assert result.payload.n_failures > 0
        levels = [step["level"] for step in meta["trajectory"]]
        assert levels == sorted(levels)  # monotone toward the threshold

    def test_fixed_shift_special_case_is_bit_identical(self, session,
                                                       technology):
        fixed = session.run(ImportanceSampling(
            metric=_vt0_metric, threshold=_threshold(technology),
            shifts={"vt0": 3.0}, n_samples=2048, w_nm=600.0, l_nm=40.0,
            fail_below=False, execution=Execution(shard_size=128),
        )).payload
        zero_rounds = session.run(_yield_spec(
            technology, n_rounds=0, block_size=128,
        )).payload

        assert zero_rounds.probability == fixed.probability
        assert zero_rounds.std_error == fixed.std_error
        assert zero_rounds.effective_samples == fixed.effective_samples
        assert zero_rounds.n_failures == fixed.n_failures
        assert zero_rounds.rounds_run == 0
        assert zero_rounds.total_samples == fixed.n_samples

    @pytest.mark.parametrize("execution", [
        Execution(),
        Execution(target_rel_err=0.1, wave_size=2),
    ], ids=["auto_shard_size", "target_rel_err"])
    def test_importance_sampling_is_the_zero_round_yield(
            self, session, technology, execution):
        # Without a shard size the importance sampler draws in blocks of
        # auto_shard_size(n); the zero-round Yield at that block size is
        # the same run, estimate and runtime metadata alike.
        n = 10_000
        fixed = session.run(ImportanceSampling(
            metric=_vt0_metric, threshold=_threshold(technology),
            shifts={"vt0": 3.0}, n_samples=n, w_nm=600.0, l_nm=40.0,
            fail_below=False, execution=execution,
        ))
        zero_rounds = session.run(_yield_spec(
            technology, n_samples=n, n_rounds=0,
            block_size=auto_shard_size(n), execution=execution,
        ))

        assert fixed.runtime.shard_size == auto_shard_size(n) == 313
        assert fixed.runtime.stopped_early == (
            execution.target_rel_err is not None)
        for field in dataclasses.fields(fixed.payload):
            assert getattr(zero_rounds.payload, field.name) == getattr(
                fixed.payload, field.name), field.name
        assert zero_rounds.payload.total_samples == fixed.payload.n_samples
        assert zero_rounds.runtime == fixed.runtime
        assert zero_rounds.seed == fixed.seed
        assert "yield" not in fixed.meta


# ----------------------------------------------------------------------
# Determinism matrix: workers x shard sizes x sweep x JSON.
# ----------------------------------------------------------------------
class TestYieldDeterminism:
    WORKER_COUNTS = (1, 2, 8)

    def test_bit_identical_at_every_worker_count(self, session, technology):
        results = {
            w: session.run(_yield_spec(
                technology, execution=Execution(workers=w),
            ))
            for w in self.WORKER_COUNTS
        }
        reference = results[1]
        assert results[8].runtime.executor == "process-pool"
        for workers in self.WORKER_COUNTS[1:]:
            assert results[workers].payload == reference.payload
            assert results[workers].meta["yield"] == reference.meta["yield"]

    def test_shard_size_does_not_apply_to_yield(self, session, technology):
        # The block partition is spec geometry; Execution.shard_size
        # must not perturb the envelope.
        results = [
            session.run(_yield_spec(
                technology,
                execution=Execution(shard_size=size, workers=workers),
            ))
            for size, workers in ((64, 1), (1000, 1), (7, 2))
        ]
        reference = session.run(_yield_spec(technology))
        for result in results:
            assert result.payload == reference.payload
            assert result.meta["yield"] == reference.meta["yield"]

    def test_sweep_composition_is_worker_invariant(self, session,
                                                   technology):
        threshold = _threshold(technology)
        spread = _threshold(technology, 2.5)
        sweep_of = lambda w: Sweep(
            _yield_spec(technology, n_samples=1024, n_rounds=1,
                        n_per_round=256),
            over={"threshold": (threshold, spread)},
            execution=Execution(workers=w),
        )
        serial = session.run(sweep_of(1))
        parallel = session.run(sweep_of(2))
        assert len(serial.points) == 2
        probabilities = [p.payload.probability for p in serial.points]
        assert probabilities[0] != probabilities[1]
        for a, b in zip(serial.points, parallel.points):
            assert a.payload == b.payload
            assert a.meta["yield"] == b.meta["yield"]

    def test_tagged_json_round_trip(self, session, technology):
        result = session.run(_yield_spec(
            technology, n_samples=512, n_rounds=1, n_per_round=256,
        ))
        envelope = {
            "payload": result.payload,
            "meta": result.meta,
            "spec": result.spec,
        }
        restored = loads(dumps(envelope))
        assert restored["payload"] == result.payload
        assert restored["meta"]["yield"] == result.meta["yield"]
        assert restored["spec"] == result.spec


# ----------------------------------------------------------------------
# Checkpoint/resume at round and wave boundaries.
# ----------------------------------------------------------------------
class _CancelAfterWaves(RunObserver):
    """Cancels the run after *waves* progress callbacks — mid-round."""

    def __init__(self, waves: int):
        self.waves = waves
        self.seen = 0

    def on_progress(self, done, total, accumulator=None, unit="shards"):
        if done > 0:
            self.seen += 1

    def should_cancel(self) -> bool:
        return self.seen >= self.waves


class TestYieldCheckpoint:
    def test_resume_mid_adaptation_round_is_bit_identical(self, session,
                                                          technology,
                                                          tmp_path):
        prefix = str(tmp_path / "yield.ckpt")
        spec_of = lambda execution: _yield_spec(
            technology, n_samples=1024, n_per_round=512,
            execution=execution,
        )
        # Phase 1: cancel two waves into the first adaptation round.
        checkpointed = Execution(wave_size=1, checkpoint=prefix)
        partial = session._execute(
            spec_of(checkpointed), observer=_CancelAfterWaves(2),
        )
        assert partial.runtime.stop_reason == "cancelled"
        assert partial.payload.n_samples == 0
        assert glob.glob(prefix + "*")
        # Phase 2: resume from the interrupted round; the envelope must
        # equal the uninterrupted run's exactly.
        resumed = session.run(spec_of(checkpointed))
        uninterrupted = session.run(spec_of(Execution(wave_size=1)))
        assert resumed.payload == uninterrupted.payload
        assert resumed.meta["yield"] == uninterrupted.meta["yield"]

    def test_resume_mid_estimation_phase_is_bit_identical(self, session,
                                                          technology,
                                                          tmp_path):
        prefix = str(tmp_path / "yield-est.ckpt")
        spec_of = lambda execution: _yield_spec(
            technology, n_samples=1024, n_rounds=1, n_per_round=256,
            execution=execution,
        )
        partial = session.run(spec_of(Execution(
            wave_size=1, max_samples=512, checkpoint=prefix,
        )))
        assert partial.runtime.stopped_early
        resumed = session.run(spec_of(Execution(
            wave_size=1, checkpoint=prefix,
        )))
        assert resumed.runtime.resumed_shards > 0
        uninterrupted = session.run(spec_of(Execution(wave_size=1)))
        assert resumed.payload == uninterrupted.payload
        assert resumed.meta["yield"] == uninterrupted.meta["yield"]

    def test_adaptive_stop_rule_applies_to_estimation(self, session,
                                                      technology):
        result = session.run(_yield_spec(
            technology, n_samples=65536,
            execution=Execution(target_rel_err=0.2, wave_size=2),
        ))
        assert result.runtime.stopped_early
        assert "relative error" in result.runtime.stop_reason
        assert result.payload.relative_error <= 0.2
        assert result.payload.n_samples < 65536


# ----------------------------------------------------------------------
# Compile economics of a circuit metric.
# ----------------------------------------------------------------------
def test_sram_yield_compiles_once_per_half_cell_topology(session,
                                                         cold_plan_cache):
    """Every block's SNM circuits go through the process plan cache: a
    2-block run compiles each forced half-cell topology once and binds
    the second block's circuits to the cached structures."""
    from repro.cells.sram import SRAMSpec
    from repro.experiments.yield_rare_event import SRAMCriticalSNM

    cell = SRAMSpec()
    result = session.run(Yield(
        metric=SRAMCriticalSNM(cell, session.technology.vdd, "read"),
        threshold=0.09, shifts={"vt0": 2.0}, n_samples=16, n_rounds=0,
        block_size=8, w_nm=cell.wn_pd_nm, l_nm=cell.l_nm, fail_below=True,
    ))
    assert result.payload.n_samples == 16
    stats = cold_plan_cache.stats()
    assert 1 <= stats["structural_compiles"] == stats["structures"] <= 2
    assert stats["structural_hits"] >= 1


# ----------------------------------------------------------------------
# The CE machinery.
# ----------------------------------------------------------------------
class TestMixtureAlgebra:
    def test_initial_mixture_single_component_uses_seed_verbatim(self):
        mixture = initial_mixture({"vt0": -2.5, "leff": 1.0}, 1)
        assert mixture.names == ("leff", "vt0")
        assert mixture.shifts == ((1.0, -2.5),)
        assert mixture.weights == (1.0,)

    def test_initial_mixture_fans_components_symmetrically_about_one(self):
        mixture = initial_mixture({"vt0": 3.0}, 3)
        scales = [row[0] / 3.0 for row in mixture.shifts]
        assert scales == pytest.approx([0.5, 1.0, 1.5])
        assert sum(mixture.weights) == pytest.approx(1.0)

    def test_mixture_weights_must_normalize(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixtureShift(names=("vt0",), weights=(0.5, 0.4),
                                 shifts=((1.0,), (2.0,)))

    def test_k1_draw_offsets_consumes_no_randomness(self):
        mixture = initial_mixture({"vt0": 2.0}, 1)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        offsets = mixture.draw_offsets(16, rng, {"vt0": 0.01})
        assert rng.bit_generator.state == before
        np.testing.assert_array_equal(offsets["vt0"], np.full(16, 0.02))

    def test_mixture_weights_match_fixed_shift_formula(self):
        from repro.stats.importance import importance_weights

        mixture = initial_mixture({"vt0": 2.0, "mu": -1.0}, 1)
        rng = np.random.default_rng(11)
        sigmas = {"vt0": 0.02, "mu": 12.0}
        deviations = {name: rng.standard_normal(64) * sigma
                      for name, sigma in sigmas.items()}
        np.testing.assert_array_equal(
            mixture.importance_weights(deviations, sigmas),
            importance_weights(deviations, {"vt0": 2.0, "mu": -1.0},
                               sigmas),
        )

    def test_multi_component_weights_reduce_to_k1_when_degenerate(self):
        # K identical components ARE the single shift; the logsumexp
        # path must agree with the analytic fixed-shift ratio.
        k1 = initial_mixture({"vt0": 2.0}, 1)
        k3 = GaussianMixtureShift(
            names=("vt0",), weights=(0.2, 0.3, 0.5),
            shifts=((2.0,), (2.0,), (2.0,)),
        )
        rng = np.random.default_rng(5)
        sigmas = {"vt0": 0.02}
        deviations = {"vt0": rng.standard_normal(128) * 0.02}
        np.testing.assert_allclose(
            k3.importance_weights(deviations, sigmas),
            k1.importance_weights(deviations, sigmas),
            rtol=1e-12,
        )


class TestCEUpdate:
    def _x(self, values):
        return np.asarray(values, dtype=float)[:, None]

    def test_level_clips_at_threshold(self):
        mixture = initial_mixture({"vt0": 1.0}, 1)
        values = np.linspace(0.0, 1.0, 100)
        weights = np.ones(100)
        _, level, n_elite = ce_update(
            mixture, values, weights, self._x(values), threshold=0.5,
            elite_fraction=0.1, smoothing=1.0, fail_below=True,
        )
        # The 0.1-quantile (0.1) overshoots the true threshold; the
        # multilevel schedule clips the level back to it.
        assert level == 0.5
        assert n_elite == np.count_nonzero(values <= 0.5)

    def test_elite_centroid_moves_the_mean(self):
        mixture = initial_mixture({"vt0": 0.0}, 1)
        values = np.asarray([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        x_sigma = self._x([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        updated, _, n_elite = ce_update(
            mixture, values, np.ones(8), x_sigma, threshold=-1.0,
            elite_fraction=0.25, smoothing=1.0, fail_below=True,
        )
        assert n_elite == 2
        assert updated.shifts[0][0] == pytest.approx(4.5)  # mean(5, 4)

    def test_nan_values_do_not_poison_the_level(self):
        mixture = initial_mixture({"vt0": 1.0}, 1)
        values = np.asarray([np.nan, np.nan, 1.0, 2.0, 3.0, 4.0])
        _, level, _ = ce_update(
            mixture, values, np.ones(6), self._x(np.zeros(6)),
            threshold=0.0, elite_fraction=0.5, smoothing=1.0,
            fail_below=True,
        )
        assert np.isfinite(level)

    def test_all_nan_returns_unchanged_mixture(self):
        mixture = initial_mixture({"vt0": 1.0}, 1)
        updated, level, n_elite = ce_update(
            mixture, np.full(4, np.nan), np.ones(4),
            self._x(np.zeros(4)), threshold=0.0, elite_fraction=0.5,
            smoothing=1.0, fail_below=True,
        )
        assert updated == mixture
        assert np.isnan(level)
        assert n_elite == 0

    def test_infinite_failures_are_elites(self):
        # A metric mapping non-convergence to the failing extreme (-inf
        # here) must pull the proposal toward those samples, not drop
        # them the way NaN is dropped.
        mixture = initial_mixture({"vt0": 0.0}, 1)
        values = np.asarray([-np.inf, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        x_sigma = self._x([3.0, 2.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
        updated, level, n_elite = ce_update(
            mixture, values, np.ones(8), x_sigma, threshold=0.0,
            elite_fraction=0.25, smoothing=1.0, fail_below=True,
        )
        assert level == pytest.approx(0.875)  # the -inf sits in the pool
        assert n_elite == 2
        assert updated.shifts[0][0] == pytest.approx(2.5)  # mean(3, 2)


# ----------------------------------------------------------------------
# Spec validation + envelope semantics.
# ----------------------------------------------------------------------
class TestYieldSpec:
    def test_unknown_parameter_rejected(self, technology):
        with pytest.raises(ValueError, match="unknown statistical"):
            _yield_spec(technology, shifts={"beta": 1.0})

    def test_bounds_validated(self, technology):
        with pytest.raises(ValueError, match="elite_fraction"):
            _yield_spec(technology, elite_fraction=1.5)
        with pytest.raises(ValueError, match="smoothing"):
            _yield_spec(technology, smoothing=0.0)
        with pytest.raises(ValueError, match="n_rounds"):
            _yield_spec(technology, n_rounds=-1)
        with pytest.raises(ValueError, match="block_size"):
            _yield_spec(technology, block_size=0)
        with pytest.raises(ValueError, match="metric"):
            _yield_spec(technology, metric=None)

    def test_estimate_relative_error_inf_below_two_failures(self):
        estimate = YieldEstimate(
            probability=1e-4, std_error=1e-4, n_samples=100,
            effective_samples=50.0, n_failures=1, ci_low=0.0,
            ci_high=3e-4, rounds_run=1, total_samples=200,
        )
        assert estimate.relative_error == np.inf

    def test_covers(self):
        estimate = YieldEstimate(
            probability=1e-3, std_error=1e-4, n_samples=1000,
            effective_samples=500.0, n_failures=10, ci_low=8e-4,
            ci_high=1.2e-3, rounds_run=2, total_samples=2000,
        )
        assert estimate.covers(1e-3)
        assert not estimate.covers(2e-3)
