"""Importance sampling: unbiasedness and variance reduction.

Estimates run the way every caller runs them, through
``Session.run(ImportanceSampling(...))`` — the zero-round yield engine —
on a session whose NMOS statistical model is the paper's 40-nm card.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sps

from repro.api import Execution, ImportanceSampling, Session
from repro.data.cards import paper_alphas_nmos, vs_nmos_40nm
from repro.devices.vs.model import VSDevice
from repro.devices.vs.statistical import StatisticalVSModel
from repro.fitting.targets import idsat
from repro.stats.importance import FailureEstimate, importance_weights


@pytest.fixture()
def model():
    return StatisticalVSModel(vs_nmos_40nm(), paper_alphas_nmos())


@pytest.fixture()
def session(model) -> Session:
    """A session drawing NMOS devices from *model* (no characterization)."""
    return Session(technology={"nmos": SimpleNamespace(statistical=model)})


def _vt0(params):
    return np.asarray(params.vt0)


def _estimate(session, **fields) -> FailureEstimate:
    """``P(metric < / > threshold)`` at W/L = 600/40 nm through the session."""
    spec = ImportanceSampling(w_nm=600.0, l_nm=40.0, **fields)
    estimate = session.run(spec).payload
    assert isinstance(estimate, FailureEstimate)
    return estimate


class TestWeights:
    def test_zero_shift_unit_weights(self):
        deviations = {"vt0": np.array([0.1, -0.2])}
        w = importance_weights(deviations, {"vt0": 0.0}, {"vt0": 0.05})
        np.testing.assert_allclose(w, 1.0)

    def test_weight_is_density_ratio(self):
        sigma = 0.02
        shift = 3.0
        x = np.array([0.01, 0.06, -0.01])
        w = importance_weights({"vt0": x}, {"vt0": shift}, {"vt0": sigma})
        expected = sps.norm.pdf(x, 0.0, sigma) / sps.norm.pdf(
            x, shift * sigma, sigma
        )
        np.testing.assert_allclose(w, expected, rtol=1e-9)


class TestRelativeError:
    def test_zero_failures_returns_inf(self, model, session):
        # Unreachable threshold: zero failures observed.  The estimate
        # must report relative_error == inf (not NaN, not raise) so
        # adaptive stop rules can compare it against a tolerance.
        threshold = float(np.asarray(model.nominal.vt0)) - 1.0
        estimate = _estimate(
            session,
            metric=lambda params: np.asarray(params.vt0),
            threshold=threshold,
            shifts={"vt0": 2.0},
            n_samples=500,
            fail_below=True,
        )
        assert estimate.probability == 0.0
        assert estimate.n_failures == 0
        assert estimate.relative_error == np.inf

    def test_degenerate_estimates_never_return_nan(self):
        from repro.stats.importance import FailureEstimate

        zero = FailureEstimate(probability=0.0, std_error=0.0,
                               n_samples=100, effective_samples=0.0)
        assert zero.relative_error == np.inf
        # A single sample leaves std (ddof=1) NaN; still inf, not NaN.
        single = FailureEstimate(probability=0.5, std_error=np.nan,
                                 n_samples=1, effective_samples=1.0)
        assert single.relative_error == np.inf
        nan_prob = FailureEstimate(probability=np.nan, std_error=0.1,
                                   n_samples=10, effective_samples=10.0)
        assert nan_prob.relative_error == np.inf

    def test_single_observed_failure_returns_inf(self):
        # One failing sample leaves the variance estimate resting on a
        # single nonzero contribution: under weighted sampling the
        # reported std error can be near zero when that weight
        # dominates, so a finite (tiny!) relative error here would stop
        # an adaptive run on a statistically meaningless estimate.
        from repro.stats.importance import FailureEstimate

        single_fail = FailureEstimate(
            probability=1e-6, std_error=1e-9, n_samples=1000,
            effective_samples=3.0, n_failures=1,
        )
        assert single_fail.relative_error == np.inf
        two_fails = FailureEstimate(
            probability=1e-6, std_error=5e-7, n_samples=1000,
            effective_samples=30.0, n_failures=2,
        )
        assert two_fails.relative_error == 0.5

    def test_legacy_estimate_without_failure_count_still_guards(self):
        # n_failures=None (legacy construction) keeps the probability
        # and std-error guards; a finite well-posed estimate passes
        # through untouched.
        from repro.stats.importance import FailureEstimate

        legacy = FailureEstimate(probability=1e-3, std_error=1e-4,
                                 n_samples=1000, effective_samples=400.0)
        assert legacy.relative_error == pytest.approx(0.1)

    def test_single_sample_run_is_warning_free(self, model, session):
        # A 1-sample run must not emit the numpy ddof RuntimeWarning nor
        # produce NaN: std_error is an explicit inf by policy.
        import warnings

        threshold = float(np.asarray(model.nominal.vt0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate = _estimate(
                session,
                metric=lambda params: np.asarray(params.vt0),
                threshold=threshold,
                shifts={"vt0": 1.0},
                n_samples=1,
            )
        assert estimate.n_samples == 1
        assert estimate.std_error == np.inf
        assert estimate.relative_error == np.inf
        assert not np.isnan(estimate.probability)

    def test_all_zero_weights_are_inf_not_nan(self):
        # Zero weight mass (e.g. every drawn weight underflowed): the
        # Kish ESS is 0 by convention and the relative error inf — no
        # 0/0 NaN anywhere.
        from repro.runtime import FailureAccumulator

        acc = FailureAccumulator().update(
            np.ones(50, dtype=bool), np.zeros(50)
        )
        assert acc.effective_samples == 0.0
        assert acc.probability == 0.0
        assert acc.relative_error() == np.inf
        assert not np.isnan(acc.relative_error())


class TestAnalyticRecovery:
    def test_gaussian_tail_probability(self, model, session):
        # Failure = sampled VT0 deviation beyond +4 sigma.  Analytic
        # P = Phi(-4) ~ 3.17e-5; plain MC at n=4000 would see ~0 events.
        sigma_vt = model.sigmas(600.0, 40.0)["vt0"]
        nominal_vt = float(np.asarray(model.nominal.vt0))
        threshold = nominal_vt + 4.0 * sigma_vt

        estimate = _estimate(
            session,
            metric=lambda params: np.asarray(params.vt0),
            threshold=threshold,
            shifts={"vt0": 4.0},
            n_samples=4000,
            fail_below=False,
        )
        analytic = float(sps.norm.sf(4.0))
        assert estimate.probability == pytest.approx(analytic, rel=0.15)
        assert estimate.relative_error < 0.1

    def test_unbiased_at_moderate_threshold(self, model, session):
        # 2-sigma threshold: compare IS against plain MC.
        sigma_vt = model.sigmas(600.0, 40.0)["vt0"]
        nominal_vt = float(np.asarray(model.nominal.vt0))
        threshold = nominal_vt + 2.0 * sigma_vt

        est = _estimate(
            session,
            metric=lambda params: np.asarray(params.vt0),
            threshold=threshold,
            shifts={"vt0": 2.0},
            n_samples=6000,
            fail_below=False,
        )
        assert est.probability == pytest.approx(float(sps.norm.sf(2.0)),
                                                rel=0.1)

    def test_variance_reduction_vs_plain_mc(self, model, session):
        # Same budget: the IS relative error at a 3.5-sigma event must be
        # far below plain MC's (which is ~1/sqrt(n*p)).
        sigma_vt = model.sigmas(600.0, 40.0)["vt0"]
        nominal_vt = float(np.asarray(model.nominal.vt0))
        threshold = nominal_vt + 3.5 * sigma_vt
        n = 3000

        est = _estimate(
            session,
            metric=lambda params: np.asarray(params.vt0),
            threshold=threshold,
            shifts={"vt0": 3.5},
            n_samples=n,
            fail_below=False,
        )
        p = float(sps.norm.sf(3.5))
        plain_mc_rel_error = 1.0 / np.sqrt(n * p)   # ~1.2 at this budget
        assert est.relative_error < 0.2 * plain_mc_rel_error


class TestDeviceMetric:
    def test_low_ion_failure_probability(self, model, session):
        # Failure = on-current below (mean - ~3.9 sigma): needs high VT0,
        # low mobility.  The shift pushes both; validate against a brute
        # 2e6-sample plain MC reference (cheap at device level).
        device = VSDevice(model.nominal.replace(w_nm=600.0, l_nm=40.0))
        ion_nominal = float(np.asarray(idsat(device, 0.9)).squeeze())
        threshold = 0.85 * ion_nominal

        metric = lambda params: np.asarray(idsat(VSDevice(params), 0.9))
        est = _estimate(
            session,
            metric=metric,
            threshold=threshold,
            shifts={"vt0": 3.0, "mu": -2.0},
            n_samples=8000,
            fail_below=True,
        )
        reference = model.sample_device(
            2_000_000, np.random.default_rng(123), w_nm=600.0, l_nm=40.0
        )
        p_plain = float(np.mean(np.asarray(idsat(reference, 0.9)) < threshold))

        assert est.relative_error < 0.5
        assert est.probability == pytest.approx(p_plain, rel=0.6)
        # IS reaches this accuracy with 250x fewer samples.
        assert est.n_samples * 250 <= 2_000_000

    def test_validation(self, session):
        # Unknown parameter names and empty budgets are rejected when
        # the spec is built, before anything is sampled.
        with pytest.raises(ValueError, match="unknown statistical parameters"):
            ImportanceSampling(metric=_vt0, threshold=0.5,
                               shifts={"bogus": 1.0})
        with pytest.raises(ValueError, match="n_samples"):
            ImportanceSampling(metric=_vt0, threshold=0.5,
                               shifts={"vt0": 1.0}, n_samples=0)
        with pytest.raises(ValueError, match="at least one parameter"):
            ImportanceSampling(metric=_vt0, threshold=0.5, shifts={})
        # A valid spec runs, on the session's automatic shard size.
        result = session.run(ImportanceSampling(
            metric=_vt0, threshold=0.5, shifts={"vt0": 1.0}, n_samples=100,
            execution=Execution(),
        ))
        assert result.payload.n_samples == 100
        assert result.runtime.shard_size == 100
