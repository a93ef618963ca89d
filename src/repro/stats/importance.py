"""Mean-shift importance sampling on the statistical VS parameters.

SRAM cells fail at 5-6 sigma; estimating such probabilities with plain
Monte-Carlo needs ~1e8 samples.  Mean-shift importance sampling draws the
five VS statistical parameters from Gaussians shifted toward the failure
region and reweights each sample by the density ratio

    w(x) = prod_p  N(x_p; 0, sigma_p) / N(x_p; m_p, sigma_p)
         = prod_p  exp((m_p^2 - 2 m_p x_p) / (2 sigma_p^2)),

an unbiased estimator whose variance collapses when the shift lands near
the dominant failure point.  This is the standard high-sigma companion
to the paper's statistical model — cheap here because the VS parameters
are independent Gaussians by construction (Sec. II-B).

This module holds the pieces every importance-sampled estimate shares:
the density-ratio formula (:func:`importance_weights`), the estimate
payload (:class:`FailureEstimate`) with its degenerate-case policy, and
the picklable :class:`ParameterMetric`.  The sampler itself is
:mod:`repro.stats.yield_engine`: ``session.run(ImportanceSampling(...))``
runs the zero-round, single-component yield engine, whose mixture
weights delegate to :func:`importance_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.devices.vs.params import VSParams


@dataclass(frozen=True)
class ParameterMetric:
    """Metric that reads one statistical parameter off the sampled card.

    ``ParameterMetric("vt0")(params)`` returns ``params.vt0`` as an
    array.  Trivial on purpose: it is the cheapest metric a Yield or
    ImportanceSampling spec can carry, and — being a plain frozen
    dataclass of one string — it is picklable for process pools *and*
    expressible in the tagged-JSON codec, so specs built on it can cross
    the analysis-service wire and be content-addressed
    (:func:`repro.api.fingerprint.fingerprint`).  Closures and lambdas
    can do the same job locally but have neither property.
    """

    name: str

    def __call__(self, params: VSParams) -> np.ndarray:
        return np.asarray(getattr(params, self.name))


@dataclass(frozen=True)
class FailureEstimate:
    """Importance-sampled failure probability."""

    probability: float
    std_error: float
    n_samples: int
    effective_samples: float     #: Kish effective sample size of the weights
    #: Observed failure count (``None`` for legacy estimates that did not
    #: record it; then only the probability/std-error guards apply).
    n_failures: Optional[int] = None

    @property
    def relative_error(self) -> float:
        """``std_error / probability``, or ``inf`` when undefined.

        With zero observed failures the probability estimate is 0 and no
        relative accuracy can be claimed; degenerate single-sample runs
        leave ``std_error`` NaN; a *single* observed failure leaves the
        variance estimate resting on one nonzero contribution (the
        reported std error is then meaningless, and under weighted
        sampling can even be ~0 when that one weight dominates).  All of
        these answer ``inf`` — never NaN, never a ZeroDivisionError —
        so adaptive stop rules can compare the value against a tolerance
        unconditionally.
        """
        if not np.isfinite(self.probability) or self.probability <= 0.0:
            return np.inf
        if not np.isfinite(self.std_error):
            return np.inf
        if self.n_failures is not None and self.n_failures < 2:
            return np.inf
        return self.std_error / self.probability


def importance_weights(
    deviations: Dict[str, np.ndarray],
    shifts: Dict[str, float],
    sigmas: Dict[str, float],
) -> np.ndarray:
    """Density-ratio weights for mean-shifted Gaussian sampling."""
    log_w = np.zeros_like(next(iter(deviations.values())))
    for name, shift in shifts.items():
        m = shift * sigmas[name]
        if m == 0.0:
            continue
        x = deviations[name]
        log_w = log_w + (m**2 - 2.0 * m * x) / (2.0 * sigmas[name] ** 2)
    return np.exp(log_w)
