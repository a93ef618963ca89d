"""Adaptive cross-entropy importance sampling: the rare-event yield engine.

Production memory sign-off needs failure probabilities at 5-6 sigma —
regimes where a *fixed* mean shift (``stats.importance``) must be guessed
and plain Monte-Carlo needs ~1e8+ samples.  This module adapts the shift
automatically with the multilevel cross-entropy (CE) method over a
Gaussian mixture proposal:

1. **Adaptation rounds** ``r = 1..n_rounds`` draw ``n_per_round`` samples
   from the current mixture, set an intermediate level at the
   ``elite_fraction`` quantile of the metric (clipped at the true
   threshold once reachable), and re-fit the mixture to the *elite*
   samples — importance-weighted, one EM step per round, smoothed by
   ``smoothing`` — steering the proposal toward the dominant failure
   region.
2. The **estimation phase** freezes the final mixture and runs a plain
   importance-sampled estimate on the wave runner, with the PR-3
   :class:`~repro.runtime.stopping.StopRule` driving the failure
   probability's relative error between waves.

**Seed contract.**  Draws happen in fixed *blocks* of ``block_size``
samples; block *b* of adaptation round *r* draws from
``SeedSequence(base_seed, spawn_key=(*prefix, r, b))`` and estimation
block *b* from ``spawn_key=(*prefix, b)``.  The block partition is a
property of the spec — never of ``Execution.shard_size`` or the worker
count — so the yield envelope is bit-identical at every worker count
*and* across shard sizes.

**The only importance sampler.**  :func:`run_yield` with
``n_rounds=0`` and ``n_components=1`` is a fixed mean-shift
importance-sampled estimate, and that is how ``ImportanceSampling``
specs run: ``Session`` calls it with ``block_size`` set to the
execution's shard size (``execution.shard_size``, else
``auto_shard_size(n_samples)``), so an ``ImportanceSampling`` run and
``Yield(n_rounds=0, n_components=1)`` at that block size are the same
computation.

Checkpoint/resume: every phase shares the caller's checkpoint *prefix*;
each round derives its own fingerprinted file (the spawn prefix carries
the round index and the task hash carries the mixture), so completed
rounds short-circuit from disk and an interrupted round resumes mid-wave
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.devices.vs.statistical import StatisticalVSModel
from repro.obs import default_registry
from repro.obs.trace import span
from repro.stats.importance import FailureEstimate, importance_weights

_REGISTRY = default_registry()
_ROUNDS = _REGISTRY.counter(
    "repro_yield_rounds_total", "CE adaptation rounds executed")
_ELITES = _REGISTRY.gauge(
    "repro_yield_elite_count", "Elite samples in the latest CE round")
_ESS = _REGISTRY.gauge(
    "repro_yield_effective_samples",
    "Kish effective sample size of the latest yield phase")

__all__ = [
    "DEFAULT_YIELD_BLOCK",
    "MAX_SHIFT",
    "GaussianMixtureShift",
    "YieldRoundTask",
    "YieldEstimate",
    "ce_update",
    "initial_mixture",
    "run_yield",
]

#: Samples per draw block — the plan constant of the yield seed
#: contract.  Spec-level (``Yield.block_size``), never derived from
#: ``Execution.shard_size`` or the worker count.
DEFAULT_YIELD_BLOCK = 256

#: Per-parameter mixture shifts are clipped to this many sigmas: a CE
#: update dominated by one freak weight must not launch the proposal
#: into a region where every importance weight underflows.
MAX_SHIFT = 8.0


# ----------------------------------------------------------------------
# The Gaussian mixture proposal.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GaussianMixtureShift:
    """A mean-shifted Gaussian-mixture proposal over the VS parameters.

    Component *k* shifts parameter ``names[p]`` by ``shifts[k][p]`` sigma
    (unit component covariance in sigma space — only the means adapt,
    the textbook CE parameterization for Gaussian inputs).  ``K == 1``
    degenerates to a fixed mean shift and delegates its weight
    computation to :func:`repro.stats.importance.importance_weights`,
    the pinned density-ratio formula.
    """

    names: Tuple[str, ...]
    weights: Tuple[float, ...]
    shifts: Tuple[Tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        object.__setattr__(
            self, "weights", tuple(float(w) for w in self.weights)
        )
        object.__setattr__(
            self,
            "shifts",
            tuple(tuple(float(s) for s in row) for row in self.shifts),
        )
        if not self.names:
            raise ValueError("mixture must name at least one parameter")
        if len(self.weights) != len(self.shifts):
            raise ValueError("one weight per mixture component required")
        if not self.weights:
            raise ValueError("mixture must have at least one component")
        if any(len(row) != len(self.names) for row in self.shifts):
            raise ValueError("every component needs one shift per parameter")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("mixture weights must be non-negative")
        total = sum(self.weights)
        if not np.isclose(total, 1.0, rtol=0.0, atol=1e-9):
            raise ValueError(f"mixture weights must sum to 1, got {total}")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    # ------------------------------------------------------------------
    def component_shifts(self, k: int) -> Dict[str, float]:
        """Component *k*'s ``{name: sigma-unit shift}`` map."""
        return dict(zip(self.names, self.shifts[k]))

    def draw_offsets(
        self,
        n_samples: int,
        rng: np.random.Generator,
        sigmas: Dict[str, float],
    ) -> Dict[str, np.ndarray]:
        """Per-sample mean offsets (natural units) for one block's draw.

        ``K == 1`` consumes **no** randomness (constant offsets: the
        fixed mean shift, so the device draw is the shard stream's first
        use); ``K > 1`` draws one component index per sample first, then
        the device draw follows on the same stream.
        """
        if self.n_components == 1:
            return {
                name: np.full(n_samples, shift * sigmas[name])
                for name, shift in zip(self.names, self.shifts[0])
            }
        component = rng.choice(
            self.n_components, size=n_samples, p=np.asarray(self.weights)
        )
        shift_matrix = np.asarray(self.shifts)      # (K, P)
        per_sample = shift_matrix[component]        # (n, P)
        return {
            name: per_sample[:, p] * sigmas[name]
            for p, name in enumerate(self.names)
        }

    def importance_weights(
        self,
        deviations: Dict[str, np.ndarray],
        sigmas: Dict[str, float],
    ) -> np.ndarray:
        """Density-ratio weights ``f(x) / g(x)`` under this mixture.

        ``f`` is the unshifted Gaussian, ``g`` the mixture; only the
        adapted parameters contribute (the rest cancel).  ``K == 1``
        delegates to :func:`repro.stats.importance.importance_weights`,
        the fixed-shift density ratio.
        """
        if self.n_components == 1:
            return importance_weights(
                deviations, self.component_shifts(0), sigmas
            )
        # log g/f per component: sum_p (2 m x - m^2) / (2 sigma^2).
        x = np.stack(
            [np.asarray(deviations[name], dtype=float) for name in self.names],
            axis=1,
        )                                           # (n, P)
        sigma = np.asarray([sigmas[name] for name in self.names])
        m = np.asarray(self.shifts) * sigma         # (K, P) natural units
        log_ratio = (2.0 * x @ (m / sigma**2).T - np.sum(
            m**2 / sigma**2, axis=1
        )) / 2.0                                    # (n, K)
        log_ratio = log_ratio + np.log(np.asarray(self.weights))
        peak = np.max(log_ratio, axis=1)
        log_g_over_f = peak + np.log(
            np.sum(np.exp(log_ratio - peak[:, None]), axis=1)
        )
        return np.exp(-log_g_over_f)

    def responsibilities(self, x_sigma: np.ndarray) -> np.ndarray:
        """EM responsibilities ``gamma[i, k]`` of sigma-unit samples."""
        m = np.asarray(self.shifts)                 # (K, P)
        log_lik = -0.5 * np.sum(
            (x_sigma[:, None, :] - m[None, :, :]) ** 2, axis=2
        )                                           # (n, K)
        log_lik = log_lik + np.log(np.asarray(self.weights))
        peak = np.max(log_lik, axis=1, keepdims=True)
        lik = np.exp(log_lik - peak)
        return lik / np.sum(lik, axis=1, keepdims=True)

    def as_plain(self) -> Dict:
        """Plain-tuple snapshot for result metadata (tagged-JSON safe)."""
        return {
            "names": self.names,
            "weights": self.weights,
            "shifts": self.shifts,
        }


def initial_mixture(
    shifts: Dict[str, float], n_components: int
) -> GaussianMixtureShift:
    """The round-zero proposal a ``Yield`` spec's ``shifts`` field seeds.

    ``K == 1`` uses the spec shifts verbatim (the fixed-shift special
    case); ``K > 1`` fans the components along the shift direction with
    scales ``2(k+1)/(K+1)`` — symmetric about 1, so the spread covers
    both short and long of the seed guess — at uniform weights.
    """
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    names = tuple(sorted(shifts))
    if not names:
        raise ValueError("shifts must name at least one parameter")
    seed = tuple(float(shifts[name]) for name in names)
    if n_components == 1:
        rows = (seed,)
    else:
        rows = tuple(
            tuple(2.0 * (k + 1) / (n_components + 1) * s for s in seed)
            for k in range(n_components)
        )
    weight = 1.0 / n_components
    return GaussianMixtureShift(
        names=names, weights=(weight,) * n_components, shifts=rows
    )


# ----------------------------------------------------------------------
# The shard task (one block per shard).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class YieldRoundTask:
    """One block of one yield phase (adaptation round or estimation).

    The block draws from its own shard stream, samples the mixture,
    evaluates the metric and folds the weighted failure statistics into
    a :class:`~repro.runtime.accumulators.WeightedFailureAccumulator`.
    Adaptation blocks (``collect_arrays=True``) additionally return the
    raw ``(values, weights, x_sigma)`` arrays the CE update needs for
    exact elite quantiles; estimation blocks return sufficient
    statistics only, so arbitrarily large runs stream back in O(1).
    """

    model: object                   #: StatisticalVSModel
    metric: Callable
    threshold: float
    mixture: GaussianMixtureShift
    w_nm: Optional[float]
    l_nm: Optional[float]
    fail_below: bool
    collect_arrays: bool

    def __call__(self, shard):
        from repro.runtime.accumulators import WeightedFailureAccumulator

        model: StatisticalVSModel = self.model
        n = shard.n_samples
        rng = shard.rng()
        w = float(model.nominal.w_nm if self.w_nm is None else self.w_nm)
        l = float(model.nominal.l_nm if self.l_nm is None else self.l_nm)
        sigmas = model.sigmas(w, l)

        offsets = self.mixture.draw_offsets(n, rng, sigmas)
        sample = model.sample(n, rng, w_nm=w, l_nm=l,
                              extra_deviations=offsets)
        weights = self.mixture.importance_weights(sample.deviations, sigmas)
        values = np.asarray(self.metric(sample.params))
        fails = (values < self.threshold if self.fail_below
                 else values > self.threshold)
        x_sigma = {
            name: np.asarray(sample.deviations[name]) / sigmas[name]
            for name in self.mixture.names
        }
        acc = WeightedFailureAccumulator().update(fails, weights,
                                                  deviations=x_sigma)
        if not self.collect_arrays:
            return acc
        return {
            "acc": acc,
            "values": np.asarray(values, dtype=float),
            "weights": np.asarray(weights, dtype=float),
            "x_sigma": np.stack(
                [x_sigma[name] for name in self.mixture.names], axis=1
            ),
        }


# ----------------------------------------------------------------------
# The cross-entropy update.
# ----------------------------------------------------------------------
def ce_update(
    mixture: GaussianMixtureShift,
    values: np.ndarray,
    weights: np.ndarray,
    x_sigma: np.ndarray,
    threshold: float,
    elite_fraction: float,
    smoothing: float,
    fail_below: bool,
) -> Tuple[GaussianMixtureShift, float, int]:
    """One multilevel CE step: ``(new mixture, level, n_elite)``.

    The level is the ``elite_fraction`` quantile of the metric values in
    the failing direction, clipped at the true threshold once reachable
    (the multilevel schedule); elites are the samples at or beyond it.
    Means update to the importance-weighted (one EM step for ``K > 1``)
    elite centroids, smoothed by ``smoothing`` toward the old mixture
    and clipped at :data:`MAX_SHIFT` sigmas.  Deterministic: quantiles
    and sums run over arrays concatenated in block order.
    """
    values = np.asarray(values, dtype=float)
    # NaN metric values (non-converged solves a metric did not map to a
    # failing extreme) would poison the quantile and silently no-op the
    # round; the level is set over the comparable values only.  +-inf
    # stays in the pool — "fails at any level" is meaningful.
    pool = values[~np.isnan(values)]
    if pool.size == 0:
        return mixture, float("nan"), 0
    if fail_below:
        level = float(np.quantile(pool, elite_fraction))
        level = max(level, threshold)
        elite = values <= level
    else:
        level = float(np.quantile(pool, 1.0 - elite_fraction))
        level = min(level, threshold)
        elite = values >= level
    n_elite = int(np.count_nonzero(elite))
    if n_elite == 0:
        return mixture, level, 0

    w_e = np.asarray(weights, dtype=float)[elite]
    x_e = np.asarray(x_sigma, dtype=float)[elite]
    if not np.any(w_e > 0.0):
        return mixture, level, n_elite

    if mixture.n_components == 1:
        u = w_e[:, None]                            # (n_e, 1)
    else:
        u = w_e[:, None] * mixture.responsibilities(x_e)
    mass = np.sum(u, axis=0)                        # (K,)
    old = np.asarray(mixture.shifts)                # (K, P)
    new = np.array(old)
    for k in range(mixture.n_components):
        if mass[k] > 0.0:
            new[k] = np.sum(u[:, k:k + 1] * x_e, axis=0) / mass[k]
    new = smoothing * new + (1.0 - smoothing) * old
    new = np.clip(new, -MAX_SHIFT, MAX_SHIFT)

    if mixture.n_components == 1:
        new_weights = mixture.weights
    else:
        total = float(np.sum(mass))
        if total > 0.0:
            pi = smoothing * (mass / total) + (1.0 - smoothing) * np.asarray(
                mixture.weights
            )
            new_weights = tuple(float(p) for p in pi / np.sum(pi))
        else:
            new_weights = mixture.weights
    updated = GaussianMixtureShift(
        names=mixture.names,
        weights=new_weights,
        shifts=tuple(tuple(float(s) for s in row) for row in new),
    )
    return updated, level, n_elite


# ----------------------------------------------------------------------
# The estimate envelope.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class YieldEstimate:
    """Adaptive importance-sampled failure probability with its CI."""

    probability: float
    std_error: float
    n_samples: int               #: estimation-phase samples
    effective_samples: float     #: Kish ESS of the estimation weights
    n_failures: int
    ci_low: float                #: 95 % normal-approximation interval
    ci_high: float
    rounds_run: int              #: CE adaptation rounds executed
    total_samples: int           #: adaptation + estimation draws

    @property
    def relative_error(self) -> float:
        """Relative error under the shared degenerate-case policy."""
        return FailureEstimate(
            probability=self.probability,
            std_error=self.std_error,
            n_samples=self.n_samples,
            effective_samples=self.effective_samples,
            n_failures=self.n_failures,
        ).relative_error

    def covers(self, probability: float) -> bool:
        """Whether *probability* lies inside the reported 95 % CI."""
        return self.ci_low <= probability <= self.ci_high


def _estimate_from(acc, rounds_run: int, adapt_samples: int) -> YieldEstimate:
    """Assemble the envelope payload from the merged estimation state."""
    probability = float(acc.probability)
    std_error = float(acc.std_error)
    half = 1.959963984540054 * std_error
    ci_low = max(0.0, probability - half) if np.isfinite(half) else 0.0
    ci_high = probability + half
    return YieldEstimate(
        probability=probability,
        std_error=std_error,
        n_samples=int(acc.n_samples),
        effective_samples=float(acc.effective_samples),
        n_failures=int(acc.n_fail),
        ci_low=ci_low,
        ci_high=float(ci_high),
        rounds_run=rounds_run,
        total_samples=int(adapt_samples + acc.n_samples),
    )


# ----------------------------------------------------------------------
# The orchestrator.
# ----------------------------------------------------------------------
def run_yield(
    model: StatisticalVSModel,
    metric: Callable,
    threshold: float,
    shifts: Dict[str, float],
    n_samples: int,
    executor,
    n_rounds: int = 4,
    n_per_round: int = 1024,
    n_components: int = 1,
    elite_fraction: float = 0.1,
    smoothing: float = 0.7,
    block_size: int = DEFAULT_YIELD_BLOCK,
    base_seed: int = 0,
    spawn_prefix: Tuple[int, ...] = (),
    w_nm: Optional[float] = None,
    l_nm: Optional[float] = None,
    fail_below: bool = True,
    stop=None,
    wave_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    observer=None,
):
    """Adaptive CE importance sampling on the wave runner.

    Returns ``(YieldEstimate, meta, RuntimeInfo)`` where *meta* is the
    plain-dict ``meta["yield"]`` trajectory (per-round level, elites,
    mixture and failure statistics, plus the frozen final mixture) and
    *RuntimeInfo* describes the estimation phase.  *stop* (a
    :class:`~repro.runtime.stopping.StopRule`) applies to the estimation
    phase only; adaptation rounds are fixed-size by construction.
    """
    from repro.runtime.accumulators import WeightedFailureAccumulator
    from repro.runtime.runner import CANCELLED, run_sharded
    from repro.runtime.sharding import plan_shards

    prefix = tuple(int(p) for p in spawn_prefix)
    mixture = initial_mixture(shifts, n_components)
    trajectory = []
    rounds_run = 0
    adapt_samples = 0
    cancelled = False

    def _task(current: GaussianMixtureShift,
              collect_arrays: bool) -> YieldRoundTask:
        return YieldRoundTask(
            model=model, metric=metric, threshold=float(threshold),
            mixture=current, w_nm=w_nm, l_nm=l_nm,
            fail_below=bool(fail_below), collect_arrays=collect_arrays,
        )

    for r in range(1, int(n_rounds) + 1):
        plan = plan_shards(int(n_per_round), int(block_size), base_seed,
                           spawn_prefix=prefix + (r,))
        with span("yield.round", round=r, samples=int(n_per_round)) as sp:
            run = run_sharded(
                _task(mixture, collect_arrays=True), plan, executor,
                accumulator=WeightedFailureAccumulator(),
                accumulate=lambda acc, payload: acc.merge(payload["acc"]),
                wave_size=wave_size, checkpoint_path=checkpoint_path,
                observer=observer,
            )
            if run.info.stop_reason == CANCELLED:
                cancelled = True
                break
            rounds_run = r
            adapt_samples += run.info.n_samples
            values = np.concatenate([p["values"] for p in run.payloads])
            weights = np.concatenate([p["weights"] for p in run.payloads])
            x_sigma = np.concatenate([p["x_sigma"] for p in run.payloads])
            acc = run.accumulator
            updated, level, n_elite = ce_update(
                mixture, values, weights, x_sigma, float(threshold),
                float(elite_fraction), float(smoothing), bool(fail_below),
            )
            sp.set(n_elite=int(n_elite), level=float(level),
                   ess=float(acc.effective_samples))
        _ROUNDS.inc()
        _ELITES.set(int(n_elite))
        _ESS.set(float(acc.effective_samples))
        at_threshold = (level <= threshold if fail_below
                        else level >= threshold)
        trajectory.append({
            "round": r,
            "level": float(level),
            "n_elite": int(n_elite),
            "n_failures": int(acc.n_fail),
            "probability": float(acc.probability),
            "effective_samples": float(acc.effective_samples),
            "at_threshold": bool(at_threshold),
            "mixture": updated.as_plain(),
        })
        mixture = updated
        if at_threshold:
            # The multilevel schedule has reached the true failure
            # level; further rounds would re-fit the same elites.
            break

    meta = {
        "block_size": int(block_size),
        "n_components": int(n_components),
        "rounds_run": rounds_run,
        "adapt_samples": int(adapt_samples),
        "trajectory": tuple(trajectory),
        "final_mixture": mixture.as_plain(),
    }

    if cancelled:
        acc = WeightedFailureAccumulator()
        estimate = _estimate_from(acc, rounds_run, adapt_samples)
        plan = plan_shards(int(n_samples), int(block_size), base_seed,
                           spawn_prefix=prefix)
        from repro.runtime.runner import _build_info

        info = _build_info(plan, executor, 0, 0, True, CANCELLED, 0, None)
        return estimate, meta, info

    plan = plan_shards(int(n_samples), int(block_size), base_seed,
                       spawn_prefix=prefix)
    with span("yield.estimate", samples=int(n_samples),
              rounds_run=rounds_run) as sp:
        run = run_sharded(
            _task(mixture, collect_arrays=False), plan, executor,
            accumulator=WeightedFailureAccumulator(),
            accumulate=lambda acc, payload: acc.merge(payload),
            stop=stop, wave_size=wave_size, checkpoint_path=checkpoint_path,
            observer=observer,
        )
        sp.set(ess=float(run.accumulator.effective_samples),
               n_samples=run.info.n_samples)
    _ESS.set(float(run.accumulator.effective_samples))
    estimate = _estimate_from(run.accumulator, rounds_run, adapt_samples)
    return estimate, meta, run.info
