"""Picklable shard tasks + the orchestration entry points the API uses.

Each task is a plain top-level dataclass holding only picklable state
(characterized models, geometry, thresholds), with ``__call__(shard)``
evaluating one shard on the shard's own stream.  The ``run_*`` functions
pair a task with the wave runner and assemble the task-specific final
payload from the ordered shard outputs:

* :func:`run_target_samples` — device-level Monte-Carlo; shard payloads
  are :class:`~repro.stats.montecarlo.TargetSamples` concatenated in
  shard order, streamed into a
  :class:`~repro.runtime.accumulators.TargetAccumulator`.
* :func:`run_factory_map` — circuit-level Monte-Carlo: any
  ``work(factory) -> (n,) array`` over a per-shard
  :class:`~repro.cells.factory.MonteCarloDeviceFactory`.
* :func:`run_array_task` — generic fan-out for tasks that already
  return per-shard sample arrays (the SSTA graph engine uses this).

Importance-sampled estimates (``ImportanceSampling`` and ``Yield``)
have one shard task and one runner, both in
:mod:`repro.stats.yield_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.runtime.accumulators import StreamStats, TargetAccumulator
from repro.runtime.executors import Executor
from repro.runtime.runner import RuntimeInfo, run_sharded
from repro.runtime.sharding import Shard, ShardPlan
from repro.runtime.stopping import StopRule

__all__ = [
    "TargetSamplesTask",
    "FactoryMapTask",
    "ArrayAccumulator",
    "run_target_samples",
    "run_factory_map",
    "run_array_task",
]


# ----------------------------------------------------------------------
# Device-level Monte-Carlo (MonteCarlo specs).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TargetSamplesTask:
    """One shard of a device-level target Monte-Carlo."""

    characterization: object        #: PolarityCharacterization
    model: str
    w_nm: float
    l_nm: float
    vdd: float

    def __call__(self, shard: Shard):
        from repro.stats.montecarlo import target_samples

        return target_samples(
            self.characterization, self.model, self.w_nm, self.l_nm,
            self.vdd, shard.n_samples, shard.rng(),
        )


def run_target_samples(
    characterization,
    model: str,
    w_nm: float,
    l_nm: float,
    vdd: float,
    plan: ShardPlan,
    executor: Executor,
    stop: Optional[StopRule] = None,
    wave_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    observer=None,
):
    """Sharded :func:`repro.stats.montecarlo.target_samples`.

    Returns ``(TargetSamples, TargetAccumulator, RuntimeInfo)``; the
    concatenated samples cover the shards actually run (fewer than
    planned when the stop rule fires).
    """
    from repro.stats.montecarlo import concat_target_samples

    task = TargetSamplesTask(
        characterization=characterization, model=model,
        w_nm=float(w_nm), l_nm=float(l_nm), vdd=float(vdd),
    )
    run = run_sharded(
        task, plan, executor,
        accumulator=TargetAccumulator(),
        accumulate=lambda acc, payload: acc.update(payload.samples),
        stop=stop, wave_size=wave_size, checkpoint_path=checkpoint_path,
        observer=observer,
    )
    return concat_target_samples(run.payloads), run.accumulator, run.info


# ----------------------------------------------------------------------
# Circuit-level Monte-Carlo through device factories.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FactoryMapTask:
    """One shard of ``work(factory) -> (n,) array`` circuit Monte-Carlo.

    Builds a shard-local :class:`MonteCarloDeviceFactory` seeded by the
    shard stream and runs *work* (a picklable callable: module-level
    function or frozen dataclass).  Its circuits compile through the
    process plan cache (:func:`repro.circuit.plans.process_plan_cache`),
    so each long-lived pool worker compiles a topology once.

    Executors batch all same-task shards of a chunk through
    :meth:`run_chunk` — one Newton solve over the concatenated sample
    block instead of one per shard.  Each shard's
    stream is still drawn by its own generator, and the batched solve is
    elementwise along the sample axis, so the per-shard rows are
    bit-identical to the unbatched path at every worker count.
    """

    technology: object              #: Technology
    work: Callable
    model: str = "vs"

    def _factory(self, shard: Shard):
        from repro.cells.factory import MonteCarloDeviceFactory

        return MonteCarloDeviceFactory(
            self.technology, shard.n_samples, rng=shard.rng(),
            model=self.model,
        )

    def _work(self, factory, n_samples: int) -> np.ndarray:
        values = np.asarray(self.work(factory))
        if values.ndim < 1 or values.shape[0] != n_samples:
            raise TypeError(
                "factory-map work must return an array with the "
                f"Monte-Carlo axis first; got shape {values.shape} for a "
                f"{n_samples}-sample shard"
            )
        return values

    def __call__(self, shard: Shard) -> np.ndarray:
        return self._work(self._factory(shard), shard.n_samples)

    def run_chunk(self, shards) -> list:
        """Evaluate several shards as ONE batched factory-map call.

        The cross-shard batching of the fast Newton path: per-shard
        factories draw their own streams (identical request order, so
        identical draws), a :class:`~repro.cells.factory.
        CoalescedFactory` concatenates the sampled cards along the
        sample axis, *work* runs once on the combined block, and the
        result rows are split back at the shard boundaries.  Returns
        ``(shard_index, payload)`` pairs like an executor shard loop.
        """
        if len(shards) <= 1:
            return [(shard.index, self(shard)) for shard in shards]
        from repro.cells.factory import CoalescedFactory

        factory = CoalescedFactory([self._factory(shard) for shard in shards])
        values = self._work(factory, factory.n_samples)
        pairs, offset = [], 0
        for shard in shards:
            pairs.append((shard.index, values[offset:offset + shard.n_samples]))
            offset += shard.n_samples
        return pairs


def run_factory_map(
    technology,
    work: Callable,
    plan: ShardPlan,
    executor: Executor,
    model: str = "vs",
    stop: Optional[StopRule] = None,
    wave_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    observer=None,
):
    """Sharded circuit-level Monte-Carlo over device factories.

    Returns ``(values, StreamStats, RuntimeInfo)`` with *values* the
    shard outputs concatenated along the sample axis in shard order.
    """
    task = FactoryMapTask(technology=technology, work=work, model=model)
    return run_array_task(
        task, plan, executor, stop=stop, wave_size=wave_size,
        checkpoint_path=checkpoint_path, observer=observer,
    )


class ArrayAccumulator:
    """Streaming stats for ``(n, ...)`` sample arrays.

    Elementwise moments ride in a :class:`StreamStats`; the **row**
    count is tracked separately so stop-rule accounting (``n_samples``,
    ``sigma_relative_error``) is in Monte-Carlo samples — a ``(n, k)``
    work output must not look like ``n * k`` samples to
    ``min_samples``/``max_samples``/``target_rel_err``.  Non-finite rows
    (non-converged circuit samples; callers filter them downstream too)
    are skipped entirely so they neither poison the moments nor count
    toward the error estimate.
    """

    def __init__(self):
        self.values = StreamStats()
        self.rows = 0

    def update(self, payload) -> "ArrayAccumulator":
        values = np.asarray(payload, dtype=float)
        flat = values.reshape(values.shape[0], -1)
        finite = values[np.isfinite(flat).all(axis=1)]
        self.values.update(finite)
        self.rows += int(finite.shape[0])
        return self

    @property
    def n_samples(self) -> int:
        return self.rows

    def sigma_relative_error(self) -> float:
        """Stop-rule protocol: sigma error from the *row* count."""
        if self.rows < 2:
            return float("inf")
        return 1.0 / np.sqrt(2.0 * (self.rows - 1))

    def state(self) -> dict:
        return {"values": self.values.state(), "rows": self.rows}

    @classmethod
    def from_state(cls, state: dict) -> "ArrayAccumulator":
        out = cls()
        out.values = StreamStats.from_state(state["values"])
        out.rows = int(state["rows"])
        return out


def run_array_task(
    task: Callable,
    plan: ShardPlan,
    executor: Executor,
    stop: Optional[StopRule] = None,
    wave_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    task_label: Optional[str] = None,
    observer=None,
):
    """Generic fan-out for tasks returning per-shard sample arrays."""
    run = run_sharded(
        task, plan, executor,
        accumulator=ArrayAccumulator(),
        accumulate=lambda acc, payload: acc.update(payload),
        stop=stop, wave_size=wave_size, checkpoint_path=checkpoint_path,
        task_label=task_label, observer=observer,
    )
    values = np.concatenate(run.payloads, axis=0)
    return values, run.accumulator, run.info
