"""Parallel-runtime scaling on the Fig. 9 SRAM SNM Monte-Carlo.

Times the same SNM workload four ways — one single shard, sharded
serial, and sharded parallel at 2 and 4 workers — and records
samples/sec for each in machine-readable ``BENCH_runtime.json``
alongside the usual txt report.  Also re-asserts the shard contract on
the real workload: the sharded outputs are bit-identical at every
worker count.

The >= 2x speedup acceptance at 4 workers is asserted only when the
machine actually exposes >= 4 CPUs (``os.sched_getaffinity``): process
pools cannot beat serial on a single core, and the JSON records
``cpu_count`` so CI readers can interpret the numbers.

Two more comparisons: a hard regression gate — the sharded serial run
(which coalesces same-plan shards into one batched Newton solve) must
stay within 1.2x of the single-shard run (``shard_size=n``: one
factory, one batched solve) — and the recorded speedup against the
PR-8 sharded-serial baseline captured in an earlier
``BENCH_runtime.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.api import Execution, Session
from repro.cells.sram import SRAMSpec
from repro.experiments.fig9_sram_snm import SNMWork

N_SAMPLES = 400
SHARD_SIZE = 50

#: Sharded-serial samples/sec recorded in ``BENCH_runtime.json`` at the
#: PR-8 tip on the reference container (single CPU) — the pre-fast-path
#: baseline the PR-9 speedup is quoted against.
PR8_SHARDED_SERIAL_SAMPLES_PER_SEC = 160.48


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _timed_map(session, work, execution):
    start = time.perf_counter()
    values, _ = session.map_mc(work, N_SAMPLES, model="vs", seed_offset=70,
                               execution=execution)
    return values, time.perf_counter() - start


def test_runtime_scaling_sram_snm(results_dir, record_report):
    session = Session()
    work = SNMWork(SRAMSpec(), session.technology.vdd, "read")
    modes = {
        "single_shard": Execution(shard_size=N_SAMPLES, workers=1),
        "sharded_serial": Execution(shard_size=SHARD_SIZE, workers=1),
        "sharded_2_workers": Execution(shard_size=SHARD_SIZE, workers=2),
        "sharded_4_workers": Execution(shard_size=SHARD_SIZE, workers=4),
    }
    try:
        # Warm outside the timed window: spin up every worker process,
        # then push one shard through each so per-process compiled-plan
        # caches are hot before timing (matters under spawn/forkserver
        # start methods, where cold workers pay imports + compilation).
        for execution in modes.values():
            if execution.workers > 1:
                session.executor_for(execution).warm()
            session.map_mc(work, SHARD_SIZE * execution.workers, model="vs",
                           seed_offset=71, execution=execution)

        outputs, timings = {}, {}
        for mode, execution in modes.items():
            outputs[mode], timings[mode] = _timed_map(session, work, execution)
    finally:
        session.close()

    # Shard contract on the real workload: identical at every worker count.
    np.testing.assert_array_equal(outputs["sharded_serial"],
                                  outputs["sharded_2_workers"])
    np.testing.assert_array_equal(outputs["sharded_serial"],
                                  outputs["sharded_4_workers"])

    cpu_count = _cpu_count()
    record = {
        "benchmark": "fig9 SRAM READ-SNM Monte-Carlo (VS model)",
        "n_samples": N_SAMPLES,
        "shard_size": SHARD_SIZE,
        "cpu_count": cpu_count,
        "workloads": {
            mode: {
                "seconds": timings[mode],
                "samples_per_sec": N_SAMPLES / timings[mode],
            }
            for mode in modes
        },
        "speedup_4_workers_vs_serial": (
            timings["sharded_serial"] / timings["sharded_4_workers"]
        ),
        "sharded_serial_over_single_shard": (
            timings["sharded_serial"] / timings["single_shard"]
        ),
        "baseline_pr8": {
            "sharded_serial_samples_per_sec":
                PR8_SHARDED_SERIAL_SAMPLES_PER_SEC,
        },
        "speedup_vs_pr8_sharded_serial": (
            (N_SAMPLES / timings["sharded_serial"])
            / PR8_SHARDED_SERIAL_SAMPLES_PER_SEC
        ),
        "sharded_outputs_bit_identical": True,
        "note": (
            "process pools cannot beat serial without spare cores; the "
            ">=2x @ 4-worker assertion runs only when cpu_count >= 4, "
            "and on single-CPU machines the recorded speedup reflects "
            "scheduling overhead, not the runtime's scaling"
        ),
    }
    (results_dir / "BENCH_runtime.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        "Parallel runtime scaling -- fig9 SRAM READ SNM "
        f"({N_SAMPLES} MC, shard {SHARD_SIZE}, {cpu_count} CPUs)",
        *(
            f"{mode:20s} {timings[mode]:7.2f} s  "
            f"{N_SAMPLES / timings[mode]:8.1f} samples/s"
            for mode in modes
        ),
        f"4-worker speedup vs sharded serial: "
        f"{record['speedup_4_workers_vs_serial']:.2f}x",
        f"sharded serial vs single shard: "
        f"{record['sharded_serial_over_single_shard']:.2f}x slower "
        f"(regression gate: <= 1.2x)",
        f"speedup vs PR-8 sharded serial baseline: "
        f"{record['speedup_vs_pr8_sharded_serial']:.2f}x",
        "Sharded outputs bit-identical at 1/2/4 workers.",
    ]
    record_report("runtime_scaling", "\n".join(lines))

    # Regression gate (coalesced fast path): the sharded serial run may
    # cost at most 20% over the single-shard solve.  Both run in this
    # process on one core, so the gate is fair on any machine.
    assert record["sharded_serial_over_single_shard"] <= 1.2, (
        "sharded serial regressed past the 1.2x-of-single-shard gate: "
        f"{record['sharded_serial_over_single_shard']:.2f}x"
    )

    if cpu_count >= 4:
        assert record["speedup_4_workers_vs_serial"] >= 2.0, (
            "expected >= 2x at 4 workers on a >= 4-CPU machine; got "
            f"{record['speedup_4_workers_vs_serial']:.2f}x"
        )
    else:
        pytest.skip(
            f"speedup assertion needs >= 4 CPUs (have {cpu_count}); "
            "timings recorded in BENCH_runtime.json"
        )
