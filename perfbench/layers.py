"""Per-layer metrics derived from span statistics and metric registries.

Inputs are :meth:`tracing.Tracer.snapshot` documents (``name -> calls,
total_s, self_s, counts``) and snapshots of the program's public
metrics registry (``repro.obs.default_registry``, served by the daemon
as ``GET /metrics``).  Names match the ``per_layer`` entries of
``BENCHMARK.json``; see the benchmark README for what each one should
move.
"""

from __future__ import annotations

from collections import defaultdict

from common import median

#: Spans each workload must record at least once in its traced window,
#: per process; a silent wrapper was patched where no caller looks.
EXPECTED = {
    "dc_snm": {
        "main": ("devices.iv", "compiled.assemble_dc", "mna.newton",
                 "mna.solve", "runtime.map_shards", "runtime.run_chunk"),
    },
    "tran_dff": {
        "main": ("devices.iv", "devices.charge", "compiled.assemble_dc",
                 "compiled.assemble_tran", "compiled.history",
                 "mna.newton", "mna.solve", "transient.call",
                 "runtime.map_shards", "runtime.task"),
    },
    "service_mix": {
        "daemon": ("runtime.map_shards", "runtime.save_checkpoint",
                   "store.put", "store.get_text", "cluster.write_frame",
                   "cluster.read_frame"),
        "worker": ("cluster.worker_write_frame", "cluster.worker_read_frame",
                   "cluster.worker_chunk", "devices.iv",
                   "compiled.assemble_dc", "mna.newton", "mna.solve"),
    },
}

#: Spans left out of the attributed time: containers whose time is the
#: measured layers plus the workload's own code, and waits (a reader
#: thread parked in ``recv``).  What remains unattributed is the time
#: in none of the measured layers.
UNATTRIBUTED = ("runtime.map_shards", "runtime.run_chunk", "runtime.task",
                "cluster.worker_chunk", "cluster.read_frame",
                "cluster.worker_read_frame")

_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}


def check_expected(workload: str, spans_by_process: dict) -> None:
    """Raise when a wrapper predicted to fire recorded no call."""
    lost = [
        f"{process}:{name}"
        for process, names in EXPECTED[workload].items()
        for name in names
        if spans_by_process.get(process, {}).get(name, _EMPTY)["calls"] == 0
    ]
    if lost:
        raise RuntimeError(
            f"wrappers predicted to fire on {workload} recorded no call: "
            + ", ".join(lost))


def registry_values(snapshot: dict) -> dict:
    """Flatten a registry snapshot to ``name -> value``.

    Counters and gauges sum over their label series; histograms give
    ``name.sum`` and ``name.count``, per route when labelled by one.
    """
    flat = defaultdict(float)
    for name, family in (snapshot or {}).items():
        for series in family["series"]:
            if family["type"] == "histogram":
                route = series["labels"].get("route")
                key = name if route is None else f"{name}{{{route}}}"
                flat[key + ".sum"] += series["sum"]
                flat[key + ".count"] += series["count"]
            else:
                flat[name] += series["value"]
    return dict(flat)


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def engine_metrics(spans: dict) -> dict:
    """Device, assembly, Newton, transient and shard-execution layers."""
    def stat(name):
        return spans.get(name, _EMPTY)

    iv, charge = stat("devices.iv"), stat("devices.charge")
    dc, tran = stat("compiled.assemble_dc"), stat("compiled.assemble_tran")
    newton, solve = stat("mna.newton"), stat("mna.solve")
    chunk, shards = stat("runtime.run_chunk"), stat("runtime.map_shards")
    n_newton = max(newton["calls"], 1)
    return {
        "devices.iv_calls": iv["calls"],
        "devices.iv_s": iv["total_s"],
        "devices.iv_evals": iv["counts"].get("evals", 0),
        "devices.charge_calls": charge["calls"],
        "devices.charge_s": charge["total_s"],
        "compiled.assemble_dc_calls": dc["calls"],
        "compiled.assemble_dc_self_s": dc["self_s"],
        "compiled.assemble_tran_calls": tran["calls"],
        "compiled.assemble_tran_self_s": tran["self_s"],
        "compiled.history_s": stat("compiled.history")["total_s"],
        "mna.newton_calls": newton["calls"],
        "mna.newton_self_s": newton["self_s"],
        # One assembly per Newton iteration (gmin-ladder rungs included).
        "mna.iters_per_call": (dc["calls"] + tran["calls"]) / n_newton,
        "mna.batch_mean": newton["counts"].get("batch", 0) / n_newton,
        "mna.solve_calls": solve["calls"],
        "mna.solve_s": solve["total_s"],
        "mna.solve_systems": solve["counts"].get("systems", 0),
        "transient.calls": stat("transient.call")["calls"],
        "transient.steps": newton["counts"].get("steps", 0),
        "runtime.shards": shards["counts"].get("shards", 0),
        "runtime.chunk_samples": (chunk["counts"].get("samples", 0)
                                  / max(chunk["calls"], 1)),
        "runtime.map_shards_s": shards["total_s"],
    }


def plan_metrics(totals: dict) -> dict:
    """Plan-cache layer over the whole process, set-up included."""
    return {
        "plan.compiles": totals.get(
            "repro_plan_cache_structural_compiles_total", 0.0),
        "plan.cache_hits": totals.get("repro_plan_cache_hits_total", 0.0),
        "plan.compile_s": totals.get("repro_plan_compile_seconds.sum", 0.0),
    }


def attributed_s(spans: dict) -> float:
    return sum(s["self_s"] for name, s in spans.items()
               if name not in UNATTRIBUTED)


def inproc_layers(spans: dict, window_delta: dict, totals: dict,
                  window_s: float) -> dict:
    metrics = engine_metrics(spans)
    metrics.update(plan_metrics(totals))
    metrics["runtime.merge_s"] = window_delta.get(
        "repro_merge_seconds.sum", 0.0)
    metrics["unattributed_s"] = window_s - attributed_s(spans)
    return metrics


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def service_layers(stats: dict, metrics_start: dict, metrics_end: dict,
                   phase_a: list, phase_b: list, window_s: float,
                   polls: int) -> dict:
    """Per-layer metrics of the service stack's traced window.

    *stats* are the launchers' documents for ``daemon`` and ``worker``;
    *metrics_start*/*metrics_end* the daemon's ``GET /metrics`` at the
    window's edges; *phase_a*/*phase_b* the client's job records of the
    untraced and traced halves.
    """
    daemon = stats["daemon"]["spans"]
    worker = stats["worker"]["spans"]
    check_expected("service_mix", {"daemon": daemon, "worker": worker})
    reg = delta(registry_values(metrics_end), registry_values(metrics_start))
    totals = defaultdict(float)
    for values in (registry_values(metrics_end),
                   registry_values(stats["worker"]["registry_end"])):
        for name, value in values.items():
            totals[name] += value

    metrics = engine_metrics(worker)
    # Shard execution is the daemon's (the coordinator dispatches).
    shards = daemon.get("runtime.map_shards", _EMPTY)
    metrics["runtime.shards"] = shards["counts"].get("shards", 0)
    metrics["runtime.map_shards_s"] = shards["total_s"]
    metrics["runtime.merge_s"] = reg.get("repro_merge_seconds.sum", 0.0)
    metrics.update(plan_metrics(totals))
    ckpt = daemon.get("runtime.save_checkpoint", _EMPTY)
    metrics.update({
        "runtime.checkpoint_writes": reg.get(
            "repro_checkpoint_writes_total", 0.0),
        "runtime.checkpoint_bytes": reg.get(
            "repro_checkpoint_write_bytes_total", 0.0),
        "runtime.checkpoint_write_s": ckpt["total_s"],
        "yield.rounds": reg.get("repro_yield_rounds_total", 0.0),
        "yield.sims": sum(j["samples"] for j in phase_b
                          if j["kind"] == "heavy"),
        "service.status_polls": polls,
    })
    for route, label in (("/jobs", "submit"), ("/jobs/{fp}", "status"),
                         ("/jobs/{fp}/result", "result")):
        key = f"repro_service_request_seconds{{{route}}}"
        metrics[f"service.request_s.{label}"] = _mean(
            reg.get(key + ".sum", 0.0), reg.get(key + ".count", 0.0))
    put = daemon.get("store.put", _EMPTY)
    get = daemon.get("store.get_text", _EMPTY)
    metrics.update({
        "store.put_s": _mean(put["total_s"], put["calls"]),
        "store.get_s": _mean(get["total_s"], get["calls"]),
        "store.envelope_bytes": _mean(put["counts"].get("bytes", 0),
                                      put["calls"]),
    })
    frames = bytes_ = 0
    for name in ("cluster.write_frame", "cluster.read_frame"):
        counts = daemon.get(name, _EMPTY)["counts"]
        frames += counts.get("frames", 0)
        bytes_ += counts.get("bytes", 0)
    n_shards = max(metrics["runtime.shards"], 1)
    busy = worker.get("cluster.worker_chunk", _EMPTY)["total_s"]
    miss_latency = sum(j["latency_s"] for j in phase_b if j["kind"] != "hit")
    metrics.update({
        "cluster.frames": frames,
        "cluster.frame_bytes": bytes_,
        "cluster.frames_per_shard": frames / n_shards,
        "cluster.bytes_per_shard": bytes_ / n_shards,
        "cluster.retries": reg.get("repro_cluster_retries_total", 0.0),
        "cluster.worker_busy_s": busy,
        "cluster.coordination_wait_s": miss_latency - busy,
        # The worker's whole busy time counts as attributed: its layers
        # are the engine metrics above.
        "unattributed_s": window_s - busy - attributed_s(daemon),
        "trace.overhead_frac": overhead(phase_a, phase_b),
    })
    return metrics


def overhead(phase_a: list, phase_b: list) -> float:
    """Traced over untraced time of the traced half's job mix.

    Each job of the traced half is costed at its class's median latency
    in the untraced half; the ratio of the two sums, minus one.
    """
    by_kind = defaultdict(list)
    for job in phase_a:
        by_kind[job["kind"]].append(job["latency_s"])
    untraced = {kind: median(v) for kind, v in by_kind.items()}
    traced = sum(j["latency_s"] for j in phase_b if j["kind"] in untraced)
    predicted = sum(untraced[j["kind"]] for j in phase_b
                    if j["kind"] in untraced)
    return traced / predicted - 1.0 if predicted else 0.0
