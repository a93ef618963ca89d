"""Layer wrappers for the traced run.

The benchmark measures the program's layers from outside: it replaces
public functions with timing/counting wrappers, patched where the
callers look them up, and records one span per call.  A span's *self*
time is its duration minus the durations of the spans nested inside it
on the same thread, so the self times of all spans plus an
``unattributed`` residual add up to the traced window.

Wrappers are installed once and stay dormant until
:meth:`Tracer.enable`; a dormant wrapper costs one attribute test.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from math import prod


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(float)


class Tracer:
    """Span statistics keyed by span name, with per-thread nesting."""

    def __init__(self):
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stats = defaultdict(_Stat)

    def enable(self) -> None:
        self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        """*fn* recording a span *name*; *count(args, kwargs, result)*
        returns a dict of counters added to the span's totals."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    stat = self._stats[name]
                    stat.calls += 1
                    stat.total_s += duration
                    stat.self_s += duration - children
            if count is not None:
                counts = count(args, kwargs, result)
                with self._lock:
                    stat = self._stats[name]
                    for key, value in counts.items():
                        stat.counts[key] += value
            return result

        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return {
                name: {"calls": s.calls, "total_s": s.total_s,
                       "self_s": s.self_s, "counts": dict(s.counts)}
                for name, s in self._stats.items()
            }


def _batch_size(array) -> int:
    shape = getattr(array, "shape", ())
    return int(prod(shape[:-1])) if shape else 1


def _frame_bytes(header, blob) -> int:
    return len(json.dumps(header, sort_keys=True).encode()) + len(blob)


def _frame_counts(header, blob) -> dict:
    if header.get("type") == "heartbeat":
        return {"heartbeats": 1}
    return {"frames": 1, "bytes": _frame_bytes(header, blob)}


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the benchmark measures.

    Functions imported by name into a caller are patched in that
    caller's namespace: ``newton_solve`` in ``repro.circuit.dcop`` and
    in the *module* ``repro.circuit.transient`` (the package attribute
    of that name is the re-exported function), ``transient`` in
    ``repro.cells.dff``, ``save_checkpoint`` in ``repro.runtime.runner``
    and the frame codec in the coordinator and worker modules.
    """
    import numpy
    import repro.cells.dff as dff
    import repro.circuit.dcop as dcop
    import repro.cluster.coordinator as coordinator
    import repro.cluster.worker as worker
    import repro.runtime.runner as runner
    from repro.circuit.compiled import CompiledCircuit
    from repro.cluster.coordinator import ClusterExecutor
    from repro.devices.base import DeviceModel
    from repro.runtime.executors import SerialExecutor
    from repro.runtime.tasks import FactoryMapTask
    from repro.service.store import ResultStore

    transient_module = sys.modules["repro.circuit.transient"]
    w = tracer.wrap

    setattr(numpy.linalg, "solve", w(
        "mna.solve", numpy.linalg.solve,
        lambda a, k, r: {"systems": int(prod(a[0].shape[:-2]))},
    ))
    setattr(dcop, "newton_solve", w(
        "mna.newton", dcop.newton_solve,
        lambda a, k, r: {"batch": _batch_size(a[1])},
    ))
    setattr(transient_module, "newton_solve", w(
        "mna.newton", transient_module.newton_solve,
        lambda a, k, r: {"batch": _batch_size(a[1]), "steps": 1},
    ))
    setattr(dff, "transient", w("transient.call", dff.transient))

    def iv_evals(args, kwargs, result):
        shapes = [getattr(x, "shape", ()) for x in args[1:4]]
        return {"evals": int(prod(numpy.broadcast_shapes(*shapes)))}

    setattr(DeviceModel, "ids_and_derivatives", w(
        "devices.iv", DeviceModel.ids_and_derivatives, iv_evals))
    setattr(DeviceModel, "charges_and_capacitance", w(
        "devices.charge", DeviceModel.charges_and_capacitance))

    def closure_factory(name, method):
        @functools.wraps(method)
        def factory(self, *args, **kwargs):
            return w(name, method(self, *args, **kwargs))
        return factory

    setattr(CompiledCircuit, "assemble_dc", closure_factory(
        "compiled.assemble_dc", CompiledCircuit.assemble_dc))
    setattr(CompiledCircuit, "assemble_transient", closure_factory(
        "compiled.assemble_tran", CompiledCircuit.assemble_transient))
    setattr(CompiledCircuit, "advance_history", w(
        "compiled.history", CompiledCircuit.advance_history))

    shard_count = lambda a, k, r: {"shards": len(a[2])}  # noqa: E731
    for executor in (SerialExecutor, ClusterExecutor):
        setattr(executor, "map_shards", w(
            "runtime.map_shards", executor.map_shards, shard_count))
    setattr(FactoryMapTask, "run_chunk", w(
        "runtime.run_chunk", FactoryMapTask.run_chunk,
        lambda a, k, r: {"samples": sum(s.n_samples for s in a[1])},
    ))
    setattr(FactoryMapTask, "__call__", w(
        "runtime.task", FactoryMapTask.__call__))
    setattr(runner, "save_checkpoint", w(
        "runtime.save_checkpoint", runner.save_checkpoint,
        lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    ))

    setattr(ResultStore, "put", w(
        "store.put", ResultStore.put,
        lambda a, k, r: {"bytes": os.path.getsize(r)},
    ))
    setattr(ResultStore, "get_text", w("store.get_text", ResultStore.get_text))

    def written(args, kwargs, result):
        blob = args[2] if len(args) > 2 else kwargs.get("blob", b"")
        return _frame_counts(args[1], blob)

    def read(args, kwargs, result):
        return {} if result is None else _frame_counts(*result)

    for module, prefix in ((coordinator, "cluster."),
                           (worker, "cluster.worker_")):
        setattr(module, "write_frame", w(
            prefix + "write_frame", module.write_frame, written))
        setattr(module, "read_frame", w(
            prefix + "read_frame", module.read_frame, read))
    setattr(worker, "_run_shard_chunk_timed", w(
        "cluster.worker_chunk", worker._run_shard_chunk_timed,
        lambda a, k, r: {"shards": len(a[1])},
    ))
