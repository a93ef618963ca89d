"""The process-wide cache of compiled assembly plans.

Every :class:`~repro.circuit.netlist.Circuit` reaches its
:class:`~repro.circuit.compiled.CompiledCircuit` through one
:class:`PlanCache` per process (:func:`process_plan_cache`):
``Circuit.compiled()`` is ``process_plan_cache().plan_for(circuit)``.
Sessions, shard tasks, service jobs and hand-built netlists all share
it, so there is one place to read compile accounting from
(:meth:`PlanCache.stats` and the ``repro_plan_cache_*`` metrics) and
nothing to attach.  Pool and cluster worker processes each hold their
own.

The **id-keyed** level maps a live circuit to its plan.  An entry is
valid while the circuit's parameter fingerprint
(``Circuit._param_fingerprint``: parameter-object identities + element
batch shapes) is unchanged; registering an element or rebinding a
parameter recompiles.  Entries hold only a *weak* reference to their
circuit and are dropped the moment the circuit is garbage-collected, so
the cache never outlives the (potentially multi-megabyte,
batched-parameter) plans of dead netlists.

The **structural** level sits underneath: when the id-keyed level
misses (a fresh per-shard circuit, say), the circuit's
:func:`~repro.circuit.compiled.structural_fingerprint` — topology +
element types + model class/polarity/temperature, never parameter
values — is looked up in a cache of value-free
:class:`~repro.circuit.compiled.PlanStructure` objects.  A structural
hit skips index bookkeeping entirely and only *binds* the circuit's
values, so a run performs one structure compile per distinct circuit
topology, not one per shard or per block.  Structures are value-free
and hold no circuit references, so the structural level needs no
weakref ceremony — just a bounded LRU.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from typing import Optional

from repro.circuit.compiled import (
    PlanStructure,
    UnsupportedCircuitError,
    compile_circuit,
    structural_fingerprint,
)
from repro.obs import default_registry
from repro.obs.trace import span

__all__ = ["PlanCache", "process_plan_cache"]

_REGISTRY = default_registry()
_HITS = _REGISTRY.counter(
    "repro_plan_cache_hits_total", "Compiled-plan cache hits")
_MISSES = _REGISTRY.counter(
    "repro_plan_cache_misses_total", "Compiled-plan cache misses")
_STRUCT_HITS = _REGISTRY.counter(
    "repro_plan_cache_structural_hits_total",
    "Structural plan-cache hits (value binding only, no compile)")
_STRUCT_COMPILES = _REGISTRY.counter(
    "repro_plan_cache_structural_compiles_total",
    "Structural plan compilations (index bookkeeping + scatter programs)")
_COMPILE_SECONDS = _REGISTRY.histogram(
    "repro_plan_compile_seconds", "Circuit plan compilation latency")


class _Entry:
    __slots__ = ("plan", "objects", "shapes", "circuit_ref")

    def __init__(self, plan, objects, shapes, circuit_ref):
        self.plan = plan
        # Strong refs keep the fingerprinted parameter objects alive so
        # identity comparison stays reliable for the entry's lifetime.
        self.objects = objects
        self.shapes = shapes
        self.circuit_ref = circuit_ref

    def describes(self, circuit, objects, shapes) -> bool:
        """Whether this entry is still *circuit*'s current plan."""
        return (
            self.circuit_ref() is circuit
            and self.shapes == shapes
            and len(self.objects) == len(objects)
            and all(a is b for a, b in zip(self.objects, objects))
        )


class PlanCache:
    """Bounded LRU cache of :class:`CompiledCircuit` plans."""

    def __init__(self, maxsize: int = 64):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        # Structural level: fingerprint tuple -> PlanStructure.  Small
        # (value-free index arrays and scatter programs), so the same
        # maxsize bound is generous.
        self._structures: "OrderedDict[tuple, object]" = OrderedDict()
        # Concurrent Session.submit() handles and the daemon's job
        # threads share the process cache; the LRU bookkeeping (get ->
        # move_to_end -> insert -> evict) and the counters must not
        # interleave.  The weakref eviction callback can fire on any
        # thread, hence RLock.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.structural_hits = 0
        self.structural_compiles = 0

    def __len__(self) -> int:
        return len(self._entries)

    def plan_for(self, circuit) -> Optional[object]:
        """The compiled plan for *circuit* (None when uncompilable).

        Any change to the circuit's parameter-object identity list or
        per-element batch shapes triggers a recompile.
        """
        objects, shapes = circuit._param_fingerprint()
        key = id(circuit)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.describes(circuit, objects, shapes):
                self.hits += 1
                _HITS.inc()
                self._entries.move_to_end(key)
                return entry.plan
            self.misses += 1
            _MISSES.inc()

        # Structural level: same topology -> reuse the index bookkeeping
        # and scatter programs, only bind this circuit's values.
        skey = structural_fingerprint(circuit)
        structure = None
        if skey is not None:
            with self._lock:
                structure = self._structures.get(skey)
                if structure is not None:
                    self._structures.move_to_end(skey)
                    self.structural_hits += 1
                    _STRUCT_HITS.inc()

        if structure is not None:
            plan = compile_circuit(circuit, structure)
        else:
            # Compile outside the lock (it can be the expensive part);
            # two threads racing the same circuit just compile twice,
            # last one wins — correctness is untouched, plans are pure.
            compile_start = time.perf_counter()
            with span("plan.compile") as sp:
                if skey is not None:
                    try:
                        structure = PlanStructure(circuit)
                    except UnsupportedCircuitError:
                        structure = None
                    plan = (
                        compile_circuit(circuit, structure)
                        if structure is not None
                        else None
                    )
                else:
                    plan = compile_circuit(circuit)
                sp.set(compiled=plan is not None)
            _COMPILE_SECONDS.observe(time.perf_counter() - compile_start)
            with self._lock:
                self.structural_compiles += 1
                _STRUCT_COMPILES.inc()
                if skey is not None and structure is not None:
                    self._structures[skey] = structure
                    self._structures.move_to_end(skey)
                    while len(self._structures) > self.maxsize:
                        self._structures.popitem(last=False)
        with self._lock:
            # The weakref callback evicts the entry (plan + pinned
            # parameter arrays) as soon as the circuit itself is
            # garbage-collected.
            entries = self._entries
            circuit_ref = weakref.ref(
                circuit, lambda _, k=key: self._evict(k)
            )
            entries[key] = _Entry(plan, objects, shapes, circuit_ref)
            entries.move_to_end(key)
            while len(entries) > self.maxsize:
                entries.popitem(last=False)
        return plan

    def _evict(self, key: int) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def stats(self) -> dict:
        """Hit/miss counters and current size (for result metadata)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self),
            "structural_hits": self.structural_hits,
            "structural_compiles": self.structural_compiles,
            "structures": len(self._structures),
        }


_PROCESS_PLAN_CACHE: Optional[PlanCache] = None
_PROCESS_LOCK = threading.Lock()


def process_plan_cache() -> PlanCache:
    """This process's plan cache, created on first use.

    Tests that need a cold cache reset ``_PROCESS_PLAN_CACHE = None``.
    """
    global _PROCESS_PLAN_CACHE
    if _PROCESS_PLAN_CACHE is None:
        with _PROCESS_LOCK:
            if _PROCESS_PLAN_CACHE is None:
                _PROCESS_PLAN_CACHE = PlanCache()
    return _PROCESS_PLAN_CACHE
