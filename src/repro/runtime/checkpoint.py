"""Checkpoint/resume of sharded-run state.

A checkpoint freezes a run between waves: the merged accumulator state,
every completed shard's payload (needed to assemble the final result),
and the plan fingerprint ``(n_samples, shard_size, base_seed)`` that
makes the remaining shards reproducible.  Resuming validates the
fingerprint — a checkpoint written under a different seed or partition
must never be silently continued — then skips the completed shards and
runs only the rest; the shard/seed contract guarantees the final merged
output is bit-identical to an uninterrupted run.

The on-disk format is a pickle (accumulator states are plain dicts but
shard payloads are engine dataclasses with numpy arrays).  Checkpoints
are internal working state: load them only from paths you wrote.

A file that cannot be read back — truncated, undecodable, or lacking
the format marker — is treated as absent: it is logged, counted in
``repro_checkpoint_corrupt_total`` and the run restarts from zero,
which reproduces the same bits because every shard stream is
deterministic.  A *readable* checkpoint written for a different run is
not corruption; the runner rejects it rather than discard it.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import default_registry, get_logger, log_event
from repro.obs.trace import span

__all__ = ["RunCheckpoint", "save_checkpoint", "load_checkpoint"]

_REGISTRY = default_registry()
_WRITES = _REGISTRY.counter(
    "repro_checkpoint_writes_total", "Checkpoint files written")
_WRITE_BYTES = _REGISTRY.counter(
    "repro_checkpoint_write_bytes_total", "Bytes written to checkpoints")
_WRITE_SECONDS = _REGISTRY.histogram(
    "repro_checkpoint_write_seconds", "Checkpoint write latency")
_LOADS = _REGISTRY.counter(
    "repro_checkpoint_loads_total", "Checkpoint files restored")
_CORRUPT = _REGISTRY.counter(
    "repro_checkpoint_corrupt_total",
    "Unreadable checkpoint files discarded (run restarted from zero)")
_LOG = get_logger("runtime.checkpoint")

#: Format marker (bump on incompatible layout changes).
_MAGIC = "repro-runtime-checkpoint-v1"


@dataclass
class RunCheckpoint:
    """Everything needed to continue a sharded run between waves."""

    n_samples: int
    shard_size: int
    base_seed: int
    #: Index of the next shard wave boundary (shards [0, shards_done) ran).
    shards_done: int
    #: Workload fingerprint (task kind + its discriminating parameters).
    #: Two runs sharing a plan but computing different things — e.g. the
    #: VS and BSIM passes of the same cell at the same seed offset —
    #: must never resume from each other's checkpoints.
    task: str = ""
    #: ``accumulator.state()`` snapshot (plain dicts of floats).
    accumulator_state: Optional[Dict] = None
    #: Completed shard payloads, in shard-index order.
    payloads: List = field(default_factory=list)
    #: Spawn prefix of the plan (nested sweep/seed contract); a run
    #: nested under a different sweep point must never adopt this state.
    spawn_prefix: Tuple[int, ...] = ()

    def matches(self, n_samples: int, shard_size: int, base_seed: int,
                task: str = "", spawn_prefix: Tuple[int, ...] = ()) -> bool:
        """Whether this checkpoint belongs to the given plan *and* task."""
        return (
            self.n_samples == n_samples
            and self.shard_size == shard_size
            and self.base_seed == base_seed
            and self.task == task
            and tuple(self.spawn_prefix) == tuple(spawn_prefix)
        )


def save_checkpoint(path: str, checkpoint: RunCheckpoint) -> None:
    """Atomically persist *checkpoint* to *path* (write + rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    start = time.perf_counter()
    with span("checkpoint.write", shards_done=checkpoint.shards_done) as sp:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(
                    {"magic": _MAGIC, "checkpoint": checkpoint}, handle
                )
            n_bytes = os.path.getsize(tmp_path)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        sp.set(bytes=n_bytes)
    _WRITES.inc()
    _WRITE_BYTES.inc(n_bytes)
    _WRITE_SECONDS.observe(time.perf_counter() - start)


def load_checkpoint(path: str) -> Optional[RunCheckpoint]:
    """Load a checkpoint, or None when *path* holds no usable one.

    A missing file and an unreadable one (truncated or undecodable
    pickle, wrong format marker) both answer None, so the run starts
    from zero; the unreadable case is logged and counted.
    """
    if not os.path.exists(path):
        return None
    with span("checkpoint.load"):
        with open(path, "rb") as handle:
            try:
                blob = pickle.load(handle)
            except Exception as exc:  # any decode failure is corruption
                return _discard_corrupt(path, type(exc).__name__)
    if (not isinstance(blob, dict) or blob.get("magic") != _MAGIC
            or not isinstance(blob.get("checkpoint"), RunCheckpoint)):
        return _discard_corrupt(path, "not a runtime checkpoint")
    _LOADS.inc()
    return blob["checkpoint"]


def _discard_corrupt(path: str, reason: str) -> None:
    """Log and count an unreadable checkpoint; the caller restarts."""
    log_event(_LOG, "checkpoint.corrupt", level=logging.WARNING,
              path=path, reason=reason)
    _CORRUPT.inc()
    return None
