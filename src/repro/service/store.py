"""Content-addressed on-disk result store.

One directory, three sub-trees, all keyed by the spec fingerprint
(:func:`repro.api.fingerprint.fingerprint` — execution-stripped,
seed-inclusive):

====================  ==================================================
``results/<fp>.json``  completed envelope (tagged JSON via
                       :mod:`repro.api.serialize` — round-trips into a
                       live ``Result``/``SweepResult``)
``jobs/<fp>.json``     pending-job journal entry: the canonical spec
                       document of a submitted-but-unfinished job.  Its
                       existence is what lets a restarted daemon know
                       which jobs died with the process.
``ckpt/<fp>.*``        runtime checkpoints.  The store hands the runner
                       ``ckpt/<fp>`` as its ``Execution.checkpoint``
                       *prefix*; the runner derives one
                       ``<prefix>.<hash>.ckpt`` per stage under it, so a
                       resumed job finds exactly its own wave-boundary
                       state.
====================  ==================================================

Writes are atomic (temp file + ``os.replace``), so a reader — or a
daemon killed mid-write — never observes a torn document.  Storing a
result clears the job's journal entry and checkpoints in the same call:
the three trees never disagree about whether a fingerprint is done.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.api.result import Result, SweepResult
from repro.api.serialize import dumps, loads

__all__ = ["ResultStore", "scrub_envelope"]


def scrub_envelope(envelope):
    """*envelope* with scheduling-dependent fields zeroed, for comparison.

    The store-key contract promises that a service envelope is
    bit-identical to a local run **up to scheduling metadata**: wall
    time varies per run, and ``runtime`` records how the run was
    scheduled (worker count, checkpoint resume) — legitimately different
    between a 1-worker local session and a resumed 8-worker service job
    that computed the very same numbers.  This helper zeroes exactly
    those fields (recursively through sweep points) so two envelopes can
    be compared with plain ``==`` on their serialized text.
    """
    if isinstance(envelope, SweepResult):
        return dataclasses.replace(
            envelope,
            points=tuple(scrub_envelope(p) for p in envelope.points),
            wall_time_s=0.0,
            runtime=None,
        )
    if isinstance(envelope, Result):
        return dataclasses.replace(envelope, wall_time_s=0.0, runtime=None)
    return envelope


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ResultStore:
    """The content-addressed result/journal/checkpoint directory."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self._results = os.path.join(self.root, "results")
        self._jobs = os.path.join(self.root, "jobs")
        self._ckpt = os.path.join(self.root, "ckpt")
        for directory in (self._results, self._jobs, self._ckpt):
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    # Completed envelopes.
    # ------------------------------------------------------------------
    def result_path(self, fingerprint: str) -> str:
        return os.path.join(self._results, f"{fingerprint}.json")

    def has(self, fingerprint: str) -> bool:
        return os.path.exists(self.result_path(fingerprint))

    def get_text(self, fingerprint: str) -> Optional[str]:
        """The stored envelope's raw JSON text (``None`` if absent).

        The text is what the service's result endpoint streams verbatim
        — byte-equal for every fetch of the same fingerprint.
        """
        path = self.result_path(fingerprint)
        if not os.path.exists(path):
            return None
        with open(path) as handle:
            return handle.read()

    def get(self, fingerprint: str):
        """The stored envelope as a live ``Result``/``SweepResult``."""
        text = self.get_text(fingerprint)
        return None if text is None else loads(text)

    def put(self, fingerprint: str, envelope) -> str:
        """File a completed envelope and retire the job's working state.

        The journal entry and checkpoints exist to finish this exact
        computation; once the result is durable they are deleted in the
        same call, keeping the three trees consistent.
        """
        path = self.result_path(fingerprint)
        _atomic_write(path, dumps(envelope, indent=None))
        self.clear_journal(fingerprint)
        self.clear_checkpoints(fingerprint)
        return path

    # ------------------------------------------------------------------
    # Pending-job journal.
    # ------------------------------------------------------------------
    def journal_path(self, fingerprint: str) -> str:
        return os.path.join(self._jobs, f"{fingerprint}.json")

    def journal(self, fingerprint: str, document: Dict[str, Any]) -> None:
        """Record a submitted-but-unfinished job (its canonical spec doc)."""
        _atomic_write(
            self.journal_path(fingerprint),
            json.dumps(document, sort_keys=True),
        )

    def clear_journal(self, fingerprint: str) -> None:
        try:
            os.unlink(self.journal_path(fingerprint))
        except FileNotFoundError:
            pass

    def pending(self) -> Dict[str, Any]:
        """``{fingerprint: journal document}`` of jobs that never finished.

        What :meth:`repro.service.jobs.JobRegistry.recover` replays on
        daemon start; the co-located checkpoints make the replay resume
        from wave boundaries instead of starting over.  An entry that is
        not valid JSON (a truncated write, a damaged disk) maps to None
        so recovery can drop it instead of failing the whole replay.
        """
        out: Dict[str, Any] = {}
        for path in sorted(glob.glob(os.path.join(self._jobs, "*.json"))):
            fingerprint = os.path.splitext(os.path.basename(path))[0]
            try:
                with open(path) as handle:
                    out[fingerprint] = json.load(handle)
            except (OSError, ValueError):
                out[fingerprint] = None
        return out

    # ------------------------------------------------------------------
    # Co-located runtime checkpoints.
    # ------------------------------------------------------------------
    def checkpoint_prefix(self, fingerprint: str) -> str:
        """The ``Execution.checkpoint`` prefix for this fingerprint's job."""
        return os.path.join(self._ckpt, fingerprint)

    def checkpoints(self, fingerprint: str) -> List[str]:
        return sorted(glob.glob(self.checkpoint_prefix(fingerprint) + ".*.ckpt"))

    def clear_checkpoints(self, fingerprint: str) -> None:
        for path in self.checkpoints(fingerprint):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def fingerprints(self) -> List[str]:
        """Fingerprints with a completed envelope on disk."""
        return sorted(
            os.path.splitext(os.path.basename(p))[0]
            for p in glob.glob(os.path.join(self._results, "*.json"))
        )

    def stats(self) -> Dict[str, int]:
        return {
            "results": len(self.fingerprints()),
            "pending": len(glob.glob(os.path.join(self._jobs, "*.json"))),
            "checkpoints": len(glob.glob(os.path.join(self._ckpt, "*.ckpt"))),
        }
