"""Job registry: in-flight dedup, watcher finalization, crash recovery.

The registry is the service's brain.  It owns one shared
:class:`repro.api.Session` and maps fingerprints — the content address
of :func:`repro.api.fingerprint.fingerprint` — to :class:`Job` records.
``submit`` resolves every submission to one of three outcomes:

``hit``
    The fingerprint already has a completed envelope in the store.  No
    computation, no job thread; the stored envelope *is* the answer.
``attached``
    The fingerprint is running right now.  The submission attaches to
    the existing :class:`~repro.api.futures.RunHandle` — two clients
    POSTing the same spec cost one computation.
``started``
    A fresh job: journal the canonical spec, inject the service's
    execution policy, ``Session.submit``, and hand a watcher thread the
    job to finalize.

**Execution policy.**  The client's ``execution`` options are stripped
before fingerprinting *and* before running: scheduling is the service's
business, and the store key must name the workload alone.  Each job
runs under ``Execution(workers=<service workers>,
checkpoint=<store>/ckpt/<fp>)`` — the sharded runtime with its default
partition, whose envelopes the shard/seed contract makes bit-identical
to a local ``Session(executor=1).run(spec)`` (ROADMAP Conventions
PR 3-7).  Checkpoints land under the fingerprint, which is what makes
crash recovery content-addressed too: :meth:`JobRegistry.recover`
replays the journal of a killed daemon and every replayed job resumes
from its own wave-boundary state instead of starting over.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import time
import warnings
from typing import Any, Dict, List, Optional, Tuple

from repro.api.fingerprint import fingerprint, strip_execution
from repro.api.futures import RunCancelled
from repro.api.serialize import decode, encode
from repro.cluster.wire import validate_document
from repro.obs import default_registry, get_logger, log_event
from repro.api.specs import (
    Characterize,
    CharacterizeLibrary,
    Execution,
    FactoryMap,
    ImportanceSampling,
    MonteCarlo,
    Sweep,
    Yield,
)

__all__ = ["Job", "JobRegistry", "JobError", "UnknownJob", "RUNNABLE_SPECS"]

#: Spec types the service can run: everything ``Session.run`` executes
#: against the technology alone.  Circuit-bound analyses (DCOp,
#: Transient, AC, DCSweep) need a live ``Circuit`` object, which has no
#: wire representation — submissions carrying one are rejected with a
#: structured 400, never a traceback.
RUNNABLE_SPECS = (
    MonteCarlo,
    ImportanceSampling,
    Yield,
    FactoryMap,
    Characterize,
    CharacterizeLibrary,
    Sweep,
)


_LOG = get_logger("service.jobs")
_REGISTRY = default_registry()
_JOB_SECONDS = _REGISTRY.histogram(
    "repro_service_job_seconds",
    "Job wall time from launch to its final state")
_JOURNAL_DROPPED = _REGISTRY.counter(
    "repro_service_journal_dropped_total",
    "Journal entries dropped at recovery (unparsable, disallowed or "
    "undecodable specs)")


class JobError(RuntimeError):
    """A job-level failure surfaced to the HTTP layer (422/409 family)."""


class UnknownJob(KeyError):
    """No job or stored result under this fingerprint (HTTP 404)."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable
        return self.args[0] if self.args else "unknown job"


@dataclasses.dataclass
class Job:
    """Mutable registry record of one fingerprint's computation."""

    fingerprint: str
    #: The canonical (execution-stripped) spec — what the fingerprint
    #: names and what the stored envelope echoes.
    spec: Any
    state: str = "running"          #: running | done | failed | cancelled
    handle: Any = None              #: RunHandle while running
    cached: bool = False            #: completed straight from the store
    submissions: int = 1            #: POSTs resolved to this job (dedup)
    error: Optional[str] = None
    #: Truncated envelope captured by a successful cancel (None before
    #: the first wave boundary).
    partial_envelope: Any = None
    #: Set by an abandoning shutdown: the watcher must leave the journal
    #: and checkpoints in place so a restarted daemon resumes the job.
    keep_journal: bool = False
    #: Timeline of lifecycle events (``GET /jobs/<fp>/timeline``): dicts
    #: of ``{"t": <unix seconds>, "event": <name>, ...fields}`` in
    #: occurrence order.  Observability only — nothing reads it back.
    events: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    #: Wall-clock launch time (None for cached/adopted jobs).
    started_at: Optional[float] = None


class JobRegistry:
    """Fingerprint-keyed job table over one session and one store.

    *allow_modules* are the module roots a journaled spec may import
    types from at recovery — the daemon's submission allowlist, so a
    journal file admits nothing an HTTP submission could not.
    """

    def __init__(self, store, session,
                 allow_modules: Tuple[str, ...] = ("repro",)):
        self.store = store
        self.session = session
        self.allow_modules = tuple(allow_modules)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._watchers: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Observability plumbing.
    # ------------------------------------------------------------------
    @staticmethod
    def _event(job: Job, event: str, **fields) -> None:
        """Append a timeline entry and emit its structured log line.

        Caller holds the registry lock (the events list is shared with
        :meth:`timeline` readers).  Scheduling-side only: events observe
        job lifecycle, nothing reads them back into the computation.
        """
        entry: Dict[str, Any] = {"t": round(time.time(), 6), "event": event}
        entry.update((k, v) for k, v in fields.items() if v is not None)
        job.events.append(entry)
        log_event(_LOG, f"job.{event}", job=job.fingerprint,
                  state=job.state, **fields)

    @staticmethod
    def _count_submission(outcome: str) -> None:
        _REGISTRY.counter(
            "repro_service_submissions_total",
            "Spec submissions by outcome (hit/attached/started)",
            labels={"outcome": outcome},
        ).inc()

    @staticmethod
    def _count_final(state: str) -> None:
        _REGISTRY.counter(
            "repro_service_jobs_finished_total",
            "Jobs reaching a final state (done/failed/cancelled)",
            labels={"state": state},
        ).inc()

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def canonicalize(self, spec) -> Tuple[str, Any]:
        """``(fingerprint, canonical spec)`` of a submission.

        Validates runnability and strips execution options; the
        fingerprint folds in the service session's root seed, so two
        daemons seeded differently never share store entries.

        The canonical spec is the *wire* form: stripped, then round-
        tripped through the tagged-JSON codec.  The round trip
        normalizes scalar types (a numpy ``float64`` threshold becomes
        a plain float, exactly as it would after a journal replay), so
        a job's checkpoint fingerprints are identical whether the spec
        arrived live, over HTTP, or from crash recovery — without it, a
        daemon restart could silently lose resume-ability for specs
        built from numpy scalars.
        """
        if not isinstance(spec, RUNNABLE_SPECS):
            names = ", ".join(t.__name__ for t in RUNNABLE_SPECS)
            raise JobError(
                f"cannot serve a {type(spec).__name__} spec (serveable: "
                f"{names}; circuit-bound analyses need a live circuit "
                "object, which cannot cross the service wire)"
            )
        canonical = decode(encode(strip_execution(spec)))
        return fingerprint(canonical, seed=self.session.seed), canonical

    def submit(self, spec) -> Tuple[Job, str]:
        """Resolve a submission; returns ``(job, outcome)``.

        *outcome* is ``"hit"`` (stored result), ``"attached"``
        (deduped onto a running job) or ``"started"`` (fresh run).
        """
        fp, canonical = self.canonicalize(spec)
        with self._lock:
            job = self._jobs.get(fp)
            if job is not None and job.state == "running":
                job.submissions += 1
                self._event(job, "attached", submissions=job.submissions)
                self._count_submission("attached")
                return job, "attached"
            if self.store.has(fp):
                if job is None or job.state != "done":
                    job = Job(fingerprint=fp, spec=canonical, state="done",
                              cached=True)
                    self._jobs[fp] = job
                else:
                    job.submissions += 1
                self._event(job, "hit", submissions=job.submissions)
                self._count_submission("hit")
                return job, "hit"
            # Fresh (or re-submitted after cancel/failure — cancelled
            # jobs kept their checkpoints, so the re-run resumes).
            self.store.journal(fp, {
                "fingerprint": fp,
                "seed": self.session.seed,
                "spec": encode(canonical),
            })
            job = self._launch(fp, canonical)
            self._count_submission("started")
            return job, "started"

    def _service_execution(self, fp: str) -> Execution:
        """The one execution policy every service job runs under."""
        return Execution(
            workers=self.session.workers,
            checkpoint=self.store.checkpoint_prefix(fp),
        )

    def _launch(self, fp: str, canonical) -> Job:
        """Start the run and its watcher (caller holds the lock)."""
        exec_spec = dataclasses.replace(
            canonical, execution=self._service_execution(fp)
        )
        job = Job(fingerprint=fp, spec=canonical)
        self._event(job, "submitted", spec=type(canonical).__name__)
        job.handle = self.session.submit(exec_spec)
        job.started_at = time.time()
        self._jobs[fp] = job
        self._event(job, "started", workers=self.session.workers)
        watcher = threading.Thread(
            target=self._finalize, args=(job,),
            name=f"repro-job-{fp[:12]}", daemon=True,
        )
        self._watchers.append(watcher)
        watcher.start()
        return job

    def _observe_final(self, job: Job) -> None:
        """Final-state event + metrics (caller holds the lock)."""
        duration = None
        if job.started_at is not None:
            duration = round(time.time() - job.started_at, 6)
            _JOB_SECONDS.observe(duration)
        self._count_final(job.state)
        self._event(job, job.state, duration_s=duration, error=job.error)

    def _finalize(self, job: Job) -> None:
        """Watcher body: wait for the handle and file the outcome."""
        try:
            envelope = job.handle.result()
        except RunCancelled as exc:
            with self._lock:
                job.state = "cancelled"
                job.partial_envelope = exc.partial
                job.error = str(exc)
                keep = job.keep_journal
                self._observe_final(job)
            if not keep:
                # A user cancel is a decision, not a crash: drop the
                # journal so a restart does not resurrect the job, but
                # keep the checkpoints — a future identical submission
                # resumes from the boundary the cancel truncated at.
                self.store.clear_journal(job.fingerprint)
        except BaseException as exc:
            with self._lock:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                keep = job.keep_journal
                self._observe_final(job)
            if not keep:
                # Deterministic workload, deterministic failure: leaving
                # the journal would make every restart re-fail the job.
                self.store.clear_journal(job.fingerprint)
        else:
            try:
                # Store the envelope under the *canonical* spec: the
                # stored document must not leak the service's scheduling
                # choices (worker count, checkpoint paths), and must
                # compare equal to a local run of the same canonical spec.
                stored = dataclasses.replace(envelope, spec=job.spec)
                self.store.put(job.fingerprint, stored)
            except BaseException as exc:
                # Storing can fail after a successful run (disk full,
                # encode bug).  File the job as failed — a job must never
                # sit in "running" with a dead watcher — and leave the
                # journal in place: the work is checkpointed, so a
                # restarted daemon replays it nearly for free and retries
                # the store.
                with self._lock:
                    job.state = "failed"
                    job.error = (
                        f"storing result failed: {type(exc).__name__}: {exc}"
                    )
                    self._observe_final(job)
            else:
                with self._lock:
                    job.state = "done"
                    self._observe_final(job)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def get(self, fp: str) -> Job:
        with self._lock:
            job = self._jobs.get(fp)
        if job is None:
            if self.store.has(fp):
                # A previous daemon's result: adopt it as a cached job.
                with self._lock:
                    job = self._jobs.setdefault(
                        fp, Job(fingerprint=fp, spec=None, state="done",
                                cached=True, submissions=0),
                    )
                return job
            raise UnknownJob(f"no job or stored result under {fp}")
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def status(self, fp: str) -> Dict[str, Any]:
        """Poll-friendly job summary (plain JSON types)."""
        job = self.get(fp)
        if job.handle is not None:
            snap = job.handle.snapshot()
            progress = {
                "completed": snap.progress.completed,
                "total": snap.progress.total,
                "unit": snap.progress.unit,
                "done": snap.progress.done,
                "fraction": snap.progress.fraction,
            }
        else:
            done = job.state == "done"
            progress = {"completed": 1 if done else 0, "total": 1,
                        "unit": "runs", "done": done, "fraction": 1.0 if done else 0.0}
        return {
            "job": job.fingerprint,
            "state": job.state,
            "cached": job.cached,
            "submissions": job.submissions,
            "progress": progress,
            "error": job.error,
            "result_ready": self.store.has(fp),
        }

    def partial(self, fp: str) -> Dict[str, Any]:
        """Accumulator snapshot (and, after a cancel, the truncated envelope).

        Values are live python objects; the HTTP layer encodes them
        through the tagged codec so clients can ``decode`` them back.
        """
        job = self.get(fp)
        out: Dict[str, Any] = {"job": fp, "state": job.state}
        if job.handle is not None:
            snap = job.handle.snapshot()
            out["progress"] = {
                "completed": snap.progress.completed,
                "total": snap.progress.total,
                "unit": snap.progress.unit,
                "done": snap.progress.done,
            }
            out["partial"] = snap.partial
        else:
            out["progress"] = None
            out["partial"] = None
        if job.partial_envelope is not None:
            out["envelope"] = job.partial_envelope
        return out

    def timeline(self, fp: str) -> Dict[str, Any]:
        """Lifecycle event list of one job (``GET /jobs/<fp>/timeline``).

        Plain JSON types; events are in occurrence order.  A job adopted
        straight from the store (computed by a previous daemon) has an
        empty timeline — its history died with that process.
        """
        job = self.get(fp)
        with self._lock:
            events = [dict(entry) for entry in job.events]
            out: Dict[str, Any] = {
                "job": fp,
                "state": job.state,
                "cached": job.cached,
                "submissions": job.submissions,
                "events": events,
            }
        if events:
            out["duration_s"] = round(events[-1]["t"] - events[0]["t"], 6)
        return out

    def result_text(self, fp: str) -> str:
        """The completed envelope's stored JSON text.

        Raises :class:`JobError` while the job is still running, failed,
        or was cancelled, and :class:`UnknownJob` for unknown ids.
        """
        text = self.store.get_text(fp)
        if text is not None:
            return text
        job = self.get(fp)
        if job.state == "running":
            raise JobError(f"job {fp} is still running")
        raise JobError(f"job {fp} {job.state}: {job.error}")

    # ------------------------------------------------------------------
    # Cancellation / recovery / shutdown.
    # ------------------------------------------------------------------
    def cancel(self, fp: str) -> bool:
        """Request a wave-boundary cancel; False if already finished."""
        job = self.get(fp)
        if job.handle is None:
            return False
        cancelled = job.handle.cancel()
        if cancelled:
            with self._lock:
                self._event(job, "cancel_requested")
        return cancelled

    def recover(self) -> List[str]:
        """Replay the pending-job journal of a killed daemon.

        Each journaled canonical spec is re-submitted; the co-located
        checkpoints make every replayed run resume from its last wave
        boundary (``RuntimeInfo.resumed_shards`` records how much was
        skipped).  Returns the resumed fingerprints.
        """
        resumed = []
        for fp, document in self.store.pending().items():
            if self.store.has(fp):
                self.store.clear_journal(fp)
                continue
            if not isinstance(document, dict) or "spec" not in document:
                self._drop_journal(fp, "journal entry is not a JSON object "
                                       "with a spec")
                continue
            seed = document.get("seed")
            if seed is not None and seed != self.session.seed:
                # Journaled by a daemon rooted at a different seed: its
                # store key and checkpoints belong to that seed, not
                # ours.  Replaying would silently rerun the work under a
                # new fingerprint (orphaning the old checkpoints) while
                # this entry lingered to be replayed on every restart.
                warnings.warn(
                    f"dropping journaled job {fp[:12]}: it was submitted "
                    f"under seed {seed}, this daemon runs seed "
                    f"{self.session.seed}",
                    RuntimeWarning, stacklevel=2,
                )
                self.store.clear_journal(fp)
                continue
            try:
                validate_document(document["spec"], self.allow_modules)
                spec = decode(document["spec"])
                if not isinstance(spec, RUNNABLE_SPECS):
                    raise JobError(
                        f"{type(spec).__name__} is not a serveable spec")
            except Exception as exc:
                # Journals are files: stale across versions (a spec
                # field since removed), damaged, or planted.  None of
                # that may stop the daemon from starting.
                self._drop_journal(fp, f"{type(exc).__name__}: {exc}")
                continue
            job, outcome = self.submit(spec)
            if job.fingerprint != fp:
                # Defensive: the fingerprint algorithm moved between
                # daemon versions.  submit() journaled under the new
                # key; clear the stale entry so it is not replayed again
                # on every subsequent restart.
                self.store.clear_journal(fp)
            if outcome == "started":
                with self._lock:
                    self._event(job, "recovered", journal=fp)
                resumed.append(fp)
        return resumed

    def _drop_journal(self, fp: str, reason: str) -> None:
        """Discard one unreplayable journal entry (logged and counted)."""
        log_event(_LOG, "journal.dropped", level=logging.WARNING,
                  journal=fp, reason=reason)
        _JOURNAL_DROPPED.inc()
        self.store.clear_journal(fp)

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every running job finalizes (test/shutdown aid)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for watcher in list(self._watchers):
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            watcher.join(remaining)

    def shutdown(self, abandon_running: bool = False,
                 timeout: Optional[float] = 30.0) -> None:
        """Stop the registry.

        ``abandon_running=False`` waits for running jobs to finalize
        normally.  ``abandon_running=True`` is the fast path (SIGTERM):
        running jobs are cancelled at their next wave boundary but their
        journal entries and checkpoints are *left in place* — exactly
        the on-disk state a SIGKILL would leave — so the next daemon's
        :meth:`recover` resumes them.
        """
        if abandon_running:
            with self._lock:
                running = [j for j in self._jobs.values()
                           if j.state == "running" and j.handle is not None]
                for job in running:
                    job.keep_journal = True
            for job in running:
                job.handle.cancel()
        self.wait_all(timeout)
        self.session.close()
