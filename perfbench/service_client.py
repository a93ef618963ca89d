"""The ``service_mix`` workload: a closed-loop client of a real daemon.

Run by ``run.py``::

    python3 perfbench/service_client.py --seed 1 --seconds 30 --trace 0 \
        --workdir .perfbench/work/<id>

Starts ``repro serve --cluster`` and one ``repro worker`` (through
``launch.py``) over loopback, sets the stack up :data:`SETUPS` times
(each a fresh daemon, worker and store, warmed with one job per class),
then drives the last stack with one client that waits for every reply
before sending the next request.  The seeded job sequence mixes

* ``light`` — device-level ``MonteCarlo`` of 4000 samples;
* ``heavy`` — ``Yield`` of the 6T SRAM read SNM, one CE round;
* ``hit``   — resubmission of a completed light spec.

Latency is submit -> result received, polling job status every
:data:`POLL_S`.  Correctness: each hit's document must be byte-equal to
its miss's, every miss must be finite, and after timing the first miss
of each computing class is re-run locally with ``Session(executor=1)``
and compared through ``scrub_envelope`` (execution metadata zeroed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from common import (
    BENCH_DIR, RESULT, SETUPS, child_env, emit,
)

POLL_S = 0.01
LIGHT_SAMPLES = 4000
#: Shuffled block of job classes.  A 30 s window holds about five
#: blocks: more than 100 light and hit jobs, about ten heavy ones.
BLOCK = ("light",) * 26 + ("hit",) * 28 + ("heavy",) * 2
#: Timed jobs draw offsets above this; warm-up jobs use offsets below.
OFFSET_BASE = 1000
STACK_TIMEOUT_S = 60.0


def light_spec(offset):
    from repro.api import MonteCarlo

    return MonteCarlo(n_samples=LIGHT_SAMPLES, seed_offset=offset)


def heavy_spec(offset):
    from repro.api import Yield
    from repro.cells.sram import SRAMSpec
    from repro.data.cards import VDD_NOMINAL
    from repro.experiments.yield_rare_event import SRAMCriticalSNM

    cell = SRAMSpec()
    return Yield(
        metric=SRAMCriticalSNM(cell, VDD_NOMINAL, "read"),
        threshold=0.09, shifts={"vt0": 2.0},
        n_samples=256, n_rounds=1, n_per_round=256, block_size=256,
        w_nm=cell.wn_pd_nm, l_nm=cell.l_nm, fail_below=True,
        seed_offset=offset,
    )


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Stack:
    """One daemon + one worker, each under ``launch.py``."""

    def __init__(self, workdir: Path, trace: int):
        self.workdir = workdir
        workdir.mkdir(parents=True)
        env = child_env()
        env["PYTHONUNBUFFERED"] = "1"
        cluster = f"127.0.0.1:{free_port()}"
        self.daemon_stats = workdir / "daemon.json"
        self.worker_stats = workdir / "worker.json"
        launcher = [sys.executable, str(BENCH_DIR / "launch.py")]
        self._logs = [open(workdir / "daemon.log", "w"),
                      open(workdir / "worker.log", "w")]
        self.daemon = subprocess.Popen(
            launcher + ["--stats", str(self.daemon_stats),
                        "--trace", str(trace), "--",
                        "serve", "--host", "127.0.0.1", "--port", "0",
                        "--store", str(workdir / "store"),
                        "--cluster", cluster, "--log-level", "warning"],
            stdout=subprocess.PIPE, stderr=self._logs[0], env=env, text=True,
        )
        self.worker = None
        self.url = self._read_banner()
        self.worker = subprocess.Popen(
            launcher + ["--stats", str(self.worker_stats),
                        "--trace", str(trace), "--",
                        "worker", "--connect", cluster],
            stdout=subprocess.DEVNULL, stderr=self._logs[1], env=env,
        )

    def _read_banner(self) -> str:
        selector = selectors.DefaultSelector()
        selector.register(self.daemon.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(STACK_TIMEOUT_S):
                raise RuntimeError("daemon printed no banner")
            line = self.daemon.stdout.readline().strip()
        finally:
            selector.close()
        if "http://" not in line:
            raise RuntimeError(f"unexpected daemon banner {line!r}")
        return line[line.index("http://"):]

    def request(self, method, path, body=None):
        """``(status, text)`` of one request.

        Same transport as ``repro.service.ServiceClient`` (``urllib``, a
        connection per request), keeping the raw text of the reply.
        """
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=STACK_TIMEOUT_S) as reply:
                return reply.status, reply.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode()

    def metrics(self) -> dict:
        """The daemon's ``GET /metrics`` snapshot."""
        status, text = self.request("GET", "/metrics")
        return json.loads(text)["metrics"]

    def mark(self) -> None:
        """Open the traced window in both processes and wait for it."""
        for proc in (self.daemon, self.worker):
            proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + STACK_TIMEOUT_S
        for stats in (self.daemon_stats, self.worker_stats):
            flag = Path(str(stats) + ".on")
            while not flag.exists():
                if time.monotonic() > deadline:
                    raise RuntimeError("launcher did not open the window")
                time.sleep(0.005)

    def stop(self, collect=True) -> dict:
        """End both processes; with *collect*, their launcher stats first.

        ``SIGTERM`` ends the daemon at once.  Its ``SIGINT`` shutdown
        waits up to 5 s on the coordinator's accept thread, which no
        metric of this benchmark covers.
        """
        procs = [p for p in (self.worker, self.daemon) if p is not None]
        stats = {}
        if collect:
            for proc in procs:
                proc.send_signal(signal.SIGUSR2)
            deadline = time.monotonic() + STACK_TIMEOUT_S
            for name, path in (("daemon", self.daemon_stats),
                               ("worker", self.worker_stats)):
                while not path.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                if path.exists():
                    stats[name] = json.loads(path.read_text())
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self.daemon.stdout is not None:
            self.daemon.stdout.close()
        for log in self._logs:
            log.close()
        return stats


class Client:
    """Closed-loop job client over one :class:`Stack`."""

    def __init__(self, stack: Stack):
        self.stack = stack
        self.polls = 0

    def submit(self, spec_document):
        status, text = self.stack.request(
            "POST", "/jobs", {"spec": spec_document})
        if status not in (200, 202):
            raise RuntimeError(f"submit refused: {status} {text[:200]}")
        reply = json.loads(text)
        return reply["job"], reply["outcome"]

    def run(self, spec_document):
        """``(latency_s, fingerprint, outcome, state, result_text)``."""
        start = time.perf_counter()
        fp, outcome = self.submit(spec_document)
        state = "done"
        if outcome != "hit":
            while True:
                time.sleep(POLL_S)
                status, text = self.stack.request("GET", f"/jobs/{fp}")
                self.polls += 1
                state = json.loads(text)["state"]
                if state != "running":
                    break
        text = None
        if state == "done":
            status, text = self.stack.request("GET", f"/jobs/{fp}/result")
            if status != 200:
                state, text = f"http-{status}", None
        return time.perf_counter() - start, fp, outcome, state, text


def finite_light(text: str) -> bool:
    return "NaN" not in text and "Infinity" not in text


def heavy_samples(text: str):
    """``(finite, simulated samples)`` of a Yield envelope."""
    from repro.api.serialize import loads

    estimate = loads(text).payload
    return math.isfinite(estimate.probability), estimate.total_samples


def setup_stack(workdir: Path, trace: int):
    """Start a stack and run one job per class.

    Returns ``(stack, seconds, light)`` with *light* the warm-up light
    job's ``(document, fingerprint, result text)``.
    """
    from repro.api.serialize import encode

    start = time.perf_counter()
    stack = Stack(workdir, trace)
    client = Client(stack)
    light = encode(light_spec(1))
    for document in (light, encode(heavy_spec(2)), light):
        _, fp, _, state, text = client.run(document)
        if state != "done":
            stack.stop(collect=False)
            raise RuntimeError(f"warm-up job ended {state}")
    return stack, time.perf_counter() - start, (light, fp, text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def drive(seconds, client, rng, jobs, misses, hit_pool, first_miss):
    """Run the seeded job mix for *seconds*; returns the elapsed time."""
    from repro.api.serialize import encode

    block = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if not block:
            block = list(BLOCK)
            rng.shuffle(block)
        kind = block.pop()
        if kind == "hit":
            fp = rng.choice(hit_pool)
            document = misses[fp]["document"]
        else:
            spec = (light_spec if kind == "light" else heavy_spec)(
                OFFSET_BASE + rng.randrange(10 ** 9))
            document = encode(spec)
        latency, fp, outcome, state, text = client.run(document)
        job = {"kind": kind, "latency_s": latency, "ok": state == "done",
               "samples": 0}
        if kind == "hit":
            job["ok"] = job["ok"] and outcome == "hit"
            job["identical"] = (job["ok"]
                                and digest(text) == misses[fp]["digest"])
        elif job["ok"]:
            if kind == "light":
                finite, job["samples"] = finite_light(text), LIGHT_SAMPLES
                hit_pool.append(fp)
            else:
                finite, job["samples"] = heavy_samples(text)
            job["ok"] = outcome == "started" and finite
            misses[fp] = {"document": document, "digest": digest(text)}
            first_miss.setdefault(kind, (document, text))
        jobs.append(job)
    return time.perf_counter() - start


def local_matches(document, text) -> bool:
    """The store-key contract: a service envelope equals a local run."""
    from repro.api import Session
    from repro.api.serialize import decode, dumps, loads
    from repro.service import scrub_envelope

    session = Session(executor=1)
    try:
        local = session.run(decode(document))
    finally:
        session.close()
    return (dumps(scrub_envelope(local))
            == dumps(scrub_envelope(loads(text))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)

    setup_s = []
    for index in range(SETUPS - 1):
        stack, seconds, _ = setup_stack(workdir / f"setup{index}", 0)
        stack.stop(collect=False)
        setup_s.append(seconds)
    stack, seconds, (warm, warm_fp, warm_text) = setup_stack(
        workdir / "run", args.trace)
    setup_s.append(seconds)

    rng = random.Random(args.seed)
    client = Client(stack)
    jobs, first_miss = [], {}
    # Hits draw from completed light misses; the warm-up light job
    # seeds the pool so the first hit has a target.
    misses = {warm_fp: {"document": warm, "digest": digest(warm_text)}}
    hit_pool = [warm_fp]
    mix = (client, rng, jobs, misses, hit_pool, first_miss)
    try:
        if args.trace:
            drive(args.seconds / 2, *mix)
            phase_a = list(jobs)
            metrics_start = stack.metrics()
            polls_start = client.polls
            stack.mark()
            window = drive(args.seconds / 2, *mix)
            metrics_end = stack.metrics()
        else:
            drive(args.seconds, *mix)
    finally:
        stats = stack.stop()
    if len(stats) != 2:
        raise RuntimeError("daemon or worker left no launcher stats")

    document = {
        "setup_s": setup_s,
        "check_ok": len(first_miss) == 2 and all(
            local_matches(*miss) for miss in first_miss.values()),
        "jobs": jobs,
        "status_polls": client.polls,
        "peak_rss_mb": sum(s["peak_rss_mb"] for s in stats.values()),
    }
    if args.trace:
        import layers

        document["layers"] = layers.service_layers(
            stats, metrics_start, metrics_end, phase_a,
            jobs[len(phase_a):], window, client.polls - polls_start)
    shutil.rmtree(workdir, ignore_errors=True)
    emit(RESULT, document)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
