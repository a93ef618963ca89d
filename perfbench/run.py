"""The repository benchmark: one command, three workloads.

Measure (from the repository root)::

    python3 perfbench/run.py --workload dc_snm --seed 1 --seconds 30 --trace 0

prints every metric by name with its unit, checks the program's outputs,
writes a result record (with machine context) under ``--out`` and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run reporting the ``per_layer``
metrics.

Compare two sets of result records (e.g. parent and change)::

    python3 perfbench/run.py compare DIR_A DIR_B

Regenerate ``reference.json`` after an intended numeric change::

    python3 perfbench/run.py write-reference

See ``perfbench/README.md`` for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR, DEFAULT_SEED, READY, REFERENCE_FILE, RESULT, ROOT, SETUPS,
    WORKLOADS, child_env, median, program_present,
)

#: Hard limit on one run, below the 180 s every run must end within.
RUN_DEADLINE_S = 170.0
INPROC = ("dc_snm", "tran_dff")
CLASSES = ("light", "heavy", "hit")


class ChildError(RuntimeError):
    pass


class Child:
    """A benchmark subprocess in its own process group.

    Everything it starts (the service stack) shares the group, so
    :meth:`close` can stop all of it at once.
    """

    def __init__(self, argv, deadline):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable] + argv, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=str(ROOT), start_new_session=True,
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)

    def expect(self, prefix):
        """The JSON document of the next stdout line with *prefix*."""
        while True:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0 or not self._selector.select(remaining):
                raise ChildError(f"timed out waiting for {prefix.strip()}")
            line = self.proc.stdout.readline()
            if not line:
                self.proc.wait()
                raise ChildError(
                    f"{Path(self.proc.args[1]).name} exited with "
                    f"{self.proc.returncode} before {prefix.strip()}")
            if line.startswith(prefix):
                return json.loads(line[len(prefix):])

    def close(self) -> None:
        """Wait for a clean exit; kill the whole group otherwise."""
        try:
            self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._selector.close()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise ChildError(f"{Path(self.proc.args[1]).name} exited with "
                             f"{self.proc.returncode}")


def run_child(argv, deadline, setup_only=False):
    """``(seconds to READY, READY doc, RESULT doc or None)``."""
    start = time.perf_counter()
    child = Child(argv, deadline)
    try:
        ready = child.expect(READY)
        setup = time.perf_counter() - start
        result = None if setup_only else child.expect(RESULT)
    finally:
        child.close()
    return setup, ready, result


def measure_inproc(args, deadline):
    base = [str(BENCH_DIR / "inproc.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    setups, checks = [], []
    for _ in range(SETUPS - 1):
        seconds, ready, _ = run_child(base + ["--setup-only"], deadline,
                                      setup_only=True)
        setups.append(seconds)
        checks.append(ready["check_ok"])
    seconds, ready, result = run_child(base, deadline)
    setups.append(seconds)
    lat = result["latencies"]
    return {
        "setup_s": setups,
        "correct": all(checks) and result["check_ok"],
        "attempted": result["samples"],
        "failed": result["nonfinite"],
        "samples_per_s": result["samples"] / sum(lat),
        "peak_rss_mb": result["peak_rss_mb"],
        "detail": {"calls": len(lat), "call_latency_s": lat,
                   "samples_per_call": result["samples_per_call"]},
        "layers": result.get("layers"),
    }


def measure_service(args, deadline):
    workdir = ROOT / ".perfbench" / "work" / f"{os.getpid()}"
    argv = [str(BENCH_DIR / "service_client.py"), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)]
    child = Child(argv, deadline)
    try:
        result = child.expect(RESULT)
    finally:
        child.close()
    jobs = result["jobs"]
    detail = {"status_polls": result["status_polls"]}
    for kind in CLASSES:
        lat = [j["latency_s"] for j in jobs if j["kind"] == kind]
        detail[f"{kind}_n"] = len(lat)
        detail[f"{kind}_p50_s"] = median(lat)
        if kind != "heavy":
            detail[f"{kind}_p90_s"] = statistics.quantiles(
                lat, n=10, method="inclusive")[8]
    return {
        "setup_s": result["setup_s"],
        "correct": result["check_ok"] and all(
            j["identical"] for j in jobs if j["kind"] == "hit"),
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if not j["ok"]),
        "samples_per_s": mix_throughput(jobs),
        "peak_rss_mb": result["peak_rss_mb"],
        "detail": detail,
        "layers": result.get("layers"),
    }


def mix_throughput(jobs) -> float:
    """Samples per second of the nominal job mix, from class medians.

    Where the window happens to end shifts the realized class counts by
    a heavy job or so (~8 % of the window), so the counts come from the
    mix's block instead: each class contributes its block share of jobs
    at its median latency and median samples per job.
    """
    from service_client import BLOCK

    samples = time_s = 0.0
    for kind in CLASSES:
        mine = [j for j in jobs if j["kind"] == kind]
        share = BLOCK.count(kind)
        samples += share * median([j["samples"] for j in mine])
        time_s += share * median([j["latency_s"] for j in mine])
    return samples / time_s


def machine_context() -> dict:
    """Where the numbers were measured (stamped into every record)."""
    import numpy

    sha = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    build = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git_sha": sha,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: build.get("blas", {}).get(k)
                 for k in ("name", "version", "openblas configuration")},
        "lapack": {k: build.get("lapack", {}).get(k)
                   for k in ("name", "version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def measure(args) -> int:
    bench = load_benchmark()
    deadline = time.monotonic() + RUN_DEADLINE_S
    measured = (measure_inproc if args.workload in INPROC
                else measure_service)(args, deadline)

    if args.trace:
        layers = measured["layers"] or {}
        specs = bench["per_layer"]
        metrics = {m["name"]: float(layers.get(m["name"], 0.0))
                   for m in specs}
    else:
        specs = bench["end_to_end"]
        metrics = {
            "setup_s": statistics.median(measured["setup_s"]),
            "samples_per_s": measured["samples_per_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    units = {m["name"]: m["unit"] for m in specs}
    document = {
        "correct": bool(measured["correct"]),
        "attempted": int(measured["attempted"]),
        "failed": int(measured["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    context = machine_context()

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("machine " + json.dumps(context, sort_keys=True))
    for name, entry in document["metrics"].items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        for name, value in measured["detail"].items():
            if not isinstance(value, list):
                print(f"  {name:34s} {value:>16.6g}")
    failed_frac = document["failed"] / max(document["attempted"], 1)
    print(f"  {'failed_frac':34s} {failed_frac:>16.6g} "
          f"({document['failed']}/{document['attempted']})")
    print(f"  correct {document['correct']}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "time": time.time(), "machine": context,
        "setup_s_runs": measured["setup_s"],
        "failed_frac": failed_frac,
        "detail": measured["detail"],
        **document,
    }
    name = f"{args.workload}-t{args.trace}-s{args.seed}-{time.time_ns()}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(document))
    return 0


# ----------------------------------------------------------------------
# Reference outputs.
# ----------------------------------------------------------------------
def write_reference() -> int:
    """Record the in-process workloads' outputs at the default seed."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    reference = {}
    for workload in INPROC:
        argv = [str(BENCH_DIR / "inproc.py"), "--workload", workload,
                "--seed", str(DEFAULT_SEED), "--seconds", "0",
                "--write-reference"]
        _, _, reference[workload] = run_child(argv, deadline)
    REFERENCE_FILE.write_text(json.dumps(reference) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


# ----------------------------------------------------------------------
# Compare mode.
# ----------------------------------------------------------------------
def load_records(directory, trace=0) -> dict:
    """``workload -> metric -> [values]`` of a directory's records."""
    series = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") != trace:
            continue
        values = series.setdefault(record["workload"], {})
        for name, entry in record["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        values.setdefault("failed_frac", []).append(record["failed_frac"])
        for name, value in record.get("detail", {}).items():
            if name.endswith("_s") and not isinstance(value, list):
                values.setdefault(name, []).append(value)
    return series


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, lower_is_better) -> str:
    """better/worse/same/unresolved of side *b* against side *a*.

    *same*: the medians differ by less than the bound.  Where either
    side's quartile spread exceeds the bound the pair is unresolved,
    unless every run of one side beats every run of the other.
    """
    sign = -1.0 if lower_is_better else 1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    if a_med == 0:
        return "same" if b_med == 0 else "unresolved"
    change = sign * (b_med - a_med) / abs(a_med)
    spread_a = (a_q3 - a_q1) / abs(a_med)
    spread_b = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    if all(sign * (y - x) > 0 for x in a for y in b):
        return "better"
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "worse"
    if bound is None or max(spread_a, spread_b) > bound:
        return "unresolved"
    if change < -bound:
        return "worse"
    if change > max(bound, spread_a):
        return "better"
    return "same"


def compare(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", help="directory of result records (baseline)")
    parser.add_argument("b", help="directory of result records (change)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    side_a, side_b = load_records(args.a, args.trace), \
        load_records(args.b, args.trace)
    header = (f"{'workload':12s} {'metric':24s} {'n':>5s} "
              f"{'A q1/med/q3':>32s} {'B q1/med/q3':>32s} "
              f"{'spreadA':>8s} {'spreadB':>8s} {'bound':>6s}  verdict")
    print(header)
    for workload in sorted(set(side_a) | set(side_b)):
        names = sorted(set(side_a.get(workload, {}))
                       | set(side_b.get(workload, {})))
        for name in names:
            a = side_a.get(workload, {}).get(name)
            b = side_b.get(workload, {}).get(name)
            if not a or not b:
                continue
            spec = specs.get(name, {})
            bound = spec.get("bound")
            lower = spec.get("better", "lower") == "lower"
            qa, qb = quartiles(a), quartiles(b)
            spread = [(q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                      for q in (qa, qb)]
            print(f"{workload:12s} {name:24s} {len(a):>2d}/{len(b):<2d} "
                  f"{'/'.join(f'{x:.4g}' for x in qa):>32s} "
                  f"{'/'.join(f'{x:.4g}' for x in qb):>32s} "
                  f"{spread[0]:8.4f} {spread[1]:8.4f} "
                  f"{'-' if bound is None else f'{bound:.3f}':>6s}  "
                  f"{verdict(a, b, bound, lower)}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if not program_present():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if argv[:1] == ["write-reference"]:
        return write_reference()
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench" / "results"),
                        help="directory for the result record")
    args = parser.parse_args(argv)
    try:
        return measure(args)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
