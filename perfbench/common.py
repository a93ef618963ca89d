"""Shared constants and helpers of the benchmark's processes.

Every process of a run (the orchestrator ``run.py``, the in-process
workload child, the service client and the daemon/worker launchers)
imports this module; it imports nothing from the program under test.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"

WORKLOADS = ("dc_snm", "tran_dff", "service_mix")

#: The seed whose first timed call is compared against ``reference.json``.
DEFAULT_SEED = 1
#: Same relative tolerance as the golden-figure tests.
RTOL = 1e-6

#: Setups per run; ``setup_s`` is their median.
SETUPS = 2

#: Stdout line prefixes of the child -> orchestrator protocol.
READY = "@@READY "
RESULT = "@@RESULT "


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for benchmark subprocesses: the program on the path."""
    env = dict(os.environ)
    parts = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def emit(prefix: str, document) -> None:
    sys.stdout.write(prefix + json.dumps(document) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def matches_reference(values, reference, rtol: float = RTOL) -> bool:
    """Per-sample equality within *rtol*, NaN (``None``) positions equal.

    Both sides are :func:`as_floats` lists.
    """
    if len(values) != len(reference):
        return False
    for got, want in zip(values, reference):
        if got is None or want is None:
            if got is not want:
                return False
        elif abs(got - want) > rtol * abs(want):
            return False
    return True


def load_reference() -> dict:
    with open(REFERENCE_FILE) as handle:
        return json.load(handle)


def as_floats(array) -> list:
    """JSON-safe list of floats (NaN kept as ``None``)."""
    return [None if math.isnan(x) else x for x in map(float, array)]
