"""In-process workloads ``dc_snm`` and ``tran_dff`` (one child process).

Run by ``run.py``::

    python3 perfbench/inproc.py --workload dc_snm --seed 1 --seconds 30 \
        --trace 0 [--setup-only]

Set-up (imports, technology, one warm call whose outputs are checked
against ``reference.json``) ends with a ``@@READY`` line, so the parent
can time it from process start.  ``--setup-only`` exits there.
Otherwise the child runs the timed loop of calls and prints one
``@@RESULT`` document.  With ``--trace 1`` the timed window is split:
the first half runs untraced, the second half with the layer wrappers
of :mod:`tracing` on, and the ratio of the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import random
import time

from common import (
    DEFAULT_SEED, READY, RESULT, as_floats, emit, load_reference,
    matches_reference, peak_rss_mb,
)

#: Per-workload call shape: samples per timed call, and the fixed
#: inputs (seed offset, samples) of the warm call checked every run.
SHAPES = {
    "dc_snm": {"n_samples": 2000, "check_offset": 7, "check_samples": 400},
    "tran_dff": {"n_samples": 40, "check_offset": 7, "check_samples": 2},
}
#: Timed calls draw offsets above this; the warm call's offset is below.
OFFSET_BASE = 1000


def make_spec(workload, vdd, n_samples, seed_offset, warm=False):
    from repro.api import Execution, FactoryMap

    if workload == "dc_snm":
        from repro.cells.sram import SRAMSpec
        from repro.experiments.fig9_sram_snm import SNMWork

        work = SNMWork(SRAMSpec(), vdd, "read")
    else:
        from repro.cells.dff import DFFSpec
        from repro.experiments.fig8_dff_setup import DFFSetupWork

        # The warm call runs a one-step bisection: same circuit, plan
        # and kernels as the timed calls at a third of the transients.
        work = DFFSetupWork(DFFSpec(), vdd, n_iterations=1 if warm else 6)
    return FactoryMap(work, n_samples=n_samples, model="vs",
                      seed_offset=seed_offset,
                      execution=Execution(workers=1))


def timed_calls(session, workload, vdd, offsets, seconds, outputs):
    """Run calls until *seconds* have elapsed; returns call latencies."""
    n = SHAPES[workload]["n_samples"]
    latencies = []
    start = time.perf_counter()
    while True:
        spec = make_spec(workload, vdd, n, next(offsets))
        t0 = time.perf_counter()
        values = session.run(spec).payload
        latencies.append(time.perf_counter() - t0)
        outputs.append(values)
        elapsed = time.perf_counter() - start
        # Stop when another call would end nearer past the deadline
        # than this one ended before it.
        if elapsed + 0.5 * latencies[-1] >= seconds:
            return latencies


def registry_snapshot():
    from repro.obs import default_registry
    from layers import registry_values

    return registry_values(default_registry().snapshot())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true",
                        help="print the reference outputs instead of "
                             "checking them")
    args = parser.parse_args(argv)
    workload = args.workload
    shape = SHAPES[workload]

    import numpy as np
    from repro.api import Session

    session = Session()
    vdd = session.technology.vdd
    warm = session.run(make_spec(workload, vdd, shape["check_samples"],
                                 shape["check_offset"], warm=True)).payload
    reference = None if args.write_reference else load_reference()[workload]
    check_ok = (args.write_reference
                or matches_reference(as_floats(warm), reference["warm"]))
    emit(READY, {"check_ok": check_ok})
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    offsets = iter(lambda: OFFSET_BASE + rng.randrange(10 ** 9), None)
    outputs = []
    if args.write_reference:
        timed_calls(session, workload, vdd, offsets, 0.0, outputs)
        emit(RESULT, {"warm": as_floats(warm),
                      "first_call": as_floats(outputs[0])})
        return 0

    n = shape["n_samples"]
    document = {"check_ok": check_ok}
    if args.trace:
        import layers
        import tracing

        before = timed_calls(session, workload, vdd, offsets,
                             args.seconds / 2, outputs)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        reg0 = registry_snapshot()
        tracer.enable()
        window0 = time.perf_counter()
        latencies = timed_calls(session, workload, vdd, offsets,
                                args.seconds / 2, outputs)
        window = time.perf_counter() - window0
        tracer.enabled = False
        spans = tracer.snapshot()
        layers.check_expected(workload, {"main": spans})
        totals = registry_snapshot()
        document["layers"] = layers.inproc_layers(
            spans, layers.delta(totals, reg0), totals, window)
        document["layers"]["trace.overhead_frac"] = (
            (sum(latencies) / len(latencies)) / (sum(before) / len(before))
            - 1.0)
        latencies = before + latencies
    else:
        latencies = timed_calls(session, workload, vdd, offsets,
                                args.seconds, outputs)

    values = np.concatenate([np.asarray(v, dtype=float).ravel()
                             for v in outputs])
    if args.seed == DEFAULT_SEED:
        document["check_ok"] = check_ok and matches_reference(
            as_floats(outputs[0]), reference["first_call"])
    document.update({
        "samples": int(values.size),
        "nonfinite": int(np.count_nonzero(~np.isfinite(values))),
        "latencies": latencies,
        "samples_per_call": n,
        "peak_rss_mb": peak_rss_mb(),
    })
    emit(RESULT, document)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
