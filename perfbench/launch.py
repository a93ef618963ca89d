"""Launch the analysis daemon or a cluster worker with layer wrappers.

Usage (from ``service_client.py``)::

    python3 perfbench/launch.py --stats STATS.json -- serve --port 0 ...
    python3 perfbench/launch.py --stats STATS.json -- worker --connect ...

With ``--trace 1`` installs the :mod:`tracing` wrappers (dormant); then
runs ``repro.__main__.main(argv)`` exactly as ``python -m repro`` would.
``SIGUSR1`` starts the traced window: the wrappers begin recording, the
process's metrics registry is snapshotted, and ``STATS.json.on`` is
written so the client knows the window is open.  ``SIGUSR2`` writes
``STATS.json``: the process's peak RSS, the span statistics and the
registry at the mark and now.  The client then ends the process with
``SIGTERM``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal

from common import peak_rss_mb
import tracing


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from repro.__main__ import main as repro_main
    from repro.obs import default_registry

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    marks = {}

    def start_window(signum, frame):
        marks["start"] = default_registry().snapshot()
        tracer.enable()
        with open(args.stats + ".on", "w") as handle:
            handle.write("on\n")

    def dump(signum=None, frame=None):
        document = {
            "pid": os.getpid(),
            "peak_rss_mb": peak_rss_mb(),
            "spans": tracer.snapshot(),
            "registry_start": marks.get("start"),
            "registry_end": default_registry().snapshot(),
        }
        tmp = args.stats + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(document, handle)
        os.replace(tmp, args.stats)

    signal.signal(signal.SIGUSR1, start_window)
    signal.signal(signal.SIGUSR2, dump)
    return repro_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
