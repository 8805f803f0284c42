"""Run one traced CLI stage: ``python perfbench/stage.py SPANS.json <cli args...>``.

Imports ``clickgraph.cli`` (timed), installs the tracer, calls
``clickgraph.cli.main(argv)`` and writes the exit code, import time, spans,
per-layer counts and this process's read/written bytes (``rchar`` and
``wchar`` from ``/proc/self/io``, taken around ``main``) to SPANS.json.
"""

from __future__ import annotations

import json
import os
import sys
import time

t0 = time.perf_counter()
import clickgraph.cli  # noqa: E402

import_s = time.perf_counter() - t0
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import Tracer, summarize  # noqa: E402


def _io() -> dict[str, int]:
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            return {k: int(v) for k, v in (line.split(": ") for line in fh)}
    except OSError:  # no procfs: byte counts read as 0
        return {"rchar": 0, "wchar": 0}


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    before = _io()
    rc = clickgraph.cli.main(argv)
    after = _io()
    tracer.uninstall()
    spans, extra = tracer.take()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "rc": rc,
            "import_s": import_s,
            "bytes_read": after["rchar"] - before["rchar"],
            "bytes_written": after["wchar"] - before["wchar"],
            "metrics": summarize(spans, extra),
            "spans": spans,
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
