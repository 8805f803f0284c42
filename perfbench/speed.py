"""Machine-speed sampler: rescales measured times to one reference speed.

A shared machine changes speed by up to a factor of two, in spells of a few
seconds to minutes, with CPU time tracking wall time.  That swing is wider
than the benchmark's bounds.  So while a workload runs, a sampler process
times a small fixed piece of work every INTERVAL_S (a duty of 5 to 9 %), and
a section measured at ``t`` seconds between monotonic instants ``start`` and
``end`` is reported as ``t * REFERENCE_S / mean(samples in [start, end])``:
the time it takes on a machine on which the sample work takes REFERENCE_S.
The sampler runs no clickgraph code, so a change to the program moves the
rescaled time in proportion to the raw one.

The sample work mixes what the workloads spend their time on: interpreter
loops, page faults, file-system calls and a fork; a pure-Python loop alone
tracked ``import clickgraph.cli`` and the library analysis about half as well.
The runner pins itself, its children and the sampler to one CPU, so the
samples measure the CPU the program runs on.  On a 2-core VM, two sets of
ten seeds per workload run one after the other: the raw medians moved by
+11 % (pipeline_cold), +15 % (pipeline_rerun) and +4 % (library_session)
between the sets, the rescaled ones by +3 %, +4 % and -0.4 %; the rescaled
spread (quartile distance over median) within a set was 7-10 %, 2-3 % and
7-9 %.  What is left comes partly from the inputs: library_session's
attention fits cost more on some seeds' graphs than on others.

``python3 perfbench/speed.py OUT.json`` runs the sampler until SIGTERM (or
until its parent exits), then writes ``[[monotonic start, seconds], ...]``.
"""

from __future__ import annotations

import json
import mmap
import os
import signal
import statistics
import subprocess
import sys
import time

#: Mean sample time, in seconds, that defines the reference speed.
REFERENCE_S = 0.004
INTERVAL_S = 0.1
MIN_SAMPLES = 5
_STDLIB = os.path.dirname(os.__file__)
_FILES = sorted(os.path.join(_STDLIB, f) for f in os.listdir(_STDLIB) if f.endswith(".py"))[:150]


def _work() -> int:
    total = 0
    for i in range(6000):  # interpreter
        total += (i * 7919) % 211
    with mmap.mmap(-1, 1 << 20) as mem:  # page faults
        for offset in range(0, 1 << 20, mmap.PAGESIZE):
            mem[offset] = 1
    for path in _FILES:  # file-system calls
        total += os.stat(path).st_size
    with open(_FILES[0], "rb") as fh:
        total += len(fh.read())
    pid = os.fork()  # process creation
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return total


class Sampler:
    """Runs the sampler process for the ``with`` block; ``factor`` afterwards."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.samples: list[list[float]] = []

    def __enter__(self) -> "Sampler":
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), self.path])
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            with open(self.path, encoding="utf-8") as fh:
                self.samples = json.load(fh)
        except (OSError, ValueError):  # no samples: factor() raises
            self.samples = []

    def factor(self, start: float, end: float) -> float:
        """Multiplier from seconds measured between ``start`` and ``end`` to
        reference seconds; a short section uses the MIN_SAMPLES nearest samples."""
        took = [d for t, d in self.samples if start <= t <= end]
        if len(took) < MIN_SAMPLES:
            mid = (start + end) / 2
            took = [d for _t, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.fmean(took)


def sample(path: str) -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    samples = []
    while not stop and os.getppid() == parent:
        t = time.monotonic()
        _work()
        samples.append([t, time.monotonic() - t])
        time.sleep(INTERVAL_S)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)


if __name__ == "__main__":
    sample(sys.argv[1])
