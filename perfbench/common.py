"""Shared set-up for the benchmark's entry points.

Every entry point (``run.py``, ``probe.py``, ``freeze.py``) calls
``pin_threads()`` before anything imports numpy, so BLAS and OpenMP run one
thread and the benchmark is a single-threaded closed loop on any host.
``import_qtesters()`` imports the package from this checkout's ``src`` and
nowhere else.  Also here: ``run_probe()`` for fresh-process probes, the
``SpeedGauge`` that scales end-to-end times to a reference CPU speed, and the
in-memory ``Tracer``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def peak_rss_kb() -> int:
    """Peak resident memory of this process's own address space (VmHWM).

    Not ``getrusage().ru_maxrss``: Linux carries that over ``execve`` from
    the address space being replaced, so a process started by a larger one
    (through vfork, as subprocess does) would report its parent's peak."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("VmHWM missing from /proc/self/status")


def run_probe(*args) -> dict:
    """Run probe.py with ``args`` in a fresh process, wait for it to end, and
    return the JSON object it prints last."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py"), *args],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_qtesters():
    """Import ``qtesters`` from ``<checkout>/src``; raise ImportError if it is
    missing there, even when another copy is importable."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qtesters

    if src not in Path(qtesters.__file__).resolve().parents:
        raise ImportError(f"qtesters imported from {qtesters.__file__}, not from {src}")
    return qtesters


# Speed gauge.  On a shared host the CPU speed this process gets drifts by
# +-20% within seconds and between runs, more than any bound worth setting.
# While the benchmark times its calls, an interval timer interrupts it to
# time a fixed chunk of work; the calls' own time (interrupts left out) is
# scaled by the chunk's reference time over its mean measured time.  The
# mean, not the median, because a call's time is likewise a mean over the
# speed it got.  The chunk mixes what the program spends its time on:
# interpreted Python, small numpy matrix products, numpy scalar indexing and
# csv rows.  On the reference host (2-core VM, Python 3.11, numpy 2.4) the
# spread of wall_s over 5 seeds fell from 9-34% raw to 3-6% scaled; chunks
# timed only between calls, or of pure Python, tracked the program worse.
# The mixed chunk needs numpy imported before the gauge starts, so set-up
# time, which includes that import, is gauged by the pure-Python chunk.
CAL_ITERATIONS = 300
CAL_INTERVAL_S = 0.02


def mixed_chunk() -> float:
    import numpy as np

    t0 = perf_counter()
    table = {}
    a = np.arange(9.0).reshape(3, 3)
    rec = np.zeros((8, 4), dtype=np.int64)
    out = io.StringIO()
    writer = csv.writer(out)
    for i in range(CAL_ITERATIONS):
        table[i % 97] = [i, str(i)]
        a = a @ a * 1e-3 + 1.0
        rec[i % 8, i % 4] = int(a[1, 1] * 10)
        writer.writerow((i,) + tuple(int(x) for x in rec[i % 8]))
    return perf_counter() - t0


def python_chunk() -> float:
    t0 = perf_counter()
    table = {}
    for i in range(10 * CAL_ITERATIONS):
        table[i % 97] = [i, str(i)]
    return perf_counter() - t0


# (chunk, its typical time on the reference host)
MIXED = (mixed_chunk, 0.002)
PYTHON = (python_chunk, 0.0005)


class SpeedGauge:
    """Context manager: an interval timer interrupts the process every
    CAL_INTERVAL_S to time one ``chunk`` (MIXED or PYTHON).  ``clock()`` is
    ``perf_counter()`` minus the time spent in the interrupts, so durations
    taken from it are the calls' own time."""

    def __init__(self, chunk=MIXED):
        self.chunk, self.ref_s = chunk
        self.chunks: list = []
        self._stolen = 0.0

    def clock(self) -> float:
        return perf_counter() - self._stolen

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.chunks.append(self.chunk())
        self._stolen += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Multiply an own time measured under this gauge by this to get
        seconds at the reference speed."""
        return self.ref_s / statistics.fmean(self.chunks)


class Tracer:
    """In-memory spans: [id, parent id, name, start s, end s, count].

    A span's parent is the span open when it started.  ``count`` is the
    number of calls the span covers (a timed batch of micro-calls is one
    span).  Times come from ``clock`` (a SpeedGauge's clock leaves out its
    interrupts).  With ``enabled=False`` nothing is recorded, but ``timed``
    still returns durations, so untraced and traced runs share one code path.
    """

    def __init__(self, enabled: bool, clock=perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str, count: int = 1):
        if not self.enabled:
            yield
            return
        rec = [len(self.spans), self._open[-1] if self._open else None, name,
               self.clock(), None, count]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield
        finally:
            rec[4] = self.clock()
            self._open.pop()

    def timed(self, name: str, fn, count: int = 1):
        """Call ``fn()`` inside a span; return (result, seconds)."""
        with self.span(name, count):
            t0 = self.clock()
            out = fn()
            dt = self.clock() - t0
        return out, dt

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds (self = duration minus
        the time covered by direct children)."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for sid, _, name, start, end, count in self.spans:
            row = out.setdefault(name, {"spans": 0, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["calls"] += count
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out
