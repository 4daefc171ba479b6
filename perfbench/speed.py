"""Machine-speed probe: a fixed computation run on a timer during a pass.

The 2-core KVM guest this benchmark was built on switches, for seconds to
minutes at a time, between a fast state and one about 1.6x slower, with no
steal time reported (most likely another guest busy on the same physical
core). A run's raw medians then depend on which state the run met: over
five seeds of desk_p8 the quartile spread of `step_ms_p50` was 0.46.

So each operation's wall time is also expressed at reference speed. A
SIGALRM interval timer runs the probe every INTERVAL_S of wall time, inside
operations as well as between them; the probe's own runs are taken out of
an operation's time, and each stretch between two probe runs is multiplied
by NOMINAL_S over the median duration of the WINDOW probe runs on each side
of it. The probe is the benchmark's own code and never calls the library;
it mixes small numpy calls with Python object churn, as the library does.

The probe shares the process with the library, so what the library does
around it could move it and the scaling would then absorb part of a
library change. Two things keep it apart: it runs with the garbage
collector off, so a collection of the library's heap cannot land in it,
and it times only the second of two back-to-back passes, since the first
pass's time depends on what the caches held (in one process alternating
spinning with library steps, the first pass read about 8% slower after
spinning, the second the same after both). `python3
perfbench/probe_check.py` alternates probe-only runs with each workload in
one sitting to check the probe across processes; the run record keeps the
raw wall-clock figures next to the scaled ones.

    python3 perfbench/speed.py --seconds 10    # probe-only run: median probe time
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# About the probe's duration in the fast state of the machine the baseline was
# measured on, so reference-speed times read close to its fast-state wall times.
NOMINAL_S = 0.26e-3
# The machine's state can flip within a second, so the probe runs often: at
# 25 ms, scaled step times on desk_p8 spread about a fifth less than at 0.1 s.
INTERVAL_S = 0.025
# Probe runs on each side of a stretch whose median scales it: a 0.15 s
# window, short against the machine's spells and long enough that one
# disturbed probe run does not rescale what lies around it.
WINDOW = 3

_X = np.linspace(-1.0, 1.0, 8).reshape(1, 8)
_W = np.linspace(-1.0, 1.0, 32).reshape(4, 8)
_B = np.zeros(4)


class _Node:
    __slots__ = ("data", "parents", "fn")

    def __init__(self, data, parents=(), fn=None):
        self.data = data
        self.parents = parents
        self.fn = fn


def reference_work() -> float:
    """A fixed small-array computation: a few einsum/tanh/concatenate calls
    wrapped in short-lived Python objects and closures."""
    acc = 0.0
    for _ in range(40):
        x = _Node(np.ascontiguousarray(_X))
        h = _Node(np.einsum("ni,oi->no", x.data, _W, optimize=False) + _B, (x,), lambda g: (g,))
        t = _Node(np.tanh(h.data), (h,), lambda g: (g,))
        cat = _Node(np.concatenate([t.data, h.data], axis=1), (t, h))
        acc += float(cat.data.sum()) + len(cat.parents)
    return acc


class SpeedProbe:
    """Timeline of probe runs: start, end and timed duration of each, in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def run(self) -> None:
        """Run the probe once, with the garbage collector off, and keep the
        timing of its second, warm pass."""
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            warm = time.perf_counter()
            reference_work()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.durations.append(end - warm)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.run()

    @contextmanager
    def running(self, interval_s: float = INTERVAL_S):
        """Run the probe every `interval_s` of wall time inside the block,
        and once at each end of it. Main thread only (signal handlers)."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.run()
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.run()

    def seconds(self, t0: float, t1: float, scaled: bool = True) -> float:
        """Time from t0 to t1 less the probe runs inside it; with `scaled`,
        at reference speed.

        A probe run is either wholly inside [t0, t1] or wholly outside it,
        since the handler runs between two bytecodes of the timed code.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        total = 0.0
        edge = t0
        for k in range(lo, hi + 1):
            end = self.starts[k] if k < hi else t1
            factor = 1.0
            if scaled:
                around = self.durations[max(0, k - WINDOW):k + WINDOW]
                if not around:
                    raise ValueError("no probe run near the operation")
                factor = NOMINAL_S / statistics.median(around)
            total += (end - edge) * factor
            if k < hi:
                edge = self.ends[k]
        return total


def probe_only(seconds: float) -> SpeedProbe:
    """Run the probe on its timer while the caller spins in plain Python."""
    probe = SpeedProbe()
    with probe.running():
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass
    return probe


def summary_ms(probe: SpeedProbe) -> dict:
    """Median, 10th percentile (the machine's fast state, when a run met it),
    minimum and maximum of the probe durations, in ms, and the run count."""
    durations = sorted(probe.durations)
    return {"median": 1e3 * statistics.median(durations),
            "p10": 1e3 * durations[len(durations) // 10],
            "min": 1e3 * durations[0], "max": 1e3 * durations[-1], "runs": len(durations)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Probe-only run: print the probe's timings.")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    print(json.dumps({"probe_ms": summary_ms(probe_only(args.seconds))}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
