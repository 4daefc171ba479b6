"""Check that the speed probe does not slow down with the workload it runs in.

    python3 perfbench/probe_check.py --rounds 3 --seconds 30

In one sitting, alternates a probe-only run (`speed.py`: the probe on its
timer while the process spins in plain Python) with a run of each workload,
each as long as `--seconds`, for `--rounds` rounds. It prints the probe's
timings in every run and, per workload, the ratio between the probe's
figure in the workload run and the mean of the probe-only runs just before
and after it, as a median over rounds. A ratio near 1 means the library's work leaves the probe alone, so
scaling to reference speed does not cancel a library change.

Two figures are compared. The median mixes the machine's fast and slow
states in whatever share a run met them, so its ratio moves by as much as
the machine does. The 10th percentile reads the fast state whenever a run
spent a tenth of its time in it, which makes its ratio the sharper test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk_p8", "step_p64", "explain_p64")
FIGURES = ("median", "p10")


def probe_ms(argv: list[str]) -> dict:
    """Run one benchmark script and return the probe timings (ms) it reports."""
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=600, check=True)
    for line in reversed(done.stdout.strip().splitlines()):
        found = json.loads(line)
        record = found.get("run_record", found)
        if "probe_ms" in record:
            return record["probe_ms"]
    raise RuntimeError(f"no probe figure in the output of {argv}")


def show(label: str, ms: dict) -> dict:
    print(f"{label:14s} " + " ".join(f"{k} {ms[k]:.4f}" for k in FIGURES) + " ms", flush=True)
    return ms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)

    def idle() -> dict:
        return show("probe-only", probe_ms([str(HERE / "speed.py"),
                                            "--seconds", str(args.seconds)]))

    ratios = {(name, fig): [] for name in WORKLOADS for fig in FIGURES}
    before = idle()
    for round_no in range(args.rounds):
        for name in WORKLOADS:
            ms = show(name, probe_ms([str(HERE / "run.py"), "--workload", name,
                                      "--seed", str(round_no), "--seconds", str(args.seconds)]))
            after = idle()
            for fig in FIGURES:
                ratios[name, fig].append(ms[fig] / ((before[fig] + after[fig]) / 2))
            before = after
    for (name, fig), values in ratios.items():
        print(f"{name:14s} {fig:6s} probe / probe-only: median {statistics.median(values):.3f}, "
              f"each {' '.join(f'{v:.3f}' for v in values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
