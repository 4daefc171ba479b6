"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload step_p64 --seeds 0-9 --seconds 30

Runs `run.py` once per seed, one run at a time, and prints per metric the
median and the quartile spread (Q3 - Q1) / median over the seeds, the
figure the benchmark's bounds are checked against, and the same for the
raw wall-clock figure of each time the run record keeps. Add `--json FILE` to
keep every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.summary import quartile_spread  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="write all results to this file")
    args = parser.parse_args(argv)

    bounds = {}
    spec_path = HERE.parent / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        *_, record, result = [json.loads(line) for line in done.stdout.strip().splitlines()]
        results.append({"seed": seed, **record, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    def median_spread(values):
        median = statistics.median(values)
        return median, quartile_spread(values) if len(values) >= 2 and median else float("nan")

    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'bound':>6s} "
          f"{'raw median':>14s} {'raw spread':>10s}")
    for name in results[0]["metrics"]:
        median, spread = median_spread([r["metrics"][name]["value"] for r in results])
        bound = bounds.get(name)
        raw = [r["run_record"].get("wall_clock", {}).get(name) for r in results]
        raw_cols = "" if None in raw else "{:14.6g} {:10.4f}".format(*median_spread(raw))
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:40s} {median:14.6g} {spread:8.4f} "
              f"{'' if bound is None else f'{bound:6.2f}':6s} {raw_cols}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
