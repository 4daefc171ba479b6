"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload desk_p8 --seed 0 --seconds 30 --trace 0

Run from any directory; the library is imported from `src/` next to this
directory. `--trace 0` prints the end-to-end metrics of one closed-loop pass
that runs the workload's counts and lasts at least `--seconds`. `--trace 1`
runs one pass with twice the counts in which every second operation of
each task is traced (spans around every layer), and prints the per-layer
metrics and the tracing overhead: traced minus untraced end-to-end numbers
of that pass, whose untraced operations run the unwrapped library. It also
writes the spans to `.bench_out/`.

Times are at reference speed (see `speed.py`). The line before the result
is a JSON run record: library versions, CPU count, git commit, `src/` line
count, the sample count of each task, the same end-to-end metrics as raw
wall-clock times, and the speed probe's timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("desk_p8", "step_p64", "explain_p64")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> dict[str, str]:
    """Cap every BLAS/OpenMP thread variable at the usable CPU count.

    Must run before numpy is imported, which reads them once.
    """
    cap = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        value = int(current) if current.isdigit() and int(current) > 0 else cap
        os.environ[var] = str(min(value, cap))
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_record() -> dict:
    files = sorted((SRC / "ame_lab").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ame_lab" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'ame_lab'} is missing; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]

    import numpy
    import scipy

    from perfbench import tracer as tracing
    from perfbench.speed import summary_ms
    from perfbench.summary import result_line
    from perfbench.workloads import E2E_UNITS, WORKLOADS, run_pass, traced_counts

    workload = WORKLOADS[args.workload]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "cpu_count": os.cpu_count(), "git_commit": git_commit(),
              **source_record(), "thread_env": threads}

    try:
        if args.trace == 0:
            measured = run_pass(workload, args.seed, OUT, seconds=args.seconds)
            values = measured.e2e()
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
            record["wall_clock"] = measured.e2e(wall=True)
        else:
            spans = tracing.Tracer(run_id=f"{workload.name}-seed{args.seed}-{time.time_ns()}")
            instr = tracing.Instrumentation(spans)
            measured = run_pass(workload, args.seed, OUT, counts=traced_counts(workload),
                                instr=instr)
            metrics = layer_metrics(measured, spans, instr, E2E_UNITS)
            spans.write(OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz")
    except (RuntimeError, ValueError) as exc:  # ValueError: a task kept no sample
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record["samples"] = {task: len(s) for task, s in measured.samples.items()}
    record["probe_ms"] = summary_ms(measured.probe)
    if args.trace:
        record["traced_samples"] = {task: len(s) for task, s in measured.traced.items()}
    result = result_line(measured.attempted, measured.failed, metrics)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


def layer_metrics(measured, spans, instr, e2e_units) -> dict:
    """Per-layer metrics of a pass's traced operations plus the tracing overhead."""
    from perfbench import tracer as tracing

    metrics = tracing.span_metrics(spans, instr)
    counts = measured.counts
    metrics.update({
        "diffcore.tape_nodes": (float(counts["tape_nodes"]), "count"),
        "diffcore.param_tensors": (float(counts["param_tensors"]), "count"),
        "diffcore.param_count": (float(counts["param_count"]), "count"),
        "model.json_bytes": (float(counts["model.json_bytes"]), "bytes"),
        "cli.artifact_bytes": (float(counts["cli.artifact_bytes"]), "bytes"),
        "attribution.readout_forwards": (float(counts["readout.forwards"]), "count"),
        "attribution.occlusion_forwards": (float(counts["occlusion.forwards"]), "count"),
        "attribution.saliency_backwards": (float(counts["saliency.backwards"]), "count"),
        "granger.test_mge": (measured.quality["test_mge"], "nats"),
        "granger.test_error": (measured.quality["test_error"], "share"),
    })
    # The step's time that spans inside granger.train_epoch account for: the
    # wrapper's own self time (its batching loop) and the op span are left out,
    # since together they would cover the whole step by construction.
    inner = sum(own for rec, own in zip(spans.spans, tracing.self_times(spans.spans))
                if rec[4] >= 0 and spans.op_names[rec[4]] == "step"
                and rec[0] not in ("op.step", "granger.train_epoch"))
    step_wall = sum(t1 - t0 for t0, t1, _ in measured.traced["step"])  # raw, as spans are
    metrics["trace.step_inner_share"] = (inner / step_wall, "share")
    before, after = measured.e2e(), measured.e2e(traced=True)
    for name, unit in e2e_units.items():
        if name in before:
            metrics[f"trace.{name}_delta"] = (after[name] - before[name], unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
