"""The benchmark's workloads and the closed-loop pass that measures them.

One caller runs every operation in turn and starts the next only when the
previous one has returned (a closed loop with a single client). A pass runs
each path of the library on the workload's own problem, in this order:

  fit        `ame-lab train` through `cli.main`, in-process
  setup      data generation, model build and loading the trained model
  quality    held-out MGE and error rate of the trained model (once)
  oracle     `ame-lab oracle` through `cli.main`
  step       one `granger.train_epoch` call on a 64-row slice (one Adam step)
  readout    batch-1 `model.forward` + `model.importance`
  ame        batched `attribution.explain_ame`
  saliency   batched `attribution.explain_saliency`
  occlusion  `attribution.explain_occlusion`, one sample per call
  masking    `benchmark.masking_protocol` on a batched read-out

After the first fit, set-up and quality check, the operations of all
tasks are interleaved by count (see `Pass._interleave`). Every end-to-end
metric is therefore measured on every workload; the workloads differ in
problem size and in how many operations of each task they run.

Times are reported at reference speed: see `speed` for why and how.

Every operation's output is checked. A failed check or an exception counts
the operation as failed; it does not stop the run, and a failed operation
adds no latency sample.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ame_lab import attribution, cli, granger
from ame_lab import benchmark as protocols
from ame_lab import model as ame
from ame_lab.diffcore import Optimizer

from perfbench.speed import SpeedProbe
from perfbench.summary import tail_percentile

TASKS = ("fit", "setup", "oracle", "step", "readout", "ame", "saliency", "occlusion", "masking")
# Tasks run exactly their count; every other task goes on past its count,
# in the same proportions, until the run's time is up.
ONCE = ("fit", "masking")
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    data: dict        # SyntheticSpec fields; the seed comes from the run
    model: dict       # AmeConfig fields; the seed comes from the run
    probe: dict       # ProbeConfig fields; the seed comes from the run
    block: int        # test rows per batched estimator call
    counts: dict      # task -> operations always run


def _subset_data(p: int, informative: int, weights, n_train: int, n_val: int, n_test: int):
    return {"kind": "informative_subset_classification", "total_features": p,
            "informative": list(range(informative)), "weights": list(weights),
            "noise_scale": 0.5, "n_train": n_train, "n_val": n_val, "n_test": n_test}


def _singleton_model(p: int, expert_hidden, gate_hidden: int, aux_hidden, epochs: int):
    # patience == epochs: every seed trains the same number of epochs, so a
    # change in fit_s is a change in speed, not in where early stopping fell.
    return {"feature_partition": [[i] for i in range(p)], "expert_hidden": list(expert_hidden),
            "gate_hidden": gate_hidden, "aux_hidden": list(aux_hidden),
            "task": "classification", "num_classes": 2, "alpha": 0.1, "aux_weight": 1.0,
            "learning_rate": 0.01, "batch_size": 64, "epochs": epochs, "patience": epochs}


# fit, setup and oracle are medians of repeated commands; p90 needs 100 samples.
_FIXED = {"fit": 3, "setup": 30, "masking": 1}
_P64_DATA = _subset_data(64, 8, [1.0] * 8, n_train=768, n_val=128, n_test=256)
_P64_MODEL = _singleton_model(64, [2], 4, [4], epochs=2)
_P64_PROBE = {"hidden": [8], "learning_rate": 0.01, "epochs": 2, "batch_size": 64}

WORKLOADS = {w.name: w for w in (
    # Tiny arrays: diffcore's per-op Python overhead and granger's loss
    # assembly dominate; trained and explained through the CLI.
    Workload(
        name="desk_p8",
        data=_subset_data(8, 4, [2.0, 1.5, 1.0, 0.5], n_train=2000, n_val=500, n_test=500),
        model=_singleton_model(8, [4], 8, [8], epochs=30),
        probe={"hidden": [8], "learning_rate": 0.01, "epochs": 30, "batch_size": 64},
        block=500,
        counts={**_FIXED, "oracle": 3, "step": 500, "readout": 800, "ame": 20, "saliency": 20,
                "occlusion": 30}),
    # The write path: the tape and the Adam state grow with p, so the model's
    # fan-out, Tensor.backward and the optimizer dominate. Steps take two fifths
    # of the run, reads a fifth.
    Workload(
        name="step_p64",
        data=_P64_DATA, model=_P64_MODEL, probe=_P64_PROBE, block=256,
        counts={**_FIXED, "oracle": 5, "step": 140, "readout": 100, "ame": 6, "saliency": 6,
                "occlusion": 3}),
    # The read path on the same model: forward-only read-out and estimators,
    # no optimizer and almost no backward. Reads take a third of the run,
    # steps (as few as step_ms_p90 allows) under a third.
    Workload(
        name="explain_p64",
        data=_P64_DATA, model=_P64_MODEL, probe=_P64_PROBE, block=256,
        counts={**_FIXED, "oracle": 5, "step": 100, "readout": 200, "ame": 8, "saliency": 8,
                "occlusion": 6}),
)}

E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "oracle_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "train_samples_per_s": "1/s",
    "readout_ms_p50": "ms",
    "readout_ms_p90": "ms",
    "readout_batched_samples_per_s": "1/s",
    "saliency_samples_per_s": "1/s",
    "occlusion_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """An operation returned, but its output broke one of the benchmark's checks."""


def _samples():
    return {t: [] for t in TASKS}


@dataclass
class PassResult:
    """What one pass measured: (start, end, rows) samples per task, split
    into untraced and traced operations; the speed probe's timeline; and
    counts taken in traced operations."""

    samples: dict = field(default_factory=_samples)
    traced: dict = field(default_factory=_samples)
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    def e2e(self, traced: bool = False, wall: bool = False) -> dict[str, float]:
        """End-to-end metrics, all but peak memory, which is the process's.

        Times are at reference speed (see `speed`), or raw with `wall`.
        """
        chosen = self.traced if traced else self.samples
        samples = {task: [(self.probe.seconds(t0, t1, scaled=not wall), rows)
                          for t0, t1, rows in ops] for task, ops in chosen.items()}

        def seconds(task: str) -> list[float]:
            return [sec for sec, _ in samples[task]]

        def per_call(task: str) -> float:
            return statistics.median(rows / sec for sec, rows in samples[task])

        step_ms = [1e3 * sec for sec in seconds("step")]
        readout_ms = [1e3 * sec for sec in seconds("readout")]
        step_rows = sum(rows for _, rows in samples["step"])
        return {
            "setup_s": statistics.median(seconds("setup")),
            "fit_s": statistics.median(seconds("fit")),
            "oracle_s": statistics.median(seconds("oracle")),
            "step_ms_p50": statistics.median(step_ms),
            "step_ms_p90": tail_percentile(step_ms, 90),
            "train_samples_per_s": step_rows / sum(seconds("step")),
            "readout_ms_p50": statistics.median(readout_ms),
            "readout_ms_p90": tail_percentile(readout_ms, 90),
            "readout_batched_samples_per_s": per_call("ame"),
            "saliency_samples_per_s": per_call("saliency"),
            "occlusion_samples_per_s": per_call("occlusion"),
        }


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _check_simplex(rows: np.ndarray, what: str) -> None:
    rows = np.asarray(rows)
    _check(rows.ndim == 2 and bool(np.all(rows >= 0.0))
           and bool(np.all(np.abs(rows.sum(axis=1) - 1.0) <= SIMPLEX_TOL)),
           f"{what}: rows are not on the simplex")


class Pass:
    """One closed-loop pass over a workload."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, instr=None):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.instr = instr
        self.result = PassResult()
        self.p = len(workload.model["feature_partition"])
        self.config_path = workdir / "config.json"
        self.run_dir = None
        self._ops_run = {t: 0 for t in (*TASKS, "quality")}
        self._traced_now = False
        self._window = None

    def _op(self, task: str, body):
        """Run one operation and keep its (start, end, rows) sample.

        The sample's window is the one the body timed with `_timed`; a body
        that times nothing adds no sample. With instrumentation, every
        second operation of each task is traced. Returns the body's result,
        or None when the operation failed.
        """
        self.result.attempted += 1
        traced = self.instr is not None and self._ops_run[task] % 2 == 1
        self._ops_run[task] += 1
        self._traced_now = traced
        self._window = None
        try:
            with self._traced(task) if traced else contextlib.nullcontext():
                out, rows = body()
        except CheckFailed as exc:
            print(f"check failed in {task}: {exc}", file=sys.stderr)
        except Exception:  # noqa: BLE001 - the loop must go on and count the failure
            print(f"operation {task} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        else:
            if self._window is not None:
                (self.result.traced if traced else self.result.samples)[task].append(
                    (*self._window, rows))
            return out
        self.result.failed += 1
        return None

    @contextlib.contextmanager
    def _traced(self, task: str):
        with self.instr, self.instr.tracer.op(task):
            yield

    def _count(self, key: str, n: int) -> None:
        """Add to a per-layer count; only traced operations are counted."""
        if self._traced_now:
            self.result.counts[key] = self.result.counts.get(key, 0) + n

    def _timed(self, fn):
        """Call fn and keep the window it ran in as the operation's sample."""
        start = time.perf_counter()
        out = fn()
        self._window = (start, time.perf_counter())
        return out

    # -- operations; each returns (result, rows) --------------------------------

    def _cli(self, command: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self._timed(lambda: cli.main([command, "--config", str(self.config_path)]))
        _check(code == 0, f"ame-lab {command} exited with {code}")

    def fit(self):
        self._cli("train")
        found = sorted((self.workdir / "runs").glob("*/model.json"))
        _check(len(found) == 1, f"expected one trained model, found {len(found)}")
        run_dir = found[0].parent
        with open(run_dir / "training_log.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        _check(len(rows) > 0, "training log is empty")
        for row in rows:
            for key in ("main_loss", "mge", "aux_loss_mean"):
                _check(math.isfinite(float(row[key])), f"training loss {key} is not finite")
        if self.run_dir is None:  # sizes before any other command writes there
            self.run_dir = run_dir
            self.result.counts["model.json_bytes"] = (run_dir / "model.json").stat().st_size
            self.result.counts["cli.artifact_bytes"] = sum(
                f.stat().st_size for f in run_dir.iterdir() if f.is_file())
        return run_dir, 0

    def setup(self):
        """Data generation, a fresh model for the step loop and the trained
        model, loaded from disk, for the read loops."""
        spec = protocols.SyntheticSpec(**self.w.data, seed=self.seed)
        config = ame.AmeConfig(**self.w.model, seed=self.seed)
        out = self._timed(lambda: (
            protocols.generate(spec), ame.build_ame(config),
            ame.load_model(self.run_dir / "model.json")))
        return out, 0

    def oracle(self):
        self._cli("oracle")
        with open(self.run_dir / "oracle.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        omega = np.array([row[1:] for row in rows], dtype=np.float64)
        _check(omega.shape == (self.w.data["n_test"], self.p),
               f"oracle table has shape {omega.shape}")
        _check_simplex(omega, "oracle targets")
        return None, 0

    def quality(self, trained, splits):
        """Held-out MGE and error rate of the trained model; the error must beat chance."""
        metrics = granger.evaluate(trained, splits.test.x, splits.test.y)
        pred = ame.forward(trained, splits.test.x).y.data
        error = float(np.mean(np.argmax(pred, axis=1) != splits.test.labels()))
        chance = 1.0 - 1.0 / self.w.model["num_classes"]
        _check(math.isfinite(metrics["mge"]), "test MGE is not finite")
        _check(error < chance, f"test error {error:.3f} is not below chance {chance:.3f}")
        self.result.quality = {"test_mge": metrics["mge"], "test_error": error}
        return None, 0

    def _loop_bodies(self, fresh, trained, splits):
        x_train, y_train = splits.train.x, splits.train.y
        block = splits.test.x[:self.w.block]
        n_batches = math.ceil(block.shape[0] / trained.config.batch_size)
        reference = attribution.explain_ame(trained, block).per_sample
        opt = Optimizer(fresh.config.optimizer, fresh.config.learning_rate)
        rng = np.random.default_rng(self.seed + 1)
        cursor = {"step": 0, "readout": 0, "occlusion": 0}

        def step():
            start = (cursor["step"] * 64) % (x_train.shape[0] - 63)
            cursor["step"] += 1
            rows = slice(start, start + 64)
            metrics = self._timed(
                lambda: granger.train_epoch(fresh, opt, x_train[rows], y_train[rows], rng))
            _check(all(math.isfinite(v) for v in metrics.values()), "training loss is not finite")
            return None, 64

        def readout():
            i = cursor["readout"] % block.shape[0]
            cursor["readout"] += 1
            trained.reset_pass_counts()
            row = self._timed(lambda: ame.importance(ame.forward(trained, block[i:i + 1])))
            _check(trained.forward_passes == 1 and trained.backward_passes == 0,
                   "read-out pass counts")
            self._count("readout.forwards", trained.forward_passes)
            _check_simplex(row, "attention row")
            _check(np.array_equal(row[0], reference[i]),
                   f"batch-1 attention row {i} differs from the batched row")
            return None, 1

        def estimator(kind: str):
            def body():
                explain = getattr(attribution, f"explain_{kind}")
                report = self._timed(lambda: explain(trained, block))
                backwards = n_batches if kind == "saliency" else 0
                _check(report.forwards == n_batches and report.backwards == backwards,
                       f"{kind} pass counts {report.forwards}/{report.backwards}")
                self._count(f"{kind}.backwards", report.backwards)
                _check_simplex(report.per_sample, f"{kind} estimates")
                return report, block.shape[0]
            return body

        def occlusion():
            i = cursor["occlusion"] % block.shape[0]
            cursor["occlusion"] += 1
            report = self._timed(lambda: attribution.explain_occlusion(trained, block[i:i + 1]))
            _check(report.forwards == self.p + 1 and report.backwards == 0,
                   f"occlusion pass counts {report.forwards}/{report.backwards}")
            self._count("occlusion.forwards", report.forwards)
            _check_simplex(report.per_sample, "occlusion estimates")
            return None, 1

        for _ in range(2):  # warm-up, untimed and unchecked
            granger.train_epoch(fresh, opt, x_train[:64], y_train[:64], rng)
            ame.forward(trained, block[:1])
        return {"fit": self.fit, "setup": self.setup, "oracle": self.oracle,
                "step": step, "readout": readout, "ame": estimator("ame"),
                "saliency": estimator("saliency"), "occlusion": occlusion,
                "masking": lambda: self.masking(trained, splits)}

    def _interleave(self, bodies, counts: dict, deadline: float | None):
        """Run every task's operations interleaved until each has run its count.

        Next is always the task least far through its count, so every
        task's samples spread over the whole pass and a slow spell of the
        machine lands on all of them alike. With a deadline, the tasks not
        in ONCE then go on in the same proportions until it has passed.
        """
        def progress(t: str) -> float:
            return self._ops_run[t] / counts[t]

        tasks = [t for t in TASKS if counts.get(t, 0) > 0]
        while True:
            pending = [t for t in tasks if progress(t) < 1.0]
            if not pending:
                if deadline is None or time.perf_counter() >= deadline:
                    return
                pending = [t for t in tasks if t not in ONCE]
            task = min(pending, key=progress)
            self._op(task, bodies[task])

    # -- whole pass -------------------------------------------------------------

    def run(self, seconds: float | None, counts: dict | None) -> PassResult:
        deadline = None if seconds is None else time.perf_counter() + seconds
        raw = {"out_dir": str(self.workdir / "runs"), "seed": self.seed,
               "model": dict(self.w.model), "data": dict(self.w.data),
               "probe": dict(self.w.probe)}
        self.config_path.write_text(json.dumps(raw), encoding="utf-8")
        if self._op("fit", self.fit) is None:
            raise RuntimeError("training failed; nothing left to measure")
        built = self._op("setup", self.setup)
        if built is None:
            raise RuntimeError("set-up failed; nothing left to measure")
        splits, fresh, trained = built
        self._op("quality", lambda: self.quality(trained, splits))
        bodies = self._loop_bodies(fresh, trained, splits)
        self._interleave(bodies, counts if counts is not None else self.w.counts, deadline)
        self.result.counts["tape_nodes"] = tape_nodes(fresh, splits)
        params = fresh.parameters()
        self.result.counts["param_tensors"] = len(params)
        self.result.counts["param_count"] = sum(p.size for p in params)
        return self.result

    def masking(self, trained, splits):
        block = splits.test.x[:self.w.block]
        report = attribution.explain_ame(trained, block)
        outcome = protocols.masking_protocol(trained, report, block, fraction=0.25,
                                             n=min(100, block.shape[0]), seed=self.seed)
        _check(math.isfinite(outcome["informed_drop"]) and math.isfinite(outcome["random_drop"]),
               "masking drops are not finite")
        return None, 0


def tape_nodes(model, splits) -> int:
    """Distinct tensors reachable from one training step's loss at batch 64."""
    out = ame.forward(model, splits.train.x[:64])
    loss = granger.batch_losses(model, out, splits.train.y[:64]).total
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def traced_counts(workload: Workload) -> dict:
    """Operations of a traced pass: every count doubled, since every second
    operation is traced, but one traced and one untraced of each command."""
    return {t: 2 if t in ("fit", "oracle", "masking") else 2 * n
            for t, n in workload.counts.items()}


def run_pass(workload: Workload, seed: int, out_root: Path, seconds: float | None = None,
             counts: dict | None = None, instr=None) -> PassResult:
    """One pass in a scratch directory under `out_root`, removed afterwards."""
    out_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root))
    try:
        measured = Pass(workload, seed, workdir, instr)
        with measured.result.probe.running():
            return measured.run(seconds, counts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
