"""Command-line entry point: config-file driven, reproducible runs.

One JSON config describes a whole run; flags only override top-level
scalars (seed, output directory, worker count). Every run writes its
artifacts under <out_dir>/<run-id>/ where the run-id hashes the config, its
top-level seed already in each block, so re-running the same config lands in
the same place and sweeps can resume by skipping completed cells. `main`
makes that directory, passes it to the command's runner and, once the runner
has written its artifacts, echoes the config there as config.json.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import diffcore
from .attribution import (
    ESTIMATORS,
    ProbeConfig,
    granger_oracle,
    write_importance_csv,
    write_importance_json,
)
from .benchmark import (
    BenchmarkResult,
    SyntheticSpec,
    aggregate_sweep,
    generate,
    masking_protocol,
    mge_quality_protocol,
    recall_at_k,
    sweep_single,
    timing_protocol,
    train_model,
    write_benchmark_csv,
    write_sweep_csv,
)
from .granger import evaluate, write_training_log
from .model import (AmeConfig, Config, ConfigError, _json_value, at_least, atomic_open, choice,
                    load_model, model_hash, save_model, setting, write_csv)

COMMANDS = ("train", "explain", "benchmark", "sweep", "oracle")

PROTOCOLS = ("masking", "mge_quality", "recall", "timing")

# AmeConfig fields a stored model must share with the run's config
ARCHITECTURE_FIELDS = ("feature_partition", "task", "num_classes", "expert_hidden",
                       "gate_hidden", "aux_hidden")

DEFAULT_ALPHAS = tuple(round(0.01 * i, 2) for i in range(11))  # 0, 0.01, ..., 0.1


class InvariantError(RuntimeError):
    """An output failed its own validity check; the run must not exit 0."""


@dataclass(frozen=True)
class RunConfig(Config):
    """Whole-run description; parsed strictly so configs stay replayable. A
    top-level seed replaces the seeds of the model, data and probe blocks."""

    model: AmeConfig = field(default_factory=AmeConfig)
    data: SyntheticSpec = field(default_factory=SyntheticSpec)
    command: str | None = choice(None, COMMANDS)
    out_dir: str = "runs"
    seed: int | None = setting(None, lambda v: v >= 0, ">= 0", like=0)
    model_path: str | None = setting(None, like="")
    estimators: tuple[str, ...] = setting(("ame",), lambda v: v and len(set(v)) == len(v)
                                          and set(v) <= set(ESTIMATORS),
                                          f"one or more distinct of {sorted(ESTIMATORS)}")
    protocols: tuple[str, ...] = setting(("masking", "recall", "timing"),
                                         lambda v: len(set(v)) == len(v)
                                         and set(v) <= set(PROTOCOLS),
                                         f"any distinct of {list(PROTOCOLS)}")
    fraction: float = setting(0.1, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    k: int = 1
    n: int = at_least(100, 1)
    alphas: tuple[float, ...] = setting(DEFAULT_ALPHAS, lambda v: v and len(set(v)) == len(v)
                                        and all(0.0 <= a <= 1.0 for a in v),
                                        "non-empty, distinct and in [0, 1]")
    runs: int = at_least(5, 1)
    baseline_value: float = 0.0
    jobs: int = at_least(1, 1)
    probe: ProbeConfig = field(default_factory=ProbeConfig)

    def validate(self) -> None:
        """The top-level seed into each block; k against the model's groups, the
        model against the data, and a benchmark's protocols against its task."""
        if self.seed is not None:
            for name in ("model", "data", "probe"):
                object.__setattr__(self, name, replace(getattr(self, name), seed=self.seed))
        if not 1 <= self.k <= self.model.n_experts:
            raise ConfigError(f"k must lie in [1, {self.model.n_experts}] (groups), got {self.k}")
        if self.model.task != self.data.task:
            raise ConfigError(
                f"model task {self.model.task!r} does not match data task {self.data.task!r}")
        if self.model.n_features != self.data.total_features:
            raise ConfigError(
                f"feature_partition covers {self.model.n_features} features but the dataset "
                f"has {self.data.total_features}")
        if self.model.task == "classification" and self.model.num_classes != 2:
            raise ConfigError(
                f"num_classes must be 2, the data's class count, got {self.model.num_classes}")
        masking = [p for p in self.protocols if p in ("masking", "mge_quality")]
        if self.command == "benchmark" and self.model.task == "regression" and masking:
            raise ConfigError(f"protocols {masking} need a classification task, "
                              "but this benchmark's is 'regression'")


def run_id(cfg: RunConfig) -> str:
    """Identity of the run: the settings and the numerics version, not the
    command or where artifacts land, so train/explain/benchmark over one
    config share a directory, and a resumed sweep never mixes cells computed
    by different numerics."""
    payload = cfg.to_dict()
    for transient in ("out_dir", "jobs", "command"):
        payload.pop(transient)
    payload["numerics_version"] = diffcore.NUMERICS_VERSION
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _write_config(cfg: RunConfig, run_dir: Path) -> None:
    with atomic_open(run_dir / "config.json") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_simplex_rows(per_sample: np.ndarray, what: str) -> None:
    # stated as what must hold, so a NaN (false under every comparison) fails it
    if not (np.all(per_sample >= 0) and np.all(np.abs(per_sample.sum(axis=1) - 1.0) <= 1e-6)):
        raise InvariantError(f"{what}: rows are not valid distributions")


def informative_groups(partition: list[list[int]], informative: list[int]) -> set[int]:
    """Group indices that contain at least one truly informative feature."""
    truth = set(informative)
    return {gi for gi, group in enumerate(partition) if truth & set(group)}


# -- commands -----------------------------------------------------------------


def run_train(cfg: RunConfig, run_dir: Path) -> None:
    splits = generate(cfg.data)
    model, rows = train_model(cfg.model, splits)
    test_metrics = evaluate(model, splits.test.x, splits.test.y)

    save_model(model, run_dir / "model.json")
    write_training_log(rows, run_dir / "training_log.csv")
    print(f"run {run_id(cfg)}: trained {len(rows)} logged epochs "
          f"(alpha={cfg.model.alpha}, seed={cfg.model.seed})")
    print(f"test main_loss={test_metrics['main_loss']:.6f} "
          f"mge={test_metrics['mge']:.6f} aux_loss_mean={test_metrics['aux_loss_mean']:.6f}")


def _load_model_for(cfg: RunConfig):
    if cfg.model_path is None:
        raise ConfigError("model_path: required for this command (run 'train' first)")
    if not Path(cfg.model_path).exists():
        raise ConfigError(f"model_path: {cfg.model_path} does not exist")
    model = load_model(cfg.model_path)
    for name in ARCHITECTURE_FIELDS:
        stored, configured = getattr(model.config, name), getattr(cfg.model, name)
        if stored != configured:
            raise ConfigError(f"model_path: stored {name} {stored!r} != configured {configured!r}")
    return model


def run_explain(cfg: RunConfig, run_dir: Path) -> None:
    model = _load_model_for(cfg)
    splits = generate(cfg.data)
    reports = []
    for name in cfg.estimators:
        report = ESTIMATORS[name](model, splits.test.x, baseline_value=cfg.baseline_value)
        _check_simplex_rows(report.per_sample, f"estimator {name}")
        reports.append(report)
        print(f"{name}: {report.n_samples} samples, {report.forwards} forwards, "
              f"{report.backwards} backwards, {report.seconds:.3f}s")
    write_importance_csv(reports, run_dir / "importance.csv")
    write_importance_json(reports, run_dir / "importance.json", model_hash(model))


def run_benchmark(cfg: RunConfig, run_dir: Path) -> None:
    splits = generate(cfg.data)
    if cfg.model_path is not None:
        model = _load_model_for(cfg)
    else:
        model, _ = train_model(cfg.model, splits)
    mh = model_hash(model)
    result = BenchmarkResult(rows=[], seed=cfg.model.seed)

    for protocol in cfg.protocols:
        if protocol == "masking":
            report = ESTIMATORS["ame"](model, splits.test.x[:cfg.n])
            outcome = masking_protocol(model, report, splits.test.x, cfg.fraction,
                                       cfg.baseline_value, n=cfg.n, seed=cfg.model.seed)
            for key in ("informed_drop", "random_drop", "p_value", "n_masked"):
                result.add("masking", key, outcome[key], mh)
        elif protocol == "mge_quality":
            variants = _mge_quality_variants(cfg, splits)
            outcome = mge_quality_protocol(variants, splits.test, fraction=cfg.fraction,
                                           baseline_value=cfg.baseline_value,
                                           n=cfg.n, seed=cfg.model.seed)
            for row in outcome["rows"]:
                result.add("mge_quality", f"{row['model']}.test_mge", row["test_mge"],
                           row["model_hash"])
                result.add("mge_quality", f"{row['model']}.logodds_drop", row["logodds_drop"],
                           row["model_hash"])
            result.add("mge_quality", "spearman", outcome["spearman"], mh)
        elif protocol == "recall":
            truth = informative_groups(cfg.model.feature_partition, cfg.data.informative)
            for name in cfg.estimators:
                report = ESTIMATORS[name](model, splits.test.x, baseline_value=cfg.baseline_value)
                result.add("recall", f"{name}.recall_at_{cfg.k}",
                           recall_at_k(report, truth, cfg.k), mh)
        elif protocol == "timing":
            for row in timing_protocol(model, splits.test.x[:cfg.n], cfg.estimators,
                                       cfg.baseline_value):
                for key in ("seconds", "forwards", "backwards", "ratio_vs_ame"):
                    result.add("timing", f"{row['estimator']}.{key}", row[key], mh)

    write_benchmark_csv(result, run_dir / "benchmark.csv")
    for row in result.rows:
        print(f"{row['protocol']}.{row['metric']} = {row['value']}")


def _mge_quality_variants(cfg: RunConfig, splits):
    """Three differently trained models: converged with the causal objective,
    prematurely stopped with a weak objective, and without it entirely."""
    short = max(1, cfg.model.epochs // 10)
    recipe = [("alpha_0.1_converged", 0.1, None),
              ("alpha_0.01_early", 0.01, short),
              ("alpha_0_baseline", 0.0, None)]
    variants = []
    for name, alpha, epochs in recipe:
        model, _ = train_model(replace(cfg.model, alpha=alpha), splits, epochs=epochs)
        variants.append((name, model))
    return variants


def _sweep_cell_path(run_dir: Path, alpha: float, run: int) -> Path:
    # repr is exact: distinct alphas never share a cell
    return run_dir / "sweep_cells" / f"alpha_{alpha!r}_run_{run}.json"


def run_sweep(cfg: RunConfig, run_dir: Path) -> None:
    (run_dir / "sweep_cells").mkdir(exist_ok=True)
    cells = [(alpha, run) for alpha in cfg.alphas for run in range(cfg.runs)]
    pending = [(a, r) for a, r in cells if not _sweep_cell_path(run_dir, a, r).exists()]
    print(f"sweep: {len(cells)} cells, {len(cells) - len(pending)} already complete")

    parallel = cfg.jobs > 1 and len(pending) > 0
    with (concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) if parallel
          else contextlib.nullcontext()) as pool:
        done = (pool.map if parallel else map)(partial(sweep_single, cfg.model, cfg.data),
                                               [a for a, _ in pending], [r for _, r in pending])
        for (alpha, run), row in zip(pending, done):  # written whole as each cell finishes
            with atomic_open(_sweep_cell_path(run_dir, alpha, run)) as fh:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    run_rows = []
    for alpha, run in cells:
        with open(_sweep_cell_path(run_dir, alpha, run), "r", encoding="utf-8") as fh:
            run_rows.append(json.load(fh))
    agg_rows = aggregate_sweep(run_rows)
    write_sweep_csv(run_rows, agg_rows, run_dir / "sweep.csv")
    for row in agg_rows:
        print(f"alpha={row['alpha']}: metric {row['metric_mean']:.6f}±{row['metric_sd']:.6f} "
              f"mge {row['mge_mean']:.6f}±{row['mge_sd']:.6f}")


def run_oracle(cfg: RunConfig, run_dir: Path) -> None:
    splits = generate(cfg.data)
    omega = granger_oracle((splits.train.x, splits.train.y),
                           (splits.test.x, splits.test.y),
                           cfg.model.feature_partition, cfg.probe, cfg.data.task)
    _check_simplex_rows(omega, "oracle targets")
    columns = ["sample_id"] + [f"group_{i + 1}" for i in range(omega.shape[1])]
    write_csv(run_dir / "oracle.csv", columns,
              [dict(zip(columns, [s, *row])) for s, row in enumerate(omega.tolist())])
    print(f"oracle targets for {omega.shape[0]} held-out samples "
          f"(mean: {np.array2string(omega.mean(axis=0), precision=4)})")


RUNNERS = {
    "train": run_train,
    "explain": run_explain,
    "benchmark": run_benchmark,
    "sweep": run_sweep,
    "oracle": run_oracle,
}


# -- argument parsing -----------------------------------------------------------


def _field_reference() -> str:
    lines = ["config file reference (JSON; unknown fields are rejected):"]
    for title, cls in (("top-level", RunConfig), ("model.*", AmeConfig),
                       ("data.*", SyntheticSpec), ("probe.*", ProbeConfig)):
        lines.append(f"\n  [{title}]")
        for f in fields(cls):
            if f.name in ("model", "data", "probe"):
                continue
            rule = f"; must be {f.metadata['text']}" if f.metadata.get("text") else ""
            lines.append(f"    {f.name} (default: {_json_value(f.default)!r}{rule})")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ame-lab",
        description="Train, explain, and benchmark attentive mixtures of experts.",
        epilog=_field_reference(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} command from a config file")
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed (model, data, and probe)")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument("--jobs", type=int, default=None,
                         help="parallel workers for sweep cells")
    return parser


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from None
    return RunConfig.from_dict(raw)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.command is not None and cfg.command != args.command:
            raise ConfigError(
                f"command: config says {cfg.command!r} but {args.command!r} was invoked")
        flags = {"seed": args.seed, "out_dir": args.out, "jobs": args.jobs}
        cfg = replace(cfg, command=args.command,  # checks the flags too
                      **{k: v for k, v in flags.items() if v is not None})
        run_dir = Path(cfg.out_dir) / run_id(cfg)
        run_dir.mkdir(parents=True, exist_ok=True)
        RUNNERS[args.command](cfg, run_dir)
        _write_config(cfg, run_dir)  # once the command's artifacts are written
        print(f"artifacts in {run_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, FloatingPointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
