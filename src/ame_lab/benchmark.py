"""Synthetic ground-truth datasets and the evaluation protocols run on them.

Datasets are built so the informative feature set is known by
construction, which makes masking effects, recall of informative groups,
and target-distribution quality directly checkable without reference
labels from domain experts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .attribution import ESTIMATORS, ImportanceReport, _masked_forward, explain_ame
from .granger import evaluate, fit
from .model import (TASKS, AmeConfig, AmeModel, Config, ConfigError, at_least, build_ame,
                    choice, forward, model_hash, setting, write_csv)

LOG_ODDS_CLIP = 1e-9  # masking can saturate class probabilities
BETACF_MAX_TERMS = 200  # the p-value's continued fraction needs at most ~50 up to df = 1e6

KINDS = ("additive_regression", "informative_subset_classification", "noise_control")

BENCHMARK_COLUMNS = ("protocol", "metric", "value", "seed", "model_hash")


class ProtocolError(ValueError):
    """Raised when a protocol is run against an incompatible model or data."""


@dataclass(frozen=True)
class SyntheticSpec(Config):
    """Recipe for one dataset with known ground truth.

    informative lists the 0-based features that actually drive the target;
    weights align with it. noise_control ignores both and produces a
    target independent of every feature.
    """

    kind: str = choice("additive_regression", KINDS)
    total_features: int = at_least(8, 1)
    informative: tuple[int, ...] = setting((0,), lambda v: len(set(v)) == len(v), "distinct")
    weights: tuple[float, ...] = setting((1.0,))
    noise_scale: float = 0.1
    task: str = choice("", ("", *TASKS))  # "" takes the kind's; noise_control allows either
    n_train: int = at_least(1000, 1)
    n_val: int = at_least(200, 1)
    n_test: int = at_least(200, 1)
    seed: int = at_least(0, 0)

    def validate(self) -> None:
        derived = ("classification" if self.kind == "informative_subset_classification"
                   else "regression")
        object.__setattr__(self, "task", self.task or derived)
        if self.kind == "noise_control":
            return
        if self.task != derived:
            raise ConfigError(f"kind {self.kind!r} implies task {derived!r}, got {self.task!r}")
        if not self.informative:
            raise ConfigError("informative set must be non-empty")
        if len(self.informative) > self.total_features:
            raise ConfigError(
                f"informative set size {len(self.informative)} exceeds "
                f"{self.total_features} total features")
        if any(i < 0 or i >= self.total_features for i in self.informative):
            raise ConfigError(f"informative indices out of range: {list(self.informative)}")
        if len(self.weights) != len(self.informative):
            raise ConfigError(
                f"{len(self.weights)} weights for {len(self.informative)} informative features")


@dataclass
class Dataset:
    x: np.ndarray  # (n, d)
    y: np.ndarray  # (n, 1) regression targets or (n, 2) one-hot labels

    def labels(self) -> np.ndarray:
        return np.argmax(self.y, axis=1)


@dataclass
class Splits:
    train: Dataset
    val: Dataset
    test: Dataset
    spec: SyntheticSpec


def generate(spec: SyntheticSpec) -> Splits:
    """Draw the three disjoint splits from one seeded stream."""
    rng = np.random.default_rng(spec.seed)
    total = spec.n_train + spec.n_val + spec.n_test
    x = rng.standard_normal((total, spec.total_features))

    if spec.kind == "noise_control":
        if spec.task == "classification":
            labels = rng.integers(0, 2, size=total)
            y = np.zeros((total, 2))
            y[np.arange(total), labels] = 1.0
        else:
            y = (spec.noise_scale * rng.standard_normal(total))[:, None]
    else:
        signal = np.zeros(total)
        for idx, w in zip(spec.informative, spec.weights):
            signal += w * x[:, idx]
        target = signal + spec.noise_scale * rng.standard_normal(total)
        if spec.kind == "additive_regression":
            y = target[:, None]
        else:
            y = np.zeros((total, 2))
            y[np.arange(total), (target > 0).astype(int)] = 1.0

    def cut(a, b):
        return Dataset(x=x[a:b].copy(), y=y[a:b].copy())

    return Splits(train=cut(0, spec.n_train),
                  val=cut(spec.n_train, spec.n_train + spec.n_val),
                  test=cut(spec.n_train + spec.n_val, total),
                  spec=spec)


def train_model(config: AmeConfig, splits: Splits, epochs: int | None = None) -> tuple[AmeModel, list[dict]]:
    """Build and fit one model on the split; returns (model, training log rows)."""
    if config.task != splits.spec.task:
        raise ProtocolError(
            f"model task {config.task!r} does not match dataset task {splits.spec.task!r}")
    model = build_ame(config)
    rows = fit(model, (splits.train.x, splits.train.y), (splits.val.x, splits.val.y),
               epochs=epochs)
    return model, rows


# -- masking -----------------------------------------------------------------


def log_odds(q: np.ndarray | float) -> np.ndarray | float:
    q = np.clip(q, LOG_ODDS_CLIP, 1.0 - LOG_ODDS_CLIP)
    return np.log(q / (1.0 - q))


def _top_groups(scores: np.ndarray, m: int) -> np.ndarray:
    # ties broken toward the lowest group index
    order = np.lexsort((np.arange(scores.size), -scores))
    return order[:m]


def masking_drop(model: AmeModel, x: np.ndarray, picked: np.ndarray,
                 baseline_value: float) -> np.ndarray:
    """Per-sample change in log odds of the originally predicted class, (n, k),
    when copy j of row s masks the groups picked[s, j] picks ((n, k, p) bools).
    Positive = prediction degraded. One forward reads the rows and all copies."""
    n, _, p = picked.shape
    unmasked = np.zeros((n, 1, p), dtype=bool)
    y = _masked_forward(model, x, np.concatenate([unmasked, picked], axis=1), baseline_value)
    q = y[np.arange(n), :, np.argmax(y[:, 0], axis=1)]  # (n, k+1)
    return log_odds(q[:, :1]) - log_odds(q[:, 1:])


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with y = 1 - x given exactly.

    The continued fraction (the `betacf` form, modified Lentz) converges fast
    for x < (a + 1) / (a + b + 2); above that I_x(a, b) = 1 - I_y(b, a).
    """
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    tiny = 1e-300  # keeps the Lentz denominators off zero
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0) or tiny)
    h = d
    for m in range(1, BETACF_MAX_TERMS):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d or tiny)
            c = 1.0 + num / c or tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    return math.exp(log_front) * h / a


def paired_p_value(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided paired t-test p-value, I_x(df/2, 1/2) at x = df / (df + t^2).

    NaN below two pairs, 1.0 when the arms are allclose, 0.0 for a nonzero
    mean difference without spread.
    """
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    n = diff.size
    if n < 2:
        return float("nan")
    if np.allclose(a, b):
        return 1.0
    var = float(np.var(diff, ddof=1))
    if var == 0.0:
        return 0.0  # not allclose, so the mean is nonzero: t is infinite
    t2 = n * float(diff.mean()) ** 2 / var
    if t2 == 0.0:
        return 1.0
    df = n - 1.0
    return _betainc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def masking_protocol(model: AmeModel, report: ImportanceReport, x: np.ndarray,
                     fraction: float, baseline_value: float = 0.0,
                     n: int = 100, seed: int = 0) -> dict:
    """Informed vs random masking of the top-ranked feature groups.

    Masks the ceil(fraction*p) highest-scored groups per sample (at least
    one) and the same number of uniformly chosen groups as the control, both
    arms in one forward. Reports mean drops and the paired-test p-value, not
    a verdict.
    """
    if model.config.task != "classification":
        raise ProtocolError("masking protocol needs a classification model")
    if not 0.0 < fraction <= 1.0:
        raise ProtocolError(f"fraction must lie in (0, 1], got {fraction}")
    p = model.config.n_experts
    n = min(n, x.shape[0], report.n_samples)
    m = max(1, math.ceil(fraction * p))
    rng = np.random.default_rng(seed)

    picked = np.zeros((n, 2, p), dtype=bool)  # arm 0 informed, arm 1 random
    for s in range(n):
        picked[s, 0, _top_groups(report.per_sample[s], m)] = True
        picked[s, 1, rng.choice(p, size=m, replace=False)] = True
    informed, random_arm = masking_drop(model, x[:n], picked, baseline_value).T

    return {
        "n": n,
        "n_masked": m,
        "fraction": fraction,
        "informed_drop": float(informed.mean()),
        "random_drop": float(random_arm.mean()),
        "informed_per_sample": informed,
        "random_per_sample": random_arm,
        "p_value": paired_p_value(informed, random_arm),
    }


# -- MGE vs estimate quality --------------------------------------------------


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman_rho(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rank correlation: Pearson's r of the average ranks. A
    constant input has no ranking; callers flag that case before asking."""
    return float(np.corrcoef(_average_ranks(a), _average_ranks(b))[0, 1])


def mge_quality_protocol(named_models: list[tuple[str, AmeModel]], test: Dataset,
                         fraction: float = 0.25, baseline_value: float = 0.0,
                         n: int = 100, seed: int = 0) -> dict:
    """Test-set MGE against masking quality across differently trained models.

    A negative rank correlation means lower held-out MGE goes with better
    importance estimates.
    """
    if len(named_models) < 3:
        raise ProtocolError(f"need at least 3 models, got {len(named_models)}")
    rows = []
    for name, model in named_models:
        metrics = evaluate(model, test.x, test.y)
        report = explain_ame(model, test.x[:n])
        masking = masking_protocol(model, report, test.x, fraction, baseline_value,
                                   n=n, seed=seed)
        rows.append({"model": name, "test_mge": metrics["mge"],
                     "logodds_drop": masking["informed_drop"],
                     "model_hash": model_hash(model)})
    mges = np.array([r["test_mge"] for r in rows])
    drops = np.array([r["logodds_drop"] for r in rows])
    degenerate = bool(min(np.ptp(mges), np.ptp(drops)) < 1e-12)  # a constant column has no ranks
    spearman = float("nan") if degenerate else spearman_rho(mges, drops)
    return {"rows": rows, "spearman": spearman, "degenerate": degenerate}


# -- alpha sweep ---------------------------------------------------------------


def _test_metric(model: AmeModel, test: Dataset) -> float:
    """MSE for regression, error rate for classification (plain metric)."""
    pred = forward(model, test.x).y.data
    if model.config.task == "classification":
        return float(np.mean(np.argmax(pred, axis=1) != test.labels()))
    return float(np.mean((pred - test.y) ** 2))


def sweep_single(base_config: AmeConfig, base_spec: SyntheticSpec,
                 alpha: float, run: int) -> dict:
    """One (alpha, run) cell: fresh data seed and model seed per run index."""
    spec = replace(base_spec, seed=base_spec.seed + run)
    config = replace(base_config, alpha=alpha, seed=base_config.seed + run)
    splits = generate(spec)
    model, _ = train_model(config, splits)
    metrics = evaluate(model, splits.test.x, splits.test.y)
    return {
        "alpha": alpha,
        "run": run,
        "seed": config.seed,
        "test_main_loss": metrics["main_loss"],
        "test_mge": metrics["mge"],
        "test_metric": _test_metric(model, splits.test),
        "model_hash": model_hash(model),
    }


def aggregate_sweep(run_rows: list[dict]) -> list[dict]:
    """Per-alpha mean and standard deviation over runs."""
    agg = []
    for alpha in sorted({row["alpha"] for row in run_rows}):
        rows = [r for r in run_rows if r["alpha"] == alpha]
        metric = np.array([r["test_metric"] for r in rows])
        mge = np.array([r["test_mge"] for r in rows])
        agg.append({
            "alpha": alpha,
            "runs": len(rows),
            "metric_mean": float(metric.mean()),
            "metric_sd": float(metric.std(ddof=0)),
            "mge_mean": float(mge.mean()),
            "mge_sd": float(mge.std(ddof=0)),
        })
    return agg


# -- recall ---------------------------------------------------------------------


def recall_at_k(report: ImportanceReport, truth: set[int], k: int) -> int:
    """How many of the top-k groups by mean score are truly informative.

    truth holds 0-based group indices; ties break toward the lowest index.
    """
    if report.n_samples == 0:
        raise ProtocolError("recall_at_k: empty report")
    if k > report.n_groups:
        raise ProtocolError(f"k={k} exceeds {report.n_groups} groups")
    mean_scores = report.per_sample.mean(axis=0)
    top = _top_groups(mean_scores, k)
    return int(sum(1 for g in top if g in truth))


# -- timing -----------------------------------------------------------------------


def timing_protocol(model: AmeModel, x: np.ndarray, estimators: list[str] | None = None,
                    baseline_value: float = 0.0) -> list[dict]:
    """Wall-clock and pass counts per estimator on identical samples, each
    called at its default batch size and at `baseline_value`.

    Ratios are reported against the attention read-out (ame = 1x); without
    ame among the estimators they are NaN.
    """
    names = list(ESTIMATORS) if estimators is None else estimators
    if not names:
        raise ProtocolError("timing_protocol: estimators must name at least one estimator")
    rows = []
    for name in names:
        if name not in ESTIMATORS:
            raise ProtocolError(f"unknown estimator {name!r}; expected one of {sorted(ESTIMATORS)}")
        report = ESTIMATORS[name](model, x, baseline_value=baseline_value)
        rows.append({"estimator": name, "seconds": report.seconds,
                     "forwards": report.forwards, "backwards": report.backwards})
    base = next((r["seconds"] for r in rows if r["estimator"] == "ame"), float("nan"))
    for row in rows:
        row["ratio_vs_ame"] = row["seconds"] / base if base > 0 else float("nan")
    return rows


# -- consolidated result ------------------------------------------------------------


@dataclass
class BenchmarkResult:
    """Long-format metric rows; every row carries seed and model hash."""

    rows: list[dict]
    seed: int

    def add(self, protocol: str, metric: str, value, model_hash_: str) -> None:
        self.rows.append({"protocol": protocol, "metric": metric, "value": value,
                          "seed": self.seed, "model_hash": model_hash_})


def write_benchmark_csv(result: BenchmarkResult, path) -> None:
    write_csv(path, BENCHMARK_COLUMNS, result.rows)


def read_benchmark_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = []
        for raw in csv.DictReader(fh):
            rows.append({"protocol": raw["protocol"], "metric": raw["metric"],
                         "value": float(raw["value"]), "seed": int(raw["seed"]),
                         "model_hash": raw["model_hash"]})
        return rows


def write_sweep_csv(run_rows: list[dict], agg_rows: list[dict], path) -> None:
    """Run rows and aggregate rows in one file, tagged by row_type; each row
    leaves blank the columns only the other kind has."""
    run_keys = {k for row in run_rows for k in row}
    agg_keys = {k for row in agg_rows for k in row}
    rows = ([{"row_type": "run", **dict.fromkeys(agg_keys - run_keys, ""), **row}
             for row in sorted(run_rows, key=lambda r: (r["alpha"], r["run"]))]
            + [{"row_type": "aggregate", **dict.fromkeys(run_keys - agg_keys, ""), **row}
               for row in sorted(agg_rows, key=lambda r: r["alpha"])])
    write_csv(path, ["row_type"] + sorted(run_keys | agg_keys), rows)
