"""Importance estimators behind one report schema.

Three estimators over a trained model: the attention read-out (one forward
pass), gradient saliency (forward + backward), and occlusion (one extra
forward per feature group per sample). All raw scores pass through the
same absolute-value normalizing transform so estimates land on the
simplex and are comparable across estimators.

Also hosts the brute-force oracle: fresh probe predictors trained on raw
features with one group left out at a time, yielding an
implementation-independent target distribution to validate the in-model
auxiliary pathway against.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Optimizer, Tensor, clear_grads
from .granger import delta_epsilon, omega_targets
from .model import AmeModel, forward, model_hash


@dataclass
class ImportanceReport:
    """Per-sample, per-group normalized scores with provenance and timing."""

    estimator: str
    params: dict
    per_sample: np.ndarray          # (n, p), rows on the simplex
    seconds: float
    forwards: int
    backwards: int
    model_id: str
    degenerate: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def n_samples(self) -> int:
        return self.per_sample.shape[0]

    @property
    def n_groups(self) -> int:
        return self.per_sample.shape[1]


def normalize_scores(raw: np.ndarray) -> tuple[np.ndarray, bool]:
    """Map signed raw scores to the simplex: a_i = |e_i| / sum_j |e_j|.

    An all-zero vector has no signal to normalize; it maps to uniform and
    the degenerate flag is set.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError(f"normalize_scores expects a non-empty vector, got shape {raw.shape}")
    mags = np.abs(raw)
    total = mags.sum()
    if total <= 0.0:
        return np.full(raw.size, 1.0 / raw.size), True
    return mags / total, False


def _normalize_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`normalize_scores` on every row of a (n, p) array at once."""
    mags = np.abs(np.asarray(raw, dtype=np.float64))
    totals = mags.sum(axis=1, keepdims=True)
    degenerate = totals <= 0.0
    out = np.where(degenerate, 1.0 / mags.shape[1], mags / np.where(degenerate, 1.0, totals))
    return out, degenerate[:, 0]


def _batches(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield np.arange(start, min(start + batch_size, n))


def explain_ame(model: AmeModel, x: np.ndarray, batch_size: int | None = None) -> ImportanceReport:
    """Attention read-out: the scores are the forward pass's own gating."""
    bs = batch_size or model.config.batch_size
    model.reset_pass_counts()
    start = time.perf_counter()
    rows = [forward(model, x[idx]).a.data for idx in _batches(x.shape[0], bs)]
    seconds = time.perf_counter() - start
    scores = np.concatenate(rows, axis=0)
    return ImportanceReport(
        estimator="ame", params={"batch_size": bs}, per_sample=scores,
        seconds=seconds, forwards=model.forward_passes, backwards=model.backward_passes,
        model_id=model_hash(model), degenerate=np.zeros(x.shape[0], dtype=bool))


def _saliency_target(model: AmeModel, xt: Tensor) -> Tensor:
    """Scalar whose input gradient carries per-sample saliency.

    Regression: the summed predictions. Classification: the summed
    log-probability of each sample's own predicted class (the same
    currency the masking benchmark measures in).
    """
    out = forward(model, xt)
    if model.config.task == "regression":
        return out.y.sum()
    picks = np.argmax(out.y.data, axis=1)
    mask = np.zeros_like(out.y.data)
    mask[np.arange(mask.shape[0]), picks] = 1.0
    return ((out.y * Tensor(mask)).sum(axis=1) + dc.EPS_LOG).log().sum()


def explain_saliency(model: AmeModel, x: np.ndarray,
                     batch_size: int | None = None) -> ImportanceReport:
    """Gradient magnitude per group: sum of |d target / d feature|."""
    bs = batch_size or model.config.batch_size
    groups = model.config.feature_partition
    model.reset_pass_counts()
    start = time.perf_counter()
    raw_rows = []
    for idx in _batches(x.shape[0], bs):
        xt = Tensor(x[idx], requires_grad=True)
        target = _saliency_target(model, xt)
        target.backward()
        model.count_backward()
        grad = np.abs(xt.grad)
        raw_rows.append(np.stack([grad[:, g].sum(axis=1) for g in groups], axis=1))
    seconds = time.perf_counter() - start
    scores, flags = _normalize_rows(np.concatenate(raw_rows, axis=0))
    return ImportanceReport(
        estimator="saliency", params={"batch_size": bs}, per_sample=scores,
        seconds=seconds, forwards=model.forward_passes, backwards=model.backward_passes,
        model_id=model_hash(model), degenerate=flags)


def explain_occlusion(model: AmeModel, x: np.ndarray,
                      baseline_value: float = 0.0) -> ImportanceReport:
    """Group-replacement degradation, one sample at a time (p+1 forwards each).

    Classification scores a group by the drop in log-probability of the
    originally predicted class; regression by the absolute shift of the
    prediction. Negative degradations clamp to zero.
    """
    cfg = model.config
    groups = cfg.feature_partition
    model.reset_pass_counts()
    start = time.perf_counter()
    raw = np.zeros((x.shape[0], len(groups)))
    for s in range(x.shape[0]):
        sample = x[s:s + 1]
        base_out = forward(model, sample)
        if cfg.task == "classification":
            pick = int(np.argmax(base_out.y.data[0]))
            ref = np.log(base_out.y.data[0, pick] + dc.EPS_LOG)
        else:
            ref = base_out.y.data[0, 0]
        for gi, group in enumerate(groups):
            masked = sample.copy()
            masked[0, group] = baseline_value
            out = forward(model, masked)
            if cfg.task == "classification":
                degradation = ref - np.log(out.y.data[0, pick] + dc.EPS_LOG)
            else:
                degradation = abs(out.y.data[0, 0] - ref)
            raw[s, gi] = max(0.0, degradation)
    seconds = time.perf_counter() - start
    scores, flags = _normalize_rows(raw)
    return ImportanceReport(
        estimator="occlusion", params={"baseline_value": baseline_value}, per_sample=scores,
        seconds=seconds, forwards=model.forward_passes, backwards=model.backward_passes,
        model_id=model_hash(model), degenerate=flags)


ESTIMATORS = {
    "ame": explain_ame,
    "saliency": explain_saliency,
    "occlusion": explain_occlusion,
}


# -- brute-force oracle ------------------------------------------------------


@dataclass
class ProbeConfig:
    """Architecture and training settings for the oracle's probe MLPs."""

    hidden: list[int] = field(default_factory=lambda: [8])
    task: str = "regression"
    num_classes: int = 2
    learning_rate: float = 0.01
    optimizer: str = "adam"
    epochs: int = 40
    batch_size: int = 32
    seed: int = 0


def _build_probe(rng, in_dim: int, probe: ProbeConfig):
    out_dim = probe.num_classes if probe.task == "classification" else 1
    head_act = "softmax" if probe.task == "classification" else "identity"
    layers = []
    prev = in_dim
    for k, width in enumerate(probe.hidden):
        layers.append(dc.init_dense(rng, prev, width, "relu", name=f"probe.hidden_{k}"))
        prev = width
    layers.append(dc.init_dense(rng, prev, out_dim, head_act, name="probe.head"))
    return layers


def _probe_forward(layers, xt: Tensor) -> Tensor:
    for layer in layers:
        xt = layer(xt)
    return xt


def _train_probe(layers, x: np.ndarray, y: np.ndarray, probe: ProbeConfig,
                 rng: np.random.Generator) -> None:
    params = [p for layer in layers for p in layer.parameters()]
    opt = Optimizer(probe.optimizer, probe.learning_rate)
    for _ in range(probe.epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], probe.batch_size):
            idx = order[start:start + probe.batch_size]
            pred = _probe_forward(layers, Tensor(x[idx]))
            if probe.task == "classification":
                loss = dc.loss_cross_entropy(pred, Tensor(y[idx]))
            else:
                loss = dc.loss_mae(pred, Tensor(y[idx]))
            loss.backward()
            opt.step(params)
            clear_grads(params)


def _probe_errors(layers, x: np.ndarray, y: np.ndarray, task: str) -> np.ndarray:
    pred = _probe_forward(layers, Tensor(x))
    if task == "classification":
        return dc.per_sample_cross_entropy(pred, Tensor(y)).data
    return dc.per_sample_mae(pred, Tensor(y)).data


def granger_oracle(train_xy: tuple[np.ndarray, np.ndarray],
                   heldout_xy: tuple[np.ndarray, np.ndarray],
                   feature_partition: list[list[int]],
                   probe: ProbeConfig) -> np.ndarray:
    """Target distributions from p+1 independently trained probes.

    Trains one probe on all raw features and one per group on the features
    with that group removed, then evaluates per-sample errors on held-out
    data and normalizes the error increases. Independent of any model's
    internal auxiliary pathway.
    """
    x_train, y_train = train_xy
    x_held, y_held = heldout_xy
    p = len(feature_partition)
    if x_train.shape[0] < 10 * p:
        raise ValueError(
            f"granger_oracle needs at least {10 * p} training samples for {p} groups, "
            f"got {x_train.shape[0]}")
    rng = np.random.default_rng(probe.seed)
    all_features = sorted(i for group in feature_partition for i in group)

    layers_all = _build_probe(rng, len(all_features), probe)
    _train_probe(layers_all, x_train[:, all_features], y_train, probe, rng)
    eps_all = _probe_errors(layers_all, x_held[:, all_features], y_held, probe.task)

    eps_excl = np.zeros((x_held.shape[0], p))
    for gi, group in enumerate(feature_partition):
        kept = [i for i in all_features if i not in set(group)]
        if kept:
            layers = _build_probe(rng, len(kept), probe)
            _train_probe(layers, x_train[:, kept], y_train, probe, rng)
            eps_excl[:, gi] = _probe_errors(layers, x_held[:, kept], y_held, probe.task)
        else:
            # nothing left: the probe degenerates to a constant predictor
            layers = _build_probe(rng, 1, probe)
            zeros_tr = np.zeros((x_train.shape[0], 1))
            _train_probe(layers, zeros_tr, y_train, probe, rng)
            eps_excl[:, gi] = _probe_errors(layers, np.zeros((x_held.shape[0], 1)),
                                            y_held, probe.task)

    return omega_targets(delta_epsilon(eps_excl, eps_all))


# -- report IO ---------------------------------------------------------------


def report_columns(p: int) -> list[str]:
    return (["sample_id", "estimator"] + [f"group_{i + 1}" for i in range(p)]
            + ["seconds", "forwards", "backwards"])


def report_rows(report: ImportanceReport) -> list[dict]:
    """Flatten a report into CSV/JSON row dicts (shared schema)."""
    rows = []
    for s in range(report.n_samples):
        row: dict = {"sample_id": s, "estimator": report.estimator}
        for i in range(report.n_groups):
            row[f"group_{i + 1}"] = float(report.per_sample[s, i])
        row["seconds"] = report.seconds
        row["forwards"] = report.forwards
        row["backwards"] = report.backwards
        rows.append(row)
    return rows


def write_importance_csv(reports: list[ImportanceReport], path) -> None:
    if not reports:
        raise ValueError("write_importance_csv: no reports")
    columns = report_columns(reports[0].n_groups)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for report in reports:
            for row in report_rows(report):
                writer.writerow(row)


def read_importance_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row: dict = {"sample_id": int(raw["sample_id"]), "estimator": raw["estimator"]}
            for key, value in raw.items():
                if key.startswith("group_") or key == "seconds":
                    row[key] = float(value)
                elif key in ("forwards", "backwards"):
                    row[key] = int(value)
            rows.append(row)
        return rows


def write_importance_json(reports: list[ImportanceReport], path) -> None:
    payload = []
    for report in reports:
        payload.append({
            "estimator": report.estimator,
            "params": report.params,
            "model_id": report.model_id,
            "rows": report_rows(report),
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
