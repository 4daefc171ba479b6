"""Importance estimators behind one report schema.

Three estimators over a trained model: the attention read-out (one forward
pass), gradient saliency (forward + backward), and occlusion (one forward
over each batch and its p masked copies, whose experts read each row once).
All raw scores pass through the same absolute-value normalizing transform
so estimates land on the simplex and are comparable across estimators.

Also hosts the brute-force oracle: fresh probe predictors trained on raw
features with one group left out at a time, yielding an
implementation-independent target distribution to validate the in-model
auxiliary pathway against.
"""

from __future__ import annotations

import copy
import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Optimizer, Tensor, clear_grads
from .granger import GrangerTargets, aux_errors, batch_slices
from .model import (TASKS, AmeModel, Config, ConfigError, _probe_stack, _check_partition,
                    at_least, atomic_open, choice, draw_slot, expert_states, forward,
                    group_inputs, mix, setting, write_csv)


@dataclass
class ImportanceReport:
    """Per-sample, per-group normalized scores with provenance and timing."""

    estimator: str
    params: dict
    per_sample: np.ndarray          # (n, p), rows on the simplex
    seconds: float
    forwards: int                   # model forwards, times the input copies each one reads
    backwards: int
    degenerate: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def n_samples(self) -> int:
        return self.per_sample.shape[0]

    @property
    def n_groups(self) -> int:
        return self.per_sample.shape[1]


def normalize_scores(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map each row of signed raw scores, shape (n, p), to the simplex:
    a_i = |e_i| / sum_j |e_j|.

    An all-zero row has no signal to normalize; it maps to uniform and its
    degenerate flag is set. Returns the scores and the (n,) flags. Each row
    is summed C-ordered, so its bits do not depend on the layout of `raw`.
    """
    mags = np.abs(raw, dtype=np.float64, order="C")
    if mags.ndim != 2 or mags.shape[1] == 0:
        raise ValueError(f"normalize_scores expects (n, p) scores with p >= 1, got {mags.shape}")
    totals = mags.sum(axis=1)
    degenerate = totals <= 0.0
    if degenerate.any():  # an all-zero row reads 1 / p in every entry
        mags[degenerate] = 1.0
        totals[degenerate] = mags.shape[1]
    return mags / totals[:, None], degenerate


# Every estimator is called as ESTIMATORS[name](model, x, *, batch_size=None,
# baseline_value=0.0) and records in its report's params the values it uses.


def _estimate(name: str, model: AmeModel, x: np.ndarray, batch_size: int | None, score,
              copies: int = 1, **params) -> ImportanceReport:
    """The one estimator loop: `score` maps each slice of x of at most batch_size
    rows (default: the model's) to its simplex rows and degenerate flags.
    `seconds` times every slice's scoring; `forwards` counts model forwards
    times the `copies` of each input row that one forward reads."""
    bs = model.config.batch_size if batch_size is None else batch_size
    if bs < 1:
        raise ValueError(f"batch_size must be >= 1, got {bs}")
    if x.shape[0] == 0:
        raise ValueError(f"the {name} estimator needs at least one row, got 0")
    model.reset_pass_counts()
    start = time.perf_counter()
    parts = [score(x[batch]) for batch in batch_slices(x.shape[0], bs)]
    seconds = time.perf_counter() - start
    scores, flags = (np.concatenate(arrays) for arrays in zip(*parts))
    return ImportanceReport(
        estimator=name, params={"batch_size": bs, **params}, per_sample=scores,
        seconds=seconds, forwards=model.forward_passes * copies,
        backwards=model.backward_passes, degenerate=flags)


def explain_ame(model: AmeModel, x: np.ndarray, *, batch_size: int | None = None,
                baseline_value: float = 0.0) -> ImportanceReport:
    """Attention read-out: the scores are the forward pass's own gating. Reads
    batch_size rows per forward (default: the model's); no baseline."""
    return _estimate("ame", model, x, batch_size, lambda xb: (
        forward(model, xb).a.data, np.zeros(xb.shape[0], dtype=bool)))


def _saliency_target(model: AmeModel, groups: Tensor) -> Tensor:
    """Scalar whose gradient at the tracked group inputs carries per-sample
    saliency.

    Regression: the summed predictions. Classification: the summed
    log-probability of each sample's own predicted class (the same
    currency the masking benchmark measures in).
    """
    out = mix(model, *expert_states(model, groups))
    if model.config.task == "regression":
        return out.y.sum()
    picks = np.argmax(out.y.data, axis=1)
    mask = np.zeros_like(out.y.data)
    mask[np.arange(mask.shape[0]), picks] = 1.0
    return ((out.y * Tensor(mask)).sum(axis=1) + dc.EPS_LOG).log().sum()


def explain_saliency(model: AmeModel, x: np.ndarray, *, batch_size: int | None = None,
                     baseline_value: float = 0.0) -> ImportanceReport:
    """Gradient magnitude per group: sum of |d target / d feature|, read at the
    tracked group inputs, whose slice i holds group i's features. Reads
    batch_size rows per forward and backward; no baseline. The parameters are
    off the tape meanwhile, so the backward computes the inputs' gradient
    only and leaves none on the model."""
    def score(xb):
        groups = Tensor(group_inputs(model, xb), requires_grad=True)
        _saliency_target(model, groups).backward()
        model.count_backward()
        return normalize_scores(dc.reduce_rows(np.add, np.abs(groups.grad))[..., 0])

    params = model.parameters()
    tracked = [t.requires_grad for t in params]
    try:
        for t in params:
            t.requires_grad = False
        return _estimate("saliency", model, x, batch_size, score)
    finally:
        for t, flag in zip(params, tracked):
            t.requires_grad = flag


def _masked_forward(model: AmeModel, x: np.ndarray, picked: np.ndarray,
                    baseline_value: float) -> np.ndarray:
    """Outputs (n, k, out) of k copies of each row of x, in copy j of row s the
    groups that picked[s, j] (an (n, k, p) boolean array) picks set to
    baseline_value. The experts read the n rows and one all-baseline row once;
    expert i reads group i only, so copy j's state of expert i is the
    baseline's where picked[s, j, i] and row s's elsewhere. One mix stage reads
    all n·k copies, each as it would alone: the outputs are bitwise those of
    forwards over the masked inputs."""
    n, k, p = picked.shape
    rows = np.concatenate([x, np.full((1, x.shape[1]), baseline_value)])
    # each copy's state of expert i as a flat (row, expert) index; a take is
    # several times faster than a broadcast np.where at p = 64
    index = np.where(picked, n * p, np.arange(0, n * p, p)[:, None, None]) + np.arange(p)
    h, c = (Tensor(np.take(t.data.reshape((n + 1) * p, -1), index, axis=0).reshape(n * k, p, -1))
            for t in expert_states(model, group_inputs(model, rows)))
    return mix(model, h, c).y.data.reshape(n, k, -1)


def explain_occlusion(model: AmeModel, x: np.ndarray, *, batch_size: int | None = None,
                      baseline_value: float = 0.0) -> ImportanceReport:
    """Group-replacement degradation, each group in turn set to baseline_value.
    One forward reads each slice of batch_size samples (default: the model's)
    and its p masked copies, so scores do not depend on batch_size and
    `forwards` counts one per slice and input copy.

    Classification scores the drop in log-probability of the class the
    unmasked copy predicts, regression the absolute shift; both clamp at 0.
    """
    p = model.config.n_experts
    # copy 0 of a sample is unmasked, copy i+1 masks group i
    copies = np.concatenate([np.zeros((1, p), dtype=bool), np.eye(p, dtype=bool)])

    def score(xb):
        b = xb.shape[0]
        y = _masked_forward(model, xb, np.tile(copies, (b, 1, 1)), baseline_value)
        if model.config.task == "classification":
            logq = np.log(y[np.arange(b), :, np.argmax(y[:, 0], axis=1)] + dc.EPS_LOG)
            degradation = logq[:, :1] - logq[:, 1:]
        else:
            degradation = np.abs(y[:, 1:, 0] - y[:, :1, 0])
        return normalize_scores(np.maximum(degradation, 0.0))  # keeps NaN for the caller to refuse
    return _estimate("occlusion", model, x, batch_size, score, copies=p + 1,
                     baseline_value=baseline_value)


ESTIMATORS = {
    "ame": explain_ame,
    "saliency": explain_saliency,
    "occlusion": explain_occlusion,
}


# -- brute-force oracle ------------------------------------------------------


@dataclass
class ProbeConfig(Config):
    """Architecture and training settings for the oracle's probe MLPs."""

    hidden: list[int] = setting([8], lambda v: all(w >= 1 for w in v), "widths >= 1")
    learning_rate: float = setting(0.01, lambda v: v > 0.0, "> 0")
    optimizer: str = choice("adam", dc.OPTIMIZERS)
    epochs: int = at_least(40, 1)
    batch_size: int = at_least(32, 1)
    seed: int = at_least(0, 0)


def granger_oracle(train_xy: tuple[np.ndarray, np.ndarray],
                   heldout_xy: tuple[np.ndarray, np.ndarray],
                   feature_partition: list[list[int]],
                   probe: ProbeConfig, task: str) -> np.ndarray:
    """Target distributions from p+1 independently trained probes.

    Trains one probe on all raw features and one per group on the features
    with that group removed, then evaluates per-sample errors on held-out
    data and normalizes the error increases. Independent of any model's
    internal auxiliary pathway. The probes predict the targets' columns: a
    regression value, or for classification one-hot classes through a
    softmax. `feature_partition` must split x's columns into groups the way
    `AmeConfig` requires; any other is a ConfigError.

    The probes are one masked layer stack trained side by side; each has its
    own minibatch order and batch-mean loss, so it gets exactly its own
    gradient and update. A seed draws every probe's initial values and
    orders in the order of training the probes one after another.
    """
    probe.check()
    if task not in TASKS:
        raise ConfigError(f"task must be 'regression' or 'classification', got {task!r}")
    _check_partition(feature_partition)
    x_train, y_train = train_xy
    x_held, y_held = heldout_xy
    width = sum(map(len, feature_partition))
    if x_train.shape[1] != width or x_held.shape[1] != width:
        raise ConfigError(f"feature_partition covers {width} columns, but x has "
                          f"{x_train.shape[1]} and held-out x {x_held.shape[1]}")
    n, p = x_train.shape[0], len(feature_partition)
    if n < 10 * p:
        raise ValueError(
            f"granger_oracle needs at least {10 * p} training samples for {p} groups, "
            f"got {n}")
    out_dim = y_train.shape[1]
    head_act = "softmax" if task == "classification" else "identity"
    # slot 0 reads all features, slot i+1 all but group i
    net = _probe_stack("probe", feature_partition, [width, *probe.hidden, out_dim], head_act)

    rng = np.random.default_rng(probe.seed)
    streams = []  # probe j's minibatch orders continue from just after its init
    for j in range(p + 1):
        draw_slot(rng, net.layers, j, net.layers[0].mask[j, 0])
        streams.append(copy.deepcopy(rng))
        for _ in range(probe.epochs):
            rng.permutation(n)

    params = net.parameters()
    opt = Optimizer(probe.optimizer, probe.learning_rate)
    for _ in range(probe.epochs):
        orders = np.stack([s.permutation(n) for s in streams], axis=1)  # (n, p+1)
        for rows in batch_slices(n, probe.batch_size):
            idx = orders[rows]  # probe j reads rows idx[:, j]
            errors = aux_errors(net(Tensor(x_train[idx])), y_train[idx], task)
            (errors.sum() * (1.0 / idx.shape[0])).backward()  # sum of per-probe batch means
            dc.optimizer_step(opt, params)
            clear_grads(params)

    return GrangerTargets.from_errors(aux_errors(net(Tensor(x_held)), y_held, task)).omega


# -- report IO ---------------------------------------------------------------


def report_columns(p: int) -> list[str]:
    return (["sample_id", "estimator"] + [f"group_{i + 1}" for i in range(p)]
            + ["seconds", "forwards", "backwards"])


def report_rows(report: ImportanceReport) -> list[dict]:
    """Flatten a report into CSV/JSON row dicts (shared schema)."""
    groups = [f"group_{i + 1}" for i in range(report.n_groups)]
    return [{"sample_id": s, "estimator": report.estimator, **dict(zip(groups, scores)),
             "seconds": report.seconds, "forwards": report.forwards, "backwards": report.backwards}
            for s, scores in enumerate(report.per_sample.tolist())]


def write_importance_csv(reports: list[ImportanceReport], path) -> None:
    if len({report.n_groups for report in reports}) != 1:
        raise ValueError("write_importance_csv: needs one or more reports over the same groups")
    write_csv(path, report_columns(reports[0].n_groups),
              [row for report in reports for row in report_rows(report)])


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


def write_importance_json(reports: list[ImportanceReport], path, model_id: str) -> None:
    """Each report as an entry that names the model it read by `model_id`
    (the caller's `model_hash`; reports carry no model identity)."""
    payload = [{"estimator": report.estimator, "params": report.params,
                "model_id": model_id, "rows": report_rows(report)} for report in reports]
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
