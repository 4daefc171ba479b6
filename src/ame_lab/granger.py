"""Granger-causal training objective.

The contribution of expert i to one decision is measured by how much the
auxiliary prediction error grows when that expert's information is
removed: delta_i = eps_without_i - eps_with_all. Clamped and normalized
per sample, the deltas form a target distribution over experts; the mean
KL divergence from that target to the attention distribution (the MGE)
is blended into the total loss and doubles as a held-out quality proxy
for the importance estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import (
    Optimizer,
    Tensor,
    clear_grads,
    optimizer_step,
    per_sample_cross_entropy,
    per_sample_mae,
)
from .model import AmeConfig, AmeModel, AmeOutput, forward, write_csv

OMEGA_FLOOR = 1e-12  # below this total clamped delta, fall back to uniform

TRAINING_LOG_COLUMNS = ("epoch", "split", "main_loss", "mge", "aux_loss_mean", "alpha")


@dataclass
class GrangerTargets:
    """Per-sample error decomposition; plain arrays, detached from the tape."""

    eps_excl: np.ndarray   # (n, p) error without expert i
    eps_all: np.ndarray    # (n,)   error with all experts
    delta_eps: np.ndarray  # (n, p) eps_excl - eps_all
    omega: np.ndarray      # (n, p) normalized target distribution

    @classmethod
    def from_errors(cls, eps: Tensor) -> "GrangerTargets":
        """Targets from the (n, p+1) error tensor of `aux_errors`: column 0
        with all experts, column i+1 without expert i."""
        eps_excl, eps_all = eps.data[:, 1:].copy(), eps.data[:, 0].copy()
        delta = delta_epsilon(eps_excl, eps_all)
        return cls(eps_excl=eps_excl, eps_all=eps_all, delta_eps=delta,
                   omega=omega_targets(delta))


def per_sample_error(y_hat: Tensor, y_true: Tensor, task: str) -> Tensor:
    if task == "classification":
        return per_sample_cross_entropy(y_hat, y_true)
    return per_sample_mae(y_hat, y_true)


def aux_errors(y_slots: Tensor, y_true, task: str) -> Tensor:
    """Per-sample errors (n, s) of stacked probe predictions y_slots, (n, s, out),
    against y_true: (n, out), shared by every slot, or (n, s, out), one per slot.

    Uses the task's auxiliary loss: MAE for regression, categorical
    cross-entropy for classification. Entries stay on the tape so the
    auxiliary predictors can be trained from them.
    """
    y = y_true.data if isinstance(y_true, Tensor) else np.asarray(y_true, dtype=np.float64)
    if y.ndim == 2:
        y = np.broadcast_to(y[:, None, :], y_slots.shape)
    return per_sample_error(y_slots, Tensor(y), task)


def delta_epsilon(eps_excl: np.ndarray, eps_all: np.ndarray) -> np.ndarray:
    """Error decrease attributable to each expert, (n, p): eps_excl (n, p)
    minus eps_all (n,) in every column."""
    eps_excl = np.asarray(eps_excl, dtype=np.float64)
    eps_all = np.asarray(eps_all, dtype=np.float64)
    if eps_excl.ndim != 2 or eps_all.shape != eps_excl.shape[:1]:
        raise ValueError(f"delta_epsilon needs (n, p), (n,); got {eps_excl.shape}, {eps_all.shape}")
    return eps_excl - eps_all[:, None]


def omega_targets(delta_eps: np.ndarray) -> np.ndarray:
    """Normalize each row of clamped (n, p) deltas into a distribution.

    Negative deltas (experts whose removal helps) are clamped to zero; if
    everything clamps away the row falls back to uniform, the
    attribution-neutral choice.
    """
    clamped = np.maximum(np.asarray(delta_eps, dtype=np.float64), 0.0)
    totals = clamped.sum(axis=1, keepdims=True)
    degenerate = totals <= OMEGA_FLOOR
    return np.where(degenerate, 1.0 / clamped.shape[1],
                    clamped / np.where(degenerate, 1.0, totals))


def kl_divergence(omega: np.ndarray, a: np.ndarray) -> np.ndarray:
    """KL(omega || a) along the last axis, with 0*log(0/a) taken as 0.

    `a` must be strictly positive (softmax output always is). The sum is
    clipped at 0: for rows a few ulps apart it can round to about -2e-17, and
    a KL divergence is never negative.
    """
    omega = np.asarray(omega, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if omega.shape != a.shape:
        raise ValueError(f"kl_divergence: shapes {omega.shape} and {a.shape} differ")
    if np.any(a <= 0.0):
        raise ValueError("kl_divergence: second argument must be strictly positive")
    terms = np.where(omega > 0.0, omega * (np.log(np.where(omega > 0.0, omega, 1.0)) - np.log(a)), 0.0)
    return np.maximum(terms.sum(axis=-1), 0.0)


def _objective(cfg: AmeConfig, main_loss: float, mge: float, aux_loss_mean: float) -> float:
    """The Granger objective (1-alpha)*main + alpha*MGE + beta*aux, beta being
    the config's `aux_weight`: the training loss of a batch and the early
    stopping criterion of a validation pass."""
    return (1.0 - cfg.alpha) * main_loss + cfg.alpha * mge + cfg.aux_weight * aux_loss_mean


@dataclass
class BatchLosses:
    """The batch's objective as one tape node, its terms as plain values, and
    the detached targets."""

    total: Tensor
    main: float
    mge_value: float
    aux_mean: float
    targets: GrangerTargets


def batch_losses(model: AmeModel, output: AmeOutput, y_true) -> BatchLosses:
    """Assemble the objective (1-alpha)*main + alpha*MGE + beta*aux for one
    forward pass, beta being the config's `aux_weight`.

    main is the batch-mean error of the prediction, MGE the batch-mean
    KL(omega || a) and aux the mean over probes of each probe's batch-mean
    error. `total` is one tape node whose gradient is that blend's closed
    form with omega held constant: the attention is a parent only when
    alpha > 0, and the probes' (n, p+1) errors only when beta > 0, so with
    beta == 0 no gradient reaches the probes. Batch means multiply by 1/n.
    """
    cfg = model.config
    alpha, beta = cfg.alpha, cfg.aux_weight
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    n = output.a.shape[0]
    if n == 0:
        raise ValueError("batch_losses: empty batch")
    if not isinstance(y_true, Tensor):
        y_true = Tensor(y_true)
    a = output.a.data
    if np.any(a <= 0.0):
        # softmax underflow: only reachable with wildly diverged parameters
        raise FloatingPointError("attention distribution underflowed to zero; "
                                 "training diverged")
    errors = per_sample_error(output.y, y_true, cfg.task)
    eps = aux_errors(output.y_aux, y_true, cfg.task)
    targets = GrangerTargets.from_errors(eps)
    omega, slots, scale = targets.omega, eps.shape[1], 1.0 / n
    main = float(errors.data.sum() * scale)
    aux_mean = float(np.mean(eps.data.sum(axis=0) * scale))  # the mean of the per-probe means
    mge_value = float(np.mean(kl_divergence(omega, a)))

    parents = (errors,) + ((output.a,) if alpha > 0.0 else ()) + ((eps,) if beta > 0.0 else ())

    def back(g):
        grads = [np.full(n, g * (1.0 - alpha) * scale)]
        if alpha > 0.0:
            grads.append(-(g * alpha * scale) * omega / a)
        if beta > 0.0:
            grads.append(np.full(eps.shape, g * (beta / slots) * scale))
        return grads

    total = Tensor(_objective(cfg, main, mge_value, aux_mean),
                   _parents=parents, _backward_fn=back)
    return BatchLosses(total=total, main=main, mge_value=mge_value,
                       aux_mean=aux_mean, targets=targets)


def batch_slices(n: int, batch_size: int):
    """Consecutive slices of at most batch_size rows that cover range(n)."""
    return (slice(start, start + batch_size) for start in range(0, n, batch_size))


def trainable_parameters(model: AmeModel) -> list:
    """Everything when the auxiliary term is active; otherwise the
    auxiliary predictors receive no gradient and are left untouched."""
    if model.config.aux_weight > 0.0:
        return model.parameters()
    return model.main_parameters()


def _epoch(model: AmeModel, x: np.ndarray, y: np.ndarray, order: np.ndarray,
           opt: Optimizer | None) -> dict:
    """One pass over the rows of x in `order`, in minibatches of the config's
    batch size, with an update after each when `opt` is given. Returns the
    sample-weighted mean metrics."""
    n = order.size
    if n == 0:
        raise ValueError("empty dataset")
    params = trainable_parameters(model)
    sums = np.zeros(3)
    for rows in batch_slices(n, model.config.batch_size):
        idx = order[rows]
        losses = batch_losses(model, forward(model, x[idx]), y[idx])
        if opt is not None:
            losses.total.backward()
            model.count_backward()
            optimizer_step(opt, params)
            clear_grads(params)
        sums += len(idx) * np.array([losses.main, losses.mge_value, losses.aux_mean])
    return {"main_loss": sums[0] / n, "mge": sums[1] / n, "aux_loss_mean": sums[2] / n}


def train_epoch(model: AmeModel, opt: Optimizer, x: np.ndarray, y: np.ndarray,
                rng: np.random.Generator) -> dict:
    """One pass of minibatch updates in an order drawn from `rng`."""
    return _epoch(model, x, y, rng.permutation(x.shape[0]), opt)


def evaluate(model: AmeModel, x: np.ndarray, y: np.ndarray) -> dict:
    """Metrics without updates, batches in row order."""
    return _epoch(model, x, y, np.arange(x.shape[0]), None)


def fit(model: AmeModel, train_xy: tuple[np.ndarray, np.ndarray],
        val_xy: tuple[np.ndarray, np.ndarray] | None = None,
        epochs: int | None = None) -> list[dict]:
    """Train with early stopping on the validation objective.

    Stops once the validation objective has not improved for the config's
    `patience` consecutive epochs and restores the best parameters seen.
    `epochs` overrides the config's. Returns training-log rows (one train
    row and, when a validation split is given, one val row per epoch).
    """
    cfg = model.config
    epochs = cfg.epochs if epochs is None else epochs
    opt = Optimizer(cfg.optimizer, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed + 1)  # decoupled from init stream
    params = trainable_parameters(model)

    rows: list[dict] = []
    best_obj = np.inf
    best_state: list[np.ndarray] | None = None
    since_best = 0
    for epoch in range(1, epochs + 1):
        train_metrics = train_epoch(model, opt, train_xy[0], train_xy[1], rng)
        if not all(np.isfinite(v) for v in train_metrics.values()):
            raise FloatingPointError(f"training diverged at epoch {epoch}: {train_metrics}")
        rows.append({"epoch": epoch, "split": "train", **train_metrics, "alpha": cfg.alpha})
        if val_xy is None:
            continue
        val_metrics = evaluate(model, val_xy[0], val_xy[1])
        rows.append({"epoch": epoch, "split": "val", **val_metrics, "alpha": cfg.alpha})
        obj = _objective(cfg, **val_metrics)
        if obj < best_obj:
            best_obj = obj
            best_state = [p.data.copy() for p in params]
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    if best_state is not None:
        for p, saved in zip(params, best_state):
            p.data = saved
    return rows


def write_training_log(rows: list[dict], path) -> None:
    write_csv(path, TRAINING_LOG_COLUMNS, rows)
