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
from .model import AmeModel, AmeOutput, forward, write_csv

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
    n, slots, out = y_slots.shape
    # one row per (sample, slot), sample-major as the reshape lays them out
    y = np.repeat(y, slots, axis=0) if y.ndim == 2 else y.reshape(n * slots, out)
    return per_sample_error(y_slots.reshape(n * slots, out), Tensor(y), task).reshape(n, slots)


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


def _entropy_rows(omega: np.ndarray) -> np.ndarray:
    terms = np.where(omega > 0.0, omega * np.log(np.where(omega > 0.0, omega, 1.0)), 0.0)
    return terms.sum(axis=1)


def mge_loss(omega: np.ndarray, a: Tensor) -> Tensor:
    """Batch-mean KL(omega || a) with omega held constant.

    Gradients flow only into the attention distribution. Row-wise the loss
    is sum(omega*log(omega)) - sum(omega*log(a)); the first term has no
    parameters and is added as a constant so the reported value is a true
    KL divergence.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape != a.shape:
        raise ValueError(f"mge_loss: omega shape {omega.shape} does not match attention {a.shape}")
    if omega.shape[0] == 0:
        raise ValueError("mge_loss: empty batch")
    entropy = Tensor(_entropy_rows(omega))
    cross = (Tensor(omega) * a.log()).sum(axis=1)
    return (entropy - cross).mean()


def total_loss(main: Tensor, mge: Tensor | None, aux_losses: Tensor | None,
               alpha: float, beta: float) -> Tensor:
    """Blend (1-alpha)*main + alpha*mge + beta*mean(aux_losses).

    aux_losses holds one mean error per auxiliary probe, shape (k,). The
    beta term gives the auxiliary predictors their training signal; it is
    reported separately in logs so the two-way blend stays visible. With
    alpha == 0 the MGE tensor may be omitted entirely, and with beta == 0
    the auxiliary losses.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    loss = main * (1.0 - alpha)
    if alpha > 0.0:
        if mge is None:
            raise ValueError("alpha > 0 requires an MGE term")
        loss = loss + mge * alpha
    if beta > 0.0 and aux_losses is not None:
        loss = loss + aux_losses.sum() * (beta / aux_losses.size)
    return loss


@dataclass
class BatchLosses:
    """All tape-level loss terms of one batch, plus the detached targets."""

    total: Tensor
    main: Tensor
    mge_value: float
    aux_mean: float
    targets: GrangerTargets


def batch_losses(model: AmeModel, output: AmeOutput, y_true) -> BatchLosses:
    """Assemble the full objective for one forward pass."""
    cfg = model.config
    if not isinstance(y_true, Tensor):
        y_true = Tensor(y_true)
    if np.any(output.a.data <= 0.0):
        # softmax underflow: only reachable with wildly diverged parameters
        raise FloatingPointError("attention distribution underflowed to zero; "
                                 "training diverged")
    main = per_sample_error(output.y, y_true, cfg.task).mean()

    eps = aux_errors(output.y_aux, y_true, cfg.task)
    targets = GrangerTargets.from_errors(eps)
    aux_losses = eps.mean(axis=0)  # one per probe
    aux_mean = float(np.mean(aux_losses.data))

    mge_value = float(np.mean(kl_divergence(targets.omega, output.a.data)))
    mge_term = mge_loss(targets.omega, output.a) if cfg.alpha > 0.0 else None
    total = total_loss(main, mge_term, aux_losses, cfg.alpha, cfg.aux_weight)
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
        sums += len(idx) * np.array([losses.main.item(), losses.mge_value, losses.aux_mean])
    return {"main_loss": sums[0] / n, "mge": sums[1] / n, "aux_loss_mean": sums[2] / n}


def train_epoch(model: AmeModel, opt: Optimizer, x: np.ndarray, y: np.ndarray,
                rng: np.random.Generator) -> dict:
    """One pass of minibatch updates in an order drawn from `rng`."""
    return _epoch(model, x, y, rng.permutation(x.shape[0]), opt)


def evaluate(model: AmeModel, x: np.ndarray, y: np.ndarray) -> dict:
    """Metrics without updates, batches in row order."""
    return _epoch(model, x, y, np.arange(x.shape[0]), None)


def _objective(metrics: dict, alpha: float, beta: float) -> float:
    return ((1.0 - alpha) * metrics["main_loss"] + alpha * metrics["mge"]
            + beta * metrics["aux_loss_mean"])


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
        obj = _objective(val_metrics, cfg.alpha, cfg.aux_weight)
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
