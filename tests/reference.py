"""References the engine's losses are checked against.

- `frozen_objective` is the Granger objective in plain numpy, its targets
  held constant: the value function that finite differences differentiate to
  check the tape's gradients (criterion 1). It shares no code with the tape
  node `granger.batch_losses` builds.
- `chain_error` and `chain_total` build the losses as chains of elementwise
  tape ops, as the engine once did. Each single-node loss must reproduce
  their values and gradients bit for bit.
"""

import numpy as np

from ame_lab.diffcore import EPS_LOG, Tensor
from ame_lab.granger import GrangerTargets


def errors(pred: np.ndarray, true: np.ndarray, task: str) -> np.ndarray:
    """The task's error over the last axis: cross-entropy or mean absolute error."""
    if task == "classification":
        return -(true * np.log(pred + EPS_LOG)).sum(axis=-1)
    return np.abs(pred - true).mean(axis=-1)


def frozen_objective(y_hat, a, y_aux, y, omega, task: str, alpha: float, beta: float) -> float:
    """(1-alpha)·mean error + alpha·mean KL(omega || a) + beta·mean probe error,
    for a prediction y_hat (n, out), attention a (n, p), probe predictions
    y_aux (n, p+1, out) and targets y (n, out), omega held constant."""
    logs = np.log(np.where(omega > 0.0, omega, 1.0)) - np.log(a)
    kl = np.where(omega > 0.0, omega * logs, 0.0).sum(axis=1)
    return float((1.0 - alpha) * errors(y_hat, y, task).mean() + alpha * kl.mean()
                 + beta * errors(y_aux, y[:, None, :], task).mean())


def _abs(t: Tensor) -> Tensor:
    sign = np.sign(t.data)
    return Tensor(np.abs(t.data), _parents=(t,), _backward_fn=lambda g: (g * sign,))


def chain_error(pred: Tensor, true: Tensor, task: str) -> Tensor:
    """Per-row error of a (n, d) batch as a chain of elementwise tape ops."""
    if task == "classification":
        return -((pred + EPS_LOG).log() * true).sum(axis=1)
    return _abs(pred - true).mean(axis=1)


def chain_total(output, y: np.ndarray, task: str, alpha: float, beta: float):
    """The objective of `batch_losses` as a chain of tape ops: the total, the
    main term and the targets."""
    n, slots, out = output.y_aux.shape
    main = chain_error(output.y, Tensor(y), task).mean()
    eps = chain_error(output.y_aux.reshape(n * slots, out),
                      Tensor(np.repeat(y, slots, axis=0)), task).reshape(n, slots)
    targets = GrangerTargets.from_errors(eps)
    total = main * (1.0 - alpha)
    if alpha > 0.0:
        omega = targets.omega
        entropy = np.where(omega > 0.0, omega * np.log(np.where(omega > 0.0, omega, 1.0)), 0.0)
        cross = (Tensor(omega) * output.a.log()).sum(axis=1)
        total = total + (Tensor(entropy.sum(axis=1)) - cross).mean() * alpha
    if beta > 0.0:
        aux = eps.mean(axis=0)
        total = total + aux.sum() * (beta / aux.size)
    return total, main, targets
