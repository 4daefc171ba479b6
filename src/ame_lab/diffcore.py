"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every value is carried by a :class:`Tensor` wrapping a C-contiguous
``numpy`` float64 array. Operations build a define-by-run tape; calling
``backward()`` on a scalar walks the tape in reverse topological order and
accumulates gradients into every participating tensor that requires them.
An op none of whose operands leads to such a tensor stays off the tape, and
the linear maps compute no gradient for an operand that is off the tape.

Forward matrix products are BLAS matrix-vector products, one per output row
(``np.matmul`` over a unit row axis): per row and map when each map reads
its own input, and per row over the flattened weights of a stack whose maps
share one input. The arguments of each call depend only on the layer's
shape, never on the batch extent, so a batched forward pass is bit-identical
to running the same samples one by one. The model layer relies on that
equivalence; it assumes BLAS returns the same bits for identical calls,
which the bitwise tests check. Map i of a shared-input stack agrees with map
i run alone to a few ulps of its terms' magnitude, not bitwise: BLAS may sum
a map's terms in an order that depends on its neighbours. Gradients of the
linear maps are BLAS matrix products: their summation order depends on the
shapes, so they are not batch-independent, and nothing needs them to be. A
run still replays byte for byte on the same machine.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

EPS_LOG = 1e-12  # additive guard inside cross-entropy logs

# Version of the numerics a trained model depends on: the forward and
# backward kernels, the optimizer, the parameter layout and the order of the
# initial draws. Run ids hash it, so runs of different numerics never share a
# directory. 1 was the einsum forward, 2 the BLAS forward with a separate
# all-experts probe, 3 one probe stack of p+1, 4 one gemv per row over a
# shared-input stack's flattened weights, 5 one slot-major draw, 6 one op
# each for the attention score and the combine.
NUMERICS_VERSION = 6

# OpenBLAS splits one gemv across its threads from 115,200 x 4 weights up
# (interface/gemv.c), which on a 2-core host can turn a sub-millisecond call
# into a fixed 8 ms. A shared-input stack is read in runs of whole maps that
# stay below this size; one map above it is one call, as it must be.
GEMV_SPLIT_WEIGHTS = 115_200 * 4

ACTIVATIONS = ("identity", "tanh", "relu", "softmax")


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradientError(RuntimeError):
    """Raised when a gradient is requested or consumed where none exists."""


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Dense float64 array participating in the gradient tape.

    `data` is immutable by convention once the tensor has been used in an
    op; optimizers mutate parameter data in place only between tapes.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 _parents: tuple = (), _backward_fn=None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        for parent in _parents:
            if parent.requires_grad or parent._parents:
                break
        else:  # no parent leads to a parameter: stay off the tape
            _parents, _backward_fn = (), None
        self._parents = _parents
        self._backward_fn = _backward_fn

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # -- tape ----------------------------------------------------------

    def _tracked(self) -> bool:
        return self.requires_grad or self._parents != ()

    def backward(self) -> None:
        """Populate grads of every reachable requires_grad tensor.

        Repeated calls without clearing grads accumulate, matching the
        usual multi-loss convention. A backward function may return its
        incoming gradient or views of it (concat's slices, an unbroadcast
        that is a no-op), so none may write into the gradient it is given.
        """
        if self.data.size != 1:
            raise DimensionError(f"backward() needs a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            if node._backward_fn is None:
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if not parent._tracked():
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg

    # -- elementwise arithmetic ----------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other
        return Tensor(a.data + b.data, _parents=(a, b),
                      _backward_fn=lambda g: (_unbroadcast(g, a.shape) if a._tracked() else None,
                                              _unbroadcast(g, b.shape) if b._tracked() else None))

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor(-a.data, _parents=(a,), _backward_fn=lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other
        return Tensor(a.data * b.data, _parents=(a, b), _backward_fn=lambda g: (
            _unbroadcast(g * b.data, a.shape) if a._tracked() else None,
            _unbroadcast(g * a.data, b.shape) if b._tracked() else None))

    # -- elementwise functions -----------------------------------------

    def log(self) -> "Tensor":
        return Tensor(np.log(self.data), _parents=(self,),
                      _backward_fn=lambda g: (g / self.data,))

    # -- shape and reduction ---------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        old = self.shape
        return Tensor(self.data.reshape(shape), _parents=(self,),
                      _backward_fn=lambda g: (g.reshape(old),))

    def sum(self, axis: int | None = None) -> "Tensor":
        out = self.data.sum(axis=axis)
        shape = self.shape

        def back(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor(out, _parents=(self,), _backward_fn=back)

    def mean(self, axis: int | None = None) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    """Concatenate along `axis`; gradient splits back to the operands."""
    if not tensors:
        raise DimensionError("concat needs at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def back(g):  # views of g, one per operand; a forward-only call never builds the offsets
        stops = list(accumulate(t.shape[axis] for t in tensors))
        lead = (slice(None),) * (axis % out.ndim)
        return tuple(g[lead + (slice(start, stop),)] for start, stop in zip([0] + stops, stops))

    return Tensor(out, _parents=tuple(tensors), _backward_fn=back)


def reduce_rows(ufunc, a: np.ndarray, axis: int = -1) -> np.ndarray:
    """ufunc.reduce(a, axis, keepdims=True) for np.add (a sum) or np.maximum
    (a max), bit for bit. A last axis of extent 1 or 2, such as a class axis,
    is reduced as columns: elementwise, so each row's result is independent
    of the batch extent, and without numpy's per-row reduction loop. numpy
    adds a row's terms to 0.0 in turn, so a sum adds 0.0 too, making a sum of
    -0.0s 0.0. A longer axis is numpy's reduction."""
    axis %= a.ndim
    if axis != a.ndim - 1 or not 1 <= a.shape[axis] <= 2:
        return ufunc.reduce(a, axis=axis, keepdims=True)
    out = ufunc(a[..., :1], a[..., 1:]) if a.shape[axis] == 2 else a[..., :1]
    return out + 0.0 if ufunc is np.add else out


def _softmax(z: np.ndarray, axis: int):
    """Softmax of z along `axis`, and its map from output to input gradient."""
    e = np.exp(z - reduce_rows(np.maximum, z, axis))
    y = e / reduce_rows(np.add, e, axis)
    return y, lambda g: y * (g - reduce_rows(np.add, g * y, axis))


def _activate(activation: str, z: np.ndarray):
    """A dense layer's activation of its pre-activation z, and its map from
    output to input gradient; softmax normalizes the last axis."""
    if activation == "tanh":
        t = np.tanh(z)
        return t, lambda g: g * (1.0 - t * t)
    if activation == "relu":
        live = z > 0
        return np.where(live, z, 0.0), lambda g: g * live
    return _softmax(z, z.ndim - 1)


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis`; rows land on the simplex."""
    ax = axis if axis >= 0 else logits.ndim + axis
    if not 0 <= ax < logits.ndim or logits.shape[ax] == 0:
        raise DimensionError(f"softmax axis {axis} invalid for shape {logits.shape}")
    y, back = _softmax(logits.data, ax)
    return Tensor(y, _parents=(logits,), _backward_fn=lambda g: (back(g),))


def linear(x: Tensor, weights: Tensor, bias: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """p stacked affine maps x @ W[i]^T + b[i], output (n, p, out).

    weights is (p, out, in) and bias (p, out); one map is a stack of one. x
    is either (n, in), read by every map, or (n, p, in), whose slice i map i
    reads. A `mask`, a fixed array broadcasting to W's shape, multiplies W
    inside the op, and W's gradient by it, so masked entries neither act nor
    receive gradient. A per-map input is one BLAS matrix-vector product per
    row and map; a shared input is one per row over the flattened (p·out,
    in) weights, cut into runs of whole maps below GEMV_SPLIT_WEIGHTS.
    Either call depends only on the layer's shape, never on the batch
    extent, so batched and single-sample forwards are bit-identical (given a
    BLAS that returns the same bits for identical calls). Map i equals a
    stack of map i alone bitwise for per-map inputs, and to a few ulps of
    its terms' magnitude for a shared input. The gradients are one BLAS
    product over the flattened stack for a shared input, and a matmul over
    the stack axis for per-map inputs.
    """
    if (weights.ndim != 3 or x.shape[-1] != weights.shape[2]
            or (x.ndim == 3 and x.shape[1] != weights.shape[0]) or x.ndim not in (2, 3)):
        raise DimensionError(
            f"linear: input shape {x.shape} incompatible with weights shape {weights.shape}")
    w = weights.data if mask is None else weights.data * mask
    if x.ndim == 2:  # each row against the flattened (p·a, k) weights, whole maps at a time
        p, a, k = w.shape
        flat, xs = w.reshape(-1, k), x.data[:, None, :]
        rows = max(1, (GEMV_SPLIT_WEIGHTS - 1) // (a * k)) * a  # weight rows per call
        out = (xs @ flat.T if rows >= p * a else np.concatenate(
            [xs @ flat[i:i + rows].T for i in range(0, p * a, rows)], axis=2)).reshape(-1, p, a)
    else:
        out = np.matmul(x.data[:, :, None, :], w.transpose(0, 2, 1))[:, :, 0]
    out = out + bias.data

    def back(g):  # each gradient only for an operand on the tape
        if x.ndim == 2:  # g (n, p·a) against W (p·a, k)
            flat = g.reshape(g.shape[0], -1)
            gx = flat @ w.reshape(-1, w.shape[2]) if x._tracked() else None
            gw = (flat.T @ x.data).reshape(w.shape) if weights._tracked() else None
        else:  # per map i: g[:, i] (n, a) against W[i] (a, k) and x[:, i] (n, k)
            gp = g.transpose(1, 0, 2)
            gx = np.matmul(gp, w).transpose(1, 0, 2) if x._tracked() else None
            gw = (np.matmul(gp.transpose(0, 2, 1), x.data.transpose(1, 0, 2))
                  if weights._tracked() else None)
        if gw is not None and mask is not None:
            gw = gw * mask
        return (gx, gw, g.sum(axis=0) if bias._tracked() else None)

    return Tensor(out, _parents=(x, weights, bias), _backward_fn=back)


def map_dot(x: Tensor, w: Tensor) -> Tensor:
    """Each map's rows dotted with its own vector: out[s, i] = x[s, i] · w[i],
    x (n, p, k) and w (p, k), output (n, p). One einsum, whose sum over k
    does not depend on the batch extent, so rows are batch-independent."""
    if x.ndim != 3 or w.shape != x.shape[1:]:
        raise DimensionError(f"map_dot: input shape {x.shape} incompatible with {w.shape}")

    def back(g):
        return (g[:, :, None] * w.data if x._tracked() else None,
                np.einsum("np,npk->pk", g, x.data) if w._tracked() else None)

    return Tensor(np.einsum("npk,pk->np", x.data, w.data), _parents=(x, w), _backward_fn=back)


def weighted_sum(a: Tensor, c: Tensor) -> Tensor:
    """Row s's p vectors c[s] (p, k) weighted by a[s] (p,) and summed:
    out[s] = a[s] @ c[s], output (n, k). One matrix product per row, so rows
    are batch-independent."""
    if a.ndim != 2 or c.ndim != 3 or c.shape[:2] != a.shape:
        raise DimensionError(f"weighted_sum: weights shape {a.shape} incompatible with {c.shape}")

    def back(g):
        return (np.matmul(c.data, g[:, :, None])[:, :, 0] if a._tracked() else None,
                a.data[:, :, None] * g[:, None, :] if c._tracked() else None)

    return Tensor(np.matmul(a.data[:, None, :], c.data)[:, 0], _parents=(a, c),
                  _backward_fn=back)


class DenseLayer:
    """p stacked fully connected layers: activation(x @ W[i]^T + b[i]).

    W is (p, out, in) and b (p, out) (see :func:`linear`). A `mask`, a fixed
    array broadcasting to W's shape, multiplies W on every call: entries it
    zeroes neither act nor receive gradient. A call is one tape node: the
    activation applies to linear's output in the same node, its gradient
    feeding linear's backward.
    """

    def __init__(self, weights: Tensor, bias: Tensor, activation: str = "identity",
                 mask: np.ndarray | None = None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")
        if weights.ndim != 3 or bias.shape != weights.shape[:-1]:
            raise DimensionError(
                f"layer weights {weights.shape} and bias {bias.shape} are inconsistent")
        self.weights = weights
        self.bias = bias
        self.activation = activation
        self.mask = mask

    def __call__(self, x: Tensor) -> Tensor:
        """Run the layer. Softmax activation normalizes the last axis."""
        pre = linear(x, self.weights, self.bias, self.mask)
        if self.activation == "identity":
            return pre
        y, back = _activate(self.activation, pre.data)
        linear_back = pre._backward_fn
        return Tensor(y, _parents=pre._parents, _backward_fn=lambda g: linear_back(back(g)))

    def parameters(self) -> list[Tensor]:
        return [self.weights, self.bias]


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Glorot-uniform (out, in) weights: U(-l, l) with l = sqrt(6 / (out + in))."""
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


# -- losses -------------------------------------------------------------

def _check_same_shape(a: Tensor, b: Tensor, what: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{what}: shape {a.shape} does not match shape {b.shape}")


def per_sample_mae(y_pred: Tensor, y_true: Tensor) -> Tensor:
    """Mean absolute error over the last axis of a (..., d) batch, shape (...).
    One tape op; row s's gradient is g[s] · (1/d) · sign(y_pred - y_true)."""
    _check_same_shape(y_pred, y_true, "per_sample_mae")
    diff = y_pred.data - y_true.data
    scale = 1.0 / diff.shape[-1]
    sign = np.sign(diff)

    def back(g):
        gd = (g * scale)[..., None] * sign
        return (gd if y_pred._tracked() else None, -gd if y_true._tracked() else None)

    return Tensor(reduce_rows(np.add, np.abs(diff))[..., 0] * scale, _parents=(y_pred, y_true),
                  _backward_fn=back)


def per_sample_cross_entropy(probs: Tensor, targets: Tensor) -> Tensor:
    """Categorical cross-entropy over the last axis: -sum target * log(prob +
    eps), shape (...). One tape op; row s's gradient is -g[s] · target /
    (prob + eps)."""
    _check_same_shape(probs, targets, "per_sample_cross_entropy")
    if np.any(probs.data < 0):
        raise ValueError("cross-entropy needs non-negative probabilities")
    shifted = probs.data + EPS_LOG
    logs = np.log(shifted)

    def back(g):
        g = -g[..., None]
        return (g * targets.data / shifted if probs._tracked() else None,
                g * logs if targets._tracked() else None)

    return Tensor(-reduce_rows(np.add, logs * targets.data)[..., 0], _parents=(probs, targets),
                  _backward_fn=back)


# -- optimizers ----------------------------------------------------------

OPTIMIZERS = ("sgd", "adam")


class Optimizer:
    """SGD or Adam over an explicit parameter list.

    Adam's state is flat, each parameter's span laid out in the order of
    the list, so the same parameter order must be used on every step,
    :func:`optimizer_step`. Gradients are left in place; the caller clears
    them (see :func:`clear_grads`).
    """

    def __init__(self, kind: str = "adam", learning_rate: float = 1e-4):
        if kind not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer kind {kind!r}; expected 'sgd' or 'adam'")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.kind = kind
        self.learning_rate = learning_rate
        self.beta1 = 0.9  # Adam's moment decays and denominator guard
        self.beta2 = 0.999
        self.eps = 1e-8
        self.step_count = 0
        # Adam's flat buffers (the moments, the gathered gradient and the
        # step) and each parameter's span in them, made on the first step
        self._m = self._v = self._grad = self._step = None
        self._spans: list[tuple[int, int]] = []


def optimizer_step(opt: Optimizer, params: list[Tensor]) -> None:
    """Apply one update to every parameter; every grad must be present."""
    for i, p in enumerate(params):
        if p.grad is None:
            label = p.name or f"parameter #{i}"
            raise GradientError(f"optimizer_step: {label} has no gradient")
    if opt.kind == "sgd":
        for p in params:
            p.data -= opt.learning_rate * p.grad
        return
    if opt._m is None:
        stops = np.cumsum([p.size for p in params]).tolist()
        opt._spans = list(zip([0] + stops[:-1], stops))
        opt._m, opt._v, opt._grad, opt._step = (np.zeros(stops[-1]) for _ in range(4))
    if len(opt._spans) != len(params):
        raise GradientError(
            f"optimizer_step: got {len(params)} parameters, state holds {len(opt._spans)}")
    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - opt.beta1 ** t
    bc2 = 1.0 - opt.beta2 ** t
    # in place over the flat buffers, with the roundings of m = b1*m + (1-b1)*g,
    # v = b2*v + (1-b2)*g*g, p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)
    m, v, g, step = opt._m, opt._v, opt._grad, opt._step
    np.concatenate([p.grad for p in params], axis=None, out=g)
    np.multiply(g, 1.0 - opt.beta1, out=step)
    m *= opt.beta1
    m += step
    np.multiply(g, g, out=step)
    step *= 1.0 - opt.beta2
    v *= opt.beta2
    v += step
    den = np.divide(v, bc2, out=g)  # the gradient is spent: its buffer holds the denominator
    np.sqrt(den, out=den)
    den += opt.eps
    np.divide(m, bc1, out=step)
    step *= opt.learning_rate
    step /= den
    for p, (start, stop) in zip(params, opt._spans):
        p.data -= step[start:stop].reshape(p.shape)


def clear_grads(params: list[Tensor]) -> None:
    for p in params:
        p.grad = None


# -- verification helper ---------------------------------------------------

def finite_difference_grads(loss_fn, params: list[Tensor], step: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of `loss_fn()` w.r.t. each parameter.

    `loss_fn` must re-run the full forward pass and return a float; it is
    the independent oracle against which tape gradients are checked.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = loss_fn()
            flat[j] = orig - step
            down = loss_fn()
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise relative error with an absolute floor for near-zeros."""
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(diff / scale)) if diff.size else 0.0
