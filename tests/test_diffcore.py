"""Unit tests for the autodiff engine: ops, losses, optimizers, gradients."""

import ctypes
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ame_lab import diffcore
from ame_lab.diffcore import (
    DenseLayer,
    DimensionError,
    GradientError,
    Optimizer,
    Tensor,
    clear_grads,
    concat,
    finite_difference_grads,
    glorot,
    linear,
    map_dot,
    optimizer_step,
    per_sample_cross_entropy,
    per_sample_mae,
    relative_gradient_error,
    softmax,
    weighted_sum,
)
from ame_lab.benchmark import SyntheticSpec, generate, train_model
from ame_lab.model import AmeConfig, build_ame, model_hash
from reference import (chain_error, chain_layer, cross_entropy_reference, mae_reference,
                       softmax_grad_reference, softmax_reference)


def _layer(weights, bias, activation="identity"):
    """A stack of one layer with (out, in) `weights`; its output is (n, 1, out)."""
    return DenseLayer(Tensor(np.asarray(weights, dtype=float)[None], requires_grad=True),
                      Tensor(np.asarray(bias, dtype=float)[None], requires_grad=True), activation)


def _glorot_layer(rng, in_dim, out_dim, activation):
    return _layer(glorot(rng, (out_dim, in_dim)), np.zeros(out_dim), activation)


class TestForwardDense:
    def test_identity_weights_pass_input_through(self):
        layer = _layer(np.eye(2), [0.0, 0.0], "identity")
        out = layer(Tensor([[1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[[1.0, 2.0]]])

    def test_zero_weights_with_tanh_give_zeros(self):
        layer = _layer(np.zeros((3, 4)), np.zeros(3), "tanh")
        out = layer(Tensor(np.random.default_rng(0).normal(size=(5, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((5, 1, 3)))

    def test_affine_map_hand_value(self):
        # [2, 3] @ [1, 1]^T + 0.5 = 5.5
        layer = _layer([[1.0, 1.0]], [0.5], "identity")
        out = layer(Tensor([[2.0, 3.0]]))
        np.testing.assert_allclose(out.data, [[[5.5]]])

    def test_shape_mismatch_names_both_shapes(self):
        layer = _layer(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(DimensionError, match=r"\(1, 4\).*\(1, 2, 3\)"):
            layer(Tensor(np.zeros((1, 4))))

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="gelu"):
            DenseLayer(Tensor(np.zeros((1, 1, 1))), Tensor(np.zeros((1, 1))), "gelu")


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        out = softmax(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.25, 0.25, 0.25]])

    def test_single_element_gives_one(self):
        out = softmax(Tensor([[7.3]]))
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_two_logits_match_high_precision_value(self):
        # exp(1)/(exp(1)+exp(2)) = 1/(1+e), frozen from an mpmath evaluation
        out = softmax(Tensor([[1.0, 2.0]]))
        np.testing.assert_allclose(
            out.data, [[0.2689414213699951, 0.7310585786300049]], atol=1e-15)

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            softmax(Tensor(np.zeros((2, 0))))

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_output_is_probability_vector(self, logits):
        row = np.array([logits])
        out = softmax(Tensor(row)).data[0]
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-9

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8),
           st.floats(min_value=-100, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_invariant_under_constant_shift(self, logits, shift):
        row = np.array([logits])
        base = softmax(Tensor(row)).data
        shifted = softmax(Tensor(row + shift)).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)


def _values(low, high):
    """Finite floats in [low, high], signed zeros among them."""
    return st.one_of(st.floats(low, high), st.sampled_from([0.0, -0.0]))


@st.composite
def _class_batches(draw):
    """Three arrays of one shape: random leading axes, then a class axis of
    extent 1, 2 (column arithmetic) or more (numpy's reduction)."""
    shape = (*draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)),
             draw(st.sampled_from([1, 2, 3, 5])))
    return tuple(draw(hnp.arrays(np.float64, shape, elements=_values(low, high)))
                 for low, high in ((-60.0, 60.0), (0.0, 1.0), (-1e3, 1e3)))


class TestClassAxisReductions:
    """softmax, cross-entropy and MAE reduce the class axis by column
    arithmetic at extents 1 and 2; they must equal numpy's reductions bit for
    bit at every extent, and each row must not depend on the batch."""

    @staticmethod
    def _ops(z, probs, g):
        y = softmax(Tensor(z, requires_grad=True))
        return {"softmax": y.data, "softmax_grad": y._backward_fn(g)[0],
                "cross_entropy": per_sample_cross_entropy(Tensor(probs), Tensor(g)).data,
                "mae": per_sample_mae(Tensor(z), Tensor(g)).data}

    @given(_class_batches())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_numpy_reductions_and_batch_independent_rows(self, arrays):
        z, probs, g = arrays
        targets = np.abs(g) * 1e-3  # cross-entropy targets in [0, 1]
        got = self._ops(z, probs, targets)
        y = softmax_reference(z)
        want = {"softmax": y, "softmax_grad": softmax_grad_reference(y, targets),
                "cross_entropy": cross_entropy_reference(probs, targets),
                "mae": mae_reference(z, targets)}
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        for s in range(z.shape[0]):
            one = self._ops(z[s:s + 1], probs[s:s + 1], targets[s:s + 1])
            for name in want:
                assert one[name].tobytes() == got[name][s:s + 1].tobytes(), name

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sums_of_negative_zeros_are_positive_zero_as_numpy_gives(self, k):
        zeros = np.full((3, k), -0.0)
        total = diffcore.reduce_rows(np.add, zeros)
        assert total.tobytes() == zeros.sum(axis=-1, keepdims=True).tobytes()
        assert not np.signbit(total).any()


class TestLosses:
    def test_mae_zero_when_equal(self):
        y = Tensor(np.arange(6.0).reshape(2, 3))
        assert per_sample_mae(y, Tensor(y.data.copy())).mean().data.item() == 0.0

    def test_mae_hand_values(self):
        assert per_sample_mae(Tensor([[1.0, 3.0]]), Tensor([[0.0, 0.0]])).mean().data.item() == 2.0
        assert per_sample_mae(Tensor([[-1.0]]), Tensor([[1.0]])).mean().data.item() == 2.0

    def test_mae_shape_mismatch(self):
        with pytest.raises(DimensionError):
            per_sample_mae(Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 2))))

    def test_cross_entropy_perfect_prediction_is_tiny(self):
        onehot = Tensor([[1.0, 0.0], [0.0, 1.0]])
        loss = per_sample_cross_entropy(onehot, Tensor(onehot.data.copy())).mean()
        assert loss.data.item() <= 1e-11

    def test_cross_entropy_uniform_is_log_k(self):
        k = 5
        probs = Tensor(np.full((3, k), 1.0 / k))
        targets = np.zeros((3, k))
        targets[np.arange(3), [0, 2, 4]] = 1.0
        loss = per_sample_cross_entropy(probs, Tensor(targets)).mean()
        np.testing.assert_allclose(loss.data.item(), math.log(k), atol=1e-9)

    def test_cross_entropy_hand_value(self):
        out = per_sample_cross_entropy(Tensor([[0.9, 0.1]]), Tensor([[1.0, 0.0]])).mean()
        np.testing.assert_allclose(out.data.item(), -math.log(0.9), atol=1e-9)

    def test_cross_entropy_rejects_negative_probs(self):
        with pytest.raises(ValueError, match="non-negative"):
            per_sample_cross_entropy(Tensor([[-0.1, 1.1]]), Tensor([[1.0, 0.0]]))

    def test_per_sample_variants_row_shapes(self):
        pred = Tensor(np.random.default_rng(1).uniform(0.1, 0.9, size=(4, 3)))
        true = Tensor(np.eye(3)[[0, 1, 2, 0]])
        assert per_sample_cross_entropy(pred, true).shape == (4,)
        assert per_sample_mae(pred, true).shape == (4,)

    @staticmethod
    def _operands(task, rng, shape=(6, 3)):
        if task == "classification":
            return rng.dirichlet(np.full(shape[-1], 2.0), size=shape[:-1]), rng.random(shape)
        return rng.normal(size=shape), rng.normal(size=shape)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_one_tape_node_bitwise_the_elementwise_chain(self, task):
        op = per_sample_cross_entropy if task == "classification" else per_sample_mae
        rng = np.random.default_rng(31)
        pred, true = self._operands(task, rng)
        weights = rng.normal(size=pred.shape[0])  # an upstream gradient that varies by row

        def run(error):
            leaves = [Tensor(pred, requires_grad=True), Tensor(true, requires_grad=True)]
            rows = error(*leaves)
            (rows * Tensor(weights)).sum().backward()
            return rows, [leaf.grad for leaf in leaves]

        rows, grads = run(op)
        chain_rows, chain_grads = run(lambda a, b: chain_error(a, b, task))
        assert all(parent._parents == () for parent in rows._parents)  # one node over the leaves
        assert rows.data.tobytes() == chain_rows.data.tobytes()
        for got, want in zip(grads, chain_grads):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_gradients_match_finite_differences(self, task):
        op = per_sample_cross_entropy if task == "classification" else per_sample_mae
        rng = np.random.default_rng(32)
        leaves = [Tensor(v, requires_grad=True) for v in self._operands(task, rng)]
        weights = Tensor(rng.normal(size=leaves[0].shape[0]))

        def run():
            return (op(*leaves) * weights).sum()

        run().backward()
        numeric = finite_difference_grads(lambda: run().data.item(), leaves)
        assert max(relative_gradient_error(leaf.grad, fd)
                   for leaf, fd in zip(leaves, numeric)) <= 1e-4

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_rows_lie_along_the_last_axis(self, task):
        op = per_sample_cross_entropy if task == "classification" else per_sample_mae
        pred, true = self._operands(task, np.random.default_rng(33), shape=(4, 5, 3))
        rows = op(Tensor(pred), Tensor(true)).data
        flat = op(Tensor(pred.reshape(20, 3)), Tensor(true.reshape(20, 3))).data
        assert rows.shape == (4, 5)
        assert rows.tobytes() == flat.tobytes()


class TestBackward:
    def test_linear_case_grad_is_input(self):
        w = Tensor([[2.0]], requires_grad=True)
        x = Tensor([[3.0]])
        (w * x).sum().backward()
        np.testing.assert_array_equal(w.grad, [[3.0]])

    def test_zero_coefficient_gives_zero_grad(self):
        w = Tensor([[5.0]], requires_grad=True)
        x = Tensor([[3.0]])
        (w * 0.0 + x).sum().backward()
        np.testing.assert_array_equal(w.grad, [[0.0]])

    def test_unreached_tensor_keeps_no_grad(self):
        w = Tensor([[5.0]], requires_grad=True)
        Tensor([[1.0]]).sum().backward()
        assert w.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(DimensionError, match="scalar"):
            Tensor([[1.0, 2.0]], requires_grad=True).backward()

    def test_repeated_backward_accumulates(self):
        w = Tensor([[2.0]], requires_grad=True)
        loss = (w * 3.0).sum()
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(w.grad, [[6.0]])

    def test_elementwise_ops_unbroadcast_only_tracked_operands(self, monkeypatch):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(4, 2, 3)), rng.random(size=(4, 1, 3)), rng.normal(size=3)

        def loss(w, mask, shift):
            return ((w * mask + shift) * w).sum()

        every = [Tensor(v, requires_grad=True) for v in values]
        loss(*every).backward()
        shapes = []
        unbroadcast = diffcore._unbroadcast
        monkeypatch.setattr(diffcore, "_unbroadcast",
                            lambda g, shape: shapes.append(shape) or unbroadcast(g, shape))
        w = Tensor(values[0], requires_grad=True)
        loss(w, Tensor(values[1]), Tensor(values[2])).backward()
        assert shapes and set(shapes) == {w.shape}
        np.testing.assert_array_equal(w.grad, every[0].grad)

    def test_op_on_untracked_operands_stays_off_the_tape(self):
        a, b = Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 1)))
        joined = concat([a, b], axis=1)
        assert joined._parents == () and joined._backward_fn is None
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        assert (joined * w)._parents == (joined, w)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_linear_skips_the_gradient_of_an_untracked_input(self, stacked):
        rng = np.random.default_rng(5)
        shape = (2, 3, 4) if stacked else (1, 3, 4)
        w = Tensor(rng.normal(size=shape), requires_grad=True)
        b = Tensor(rng.normal(size=shape[:-1]), requires_grad=True)
        x = rng.normal(size=(5, 4))
        out = linear(Tensor(x), w, b)
        gx, gw, gb = out._backward_fn(np.ones(out.shape))
        assert gx is None
        out.sum().backward()
        grads = (w.grad, b.grad)
        clear_grads([w, b])
        xt = Tensor(x, requires_grad=True)
        linear(xt, w, b).sum().backward()
        assert xt.grad is not None
        np.testing.assert_array_equal(grads[0], w.grad)
        np.testing.assert_array_equal(grads[1], b.grad)

    def test_composed_network_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        l1 = _glorot_layer(rng, 3, 4, "tanh")
        l2 = _glorot_layer(rng, 4, 2, "softmax")
        x = rng.normal(size=(6, 3))
        t = np.eye(2)[rng.integers(0, 2, 6)]
        params = l1.parameters() + l2.parameters()

        def run():
            return per_sample_cross_entropy(l2(l1(Tensor(x))).reshape(6, 2), Tensor(t)).mean()

        run().backward()
        analytic = [p.grad.copy() for p in params]
        clear_grads(params)
        numeric = finite_difference_grads(lambda: run().data.item(), params)
        worst = max(relative_gradient_error(a, n) for a, n in zip(analytic, numeric))
        assert worst < 1e-4


class TestGradientCheckSmallNets:
    """Every parameter gradient of random small networks (<= 64 parameters)
    must match central finite differences within relative error 1e-4."""

    @pytest.mark.parametrize("seed,dims,acts", [
        (0, (2, 3, 1), ("relu", "identity")),
        (1, (3, 4, 2), ("relu", "softmax")),
        (2, (4, 3, 2), ("tanh", "identity")),
    ])
    def test_random_network(self, seed, dims, acts):
        rng = np.random.default_rng(seed)
        layers = [_glorot_layer(rng, dims[i], dims[i + 1], acts[i]) for i in range(2)]
        params = [p for layer in layers for p in layer.parameters()]
        assert sum(p.size for p in params) <= 64
        x = rng.normal(size=(5, dims[0]))
        t = rng.normal(size=(5, dims[-1]))

        def run():
            out = Tensor(x)
            for layer in layers:
                out = layer(out)
            out = out.reshape(5, dims[-1])
            if acts[-1] == "softmax":
                targets = Tensor(np.abs(t) / np.abs(t).sum(1, keepdims=True))
                return per_sample_cross_entropy(out, targets).mean()
            return per_sample_mae(out, Tensor(t)).mean()

        run().backward()
        analytic = [p.grad.copy() for p in params]
        clear_grads(params)
        numeric = finite_difference_grads(lambda: run().data.item(), params)
        worst = max(relative_gradient_error(a, n) for a, n in zip(analytic, numeric))
        assert worst < 1e-4


class TestOptimizer:
    def test_sgd_rule(self):
        w = Tensor([1.0], requires_grad=True, name="w")
        w.grad = np.array([2.0])
        optimizer_step(Optimizer("sgd", 0.1), [w])
        np.testing.assert_allclose(w.data, [0.8])

    def test_sgd_zero_grad_leaves_unchanged(self):
        w = Tensor([1.5], requires_grad=True)
        w.grad = np.array([0.0])
        optimizer_step(Optimizer("sgd", 0.1), [w])
        np.testing.assert_array_equal(w.data, [1.5])

    def test_adam_zero_grad_with_fresh_moments_unchanged(self):
        w = Tensor([1.5], requires_grad=True)
        w.grad = np.array([0.0])
        optimizer_step(Optimizer("adam", 0.1), [w])
        np.testing.assert_array_equal(w.data, [1.5])

    def test_adam_first_step_hand_evaluation(self):
        # bias-corrected first step: m_hat = g, v_hat = g^2,
        # delta = lr * g / (|g| + eps)
        w = Tensor([1.0], requires_grad=True)
        g = 2.0
        w.grad = np.array([g])
        optimizer_step(Optimizer("adam", 0.1), [w])
        expected = 1.0 - 0.1 * g / (abs(g) + 1e-8)
        np.testing.assert_allclose(w.data, [expected], rtol=1e-12)
        assert np.sign(w.data[0] - 1.0) == -np.sign(g)

    def test_adam_in_place_is_bitwise_the_out_of_place_formula(self):
        rng = np.random.default_rng(12)
        shapes = [(3,), (4, 5), (2, 3, 7), (1, 1)]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        ref = [p.data.copy() for p in params]
        m, v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
        opt = Optimizer("adam", 0.03)
        b1, b2, lr, eps = opt.beta1, opt.beta2, opt.learning_rate, opt.eps
        for t in range(1, 6):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            optimizer_step(opt, params)
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, g in enumerate(grads):  # the out-of-place update, as the reference
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                ref[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
            # the flat moments hold each parameter's in its order, C-order flattened
            np.testing.assert_array_equal(opt._m, np.concatenate(m, axis=None))
            np.testing.assert_array_equal(opt._v, np.concatenate(v, axis=None))
            for i, p in enumerate(params):
                np.testing.assert_array_equal(p.data, ref[i])

    def test_missing_grad_names_parameter(self):
        w = Tensor([1.0], requires_grad=True, name="gate_3.context")
        with pytest.raises(GradientError, match="gate_3.context"):
            optimizer_step(Optimizer("sgd", 0.1), [w])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="rmsprop"):
            Optimizer("rmsprop", 0.1)


class TestDeterminism:
    def test_same_seed_bitwise_identical_init(self):
        a = glorot(np.random.default_rng(77), (3, 5))
        b = glorot(np.random.default_rng(77), (3, 5))
        assert a.shape == (3, 5)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.abs(a) <= math.sqrt(6.0 / 8))

    def test_bias_is_zero_initialized(self):
        model = build_ame(AmeConfig(feature_partition=[[0, 1], [2]], seed=3))
        biases = [p for p in model.parameters() if p.name.endswith(".bias")]
        assert biases and all(not np.any(p.data) for p in biases)
        assert all(np.any(p.data) for p in model.parameters() if p.name.endswith(".weights"))


class TestBatchEquivalence:
    def test_linear_is_bitwise_batch_independent(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(1, 7, 13)))
        b = Tensor(rng.normal(size=(1, 7)))
        x = rng.normal(size=(32, 13))
        full = linear(Tensor(x), w, b).data
        for i in range(32):
            row = linear(Tensor(x[i:i + 1]), w, b).data
            np.testing.assert_array_equal(row[0], full[i])


# Map i of a shared-input stack and map i run alone sum the same terms in
# orders that depend on the maps around it: they agree to within this many
# ulps of the terms' magnitude |x|·|W[i]|ᵀ + |b[i]| (3 was the most measured
# over 7,700 random stacks of up to 1,000 inputs). Cancellation leaves no
# bound in ulps of the result itself: 32,768 were measured at a value of 1e-4.
SHARED_MAP_ULPS = 4


def _assert_shared_map_close(stack_map, alone, x, w, b):
    """Map (w, b) of a shared-input stack against the map run alone."""
    scale = np.abs(x) @ np.abs(w).T + np.abs(b)
    assert np.all(np.abs(stack_map - alone) <= SHARED_MAP_ULPS * np.spacing(scale))


def _check_forward_kernel(p, out, width, n, seed):
    """Bitwise, for a stack of one map and both input forms of a stack of p,
    each row of a batched forward equals its batch-1 forward. Map i of a stack
    equals a stack of map i alone: bitwise for per-map inputs, and within
    SHARED_MAP_ULPS for a shared input."""
    rng = np.random.default_rng(seed)
    w, b = rng.normal(size=(p, out, width)), rng.normal(size=(p, out))
    x = rng.normal(size=(n, width))
    single = linear(Tensor(x), Tensor(w[:1]), Tensor(b[:1])).data
    for r in range(n):
        np.testing.assert_array_equal(
            linear(Tensor(x[r:r + 1]), Tensor(w[:1]), Tensor(b[:1])).data[0], single[r])
    for form in (x, rng.normal(size=(n, p, width))):
        stack = linear(Tensor(form), Tensor(w), Tensor(b)).data
        for r in range(n):
            np.testing.assert_array_equal(
                linear(Tensor(form[r:r + 1]), Tensor(w), Tensor(b)).data[0], stack[r])
        for i in range(p):  # a per-map map i alone is a per-map stack of one
            xi = form if form.ndim == 2 else form[:, i:i + 1]
            alone = linear(Tensor(xi), Tensor(w[i:i + 1]), Tensor(b[i:i + 1])).data[:, 0]
            if form.ndim == 2:
                _assert_shared_map_close(stack[:, i], alone, xi, w[i], b[i])
            else:
                np.testing.assert_array_equal(stack[:, i], alone)


def _forward_digests():
    """sha256 of each DIGEST_CASES shared-input forward."""
    digests = []
    for p, out, width, n, seed in DIGEST_CASES:
        rng = np.random.default_rng(seed)
        y = linear(Tensor(rng.normal(size=(n, width))), Tensor(rng.normal(size=(p, out, width))),
                   Tensor(rng.normal(size=(p, out)))).data
        digests.append(hashlib.sha256(y.tobytes()).hexdigest())
    return digests


# (p, out, in, n, seed): the model's p = 64 gate and probe shapes; a shape whose
# maps move by ulps in a shared stack; a stack the gemm size guard cuts into
# runs of 6 maps; and maps of 700 x 700 weights, each its own call, which
# OpenBLAS runs on more than one thread when it has them
GUARDED_CASE = (64, 16, 640, 3, 5)
KERNEL_CASES = [(1, 1, 1, 1, 0), (3, 5, 7, 17, 1), (64, 8, 6, 5, 2), (64, 4, 256, 7, 6),
                (65, 4, 256, 7, 7), (8, 2, 8, 9, 8), GUARDED_CASE, (2, 700, 700, 3, 3)]
# shared-input forwards whose bits must not depend on the BLAS thread count:
# the guarded stack, the p = 64 gate read in one call, and p = 65 cut in two.
# A lone map above the guard is left out: OpenBLAS splits it across threads.
DIGEST_CASES = [GUARDED_CASE, (64, 4, 256, 7, 6), (65, 4, 256, 7, 7)]

# (p, out, in) on both sides of the gemm size guard: one call over the stack,
# runs of 64 maps and one, runs of 6, and maps each a threaded call of their own
SHARED_SHAPES = [(64, 4, 256), (65, 4, 256), (64, 16, 640), (3, 96, 700)]


class TestForwardKernel:
    @given(st.integers(1, 9), st.integers(1, 13), st.integers(1, 23), st.integers(1, 17),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_bitwise_and_maps_within_ulps(self, p, out, width, n, seed):
        _check_forward_kernel(p, out, width, n, seed)

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_kernel_cases(self, case):
        _check_forward_kernel(*case)

    @given(st.one_of(st.tuples(st.integers(1, 9), st.integers(1, 13), st.integers(1, 23)),
                     st.sampled_from(SHARED_SHAPES)),
           st.integers(1, 17), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shared_rows_are_bitwise_their_batch_one_and_permuted_rows(self, shape, n, seed):
        # n from 1 to 17 puts rows at every place of a block and pads 0 to 3 rows
        rng = np.random.default_rng(seed)
        p, out, width = shape
        w, b = Tensor(rng.normal(size=(p, out, width))), Tensor(rng.normal(size=(p, out)))
        x = rng.normal(size=(n, width))
        y = linear(Tensor(x), w, b).data
        order = rng.permutation(n)
        assert linear(Tensor(x[order]), w, b).data.tobytes() == y[order].tobytes()
        for r in range(n):
            assert linear(Tensor(x[r:r + 1]), w, b).data.tobytes() == y[r:r + 1].tobytes()

    @pytest.mark.parametrize("limit, step", [(7_000, 3), (1_000, 1)])
    def test_guard_reads_a_shared_stack_in_runs_of_whole_maps(self, monkeypatch, limit, step):
        # maps of 8 x 64 weights, 2,048 multiplies per block of 4 rows: at most
        # 7,000 take 3 maps a run, and a map above 1,000 is a call of its own.
        # At this shape one call over all 64 maps gives other bits than runs
        # of a few maps, so a stack left whole fails.
        rng = np.random.default_rng(9)
        x, w, b = rng.normal(size=(4, 64)), rng.normal(size=(64, 8, 64)), rng.normal(size=(64, 8))
        bounds = list(range(0, 64, step)) + [64]
        monkeypatch.setattr(diffcore, "GEMM_SPLIT_MULS", limit)
        y = linear(Tensor(x), Tensor(w), Tensor(b)).data
        for lo, hi in zip(bounds, bounds[1:]):
            run = linear(Tensor(x), Tensor(w[lo:hi]), Tensor(b[lo:hi])).data
            np.testing.assert_array_equal(y[:, lo:hi], run)

    def test_rows_are_bitwise_and_maps_within_ulps_on_one_blas_thread(self):
        # OpenBLAS reads its thread count when numpy loads: a fresh process
        code = ("import sys; sys.path[:0] = sys.argv[1:]; import test_diffcore as t\n"
                "for case in t.KERNEL_CASES: t._check_forward_kernel(*case)\n"
                "print(*t._forward_digests())")
        src = Path(diffcore.__file__).parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent), str(src)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == _forward_digests()


class TestLinearStack:
    @pytest.mark.parametrize("shared", [True, False])
    def test_stack_reproduces_separate_linear_calls(self, shared):
        # bitwise for per-map inputs; within SHARED_MAP_ULPS for a shared one
        rng = np.random.default_rng(6)
        w = Tensor(rng.normal(size=(5, 3, 11)))
        b = Tensor(rng.normal(size=(5, 3)))
        x = rng.normal(size=(9, 11) if shared else (9, 5, 11))
        out = linear(Tensor(x), w, b).data
        assert out.shape == (9, 5, 3)
        for i in range(5):  # a per-map map i alone is a per-map stack of one
            xi = x if shared else x[:, i:i + 1]
            alone = linear(Tensor(xi), Tensor(w.data[i:i + 1]), Tensor(b.data[i:i + 1])).data[:, 0]
            if shared:
                _assert_shared_map_close(out[:, i], alone, xi, w.data[i], b.data[i])
            else:
                np.testing.assert_array_equal(out[:, i], alone)
        for n in range(9):
            np.testing.assert_array_equal(linear(Tensor(x[n:n + 1]), w, b).data[0], out[n])

    @pytest.mark.parametrize("shared", [True, False])
    def test_masked_stacked_layer_matches_finite_differences(self, shared):
        rng = np.random.default_rng(7)
        mask = (rng.random(size=(4, 1, 6)) > 0.3).astype(float)
        layer = DenseLayer(Tensor(rng.normal(size=(4, 2, 6)), requires_grad=True),
                           Tensor(rng.normal(size=(4, 2)), requires_grad=True), "tanh", mask=mask)
        x = Tensor(rng.normal(size=(3, 6) if shared else (3, 4, 6)), requires_grad=True)
        params = [layer.weights, layer.bias, x]

        def loss():
            return (layer(x) * layer(x)).sum()

        loss().backward()
        analytic = [p.grad.copy() for p in params]
        numeric = finite_difference_grads(lambda: loss().data.item(), params)
        assert max(relative_gradient_error(a, n) for a, n in zip(analytic, numeric)) <= 1e-6
        assert not np.any(analytic[0][np.broadcast_to(mask == 0, (4, 2, 6))])

    def test_mismatched_stack_rejected(self):
        with pytest.raises(DimensionError, match="linear"):
            linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 1, 4))),
                   Tensor(np.zeros((5, 1))))

    def test_unstacked_weights_rejected(self):
        with pytest.raises(DimensionError, match=r"weights shape \(1, 4\)"):
            linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((1, 4))), Tensor(np.zeros(1)))
        with pytest.raises(DimensionError, match="inconsistent"):
            DenseLayer(Tensor(np.zeros((1, 4))), Tensor(np.zeros(1)))


class TestOneNodeLayer:
    """A dense layer is one tape node over linear's operands, bitwise the
    chain of linear, a mask-multiply node and an activation node."""

    @pytest.mark.parametrize("activation", diffcore.ACTIVATIONS)
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("out", [1, 2, 3])
    def test_values_and_every_gradient_bitwise_the_chain(self, activation, shared, masked, out):
        rng = np.random.default_rng(53)
        p, k, n = 4, 6, 5
        mask = (rng.random(size=(p, 1, k)) > 0.3).astype(float) if masked else None
        values = (rng.normal(size=(p, out, k)), rng.normal(size=(p, out)),
                  rng.normal(size=(n, k) if shared else (n, p, k)))
        target = rng.normal(size=(n, p, out))

        def run(forward):
            w, b, x = (Tensor(v, requires_grad=True) for v in values)
            layer = DenseLayer(w, b, activation, mask=mask)
            y = forward(layer, x)
            (y * Tensor(target)).sum().backward()
            return y, [t.grad for t in (w, b, x)]

        y, grads = run(DenseLayer.__call__)
        chain_y, chain_grads = run(chain_layer)
        assert all(not parent._parents for parent in y._parents)  # one node over the leaves
        assert y.data.tobytes() == chain_y.data.tobytes()
        for got, want in zip(grads, chain_grads):
            assert got.tobytes() == want.tobytes()
        if masked:
            assert not np.any(grads[0][np.broadcast_to(mask == 0, grads[0].shape)])

    def test_untracked_operands_keep_the_layer_off_the_tape(self):
        layer = _layer(np.ones((2, 3)), np.zeros(2), "tanh")
        layer.weights.requires_grad = layer.bias.requires_grad = False
        y = layer(Tensor(np.ones((4, 3))))
        assert y._parents == () and y._backward_fn is None


def _einsum_grads(x, w, g):
    """The linear maps' gradients as fixed-order einsums: the reference the
    BLAS products are held to."""
    spec = "nk" if x.ndim == 2 else "npk"
    return (np.einsum(f"npa,pak->{spec}", g, w, optimize=False),
            np.einsum(f"npa,{spec}->pak", g, x, optimize=False))


def _assert_close(actual, expected, rel=1e-12):
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


class TestLinearGradients:
    CASES = {"one_map": ((37, 19), (1, 7, 19)), "shared": ((37, 19), (5, 7, 19)),
             "per_map": ((37, 5, 19), (5, 7, 19))}

    @pytest.mark.parametrize("form", sorted(CASES))
    @pytest.mark.parametrize("tracked", [True, False])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_blas_gradients_match_the_einsum_reference(self, form, tracked, layout):
        rng = np.random.default_rng(31)
        x_shape, w_shape = self.CASES[form]
        x = rng.normal(size=x_shape)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        b = Tensor(rng.normal(size=w_shape[:-1]), requires_grad=True)
        out = linear(Tensor(x, requires_grad=tracked), w, b)
        g = np.asarray(rng.normal(size=out.shape), order=layout)
        gx, gw, gb = out._backward_fn(g)
        ref_gx, ref_gw = _einsum_grads(x, w.data, g)
        _assert_close(gw, ref_gw)
        np.testing.assert_array_equal(gb, g.sum(axis=0))
        if tracked:
            _assert_close(gx, ref_gx)
        else:
            assert gx is None

    @pytest.mark.parametrize("shared", [True, False])
    def test_stack_gradients_match_separate_linear_calls(self, shared):
        rng = np.random.default_rng(33)
        p = 5
        w = Tensor(rng.normal(size=(p, 7, 19)), requires_grad=True)
        b = Tensor(rng.normal(size=(p, 7)), requires_grad=True)
        x = Tensor(rng.normal(size=(37, 19) if shared else (37, p, 19)), requires_grad=True)
        target = rng.normal(size=(37, p, 7))
        (linear(x, w, b) * target).sum().backward()
        input_grads = []
        for i in range(p):  # map i as a stack of one
            xi = Tensor(x.data if shared else x.data[:, i], requires_grad=True)
            wi = Tensor(w.data[i:i + 1], requires_grad=True)
            bi = Tensor(b.data[i:i + 1], requires_grad=True)
            (linear(xi, wi, bi) * target[:, i:i + 1]).sum().backward()
            _assert_close(w.grad[i], wi.grad[0])
            _assert_close(b.grad[i], bi.grad[0])
            input_grads.append(xi.grad)
        _assert_close(x.grad, sum(input_grads) if shared else np.stack(input_grads, axis=1))


    @pytest.mark.parametrize("form", sorted(CASES))
    def test_untracked_weights_and_bias_get_no_gradient(self, form):
        rng = np.random.default_rng(35)
        x_shape, w_shape = self.CASES[form]
        x, w, b = (rng.normal(size=shape) for shape in (x_shape, w_shape, w_shape[:-1]))
        g = rng.normal(size=(37, w_shape[0], w_shape[1]))
        tracked = linear(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                         Tensor(b, requires_grad=True))._backward_fn(g)
        gx, gw, gb = linear(Tensor(x, requires_grad=True), Tensor(w), Tensor(b))._backward_fn(g)
        assert gw is None and gb is None
        assert gx.tobytes() == tracked[0].tobytes()


# (p, k) shapes of the attention score and the combine: one map, the desk
# task's 8 and the p = 64 workloads, at widths from the gate_hidden of 8 up
MIX_SHAPES = [(1, 8), (8, 8), (64, 8), (64, 16), (1, 13), (64, 2)]


class TestMixOps:
    """map_dot (the attention score) and weighted_sum (the combine)."""

    @pytest.mark.parametrize("p,k", [(1, 8), (3, 4), (5, 9)])
    @pytest.mark.parametrize("op", ["map_dot", "weighted_sum"])
    def test_gradients_of_both_operands_match_finite_differences(self, op, p, k):
        rng = np.random.default_rng(41)
        n = 4
        if op == "map_dot":
            left, right = rng.normal(size=(n, p, k)), rng.normal(size=(p, k))
        else:
            left, right = rng.normal(size=(n, p)), rng.normal(size=(n, p, k))
        params = [Tensor(left, requires_grad=True), Tensor(right, requires_grad=True)]
        fn = map_dot if op == "map_dot" else weighted_sum
        target = rng.normal(size=fn(*params).shape)

        def run():
            return (fn(*params) * target).sum()

        run().backward()
        analytic = [t.grad.copy() for t in params]
        clear_grads(params)
        numeric = finite_difference_grads(lambda: run().data.item(), params)
        assert max(relative_gradient_error(a, b) for a, b in zip(analytic, numeric)) < 1e-4

    @pytest.mark.parametrize("p,k", MIX_SHAPES)
    def test_batch_one_rows_are_bitwise_the_batched_rows(self, p, k):
        rng = np.random.default_rng(43)
        n = 65
        x, w = Tensor(rng.normal(size=(n, p, k))), Tensor(rng.normal(size=(p, k)))
        a, c = Tensor(rng.dirichlet(np.ones(p), size=n)), Tensor(rng.normal(size=(n, p, k)))
        scores, combined = map_dot(x, w).data, weighted_sum(a, c).data
        for s in range(n):
            one = slice(s, s + 1)
            assert map_dot(Tensor(x.data[one]), w).data.tobytes() == scores[one].tobytes()
            assert weighted_sum(Tensor(a.data[one]), Tensor(c.data[one])).data.tobytes() \
                == combined[one].tobytes()

    @pytest.mark.parametrize("p,k", MIX_SHAPES)
    def test_values_are_the_elementwise_sums(self, p, k):
        rng = np.random.default_rng(47)
        x, w = rng.normal(size=(9, p, k)), rng.normal(size=(p, k))
        a, c = rng.normal(size=(9, p)), rng.normal(size=(9, p, k))
        _assert_close(map_dot(Tensor(x), Tensor(w)).data, (x * w).sum(axis=2), rel=1e-14)
        _assert_close(weighted_sum(Tensor(a), Tensor(c)).data, (a[:, :, None] * c).sum(axis=1),
                      rel=1e-14)

    def test_mismatched_shapes_are_refused(self):
        with pytest.raises(DimensionError, match="map_dot"):
            map_dot(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 5))))
        with pytest.raises(DimensionError, match="weighted_sum"):
            weighted_sum(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4, 1))))


def _openblas_core() -> str | None:
    """The kernel core numpy's bundled OpenBLAS selected, or None if unreadable."""
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            return None
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


# The trained model_hash of a tiny config under each NUMERICS_VERSION, with the
# OpenBLAS core it was recorded on (numpy 2.4.6's OpenBLAS 0.3.31). Version 3
# gave 512ec743fa6bb6ce. The pin can miss a change that leaves this config's
# bits alone: a kernel path it does not reach (regression, deeper experts or
# probes, SGD, more groups, the oracle) or a summation order that only moves
# other shapes. On another core it skips, and another OpenBLAS build on this
# core may fail it with no change to the code.
NUMERICS_PINS = {4: ("SkylakeX", "6b0928a774453a99"), 5: ("SkylakeX", "b0318ce32fff4ee5"),
                 6: ("SkylakeX", "22947a78abe385cc"), 7: ("SkylakeX", "d3fec2ba88f1bea2")}


class TestNumericsPin:
    def test_trained_hash_matches_the_pin_of_the_numerics_version(self):
        version = diffcore.NUMERICS_VERSION
        assert version in NUMERICS_PINS, f"pin a trained hash for NUMERICS_VERSION {version}"
        core, pinned = NUMERICS_PINS[version]
        found = _openblas_core()
        if found != core:
            pytest.skip(f"the pin holds on OpenBLAS core {core}; this one is "
                        f"{found or 'unreadable'}")
        # four groups and gate_hidden 2: a gate stack whose maps' bits depend
        # on how the forward kernel groups them
        config = AmeConfig(feature_partition=[[0], [1], [2], [3]], expert_hidden=[4],
                           gate_hidden=2, aux_hidden=[6], task="classification", num_classes=2,
                           alpha=0.1, seed=5, learning_rate=0.01, batch_size=64, epochs=4)
        spec = SyntheticSpec(kind="informative_subset_classification", total_features=4,
                             informative=[0, 1], weights=[2.0, 1.0], noise_scale=0.5,
                             n_train=300, n_val=80, n_test=80, seed=5)
        model, _ = train_model(config, generate(spec))
        assert model_hash(model) == pinned, (
            f"trained values changed under NUMERICS_VERSION {version}: bump "
            "diffcore.NUMERICS_VERSION and pin the new hash here")
