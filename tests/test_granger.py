"""Tests for the Granger-causal objective: targets, KL, blending, training."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ame_lab import granger
from ame_lab.diffcore import (
    Optimizer,
    Tensor,
    clear_grads,
    finite_difference_grads,
    optimizer_step,
    relative_gradient_error,
)
from ame_lab.granger import (
    GrangerTargets,
    aux_errors,
    batch_losses,
    delta_epsilon,
    evaluate,
    fit,
    kl_divergence,
    omega_targets,
    per_sample_error,
    train_epoch,
    write_training_log,
)
from ame_lab.model import (AmeConfig, AmeOutput, build_ame, expert_states, forward, group_inputs,
                           mix)
from reference import chain_total, frozen_objective


def fake_output(y, a, y_aux_excl, y_aux_all):
    """AmeOutput with only the fields the objective reads, as tape leaves; the
    probe outputs (the all-experts probe's in slot 0) are set directly instead
    of being built from h_all by a model."""
    dummy = Tensor(np.zeros((np.asarray(y).shape[0], 1)))
    out = AmeOutput(y=Tensor(y, requires_grad=True), a=Tensor(a, requires_grad=True), c=dummy,
                    h_all=dummy, model=None)
    out.y_aux = Tensor(np.stack([y_aux_all, *y_aux_excl], axis=1), requires_grad=True)
    return out


def simplex_rows(p, n=1):
    raw = st.lists(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=p, max_size=p),
                   min_size=n, max_size=n)
    return raw.map(lambda rows: np.array(rows) / np.array(rows).sum(axis=1, keepdims=True))


class TestAuxErrors:
    def test_perfect_full_probe_has_zero_error(self):
        y = np.array([[1.0], [2.0]])
        out = fake_output(y, [[1.0], [1.0]], [y + 1.0], y.copy())
        eps = aux_errors(out.y_aux, y, "regression")
        np.testing.assert_array_equal(eps.data, [[0.0, 1.0], [0.0, 1.0]])

    def test_perfect_excluded_probes_make_deltas_non_positive(self):
        y = np.array([[1.0], [2.0]])
        out = fake_output(y, [[0.5, 0.5], [0.5, 0.5]], [y.copy(), y.copy()], y + 0.25)
        eps = aux_errors(out.y_aux, y, "regression").data
        eps_excl = eps[:, 1:]
        delta = delta_epsilon(eps_excl, eps[:, 0])
        np.testing.assert_array_equal(eps_excl, np.zeros((2, 2)))
        np.testing.assert_allclose(delta, -0.25 * np.ones((2, 2)))
        assert np.all(delta <= 0)

    def test_uniform_classification_probe_scores_log_k(self):
        k = 4
        y = np.eye(k)[[0, 2]]
        uniform = np.full((2, k), 1.0 / k)
        out = fake_output(y, [[1.0], [1.0]], [uniform], uniform)
        eps = aux_errors(out.y_aux, y, "classification")
        np.testing.assert_allclose(eps.data, math.log(k), atol=1e-9)


    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_per_slot_targets_equal_flatten_then_score_bitwise(self, task):
        rng = np.random.default_rng(21)
        n, slots, out = 7, 4, 3
        if task == "classification":
            y_slots = rng.dirichlet(np.ones(out), size=(n, slots))
            y = np.eye(out)[rng.integers(0, out, size=(n, slots))]
        else:
            y_slots, y = rng.normal(size=(n, slots, out)), rng.normal(size=(n, slots, out))
        eps = aux_errors(Tensor(y_slots), y, task)
        expected = per_sample_error(Tensor(y_slots.reshape(n * slots, out)),
                                    Tensor(y.reshape(n * slots, out)), task).data
        assert eps.shape == (n, slots)
        assert eps.data.tobytes() == expected.reshape(n, slots).tobytes()


class TestDeltaEpsilon:
    def test_hand_values(self):
        np.testing.assert_allclose(delta_epsilon([[0.5, 0.3]], [0.2]), [[0.3, 0.1]])

    def test_uninformative_expert_gets_zero(self):
        assert delta_epsilon([[0.2]], [0.2])[0, 0] == 0.0

    def test_negative_delta_passes_through(self):
        assert delta_epsilon([[0.1]], [0.2])[0, 0] < 0

    @pytest.mark.parametrize("eps_excl, eps_all", [
        ([0.5, 0.3], [0.2, 0.1]), ([0.5, 0.3], 0.2), ([[0.5, 0.3]], [0.2, 0.1]),
    ])
    def test_shapes_other_than_rows_and_their_errors_rejected(self, eps_excl, eps_all):
        with pytest.raises(ValueError, match=r"needs \(n, p\), \(n,\); got"):
            delta_epsilon(eps_excl, eps_all)

    def test_matrix_form_broadcasts_per_sample(self):
        out = delta_epsilon([[0.5, 0.3], [0.4, 0.2]], [0.2, 0.1])
        np.testing.assert_allclose(out, [[0.3, 0.1], [0.3, 0.1]])


class TestOmegaTargets:
    def test_equal_contributions_split_equally(self):
        np.testing.assert_allclose(omega_targets([[0.2, 0.2]]), [[0.5, 0.5]])

    def test_negative_clamped_then_normalized(self):
        np.testing.assert_allclose(omega_targets([[-0.1, 0.3, 0.1]]), [[0.0, 0.75, 0.25]])

    def test_all_zero_falls_back_to_uniform(self):
        np.testing.assert_allclose(omega_targets([[0.0, 0.0]]), [[0.5, 0.5]])

    def test_all_negative_falls_back_to_uniform(self):
        np.testing.assert_allclose(omega_targets([[-1.0, -2.0, -3.0]]), [[1 / 3, 1 / 3, 1 / 3]])

    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.integers(min_value=1, max_value=9).flatmap(
            lambda p: st.lists(st.lists(st.floats(min_value=-10, max_value=10),
                                        min_size=p, max_size=p), min_size=n, max_size=n))))
    @settings(max_examples=300, deadline=None)
    def test_always_a_valid_distribution(self, delta):
        delta = np.array(delta)
        omega = omega_targets(delta)
        assert omega.shape == delta.shape
        assert np.all(omega >= 0)
        np.testing.assert_allclose(omega.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        for s in range(delta.shape[0]):  # each row is normalized on its own
            np.testing.assert_array_equal(omega[s], omega_targets(delta[s:s + 1])[0])


class TestKlDivergence:
    def test_zero_when_equal(self):
        w = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(w, w.copy()) == 0.0

    def test_hand_value(self):
        # 0.5*ln(0.5/0.9) + 0.5*ln(0.5/0.1) = ln(5/3)
        np.testing.assert_allclose(kl_divergence([0.5, 0.5], [0.9, 0.1]),
                                   0.5108256237659907, atol=1e-12)

    def test_one_hot_against_uniform_is_log_two(self):
        np.testing.assert_allclose(kl_divergence([1.0, 0.0], [0.5, 0.5]),
                                   math.log(2.0), atol=1e-12)

    def test_zero_in_second_argument_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    @given(simplex_rows(4, n=2))
    @example(np.array([  # a few ulps apart: the unclipped sum rounds to about -2.3e-17
        [0.4773161101732765, 0.018697591345727335, 0.4061985461052819, 0.09778775237571424],
        [0.4773161101732765, 0.018697591345727356, 0.40619854610528183, 0.09778775237571428]]))
    @settings(max_examples=300, deadline=None)
    def test_non_negative_and_identity_of_indiscernibles(self, rows):
        omega, a = rows[0], rows[1]
        kl = kl_divergence(omega, a)
        assert kl >= 0.0
        # every entry is positive here; the sum of the terms may round below 0
        # by no more than 4 eps of the summed magnitudes of its logs
        unclipped = np.sum(omega * (np.log(omega) - np.log(a)))
        tolerance = 4 * np.finfo(float).eps * np.sum(omega * (np.abs(np.log(omega))
                                                             + np.abs(np.log(a))))
        assert unclipped >= -tolerance
        assert kl == max(unclipped, 0.0)
        if kl <= 1e-12:
            np.testing.assert_allclose(omega, a, atol=1e-9)
        assert kl_divergence(omega, omega.copy()) == 0.0


def loss_inputs(task, n=5, p=3, classes=3, seed=0):
    """An output of p experts and its targets: probabilities for
    classification, values for regression."""
    rng = np.random.default_rng(seed)
    if task == "classification":
        y_hat, y_aux = (rng.dirichlet(np.full(classes, 2.0), size=s) for s in (n, (n, p + 1)))
        y = np.eye(classes)[rng.integers(0, classes, size=n)]
    else:
        y_hat, y_aux, y = (rng.normal(size=s) for s in ((n, 1), (n, p + 1, 1), (n, 1)))
    a = rng.dirichlet(np.full(p, 2.0), size=n)
    return fake_output(y_hat, a, list(y_aux[:, 1:].swapaxes(0, 1)), y_aux[:, 0]), y


def objective_of(task="regression", alpha=0.0, beta=0.0):
    """What batch_losses reads of a model: the config's task and weights."""
    return SimpleNamespace(config=SimpleNamespace(task=task, alpha=alpha, aux_weight=beta))


class TestObjectiveNode:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_alpha_endpoints(self, task):
        output, y = loss_inputs(task)
        plain = batch_losses(objective_of(task, 0.0), output, y)
        assert plain.total.item() == plain.main
        attentive = batch_losses(objective_of(task, 1.0), output, y)
        assert attentive.total.item() == attentive.mge_value > 0.0

    def test_zero_when_targets_match_attention(self):
        y = np.array([[1.0], [2.0]])
        shifts = np.array([[0.5, 1.5], [0.25, 0.75]])  # every probe without expert i errs more
        output = fake_output(y, shifts / shifts.sum(axis=1, keepdims=True),
                             [y + shifts[:, :1], y - shifts[:, 1:]], y.copy())
        losses = batch_losses(objective_of(alpha=1.0), output, y)
        np.testing.assert_array_equal(losses.targets.omega, output.a.data)
        assert losses.total.item() == 0.0

    def test_mge_is_the_mean_of_per_sample_divergences(self):
        output, y = loss_inputs("classification")
        losses = batch_losses(objective_of("classification", 0.5), output, y)
        assert losses.mge_value == float(np.mean(kl_divergence(losses.targets.omega,
                                                               output.a.data)))

    def test_affine_in_alpha_with_slope_mge_minus_main(self):
        output, y = loss_inputs("regression")
        alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
        runs = [batch_losses(objective_of(alpha=a), output, y) for a in alphas]
        slopes = np.diff([r.total.item() for r in runs]) / np.diff(alphas)
        np.testing.assert_allclose(slopes, runs[0].mge_value - runs[0].main, atol=1e-12)

    def test_aux_term_is_scaled_mean_over_probes(self):
        output, y = loss_inputs("regression")
        losses = batch_losses(objective_of(beta=2.0), output, y)
        eps = np.column_stack([losses.targets.eps_all, losses.targets.eps_excl])
        np.testing.assert_allclose(losses.aux_mean, eps.mean(axis=0).mean(), rtol=1e-15)
        np.testing.assert_allclose(losses.total.item(), losses.main + 2.0 * losses.aux_mean,
                                   rtol=1e-15)

    def test_empty_batch_rejected(self):
        output, y = loss_inputs("regression", n=0)
        with pytest.raises(ValueError, match="empty batch"):
            batch_losses(objective_of(alpha=0.5, beta=1.0), output, y)

    @pytest.mark.parametrize("alpha", [-0.1, 1.2])
    def test_alpha_out_of_range_rejected(self, alpha):
        output, y = loss_inputs("regression")
        with pytest.raises(ValueError, match="alpha"):
            batch_losses(objective_of(alpha=alpha), output, y)

    def test_gradient_reaches_attention_only(self):
        output, y = loss_inputs("classification")
        batch_losses(objective_of("classification", 1.0), output, y).total.backward()
        assert output.y_aux.grad is None
        assert not np.any(output.y.grad)
        # d KL / d a = -omega / a: no weight's rise raises the KL, and some lower it
        assert np.all(output.a.grad <= 0.0) and np.any(output.a.grad)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.0, 1.0), (0.4, 0.0), (0.4, 1.0)])
    def test_attention_and_probes_are_parents_only_when_weighted(self, alpha, beta):
        output, y = loss_inputs("regression")
        total = batch_losses(objective_of(alpha=alpha, beta=beta), output, y).total
        assert (output.a in total._parents) == (alpha > 0.0)
        assert any(output.y_aux in node._parents for node in total._parents) == (beta > 0.0)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.4, 1.0), (1.0, 0.0)])
    def test_gradients_match_finite_differences(self, task, alpha, beta):
        output, y = loss_inputs(task, seed=3)
        model = objective_of(task, alpha, beta)
        losses = batch_losses(model, output, y)
        omega = losses.targets.omega.copy()
        losses.total.backward()
        leaves = [output.y, output.a, output.y_aux]
        analytic = [leaf.grad if leaf.grad is not None else np.zeros(leaf.shape)
                    for leaf in leaves]
        numeric = finite_difference_grads(lambda: frozen_objective(
            output.y.data, output.a.data, output.y_aux.data, y, omega, task, alpha, beta), leaves)
        assert max(relative_gradient_error(a, n) for a, n in zip(analytic, numeric)) <= 1e-4

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.4, 1.0), (1.0, 0.0)])
    def test_parameter_gradients_bitwise_the_elementwise_chain(self, task, alpha, beta):
        cfg = AmeConfig(feature_partition=[[0, 1], [2], [3]], expert_hidden=[3, 2],
                        gate_hidden=3, aux_hidden=[4, 3], task=task, num_classes=3,
                        alpha=alpha, aux_weight=beta, seed=19)
        model = build_ame(cfg)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(9, 4))
        y = (np.eye(3)[rng.integers(0, 3, size=9)] if task == "classification"
             else rng.normal(size=(9, 1)))
        params = model.parameters()

        def grads(total):
            total.backward()
            got = [None if p.grad is None else p.grad.tobytes() for p in params]
            clear_grads(params)
            return got

        losses = batch_losses(model, forward(model, x), y)
        total, main, targets = chain_total(forward(model, x), y, task, alpha, beta)
        assert grads(losses.total) == grads(total)
        assert losses.main == main.item()
        for field in ("eps_excl", "eps_all", "delta_eps", "omega"):
            assert getattr(losses.targets, field).tobytes() == getattr(targets, field).tobytes()
        np.testing.assert_allclose(losses.total.item(), total.item(), rtol=1e-12, atol=1e-15)


class TestDetachedTargets:
    def test_mge_gradients_skip_auxiliary_parameters(self):
        cfg = AmeConfig(feature_partition=[[0, 1], [2], [3, 4]], expert_hidden=[4],
                        gate_hidden=4, aux_hidden=[4], task="regression",
                        alpha=1.0, aux_weight=0.0, seed=5)
        model = build_ame(cfg)
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(6, 5)), rng.normal(size=(6, 1))
        losses = batch_losses(model, forward(model, x), y)
        losses.total.backward()
        for p in model.aux.parameters():
            assert p.grad is None
        # while the gates do receive signal
        assert any(p.grad is not None and np.any(p.grad)
                   for p in model.gate_projection.parameters() + [model.gate_context])


class TestOneProbeStack:
    def test_loss_scores_all_probes_with_one_error_call(self, monkeypatch):
        model = build_ame(AmeConfig(feature_partition=[[0], [1, 2]], seed=4))
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(5, 3)), rng.normal(size=(5, 1))
        rows = []

        def counted(y_hat, y_true, task):
            rows.append(y_hat.shape[:-1])
            return per_sample_error(y_hat, y_true, task)

        monkeypatch.setattr(granger, "per_sample_error", counted)
        batch_losses(model, forward(model, x), y)
        assert rows == [(5,), (5, 3)]  # the prediction's, then every (sample, probe) row
        assert model.aux_excl is model.aux and model.aux_all is model.aux
        with pytest.raises(AttributeError):
            model.aux_all = model.aux


class TestLazyProbeTape:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_losses_and_grads_equal_a_hand_run_of_the_probes(self, task):
        cfg = AmeConfig(feature_partition=[[0, 1], [2], [3]], expert_hidden=[3, 2],
                        gate_hidden=3, aux_hidden=[4, 3], task=task, num_classes=3,
                        alpha=0.4, seed=17)
        model = build_ame(cfg)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(9, 4))
        y = (np.eye(3)[rng.integers(0, 3, size=9)] if task == "classification"
             else rng.normal(size=(9, 1)))

        def run(hand: bool):
            out = forward(model, x)
            if hand:  # the probe stack, layer by layer, before the loss reads it
                probes = out.h_all
                for layer in model.aux.layers:
                    probes = layer(probes)
                out.y_aux = probes
            losses = batch_losses(model, out, y)
            losses.total.backward()
            grads = [p.grad.copy() for p in model.parameters()]
            clear_grads(model.parameters())
            return losses, grads

        (lazy, lazy_grads), (hand, hand_grads) = run(False), run(True)
        np.testing.assert_array_equal(lazy.total.data, hand.total.data)
        assert lazy.main == hand.main
        assert (lazy.mge_value, lazy.aux_mean) == (hand.mge_value, hand.aux_mean)
        for field in ("eps_excl", "eps_all", "delta_eps", "omega"):
            np.testing.assert_array_equal(getattr(lazy.targets, field),
                                          getattr(hand.targets, field))
        for name, a, b in zip([p.name for p in model.parameters()], lazy_grads, hand_grads):
            np.testing.assert_array_equal(a, b, err_msg=name)


def tape(loss):
    """The distinct tensors on the tape behind `loss`."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def tape_nodes(loss):
    return len(tape(loss))


class TestTapeSize:
    @pytest.mark.parametrize("p", [8, 64])
    def test_a_training_step_puts_28_nodes_on_the_tape(self, p):
        # the desk-task shape; the count does not grow with p, since every
        # stack is one op, each dense layer (its mask and activation
        # included) one node, and each loss one node
        model = build_ame(AmeConfig(feature_partition=[[i] for i in range(p)], expert_hidden=[4],
                                    gate_hidden=8, aux_hidden=[8], task="classification",
                                    num_classes=2, alpha=0.1, aux_weight=1.0, seed=0))
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(64, p)), np.eye(2)[rng.integers(0, 2, size=64)]
        assert tape_nodes(batch_losses(model, forward(model, x), y).total) == 28


class TestBackwardLeavesItsGradientAlone:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_no_backward_writes_into_its_incoming_gradient(self, task):
        # Backward functions may return their gradient or views of it, so a
        # write into one would corrupt another's. Each is handed a read-only
        # view here, which a write would raise on; the gradients must not move.
        cfg = AmeConfig(feature_partition=[[0, 1], [2], [3, 4]], expert_hidden=[3, 2],
                        gate_hidden=3, aux_hidden=[4, 3], task=task, num_classes=3,
                        alpha=0.3, seed=29)
        rng = np.random.default_rng(29)
        x = rng.normal(size=(7, 5))
        y = (np.eye(3)[rng.integers(0, 3, size=7)] if task == "classification"
             else rng.normal(size=(7, 1)))

        def grads(frozen: bool):
            model = build_ame(cfg)
            groups = Tensor(group_inputs(model, x), requires_grad=True)
            loss = batch_losses(model, mix(model, *expert_states(model, groups)), y).total
            for node in tape(loss) if frozen else []:
                if node._backward_fn is not None:
                    node._backward_fn = lambda g, back=node._backward_fn: back(_read_only(g))
            loss.backward()
            return [groups.grad] + [t.grad for t in model.parameters()]

        for got, want in zip(grads(True), grads(False)):
            assert got.tobytes() == want.tobytes()


def _read_only(g):
    view = g.view()
    view.flags.writeable = False
    return view


class TestTapeSkipsInputGradients:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_parameters_bitwise_equal_to_a_tape_with_the_input_tracked(self, task):
        # Group inputs that require grad make the expert layer compute their
        # gradient; raw inputs leave it out. Either way they are one leaf, so
        # the tape has the same nodes. The parameters must not notice.
        cfg = AmeConfig(feature_partition=[[0, 1], [2], [3, 4]], expert_hidden=[3, 2],
                        gate_hidden=3, aux_hidden=[4, 3], task=task, num_classes=3,
                        alpha=0.3, seed=23)
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 11, 5))
        y = (np.eye(3)[rng.integers(0, 3, size=(3, 11))] if task == "classification"
             else rng.normal(size=(3, 11, 1)))

        def train(track_input: bool):
            model = build_ame(cfg)
            opt = Optimizer("adam", 0.05)
            nodes, input_grads = [], []
            for xb, yb in zip(x, y):
                groups = Tensor(group_inputs(model, xb), requires_grad=track_input)
                losses = batch_losses(model, mix(model, *expert_states(model, groups)), yb)
                nodes.append(tape_nodes(losses.total))
                losses.total.backward()
                input_grads.append(groups.grad)
                optimizer_step(opt, model.parameters())
                clear_grads(model.parameters())
            return model.parameters(), nodes, input_grads

        lean, lean_nodes, _ = train(False)
        full, full_nodes, input_grads = train(True)
        for a, b in zip(lean, full):
            np.testing.assert_array_equal(a.data, b.data, err_msg=a.name)
        assert lean_nodes == full_nodes
        assert all(g is not None and np.any(g) for g in input_grads)


class TestGrangerTargetsRecord:
    def test_fields_are_consistent(self):
        cfg = AmeConfig(feature_partition=[[0], [1]], expert_hidden=[3], gate_hidden=3,
                        aux_hidden=[3], task="regression", seed=2)
        model = build_ame(cfg)
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(10, 2)), rng.normal(size=(10, 1))
        targets = GrangerTargets.from_errors(aux_errors(forward(model, x).y_aux, y, "regression"))
        assert isinstance(targets, GrangerTargets)
        np.testing.assert_allclose(targets.delta_eps,
                                   targets.eps_excl - targets.eps_all[:, None], atol=1e-15)
        assert np.all(targets.omega >= 0)
        np.testing.assert_allclose(targets.omega.sum(axis=1), 1.0, atol=1e-9)


def linear_task(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = (1.5 * x[:, 0] - 0.5 * x[:, 1])[:, None]
    return x, y


class TestTraining:
    def make_model(self, alpha=0.1, seed=9):
        return build_ame(AmeConfig(feature_partition=[[0], [1], [2]], expert_hidden=[4],
                                   gate_hidden=4, aux_hidden=[4], task="regression",
                                   alpha=alpha, seed=seed, learning_rate=0.01,
                                   batch_size=32, epochs=5, patience=12))

    def test_empty_dataset_rejected(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="empty"):
            train_epoch(model, Optimizer("adam", 0.01), np.zeros((0, 3)),
                        np.zeros((0, 1)), np.random.default_rng(0))

    def test_fixed_seed_repeats_identical_metrics(self):
        x, y = linear_task()
        runs = []
        for _ in range(2):
            model = self.make_model()
            opt = Optimizer("adam", 0.01)
            rng = np.random.default_rng(123)
            runs.append([train_epoch(model, opt, x, y, rng) for _ in range(3)])
        assert runs[0] == runs[1]

    def test_same_training_twice_gives_bitwise_equal_parameters(self):
        # stacked experts (per-map input), gates and probes (shared input)
        cfg = AmeConfig(feature_partition=[[0, 1], [2], [3, 4]], expert_hidden=[3, 2],
                        gate_hidden=3, aux_hidden=[4, 3], task="classification", num_classes=3,
                        alpha=0.3, seed=41, learning_rate=0.02, batch_size=16, epochs=3)
        rng = np.random.default_rng(41)
        x, y = rng.normal(size=(70, 5)), np.eye(3)[rng.integers(0, 3, size=70)]
        runs = []
        for _ in range(2):
            model = build_ame(cfg)
            runs.append((fit(model, (x, y)), model.parameters()))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a.data, b.data, err_msg=a.name)

    def test_loss_decreases_on_linear_task(self):
        x, y = linear_task()
        model = self.make_model()
        rows = fit(model, (x, y), epochs=5)
        train_rows = [r for r in rows if r["split"] == "train"]
        assert len(train_rows) == 5
        assert train_rows[-1]["main_loss"] < train_rows[0]["main_loss"]

    def test_alpha_zero_still_reports_mge(self):
        x, y = linear_task()
        model = self.make_model(alpha=0.0)
        rows = fit(model, (x, y), epochs=2)
        assert all(np.isfinite(r["mge"]) for r in rows)

    def test_early_stopping_within_patience_of_best(self):
        x, y = linear_task(n=120)
        model = self.make_model()
        model.config.patience = 2
        rows = fit(model, (x[:80], y[:80]), (x[80:], y[80:]), epochs=60)
        val_rows = [r for r in rows if r["split"] == "val"]
        objective = [(1 - 0.1) * r["main_loss"] + 0.1 * r["mge"] + r["aux_loss_mean"]
                     for r in val_rows]
        best = int(np.argmin(objective))
        assert len(val_rows) <= best + 1 + 2

    def test_training_log_round_trips_bytes(self, tmp_path):
        x, y = linear_task(n=60)
        rows = fit(self.make_model(), (x, y), epochs=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_training_log(rows, a)
        write_training_log(rows, b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "epoch,split,main_loss,mge,aux_loss_mean,alpha"

    def test_evaluate_matches_objective_composition(self):
        x, y = linear_task(n=75)  # batches of 32, 32 and 11 rows
        model = self.make_model()
        metrics = evaluate(model, x, y)
        sums = np.zeros(3)
        for start in range(0, 75, model.config.batch_size):
            rows = slice(start, start + model.config.batch_size)
            losses = batch_losses(model, forward(model, x[rows]), y[rows])
            sums += x[rows].shape[0] * np.array(
                [losses.main, losses.mge_value, losses.aux_mean])
        assert list(metrics) == ["main_loss", "mge", "aux_loss_mean"]
        np.testing.assert_array_equal(list(metrics.values()), sums / 75)
