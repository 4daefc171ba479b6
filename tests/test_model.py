"""Tests for the mixture architecture: building, attention, forward, IO."""

import base64
import dataclasses
import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ame_lab.attribution import explain_ame, explain_occlusion, explain_saliency
from ame_lab.benchmark import masking_drop
from ame_lab.diffcore import (
    DenseLayer,
    Tensor,
    clear_grads,
    finite_difference_grads,
    glorot,
    relative_gradient_error,
)
from ame_lab.granger import batch_losses
from ame_lab.model import (
    AmeConfig,
    ConfigError,
    attention,
    build_ame,
    combined_state,
    draw_slot,
    forward,
    group_inputs,
    importance,
    load_model,
    model_from_dict,
    model_hash,
    model_to_dict,
    save_model,
)
from reference import frozen_objective


def small_config(**overrides):
    base = dict(feature_partition=[[0, 1], [2], [3, 4]], expert_hidden=[4],
                gate_hidden=4, aux_hidden=[4], task="regression", seed=3)
    base.update(overrides)
    return AmeConfig(**base)


def decoded(entry) -> np.ndarray:
    """A stored entry's values, flat, read the way the README says."""
    return np.frombuffer(base64.b64decode(entry["values"]), "<f8").copy()


def encoded(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def set_value(doc, name, index, value):
    """Set flat entry `index` of parameter `name`'s stored values."""
    values = decoded(doc["params"][name])
    values[index] = value
    doc["params"][name]["values"] = encoded(values)


class TestConfigValidation:
    def test_single_expert_attention_is_one(self):
        cfg = AmeConfig(feature_partition=[[0, 1, 2, 3]], seed=0)
        model = build_ame(cfg)
        out = forward(model, np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_array_equal(out.a.data, np.ones((5, 1)))

    def test_overlapping_partition_names_offending_index(self):
        with pytest.raises(ConfigError, match=r"overlap.*\[2\]"):
            AmeConfig(feature_partition=[[1, 2], [2, 3], [0]])

    def test_uncovered_indices_listed(self):
        with pytest.raises(ConfigError, match=r"\[1, 2\]"):
            AmeConfig(feature_partition=[[0], [3]])

    def test_huge_index_is_refused_with_a_short_message(self):
        # coverage is checked from the number of indices, never by listing 0..10**12
        message = (r"^feature_partition misses 999999999999 of indices 0\.\.1000000000000, "
                   r"first \[1, 2, 3, 4, 5\]$")
        with pytest.raises(ConfigError, match=message):
            AmeConfig(feature_partition=[[0], [10**12]])

    def test_six_groups_build_six_experts_and_seven_probes(self):
        cfg = AmeConfig(feature_partition=[[i] for i in range(6)], seed=1)
        model = build_ame(cfg)
        stacks = [model.experts.layers[0].weights, model.heads.layers[0].weights,
                  model.gate_projection.weights, model.gate_context]
        assert [t.shape[0] for t in stacks] == [6] * 4
        assert model.aux.layers[0].weights.shape[0] == 7

    def test_alpha_range_checked(self):
        with pytest.raises(ConfigError, match="alpha"):
            small_config(alpha=1.5)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="dropout"):
            AmeConfig.from_dict({"feature_partition": [[0]], "dropout": 0.5})

    def test_classification_needs_two_classes(self):
        with pytest.raises(ConfigError, match="num_classes"):
            small_config(task="classification", num_classes=1)

    @pytest.mark.parametrize("field, value", [
        ("gate_hidden", "4"), ("gate_hidden", True), ("gate_hidden", 4.0),
        ("expert_hidden", 3), ("aux_hidden", [4, "8"]), ("alpha", None), ("alpha", "0.1"),
        ("feature_partition", [[0, "1"], [2], [3, 4]]), ("feature_partition", [0, 1]),
        ("feature_partition", [[0, True], [2], [3, 4]]),
        ("task", 1), ("aux_weight", True), ("learning_rate", [0.1]), ("seed", None),
        ("seed", np.float64(3.0)), ("seed", np.bool_(True)), ("alpha", np.bool_(False)),
        ("gate_hidden", Fraction(4)), ("alpha", Decimal("0.1")), ("feature_partition", ({0},)),
    ])
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must be "):
            small_config(**{field: value})

    def test_numpy_scalars_and_ints_for_floats_pass(self, tmp_path):
        cfg = small_config(seed=np.int64(3), learning_rate=np.float32(0.1),
                           alpha=Fraction(1, 10), aux_weight=1, expert_hidden=[np.int32(4)],
                           feature_partition=[[np.int64(0), 1], [2], [3, 4]])
        plain = small_config(seed=3, learning_rate=float(np.float32(0.1)), alpha=0.1,
                             aux_weight=1.0)
        assert json.dumps(cfg.to_dict()) == json.dumps(plain.to_dict())
        assert {type(cfg.seed), type(cfg.learning_rate), type(cfg.alpha), type(cfg.aux_weight),
                type(cfg.expert_hidden[0]), type(cfg.feature_partition[0][0])} == {int, float}
        model = build_ame(cfg)
        save_model(model, tmp_path / "model.json")
        assert model_hash(model) == model_hash(build_ame(plain))
        assert model_hash(load_model(tmp_path / "model.json")) == model_hash(model)

    def test_loader_reads_integers_for_floats_as_floats(self):
        raw = small_config(alpha=0.0, aux_weight=2.0, learning_rate=1.0).to_dict()
        cfg = AmeConfig.from_dict(dict(raw, alpha=0, aux_weight=2, learning_rate=1))
        assert [type(getattr(cfg, f)) for f in ("alpha", "aux_weight", "learning_rate")] == [
            float, float, float]
        assert json.dumps(cfg.to_dict()) == json.dumps(raw)  # seed and widths stay ints
        with pytest.raises(ConfigError, match="^learning_rate must be finite, got "):
            AmeConfig.from_dict(dict(raw, learning_rate=10 ** 400))  # as the constructor says

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("inf")), ("aux_weight", float("nan")), ("alpha", -float("inf")),
        ("learning_rate", 10 ** 400),  # an int beyond float range
        ("learning_rate", np.float32("inf")), ("alpha", np.float32("nan")),
        ("aux_weight", Fraction(10 ** 400)),
    ])
    def test_non_finite_float_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must be finite, got "):
            small_config(**{field: value})


class TestConfigParse:
    """The constructor, `dataclasses.replace` and `from_dict` read a value
    through one parse, so each gives the config, and the model, of the plain
    JSON value."""

    def test_every_entry_path_gives_one_model_hash(self):
        ints = dict(alpha=0, aux_weight=2, learning_rate=1)
        configs = [small_config(**ints), dataclasses.replace(small_config(), **ints),
                   AmeConfig.from_dict(dict(small_config().to_dict(), **ints)),
                   small_config(alpha=0.0, aux_weight=2.0, learning_rate=1.0)]
        assert len({json.dumps(c.to_dict()) for c in configs}) == 1
        assert len({model_hash(build_ame(c)) for c in configs}) == 1

    def test_a_value_given_to_replace_is_parsed(self):
        cfg = dataclasses.replace(small_config(), seed=np.int64(7), alpha=1)
        assert (type(cfg.seed), type(cfg.alpha)) == (int, float)


class TestCombinedState:
    def test_interleaves_in_expert_order(self):
        h = Tensor([[[1.0], [2.0]]])
        c = Tensor([[[3.0], [4.0]]])
        np.testing.assert_array_equal(combined_state(h, c).data, [[1.0, 3.0, 2.0, 4.0]])

    def test_single_expert(self):
        out = combined_state(Tensor([[[5.0]]]), Tensor([[[6.0]]]))
        np.testing.assert_array_equal(out.data, [[5.0, 6.0]])

    def test_output_length_is_sum_of_extents(self):
        h = Tensor(np.zeros((2, 3, 2)))
        c = Tensor(np.zeros((2, 3, 1)))
        assert combined_state(h, c).shape == (2, 9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combined_state(Tensor(np.zeros((1, 1, 1))), Tensor(np.zeros((1, 2, 1))))


class TestGroupInputs:
    def test_slice_i_holds_group_i_and_pads_read_zero(self):
        model = build_ame(AmeConfig(feature_partition=[[2, 0], [1], [3, 5, 4]]))
        x = np.arange(1.0, 13.0).reshape(2, 6)
        np.testing.assert_array_equal(group_inputs(model, x), [
            [[3.0, 1.0, 0.0], [2.0, 0.0, 0.0], [4.0, 6.0, 5.0]],
            [[9.0, 7.0, 0.0], [8.0, 0.0, 0.0], [10.0, 12.0, 11.0]]])

    @pytest.mark.parametrize("shape", [(2, 5), (2, 7), (6,)])
    def test_wrong_feature_count_is_a_config_error(self, shape):
        model = build_ame(AmeConfig(feature_partition=[[2, 0], [1], [3, 5, 4]]))
        with pytest.raises(ConfigError, match="does not provide 6 features"):
            group_inputs(model, np.zeros(shape))


class TestAttention:
    def test_identical_gates_give_uniform(self):
        model = build_ame(small_config())
        proj = model.gate_projection
        proj.weights.data[:] = proj.weights.data[0]
        proj.bias.data[:] = proj.bias.data[0]
        model.gate_context.data[:] = model.gate_context.data[0]
        out = forward(model, np.random.default_rng(1).normal(size=(4, 5)))
        np.testing.assert_allclose(out.a.data, np.full((4, 3), 1.0 / 3), atol=1e-12)

    def test_hand_set_gates_match_independent_evaluation(self):
        # independent numpy evaluation of: project, tanh, score vs context, softmax
        model = build_ame(small_config())
        h_all = np.random.default_rng(2).normal(size=(3, 15))
        proj, context = model.gate_projection, model.gate_context
        got = attention(proj, context, Tensor(h_all)).data

        logits = np.zeros((3, 3))
        for i in range(3):
            u = np.tanh(h_all @ proj.weights.data[i].T + proj.bias.data[i])
            logits[:, i] = u @ context.data[i]
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected = shifted / shifted.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_rows_are_distributions_for_random_inputs(self):
        model = build_ame(small_config())
        rng = np.random.default_rng(3)
        out = forward(model, rng.normal(size=(50, 5)))
        assert np.all(out.a.data > 0)
        np.testing.assert_allclose(out.a.data.sum(axis=1), 1.0, atol=1e-6)


class TestForward:
    def test_prediction_is_attention_weighted_sum(self):
        model = build_ame(small_config())
        out = forward(model, np.random.default_rng(4).normal(size=(8, 5)))
        recon = sum(out.a.data[:, i:i + 1] * out.c.data[:, i] for i in range(3))
        np.testing.assert_allclose(recon, out.y.data, atol=1e-12)  # regression: y is the sum

    def test_near_one_hot_attention_selects_one_contribution(self):
        model = build_ame(small_config())
        # drive gate 1's logit far above the others
        model.gate_projection.weights.data[:] = 0.0
        model.gate_projection.bias.data[:] = 1.0
        model.gate_context.data[:] = -60.0
        model.gate_context.data[1] = 60.0
        out = forward(model, np.random.default_rng(5).normal(size=(4, 5)))
        np.testing.assert_allclose(out.y.data, out.c.data[:, 1], atol=1e-10)

    def test_feature_count_mismatch_rejected(self):
        model = build_ame(small_config())
        with pytest.raises(ConfigError, match="features"):
            forward(model, np.zeros((2, 7)))

    def test_feature_isolation(self):
        # perturbing group 1's features moves only contribution 1
        model = build_ame(small_config())
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 5))
        base = forward(model, x)
        bumped = x.copy()
        bumped[:, 2] += 1.0  # group 1 owns feature 2
        moved = forward(model, bumped)
        assert np.array_equal(base.c.data[:, 0], moved.c.data[:, 0])
        assert np.array_equal(base.c.data[:, 2], moved.c.data[:, 2])
        assert not np.array_equal(base.c.data[:, 1], moved.c.data[:, 1])

    def test_batched_equals_single_sample_bitwise(self):
        model = build_ame(small_config(task="classification", num_classes=3))
        x = np.random.default_rng(7).normal(size=(16, 5))
        full = forward(model, x)
        for i in range(16):
            single = forward(model, x[i:i + 1])
            np.testing.assert_array_equal(single.y.data[0], full.y.data[i])
            np.testing.assert_array_equal(single.a.data[0], full.a.data[i])
            np.testing.assert_array_equal(single.y_aux.data[0], full.y_aux.data[i])

    def test_classification_head_produces_probabilities(self):
        model = build_ame(small_config(task="classification", num_classes=4))
        out = forward(model, np.random.default_rng(8).normal(size=(6, 5)))
        assert out.y.shape == (6, 4)
        assert np.all(out.y.data > 0)
        np.testing.assert_allclose(out.y.data.sum(axis=1), 1.0, atol=1e-9)

    def test_excluded_probe_ignores_that_expert(self):
        # feeding a probe everything-but-expert-i must be insensitive to group i
        model = build_ame(small_config())
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 5))
        bumped = x.copy()
        bumped[:, 2] += 2.0  # group 1
        np.testing.assert_array_equal(forward(model, x).y_aux.data[:, 2],
                                      forward(model, bumped).y_aux.data[:, 2])


    def test_masked_probe_block_and_padding_neither_act_nor_learn(self):
        model = build_ame(small_config())
        first = model.aux.layers[0]
        blocked = np.broadcast_to(first.mask == 0, first.weights.shape)
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=(6, 5)), rng.normal(size=(6, 1))
        before = forward(model, x).y_aux.data
        first.weights.data[blocked] = 5.0  # the forward multiplies by the mask
        np.testing.assert_array_equal(forward(model, x).y_aux.data, before)
        batch_losses(model, forward(model, x), y).total.backward()
        assert not np.any(first.weights.grad[blocked])
        assert np.all(np.any(first.weights.grad != 0.0, axis=1)[~blocked[:, 0, :]])
        padded = model.experts.layers[0].weights.grad[1, :, 1]  # group [2]'s pad column
        assert not np.any(padded)


class ProbeSpy:
    """Stands in for a probe stack and counts its calls."""

    def __init__(self, net):
        self.net = net
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.net(x)

    def parameters(self):
        return self.net.parameters()


class TestLazyProbes:
    @staticmethod
    def spied_model():
        model = build_ame(small_config(task="classification", num_classes=2))
        model.aux = ProbeSpy(model.aux)
        return model

    def test_read_only_paths_build_no_probe(self):
        model = self.spied_model()
        x = np.random.default_rng(15).normal(size=(6, 5))
        out = forward(model, x)
        assert out.a.shape == (6, 3) and out.y.shape == (6, 2)
        explain_ame(model, x, batch_size=4)
        explain_saliency(model, x, batch_size=4)
        explain_occlusion(model, x[:2])
        masking_drop(model, x, np.eye(3, dtype=bool)[[[0]] * 6], 0.0)
        assert model.aux.calls == 0

    def test_loss_builds_each_probe_once_per_forward(self):
        model = self.spied_model()
        rng = np.random.default_rng(16)
        x, y = rng.normal(size=(6, 5)), np.eye(2)[rng.integers(0, 2, size=6)]
        out = forward(model, x)
        batch_losses(model, out, y)
        assert out.y_aux is out.y_aux
        assert model.aux.calls == 1


class TestImportance:
    def test_read_out_equals_attention(self):
        model = build_ame(small_config())
        out = forward(model, np.random.default_rng(10).normal(size=(5, 5)))
        scores = importance(out)
        np.testing.assert_array_equal(scores, out.a.data)
        scores[0, 0] = 99.0  # copy, not a view
        assert out.a.data[0, 0] != 99.0

    def test_single_expert_reads_one(self):
        model = build_ame(AmeConfig(feature_partition=[[0, 1]], seed=0))
        out = forward(model, np.zeros((3, 2)))
        np.testing.assert_array_equal(importance(out), np.ones((3, 1)))

    def test_rows_sum_to_one(self):
        model = build_ame(small_config())
        out = forward(model, np.random.default_rng(11).normal(size=(30, 5)))
        np.testing.assert_allclose(importance(out).sum(axis=1), 1.0, atol=1e-6)


def drawn_stacks(model):
    """Each stack of `model` as (layers, live): live[j] marks the input
    columns that map j of the first layer reads, worked out from the config."""
    cfg = model.config
    p, block = cfg.n_experts, cfg.expert_hidden[-1] + cfg.out_dim
    sizes = np.array([len(g) for g in cfg.feature_partition])
    groups = np.arange(model.experts.layers[0].weights.shape[2]) < sizes[:, None]
    probes = np.ones((p + 1, p * block), dtype=bool)
    for i in range(p):
        probes[i + 1, i * block:(i + 1) * block] = False  # expert i's state and contribution
    return [(model.experts.layers + model.heads.layers, groups),
            ([model.gate_projection], np.ones((p, p * block), dtype=bool)),
            (model.aux.layers, probes)]


class TestInitialDraw:
    @pytest.mark.parametrize("config", [
        small_config(),
        small_config(feature_partition=[[0, 1, 2]], expert_hidden=[4, 3], aux_hidden=[5, 2],
                     task="classification", num_classes=3),
    ], ids=["p3_padded", "p1"])
    def test_live_weights_lie_within_their_maps_glorot_limit(self, config):
        model = build_ame(config)
        for layers, live in drawn_stacks(model):
            for k, layer in enumerate(layers):
                assert not np.any(layer.bias.data), layer.bias.name
                w = layer.weights.data
                for j in range(w.shape[0]):
                    cols = live[j] if k == 0 else np.ones(w.shape[2], dtype=bool)
                    limit = np.sqrt(6.0 / (w.shape[1] + max(cols.sum(), 1)))
                    assert not np.any(w[j][:, ~cols]), (layer.weights.name, j)  # padded, masked
                    assert np.all(w[j][:, cols] != 0.0), (layer.weights.name, j)
                    assert np.all(np.abs(w[j][:, cols]) <= limit), (layer.weights.name, j)
        assert np.all(model.gate_context.data != 0.0)
        if config.n_experts == 1:  # probe slot 1 reads nothing, so its first map stays zero
            assert not np.any(model.aux.layers[0].weights.data[1])
            assert np.all(model.aux.layers[1].weights.data[1] != 0.0)

    def test_draw_starts_with_expert_0_over_its_own_columns(self):
        model = build_ame(small_config(seed=8))
        first = glorot(np.random.default_rng(8), (4, 2))  # group [0, 1]; expert_hidden [4]
        np.testing.assert_array_equal(model.experts.layers[0].weights.data[0, :, :2], first)

    def test_a_map_with_no_live_column_draws_one_column_and_keeps_none(self):
        layers = [DenseLayer(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3)))),
                  DenseLayer(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 2))))]
        draw_slot(np.random.default_rng(0), layers, 1, np.zeros(4, dtype=bool))
        rng = np.random.default_rng(0)
        glorot(rng, (3, 1))  # drawn for the first layer, kept nowhere
        assert not np.any(layers[0].weights.data) and not np.any(layers[1].weights.data[0])
        np.testing.assert_array_equal(layers[1].weights.data[1], glorot(rng, (2, 3)))


class TestSerialization:
    def test_round_trip_is_value_exact(self, tmp_path):
        model = build_ame(small_config(task="classification", num_classes=2))
        # perturb away from init so the round-trip is not trivially the seed
        for p in model.parameters():
            p.data = p.data + 0.125
        # padded expert columns and masked probe blocks must stay zero
        model.experts.layers[0].weights.data[1, :, 1] = 0.0  # group [2] pads one column
        model.aux.layers[0].weights.data *= model.aux.layers[0].mask
        # every bit survives, the sign of zero, subnormals and extremes included
        model.gate_context.data.reshape(-1)[:4] = [-0.0, 5e-324, -1.7976931348623157e308,
                                                   0.1 + 0.2]
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        for a, b in zip(model.parameters(), clone.parameters()):
            assert a.data.tobytes() == b.data.tobytes(), a.name
        x = np.random.default_rng(12).normal(size=(4, 5))
        np.testing.assert_array_equal(forward(model, x).y.data, forward(clone, x).y.data)

    def test_document_carries_config_and_seed(self):
        doc = model_to_dict(build_ame(small_config(seed=21)))
        assert doc["seed"] == 21
        assert doc["config"]["feature_partition"] == [[0, 1], [2], [3, 4]]

    def test_top_level_seed_must_match_the_config(self):
        for config_seed, stored in ((3, 99), (3, "3"), (3, 3.0), (1, True)):
            doc = model_to_dict(build_ame(small_config(seed=config_seed)))
            assert model_from_dict(dict(doc, seed=config_seed)).config.seed == config_seed
            with pytest.raises(ConfigError, match=rf"^seed: stored {stored!r} != config seed "
                                                  rf"{config_seed}$"):
                model_from_dict(dict(doc, seed=stored))

    def test_shape_mismatch_on_load_rejected(self):
        doc = model_to_dict(build_ame(small_config()))
        name = next(iter(doc["params"]))
        doc["params"][name]["shape"] = [1, 1]
        doc["params"][name]["values"] = encoded([0.0])
        with pytest.raises(ConfigError, match=name):
            model_from_dict(doc)

    def test_hash_golden_digest(self):
        # sha256 over the config JSON and each parameter's name, shape and
        # float64 bytes; changing the definition or the draw changes it
        assert model_hash(build_ame(small_config())) == "56ba43db48d02025"

    def test_hash_survives_save_and_load(self, tmp_path):
        model = build_ame(small_config(task="classification", num_classes=3))
        save_model(model, tmp_path / "model.json")
        assert model_hash(load_model(tmp_path / "model.json")) == model_hash(model)

    def test_hash_changes_with_one_entry_of_any_parameter(self):
        model = build_ame(small_config())
        names = [t.name for t in model.parameters()]
        assert {"aux.head.bias", "aux.hidden_0.weights"} <= set(names)
        before = model_hash(model)
        rng = np.random.default_rng(14)
        for t in model.parameters():
            entry = tuple(int(rng.integers(0, n)) for n in t.shape)
            kept = t.data[entry]
            t.data[entry] = kept + 2.0 ** -40
            assert model_hash(model) != before, t.name
            t.data[entry] = kept
            assert model_hash(model) == before, t.name

    def test_hash_tracks_config(self):
        assert model_hash(build_ame(small_config())) != model_hash(
            build_ame(small_config(learning_rate=0.5)))

    def test_hash_tracks_parameter_values(self):
        model = build_ame(small_config())
        before = model_hash(model)
        assert before == model_hash(model)
        model.parameters()[0].data[0, 0] += 1.0
        assert model_hash(model) != before

    def test_same_seed_same_model_bitwise(self):
        a = build_ame(small_config(seed=42))
        b = build_ame(small_config(seed=42))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_json_document_is_plain_json(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(build_ame(small_config()), path)
        with open(path) as fh:
            json.load(fh)

    @pytest.mark.parametrize("doc", [[], {"config": {}}, {"config": {}, "params": []}])
    def test_document_without_config_and_params_rejected(self, doc):
        with pytest.raises(ConfigError, match="'config' and 'params'"):
            model_from_dict(doc)

    def test_missing_parameter_named(self):
        doc = model_to_dict(build_ame(small_config()))
        del doc["params"]["aux.head.bias"]
        with pytest.raises(ConfigError, match=r"aux\.head\.bias: missing"):
            model_from_dict(doc)

    def test_extra_parameter_named(self):
        doc = model_to_dict(build_ame(small_config()))
        doc["params"]["gates.temperature"] = {"shape": [1], "values": encoded([1.0])}
        with pytest.raises(ConfigError, match=r"gates\.temperature: not part"):
            model_from_dict(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_named(self, bad):
        doc = model_to_dict(build_ame(small_config()))
        set_value(doc, "gates.context", 2, bad)
        with pytest.raises(ConfigError, match=r"gates\.context: non-finite"):
            model_from_dict(doc)

    @pytest.mark.parametrize("name, entry", [
        ("aux.hidden_0.weights", (1, 0, 1)),      # probe slot 1 reading expert 0's block
        ("experts.hidden_0.weights", (1, 0, 1)),  # group [2] padded to two columns
    ])
    def test_non_zero_structural_entry_named(self, name, entry):
        model = build_ame(small_config())
        next(t for t in model.parameters() if t.name == name).data[entry] = 0.5
        with pytest.raises(ConfigError, match=name.replace(".", r"\.")):
            model_from_dict(model_to_dict(model))

    def test_stored_integer_alpha_loads_as_a_float(self):
        model = build_ame(small_config(alpha=0.0))
        doc = model_to_dict(model)
        doc["config"]["alpha"] = 0
        loaded = model_from_dict(doc)
        assert type(loaded.config.alpha) is float
        assert model_hash(loaded) == model_hash(model)

    def test_document_records_format_4(self):
        model = build_ame(small_config())
        doc = model_to_dict(model)
        assert doc["format"] == 4
        assert doc["model_hash"] == model_hash(model)
        for p in model.parameters():
            entry = doc["params"][p.name]
            assert isinstance(entry["values"], str) and entry["shape"] == list(p.shape)
            np.testing.assert_array_equal(decoded(entry).reshape(entry["shape"]), p.data)

    @pytest.mark.parametrize("values, match", [
        ([0.0] * 12, r"malformed entry .*base64 text, not list"),
        (7, r"malformed entry .*base64 text, not int"),
        (None, r"malformed entry .*base64 text, not NoneType"),
        ("AAAA!AAAAAAAAAA=", r"malformed entry"),             # not base64
        ("AAAAAAAAAAA", r"malformed entry"),                  # padding missing
        (encoded([0.5] * 11), r"88 bytes stored; shape \[3, 4\] needs 96"),
        (encoded([0.5] * 13), r"104 bytes stored; shape \[3, 4\] needs 96"),
        (encoded([0.5] * 12)[:-4], r"93 bytes stored; shape \[3, 4\] needs 96"),  # cut short
    ], ids=["list", "int", "null", "not_base64", "no_padding", "short", "long", "cut"])
    def test_bad_values_named(self, values, match):
        doc = model_to_dict(build_ame(small_config()))
        assert doc["params"]["gates.context"]["shape"] == [3, 4]
        doc["params"]["gates.context"]["values"] = values
        with pytest.raises(ConfigError, match=r"^parameter gates\.context: " + match):
            model_from_dict(doc)

    def test_hash_must_match_the_document(self):
        model = build_ame(small_config())
        doc = model_to_dict(model)
        assert model_hash(model_from_dict(doc)) == doc["model_hash"]
        edited = [dict(doc, model_hash="0" * 16),
                  dict(doc, config=dict(doc["config"], learning_rate=0.5)),
                  dict(doc, config=dict(doc["config"], seed=4))]
        one_value = json.loads(json.dumps(doc))
        bias = decoded(doc["params"]["aux.head.bias"])[0]
        set_value(one_value, "aux.head.bias", 0, bias + 2.0 ** -40)
        for bad in edited + [one_value]:
            with pytest.raises(ConfigError, match="^model_hash: stored '[0-9a-f]{16}' != "):
                model_from_dict(bad)
        del doc["model_hash"]
        with pytest.raises(ConfigError, match="^model_hash: missing"):
            model_from_dict(doc)

    @pytest.mark.parametrize("cut", [0, 1, 100, -40, -2])
    def test_truncated_or_garbled_file_names_the_file(self, tmp_path, cut):
        path = tmp_path / "model.json"
        save_model(build_ame(small_config()), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ConfigError, match=f"^{path}: not a model document"):
            load_model(path)

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format": 4, "config": "\xff\xfe"}')
        with pytest.raises(ConfigError, match="not a model document"):
            load_model(path)


@st.composite
def stacked_cases(draw, max_groups=4):
    """A model over a random partition with uneven group sizes (so inputs are
    padded), every parameter perturbed, masked and padded entries included,
    plus a batch of 1 to 17 rows."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=max_groups))
    order = draw(st.permutations(range(sum(sizes))))
    bounds = np.cumsum([0, *sizes])
    cfg = AmeConfig(feature_partition=[sorted(order[a:b]) for a, b in zip(bounds, bounds[1:])],
                    expert_hidden=[draw(st.integers(1, 2))], gate_hidden=draw(st.integers(1, 2)),
                    aux_hidden=[draw(st.integers(1, 2))],
                    task=draw(st.sampled_from(["regression", "classification"])),
                    num_classes=draw(st.integers(2, 3)), alpha=0.5, aux_weight=1.0,
                    seed=draw(st.integers(0, 2**16)))
    model = build_ame(cfg)
    rng = np.random.default_rng(cfg.seed)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    n = draw(st.integers(1, 17))
    x = rng.normal(size=(n, cfg.n_features))
    y = (np.eye(cfg.num_classes)[rng.integers(0, cfg.num_classes, size=n)]
         if cfg.task == "classification" else rng.normal(size=(n, 1)))
    return model, x, y


class TestStackedProperties:
    @given(stacked_cases())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_batched_equals_single_sample_bitwise(self, case):
        model, x, _ = case
        full = forward(model, x)
        for i in range(x.shape[0]):
            single = forward(model, x[i:i + 1])
            for field in ("y", "a", "y_aux"):
                np.testing.assert_array_equal(getattr(single, field).data[0],
                                              getattr(full, field).data[i])

    @given(stacked_cases(max_groups=3))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_blended_loss_gradients_match_finite_differences(self, case):
        model, x, y = case
        params = model.parameters()
        losses = batch_losses(model, forward(model, x), y)
        omega = losses.targets.omega.copy()

        def loss_with_frozen_targets():
            out = forward(model, x)
            return frozen_objective(out.y.data, out.a.data, out.y_aux.data, y, omega,
                                    model.config.task, 0.5, 1.0)

        losses.total.backward()
        analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                    for p in params]
        clear_grads(params)
        numeric = finite_difference_grads(loss_with_frozen_targets, params, step=1e-6)
        assert max(relative_gradient_error(a, n) for a, n in zip(analytic, numeric)) <= 1e-4
