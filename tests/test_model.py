"""Tests for the mixture architecture: building, attention, forward, IO."""

import base64
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ame_lab.attribution import explain_ame, explain_occlusion, explain_saliency
from ame_lab.benchmark import masking_drop
from ame_lab.diffcore import (
    Tensor,
    clear_grads,
    finite_difference_grads,
    per_sample_cross_entropy,
    per_sample_mae,
    relative_gradient_error,
)
from ame_lab.granger import aux_errors, batch_losses, mge_loss, total_loss
from ame_lab.model import (
    AmeConfig,
    ConfigError,
    _layout,
    attention,
    build_ame,
    combined_state,
    forward,
    importance,
    load_model,
    model_from_dict,
    model_hash,
    model_to_dict,
    save_model,
)

DATA = Path(__file__).parent / "data"


def small_config(**overrides):
    base = dict(feature_partition=[[0, 1], [2], [3, 4]], expert_hidden=[4],
                gate_hidden=4, aux_hidden=[4], task="regression", seed=3)
    base.update(overrides)
    return AmeConfig(**base)


def decoded(entry) -> np.ndarray:
    """A format-3 entry's values, flat, read the way the README says."""
    return np.frombuffer(base64.b64decode(entry["values"]), "<f8").copy()


def encoded(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def document(model, fmt):
    """`model_to_dict(model)`, or the same model written the format-2 or
    format-3 way: the probe stack as `aux_excl.*` and `aux_all.*`, values as
    lists of numbers and no stored hash in format 2, base64 and the hash over
    that layout in format 3."""
    doc = model_to_dict(model)
    if fmt < 4:
        doc = {"format": fmt, "config": doc["config"], "seed": doc["seed"],
               "params": {name: {"shape": list(shape), "values": stored(target.ravel(), fmt)}
                          for name, shape, target, _ in _layout(model, fmt)}}
        if fmt == 3:
            doc["model_hash"] = model_hash(model, 3)
    return doc


def old_layout_values(model, name):
    """The values that parameter `name` of a format-2 or format-3 document
    holds in `model`: `aux_excl.*` is probe slots 1..p, `aux_all.*` slot 0."""
    prefix, rest = name.split(".", 1)
    params = {t.name: t.data for t in model.parameters()}
    if prefix == "aux_excl":
        return params[f"aux.{rest}"][1:]
    if prefix == "aux_all":
        return params[f"aux.{rest}"][0]
    return params[name]


def stored(values, fmt):
    """`values` as a format-`fmt` document stores them."""
    return list(map(float, values)) if fmt == 2 else encoded(values)


def set_value(doc, name, index, value):
    """Set flat entry `index` of parameter `name`'s stored values, in either format."""
    entry = doc["params"][name]
    values = np.array(entry["values"]) if doc["format"] == 2 else decoded(entry)
    values[index] = value
    entry["values"] = stored(values, doc["format"])


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
    ])
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must be "):
            small_config(**{field: value})

    def test_numpy_scalars_and_ints_for_floats_pass(self):
        cfg = small_config(seed=np.int64(4), alpha=1, learning_rate=np.float64(0.01),
                           feature_partition=[[np.int64(0), 1], [2], [3, 4]])
        assert build_ame(cfg).config.alpha == 1

    def test_loader_reads_integers_for_floats_as_floats(self):
        raw = small_config(alpha=0.0, aux_weight=2.0, learning_rate=1.0).to_dict()
        cfg = AmeConfig.from_dict(dict(raw, alpha=0, aux_weight=2, learning_rate=1))
        assert [type(getattr(cfg, f)) for f in ("alpha", "aux_weight", "learning_rate")] == [
            float, float, float]
        assert json.dumps(cfg.to_dict()) == json.dumps(raw)  # seed and widths stay ints
        with pytest.raises(ConfigError, match="^learning_rate must be a float"):
            AmeConfig.from_dict(dict(raw, learning_rate=10 ** 400))


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
        np.testing.assert_allclose(recon, out.combined.data, atol=1e-12)

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

    @pytest.mark.parametrize("fmt", [2, 3, 4])
    def test_top_level_seed_must_match_the_config(self, fmt):
        for config_seed, stored in ((3, 99), (3, "3"), (3, 3.0), (1, True)):
            doc = document(build_ame(small_config(seed=config_seed)), fmt)
            assert model_from_dict(dict(doc, seed=config_seed)).config.seed == config_seed
            with pytest.raises(ConfigError, match=rf"^seed: stored {stored!r} != config seed "
                                                  rf"{config_seed}$"):
                model_from_dict(dict(doc, seed=stored))

    @pytest.mark.parametrize("fmt", [2, 3, 4])
    def test_shape_mismatch_on_load_rejected(self, fmt):
        doc = document(build_ame(small_config()), fmt)
        name = next(iter(doc["params"]))
        doc["params"][name]["shape"] = [1, 1]
        doc["params"][name]["values"] = stored([0.0], fmt)
        with pytest.raises(ConfigError, match=name):
            model_from_dict(doc)

    def test_hash_golden_digest(self):
        # sha256 over the config JSON and each parameter's name, shape and
        # float64 bytes; changing the definition changes every stored hash
        assert model_hash(build_ame(small_config())) == "0413c5f8c1a73ce8"
        assert model_hash(load_model(DATA / "format1_model.json")) == "f36069e3d4fab528"
        # hashed in the format-3 layout, the digests the format-3 code gave
        assert model_hash(build_ame(small_config()), 3) == "1cfa1bc97a3ac31d"
        assert model_hash(load_model(DATA / "format1_model.json"), 3) == "f5acb54d5bf1fce2"

    @pytest.mark.parametrize("source", ["built", "format1"])
    def test_hash_survives_save_and_load(self, tmp_path, source):
        model = (build_ame(small_config(task="classification", num_classes=3))
                 if source == "built" else load_model(DATA / "format1_model.json"))
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

    def test_untrained_draws_are_those_of_the_format_3_layout(self):
        # sha256 of each parameter's <f8 bytes as built by the code that kept
        # aux_excl (p probes) and aux_all apart, for p = 1, 3, 8 and 64
        for case in json.loads((DATA / "format3_draws.json").read_text()):
            model = build_ame(AmeConfig(**case["config"]))
            for name, digest in case["sha256"].items():
                values = np.ascontiguousarray(old_layout_values(model, name), dtype="<f8")
                assert hashlib.sha256(values.tobytes()).hexdigest() == digest, name
            assert len(case["sha256"]) == len(model.main_parameters()) + 2 * len(
                model.aux.parameters())

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

    @pytest.mark.parametrize("fmt", [0, 5, "2", True, 3.0])
    def test_unknown_format_rejected(self, fmt):
        doc = model_to_dict(build_ame(small_config()))
        doc["format"] = fmt
        with pytest.raises(ConfigError, match="format"):
            model_from_dict(doc)

    @pytest.mark.parametrize("doc", [[], {"config": {}}, {"config": {}, "params": []}])
    def test_document_without_config_and_params_rejected(self, doc):
        with pytest.raises(ConfigError, match="'config' and 'params'"):
            model_from_dict(doc)

    def test_missing_parameter_named(self):
        doc = model_to_dict(build_ame(small_config()))
        del doc["params"]["aux.head.bias"]
        with pytest.raises(ConfigError, match=r"aux\.head\.bias: missing"):
            model_from_dict(doc)

    @pytest.mark.parametrize("fmt", [2, 3, 4])
    def test_extra_parameter_named(self, fmt):
        doc = document(build_ame(small_config()), fmt)
        doc["params"]["gates.temperature"] = {"shape": [1], "values": stored([1.0], fmt)}
        with pytest.raises(ConfigError, match=r"gates\.temperature: not part"):
            model_from_dict(doc)

    @pytest.mark.parametrize("fmt", [2, 3, 4])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_named(self, bad, fmt):
        doc = document(build_ame(small_config()), fmt)
        set_value(doc, "gates.context", 2, bad)
        with pytest.raises(ConfigError, match=r"gates\.context: non-finite"):
            model_from_dict(doc)

    @pytest.mark.parametrize("name, entry", [
        ("aux.hidden_0.weights", (1, 0, 1)),      # probe slot 1 reading expert 0's block
        ("experts.hidden_0.weights", (1, 0, 1)),  # group [2] padded to two columns
    ])
    @pytest.mark.parametrize("fmt", [2, 3, 4])
    def test_non_zero_structural_entry_named(self, name, entry, fmt):
        model = build_ame(small_config())
        next(t for t in model.parameters() if t.name == name).data[entry] = 0.5
        with pytest.raises(ConfigError, match=name.replace(".", r"\.")):
            model_from_dict(document(model, fmt))

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

    def test_format_1_file_reads_bit_identical_attention(self):
        # written by the per-expert list layout: partition [[0, 1], [2], [3, 4]],
        # three classes, two hidden layers per expert and per probe
        model = load_model(DATA / "format1_model.json")
        doc = json.loads((DATA / "format1_model.json").read_text())
        for name, shape, target, columns in _layout(model, 1):
            np.testing.assert_array_equal(
                target[..., columns], np.array(doc["params"][name]["values"]).reshape(shape))
        ref = json.loads((DATA / "format1_outputs.json").read_text())
        out = forward(model, np.array(ref["x"]))
        # the stored attention came from the einsum forward, which summed in
        # another order than the BLAS forward: equal to within 2 ulp
        np.testing.assert_array_max_ulp(out.a.data, np.array(ref["attention"]), maxulp=2)
        np.testing.assert_allclose(out.y.data, ref["y"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.y_aux.data[:, 0], ref["y_aux_all"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.y_aux.data[:, 1:], np.stack(ref["y_aux_excl"], axis=1),
                                   rtol=0, atol=1e-12)
        clone = model_from_dict(model_to_dict(model))  # and it re-saves as format 4
        np.testing.assert_array_equal(forward(clone, np.array(ref["x"])).a.data, out.a.data)

    @pytest.mark.parametrize("field", ["detach_targets", "aux_grads_to_experts"])
    def test_retired_field_loads_when_true_and_is_refused_otherwise(self, field):
        doc = json.loads((DATA / "format1_model.json").read_text())
        assert doc["config"][field] is True  # written when the field still existed
        without = dict(doc, config={k: v for k, v in doc["config"].items() if k != field})
        x = np.random.default_rng(17).normal(size=(4, 5))
        np.testing.assert_array_equal(forward(model_from_dict(doc), x).a.data,
                                      forward(model_from_dict(without), x).a.data)
        assert field not in model_to_dict(model_from_dict(doc))["config"]
        for value in (False, 0, None):
            doc["config"][field] = value
            with pytest.raises(ConfigError, match=rf"^{field}: stored value"):
                model_from_dict(doc)

    def test_format_1_missing_parameter_named(self):
        doc = json.loads((DATA / "format1_model.json").read_text())
        del doc["params"]["aux_excl_1.hidden_0.weights"]
        with pytest.raises(ConfigError, match=r"aux_excl_1\.hidden_0\.weights"):
            model_from_dict(doc)

    def test_format_2_file_loads_bit_identical_values(self, tmp_path):
        # written by the format-2 writer (values as decimal lists): partition
        # [[0, 3], [1], [2, 4, 5]], two classes, trained for a few epochs
        doc = json.loads((DATA / "format2_model.json").read_text())
        assert doc["format"] == 2 and "model_hash" not in doc
        model = load_model(DATA / "format2_model.json")
        for name in doc["params"]:
            np.testing.assert_array_equal(old_layout_values(model, name), np.array(
                doc["params"][name]["values"]).reshape(doc["params"][name]["shape"]))
        assert sum(int(np.prod(e["shape"])) for e in doc["params"].values()) == sum(
            p.size for p in model.parameters())
        assert model_hash(model, 2) == "c02ed1dafc680187"  # as the format-2 code hashed it
        save_model(model, tmp_path / "model.json")
        resaved = json.loads((tmp_path / "model.json").read_text())
        assert resaved["format"] == 4 and resaved["model_hash"] == model_hash(model)
        clone = load_model(tmp_path / "model.json")
        for a, b in zip(model.parameters(), clone.parameters()):
            assert a.data.tobytes() == b.data.tobytes(), a.name

    def test_format_3_file_loads_each_value_into_its_slot(self):
        # written by the format-3 writer, trained for five epochs: partition
        # [[0, 2], [1], [3, 4, 5]], three classes, two hidden layers per probe
        doc = json.loads((DATA / "format3_model.json").read_text())
        assert doc["format"] == 3
        model = load_model(DATA / "format3_model.json")  # checks the stored hash
        assert model_hash(model, 3) == doc["model_hash"]
        for name, entry in doc["params"].items():
            stored_bytes = base64.b64decode(entry["values"])
            assert old_layout_values(model, name).tobytes() == stored_bytes, name
        assert sum(int(np.prod(e["shape"])) for e in doc["params"].values()) == sum(
            p.size for p in model.parameters())

    def test_format_3_file_reads_its_recorded_outputs(self):
        # outputs recorded by the format-3 code; its y_aux_all is probe slot 0
        model = load_model(DATA / "format3_model.json")
        doc = json.loads((DATA / "format3_model.json").read_text())
        for name, entry in doc["params"].items():
            assert old_layout_values(model, name).tobytes() == base64.b64decode(entry["values"])
        ref = json.loads((DATA / "format3_outputs.json").read_text())
        out = forward(model, np.array(ref["x"]))
        # recorded under numerics 3, which ran the gate projection as one gemv
        # per row and map, not one per row over the flattened stack: 3 of the
        # 21 attention entries moved by 1 ulp, and 2 of the predictions by 7
        np.testing.assert_array_max_ulp(out.a.data, np.array(ref["attention"]), maxulp=2)
        np.testing.assert_allclose(out.y.data, ref["y"], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(out.y_aux.data[:, 0], ref["y_aux_all"])
        np.testing.assert_array_equal(out.y_aux.data[:, 1:], ref["y_aux_excl"])

    def test_format_3_file_saves_again_as_format_4(self, tmp_path):
        model = load_model(DATA / "format3_model.json")
        save_model(model, tmp_path / "model.json")
        resaved = json.loads((tmp_path / "model.json").read_text())
        assert resaved["format"] == 4 and resaved["model_hash"] == model_hash(model)
        assert [name for name in resaved["params"] if name.startswith("aux")] == [
            "aux.hidden_0.weights", "aux.hidden_0.bias", "aux.hidden_1.weights",
            "aux.hidden_1.bias", "aux.head.weights", "aux.head.bias"]
        assert resaved["params"]["aux.head.weights"]["shape"] == [4, 3, 3]  # p+1 slots
        clone = load_model(tmp_path / "model.json")
        for a, b in zip(model.parameters(), clone.parameters()):
            assert a.data.tobytes() == b.data.tobytes(), a.name

    def test_format_3_file_edited_in_place_is_refused(self):
        doc = json.loads((DATA / "format3_model.json").read_text())
        before = doc["params"]["aux_all.head.bias"]["values"]
        set_value(doc, "aux_all.head.bias", 1, decoded(doc["params"]["aux_all.head.bias"])[1] * 2)
        assert len(doc["params"]["aux_all.head.bias"]["values"]) == len(before)
        assert doc["params"]["aux_all.head.bias"]["values"] != before
        with pytest.raises(ConfigError, match="^model_hash: stored '[0-9a-f]{16}' != "):
            model_from_dict(doc)

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
    def test_format_3_bad_values_named(self, values, match):
        doc = model_to_dict(build_ame(small_config()))
        assert doc["params"]["gates.context"]["shape"] == [3, 4]
        doc["params"]["gates.context"]["values"] = values
        with pytest.raises(ConfigError, match=r"^parameter gates\.context: " + match):
            model_from_dict(doc)

    @pytest.mark.parametrize("fmt, bias_name", [(3, "aux_all.head.bias"), (4, "aux.head.bias")])
    def test_format_3_hash_must_match_the_document(self, fmt, bias_name):
        model = build_ame(small_config())
        doc = document(model, fmt)
        assert model_hash(model_from_dict(doc), fmt) == doc["model_hash"]
        edited = [dict(doc, model_hash="0" * 16),
                  dict(doc, config=dict(doc["config"], learning_rate=0.5)),
                  dict(doc, config=dict(doc["config"], seed=4))]
        one_value = json.loads(json.dumps(doc))
        bias = decoded(doc["params"][bias_name])[0]
        set_value(one_value, bias_name, 0, bias + 2.0 ** -40)
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
        path.write_bytes(b'{"format": 3, "config": "\xff\xfe"}')
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
            eps = aux_errors(out.y_aux, y, model.config.task).data  # column 0 reads every expert
            error = (per_sample_cross_entropy if model.config.task == "classification"
                     else per_sample_mae)
            main = error(out.y, Tensor(y)).mean()
            aux = Tensor(np.append(eps[:, 1:].mean(axis=0), eps[:, 0].mean()))
            return total_loss(main, mge_loss(omega, out.a), aux, 0.5, 1.0).item()

        losses.total.backward()
        analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                    for p in params]
        clear_grads(params)
        numeric = finite_difference_grads(loss_with_frozen_targets, params, step=1e-6)
        assert max(relative_gradient_error(a, n) for a, n in zip(analytic, numeric)) <= 1e-4
