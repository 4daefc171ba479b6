"""Tests for the importance estimators, normalizing transform, and oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ame_lab.attribution import (
    ESTIMATORS,
    ProbeConfig,
    explain_ame,
    explain_occlusion,
    explain_saliency,
    granger_oracle,
    normalize_scores,
    read_importance_csv,
    report_rows,
    write_importance_csv,
)
from ame_lab import attribution, granger
from ame_lab import diffcore as dc
from ame_lab import model as model_module
from ame_lab.diffcore import Optimizer, Tensor, clear_grads
from ame_lab.granger import delta_epsilon, kl_divergence, omega_targets
from ame_lab.model import AmeConfig, ConfigError, build_ame, forward, group_inputs


def two_group_model(task="regression", seed=0, silence_second_expert=False,
                    freeze_gates=False):
    cfg = AmeConfig(feature_partition=[[0], [1]], expert_hidden=[2], gate_hidden=3,
                    aux_hidden=[3], task=task, num_classes=2, seed=seed, batch_size=8)
    model = build_ame(cfg)
    if silence_second_expert:
        model.heads.layers[0].weights.data[1] = 0.0
        model.heads.layers[0].bias.data[1] = 0.0
    if freeze_gates:
        model.gate_projection.weights.data[:] = 0.0  # logits constant in the input
    return model


class TestNormalizeScores:
    def test_signed_values_hand_case(self):
        scores, degenerate = normalize_scores(np.array([[3.0, -1.0]]))
        np.testing.assert_allclose(scores, [[0.75, 0.25]])
        assert not degenerate.any()

    def test_one_hot_is_fixed_point(self):
        scores, _ = normalize_scores(np.array([[0.0, 1.0, 0.0]]))
        np.testing.assert_array_equal(scores, [[0.0, 1.0, 0.0]])

    def test_all_zero_flags_degenerate_uniform(self):
        scores, degenerate = normalize_scores(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(scores, [[0.5, 0.5]])
        assert degenerate.all()

    def test_empty_rejected(self):
        for raw in (np.zeros((3, 0)), np.array([1.0, 2.0])):
            with pytest.raises(ValueError, match="normalize_scores"):
                normalize_scores(raw)

    @given(raw=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8),
           k=st.floats(min_value=-1000, max_value=1000).filter(lambda k: abs(k) > 1e-6))
    @example(raw=[5e-324], k=0.5)
    @settings(max_examples=300, deadline=None)
    def test_scale_invariance(self, raw, k):
        raw = np.array([raw])
        base, flag_a = normalize_scores(raw)
        scaled, flag_b = normalize_scores(k * raw)
        scaled_total = np.abs(k * raw).sum()
        if scaled_total == 0.0:  # k * raw underflowed to all zeros
            assert flag_b[0]
            np.testing.assert_array_equal(scaled, np.full(raw.shape, 1.0 / raw.size))
            return
        assert flag_a[0] == flag_b[0]
        # rounding k * x to a float moves it by up to half the smallest
        # subnormal, which tiny totals feel; otherwise the scores agree
        tol = 1e-9 + (raw.size + 1) * np.finfo(float).smallest_subnormal / scaled_total
        np.testing.assert_allclose(base, scaled, rtol=0, atol=tol)

    @pytest.mark.parametrize("p", [1, 3, 9, 40])
    def test_row_batch_equals_per_row_normalize(self, p):
        rng = np.random.default_rng(p)
        raw = rng.normal(size=(12, p)) * rng.choice([1e-300, 1.0, 1e300], size=(12, 1))
        raw[[2, 7]] = 0.0  # all-zero rows fall back to uniform
        rows, flags = normalize_scores(raw)
        for s in range(raw.shape[0]):
            expected, degenerate = normalize_scores(raw[s:s + 1])
            np.testing.assert_array_equal(rows[s], expected[0])
            assert flags[s] == degenerate[0]
            if not degenerate[0]:
                np.testing.assert_allclose(rows[s], np.abs(raw[s]) / np.abs(raw[s]).sum(),
                                           rtol=1e-15)
        np.testing.assert_array_equal(rows[[2, 7]], np.full((2, p), 1.0 / p))
        assert flags[[2, 7]].all() and flags.sum() == 2

    @pytest.mark.parametrize("p", [1, 3, 8, 40])
    def test_rows_and_flags_bitwise_the_where_formula(self, p):
        rng = np.random.default_rng(p)
        raw = rng.normal(size=(16, p)) * rng.choice([1e-300, 1.0, 1e300], size=(16, 1))
        raw[[2, 7]] = 0.0
        raw[3] = -0.0
        raw[5, 0] = np.nan
        raw[9, -1] = np.inf
        raw[11] = 5e-324
        with np.errstate(invalid="ignore"):  # inf / inf
            mags = np.abs(raw)  # the formula as it was, as the reference
            totals = mags.sum(axis=1, keepdims=True)
            degenerate = totals <= 0.0
            expected = np.where(degenerate, 1.0 / p, mags / np.where(degenerate, 1.0, totals))
            rows, flags = normalize_scores(raw)
        assert rows.tobytes() == expected.tobytes()
        assert flags.tobytes() == degenerate[:, 0].tobytes()

    @pytest.mark.parametrize("p", [8, 9, 64])
    def test_a_fortran_ordered_input_gives_the_c_ordered_bytes(self, p):
        raw = np.random.default_rng(p).normal(size=(16, p))
        raw[3] = 0.0
        rows, flags = normalize_scores(raw)
        f_rows, f_flags = normalize_scores(np.asfortranarray(raw))
        assert f_rows.tobytes() == rows.tobytes()
        assert f_flags.tobytes() == flags.tobytes()


class TestExplainAme:
    def test_single_group_rows_are_one(self):
        model = build_ame(AmeConfig(feature_partition=[[0, 1]], seed=0))
        report = explain_ame(model, np.zeros((7, 2)))
        np.testing.assert_array_equal(report.per_sample, np.ones((7, 1)))

    def test_scores_equal_forward_attention_bitwise(self):
        model = two_group_model()
        x = np.random.default_rng(1).normal(size=(10, 2))
        report = explain_ame(model, x, batch_size=10)
        np.testing.assert_array_equal(report.per_sample, forward(model, x).a.data)

    def test_pass_counts_are_batch_counts(self):
        model = two_group_model()
        x = np.zeros((10, 2))
        report = explain_ame(model, x, batch_size=4)
        assert report.forwards == 3  # ceil(10/4)
        assert report.backwards == 0


class TestBatchSize:
    @pytest.mark.parametrize("explain", [explain_ame, explain_saliency, explain_occlusion])
    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_below_one_is_refused(self, explain, batch_size):
        model = two_group_model()
        with pytest.raises(ValueError, match=f"^batch_size must be >= 1, got {batch_size}$"):
            explain(model, np.zeros((5, 2)), batch_size=batch_size)
        assert model.forward_passes == 0


class TestZeroRows:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_refused_naming_the_estimator(self, name):
        model = two_group_model()
        with pytest.raises(ValueError,
                           match=f"^the {name} estimator needs at least one row, got 0$"):
            ESTIMATORS[name](model, np.zeros((0, 2)))
        assert model.forward_passes == 0


class TestExplainSaliency:
    def test_linear_model_puts_everything_on_the_live_group(self):
        # at x = 0 the tanh path is exactly linear, and the silenced second
        # expert contributes nothing, so the gradient lands all on group 1
        model = two_group_model(silence_second_expert=True)
        report = explain_saliency(model, np.zeros((3, 2)))
        np.testing.assert_allclose(report.per_sample, np.tile([1.0, 0.0], (3, 1)), atol=1e-12)
        assert not report.degenerate.any()

    def test_constant_model_degenerates_to_uniform(self):
        model = two_group_model(silence_second_expert=True)
        model.heads.layers[0].weights.data[0] = 0.0
        model.heads.layers[0].bias.data[0] = 0.0
        report = explain_saliency(model, np.random.default_rng(2).normal(size=(4, 2)))
        np.testing.assert_allclose(report.per_sample, np.full((4, 2), 0.5))
        assert report.degenerate.all()

    def test_quadratic_gradient_normalizes_as_expected(self):
        # independent check of the input-gradient + normalize pipeline:
        # d(x1^2 + x2)/dx at x1=3 is (6, 1) -> (6/7, 1/7)
        x = Tensor(np.array([[3.0, 5.0]]), requires_grad=True)
        x1 = x * Tensor(np.array([[1.0, 0.0]]))
        x2 = x * Tensor(np.array([[0.0, 1.0]]))
        ((x1 * x1).sum() + x2.sum()).backward()
        scores, _ = normalize_scores(np.abs(x.grad))
        np.testing.assert_allclose(scores, [[6 / 7, 1 / 7]])

    @pytest.mark.parametrize("partition", [[[0], [1]], [[0, 3, 5], [1], [2, 4], list(range(6, 15))]],
                             ids=["singletons", "a-group-of-9"])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_matches_finite_differences_of_the_prediction(self, partition, task):
        # the target's central differences in each feature of x, the input
        # saliency is about, summed by group
        model = build_ame(AmeConfig(feature_partition=partition, expert_hidden=[2], gate_hidden=3,
                                    aux_hidden=[3], task=task, num_classes=2, seed=3,
                                    batch_size=8))
        x = np.random.default_rng(3).normal(size=(1, model.n_features))
        report = explain_saliency(model, x)
        pick = np.argmax(forward(model, x).y.data[0])

        def target(xv):
            y = forward(model, xv).y.data[0]
            return y[0] if task == "regression" else np.log(y[pick] + dc.EPS_LOG)

        h = 1e-6
        fd = np.zeros(model.n_features)
        for j in range(model.n_features):
            up, down = x.copy(), x.copy()
            up[0, j] += h
            down[0, j] -= h
            fd[j] = (target(up) - target(down)) / (2 * h)
        expected, _ = normalize_scores(np.array([[np.abs(fd[g]).sum() for g in partition]]))
        np.testing.assert_allclose(report.per_sample, expected, atol=1e-6)

    def test_pass_counts_include_backward(self):
        model = two_group_model()
        report = explain_saliency(model, np.zeros((6, 2)), batch_size=3)
        assert report.forwards == 2
        assert report.backwards == 2

    def test_classification_uses_predicted_class(self):
        model = two_group_model(task="classification", seed=4)
        report = explain_saliency(model, np.random.default_rng(4).normal(size=(5, 2)))
        np.testing.assert_allclose(report.per_sample.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("partition", [
        [[0], [1], [2], [3]],                                # singletons
        [[i] for i in range(9)],                             # 8 or more: numpy's blocks
        [[0, 3], [1], [2, 4]],                               # group axis 2 wide
        [[0, 3, 5], [1], [2, 4], [6]],                       # numpy's reduction
        [[0, 3, 5], [1], [2, 4], list(range(6, 15))],        # a group of 9: numpy's blocks
    ])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_group_scores_are_the_per_group_sums(self, partition, task):
        model = build_ame(AmeConfig(feature_partition=partition, expert_hidden=[3],
                                    task=task, num_classes=2, seed=6))
        x = np.random.default_rng(6).normal(size=(9, model.n_features))
        report = explain_saliency(model, x, batch_size=9)
        groups = Tensor(group_inputs(model, x), requires_grad=True)
        attribution._saliency_target(model, groups).backward()
        grad = np.abs(groups.grad)
        expected, _ = normalize_scores(np.stack(
            [grad[:, i, :len(g)].sum(axis=1) for i, g in enumerate(partition)], axis=1))
        if max(map(len, partition)) < 8:  # numpy adds fewer than 8 terms in turn: bitwise
            assert report.per_sample.tobytes() == expected.tobytes()
        else:  # padding to the widest group can regroup numpy's pairwise sum
            np.testing.assert_allclose(report.per_sample, expected, rtol=1e-13)


class TestEstimatorsLeaveNoGradients:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_every_parameter_grad_is_none_after(self, name, task):
        model = two_group_model(task=task, seed=6)
        ESTIMATORS[name](model, np.random.default_rng(6).normal(size=(11, 2)), batch_size=4)
        assert all(p.grad is None for p in model.parameters())

    def test_a_step_after_saliency_equals_a_step_on_a_fresh_load(self, tmp_path):
        model_module.save_model(two_group_model(task="classification", seed=7), tmp_path / "m.json")
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(8, 2)), np.eye(2)[rng.integers(0, 2, size=8)]

        def step(read_saliency_first):
            model = model_module.load_model(tmp_path / "m.json")
            if read_saliency_first:
                explain_saliency(model, x)
            granger.train_epoch(model, Optimizer("adam", 0.01), x, y, np.random.default_rng(0))
            return [p.data.tobytes() for p in model.parameters()]

        assert step(True) == step(False)


class TestSaliencyLeavesTheParametersOffTheTape:
    @staticmethod
    def tracked_reference(model, x):
        """Saliency as a backward through tracked parameters, whose gradients
        are then cleared: the reference for the untracked run."""
        groups = Tensor(group_inputs(model, x), requires_grad=True)
        attribution._saliency_target(model, groups).backward()
        clear_grads(model.parameters())
        grad = np.abs(groups.grad)
        return normalize_scores(np.stack([grad[:, i, :len(g)].sum(axis=1) for i, g
                                          in enumerate(model.config.feature_partition)], axis=1))

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_scores_are_bitwise_those_of_a_tracked_backward(self, task):
        model = build_ame(AmeConfig(feature_partition=[[0, 2], [1], [3, 4]], expert_hidden=[3],
                                    gate_hidden=8, aux_hidden=[4], task=task, num_classes=3,
                                    seed=9))
        x = np.random.default_rng(9).normal(size=(13, 5))
        report = explain_saliency(model, x, batch_size=13)
        expected, flags = self.tracked_reference(model, x)
        assert report.per_sample.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(report.degenerate, flags)

    def test_no_parameter_is_tracked_during_the_call(self, monkeypatch):
        model = two_group_model()
        seen = []
        target = attribution._saliency_target

        def spy(m, xt):
            seen.append([t.requires_grad for t in m.parameters()])
            return target(m, xt)

        monkeypatch.setattr(attribution, "_saliency_target", spy)
        explain_saliency(model, np.zeros((3, 2)))
        assert seen and not any(any(flags) for flags in seen)

    def test_flags_are_restored_when_the_call_raises(self, monkeypatch):
        model = two_group_model()
        model.gate_context.requires_grad = False  # restored to its own flag, not to True
        before = [t.requires_grad for t in model.parameters()]
        with pytest.raises(ConfigError, match="does not provide 2 features"):
            explain_saliency(model, np.zeros((3, 5)))
        assert [t.requires_grad for t in model.parameters()] == before

        def fail(m, xt):
            raise RuntimeError("target failed")

        monkeypatch.setattr(attribution, "_saliency_target", fail)
        with pytest.raises(RuntimeError, match="target failed"):
            explain_saliency(model, np.zeros((3, 2)))
        assert [t.requires_grad for t in model.parameters()] == before


def mask_by_hand(x, partition, picked, baseline_value):
    """The (n·c, F) rows of c copies of each row of x, in copy k of row s
    every group that picked[s, k] picks set to baseline_value, one by one."""
    n, c, _ = picked.shape
    rows = []
    for s in range(n):
        for k in range(c):
            row = x[s].copy()
            for gi in np.flatnonzero(picked[s, k]):
                row[partition[gi]] = baseline_value
            rows.append(row)
    return np.array(rows)


class TestMaskedForward:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_outputs_are_bitwise_a_forward_over_rows_masked_by_hand(self, data):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=6), label="sizes")
        features = data.draw(st.permutations(range(sum(sizes))), label="features")
        bounds = np.cumsum([0, *sizes])
        partition = [sorted(features[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        task = data.draw(st.sampled_from(["regression", "classification"]), label="task")
        n = data.draw(st.integers(1, 6), label="n")
        c = data.draw(st.integers(1, 5), label="c")
        baseline = data.draw(st.floats(-2.0, 2.0).filter(lambda v: v != 0.0), label="baseline")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        model = build_ame(AmeConfig(feature_partition=partition, expert_hidden=[3],
                                    gate_hidden=8, aux_hidden=[3], task=task, num_classes=3,
                                    seed=seed))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, len(features)))
        picked = rng.random((n, c, len(partition))) < rng.random()
        expected = forward(model, mask_by_hand(x, partition, picked, baseline)).y.data
        model.reset_pass_counts()
        got = attribution._masked_forward(model, x, picked, baseline)
        assert got.shape == (n, c, model.config.out_dim)
        assert got.tobytes() == expected.tobytes()
        assert model.forward_passes == 1


class TestExplainOcclusion:
    def test_ignored_group_scores_zero(self):
        model = two_group_model(silence_second_expert=True, freeze_gates=True)
        x = np.random.default_rng(5).normal(size=(4, 2))
        report = explain_occlusion(model, x, baseline_value=0.0)
        np.testing.assert_array_equal(report.per_sample[:, 1], np.zeros(4))
        np.testing.assert_array_equal(report.per_sample[:, 0], np.ones(4))

    def test_pass_counts_are_p_plus_one_per_batch(self):
        model = two_group_model()
        report = explain_occlusion(model, np.zeros((6, 2)), batch_size=4)
        assert model.forward_passes == 2
        assert report.forwards == 3 * math.ceil(6 / 4)
        assert report.backwards == 0
        assert report.params == {"batch_size": 4, "baseline_value": 0.0}

    @pytest.mark.parametrize("batch_size", [1, 2, 4, 7, 11, 40])
    def test_forwards_are_p_plus_one_times_the_readouts(self, batch_size):
        model = build_ame(AmeConfig(feature_partition=[[0, 2], [1], [3]], expert_hidden=[2],
                                    gate_hidden=3, aux_hidden=[3], seed=3))
        x = np.random.default_rng(3).normal(size=(11, 4))
        readout = explain_ame(model, x, batch_size=batch_size)
        occlusion = explain_occlusion(model, x, batch_size=batch_size)
        assert readout.forwards == math.ceil(11 / batch_size)
        assert occlusion.forwards == (3 + 1) * readout.forwards

    def test_masking_at_the_sample_value_is_degenerate(self):
        # baseline equal to the sample leaves predictions unchanged everywhere
        model = two_group_model()
        report = explain_occlusion(model, np.zeros((2, 2)), baseline_value=0.0)
        assert report.degenerate.all()

    def test_classification_scores_are_distributions(self):
        model = two_group_model(task="classification", seed=6)
        x = np.random.default_rng(6).normal(size=(5, 2))
        report = explain_occlusion(model, x)
        assert np.all(report.per_sample >= 0)
        np.testing.assert_allclose(report.per_sample.sum(axis=1), 1.0, atol=1e-9)


def occlusion_loop(model, x, baseline_value):
    """Occlusion as p+1 batch-1 forwards per sample, masking one group at a
    time: an independent reference for the batched one. Returns the scores
    and the degenerate flags."""
    cfg = model.config
    raw = np.zeros((x.shape[0], cfg.n_experts))
    for s in range(x.shape[0]):
        sample = x[s:s + 1]
        base = forward(model, sample).y.data[0]
        pick = int(np.argmax(base))
        for gi, group in enumerate(cfg.feature_partition):
            masked = sample.copy()
            masked[0, group] = baseline_value
            out = forward(model, masked).y.data[0]
            if cfg.task == "classification":
                degradation = np.log(base[pick] + dc.EPS_LOG) - np.log(out[pick] + dc.EPS_LOG)
            else:
                degradation = abs(out[0] - base[0])
            raw[s, gi] = max(0.0, degradation)
    return normalize_scores(raw)


class TestOcclusionMatchesTheLoop:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_scores_and_flags_are_bitwise_those_of_the_loop(self, data):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=6), label="sizes")
        features = data.draw(st.permutations(range(sum(sizes))), label="features")
        bounds = np.cumsum([0, *sizes])
        partition = [sorted(features[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        task = data.draw(st.sampled_from(["regression", "classification"]), label="task")
        n = data.draw(st.integers(1, 9), label="n")
        batch_size = data.draw(st.integers(1, n + 2), label="batch_size")
        baseline = data.draw(st.floats(-2.0, 2.0).filter(lambda v: v != 0.0), label="baseline")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        model = build_ame(AmeConfig(feature_partition=partition, expert_hidden=[3],
                                    gate_hidden=3, aux_hidden=[3], task=task, num_classes=3,
                                    seed=seed))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, len(features)))
        x[rng.random(n) < 0.3] = baseline  # masking changes nothing: a degenerate row
        expected, flags = occlusion_loop(model, x, baseline)
        report = explain_occlusion(model, x, batch_size=batch_size, baseline_value=baseline)
        assert report.per_sample.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(report.degenerate, flags)


class TestGrangerOracle:
    def test_noise_target_averages_to_uniform(self):
        # on pure noise individual rows are often one-sided (the clamp snaps
        # small +/- fluctuations), but the averaged attribution has no reason
        # to prefer either group
        rng = np.random.default_rng(7)
        x = rng.normal(size=(400, 2))
        y = rng.normal(size=(400, 1))  # independent of x
        probe = ProbeConfig(hidden=[4], epochs=15, seed=7)
        omega = granger_oracle((x[:300], y[:300]), (x[300:], y[300:]),
                               [[0], [1]], probe, "regression")
        mean_omega = omega.mean(axis=0)
        assert float(kl_divergence(mean_omega, np.array([0.5, 0.5]))) < 0.1

    def test_copy_task_concentrates_on_the_informative_group(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(500, 2))
        y = x[:, :1].copy()
        probe = ProbeConfig(hidden=[8], epochs=30, seed=8)
        omega = granger_oracle((x[:400], y[:400]), (x[400:], y[400:]),
                               [[0], [1]], probe, "regression")
        assert omega[:, 0].mean() > 0.95

    def test_insufficient_samples_rejected(self):
        x = np.zeros((19, 2))
        y = np.zeros((19, 1))
        with pytest.raises(ValueError, match="20"):
            granger_oracle((x, y), (x, y), [[0], [1]], ProbeConfig(), "regression")

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(120, 3))
        y = x[:, :1] + 0.1 * rng.normal(size=(120, 1))
        probe = ProbeConfig(hidden=[4], epochs=5, seed=9)
        omega = granger_oracle((x[:100], y[:100]), (x[100:], y[100:]),
                               [[0], [1], [2]], probe, "regression")
        assert np.all(omega >= 0)
        np.testing.assert_allclose(omega.sum(axis=1), 1.0, atol=1e-9)

    def test_class_count_is_the_width_of_the_one_hot_targets(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 2))
        y = np.eye(3)[rng.integers(0, 3, size=60)]  # a 2-wide probe head would not fit
        omega = granger_oracle((x[:40], y[:40]), (x[40:], y[40:]), [[0], [1]],
                               ProbeConfig(hidden=[4], epochs=2), "classification")
        assert omega.shape == (20, 2)
        np.testing.assert_allclose(omega.sum(axis=1), 1.0, atol=1e-12)


def sequential_oracle(train_xy, heldout_xy, feature_partition, probe, task):
    """The oracle as p+1 separate networks trained one after another: an
    independent reference for the stacked one. Returns (eps_excl, eps_all)."""
    x_train, y_train = train_xy
    x_held, y_held = heldout_xy
    out_dim = y_train.shape[1]
    head_act = "softmax" if task == "classification" else "identity"
    rng = np.random.default_rng(probe.seed)

    def build(in_dim):  # each layer a stack of one
        dims = [in_dim, *probe.hidden, out_dim]
        return [dc.DenseLayer(Tensor(dc.glorot(rng, (dims[k + 1], dims[k]))[None],
                                     requires_grad=True),
                              Tensor(np.zeros((1, dims[k + 1])), requires_grad=True),
                              "relu" if k < len(dims) - 2 else head_act)
                for k in range(len(dims) - 1)]

    def run(layers, x):
        xt = Tensor(x)
        for layer in layers:
            xt = layer(xt)
        return xt.reshape(x.shape[0], out_dim)

    def errors(pred, y):
        if task == "classification":
            return dc.per_sample_cross_entropy(pred, Tensor(y))
        return dc.per_sample_mae(pred, Tensor(y))

    def train_and_score(cols):
        # a probe with no feature left reads one constant-zero column
        x_tr = x_train[:, cols] if cols else np.zeros((x_train.shape[0], 1))
        x_he = x_held[:, cols] if cols else np.zeros((x_held.shape[0], 1))
        layers = build(x_tr.shape[1])
        params = [t for layer in layers for t in layer.parameters()]
        opt = Optimizer(probe.optimizer, probe.learning_rate)
        for _ in range(probe.epochs):
            order = rng.permutation(x_tr.shape[0])
            for start in range(0, x_tr.shape[0], probe.batch_size):
                idx = order[start:start + probe.batch_size]
                errors(run(layers, x_tr[idx]), y_train[idx]).mean().backward()
                dc.optimizer_step(opt, params)
                clear_grads(params)
        return errors(run(layers, x_he), y_held).data

    all_features = sorted(i for group in feature_partition for i in group)
    eps_all = train_and_score(all_features)
    eps_excl = np.stack([train_and_score([i for i in all_features if i not in group])
                         for group in feature_partition], axis=1)
    return eps_excl, eps_all


class TestStackedOracleMatchesSequential:
    @pytest.mark.parametrize("task, optimizer, partition, n_train, batch_size", [
        ("regression", "adam", [[0, 2], [1], [3, 4, 5]], 70, 16),
        ("classification", "adam", [[0, 2], [1], [3, 4, 5]], 70, 16),
        ("regression", "sgd", [[0, 2], [1], [3, 4, 5]], 64, 16),
        ("classification", "sgd", [[5], [0, 1, 2, 3, 4]], 61, 13),
        ("regression", "adam", [[0, 1, 2, 3, 4, 5]], 45, 8),       # nothing left for probe 1
        ("classification", "sgd", [[0, 1, 2, 3, 4, 5]], 45, 8),
    ])
    def test_errors_and_omega_within_1e_12(self, monkeypatch, task, optimizer, partition,
                                            n_train, batch_size):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(n_train + 25, 6))
        signal = x[:, 0] - 0.5 * x[:, 1] + 0.25 * x[:, 3]
        if task == "classification":
            y = np.eye(2)[(signal > 0).astype(int)]
        else:
            y = (signal + 0.1 * rng.normal(size=signal.size))[:, None]
        train, held = (x[:n_train], y[:n_train]), (x[n_train:], y[n_train:])
        probe = ProbeConfig(hidden=[5, 3], learning_rate=0.05, optimizer=optimizer,
                            epochs=4, batch_size=batch_size, seed=12)
        seen = {}

        def spy(eps_excl, eps_all):
            seen.update(eps_excl=np.array(eps_excl), eps_all=np.array(eps_all))
            return delta_epsilon(eps_excl, eps_all)

        monkeypatch.setattr(granger, "delta_epsilon", spy)
        omega = granger_oracle(train, held, partition, probe, task)
        ref_excl, ref_all = sequential_oracle(train, held, partition, probe, task)
        np.testing.assert_allclose(seen["eps_all"], ref_all, rtol=0, atol=1e-12)
        np.testing.assert_allclose(seen["eps_excl"], ref_excl, rtol=0, atol=1e-12)
        np.testing.assert_allclose(omega, omega_targets(delta_epsilon(ref_excl, ref_all)),
                                   rtol=0, atol=1e-12)
        assert not np.array_equal(ref_excl[:, 0], ref_all)  # the probes did differ


class TestProbeConfigValidation:
    @pytest.mark.parametrize("field, value, message", [
        ("hidden", [0], "^hidden must be widths >= 1"),
        ("hidden", [4, -1], "^hidden must be widths >= 1"),
        ("epochs", 0, "^epochs must be >= 1"), ("batch_size", 0, "^batch_size must be >= 1"),
        ("learning_rate", 0.0, "^learning_rate must be > 0"),
        ("learning_rate", -0.1, "learning_rate"),
        ("optimizer", "rmsprop", "^optimizer must be 'sgd' or 'adam'"),
        ("hidden", "8", "hidden must be list"), ("epochs", 2.0, "epochs must be int"),
    ])
    def test_bad_value_names_the_field(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            ProbeConfig(**{field: value})

    def test_a_built_probe_cannot_be_changed(self):
        probe = ProbeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError, match="batch_size"):
            probe.batch_size = 0

    @pytest.mark.parametrize("field", ["task", "num_classes"])
    def test_task_and_class_count_are_not_probe_fields(self, field):
        with pytest.raises(TypeError, match=field):
            ProbeConfig(**{field: "classification" if field == "task" else 2})

    @pytest.mark.parametrize("partition, message", [
        ([[0], [0]], "groups overlap on indices \\[0\\]"),
        ([[0, 1], [1, 2]], "groups overlap on indices \\[1\\]"),
        ([[0], [-1]], "holds negative index -1"),
        ([[0], [2]], "misses 1 of indices 0..2"),
        ([[0], []], "groups must be non-empty"),
        ([], "must contain at least one group"),
        ([[0], [1]], "covers 2 columns, but x has 3"),
        ([[0], [1], [2, 3]], "covers 4 columns, but x has 3"),
    ], ids=["repeat", "overlap", "negative", "gap", "empty_group", "no_group", "too_few",
            "too_many"])
    def test_oracle_refuses_a_partition_that_does_not_split_the_columns(self, partition,
                                                                         message):
        x, y = np.zeros((40, 3)), np.zeros((40, 1))
        with pytest.raises(ConfigError, match=f"^feature_partition {message}"):
            granger_oracle((x, y), (x, y), partition, ProbeConfig(epochs=1), "regression")

    def test_oracle_refuses_an_unknown_task(self):
        x, y = np.zeros((40, 2)), np.zeros((40, 1))
        with pytest.raises(ConfigError, match="task must be"):
            granger_oracle((x, y), (x, y), [[0], [1]], ProbeConfig(), "ranking")



class TestReportIO:
    def make_reports(self):
        model = two_group_model(task="classification", seed=10)
        x = np.random.default_rng(10).normal(size=(5, 2))
        return [explain_ame(model, x), explain_saliency(model, x), explain_occlusion(model, x)]

    def test_all_estimators_share_the_schema(self):
        reports = self.make_reports()
        keysets = [tuple(report_rows(r)[0].keys()) for r in reports]
        assert len(set(keysets)) == 1
        assert [r.estimator for r in reports] == ["ame", "saliency", "occlusion"]

    def test_csv_round_trips_values_exactly(self, tmp_path):
        reports = self.make_reports()
        path = tmp_path / "importance.csv"
        write_importance_csv(reports, path)
        rows = read_importance_csv(path)
        assert len(rows) == 15
        flat = [row for report in reports for row in report_rows(report)]
        for got, want in zip(rows, flat):
            assert got == want

    def test_csv_refuses_no_reports_or_reports_over_other_groups(self, tmp_path):
        three = explain_ame(build_ame(AmeConfig(feature_partition=[[0], [1], [2]], seed=1)),
                            np.zeros((4, 3)))
        for reports in ([], [three, self.make_reports()[0]]):
            with pytest.raises(ValueError, match="reports over the same groups"):
                write_importance_csv(reports, tmp_path / "importance.csv")
        assert not (tmp_path / "importance.csv").exists()

    def test_rows_carry_run_totals(self, tmp_path):
        report = self.make_reports()[2]
        rows = report_rows(report)
        assert all(r["forwards"] == report.forwards for r in rows)
        assert all(r["seconds"] == report.seconds for r in rows)

    def test_estimators_do_not_hash_the_model(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an estimator hashed the model")
        monkeypatch.setattr(model_module, "model_hash", refuse)
        monkeypatch.setattr(attribution, "model_hash", refuse, raising=False)
        model = two_group_model(task="classification", seed=10)
        x = np.random.default_rng(10).normal(size=(5, 2))
        for name, explain in ESTIMATORS.items():
            assert explain(model, x).estimator == name
