"""Tests for dataset generation and the evaluation protocols."""

import csv
import json
import math

import numpy as np
import pytest

from ame_lab.attribution import ESTIMATORS, ImportanceReport, explain_ame
from ame_lab.benchmark import (
    BenchmarkResult,
    ProtocolError,
    SyntheticSpec,
    aggregate_sweep,
    generate,
    log_odds,
    masking_drop,
    masking_protocol,
    mge_quality_protocol,
    read_benchmark_csv,
    recall_at_k,
    sweep_single,
    timing_protocol,
    train_model,
    write_benchmark_csv,
    write_sweep_csv,
)
from ame_lab.cli import main
from ame_lab.model import AmeConfig, ConfigError, forward, model_hash


def cls_spec(**overrides):
    base = dict(kind="informative_subset_classification", total_features=4,
                informative=[0, 1], weights=[2.0, 1.0], noise_scale=0.5,
                n_train=600, n_val=150, n_test=150, seed=0)
    base.update(overrides)
    return SyntheticSpec(**base)


def cls_config(**overrides):
    base = dict(feature_partition=[[i] for i in range(4)], expert_hidden=[4],
                gate_hidden=6, aux_hidden=[6], task="classification", num_classes=2,
                alpha=0.1, seed=0, learning_rate=0.01, batch_size=64,
                epochs=10, patience=12)
    base.update(overrides)
    return AmeConfig(**base)


@pytest.fixture(scope="module")
def trained():
    splits = generate(cls_spec())
    model, _ = train_model(cls_config(), splits)
    return model, splits


def two_forward_drop(model, x, picked_per_sample, baseline_value):
    """Masking drop of one arm as two forwards, the unmasked rows and then the
    masked ones: an independent reference for the protocol's one forward."""
    masked = x.copy()
    for s, pick in enumerate(picked_per_sample):
        for gi in pick:
            masked[s, model.config.feature_partition[gi]] = baseline_value
    before = forward(model, x).y.data
    picks = np.argmax(before, axis=1)
    after = forward(model, masked).y.data
    rows = np.arange(x.shape[0])
    return log_odds(before[rows, picks]) - log_odds(after[rows, picks])


def cli_sweep(tmp_path, config, spec, alphas, runs):
    """`ame-lab sweep` over one model config and dataset; returns the run rows
    and the aggregate rows of its sweep.csv, numbers parsed."""
    raw = {"out_dir": str(tmp_path / "runs"), "model": config.to_dict(), "data": spec.to_dict(),
           "alphas": alphas, "runs": runs}
    (tmp_path / "sweep.json").write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(tmp_path / "sweep.json")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    with open(run_dir / "sweep.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(fh))
    rows = {kind: [{k: float(v) for k, v in row.items()
                    if v and k not in ("row_type", "model_hash")}
                   for row in table if row["row_type"] == kind] for kind in ("run", "aggregate")}
    return rows["run"], rows["aggregate"]


def fake_report(scores):
    scores = np.asarray(scores, dtype=np.float64)
    return ImportanceReport(estimator="fake", params={}, per_sample=scores,
                            seconds=0.0, forwards=0, backwards=0)


class TestSyntheticSpec:
    def test_oversized_informative_set_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            cls_spec(informative=[0, 1, 2, 3, 4], weights=[1.0] * 5)

    def test_weight_count_must_match(self):
        with pytest.raises(ConfigError, match="weights"):
            cls_spec(informative=[0], weights=[1.0, 2.0])

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            SyntheticSpec.from_dict({"mystery": 1})

    def test_task_follows_kind(self):
        assert cls_spec().task == "classification"
        assert SyntheticSpec(kind="additive_regression").task == "regression"
        assert SyntheticSpec(kind="noise_control").task == "regression"
        assert SyntheticSpec(kind="noise_control", task="classification").task == "classification"

    def test_inconsistent_task_rejected(self):
        with pytest.raises(ConfigError, match="implies task"):
            SyntheticSpec(kind="additive_regression", task="classification")


class TestGenerate:
    def test_fixed_seed_is_bitwise_reproducible(self):
        a, b = generate(cls_spec()), generate(cls_spec())
        np.testing.assert_array_equal(a.train.x, b.train.x)
        np.testing.assert_array_equal(a.test.y, b.test.y)

    def test_copy_task_is_exact(self):
        spec = SyntheticSpec(kind="additive_regression", total_features=3,
                             informative=[0], weights=[1.0], noise_scale=0.0,
                             n_train=50, n_val=10, n_test=10, seed=1)
        splits = generate(spec)
        np.testing.assert_array_equal(splits.train.y[:, 0], splits.train.x[:, 0])

    def test_noise_control_target_ignores_features(self):
        spec = SyntheticSpec(kind="noise_control", total_features=4, noise_scale=1.0,
                             n_train=2000, n_val=10, n_test=10, seed=2)
        splits = generate(spec)
        for j in range(4):
            r = np.corrcoef(splits.train.x[:, j], splits.train.y[:, 0])[0, 1]
            assert abs(r) < 0.1

    def test_splits_have_requested_sizes(self):
        splits = generate(cls_spec())
        assert [len(d.x) for d in (splits.train, splits.val, splits.test)] == [600, 150, 150]
        assert [len(d.y) for d in (splits.train, splits.val, splits.test)] == [600, 150, 150]

    def test_classification_labels_are_one_hot(self):
        splits = generate(cls_spec())
        np.testing.assert_array_equal(splits.train.y.sum(axis=1), np.ones(600))
        assert set(np.unique(splits.train.y)) == {0.0, 1.0}


class TestMasking:
    def test_masking_nothing_changes_nothing(self, trained):
        model, splits = trained
        x = splits.test.x[:10]
        nothing = np.zeros((10, 1, model.config.n_experts), dtype=bool)
        drops = masking_drop(model, x, nothing, 0.0)[:, 0]
        np.testing.assert_array_equal(drops, np.zeros(10))

    def test_masking_everything_is_estimator_independent(self, trained):
        model, splits = trained
        p = model.config.n_experts
        x = splits.test.x[:20]
        rng = np.random.default_rng(0)
        ranked = fake_report(rng.dirichlet(np.ones(p), size=20))
        reversed_ = fake_report(ranked.per_sample[:, ::-1].copy())
        a = masking_protocol(model, ranked, x, fraction=1.0, n=20, seed=1)
        b = masking_protocol(model, reversed_, x, fraction=1.0, n=20, seed=1)
        np.testing.assert_allclose(a["informed_per_sample"], b["informed_per_sample"])

    def test_one_forward_reads_the_rows_and_both_arms(self, trained):
        model, splits = trained
        report = explain_ame(model, splits.test.x[:20])
        model.reset_pass_counts()
        masking_protocol(model, report, splits.test.x, fraction=0.25, n=20, seed=3)
        assert model.forward_passes == 1

    @pytest.mark.parametrize("fraction, baseline_value, seed", [
        (0.25, 0.0, 0), (0.5, 0.3, 4), (1.0, -1.0, 7)])
    def test_drops_are_bitwise_those_of_two_forwards_per_arm(self, trained, fraction,
                                                             baseline_value, seed):
        model, splits = trained
        p, x = model.config.n_experts, splits.test.x[:30]
        report = explain_ame(model, x)
        out = masking_protocol(model, report, x, fraction, baseline_value, n=30, seed=seed)
        m = max(1, math.ceil(fraction * p))
        rng = np.random.default_rng(seed)
        informed = [np.argsort(-row, kind="stable")[:m] for row in report.per_sample]
        random_arm = [rng.choice(p, size=m, replace=False) for _ in range(30)]
        expected_informed = two_forward_drop(model, x, informed, baseline_value)
        expected_random = two_forward_drop(model, x, random_arm, baseline_value)
        assert out["informed_per_sample"].tobytes() == expected_informed.tobytes()
        assert out["random_per_sample"].tobytes() == expected_random.tobytes()
        assert out["informed_drop"] == float(expected_informed.mean())
        assert out["random_drop"] == float(expected_random.mean())

    def test_regression_model_rejected(self):
        spec = SyntheticSpec(kind="additive_regression", total_features=2,
                             informative=[0], weights=[1.0], n_train=60,
                             n_val=10, n_test=10, seed=3)
        splits = generate(spec)
        cfg = AmeConfig(feature_partition=[[0], [1]], expert_hidden=[3], gate_hidden=3,
                        aux_hidden=[3], task="regression", seed=3, epochs=1)
        model, _ = train_model(cfg, splits)
        with pytest.raises(ProtocolError, match="classification"):
            masking_protocol(model, fake_report(np.ones((10, 2)) / 2), splits.test.x,
                             fraction=0.5)

    def test_fraction_bounds_checked(self, trained):
        model, splits = trained
        report = explain_ame(model, splits.test.x[:5])
        with pytest.raises(ProtocolError, match="fraction"):
            masking_protocol(model, report, splits.test.x, fraction=0.0)

    def test_informed_beats_random_on_subset_task(self, trained):
        model, splits = trained
        report = explain_ame(model, splits.test.x[:100])
        out = masking_protocol(model, report, splits.test.x, fraction=0.25,
                               n=100, seed=5)
        assert out["informed_drop"] > out["random_drop"]
        assert out["n_masked"] == 1
        assert 0.0 <= out["p_value"] <= 1.0

    def test_log_odds_clamps_saturated_probabilities(self):
        assert np.isfinite(log_odds(0.0))
        assert np.isfinite(log_odds(1.0))
        assert log_odds(0.5) == 0.0

    def test_noise_control_arms_both_reported(self):
        # on a target independent of every feature the two arms have no
        # systematic gap; the protocol reports the comparison, nothing more
        spec = SyntheticSpec(kind="noise_control", task="classification",
                             total_features=4, n_train=400, n_val=80, n_test=80, seed=6)
        splits = generate(spec)
        labels = splits.train.labels()
        for j in range(4):
            r = np.corrcoef(splits.train.x[:, j], labels)[0, 1]
            assert abs(r) < 0.15
        model, _ = train_model(cls_config(epochs=3, seed=6), splits)
        report = explain_ame(model, splits.test.x[:40])
        out = masking_protocol(model, report, splits.test.x, fraction=0.25, n=40, seed=6)
        assert np.isfinite(out["informed_drop"]) and np.isfinite(out["random_drop"])
        assert 0.0 <= out["p_value"] <= 1.0


class TestMgeQuality:
    def test_needs_three_models(self, trained):
        model, splits = trained
        with pytest.raises(ProtocolError, match="3"):
            mge_quality_protocol([("only", model)], splits.test)

    def test_identical_models_flagged_degenerate(self, trained):
        model, splits = trained
        out = mge_quality_protocol([("a", model), ("b", model), ("c", model)],
                                   splits.test, n=20)
        assert out["degenerate"]
        assert np.isnan(out["spearman"])

    def test_rows_carry_model_hashes(self, trained):
        model, splits = trained
        out = mge_quality_protocol([("a", model), ("b", model), ("c", model)],
                                   splits.test, n=10)
        assert all(r["model_hash"] == model_hash(model) for r in out["rows"])


class TestAlphaSweep:
    def test_alpha_zero_row_reports_untrained_mge(self, tmp_path):
        rows, agg = cli_sweep(tmp_path, cls_config(epochs=2),
                              cls_spec(n_train=200, n_val=50, n_test=50), alphas=[0.0], runs=1)
        assert len(rows) == 1 and len(agg) == 1
        assert rows[0]["alpha"] == 0.0
        assert np.isfinite(rows[0]["test_mge"])

    def test_grid_produces_one_aggregate_per_alpha(self, tmp_path):
        alphas = [round(0.01 * i, 2) for i in range(11)]
        rows, agg = cli_sweep(tmp_path, cls_config(epochs=1),
                              cls_spec(n_train=100, n_val=30, n_test=30), alphas=alphas, runs=1)
        assert len(rows) == 11
        assert [a["alpha"] for a in agg] == alphas

    def test_aggregates_match_recomputation(self, tmp_path):
        rows, agg = cli_sweep(tmp_path, cls_config(epochs=1),
                              cls_spec(n_train=100, n_val=30, n_test=30), alphas=[0.0, 0.1],
                              runs=2)
        for entry in agg:
            mine = [r["test_mge"] for r in rows if r["alpha"] == entry["alpha"]]
            np.testing.assert_allclose(entry["mge_mean"], np.mean(mine))
            np.testing.assert_allclose(entry["mge_sd"], np.std(mine))

    def test_empty_alphas_rejected(self, tmp_path, capsys):
        raw = {"out_dir": str(tmp_path / "runs"), "model": cls_config().to_dict(),
               "data": cls_spec().to_dict(), "alphas": []}
        (tmp_path / "sweep.json").write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(tmp_path / "sweep.json")]) == 2
        assert "config error: alphas must be non-empty" in capsys.readouterr().err


class TestRecallAtK:
    def test_exact_top_k(self):
        report = fake_report(np.tile([0.4, 0.3, 0.2, 0.1], (5, 1)))
        assert recall_at_k(report, {0, 1}, 2) == 2

    def test_uniform_scores_tie_break_by_lowest_index(self):
        report = fake_report(np.full((5, 4), 0.25))
        assert recall_at_k(report, {2, 3}, 2) == 0

    def test_invariant_under_positive_rescaling(self):
        scores = np.tile([0.1, 0.5, 0.15, 0.25], (3, 1))
        assert recall_at_k(fake_report(scores), {1, 3}, 2) == \
            recall_at_k(fake_report(scores * 7.0), {1, 3}, 2)

    def test_k_larger_than_groups_rejected(self):
        with pytest.raises(ProtocolError):
            recall_at_k(fake_report(np.ones((2, 3)) / 3), {0}, 4)


class TestTiming:
    def test_pass_counting(self, trained):
        model, splits = trained
        rows = timing_protocol(model, splits.test.x[:12], ["ame", "occlusion"])
        by_name = {r["estimator"]: r for r in rows}
        assert by_name["ame"]["forwards"] == math.ceil(12 / model.config.batch_size)
        assert by_name["occlusion"]["forwards"] == \
            (model.config.n_experts + 1) * by_name["ame"]["forwards"]
        assert by_name["ame"]["ratio_vs_ame"] == 1.0

    def test_ratio_is_nan_without_ame(self, trained):
        model, splits = trained
        rows = timing_protocol(model, splits.test.x[:4], ["occlusion", "saliency"])
        assert [row["estimator"] for row in rows] == ["occlusion", "saliency"]
        assert all(math.isnan(row["ratio_vs_ame"]) for row in rows)

    def test_every_estimator_gets_the_baseline(self, trained, monkeypatch):
        model, splits = trained
        seen = {}
        for name, estimator in list(ESTIMATORS.items()):
            def spy(model, x, estimator=estimator, name=name, **params):
                seen[name] = params
                return estimator(model, x, **params)
            monkeypatch.setitem(ESTIMATORS, name, spy)
        timing_protocol(model, splits.test.x[:3], baseline_value=0.5)
        assert seen == {name: {"baseline_value": 0.5} for name in ("ame", "saliency", "occlusion")}

    def test_unknown_estimator_rejected(self, trained):
        model, splits = trained
        with pytest.raises(ProtocolError, match="shap"):
            timing_protocol(model, splits.test.x[:2], ["shap"])

    def test_empty_estimator_list_rejected(self, trained):
        model, splits = trained
        with pytest.raises(ValueError, match="at least one estimator"):
            timing_protocol(model, splits.test.x[:2], [])


class TestResultIO:
    def test_benchmark_csv_round_trips(self, tmp_path):
        result = BenchmarkResult(rows=[], seed=9)
        result.add("masking", "informed_drop", 1.25, "abcd")
        result.add("timing", "ame.forwards", 4.0, "abcd")
        path = tmp_path / "benchmark.csv"
        write_benchmark_csv(result, path)
        rows = read_benchmark_csv(path)
        assert rows == [
            {"protocol": "masking", "metric": "informed_drop", "value": 1.25,
             "seed": 9, "model_hash": "abcd"},
            {"protocol": "timing", "metric": "ame.forwards", "value": 4.0,
             "seed": 9, "model_hash": "abcd"},
        ]

    def test_sweep_csv_tags_row_types(self, tmp_path):
        rows = [sweep_single(cls_config(epochs=1), cls_spec(n_train=100, n_val=30, n_test=30),
                             0.0, 0)]
        agg = aggregate_sweep(rows)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, agg, path)
        text = path.read_text().splitlines()
        assert text[0].startswith("row_type")
        assert sum(1 for line in text if line.startswith("run,")) == 1
        assert sum(1 for line in text if line.startswith("aggregate,")) == 1


class TestTrainModel:
    def test_task_mismatch_rejected(self):
        splits = generate(cls_spec(n_train=50, n_val=10, n_test=10))
        cfg = AmeConfig(feature_partition=[[i] for i in range(4)], task="regression",
                        seed=0, epochs=1)
        with pytest.raises(ProtocolError, match="task"):
            train_model(cfg, splits)
