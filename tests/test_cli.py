"""Tests for the command-line interface and its artifact layout."""

import json
import math
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ame_lab import cli, diffcore
from ame_lab import model as model_module
from ame_lab.attribution import (ESTIMATORS, ProbeConfig, explain_ame,
                                 write_importance_csv, write_importance_json)
from ame_lab.benchmark import (BenchmarkResult, SyntheticSpec, aggregate_sweep, sweep_single,
                               write_benchmark_csv, write_sweep_csv)
from ame_lab.cli import RunConfig, informative_groups, main, run_id
from ame_lab.granger import TRAINING_LOG_COLUMNS, write_training_log
from ame_lab.model import AmeConfig, build_ame, load_model, model_hash, model_to_dict, save_model

def base_config(tmp_path, **overrides):
    cfg = {
        "out_dir": str(tmp_path / "runs"),
        "model": {
            "feature_partition": [[0], [1], [2], [3]],
            "expert_hidden": [4],
            "gate_hidden": 6,
            "aux_hidden": [6],
            "task": "classification",
            "num_classes": 2,
            "alpha": 0.1,
            "seed": 5,
            "learning_rate": 0.01,
            "batch_size": 64,
            "epochs": 4,
            "patience": 12,
        },
        "data": {
            "kind": "informative_subset_classification",
            "total_features": 4,
            "informative": [0, 1],
            "weights": [2.0, 1.0],
            "noise_scale": 0.5,
            "n_train": 300,
            "n_val": 80,
            "n_test": 80,
            "seed": 5,
        },
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_dir_of(tmp_path, cfg):
    return tmp_path / "runs" / run_id(RunConfig.from_dict(cfg))


class TestConfigParsing:
    def test_unknown_top_level_field_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["learning_rate_typo"] = 0.1
        code = main(["train", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "learning_rate_typo" in capsys.readouterr().err

    def test_unknown_nested_field_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["model"]["momentum"] = 0.9
        code = main(["train", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "momentum" in capsys.readouterr().err

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path, command="explain")
        code = main(["train", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "command" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"{\"seed\": 1", b"{\"out_dir\": \"r\xe9\"}"],
                             ids=["truncated", "latin-1"])
    def test_unreadable_config_file_is_a_config_error_naming_it(self, tmp_path, capsys,
                                                                content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config file {path} is not ")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name, value, kind", [
        ("model", {"feature_partition": [[0]]}, "AmeConfig"),
        ("data", AmeConfig(), "SyntheticSpec"),
        ("probe", [1], "ProbeConfig"),
        ("model", None, "AmeConfig"),
    ])
    def test_block_of_the_wrong_type_is_a_config_error_naming_it(self, tmp_path, name,
                                                                 value, kind):
        # from_dict builds each block through its class; the constructor and
        # dataclasses.replace take whatever they are given, and check refuses it
        message = rf"^{name} must be {kind}, got "
        with pytest.raises(model_module.ConfigError, match=message):
            RunConfig(**{name: value})
        with pytest.raises(model_module.ConfigError, match=message):
            replace(RunConfig.from_dict(base_config(tmp_path)), **{name: value})

    def test_task_mismatch_between_model_and_data(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["model"]["task"] = "regression"
        code = main(["train", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "task" in capsys.readouterr().err

    def test_repeated_informative_feature_is_a_config_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["data"].update(informative=[0, 0], weights=[1.0, 1.0])
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: informative must be distinct, got [0, 0]")
        assert not (tmp_path / "runs").exists()
        assert "informative (default: [0]; must be distinct)" in cli._field_reference()

    def test_model_output_width_must_match_the_data(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["model"]["num_classes"] = 3
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: num_classes must be 2, ")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("field, value", [
        ("gate_hidden", "4"), ("expert_hidden", 3), ("alpha", None),
        ("feature_partition", [[0], ["1"], [2], [3]]),
    ])
    def test_wrong_model_field_type_is_a_config_error(self, tmp_path, capsys, field, value):
        cfg = base_config(tmp_path)
        cfg["model"][field] = value
        code = main(["train", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert f"config error: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("block, field, value", [
        (None, "fraction", "0.1"), (None, "runs", None), (None, "seed", "3"),
        (None, "model_path", 7), (None, "alphas", [0.1, "0.2"]),
        ("data", "n_train", "300"), ("data", "weights", [2.0, None]), ("data", "task", None),
        ("probe", "hidden", "8"), ("probe", "hidden", [0]), ("probe", "batch_size", 0),
        ("probe", "epochs", 0), ("probe", "learning_rate", 0.0), ("probe", "optimizer", "rmsprop"),
        ("model", "batch_size", -1), ("model", "batch_size", 0), ("model", "epochs", 0),
        ("model", "patience", 0), ("model", "optimizer", "rmsprop"),
        ("model", "learning_rate", 0.0),
    ])
    def test_bad_run_data_or_probe_field_is_a_config_error(self, tmp_path, capsys, block,
                                                           field, value):
        cfg = base_config(tmp_path)
        if block is None:
            cfg[field] = value
        else:
            cfg.setdefault(block, {})[field] = value
        command = "train" if block == "model" else "oracle"
        code = main([command, "--config", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and f"{field} must be" in err
        assert not (tmp_path / "runs").exists()

    def test_config_root_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["train", "--config", str(path)]) == 2
        assert "config error: RunConfig must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["model", "data", "probe"])
    def test_nested_block_must_be_an_object(self, tmp_path, capsys, block):
        cfg = base_config(tmp_path)
        cfg[block] = 5
        code = main(["oracle", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "must be a JSON object, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize("block, field, value", [
        ("probe", "num_classes", 5), ("probe", "task", "classification"),
        ("model", "detach_targets", False), ("model", "aux_grads_to_experts", True),
        ("data", "link", "tanh"), ("data", "label_rule", "sample"),
    ])
    def test_retired_field_is_a_config_error(self, tmp_path, capsys, block, field, value):
        cfg = base_config(tmp_path)
        cfg.setdefault(block, {})[field] = value
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("field", ["detach_targets", "aux_grads_to_experts"])
    @pytest.mark.parametrize("value", [True, False])
    def test_model_file_carrying_a_retired_field_is_a_config_error(
            self, tmp_path, capsys, field, value):
        doc = model_to_dict(build_ame(AmeConfig(**base_config(tmp_path)["model"])))
        doc["config"][field] = value
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, base_config(tmp_path, model_path=str(model_path)))
        assert main(["explain", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: unknown AmeConfig fields: [{field!r}]")

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("block, field", [
        ("model", "learning_rate"), ("model", "aux_weight"), ("model", "alpha"),
        ("probe", "learning_rate"), ("data", "weights"), ("data", "noise_scale"),
        (None, "baseline_value"), (None, "alphas"),
    ])
    def test_non_finite_float_is_a_config_error(self, tmp_path, capsys, block, field, literal):
        cfg = base_config(tmp_path)
        target = cfg if block is None else cfg.setdefault(block, {})
        value = float(literal)
        target[field] = [0.5, value] if field in ("weights", "alphas") else value
        path = write_config(tmp_path, cfg)
        assert literal in Path(path).read_text()  # written as a JSON literal
        assert main(["train", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field} must be finite, got ")
        assert not (tmp_path / "runs").exists()

    def test_wrong_field_type_in_model_file_is_a_config_error(self, tmp_path, capsys):
        from ame_lab.model import AmeConfig, build_ame, model_to_dict
        doc = model_to_dict(build_ame(AmeConfig(**base_config(tmp_path)["model"])))
        doc["config"]["gate_hidden"] = "6"
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        cfg = base_config(tmp_path, model_path=str(model_path))
        code = main(["explain", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "config error: gate_hidden must be int" in capsys.readouterr().err

    def test_help_lists_config_fields_with_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for field_name in ("feature_partition", "alpha", "noise_scale", "fraction",
                           "alphas", "learning_rate", "out_dir"):
            assert field_name in text
        assert "default" in text

    def test_help_prints_the_rule_of_every_field_that_declares_one(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        blocks = capsys.readouterr().out.split("config file reference")[1].split("\n  [")[1:]
        sections = {block.split("]")[0]: block.splitlines()[1:] for block in blocks}
        for title, cls in (("top-level", RunConfig), ("model.*", AmeConfig),
                           ("data.*", SyntheticSpec), ("probe.*", ProbeConfig)):
            rules = {f.name: f.metadata["text"] for f in fields(cls) if f.metadata.get("text")}
            assert len(rules) >= 5, title
            lines = {line.split()[0]: line for line in sections[title]}
            for name, text in rules.items():
                assert lines[name].endswith(f"; must be {text})"), (title, name)

    @pytest.mark.parametrize("field, value, message", [
        ("k", 0, "k must lie in [1, 4] (groups), got 0"),
        ("k", 9, "k must lie in [1, 4] (groups), got 9"),
        ("n", 0, "n must be >= 1, got 0"), ("n", -5, "n must be >= 1, got -5"),
        ("estimators", [], "estimators must be one or more distinct of "
                           "['ame', 'occlusion', 'saliency'], got []"),
        ("estimators", ["ame", "ame"], "estimators must be one or more distinct of "
                                       "['ame', 'occlusion', 'saliency'], got ['ame', 'ame']"),
        ("protocols", ["recall", "recall"], "protocols must be any distinct of "
                                            "['masking', 'mge_quality', 'recall', 'timing'], "
                                            "got ['recall', 'recall']"),
        ("alphas", [0.0, 1.5], "alphas must be non-empty, distinct and in [0, 1], got [0.0, 1.5]"),
    ], ids=["k-0", "k-9", "n-0", "n-negative", "estimators-empty", "estimators-repeated",
            "protocols-repeated", "alphas-out-of-range"])
    def test_setting_that_can_only_give_a_wrong_run_is_refused_before_training(
            self, tmp_path, capsys, monkeypatch, field, value, message):
        monkeypatch.setattr(cli, "train_model", lambda *args, **kw: pytest.fail("trained"))
        cfg = base_config(tmp_path, **{"protocols": ["recall", "timing"], field: value})
        assert main(["benchmark", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--jobs", "0")])
    def test_flag_is_checked_like_the_field_it_sets(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg, flag, value]) == 2
        field = flag.removeprefix("--")
        assert capsys.readouterr().err.startswith(f"config error: {field} must be >= ")
        assert not (tmp_path / "runs").exists()

    def test_seed_flag_overrides_nested_seeds(self, tmp_path):
        cfg = RunConfig.from_dict(base_config(tmp_path, seed=99))
        assert cfg.model.seed == 99 and cfg.data.seed == 99
        reseeded = replace(cfg, seed=3)  # as main applies --seed
        assert (reseeded.model.seed, reseeded.data.seed, reseeded.probe.seed) == (3, 3, 3)


class TestTrainCommand:
    def test_artifacts_written(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        code = main(["train", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        run_dir = run_dir_of(tmp_path, cfg)
        for name in ("config.json", "model.json", "training_log.csv"):
            assert (run_dir / name).exists()
        out = capsys.readouterr().out
        assert "test main_loss" in out

    def test_rerun_reproduces_identical_bytes(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        main(["train", "--config", path])
        run_dir = run_dir_of(tmp_path, cfg)
        first = {n: (run_dir / n).read_bytes()
                 for n in ("model.json", "training_log.csv")}
        main(["train", "--config", path, "--out", str(tmp_path / "again")])
        again = tmp_path / "again" / run_dir.name
        for name, blob in first.items():
            assert (again / name).read_bytes() == blob
        # config echoes agree except for the overridden output directory
        a = json.loads((run_dir / "config.json").read_text())
        b = json.loads((again / "config.json").read_text())
        a.pop("out_dir"), b.pop("out_dir")
        assert a == b

    def test_alpha_zero_log_has_mge_column(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["model"]["alpha"] = 0.0
        main(["train", "--config", write_config(tmp_path, cfg)])
        log = (run_dir_of(tmp_path, cfg) / "training_log.csv").read_text().splitlines()
        assert log[0].split(",")[3] == "mge"
        assert all(np.isfinite(float(line.split(",")[3])) for line in log[1:])

    def test_integers_for_floats_give_the_run_and_model_of_the_floats(self, tmp_path):
        run_dirs = []
        for name, alpha, aux_weight in (("ints", 0, 1), ("floats", 0.0, 1.0)):
            cfg = base_config(tmp_path, out_dir=str(tmp_path / name))
            cfg["model"].update(alpha=alpha, aux_weight=aux_weight)
            assert main(["train", "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
            (run_dir,) = (tmp_path / name).iterdir()
            run_dirs.append(run_dir)
        ints, floats = run_dirs
        assert ints.name == floats.name
        assert model_hash(load_model(ints / "model.json")) == model_hash(
            load_model(floats / "model.json"))
        for name in ("model.json", "training_log.csv"):
            assert (ints / name).read_bytes() == (floats / name).read_bytes()
        echoes = [json.loads((d / "config.json").read_text()) for d in run_dirs]
        assert echoes[0]["model"] == echoes[1]["model"]
        assert type(echoes[0]["model"]["alpha"]) is float

    def test_divergence_exits_nonzero(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["model"]["optimizer"] = "sgd"
        cfg["model"]["learning_rate"] = 1e6
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["train", "--config", write_config(tmp_path, cfg)])
        assert code == 1
        assert "diverged" in capsys.readouterr().err


class TestExplainCommand:
    def trained_model_path(self, tmp_path):
        cfg = base_config(tmp_path)
        main(["train", "--config", write_config(tmp_path, cfg, "train.json")])
        return str(run_dir_of(tmp_path, cfg) / "model.json")

    def test_requires_model_path(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        code = main(["explain", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "model_path" in capsys.readouterr().err

    def test_reports_record_the_values_each_estimator_uses(self, tmp_path):
        model_path = self.trained_model_path(tmp_path)
        cfg = base_config(tmp_path, model_path=model_path, baseline_value=0.5,
                          estimators=["ame", "saliency", "occlusion"])
        cfg["data"]["n_test"] = 5
        assert main(["explain", "--config", write_config(tmp_path, cfg)]) == 0
        blocks = json.loads((run_dir_of(tmp_path, cfg) / "importance.json").read_text())
        assert [b["params"] for b in blocks] == [{"batch_size": 64}, {"batch_size": 64},
                                                 {"batch_size": 64, "baseline_value": 0.5}]

    def test_estimator_blocks_share_sample_ids(self, tmp_path):
        model_path = self.trained_model_path(tmp_path)
        cfg = base_config(tmp_path, model_path=model_path,
                          estimators=["ame", "saliency", "occlusion"])
        cfg["data"]["n_test"] = 12
        code = main(["explain", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        run_dir = run_dir_of(tmp_path, cfg)
        from ame_lab.attribution import read_importance_csv
        rows = read_importance_csv(run_dir / "importance.csv")
        by_est = {}
        for row in rows:
            by_est.setdefault(row["estimator"], []).append(row["sample_id"])
        assert set(by_est) == {"ame", "saliency", "occlusion"}
        assert len(set(map(tuple, by_est.values()))) == 1
        assert (run_dir / "importance.json").exists()

    def test_rows_sum_to_one(self, tmp_path):
        model_path = self.trained_model_path(tmp_path)
        cfg = base_config(tmp_path, model_path=model_path, estimators=["ame"])
        main(["explain", "--config", write_config(tmp_path, cfg)])
        from ame_lab.attribution import read_importance_csv
        rows = read_importance_csv(run_dir_of(tmp_path, cfg) / "importance.csv")
        for row in rows:
            total = sum(v for k, v in row.items() if k.startswith("group_"))
            assert abs(total - 1.0) <= 1e-6

    def test_partition_mismatch_rejected(self, tmp_path, capsys):
        model_path = self.trained_model_path(tmp_path)
        cfg = base_config(tmp_path, model_path=model_path)
        cfg["model"]["feature_partition"] = [[0, 1], [2], [3]]
        code = main(["explain", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "partition" in capsys.readouterr().err

    @pytest.mark.parametrize("field, stored", [("task", "regression"), ("num_classes", 3),
                                               ("expert_hidden", [3]), ("gate_hidden", 5),
                                               ("aux_hidden", [5])])
    def test_architecture_mismatch_rejected(self, tmp_path, capsys, field, stored):
        from ame_lab.model import AmeConfig, build_ame, save_model
        model_path = tmp_path / "model.json"
        save_model(build_ame(AmeConfig(**{**base_config(tmp_path)["model"], field: stored})),
                   model_path)
        cfg = base_config(tmp_path, model_path=str(model_path))
        code = main(["explain", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert f"stored {field}" in capsys.readouterr().err

    def test_model_file_missing_a_parameter_is_a_config_error(self, tmp_path, capsys):
        from ame_lab.model import AmeConfig, build_ame, model_to_dict
        doc = model_to_dict(build_ame(AmeConfig(**base_config(tmp_path)["model"])))
        del doc["params"]["gates.context"]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        cfg = base_config(tmp_path, model_path=str(model_path))
        code = main(["explain", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "config error: parameter gates.context" in capsys.readouterr().err


    def test_importance_json_names_the_loaded_model_hashed_once(self, tmp_path, monkeypatch):
        model_path = self.trained_model_path(tmp_path)
        calls = []

        def counted(model):
            calls.append(model_hash(model))
            return calls[-1]
        monkeypatch.setattr(cli, "model_hash", counted)
        cfg = base_config(tmp_path, model_path=model_path,
                          estimators=["ame", "saliency", "occlusion"])
        cfg["data"]["n_test"] = 5
        assert main(["explain", "--config", write_config(tmp_path, cfg)]) == 0
        blocks = json.loads((run_dir_of(tmp_path, cfg) / "importance.json").read_text())
        assert [b["model_id"] for b in blocks] == [model_hash(load_model(model_path))] * 3
        assert len(calls) == 1

    @pytest.mark.parametrize("estimator", ["ame", "saliency", "occlusion"])
    def test_non_finite_scores_exit_1_and_write_no_importance(self, tmp_path, capsys,
                                                              estimator):
        model = build_ame(AmeConfig(**base_config(tmp_path)["model"]))
        for t in model.parameters():
            if t.name == "gates.context":
                t.data[...] = 1e308  # finite, so it saves and loads; the attention is not
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        cfg = base_config(tmp_path, model_path=str(model_path), estimators=[estimator])
        with np.errstate(all="ignore"):
            code = main(["explain", "--config", write_config(tmp_path, cfg)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: estimator {estimator}: rows are not valid distributions")
        assert not list(run_dir_of(tmp_path, cfg).glob("importance.*"))
        assert not (run_dir_of(tmp_path, cfg) / "config.json").exists()

    @pytest.mark.parametrize("fmt", [None, 1, 2, 3, 0, 5, "4", True, 4.0],
                             ids=["missing", "1", "2", "3", "0", "5", "str", "bool", "float"])
    def test_model_file_of_another_format_is_refused_and_writes_no_importance(
            self, tmp_path, capsys, fmt):
        doc = model_to_dict(build_ame(AmeConfig(**base_config(tmp_path)["model"])))
        if fmt is None:
            del doc["format"]  # how format 1 was written
        else:
            doc["format"] = fmt
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        cfg = base_config(tmp_path, model_path=str(model_path))
        assert main(["explain", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: model format {1 if fmt is None else fmt!r} ")
        assert "Retrain the model from its run's config.json" in err
        assert not list(run_dir_of(tmp_path, cfg).glob("importance.*"))

    @pytest.mark.parametrize("damage, message", [
        ("truncated", "not a model document"),
        ("flipped_base64", "model_hash: stored"),
        ("edited_hash", "model_hash: stored '0000000000000000'"),
        ("edited_config", "model_hash: stored"),
    ], ids=["truncated", "flipped_base64", "edited_hash", "edited_config"])
    def test_damaged_model_file_is_a_config_error_and_writes_no_importance(
            self, tmp_path, capsys, damage, message):
        model_path = Path(self.trained_model_path(tmp_path))
        text = model_path.read_text()
        doc = json.loads(text)
        if damage == "truncated":
            text = text[:len(text) // 2]
        elif damage == "flipped_base64":
            values = doc["params"]["gates.context"]["values"]
            doc["params"]["gates.context"]["values"] = (
                values[:3] + ("A" if values[3] != "A" else "B") + values[4:])
        elif damage == "edited_hash":
            doc["model_hash"] = "0" * 16
        else:
            doc["config"]["learning_rate"] = 0.02
        model_path.write_text(text if damage == "truncated" else json.dumps(doc, indent=1))
        cfg = base_config(tmp_path, model_path=str(model_path))
        capsys.readouterr()
        assert main(["explain", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err
        assert not list(run_dir_of(tmp_path, cfg).glob("importance.*"))


class TestBenchmarkCommand:
    def test_rows_carry_seed_and_hash(self, tmp_path):
        cfg = base_config(tmp_path, protocols=["masking", "recall", "timing"],
                          estimators=["ame"], n=30, k=2, fraction=0.25)
        code = main(["benchmark", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        from ame_lab.benchmark import read_benchmark_csv
        rows = read_benchmark_csv(run_dir_of(tmp_path, cfg) / "benchmark.csv")
        assert rows
        assert all(r["seed"] == 5 and r["model_hash"] for r in rows)
        protocols = {r["protocol"] for r in rows}
        assert protocols == {"masking", "recall", "timing"}

    def test_mge_quality_protocol_runs(self, tmp_path):
        cfg = base_config(tmp_path, protocols=["mge_quality"], n=30, fraction=0.25)
        cfg["model"]["epochs"] = 3
        code = main(["benchmark", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        from ame_lab.benchmark import read_benchmark_csv
        rows = read_benchmark_csv(run_dir_of(tmp_path, cfg) / "benchmark.csv")
        metrics = {r["metric"] for r in rows}
        assert "spearman" in metrics
        assert any(m.endswith("test_mge") for m in metrics)

    @pytest.mark.parametrize("protocols, refused", [
        (None, ["masking"]), (["recall", "mge_quality", "masking"], ["mge_quality", "masking"]),
    ], ids=["default", "both"])
    def test_regression_benchmark_refuses_the_masking_protocols_before_training(
            self, tmp_path, capsys, monkeypatch, protocols, refused):
        cfg = base_config(tmp_path) if protocols is None else base_config(
            tmp_path, protocols=protocols)
        cfg["model"]["task"] = "regression"
        cfg["data"]["kind"] = "additive_regression"
        monkeypatch.setattr(cli, "train_model", lambda *args, **kwargs: pytest.fail("trained"))
        assert main(["benchmark", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: protocols {refused} need a classification task")
        assert not (tmp_path / "runs").exists()
        # only a benchmark runs protocols; a regression benchmark may run the others
        RunConfig.from_dict(dict(cfg, command="train"))
        RunConfig.from_dict(dict(cfg, command="benchmark", protocols=["recall", "timing"]))


class TestSweepCommand:
    def sweep_config(self, tmp_path):
        cfg = base_config(tmp_path, alphas=[0.0, 0.1], runs=1)
        cfg["model"]["epochs"] = 2
        cfg["data"]["n_train"] = 150
        return cfg

    def test_cells_plus_aggregates(self, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path)
        code = main(["sweep", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        run_dir = run_dir_of(tmp_path, cfg)
        lines = (run_dir / "sweep.csv").read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("run,")) == 2
        assert sum(1 for l in lines if l.startswith("aggregate,")) == 2

    def test_resume_skips_completed_cells(self, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path)
        path = write_config(tmp_path, cfg)
        main(["sweep", "--config", path])
        capsys.readouterr()
        sweep_bytes = (run_dir_of(tmp_path, cfg) / "sweep.csv").read_bytes()
        code = main(["sweep", "--config", path])
        assert code == 0
        assert "2 already complete" in capsys.readouterr().out
        assert (run_dir_of(tmp_path, cfg) / "sweep.csv").read_bytes() == sweep_bytes

    def test_killed_sweep_keeps_finished_cells_and_resumes_to_the_same_bytes(
            self, tmp_path, monkeypatch, capsys):
        cfg = dict(self.sweep_config(tmp_path), alphas=[0.0, 0.05, 0.1])
        whole = dict(cfg, out_dir=str(tmp_path / "whole"))
        assert main(["sweep", "--config", write_config(tmp_path, whole, "whole.json")]) == 0
        path = write_config(tmp_path, cfg)

        class Killed(Exception):
            pass

        calls = []

        def third_cell_dies(*args):
            calls.append(args)
            if len(calls) == 3:
                raise Killed
            return sweep_single(*args)

        monkeypatch.setattr(cli, "sweep_single", third_cell_dies)
        with pytest.raises(Killed):
            main(["sweep", "--config", path])
        cells = run_dir_of(tmp_path, cfg) / "sweep_cells"
        assert sorted(p.name for p in cells.iterdir()) == ["alpha_0.05_run_0.json",
                                                           "alpha_0.0_run_0.json"]
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["sweep", "--config", path]) == 0
        assert "2 already complete" in capsys.readouterr().out
        whole_csv = tmp_path / "whole" / run_dir_of(tmp_path, cfg).name / "sweep.csv"
        assert (run_dir_of(tmp_path, cfg) / "sweep.csv").read_bytes() == whole_csv.read_bytes()

    def test_cells_of_another_numerics_version_are_not_resumed(self, tmp_path, monkeypatch,
                                                               capsys):
        cfg = self.sweep_config(tmp_path)
        path = write_config(tmp_path, cfg)
        monkeypatch.setattr(diffcore, "NUMERICS_VERSION", diffcore.NUMERICS_VERSION - 1)
        assert main(["sweep", "--config", path]) == 0
        earlier = run_dir_of(tmp_path, cfg)
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["sweep", "--config", path]) == 0
        assert "0 already complete" in capsys.readouterr().out
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == sorted(
            [earlier.name, run_dir_of(tmp_path, cfg).name])  # two directories, not one

    def test_integer_alphas_give_the_cells_of_the_floats(self, tmp_path):
        run_dirs = []
        for name, alphas in (("ints", [0, 0.1]), ("floats", [0.0, 0.1])):
            cfg = dict(self.sweep_config(tmp_path), alphas=alphas, out_dir=str(tmp_path / name))
            assert main(["sweep", "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
            (run_dir,) = (tmp_path / name).iterdir()
            run_dirs.append(run_dir)
        ints, floats = run_dirs
        assert ints.name == floats.name
        cells = sorted(p.name for p in (ints / "sweep_cells").iterdir())
        assert cells == ["alpha_0.0_run_0.json", "alpha_0.1_run_0.json"]
        for name in ["sweep.csv"] + [f"sweep_cells/{c}" for c in cells]:
            assert (ints / name).read_bytes() == (floats / name).read_bytes()

    def test_alphas_equal_to_six_digits_get_their_own_cells(self, tmp_path):
        cfg = dict(self.sweep_config(tmp_path), alphas=[0.1, 0.1000001])
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        run_dir = run_dir_of(tmp_path, cfg)
        assert sorted(p.name for p in (run_dir / "sweep_cells").iterdir()) == [
            "alpha_0.1000001_run_0.json", "alpha_0.1_run_0.json"]
        lines = (run_dir / "sweep.csv").read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("aggregate,")) == 2

    @pytest.mark.parametrize("alphas", [[0.1, 0.1], [0, 0.0]])
    def test_repeated_alpha_is_a_config_error(self, tmp_path, capsys, alphas):
        cfg = dict(self.sweep_config(tmp_path), alphas=alphas)
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: alphas must be non-empty, distinct and in [0, 1], got ")

    def test_parallel_jobs_match_sequential_bytes(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        main(["sweep", "--config", write_config(tmp_path, cfg, "seq.json")])
        sequential = (run_dir_of(tmp_path, cfg) / "sweep.csv").read_bytes()
        par_cfg = dict(cfg, out_dir=str(tmp_path / "par"))
        code = main(["sweep", "--config", write_config(tmp_path, par_cfg, "par.json"),
                     "--jobs", "2"])
        assert code == 0
        parallel = (tmp_path / "par" / run_dir_of(tmp_path, cfg).name / "sweep.csv").read_bytes()
        assert parallel == sequential


class TestOracleCommand:
    def test_writes_simplex_rows(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["probe"] = {"hidden": [4], "epochs": 5, "learning_rate": 0.01}
        code = main(["oracle", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        lines = (run_dir_of(tmp_path, cfg) / "oracle.csv").read_text().splitlines()
        assert lines[0] == "sample_id,group_1,group_2,group_3,group_4"
        assert len(lines) == 1 + 80
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")[1:]]
            assert abs(sum(values) - 1.0) <= 1e-6

    @pytest.mark.parametrize("command", ["oracle", "train"])
    def test_echoed_config_hashes_to_its_directory(self, tmp_path, command):
        cfg = base_config(tmp_path)
        cfg["probe"] = {"hidden": [4], "epochs": 2}
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        echo = json.loads((run_dir / "config.json").read_text())
        assert run_id(RunConfig.from_dict(echo)) == run_dir.name
        assert not {"task", "num_classes"} & set(echo["probe"])

    def test_train_and_oracle_share_a_directory(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["probe"] = {"hidden": [4], "epochs": 2}
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 0
        assert main(["oracle", "--config", path]) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert (run_dir / "model.json").exists() and (run_dir / "oracle.csv").exists()


class TestRunEpilogue:
    """`main` makes the run directory and, once the command has written its
    artifacts, echoes the resolved config there and names the directory (a
    failing command writes no echo: see the non-finite explain test)."""

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_echoes_the_resolved_config_and_names_the_directory(self, tmp_path, capsys,
                                                                  command):
        cfg = base_config(tmp_path, probe={"hidden": [4], "epochs": 2}, alphas=[0.0], runs=1,
                          protocols=["recall"], n=30)
        cfg["model"]["epochs"] = 2
        if command == "explain":
            assert main(["train", "--config", write_config(tmp_path, cfg, "train.json")]) == 0
            cfg["model_path"] = str(run_dir_of(tmp_path, cfg) / "model.json")
        capsys.readouterr()
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 0
        run_dir = run_dir_of(tmp_path, cfg)
        resolved = RunConfig.from_dict(dict(cfg, command=command))
        assert json.loads((run_dir / "config.json").read_text()) == resolved.to_dict()
        assert capsys.readouterr().out.endswith(f"artifacts in {run_dir}\n")


class TestHelpers:
    @pytest.mark.parametrize("rows", [[[np.nan, np.nan], [0.5, 0.5]], [[np.inf, 0.0]],
                                      [[np.inf, -np.inf]], [[1.5, -0.5]], [[0.5, 0.4]]])
    def test_simplex_check_refuses_non_finite_negative_and_unnormalized_rows(self, rows):
        with pytest.raises(cli.InvariantError, match="^x: rows are not valid distributions"):
            cli._check_simplex_rows(np.array(rows), "x")
        cli._check_simplex_rows(np.array([[0.25, 0.75], [1.0, 0.0]]), "x")

    def test_informative_groups_maps_features_to_groups(self):
        groups = informative_groups([[0, 1], [2], [3, 4]], [1, 4])
        assert groups == {0, 2}

    def test_run_id_ignores_out_dir(self, tmp_path):
        a = RunConfig.from_dict(base_config(tmp_path))
        b = RunConfig.from_dict(base_config(tmp_path, out_dir="elsewhere"))
        assert run_id(a) == run_id(b)

    def test_run_id_tracks_the_numerics_version(self, tmp_path, monkeypatch):
        cfg = RunConfig.from_dict(base_config(tmp_path))
        current = run_id(cfg)
        monkeypatch.setattr(diffcore, "NUMERICS_VERSION", diffcore.NUMERICS_VERSION - 1)
        assert run_id(cfg) != current

    def test_run_id_is_one_for_every_entry_path(self, tmp_path):
        raw = base_config(tmp_path)
        model = dict(alpha=0, learning_rate=1)
        top = dict(fraction=1, baseline_value=0, alphas=[0, 1])
        via_dict = RunConfig.from_dict(dict(raw, model=dict(raw["model"], **model), **top))
        via_init = RunConfig(model=AmeConfig(**dict(raw["model"], **model)),
                             data=SyntheticSpec(**raw["data"]), out_dir=raw["out_dir"], **top)
        parsed = RunConfig.from_dict(raw)
        via_replace = replace(parsed, model=replace(parsed.model, **model), **top)
        floats = RunConfig.from_dict(dict(raw, model=dict(raw["model"], alpha=0.0,
                                                          learning_rate=1.0),
                                          fraction=1.0, baseline_value=0.0, alphas=[0.0, 1.0]))
        assert {run_id(c) for c in (via_dict, via_init, via_replace)} == {run_id(floats)}

    def test_run_id_tracks_settings(self, tmp_path):
        a = RunConfig.from_dict(base_config(tmp_path))
        changed = base_config(tmp_path)
        changed["model"]["alpha"] = 0.07
        b = RunConfig.from_dict(changed)
        assert run_id(a) != run_id(b)


def plain_or(kinds, values):
    """`values` drawn as one of `kinds`, say a float as a numpy scalar."""
    return st.tuples(values, st.sampled_from(kinds)).map(lambda vk: vk[1](vk[0]))


INTS = (int, np.int64, np.int32)
FLOATS = (float, np.float64, np.float32, Fraction)


def ints(low, high=10 ** 6):
    return plain_or(INTS, st.integers(low, high))


def reals(low, high):
    """A float in [low, high] of any kind a float field reads, or an int."""
    return st.one_of(plain_or(FLOATS, st.floats(low, high)),
                     st.integers(math.ceil(low), math.floor(high)))


def widths(min_size=1):
    return st.lists(ints(1, 64), min_size=min_size, max_size=3)


@st.composite
def partitions(draw):
    order = draw(st.permutations(range(draw(st.integers(1, 8)))))
    cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1)))) if len(order) > 1 else []
    return [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, len(order)])]


def model_configs(**fixed):
    strategies = dict(feature_partition=partitions(), expert_hidden=widths(),
                      gate_hidden=ints(1, 64), aux_hidden=widths(),
                      task=st.sampled_from(["regression", "classification"]),
                      num_classes=ints(2, 9), alpha=reals(0.0, 1.0), aux_weight=reals(0.0, 1e3),
                      seed=ints(0), optimizer=st.sampled_from(["sgd", "adam"]),
                      learning_rate=reals(1e-6, 1.0), batch_size=ints(1), epochs=ints(1),
                      patience=ints(1))
    return st.builds(AmeConfig, **dict(strategies, **fixed))


@st.composite
def synthetic_specs(draw):
    total = draw(st.integers(1, 8))
    informative = draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=total,
                                unique=True))
    return draw(st.builds(
        SyntheticSpec, kind=st.sampled_from(["additive_regression",
                                             "informative_subset_classification"]),
        total_features=st.just(total), informative=st.just(informative),
        weights=st.lists(reals(-10.0, 10.0), min_size=len(informative),
                         max_size=len(informative)),
        noise_scale=reals(0.0, 10.0), n_train=ints(1), n_val=ints(1), n_test=ints(1),
        seed=ints(0)))


@st.composite
def run_configs(draw):
    data = draw(synthetic_specs())
    model = draw(model_configs(feature_partition=st.just([[i] for i in range(
        data.total_features)]), task=st.just(data.task), num_classes=st.just(2)))
    command = draw(st.sampled_from([None, *cli.COMMANDS]))
    # a regression benchmark refuses the two masking protocols
    protocols = [p for p in cli.PROTOCOLS if command != "benchmark"
                 or data.task == "classification" or p not in ("masking", "mge_quality")]
    return draw(st.builds(
        RunConfig, model=st.just(model), data=st.just(data),
        command=st.just(command), out_dir=st.text(max_size=5),
        seed=st.none() | ints(0), model_path=st.none() | st.text(max_size=5),
        estimators=st.lists(st.sampled_from(sorted(ESTIMATORS)), min_size=1, max_size=3,
                            unique=True),
        protocols=st.lists(st.sampled_from(protocols), max_size=4, unique=True),
        fraction=reals(1e-6, 1.0), k=ints(1, model.n_experts), n=ints(1),
        alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True),
        runs=ints(1), baseline_value=reals(-1e3, 1e3), jobs=ints(1, 8)))


PROBE_CONFIGS = st.builds(ProbeConfig, hidden=widths(min_size=0), learning_rate=reals(1e-6, 1.0),
                          optimizer=st.sampled_from(["sgd", "adam"]), epochs=ints(1),
                          batch_size=ints(1), seed=ints(0))


class TestConfigRoundTrip:
    """Every config reads back from its own JSON as itself, whatever kinds of
    number it was built from."""

    @pytest.mark.parametrize("configs", [model_configs(), synthetic_specs(), PROBE_CONFIGS,
                                         run_configs()],
                             ids=["AmeConfig", "SyntheticSpec", "ProbeConfig", "RunConfig"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_from_dict_of_its_json_is_the_config(self, configs, data):
        cfg = data.draw(configs)
        text = json.dumps(cfg.to_dict(), sort_keys=True)
        back = type(cfg).from_dict(json.loads(text))
        assert back == cfg
        assert json.dumps(back.to_dict(), sort_keys=True) == text


LIST_FIELDS = [(cls, f.name) for cls in (AmeConfig, SyntheticSpec, ProbeConfig, RunConfig)
               for f in fields(cls) if isinstance(f.metadata.get("like"), (list, tuple))]


class TestConfigListsAreFrozen:
    """A list field holds a tuple: a built config's lists cannot be edited in
    place past its checks, and its JSON still holds lists."""

    def test_every_list_field_is_covered(self):
        assert len(LIST_FIELDS) == 9

    @pytest.mark.parametrize("cls, name", LIST_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in LIST_FIELDS])
    def test_a_list_field_refuses_an_in_place_edit(self, tmp_path, cls, name):
        run = RunConfig.from_dict(base_config(tmp_path))
        cfg = {AmeConfig: run.model, SyntheticSpec: run.data, ProbeConfig: run.probe,
               RunConfig: run}[cls]
        value, before = getattr(cfg, name), cfg.to_dict()
        for item in (value, value[0]) if isinstance(value[0], (list, tuple)) else (value,):
            with pytest.raises(AttributeError):
                item.append(item[0])
            with pytest.raises(TypeError):
                item[0] = item[0]
        assert cfg.to_dict() == before
        assert type(before[name]) is list


class FailingFile:
    """A text file handle that writes `budget` characters, then raises."""

    def __init__(self, fh, budget=30):
        self.fh, self.budget = fh, budget

    def write(self, text):
        if len(text) > self.budget:
            self.fh.write(text[:self.budget])
            raise OSError("simulated failure partway through the write")
        self.budget -= len(text)
        return self.fh.write(text)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def fail_writes_to(monkeypatch):
    """Make every write through `atomic_open` to a file whose name starts with
    the given prefix fail partway; a writer that opens its target itself is
    not affected, so its test sees no failure."""
    def arm(prefix):
        def failing_open(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            return FailingFile(fh) if "w" in mode and Path(file).name.startswith(prefix) else fh
        monkeypatch.setattr(model_module, "open", failing_open, raising=False)
    return arm


def artifact_writers(tmp_path):
    """(artifact name, call writing it to a path) for every library writer."""
    cfg = base_config(tmp_path)
    model = build_ame(AmeConfig(**cfg["model"]))
    report = explain_ame(model, np.zeros((20, 4)))
    result = BenchmarkResult(rows=[], seed=1)
    for i in range(10):
        result.add("timing", f"ame.metric_{i}", 0.5, "0123456789abcdef")
    log = [{c: 0.25 for c in TRAINING_LOG_COLUMNS} for _ in range(10)]
    runs = [{"alpha": 0.1, "run": r, "seed": r, "test_main_loss": 0.5, "test_mge": 0.25,
             "test_metric": 0.75, "model_hash": "0123456789abcdef"} for r in range(3)]
    run_cfg = RunConfig.from_dict(cfg)
    return {
        "model.json": lambda path: save_model(model, path),
        "config.json": lambda path: cli._write_config(run_cfg, path.parent),
        "training_log.csv": lambda path: write_training_log(log, path),
        "importance.csv": lambda path: write_importance_csv([report], path),
        "importance.json": lambda path: write_importance_json([report], path,
                                                           model_hash(model)),
        "benchmark.csv": lambda path: write_benchmark_csv(result, path),
        "sweep.csv": lambda path: write_sweep_csv(runs, aggregate_sweep(runs), path),
    }


class TestAtomicWrites:
    @pytest.mark.parametrize("name", ["model.json", "config.json", "training_log.csv",
                                      "importance.csv", "importance.json", "benchmark.csv",
                                      "sweep.csv"])
    def test_writer_failing_partway_keeps_the_earlier_file(self, tmp_path, fail_writes_to,
                                                           name):
        out = tmp_path / "out"
        out.mkdir()
        write = artifact_writers(tmp_path)[name]
        write(out / name)
        before = (out / name).read_bytes()
        assert len(before) > 30
        fail_writes_to(name)
        with pytest.raises(OSError, match="simulated failure"):
            write(out / name)
        assert (out / name).read_bytes() == before
        assert [p.name for p in out.iterdir()] == [name]

    def test_writer_failing_partway_leaves_no_file_where_there_was_none(
            self, tmp_path, fail_writes_to):
        fail_writes_to("model.json")
        with pytest.raises(OSError):
            save_model(build_ame(AmeConfig(**base_config(tmp_path)["model"])),
                       tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []

    def test_oracle_table_failing_partway_keeps_the_earlier_table(
            self, tmp_path, capsys, fail_writes_to):
        cfg = base_config(tmp_path)
        cfg["probe"] = {"hidden": [4], "epochs": 2}
        path = write_config(tmp_path, cfg)
        assert main(["oracle", "--config", path]) == 0
        run_dir = run_dir_of(tmp_path, cfg)
        before = (run_dir / "oracle.csv").read_bytes()
        fail_writes_to("oracle.csv")
        capsys.readouterr()
        assert main(["oracle", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: simulated failure")
        assert (run_dir / "oracle.csv").read_bytes() == before
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "oracle.csv"]

    def test_sweep_cell_failing_partway_leaves_no_cell_and_resumes(
            self, tmp_path, capsys, monkeypatch, fail_writes_to):
        cfg = base_config(tmp_path, alphas=[0.0], runs=1)
        cfg["model"]["epochs"] = 2
        path = write_config(tmp_path, cfg)
        fail_writes_to("alpha_0.0_run_0.json")
        assert main(["sweep", "--config", path]) == 1
        cells = run_dir_of(tmp_path, cfg) / "sweep_cells"
        assert list(cells.iterdir()) == []
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["sweep", "--config", path]) == 0
        assert "0 already complete" in capsys.readouterr().out
        assert [p.name for p in cells.iterdir()] == ["alpha_0.0_run_0.json"]


class TestRunTimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        # numpy is the only run-time dependency; scipy is a test oracle only
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import ame_lab.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = Path(cli.__file__).parents[1]
        done = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
