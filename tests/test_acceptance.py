"""Acceptance suite: one test per release criterion, with stated budgets.

Each test prints a PASS line (run with `pytest -s` to watch them live).
Expensive artifacts (trained models, oracle targets) are computed once per
session and shared across the criteria that need them.

Replay (criterion 9) compares artifacts byte for byte, with one carve-out:
wall-clock `seconds` fields in timing-bearing CSVs are masked before the
comparison, since elapsed time is not a function of the seed.
"""

import csv
import json
import time
import numpy as np
import pytest
from scipy import stats

from ame_lab.attribution import (
    ProbeConfig,
    explain_ame,
    explain_occlusion,
    granger_oracle,
)
from ame_lab.benchmark import (
    SyntheticSpec,
    generate,
    masking_protocol,
    mge_quality_protocol,
    train_model,
)
from ame_lab.cli import main as cli_main, resolve_config, run_id, RunConfig
from ame_lab.diffcore import (
    clear_grads,
    finite_difference_grads,
    relative_gradient_error,
)
from ame_lab.granger import (
    GrangerTargets,
    aux_errors,
    batch_losses,
    evaluate,
    kl_divergence,
)
from ame_lab.model import AmeConfig, build_ame, forward
from reference import frozen_objective

N_SEEDS = 10


def report(criterion: str, detail: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {criterion} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.1f}s]")


def subset_task_spec(seed: int) -> SyntheticSpec:
    """Binary task where 4 of 8 features carry all the signal."""
    return SyntheticSpec(kind="informative_subset_classification", total_features=8,
                         informative=[0, 1, 2, 3], weights=[2.0, 1.5, 1.0, 0.5],
                         noise_scale=0.5, n_train=2000, n_val=500, n_test=500, seed=seed)


def subset_task_config(seed: int, alpha: float = 0.1) -> AmeConfig:
    return AmeConfig(feature_partition=[[i] for i in range(8)], expert_hidden=[4],
                     gate_hidden=8, aux_hidden=[8], task="classification",
                     num_classes=2, alpha=alpha, aux_weight=1.0, seed=seed,
                     learning_rate=0.01, batch_size=64, epochs=30, patience=12)


_fixture_time: dict = {}


@pytest.fixture(scope="session")
def seed_runs():
    """Per seed: splits, AME(alpha=0.1), AME(alpha=0), and oracle targets.

    Built once; its cost is charged to criterion 3's budget, which mandates
    these trainings.
    """
    started = time.perf_counter()
    runs = {}
    for seed in range(N_SEEDS):
        splits = generate(subset_task_spec(seed))
        granger_model, _ = train_model(subset_task_config(seed, alpha=0.1), splits)
        plain_model, _ = train_model(subset_task_config(seed, alpha=0.0), splits)
        probe = ProbeConfig(hidden=[8], learning_rate=0.01, epochs=30, batch_size=64, seed=seed)
        oracle = granger_oracle((splits.train.x, splits.train.y),
                                (splits.test.x, splits.test.y),
                                granger_model.config.feature_partition, probe, "classification")
        runs[seed] = {"splits": splits, "granger": granger_model,
                      "plain": plain_model, "oracle": oracle}
    _fixture_time["seed_runs"] = time.perf_counter() - started
    return runs


class TestCriterion1Gradients:
    def test_total_loss_gradients_match_finite_differences(self):
        """Every parameter gradient of the blended objective (alpha=0.5,
        beta=1) on a 3-expert model matches central differences at 1e-4."""
        started = time.perf_counter()
        cfg = AmeConfig(feature_partition=[[0, 1], [2], [3, 4]], expert_hidden=[4],
                        gate_hidden=4, aux_hidden=[4], task="regression",
                        alpha=0.5, aux_weight=1.0, seed=7)
        assert max(cfg.expert_hidden + cfg.aux_hidden + [cfg.gate_hidden]) <= 8
        model = build_ame(cfg)
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(4, 5)), rng.normal(size=(4, 1))
        params = model.parameters()

        losses = batch_losses(model, forward(model, x), y)
        frozen_omega = losses.targets.omega.copy()

        def loss_with_frozen_targets():
            # the optimized objective treats the targets as constants, so the
            # independent oracle must differentiate the same function
            out = forward(model, x)
            return frozen_objective(out.y.data, out.a.data, out.y_aux.data, y, frozen_omega,
                                    "regression", 0.5, 1.0)

        losses.total.backward()
        analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                    for p in params]
        clear_grads(params)
        numeric = finite_difference_grads(loss_with_frozen_targets, params, step=1e-5)
        worst = max(relative_gradient_error(a, n) for a, n in zip(analytic, numeric))
        assert worst <= 1e-4
        report("1 (gradient correctness)",
               f"{sum(p.size for p in params)} parameters, worst rel err {worst:.2e}",
               started, 10.0)


class TestCriterion2Simplex:
    def test_distributions_and_kl_properties(self):
        """10^4 attention vectors, omega targets, and KL pairs behave."""
        started = time.perf_counter()
        rng = np.random.default_rng(0)
        attention_rows = 0
        omega_rows = 0
        for draw in range(100):
            p = int(rng.integers(2, 6))
            widths = int(rng.integers(2, 9))
            features = [[i] for i in range(p)]
            cfg = AmeConfig(feature_partition=features, expert_hidden=[widths],
                            gate_hidden=widths, aux_hidden=[widths],
                            task="regression", seed=int(rng.integers(0, 2**31)))
            model = build_ame(cfg)
            scale = float(rng.uniform(0.2, 3.0))
            for param in model.parameters():
                param.data = param.data * scale + rng.normal(scale=0.1, size=param.shape)
            x = rng.normal(size=(100, p))
            out = forward(model, x)
            a = out.a.data
            assert np.all(a > 0)
            assert np.max(np.abs(a.sum(axis=1) - 1.0)) <= 1e-6
            attention_rows += a.shape[0]

            y = rng.normal(size=(100, 1))
            targets = GrangerTargets.from_errors(aux_errors(out.y_aux, y, "regression"))
            assert np.all(targets.omega >= 0)
            assert np.max(np.abs(targets.omega.sum(axis=1) - 1.0)) <= 1e-6
            omega_rows += targets.omega.shape[0]
        assert attention_rows >= 10_000 and omega_rows >= 10_000

        # KL over 10^4 random simplex pairs, plus the equality direction
        k = 5
        omega = rng.dirichlet(np.ones(k), size=10_000)
        a = rng.dirichlet(np.ones(k), size=10_000)
        kl = kl_divergence(np.clip(omega, 0, None), a)
        assert np.all(kl >= 0.0)
        distinct = np.abs(omega - a).max(axis=1) > 1e-9
        assert np.all(kl[distinct] > 0.0)
        assert np.all(kl_divergence(omega, omega.copy()) == 0.0)
        report("2 (simplex invariants)",
               f"{attention_rows} attention rows, {omega_rows} omega rows, 10000 KL pairs",
               started, 30.0)


class TestCriterion3GrangerTrainingEffect:
    def test_granger_objective_improves_attribution(self, seed_runs):
        """alpha=0.1 beats alpha=0 on r2 against the oracle and on test MGE
        in at least 8 of 10 seeds."""
        started = time.perf_counter()
        r2_wins = 0
        mge_wins = 0
        for seed, run in seed_runs.items():
            splits, oracle = run["splits"], run["oracle"]
            r2 = {}
            mge = {}
            for name in ("granger", "plain"):
                model = run[name]
                a = explain_ame(model, splits.test.x).per_sample
                r = stats.pearsonr(a.ravel(), oracle.ravel()).statistic
                r2[name] = r * r
                mge[name] = evaluate(model, splits.test.x, splits.test.y)["mge"]
            r2_wins += r2["granger"] > r2["plain"]
            mge_wins += mge["granger"] < mge["plain"]
        assert r2_wins >= 8, f"r2 improved in only {r2_wins}/10 seeds"
        assert mge_wins >= 8, f"MGE improved in only {mge_wins}/10 seeds"
        report("3 (Granger-training effect)",
               f"r2 wins {r2_wins}/10, MGE wins {mge_wins}/10 "
               f"(incl. {_fixture_time.get('seed_runs', 0.0):.0f}s shared training)",
               started - _fixture_time.get("seed_runs", 0.0), 600.0)


class TestCriterion4MaskingBenchmark:
    def test_informed_masking_doubles_random_control(self, seed_runs):
        """Masking the top 25% of groups by attention at least doubles the
        random-control log-odds drop in >= 8 of 10 seeds."""
        started = time.perf_counter()
        wins = 0
        details = []
        for seed, run in seed_runs.items():
            model, splits = run["granger"], run["splits"]
            rep = explain_ame(model, splits.test.x[:100])
            outcome = masking_protocol(model, rep, splits.test.x, fraction=0.25,
                                       baseline_value=0.0, n=100, seed=seed)
            wins += outcome["informed_drop"] >= 2.0 * outcome["random_drop"]
            details.append(round(outcome["informed_drop"] / max(outcome["random_drop"], 1e-9), 1))
        assert wins >= 8, f"2x margin reached in only {wins}/10 seeds (ratios {details})"
        report("4 (masking benchmark)", f"2x margin in {wins}/10 seeds, ratios {details}",
               started, 300.0 * N_SEEDS)


class TestCriterion5MgeQualityCorrelation:
    def test_lower_mge_goes_with_larger_drops(self, seed_runs):
        """Across converged/early-stopped/baseline models, Spearman between
        test MGE and masking drop is negative."""
        started = time.perf_counter()
        run = seed_runs[0]
        splits = run["splits"]
        early, _ = train_model(subset_task_config(0, alpha=0.01), splits, epochs=3)
        models = [("alpha_0.1_converged", run["granger"]),
                  ("alpha_0.01_early", early),
                  ("alpha_0_baseline", run["plain"])]
        outcome = mge_quality_protocol(models, splits.test, fraction=0.25,
                                       baseline_value=0.0, n=100, seed=0)
        mges = [r["test_mge"] for r in outcome["rows"]]
        assert not outcome["degenerate"], f"MGEs not distinct: {mges}"
        assert outcome["spearman"] < 0.0, f"spearman {outcome['spearman']} (rows {outcome['rows']})"
        report("5 (MGE-quality correlation)",
               f"spearman {outcome['spearman']:.2f} over MGEs {[round(m, 3) for m in mges]}",
               started, 900.0)


class TestCriterion6AlphaSweep:
    def test_alpha_grid_trend(self, tmp_path):
        """Over alpha in {0,...,0.1} x 5 seeds, run by `ame-lab sweep`:
        Spearman(alpha, mean MGE) <= -0.7 and the predictive-loss penalty at
        0.1 stays under 25%."""
        started = time.perf_counter()
        alphas = [round(0.01 * i, 2) for i in range(11)]
        cfg = {"out_dir": str(tmp_path / "runs"), "alphas": alphas, "runs": 5,
               "model": subset_task_config(100, alpha=0.0).to_dict(),
               "data": subset_task_spec(100).to_dict()}
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        assert cli_main(["sweep", "--config", str(tmp_path / "sweep.json")]) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        with open(run_dir / "sweep.csv", encoding="utf-8", newline="") as fh:
            table = list(csv.DictReader(fh))
        run_rows = [{k: float(row[k]) for k in ("alpha", "test_main_loss")}
                    for row in table if row["row_type"] == "run"]
        agg_rows = [{k: float(row[k]) for k in ("alpha", "mge_mean")}
                    for row in table if row["row_type"] == "aggregate"]
        assert len(run_rows) == 55 and [row["alpha"] for row in agg_rows] == alphas

        mge_means = [row["mge_mean"] for row in agg_rows]
        spearman = stats.spearmanr(alphas, mge_means).statistic
        assert spearman <= -0.7, f"spearman(alpha, mean MGE) = {spearman}"

        loss_by_alpha = {a: np.mean([r["test_main_loss"] for r in run_rows if r["alpha"] == a])
                         for a in (0.0, 0.1)}
        ratio = loss_by_alpha[0.1] / loss_by_alpha[0.0]
        assert ratio < 1.25, f"predictive loss ratio {ratio}"
        report("6 (alpha sweep trend)",
               f"spearman {spearman:.3f}, loss ratio {ratio:.3f}", started, 3600.0)


class TestCriterion7SpeedOrdering:
    def test_attention_readout_is_5x_faster_than_occlusion(self):
        """p=64, n=256: the read-out beats occlusion by over 5x wall-clock,
        with exact 1 vs p+1 per-sample forward accounting at batch 1."""
        started = time.perf_counter()
        p, n = 64, 256
        spec = SyntheticSpec(kind="informative_subset_classification", total_features=p,
                             informative=list(range(8)), weights=[1.0] * 8,
                             noise_scale=0.5, n_train=512, n_val=128, n_test=n, seed=7)
        splits = generate(spec)
        cfg = AmeConfig(feature_partition=[[i] for i in range(p)], expert_hidden=[2],
                        gate_hidden=4, aux_hidden=[4], task="classification",
                        num_classes=2, alpha=0.1, seed=7, learning_rate=0.01,
                        batch_size=64, epochs=2, patience=12)
        model, _ = train_model(cfg, splits, epochs=2)

        readout = explain_ame(model, splits.test.x, batch_size=1)
        occlusion = explain_occlusion(model, splits.test.x, batch_size=1)
        assert readout.forwards == n
        assert readout.backwards == 0
        assert occlusion.forwards == n * (p + 1)
        assert readout.seconds < occlusion.seconds / 5.0, (
            f"readout {readout.seconds:.2f}s vs occlusion {occlusion.seconds:.2f}s")
        report("7 (speed ordering)",
               f"readout {readout.seconds:.2f}s vs occlusion {occlusion.seconds:.2f}s "
               f"({occlusion.seconds / readout.seconds:.0f}x)", started, 300.0)


class TestCriterion8OracleCrossCheck:
    def test_oracle_and_in_model_pathway_agree_on_copy_task(self):
        """On y = x1 with zero noise, both target pathways put >95% of the
        attribution on group 1 and agree to mean KL < 0.1."""
        started = time.perf_counter()
        spec = SyntheticSpec(kind="additive_regression", total_features=2,
                             informative=[0], weights=[1.0], noise_scale=0.0,
                             n_train=1000, n_val=200, n_test=200, seed=5)
        splits = generate(spec)
        np.testing.assert_array_equal(splits.test.y[:, 0], splits.test.x[:, 0])

        cfg = AmeConfig(feature_partition=[[0], [1]], expert_hidden=[8], gate_hidden=8,
                        aux_hidden=[8], task="regression", alpha=0.1, aux_weight=1.0,
                        seed=5, learning_rate=0.01, batch_size=64, epochs=40, patience=12)
        model, _ = train_model(cfg, splits)
        in_model = GrangerTargets.from_errors(
            aux_errors(forward(model, splits.test.x).y_aux, splits.test.y, "regression")).omega
        probe = ProbeConfig(hidden=[8], learning_rate=0.01, epochs=40, batch_size=64, seed=5)
        oracle = granger_oracle((splits.train.x, splits.train.y),
                                (splits.test.x, splits.test.y),
                                cfg.feature_partition, probe, "regression")
        assert oracle[:, 0].mean() > 0.95, f"oracle mean omega_1 {oracle[:, 0].mean()}"
        assert in_model[:, 0].mean() > 0.95, f"in-model mean omega_1 {in_model[:, 0].mean()}"

        # smoothing lets rows with exact zeros enter the divergence
        delta = 1e-3
        smooth = lambda w: (w + delta) / (1.0 + w.shape[1] * delta)
        mean_kl = float(np.mean(kl_divergence(smooth(oracle), smooth(in_model))))
        assert mean_kl < 0.1, f"mean KL between pathways {mean_kl}"
        report("8 (oracle cross-check)",
               f"omega_1 oracle {oracle[:, 0].mean():.3f} / in-model "
               f"{in_model[:, 0].mean():.3f}, mean KL {mean_kl:.4f}", started, 300.0)


def _mask_seconds_in_importance(text: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    idx = header.index("seconds")
    masked = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[idx] = "_"
        masked.append(",".join(parts))
    return "\n".join(masked)


def _mask_seconds_in_benchmark(text: str) -> str:
    lines = text.splitlines()
    masked = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        if parts[1].endswith(".seconds") or parts[1].endswith(".ratio_vs_ame"):
            parts[2] = "_"
        masked.append(",".join(parts))
    return "\n".join(masked)


class TestCriterion9Replay:
    """Re-running a config with the same seed reproduces the artifacts.

    Byte identity is required of every deterministic artifact; measured
    wall-clock fields (the `seconds` column of importance.csv and the
    timing rows of benchmark.csv) are masked before comparing, since
    elapsed time is not derivable from the seed.
    """

    def _config(self, tmp_path, out_name):
        return {
            "out_dir": str(tmp_path / out_name),
            "model": {
                "feature_partition": [[0], [1], [2], [3]],
                "expert_hidden": [4], "gate_hidden": 6, "aux_hidden": [6],
                "task": "classification", "num_classes": 2, "alpha": 0.1,
                "seed": 13, "learning_rate": 0.01, "batch_size": 64,
                "epochs": 4, "patience": 12,
            },
            "data": {
                "kind": "informative_subset_classification", "total_features": 4,
                "informative": [0, 1], "weights": [2.0, 1.0], "noise_scale": 0.5,
                "n_train": 300, "n_val": 80, "n_test": 60, "seed": 13,
            },
            "estimators": ["ame", "saliency"],
            "protocols": ["masking", "recall", "timing"],
            "fraction": 0.25, "k": 2, "n": 50,
            "alphas": [0.0, 0.05], "runs": 1,
        }

    def _run_twice(self, tmp_path, command, cfg_dict, extra=()):
        paths = []
        for out_name in ("first", "second"):
            cfg = dict(cfg_dict, out_dir=str(tmp_path / out_name))
            cfg_path = tmp_path / f"{command}_{out_name}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert cli_main([command, "--config", str(cfg_path), *extra]) == 0
            rid = run_id(resolve_config(RunConfig.from_dict(cfg)))
            paths.append(tmp_path / out_name / rid)
        return paths

    def test_training_sweep_and_reports_replay(self, tmp_path, capsys):
        started = time.perf_counter()
        base = self._config(tmp_path, "first")

        a, b = self._run_twice(tmp_path, "train", base)
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
        assert (a / "training_log.csv").read_bytes() == (b / "training_log.csv").read_bytes()

        sweep_cfg = dict(base)
        sweep_cfg["model"] = dict(base["model"], epochs=2)
        a, b = self._run_twice(tmp_path, "sweep", sweep_cfg)
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

        explain_cfg = dict(base, model_path=str(a.parent.parent / "first"))
        # reuse the trained model from the train replay above
        train_rid = run_id(resolve_config(RunConfig.from_dict(base)))
        explain_cfg["model_path"] = str(tmp_path / "first" / train_rid / "model.json")
        a, b = self._run_twice(tmp_path, "explain", explain_cfg)
        texts = [(p / "importance.csv").read_text() for p in (a, b)]
        assert _mask_seconds_in_importance(texts[0]) == _mask_seconds_in_importance(texts[1])
        assert texts[0].splitlines()[0].endswith("seconds,forwards,backwards")

        bench_cfg = dict(base)
        a, b = self._run_twice(tmp_path, "benchmark", bench_cfg)
        texts = [(p / "benchmark.csv").read_text() for p in (a, b)]
        assert _mask_seconds_in_benchmark(texts[0]) == _mask_seconds_in_benchmark(texts[1])

        capsys.readouterr()
        report("9 (determinism and replay)",
               "train/sweep byte-identical; explain/benchmark identical "
               "up to wall-clock fields", started, 600.0)
