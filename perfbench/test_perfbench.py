"""Tests of the benchmark's own code: statistics, span accounting, metric
names, and a fast smoke pass of each workload on shrunken inputs.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import gc
import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from perfbench import run as bench_run  # noqa: E402
from perfbench import tracer as tracing  # noqa: E402
from perfbench.speed import NOMINAL_S, WINDOW, SpeedProbe  # noqa: E402
from perfbench.summary import (  # noqa: E402
    METRIC_NAME,
    min_samples_for,
    percentile,
    quartile_spread,
    result_line,
    self_time_by_layer,
    self_times,
    tail_percentile,
)
from perfbench.workloads import (  # noqa: E402
    E2E_UNITS,
    ONCE,
    TASKS,
    WORKLOADS,
    run_pass,
    traced_counts,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- percentiles and sample counts ---------------------------------------------


def test_percentile_matches_numpy_linear_method():
    rng = random.Random(3)
    for n in (1, 2, 7, 100, 101):
        xs = [rng.random() for _ in range(n)]
        for q in (0, 10, 50, 90, 99, 100):
            assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)), abs=1e-15)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_sample_count_needed_for_ten_samples_beyond():
    assert min_samples_for(50) == 20
    assert min_samples_for(90) == 100
    assert min_samples_for(99) == 1000


def test_tail_percentile_refuses_short_samples():
    with pytest.raises(ValueError, match="at least 100"):
        tail_percentile(list(range(99)), 90)
    assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 10.3, 9.9, 10.0]
    assert quartile_spread(values) == pytest.approx((10.35 - 9.875) / 10.05)


# -- reference speed ------------------------------------------------------------


def test_probe_seconds_scales_each_stretch_by_the_median_around_it():
    assert WINDOW == 3
    probe = SpeedProbe()
    probe.starts = [float(k) for k in range(8)]
    probe.durations = [NOMINAL_S * f for f in (1, 1, 2, 2, 2, 50, 2, 2)]
    probe.ends = [k + 0.01 for k in probe.starts]  # a run also holds its untimed warm-up
    # [3.5, 4.0] lies between runs 3 and 4: runs 1-6 around it, median 2
    assert probe.seconds(3.5, 4.0) == pytest.approx(0.5 / 2)
    # [0.5, 1.0]: runs 0-3, median 1.5; then [1.01, 1.5]: runs 0-4, median 2
    assert probe.seconds(0.5, 1.5) == pytest.approx(0.5 / 1.5 + 0.49 / 2)
    assert probe.seconds(0.5, 1.5, scaled=False) == pytest.approx(0.99)
    assert probe.seconds(-1.0, -0.5) == pytest.approx(0.5)  # runs 0-2, median 1
    assert probe.seconds(7.5, 8.0) == pytest.approx(0.5 / 2)  # runs 4-7, median 2


def test_probe_runs_on_a_timer_inside_the_block():
    probe = SpeedProbe()
    with probe.running(interval_s=0.01):
        while len(probe.starts) < 2:  # one run at the start, one from the timer
            pass
    assert probe.starts == sorted(probe.starts)
    assert all(0 < d < end - start for start, end, d in
               zip(probe.starts, probe.ends, probe.durations))
    n = len(probe.starts)
    time.sleep(0.03)
    assert len(probe.starts) == n  # the timer is off after the block
    assert gc.isenabled()


# -- span accounting --------------------------------------------------------------


def nested_spans():
    # op.step [0, 10]
    #   granger.train_epoch [1, 9]
    #     model.forward.bn [1, 4]
    #       diffcore.linear [2, 3]
    #     diffcore.backward [5, 8]
    return [
        ["op.step", 0.0, 10.0, -1, 0],
        ["granger.train_epoch", 1.0, 9.0, 0, 0],
        ["model.forward.bn", 1.0, 4.0, 1, 0],
        ["diffcore.linear", 2.0, 3.0, 2, 0],
        ["diffcore.backward", 5.0, 8.0, 1, 0],
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(nested_spans()) == [2.0, 2.0, 2.0, 1.0, 3.0]


def test_self_times_sum_to_the_root_duration():
    spans = nested_spans()
    assert sum(self_times(spans)) == pytest.approx(spans[0][2] - spans[0][1])


def test_self_time_by_layer():
    assert self_time_by_layer(nested_spans()) == {
        "op": 2.0, "granger": 2.0, "model": 2.0, "diffcore": 4.0}


def test_outermost_totals_do_not_count_nested_same_name_twice():
    spans = [
        ["model.probes", 0.0, 5.0, -1, 0],
        ["model.probes", 1.0, 2.0, 0, 0],
        ["model.probes", 6.0, 7.0, -1, 0],
    ]
    assert tracing.outermost_totals(spans) == {"model.probes": (2, 6.0)}


def test_tracer_keeps_nesting_and_operation_ids():
    tr = tracing.Tracer("t")
    with tr.op("step"):
        outer = tr.open("granger.train_epoch")
        inner = tr.open("diffcore.backward")
        tr.close(inner)
        tr.close(outer)
    with tr.op("readout"):
        pass
    assert [s[3] for s in tr.spans] == [-1, 0, 1, -1]
    assert [s[4] for s in tr.spans] == [0, 0, 0, 1]
    assert tr.op_names == ["step", "readout"]


def test_instrumentation_restores_the_library():
    from ame_lab import attribution, cli, diffcore, granger, model

    before = (model.forward, granger.forward, diffcore.Tensor.backward, diffcore.linear,
              attribution.ESTIMATORS["ame"], cli.RUNNERS["train"], model.Mlp.__call__)
    with tracing.Instrumentation(tracing.Tracer("t")):
        assert granger.forward is not before[1]
        assert attribution.ESTIMATORS["ame"] is attribution.explain_ame
    after = (model.forward, granger.forward, diffcore.Tensor.backward, diffcore.linear,
             attribution.ESTIMATORS["ame"], cli.RUNNERS["train"], model.Mlp.__call__)
    assert after == before


# -- metric names -------------------------------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_json_lists_the_end_to_end_metrics_printed():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert tuple(WORKLOADS) == bench_run.WORKLOAD_NAMES


def test_result_line_rejects_bad_names_and_values():
    with pytest.raises(ValueError):
        result_line(1, 0, {"bad name": (1.0, "s")})
    with pytest.raises(ValueError):
        result_line(1, 0, {"x": (math.nan, "s")})
    assert result_line(3, 1, {"x": (1.0, "s")})["correct"] is False


# -- smoke passes ----------------------------------------------------------------------


def shrink(workload):
    """Same problem shape, far less work: one epoch, short probes, 8 test rows."""
    return replace(workload, model={**workload.model, "epochs": 1, "patience": 1},
                   probe={**workload.probe, "epochs": 1}, block=8)


SMOKE_COUNTS = {"fit": 1, "setup": 2, "oracle": 1, "step": 2, "readout": 3, "ame": 1,
                "saliency": 1, "occlusion": 1, "masking": 1}


# explain_p64 has step_p64's problem and differs only in counts, which a
# smoke pass replaces.
@pytest.mark.parametrize("name", ["desk_p8", "step_p64"])
def test_smoke_pass_checks_every_operation(name, tmp_path):
    result = run_pass(shrink(WORKLOADS[name]), seed=0, out_root=tmp_path, counts=SMOKE_COUNTS)
    assert result.failed == 0
    assert result.attempted == sum(SMOKE_COUNTS.values()) + 1  # + the quality check
    assert {t: len(s) for t, s in result.samples.items()} == dict(SMOKE_COUNTS, masking=0)
    assert list(tmp_path.iterdir()) == []


def test_pass_goes_on_past_its_counts_until_its_time_is_up(tmp_path):
    workload = shrink(WORKLOADS["desk_p8"])
    start = time.perf_counter()
    run_pass(workload, seed=0, out_root=tmp_path, counts=SMOKE_COUNTS)
    took = time.perf_counter() - start
    result = run_pass(workload, seed=0, out_root=tmp_path, seconds=took + 1.0,
                      counts=SMOKE_COUNTS)
    assert result.failed == 0
    ran = {t: len(s) for t, s in result.samples.items()}
    assert ran["fit"] == SMOKE_COUNTS["fit"]
    assert ran["masking"] == 0  # masking keeps no sample; it ran once, as attempted shows
    for task in TASKS:
        if task not in ONCE:
            assert ran[task] >= SMOKE_COUNTS[task]
    assert ran["step"] > SMOKE_COUNTS["step"]


def test_traced_counts_trace_half_of_each_task():
    workload = WORKLOADS["step_p64"]
    counts = traced_counts(workload)
    for task in ("setup", "step", "readout", "ame", "saliency", "occlusion"):
        assert counts[task] == 2 * workload.counts[task]
    assert counts["fit"] == counts["oracle"] == counts["masking"] == 2


def test_traced_smoke_pass_prints_every_per_layer_metric(tmp_path):
    workload = shrink(WORKLOADS["desk_p8"])
    counts = dict({t: 2 * n for t, n in SMOKE_COUNTS.items()}, step=200, readout=200)
    spans = tracing.Tracer("smoke")
    instr = tracing.Instrumentation(spans)
    result = run_pass(workload, 0, tmp_path, counts=counts, instr=instr)
    assert result.failed == 0
    assert {t: len(s) for t, s in result.traced.items()} == dict(
        SMOKE_COUNTS, step=100, readout=100, masking=0)
    assert all(span[4] >= 0 for span in spans.spans)  # nothing traced between operations
    metrics = bench_run.layer_metrics(result, spans, instr, E2E_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    assert metrics["attribution.readout_forwards"][0] == 100
    assert metrics["attribution.occlusion_forwards"][0] == 8 + 1
    assert metrics["attribution.saliency_backwards"][0] == 1
    assert metrics["granger.epochs_run"][0] == 1
    assert 0.0 < metrics["trace.step_inner_share"][0] <= 1.0


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk_p8",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
