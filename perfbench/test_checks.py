"""The benchmark's checks accept correct CLI output and reject wrong output;
the tracer's spans, self times and restore work.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import os
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from allelink import cli  # noqa: E402
from allelink.estimation import expected_posterior_loss  # noqa: E402
from allelink.partitions import LinkageStructure  # noqa: E402

CHAINS, ITERATIONS, BURN_IN, STRIDE = 2, 60, 30, 10


def run_cli(tmp_path, truth_column: np.ndarray, values: np.ndarray) -> str:
    data = tmp_path / "records.csv"
    with open(data, "w") as fh:
        fh.write("a,b,c,d,e,truth_id\n")
        for row, label in zip(values.tolist(), truth_column.tolist()):
            fh.write(",".join(map(str, row)) + f",{label}\n")
    config = {
        "dataset": str(data),
        "output_dir": str(tmp_path),
        "seed": 3,
        "prior": {"family": "bbap", "cap": workloads.CAP},
        "sampler": {"iterations": ITERATIONS, "burn_in": BURN_IN, "chains": CHAINS},
    }
    with open(tmp_path / "config.json", "w") as fh:
        json.dump(config, fh)
    assert cli.main(["run", "--config", str(tmp_path / "config.json")]) == 0
    return str(tmp_path)


def check(out_dir, truth):
    return checks.check_run(out_dir, truth, CHAINS, ITERATIONS, BURN_IN, STRIDE, workloads.CAP)


@pytest.fixture
def small():
    return workloads.records(15, np.random.default_rng(11))


def test_run_output_passes(tmp_path, small):
    values, truth = small
    assert check(run_cli(tmp_path, truth, values), truth) == []


def test_cluster_over_cap_rejected(tmp_path, small):
    values, truth = small
    out = run_cli(tmp_path, truth, values)
    path = os.path.join(out, "xi_snapshots.csv")
    rows = checks.read_rows(path)
    labels = rows[0, 2:].copy()
    labels[: workloads.CAP + 1] = 1
    rows[0, 2:] = workloads.canonical(labels)
    np.savetxt(path, rows, fmt="%d", delimiter=",")
    assert any("above the cap" in msg for msg in check(out, truth))


def test_rates_against_shuffled_truth_rejected(tmp_path, small):
    values, truth = small
    shuffled = np.random.default_rng(5).permutation(truth)
    fails = check(run_cli(tmp_path, shuffled, values), truth)
    assert any("trace fnr/fdr" in msg for msg in fails)


def test_error_rates_on_small_partitions():
    truth = np.array([0, 0, 1, 1, 2])
    assert checks.error_rates(truth, truth) == (0.0, 0.0)
    assert checks.error_rates(np.arange(5), truth) == (1.0, 0.0)
    assert checks.error_rates(np.zeros(5, dtype=int), truth) == (0.0, 0.8)


@pytest.fixture
def estimate_dir(tmp_path):
    rng = np.random.default_rng(2)
    labels = workloads.truth_labels(30, rng)
    samples = workloads.posterior_samples(labels, rng, n_samples=80, n_ambiguous=6)
    with open(tmp_path / "xi_snapshots.csv", "w") as fh:
        for it, row in enumerate(samples):
            fh.write(",".join(map(str, [0, it, *row.tolist()])) + "\n")
    config = {"output_dir": str(tmp_path), "seed": 1,
              "estimation": {"samples_used": len(samples)}}
    with open(tmp_path / "config.json", "w") as fh:
        json.dump(config, fh)
    assert cli.main(["estimate", "--config", str(tmp_path / "config.json")]) == 0
    return str(tmp_path), checks.EstimateReference(samples)


def test_estimate_output_passes(estimate_dir):
    out, ref = estimate_dir
    assert ref.transitive
    assert checks.check_estimate(out, ref, workloads.ESTIMATE_LOSSES) == ([], [])


def test_estimate_one_record_off_rejected(estimate_dir):
    out, ref = estimate_dir
    path = os.path.join(out, "estimate_binder.csv")
    with open(path) as fh:
        labels = np.array([int(v) for v in fh.readline().split(",")])
    labels[0] = labels[1] if labels[0] != labels[1] else labels.max() + 1
    with open(path, "w") as fh:
        fh.write(",".join(map(str, workloads.canonical(labels))) + "\n")
    fails, _ = checks.check_estimate(out, ref, ("binder",))
    assert any("differs from the co-clustering threshold" in msg for msg in fails)
    assert any("epl" in msg for msg in fails)


def test_non_transitive_threshold_detected():
    # P(0~1) = P(1~2) = 0.6 but P(0~2) = 0.2
    rows = [[1, 1, 1]] * 2 + [[1, 1, 2]] * 4 + [[1, 2, 2]] * 4
    _, transitive = checks.threshold_partition(np.array(rows))
    assert not transitive


def test_expected_losses_agree_with_the_package():
    rng = np.random.default_rng(0)
    samples = np.array([workloads.canonical(rng.integers(0, 6, 25)) for _ in range(12)])
    estimate = workloads.canonical(rng.integers(0, 8, 25))
    ours = checks.expected_losses(estimate, samples)
    parts = [LinkageStructure(tuple(row)) for row in samples]
    for loss in workloads.ESTIMATE_LOSSES:
        theirs = expected_posterior_loss(LinkageStructure(tuple(estimate)), parts, loss)
        assert ours[loss] == pytest.approx(theirs, abs=1e-12)


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    tracer = Tracer()
    printed = run.layer_metrics(tracer, tracer.arrays(), workloads.WORKLOADS["s2-bbap"],
                                [], [], 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in printed.items()]


def test_tracer_self_time_restore_and_missing_names():
    mod = types.ModuleType("mod")
    mod.inner = lambda: time.sleep(0.01)
    mod.outer = lambda: (time.sleep(0.01), mod.inner())
    tracer = Tracer()
    for name in ("outer", "inner", "gone"):
        tracer.wrap(mod, name, f"mod.{name}")
    tracer.call("root", mod.outer)
    tracer.restore()
    assert tracer.missing == ["mod.gone"]
    assert not hasattr(mod.inner, "__wrapped__")
    spans = tracer.arrays()
    total = tracer.durations("mod.outer", spans)[0]
    own = tracer.durations("mod.outer", spans, self_time=True)[0]
    inner = tracer.durations("mod.inner", spans)[0]
    assert own == total - inner and inner >= 1e7
    assert tracer.durations("root", spans, self_time=True)[0] < 1e7
