"""Acceptance suite: one test per criterion, at the stated tolerances.

The scenario run (criteria 6 and 7) takes a few minutes; everything else
is fast.  Each test prints one pass line with the measured values after
its assertions hold.
"""

import math
from collections import Counter

import numpy as np
import pytest

from allelink.cli import EXIT_OK, main
from allelink.datagen import scenario_preset, simulate
from allelink.estimation import (
    GreedyConfig,
    expected_posterior_loss,
    greedy_epl,
    pairwise_loss,
)
from allelink.evaluation import fnr_fdr, js_distance, posterior_report
from allelink.likelihood import LikelihoodConfig, make_dataset
from allelink.mcmc import SamplerConfig, run_chain
from allelink.partitions import (
    AllelicPartition,
    LinkageStructure,
    canonicalize,
    enumerate_partitions,
    matched_pairs,
)
from allelink.priors import (
    BbapParams,
    CalibrationSpec,
    EppParams,
    calibrate_m2,
    calibrate_recursive,
    log_density_bbap_linkage,
    log_density_epp_linkage,
    reallocation_weights,
    sample_count_matrix,
    sample_prior,
    singleton_moments_m2,
)

from conftest import exact_partition_posterior, tv_distance


def test_criterion_1_prior_normalization():
    for n in range(1, 9):
        for cap in (2, 3, 4):
            params = BbapParams(cap=cap, a=(1.3,) * (cap - 1), b=(2.6,) * (cap - 1))
            total = math.fsum(
                math.exp(log_density_bbap_linkage(xi, params))
                for xi in enumerate_partitions(n, cap)
            )
            assert abs(total - 1.0) <= 1e-10, (n, cap, total)
        epp_total = math.fsum(
            math.exp(log_density_epp_linkage(xi, EppParams(1.4)))
            for xi in enumerate_partitions(n)
        )
        assert abs(epp_total - 1.0) <= 1e-10, (n, epp_total)
    print("ACCEPTANCE 1 PASS: prior normalization exact to 1e-10 for n<=8, caps {2,3,4}")


def test_criterion_2_bounded_microclustering():
    rng = np.random.default_rng(42)
    params = calibrate_recursive(CalibrationSpec("geometric", cap=5, cv=0.25, p=0.5), 500)
    worst = 0
    for _ in range(10_000):
        worst = max(worst, sample_prior(params, 500, rng).max_cluster_size())
    assert worst <= 5
    print(f"ACCEPTANCE 2 PASS: 10,000 draws at n=500, cap 5; largest cluster seen {worst}")


def test_criterion_3_singleton_moment_reproduction():
    rng = np.random.default_rng(7)
    a2, b2 = calibrate_m2(0.3, 0.5)
    params = BbapParams(cap=2, a=(a2,), b=(b2,))
    n, draws = 100, 50_000
    mat = sample_count_matrix(params, n, draws, rng)
    singles = mat[:, 0].astype(float)
    mean, var = singleton_moments_m2(n, a2, b2)
    assert round(mean) == 70
    se_mean = singles.std(ddof=1) / math.sqrt(draws)
    assert abs(singles.mean() - mean) <= 3 * se_mean
    s2 = singles.var(ddof=1)
    m4 = ((singles - singles.mean()) ** 4).mean()
    se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / draws)
    assert abs(s2 - var) <= 3 * se_var
    print(
        f"ACCEPTANCE 3 PASS: singleton mean {singles.mean():.2f} vs {mean:.2f} "
        f"(3se={3*se_mean:.3f}); variance {s2:.1f} vs {var:.1f} (3se={se_var*3:.1f})"
    )


def test_criterion_4_reallocation_consistency():
    checked = 0
    for cap in (2, 3):
        params = BbapParams(cap=cap, a=(1.4,) * (cap - 1), b=(2.7,) * (cap - 1))
        for n_full in range(2, 7):
            for reduced in enumerate_partitions(n_full - 1, cap):
                weights = reallocation_weights(reduced, params)
                joint = np.array(
                    [
                        math.exp(
                            log_density_bbap_linkage(
                                LinkageStructure(reduced.assignments + (k,)), params
                            )
                        )
                        for k in range(1, reduced.n_clusters + 2)
                    ]
                )
                if joint.sum() == 0:
                    continue
                np.testing.assert_allclose(
                    weights / weights.sum(), joint / joint.sum(), atol=1e-10
                )
                checked += 1
    assert checked > 100
    print(f"ACCEPTANCE 4 PASS: reallocation ratios match joint ratios on {checked} reduced states")


@pytest.mark.parametrize("move_mix,label", [(0.0, "full-scan"), (0.9, "chaperones-dominant")])
def test_criterion_5_sampler_exactness(move_mix, label):
    values = np.array([[0, 0], [0, 0], [0, 1], [1, 1], [1, 1]])
    dataset = make_dataset(values)
    prior = calibrate_recursive(CalibrationSpec("geometric", cap=3, cv=0.25, p=0.5), 5)
    psi = np.array([0.05, 0.05])
    exact = exact_partition_posterior(
        dataset.values, dataset.freqs, psi,
        lambda xi: log_density_bbap_linkage(xi, prior),
    )
    config = SamplerConfig(
        iterations=201_000, burn_in=1_000, chains=1, seed=13,
        move_mix=move_mix, snapshot_stride=1, check_every=10_000,
    )
    trace = run_chain(config, dataset, prior, LikelihoodConfig(psi_fixed=0.05))
    counts = Counter(map(tuple, trace.snapshots[:, 2:].tolist()))
    total = sum(counts.values())
    empirical = {k: v / total for k, v in counts.items()}
    tv = tv_distance(empirical, exact)
    assert total == 200_000
    assert tv < 0.05
    print(f"ACCEPTANCE 5 PASS ({label}): TV distance {tv:.4f} over 200,000 kept iterations")


@pytest.fixture(scope="module")
def scenario2_run():
    spec = scenario_preset(2, n_clusters=200, psi=0.01, seed=9)
    values, truth, _ = simulate(spec)
    dataset = make_dataset(values, spec.cardinalities)
    cap = math.ceil(1.5 * truth.max_cluster_size())
    prior = calibrate_recursive(
        CalibrationSpec("geometric", cap=cap, cv=0.25, p=0.5), dataset.n
    )
    config = SamplerConfig(
        iterations=20_000, burn_in=10_000, chains=2, seed=1, check_every=1_000
    )
    trace = run_chain(config, dataset, prior, LikelihoodConfig(), truth)
    return trace, truth


def test_criterion_6_scenario2_reproduction(scenario2_run):
    trace, truth = scenario2_run
    assert len(trace) == 20_000  # two chains of ten thousand kept sweeps
    report = posterior_report(trace, truth)
    fnr_pct, fdr_pct = report.fnr * 100.0, report.fdr * 100.0
    assert abs(fnr_pct - 3.3) <= 3.0
    assert abs(fdr_pct - 3.7) <= 3.0
    assert report.js <= 0.08
    print(
        f"ACCEPTANCE 6 PASS: posterior-average FNR {fnr_pct:.2f}% (target 3.3+-3), "
        f"FDR {fdr_pct:.2f}% (target 3.7+-3), JS {report.js:.4f} (<= 0.08)"
    )


def _merge_deltas(estimate, samples, kind):
    """Change in expected posterior loss from merging each pair of the
    estimate's clusters that share a sample cluster in at least one sample.

    Any other merge raises both losses.  A merge changes n * VI and
    C(n, 2) * binder only through the merged records, so each delta is
    read from the partitions restricted to those records and rescaled.
    """
    n = estimate.n
    est = np.array(estimate.assignments) - 1
    smat = np.asarray(samples)
    shared = np.zeros((n, n), dtype=bool)
    for labels in smat:
        shared |= labels[:, None] == labels[None, :]
    onehot = np.eye(estimate.n_clusters, dtype=np.int64)[est]
    links = onehot.T @ shared @ onehot
    deltas = {}
    for c1, c2 in zip(*np.nonzero(np.triu(links, k=1))):
        records = np.flatnonzero((est == c1) | (est == c2))
        m = len(records)
        restricted = [canonicalize(row) for row in smat[:, records]]
        split = expected_posterior_loss(canonicalize(est[records]), restricted, kind)
        merged = expected_posterior_loss(LinkageStructure((1,) * m), restricted, kind)
        scale = m / n if kind == "vi" else math.comb(m, 2) / math.comb(n, 2)
        deltas[(int(c1) + 1, int(c2) + 1)] = scale * (merged - split)
    return deltas


def test_criterion_7a_vi_below_binder_on_scenario2(scenario2_run):
    # VI may link more than binder and so return fewer clusters, never
    # more.  At one percent distortion the ordering is not strict: both
    # greedy estimates are the same 200-cluster partition, which exhaustive
    # enumeration of the co-clustering graph's components shows to be the
    # exact minimizer of both expected losses.  Checks 2 and 3 tell that
    # tie apart from a search failure.  The strict ordering is tested where
    # it holds, at five percent, by the supplementary test below.
    trace, _ = scenario2_run
    snapshots = trace.snapshots[np.lexsort((trace.snapshots[:, 0], trace.snapshots[:, 1]))]
    samples = snapshots[-2000:, 2:]
    assert len(samples) == 2000
    est_binder = greedy_epl(samples, "binder", GreedyConfig(seed=0))
    est_vi = greedy_epl(samples, "vi", GreedyConfig(seed=0))
    k_vi, k_binder = est_vi.n_clusters, est_binder.n_clusters
    assert k_vi <= k_binder, (
        f"ACCEPTANCE 7a FAIL (ordering): VI cluster count {k_vi} is above "
        f"binder {k_binder}"
    )
    estimates = {"vi": est_vi, "binder": est_binder}
    for kind, own in estimates.items():
        other_kind = "binder" if kind == "vi" else "vi"
        own_epl = expected_posterior_loss(own, samples, kind)
        other_epl = expected_posterior_loss(estimates[other_kind], samples, kind)
        assert own_epl <= other_epl + 1e-12, (
            f"ACCEPTANCE 7a FAIL (own loss): expected {kind} loss of the {kind} "
            f"estimate {own_epl:.6g} exceeds that of the {other_kind} estimate "
            f"{other_epl:.6g}"
        )
    for kind, own in estimates.items():
        deltas = _merge_deltas(own, samples, kind)
        worst = min(deltas, key=deltas.get)
        assert deltas[worst] >= -1e-12, (
            f"ACCEPTANCE 7a FAIL (merge): merging clusters {worst} of the {kind} "
            f"estimate changes its expected {kind} loss by {deltas[worst]:.6g}"
        )
        print(
            f"ACCEPTANCE 7a: {len(deltas)} candidate merges of the {kind} estimate; "
            f"smallest {kind} loss change {deltas[worst]:.4g} (clusters {worst})"
        )
    print(
        f"ACCEPTANCE 7a PASS: scenario-2 cluster counts VI {k_vi} <= binder {k_binder}"
    )


def test_criterion_7b_binder_greedy_matches_exhaustive():
    # small enumerable problem: greedy matches the exhaustive minimizer
    rng = np.random.default_rng(3)
    base = canonicalize([1, 1, 2, 2, 3, 4, 4, 4])
    sample_set = []
    for _ in range(24):
        labels = list(base.assignments)
        i = int(rng.integers(8))
        labels[i] = int(rng.integers(1, 6))
        sample_set.append(canonicalize(labels))
    best_epl = min(
        expected_posterior_loss(xi, sample_set, "binder")
        for xi in enumerate_partitions(8)
    )
    hits = 0
    for seed in range(50):
        est = greedy_epl(sample_set, "binder", GreedyConfig(seed=seed))
        epl = expected_posterior_loss(est, sample_set, "binder")
        hits += math.isclose(epl, best_epl, rel_tol=0, abs_tol=1e-9)
    assert hits >= 45
    print(f"ACCEPTANCE 7b PASS: binder greedy matched the exhaustive minimizer in {hits}/50 trials")


def test_supplementary_vi_ordering_at_higher_distortion():
    # the regime where the documented under-clustering of the VI loss
    # actually manifests: same scenario family at five percent distortion,
    # whose error rates match the noisy-application setting
    spec = scenario_preset(2, n_clusters=200, psi=0.05, seed=9)
    values, truth, _ = simulate(spec)
    dataset = make_dataset(values, spec.cardinalities)
    cap = math.ceil(1.5 * truth.max_cluster_size())
    prior = calibrate_recursive(
        CalibrationSpec("geometric", cap=cap, cv=0.25, p=0.5), dataset.n
    )
    config = SamplerConfig(
        iterations=10_000, burn_in=5_000, chains=1, seed=1,
        check_every=2_000, snapshot_stride=5,
    )
    trace = run_chain(config, dataset, prior, LikelihoodConfig(), truth)
    samples = trace.snapshots[-1000:, 2:]
    est_binder = greedy_epl(samples, "binder", GreedyConfig(seed=0))
    est_vi = greedy_epl(samples, "vi", GreedyConfig(seed=0))
    assert est_vi.n_clusters < est_binder.n_clusters
    print(
        f"SUPPLEMENTARY PASS: at 5% distortion VI {est_vi.n_clusters} < "
        f"binder {est_binder.n_clusters}"
    )


def test_criterion_8_metric_identities():
    rng = np.random.default_rng(11)
    truth = canonicalize(rng.integers(0, 5, size=12))
    assert fnr_fdr(truth, truth) == (0.0, 0.0)
    assert js_distance(
        AllelicPartition((2, 1)), AllelicPartition((2, 1))
    ) == 0.0

    for _ in range(1000):
        triple = []
        for _ in range(3):
            counts = rng.integers(0, 4, size=4)
            if counts.sum() == 0:
                counts[0] = 1
            triple.append(AllelicPartition(tuple(int(c) for c in counts)))
        a, b, c = triple
        dab, dba = js_distance(a, b), js_distance(b, a)
        assert math.isclose(dab, dba, abs_tol=1e-12)
        assert 0.0 <= dab <= 1.0
        assert js_distance(a, c) <= dab + js_distance(b, c) + 1e-12

    pair_total = 12 * 11 // 2
    for _ in range(200):
        a = canonicalize(rng.integers(0, 5, size=12))
        b = canonicalize(rng.integers(0, 5, size=12))
        # binder loss from the error-rate module's outputs alone
        fnr, fdr = fnr_fdr(a, b)
        missed = fnr * len(matched_pairs(b))
        spurious = fdr * len(matched_pairs(a))
        assert math.isclose(
            pairwise_loss(a, b, "binder"), (missed + spurious) / pair_total, abs_tol=1e-12
        )
    print("ACCEPTANCE 8 PASS: metric identities, JS metric properties on 1000 triples, "
          "binder equals pair-error fraction")


def test_criterion_9_cli_determinism(tmp_path):
    import json

    config = {
        "scenario": {"id": 2, "clusters": 25, "psi": 0.02, "seed": 3},
        "prior": {"family": "bbap", "cap": 6},
        "sampler": {"iterations": 300, "burn_in": 100, "chains": 2,
                    "snapshot_stride": 2, "check_every": 100},
        "estimation": {"losses": ["binder", "vi"], "samples_used": 200, "sweeps": 40},
        "seed": 21,
        "output_dir": "",
    }
    outputs = []
    for name in ("first", "second"):
        run_dir = tmp_path / name
        config["output_dir"] = str(run_dir)
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        assert main(["estimate", "--config", str(config_path)]) == EXIT_OK
        outputs.append(run_dir)
    identical = []
    for fname in ("trace.jsonl", "xi_snapshots.csv", "estimate_binder.csv",
                  "estimate_binder.json", "estimate_vi.csv", "estimate_vi.json"):
        assert (outputs[0] / fname).read_bytes() == (outputs[1] / fname).read_bytes()
        identical.append(fname)
    print(f"ACCEPTANCE 9 PASS: byte-identical outputs across two runs: {', '.join(identical)}")
