import math

import numpy as np
import pytest

from allelink.evaluation import (
    MetricsReport,
    fnr_fdr,
    js_distance,
    point_estimate_report,
    posterior_report,
    summarize_trace,
    write_k_table_tsv,
    write_summary_tsv,
)
from allelink.mcmc import PosteriorTrace
from allelink.partitions import AllelicPartition, LinkageStructure, canonicalize, to_allelic


class TestFnrFdr:
    def test_perfect_estimate(self):
        truth = LinkageStructure((1, 1, 2, 3))
        assert fnr_fdr(truth, truth) == (0.0, 0.0)

    def test_all_singletons_misses_everything(self):
        truth = LinkageStructure((1, 1, 2))
        estimate = LinkageStructure((1, 2, 3))
        assert fnr_fdr(estimate, truth) == (1.0, 0.0)

    def test_hand_counts(self):
        truth = LinkageStructure((1, 1, 2, 3))
        estimate = LinkageStructure((1, 1, 1, 2))
        fnr, fdr = fnr_fdr(estimate, truth)
        assert fnr == 0.0
        assert math.isclose(fdr, 2.0 / 3.0)

    def test_label_permutation_invariance(self, rng):
        for _ in range(20):
            truth = canonicalize(rng.integers(0, 4, size=9))
            estimate = canonicalize(rng.integers(0, 4, size=9))
            perm = rng.permutation(9)
            t2 = canonicalize([truth.assignments[p] for p in perm])
            e2 = canonicalize([estimate.assignments[p] for p in perm])
            assert fnr_fdr(estimate, truth) == pytest.approx(fnr_fdr(e2, t2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fnr_fdr(LinkageStructure((1,)), LinkageStructure((1, 2)))


class TestJsDistance:
    def test_identical_profiles(self):
        r = AllelicPartition((2, 1, 0))
        assert js_distance(r, r) == 0.0

    def test_disjoint_supports_are_maximal(self):
        assert math.isclose(
            js_distance(AllelicPartition((1, 0)), AllelicPartition((0, 1))), 1.0
        )

    def test_half_overlap_value(self):
        # direct evaluation of the divergence for (1/2, 1/2) vs (1, 0)
        a = AllelicPartition((1, 1))
        b = AllelicPartition((2, 0))
        expected = math.sqrt(
            0.5 * (0.5 * math.log2(0.5 / 0.75) + 0.5 * math.log2(0.5 / 0.25))
            + 0.5 * (1.0 * math.log2(1.0 / 0.75))
        )
        assert math.isclose(js_distance(a, b), expected, rel_tol=1e-12)
        assert math.isclose(js_distance(a, b), 0.5579, abs_tol=1e-4)

    def test_symmetry_and_range(self, rng):
        for _ in range(50):
            a = AllelicPartition(tuple(rng.integers(0, 4, size=5) + np.eye(5, dtype=int)[0]))
            b = AllelicPartition(tuple(rng.integers(0, 4, size=3) + 1))
            d1, d2 = js_distance(a, b), js_distance(b, a)
            assert math.isclose(d1, d2, abs_tol=1e-12)
            assert 0.0 <= d1 <= 1.0

    def test_triangle_inequality_spot_check(self, rng):
        for _ in range(300):
            parts = []
            for _ in range(3):
                counts = rng.integers(0, 4, size=4)
                if counts.sum() == 0:
                    counts[0] = 1
                parts.append(AllelicPartition(tuple(int(c) for c in counts)))
            a, b, c = parts
            assert js_distance(a, c) <= js_distance(a, b) + js_distance(b, c) + 1e-12


def toy_trace(size_counts_rows, truth=None, with_rates=False):
    trace = PosteriorTrace()
    for idx, counts in enumerate(size_counts_rows):
        row = {"iter": idx, "chain": 0, "K": sum(counts), "r": list(counts),
               "psi": [0.01], "logJoint": -1.0}
        if with_rates:
            row["fnr"], row["fdr"] = 0.1, 0.2
        trace.rows.append(row)
    return trace


class TestSummarizeTrace:
    def test_constant_trace_degenerate_quantiles(self):
        trace = toy_trace([(2, 1)] * 10)
        summary = summarize_trace(trace)
        assert summary.sizes == [1, 2]
        np.testing.assert_allclose(summary.quantiles[0], [2] * 5)
        np.testing.assert_allclose(summary.quantiles[1], [1] * 5)
        assert summary.k_counts == {3: 10}

    def test_two_row_medians_are_midpoints(self):
        trace = toy_trace([(4, 0), (0, 2)])
        summary = summarize_trace(trace)
        assert summary.quantiles[0][2] == 2.0
        assert summary.quantiles[1][2] == 1.0

    def test_posterior_average_is_mean_of_per_sample_metrics(self):
        truth = LinkageStructure((1, 1, 2, 3))
        rows = [(2, 1), (4, 0), (2, 1)]
        trace = toy_trace(rows, with_rates=True)
        report = posterior_report(trace, truth)
        truth_r = to_allelic(truth)
        expected_js = np.mean(
            [js_distance(AllelicPartition(r), truth_r) for r in rows]
        )
        assert math.isclose(report.js, expected_js)
        assert report.fnr == pytest.approx(0.1)
        assert report.fdr == pytest.approx(0.2)
        assert report.source == "posterior-average"
        assert summarize_trace(trace, truth).truth_counts == [2, 1]

    def test_js_distance_once_per_distinct_size_counts(self, monkeypatch):
        from allelink import evaluation

        truth = LinkageStructure((1, 1, 2, 3))
        rows = [(2, 1), (4, 0), (2, 1), (2, 1), (0, 2), (4, 0)]
        calls = []

        def counting(a, b):
            calls.append(a.counts)
            return js_distance(a, b)

        monkeypatch.setattr(evaluation, "js_distance", counting)
        report = posterior_report(toy_trace(rows, with_rates=True), truth)
        assert sorted(calls) == sorted(set(rows))
        truth_r = to_allelic(truth)
        per_row = [js_distance(AllelicPartition(r), truth_r) for r in rows]
        assert report.js == float(np.mean(per_row))

    def test_rates_from_snapshots_when_not_recorded(self):
        truth = LinkageStructure((1, 1, 2, 3))
        trace = toy_trace([(2, 1)] * 4)
        trace.snapshots = np.array([[0, 0, 1, 1, 2, 3], [0, 2, 1, 2, 3, 4]], dtype=np.int32)
        assert posterior_report(trace, truth).fnr == pytest.approx(0.5)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            summarize_trace(PosteriorTrace())

    def test_truth_without_rates_or_snapshots_rejected(self):
        with pytest.raises(ValueError):
            posterior_report(toy_trace([(2, 1)]), LinkageStructure((1, 1, 2, 3)))


class TestReports:
    def test_point_estimate_report_fields(self):
        truth = LinkageStructure((1, 1, 2))
        report = point_estimate_report(truth, truth)
        assert report.to_dict() == {
            "fnr": 0.0, "fdr": 0.0, "js": 0.0, "K": 2, "source": "point-estimate"
        }

    def test_tsv_writers(self, tmp_path):
        trace = toy_trace([(2, 1)] * 3, with_rates=True)
        summary = summarize_trace(trace, LinkageStructure((1, 1, 2, 3)))
        spath = tmp_path / "summary.tsv"
        kpath = tmp_path / "k.tsv"
        write_summary_tsv(summary, spath)
        write_k_table_tsv(summary, kpath)
        lines = spath.read_text().strip().split("\n")
        assert lines[0] == "size\tq05\tq25\tq50\tq75\tq95\ttruth"
        assert len(lines) == 3
        assert kpath.read_text().startswith("K\tcount\n3\t3")
