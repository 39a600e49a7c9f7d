"""Truth-relative error rates and cluster-size profile comparisons.

Pairwise miss/false-discovery rates compare declared co-clustered pairs
against a reference partition.  The size-profile distance treats each
partition as a distribution over the size of a randomly chosen cluster and
takes the square root of the base-2 Jensen-Shannon divergence, which lives
in [0, 1] and is a metric.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .partitions import AllelicPartition, LinkageStructure, fnr_fdr, to_allelic
from .mcmc import PosteriorTrace

_QUANTILES = (5, 25, 50, 75, 95)


def js_distance(a: AllelicPartition, b: AllelicPartition) -> float:
    """Root Jensen-Shannon divergence (base 2) between cluster-size profiles.

    Profiles are counts normalized by the number of clusters; the two are
    padded to a common maximum size first.
    """
    cap = max(a.cap, b.cap)
    p = np.asarray(a.padded(cap).counts, dtype=float) / a.n_clusters
    q = np.asarray(b.padded(cap).counts, dtype=float) / b.n_clusters
    mid = 0.5 * (p + q)

    def half_kl(x: np.ndarray) -> float:
        mask = x > 0
        return float(np.sum(x[mask] * np.log2(x[mask] / mid[mask])))

    jsd = 0.5 * half_kl(p) + 0.5 * half_kl(q)
    return math.sqrt(min(max(jsd, 0.0), 1.0))


@dataclass(frozen=True)
class MetricsReport:
    """Scalar summary of one estimate or posterior against the truth."""

    fnr: float
    fdr: float
    js: float
    n_clusters: int
    source: str

    def to_dict(self) -> dict:
        return {
            "fnr": self.fnr,
            "fdr": self.fdr,
            "js": self.js,
            "K": self.n_clusters,
            "source": self.source,
        }


def point_estimate_report(
    estimate: LinkageStructure, truth: LinkageStructure
) -> MetricsReport:
    fnr, fdr = fnr_fdr(estimate, truth)
    js = js_distance(to_allelic(estimate), to_allelic(truth))
    return MetricsReport(fnr, fdr, js, estimate.n_clusters, "point-estimate")


def posterior_report(trace: PosteriorTrace, truth: LinkageStructure) -> MetricsReport:
    """Posterior averages of per-sample metrics against the truth, never
    metrics of an averaged object.  Error rates are the ones recorded in
    the trace, else recomputed from its linkage snapshots; with neither,
    ValueError."""
    rows = trace.rows
    if not rows:
        raise ValueError("empty trace")
    truth_allelic = to_allelic(truth)
    # rows repeat a few size-count vectors: one distance per distinct vector
    profiles = [tuple(int(v) for v in row["r"]) for row in rows]
    js_of = {r: js_distance(AllelicPartition(r), truth_allelic) for r in dict.fromkeys(profiles)}
    js_vals = [js_of[r] for r in profiles]
    if "fnr" in rows[0]:
        fnr = float(np.mean([row["fnr"] for row in rows]))
        fdr = float(np.mean([row["fdr"] for row in rows]))
    elif len(trace.snapshots):
        rates = [fnr_fdr(labels, truth) for labels in trace.snapshots[:, 2:]]
        fnr = float(np.mean([r[0] for r in rates]))
        fdr = float(np.mean([r[1] for r in rates]))
    else:
        raise ValueError("cannot compute error rates: no rates or snapshots in trace")
    k = int(np.median([row["K"] for row in rows]))
    return MetricsReport(fnr, fdr, float(np.mean(js_vals)), k, "posterior-average")


@dataclass
class TraceSummary:
    """Boxplot table of per-size counts and the cluster-count histogram."""

    sizes: list[int]
    quantiles: np.ndarray  # one row per size, columns _QUANTILES
    truth_counts: list[int] | None
    k_counts: dict[int, int]


def summarize_trace(
    trace: PosteriorTrace, truth: LinkageStructure | None = None
) -> TraceSummary:
    """Posterior quantiles of the size counts and the histogram of K, from
    the trace rows alone; the truth, if given, adds its own size counts."""
    rows = trace.rows
    if not rows:
        raise ValueError("empty trace")
    cap = max(len(row["r"]) for row in rows)
    mat = np.zeros((len(rows), cap))
    for idx, row in enumerate(rows):
        mat[idx, : len(row["r"])] = row["r"]
    truth_counts = None
    if truth is not None:
        truth_allelic = to_allelic(truth)
        truth_counts = [truth_allelic.count_of(s) for s in range(1, cap + 1)]
    return TraceSummary(
        sizes=list(range(1, cap + 1)),
        quantiles=np.percentile(mat, _QUANTILES, axis=0).T,
        truth_counts=truth_counts,
        k_counts=dict(sorted(Counter(row["K"] for row in rows).items())),
    )


def write_summary_tsv(summary: TraceSummary, path) -> None:
    header = ["size"] + [f"q{q:02d}" for q in _QUANTILES] + ["truth"]
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for idx, size in enumerate(summary.sizes):
            row = [str(size)] + [repr(float(v)) for v in summary.quantiles[idx]]
            row.append("" if summary.truth_counts is None else str(summary.truth_counts[idx]))
            fh.write("\t".join(row) + "\n")


def write_k_table_tsv(summary: TraceSummary, path) -> None:
    with open(path, "w") as fh:
        fh.write("K\tcount\n")
        for k, c in summary.k_counts.items():
            fh.write(f"{k}\t{c}\n")
