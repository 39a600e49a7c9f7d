"""Correctness checks on the CLI's output files.

Every reference value here is the benchmark's own: contingency tables built
with numpy from the files the program wrote and from the generator's truth.
No loss or pair-counting code of the package is called. Each check returns
a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RATE_TOL = 1e-12
EPL_TOL = 1e-9
# all-singleton output has FNR 1; prior-only output links random pairs, FDR near 1
MAX_POSTERIOR_FNR = 0.25
MAX_POSTERIOR_FDR = 0.25


# ---------------------------------------------------------------------------
# contingency tables


def contingency(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero joint counts and the two marginal size vectors of two labelings."""
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    joint = np.bincount(ia * (ib.max() + 1) + ib)
    return joint[joint > 0], np.bincount(ia), np.bincount(ib)


def pairs(m: np.ndarray) -> int:
    return int((m * (m - 1) // 2).sum())


def error_rates(estimate: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Pairwise false-negative and false-discovery rates against the truth."""
    joint, sizes, true_sizes = contingency(estimate, truth)
    tp, declared, true_pairs = pairs(joint), pairs(sizes), pairs(true_sizes)
    fnr = (true_pairs - tp) / true_pairs if true_pairs else 0.0
    fdr = (declared - tp) / declared if declared else 0.0
    return fnr, fdr


def _xlogx(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    return m * np.log(np.where(m > 0, m, 1.0))


def expected_losses(estimate: np.ndarray, samples: np.ndarray) -> dict[str, float]:
    """Binder (per record pair), VI (nats) and NID of an estimate, averaged over samples.

    All samples' contingency tables come from one np.unique over
    (sample, estimate label, sample label) keys.
    """
    n_samples, n = samples.shape
    est = np.unique(estimate, return_inverse=True)[1]
    width = int(samples.max()) + 1
    keys = (np.arange(n_samples)[:, None] * (est.max() + 1) + est[None, :]) * width + samples
    uniq, joint = np.unique(keys, return_counts=True)
    owner = uniq // ((est.max() + 1) * width)
    est_sizes = np.bincount(est)
    sample_sizes = np.stack([np.bincount(row, minlength=width) for row in samples])

    tp = np.bincount(owner, weights=joint * (joint - 1) / 2.0, minlength=n_samples)
    own = (sample_sizes * (sample_sizes - 1) / 2.0).sum(axis=1)
    binder = (pairs(est_sizes) + own - 2.0 * tp) / (n * (n - 1) / 2.0)

    joint_phi = np.bincount(owner, weights=_xlogx(joint), minlength=n_samples)
    est_phi = float(_xlogx(est_sizes).sum())
    sample_phi = _xlogx(sample_sizes).sum(axis=1)
    vi = np.maximum((est_phi + sample_phi - 2.0 * joint_phi) / n, 0.0)
    h_est = math.log(n) - est_phi / n
    h_sample = math.log(n) - sample_phi / n
    info = np.maximum(h_est + h_sample - (math.log(n) - joint_phi / n), 0.0)
    top = np.maximum(h_est, h_sample)
    with np.errstate(divide="ignore", invalid="ignore"):
        nid = np.where(top > 0.0, np.clip(1.0 - info / top, 0.0, 1.0), 0.0)
    return {"binder": float(binder.mean()), "vi": float(vi.mean()), "nid": float(nid.mean())}


def threshold_partition(samples: np.ndarray) -> tuple[np.ndarray, bool]:
    """Partition from co-clustering probabilities above one half, and whether
    that relation is transitive (every component a clique)."""
    n_samples, n = samples.shape
    together = np.zeros((n, n))
    for start in range(0, n_samples, 50):
        block = samples[start : start + 50]
        together += (block[:, :, None] == block[:, None, :]).sum(axis=0)
    linked = together / n_samples > 0.5
    labels = np.full(n, -1)
    for i in range(n):
        if labels[i] < 0:
            labels[np.flatnonzero(linked[i])] = i
    transitive = bool(np.array_equal(linked, labels[:, None] == labels[None, :]))
    return labels, transitive


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    joint, sa, sb = contingency(a, b)
    return len(joint) == len(sa) == len(sb)


# ---------------------------------------------------------------------------
# file readers


def read_trace(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def read_rows(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)


# ---------------------------------------------------------------------------
# run outputs


def check_run(out_dir: str, truth: np.ndarray, chains: int, iterations: int,
              burn_in: int, stride: int, cap: int | None) -> list[str]:
    """Check trace.jsonl and xi_snapshots.csv of one `allelink run`.

    stride is the snapshot stride in kept iterations; cap is the bbap size
    cap, or None for an unbounded prior.
    """
    fails: list[str] = []
    n = len(truth)
    rows = read_trace(os.path.join(out_dir, "trace.jsonl"))
    snaps = read_rows(os.path.join(out_dir, "xi_snapshots.csv"))
    kept = iterations - burn_in
    if len(rows) != chains * kept:
        fails.append(f"trace has {len(rows)} rows, expected {chains * kept}")
    for row in rows:
        r = np.asarray(row["r"], dtype=np.int64)
        sizes = np.arange(1, len(r) + 1)
        if int(sizes @ r) != n or int(r.sum()) != row["K"]:
            fails.append(f"chain {row['chain']} iter {row['iter']}: sum s r_s = "
                         f"{int(sizes @ r)} (n = {n}), sum r_s = {int(r.sum())} (K = {row['K']})")
            break
    if cap is not None and any(len(row["r"]) > cap for row in rows):
        fails.append(f"a trace row counts clusters above the cap {cap}")

    by_key = {(row["chain"], row["iter"]): row for row in rows}
    if snaps.shape[1] != n + 2:
        return fails + [f"snapshot rows hold {snaps.shape[1] - 2} labels, expected {n}"]
    expected_snaps = chains * -(-kept // stride)
    if len(snaps) != expected_snaps:
        fails.append(f"{len(snaps)} snapshots, expected {expected_snaps}")
    fnrs, fdrs = [], []
    for chain, it, *labels in snaps.tolist():
        labels = np.asarray(labels)
        row = by_key.get((chain, it))
        if row is None:
            fails.append(f"snapshot chain {chain} iter {it} has no trace row")
            continue
        counts = np.bincount(np.bincount(labels)[1:])[1:]
        if cap is not None and len(counts) > cap:
            fails.append(f"snapshot chain {chain} iter {it} has a cluster of "
                         f"{len(counts)} records, above the cap {cap}")
        r = np.trim_zeros(np.asarray(row["r"]), "b")
        if not np.array_equal(counts, r):
            fails.append(f"snapshot chain {chain} iter {it}: size counts {counts.tolist()} "
                         f"differ from the trace row {r.tolist()}")
        fnr, fdr = error_rates(labels, truth)
        if "fnr" not in row:
            fails.append("trace rows carry no fnr/fdr although the dataset has a truth column")
        elif abs(row["fnr"] - fnr) > RATE_TOL or abs(row["fdr"] - fdr) > RATE_TOL:
            fails.append(f"chain {chain} iter {it}: trace fnr/fdr {row['fnr']:.6g}/"
                         f"{row['fdr']:.6g}, recomputed {fnr:.6g}/{fdr:.6g}")
        fnrs.append(fnr)
        fdrs.append(fdr)
    if fnrs and (np.mean(fnrs) > MAX_POSTERIOR_FNR or np.mean(fdrs) > MAX_POSTERIOR_FDR):
        fails.append(f"posterior-average FNR/FDR {np.mean(fnrs):.3f}/{np.mean(fdrs):.3f} "
                     f"above {MAX_POSTERIOR_FNR}/{MAX_POSTERIOR_FDR}")
    return fails[:20]


# ---------------------------------------------------------------------------
# estimate outputs


class EstimateReference:
    """What the estimate outputs are checked against; built once per input."""

    def __init__(self, samples: np.ndarray):
        self.samples = samples
        self.threshold, self.transitive = threshold_partition(samples)
        self.threshold_loss = expected_losses(self.threshold, samples)


def check_estimate(out_dir: str, ref: EstimateReference, losses) -> tuple[list[str], list[str]]:
    """Failures, and notes that do not fail the run.

    A vi or nid estimate worse under its own loss than the threshold
    partition is a note: the greedy search can stop in a local optimum on
    some inputs and not on others, so it cannot gate every run.
    """
    fails: list[str] = []
    notes: list[str] = []
    if not ref.transitive:
        fails.append("co-clustering above one half is not transitive")
    for loss in losses:
        with open(os.path.join(out_dir, f"estimate_{loss}.csv")) as fh:
            labels = np.array([int(v) for v in fh.readline().strip().split(",")])
        with open(os.path.join(out_dir, f"estimate_{loss}.json")) as fh:
            meta = json.load(fh)
        if len(labels) != ref.samples.shape[1]:
            fails.append(f"{loss}: estimate has {len(labels)} labels")
            continue
        if meta["K"] != len(np.unique(labels)) or meta["kind"] != loss:
            fails.append(f"{loss}: json K/kind {meta['K']}/{meta['kind']} disagree with the estimate")
        own = expected_losses(labels, ref.samples)[loss]
        if abs(meta["epl"] - own) > EPL_TOL:
            fails.append(f"{loss}: epl {meta['epl']!r}, recomputed {own!r}")
        if loss == "binder" and not same_partition(labels, ref.threshold):
            fails.append("binder estimate differs from the co-clustering threshold partition")
        if own > ref.threshold_loss[loss] + 1e-12:
            notes.append(f"{loss}: estimate loss {own!r} above the threshold "
                         f"partition's {ref.threshold_loss[loss]!r}")
    return fails, notes
