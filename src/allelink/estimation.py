"""Point estimation over posterior partition samples.

Three pairwise losses (Binder, variation of information, normalized
information distance) and a greedy minimizer of the expected posterior
loss: starting from one of the samples, records are moved one at a time to
whichever cluster lowers the sample-averaged loss the most, until a full
sweep makes no move.

The posterior samples are one (S, n) int32 matrix of canonical assignment
rows, as `allelink estimate` reads them from its snapshot file; a
sequence of LinkageStructure is stacked into that matrix.  The expected
loss of a candidate takes every sample's contingency table with it from
one sort of keys and gives one loss per sample; pairwise_loss is the
per-pair definition those values match.

The sweep engine evaluates every candidate move against every sample at
once.  All three losses depend on a candidate move only through the
contingency counts between the candidate's clusters and the sample cluster
of the moved record, and those counts feed table lookups of m log m
differences instead of per-sample loss recomputation.  Per-sample member
lists give the moved record's sample-cluster members in every sample, so
the counts cost O(S·c) for S samples and sample clusters of c records and
come out as sparse (sample, cluster, count) entries.  Binder and VI scores
are bincounts over the entries and need nothing else.  NID alone keeps
per-sample joint-entropy tables, updated by delta on every move; it is
evaluated only on a samples-by-distinct-held-size grid, which covers every
cluster without an entry and the new cluster, and at the entries; the
touched clusters' columns are assembled from the two.  The engine holds
about three int32 per sample and record (the sample labels, the member
order and the member offsets), and its scores equal the dense
samples-by-clusters formulas bit for bit.  Moves compare candidate scores
only, so the engine tracks no objective value; the caller evaluates the
estimate's expected loss once with expected_posterior_loss.

The engine builds its tables in blocks of samples, as _sample_losses
takes its contingency tables: per block, one row-wise stable argsort
gives the member lists, one bincount gives their offsets, and for NID one
sort over (sample, cluster, label) keys gives the joint counts.  Each
sample's phi sums are added as the rows of one array per run length,
which keeps the bits of a per-sample sum.

Most records of a posterior with many small clusters are unanimous: every
sample puts them in the same member set.  The same blocks find them, with
one n-long mask.  A unanimous record whose current cluster
is exactly that set is settled: no move of it strictly lowers any of the
three losses (_GreedyEngine._settled has the proof), so the sweep skips
it before counting its matches.  The skip changes no move, and the
engine's generator draws only the initial sample and the sweep orders,
so every estimate is what scoring every record would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partitions import (
    LinkageStructure,
    canonical_rows,
    canonicalize,
    contingency,
    pair_counts,
)

LOSS_KINDS = ("binder", "vi", "nid")


def _check_kind(kind: str) -> None:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind '{kind}'; expected one of {LOSS_KINDS}")


Samples = np.ndarray | Sequence[LinkageStructure]


def _label_matrix(samples: Samples) -> np.ndarray:
    """Posterior samples as one (S, n) int32 matrix of canonical assignment
    rows; a sequence of LinkageStructure is stacked, a matrix is checked."""
    if not isinstance(samples, np.ndarray):
        if not samples:
            raise ValueError("need at least one posterior sample")
        if any(s.n != samples[0].n for s in samples):
            raise ValueError("samples must share a common record count")
        return np.array([s.assignments for s in samples], dtype=np.int32)
    if samples.ndim != 2 or samples.size == 0:
        raise ValueError("need at least one posterior sample")
    if not canonical_rows(samples).all():
        raise ValueError("sample rows must use labels 1..K in first-appearance order")
    return samples.astype(np.int32, copy=False)


def pairwise_loss(a: LinkageStructure, b: LinkageStructure, kind: str) -> float:
    """Distance between two partitions from their contingency table.

    Binder counts pairwise disagreements, normalized by the number of
    record pairs so the three losses live on comparable scales.  VI is in
    nats.  NID is the entropy-normalized information distance with the 0/0
    case (both partitions trivial) defined as 0.
    """
    _check_kind(kind)
    if a.n != b.n:
        raise ValueError("partitions must have the same length")
    n = a.n
    if n < 2:
        return 0.0
    if kind == "binder":
        ta, tb, tab = pair_counts(a, b)
        return (ta + tb - 2 * tab) / (n * (n - 1) // 2)
    joint, sizes_a, sizes_b = contingency(a, b)
    ha = -sum(s / n * math.log(s / n) for s in sizes_a.values())
    hb = -sum(s / n * math.log(s / n) for s in sizes_b.values())
    info = sum(
        m / n * math.log(m * n / (sizes_a[ka] * sizes_b[kb]))
        for (ka, kb), m in joint.items()
    )
    info = max(info, 0.0)
    if kind == "vi":
        return max(ha + hb - 2.0 * info, 0.0)
    top = max(ha, hb)
    if top <= 0.0:
        return 0.0
    return min(max(1.0 - info / top, 0.0), 1.0)


def expected_posterior_loss(candidate: LinkageStructure, samples: Samples, kind: str) -> float:
    """Mean pairwise loss between a candidate and the posterior samples.

    The per-sample losses are summed in sample order and divided by the
    sample count, as a loop over pairwise_loss would do.
    """
    _check_kind(kind)
    labels = _label_matrix(samples)
    if candidate.n != labels.shape[1]:
        raise ValueError("candidate length does not match the samples")
    return sum(_sample_losses(candidate, labels, kind).tolist()) / len(labels)


# label entries per block of samples in _sample_losses and in the greedy
# engine's construction, which hold about ten 8-byte arrays of this length
# at a time
_BLOCK_ENTRIES = 1 << 16


def _unique_counts(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(key, return_counts=True) for a non-empty 1-D array, with
    less per-call overhead and memory: key is sorted in place."""
    key.sort()
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return key[first], np.bincount(first.cumsum() - 1)


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sum of each run of consecutive values, of the given lengths, with
    the bits of that run's own 1-D .sum(): the runs of one length are
    summed as the rows of one C-contiguous array, and numpy adds each row
    along the contiguous axis as it adds a 1-D array."""
    first = np.cumsum(lengths) - lengths
    sums = np.empty(len(lengths))
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        runs = np.flatnonzero(lengths == length)
        sums[runs] = values[first[runs, None] + np.arange(length)].sum(axis=1)
    return sums


def _sample_losses(candidate: LinkageStructure, labels: np.ndarray, kind: str) -> np.ndarray:
    """pairwise_loss(candidate, row, kind) for every row of a label matrix.

    Each block of samples gets its contingency tables against the
    candidate from one _unique_counts over (sample cluster, candidate
    cluster) keys, with the sample clusters numbered across the block's
    samples.  Each cell and marginal term is pairwise_loss's own; Binder's
    integer pair counts are exact, so its values keep their bits, while VI
    and NID add a sample's terms in cell order instead of first-appearance
    order and can differ in the last digits.  No value depends on the
    blocking.
    """
    n_samples, n = labels.shape
    if n < 2:
        return np.zeros(n_samples)
    cand = np.asarray(candidate.assignments, dtype=np.int64) - 1
    size_a = np.bincount(cand)
    step = max(1, _BLOCK_ENTRIES // n)
    return np.concatenate([
        _block_losses(cand, size_a, labels[s : s + step], kind)
        for s in range(0, n_samples, step)
    ])


def _block_losses(cand, size_a, labels, kind) -> np.ndarray:
    n_samples, n = labels.shape
    k = len(size_a)
    # a canonical row uses every label 1..K_s, so the numbering has no gaps
    k_s = labels.max(axis=1).astype(np.int64)
    first = np.cumsum(k_s) - k_s
    owner = np.repeat(np.arange(n_samples), k_s)  # sample of each sample cluster
    cluster = (labels - 1 + first[:, None]).ravel()
    size_b = np.bincount(cluster, minlength=int(k_s.sum()))
    cells, joint = _unique_counts(cluster * k + np.tile(cand, n_samples))
    b, a = np.divmod(cells, k)
    cell_owner = owner[b]
    if kind == "binder":
        pairs_a = int((size_a * (size_a - 1) // 2).sum())
        pairs_b = np.bincount(owner, weights=size_b * (size_b - 1) // 2, minlength=n_samples)
        pairs_ab = np.bincount(cell_owner, weights=joint * (joint - 1) // 2, minlength=n_samples)
        return (pairs_a + pairs_b - 2 * pairs_ab) / (n * (n - 1) // 2)
    p_a = size_a / n
    h_a = -float((p_a * np.log(p_a)).sum())
    p_b = size_b / n
    h_b = -np.bincount(owner, weights=p_b * np.log(p_b), minlength=n_samples)
    info = np.bincount(
        cell_owner,
        weights=joint / n * np.log(joint * n / (size_a[a] * size_b[b])),
        minlength=n_samples,
    )
    np.maximum(info, 0.0, out=info)
    if kind == "vi":
        return np.maximum(h_a + h_b - 2.0 * info, 0.0)
    top = np.maximum(h_a, h_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        nid = np.clip(1.0 - info / top, 0.0, 1.0)
    nid[top <= 0.0] = 0.0
    return nid


@dataclass(frozen=True)
class GreedyConfig:
    """Sweep budget, optional cap on cluster creation, and the seed that
    picks the initial sample and the sweep orders.  max_clusters only
    blocks new clusters during the search; an initialization already above
    it is permitted and can only shrink."""

    sweeps: int = 100
    max_clusters: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError("sweeps must be at least 1")
        if self.max_clusters is not None and self.max_clusters < 1:
            raise ValueError("max_clusters must be at least 1")


def greedy_epl(
    samples: Samples, kind: str, config: GreedyConfig | None = None
) -> LinkageStructure:
    """Greedy expected-posterior-loss minimizer over single-record moves.

    Initializes at a random sample, applies the best strictly improving
    move per record in random order, keeps the current assignment on ties,
    and stops after a moveless sweep or the sweep budget.
    """
    _check_kind(kind)
    return _GreedyEngine(samples, kind, config or GreedyConfig()).run()


class _GreedyEngine:
    def __init__(self, samples, kind, config):
        self.kind = kind
        self.config = config
        self.smat = _label_matrix(samples)
        self.n_samples, self.n = self.smat.shape
        self.rng = np.random.default_rng(config.seed)
        self.max_clusters = config.max_clusters or self.n

        init = self.smat[int(self.rng.integers(self.n_samples))]
        self.assign = init.astype(np.int64) - 1
        self.n_clusters = int(init.max())
        # a search never holds more than n clusters
        self.sizes = np.bincount(self.assign, minlength=self.n + 1)

        # phi(m) = m log m lookup and its forward difference, m = 0..n
        m = np.arange(self.n + 2, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = m * np.log(m)
        phi[0] = 0.0
        self.dphi = phi[1:] - phi[:-1]

        # member lists: the records labelled l in sample s are
        # order[starts[j]:starts[j + 1]] with j = row_starts[s] + l
        n, n_samples = self.n, self.n_samples
        n_labels = int(self.smat.max()) + 1
        self.order = np.empty(n_samples * n, dtype=np.int32)
        starts = np.empty((n_samples, n_labels + 1), dtype=np.int32)
        # a record whose sample cluster is the same set in every sample: it
        # shares a label with the first member of its sample-0 cluster in a
        # cluster of that cluster's size, and so does every other member
        label0 = self.smat[0]
        agrees = np.ones(n, dtype=bool)
        if kind == "nid":
            self.sum_phi_sizes = float(phi[self.sizes[: self.n_clusters]].sum())
            self.joint_phi = np.empty(n_samples)
            self.sample_phi = np.empty(n_samples)
            cells = self.n_clusters * n_labels  # joint cells per sample
        step = max(1, _BLOCK_ENTRIES // n)
        for s in range(0, n_samples, step):
            block = self.smat[s : s + step]
            nrows = len(block)
            rows = np.arange(nrows)[:, None]
            self.order[s * n : (s + nrows) * n] = np.argsort(block, axis=1, kind="stable").ravel()
            counts = np.bincount((rows * n_labels + block).ravel(), minlength=nrows * n_labels)
            counts = counts.reshape(nrows, n_labels)
            starts[s : s + nrows, :1] = (s + rows) * n
            starts[s : s + nrows, 1:] = (s + rows) * n + counts.cumsum(axis=1)
            if s == 0:
                first, size0 = self.order[starts[0, label0]], counts[0, label0]
            agrees &= (
                (block == block[:, first]) & (np.take_along_axis(counts, block, axis=1) == size0)
            ).all(axis=0)
            if kind == "nid":
                # each sample's counts in ascending cell order, as its own
                # np.unique over assign * n_labels + label gives them
                key, joint = _unique_counts((rows * cells + self.assign * n_labels + block).ravel())
                per_sample = np.bincount(key // cells, minlength=nrows)
                self.joint_phi[s : s + nrows] = _segment_sums(phi[joint], per_sample)
                held = counts > 0  # labels 1..K_s in label order
                self.sample_phi[s : s + nrows] = _segment_sums(phi[counts[held]], held.sum(axis=1))
        self.starts = starts.ravel()
        self.sample_ids = np.arange(n_samples)
        self.row_starts = self.sample_ids * (n_labels + 1)
        split = np.zeros(n_labels, dtype=bool)
        split[label0[~agrees]] = True
        self.unanimous = ~split[label0]
        if kind == "nid":
            self.sample_entropy = math.log(n) - self.sample_phi / n

    def run(self) -> LinkageStructure:
        for _ in range(self.config.sweeps):
            moved = False
            for i in self.rng.permutation(self.n):
                moved = self._try_move(int(i)) or moved
            if not moved:
                break
        return canonicalize(self.assign + 1)

    def _match_entries(self, i: int):
        """Sparse per-sample counts, excluding record i, of the records that
        share i's sample cluster, by current cluster.

        Returns (sample, cluster, count) sorted by sample, then cluster;
        every sample has an entry for i's own cluster, possibly of count 0.
        """
        k = self.n_clusters
        cell = self.row_starts + self.smat[:, i]
        lo = self.starts[cell]
        size = self.starts[cell + 1] - lo
        end = size.cumsum()
        total = int(end[-1])
        pos = np.arange(total) + (lo - end + size).repeat(size)
        key = (self.sample_ids * k).repeat(size) + self.assign[self.order[pos]]
        key, count = _unique_counts(key)
        sample, cluster = np.divmod(key, k)
        count[cluster == self.assign[i]] -= 1
        return sample, cluster, count

    def _column(self, entries, c: int) -> np.ndarray:
        """One cluster's per-sample counts from the sparse entries."""
        sample, cluster, count = entries
        col = np.zeros(self.n_samples, dtype=np.int64)
        hit = cluster == c
        col[sample[hit]] = count[hit]
        return col

    def _scores(self, i: int, entries) -> tuple[np.ndarray, float]:
        """Score per existing target plus one fresh-singleton score; for
        binder/vi these are relative objectives (stay = score[a]), for nid
        they are absolute expected losses.

        The scores keep the bits of sample means over dense samples-by-k
        count arrays: numpy sums a column of a wider array in sample order,
        which a bincount over entries sorted by sample repeats, and sums a
        single column pairwise, which only its own mean repeats.
        """
        a = int(self.assign[i])
        k = self.n_clusters
        _, cluster, count = entries
        held_sizes = self.sizes[:k].copy()
        held_sizes[a] -= 1
        if self.kind == "binder":
            # one record has no pairs: every score is then 0 and nothing moves
            pairs = max(self.n * (self.n - 1) / 2.0, 1.0)
            mean = np.bincount(cluster, weights=count, minlength=k) / self.n_samples
            return (held_sizes - 2.0 * mean) / pairs, 0.0
        if self.kind == "vi":
            gain = self.dphi[count]
            if k == 1:
                mean = gain.mean()
            else:
                mean = np.bincount(cluster, weights=gain, minlength=k) / self.n_samples
            return (self.dphi[held_sizes] - 2.0 * mean) / self.n, 0.0
        return self._nid_scores(a, entries, held_sizes)

    def _nid_values(self, rows, d_joint, d_size) -> np.ndarray:
        """NID between candidate states and samples given tracker deltas.

        One entry per (sample row, joint-table delta, size-table delta),
        broadcast together; each takes the operations of the dense
        samples-by-k formula in the same order, so it keeps that formula's
        bits.
        """
        n = self.n
        size_term = (self.sum_phi_sizes + d_size) / n
        cand_entropy = math.log(n) - size_term
        info = (self.joint_phi[rows] + d_joint) / n - size_term
        info -= self.sample_phi[rows] / n
        info += math.log(n)
        np.maximum(info, 0.0, out=info)
        denom = np.maximum(cand_entropy, self.sample_entropy[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            nid = np.divide(info, denom, out=info)
        np.subtract(1.0, nid, out=nid)
        nid[denom <= 1e-12] = 0.0
        return np.clip(nid, 0.0, 1.0, out=nid)

    def _nid_scores(self, a, entries, held_sizes):
        """Where a cluster has no entry its count is 0, so its NID against
        the sample depends only on its held size, as a new cluster's does
        (held size 0).  The NID is evaluated on a samples-by-distinct-sizes
        grid and at the entries only; a touched cluster's column is its
        size's grid column with its entries written in."""
        sample, cluster, count = entries
        k = len(held_sizes)
        mark = np.zeros(k, dtype=bool)
        mark[cluster] = True
        touched = mark.nonzero()[0]
        width = len(touched)
        present = np.bincount(held_sizes) > 0
        present[0] = True
        sizes = present.nonzero()[0]
        rank = np.cumsum(present) - 1  # grid column of each held size
        d = len(sizes)
        own = self.dphi[count[cluster == a]]
        held_a = self.dphi[held_sizes[a]]
        # samples down, sizes across: a grid cell's count is 0
        grid_rows = self.sample_ids[:, None]
        grid = self._nid_values(
            grid_rows, self.dphi[0] - own[grid_rows], (self.dphi[sizes] - held_a)[None, :]
        )
        at_entries = self._nid_values(
            sample, self.dphi[count] - own[sample], self.dphi[held_sizes[cluster]] - held_a
        )
        # touched clusters first, then the grid; take keeps C order, in
        # which numpy sums each column in sample order
        nid = np.take(grid, np.concatenate([rank[held_sizes[touched]], np.arange(d)]), axis=1)
        nid[sample, np.searchsorted(touched, cluster)] = at_entries
        mean = nid.mean(axis=0)
        if k == 1:
            mean[0] = nid[:, 0].mean()
        score = mean[width + rank[held_sizes]]
        score[touched] = mean[:width]
        return score, float(nid[:, width].mean())

    def _settled(self, i: int, a: int) -> bool:
        """Whether record i is unanimous and its cluster a is exactly its
        sample cluster, so that no move of i strictly lowers any loss.

        In every sample i's cluster is then a's member set M.  Binder and
        VI: the stay score is -held_a (or -dphi[held_a]) ≤ 0, while every
        other target scores its held size (or dphi of it) ≥ 0 and the new
        cluster 0.  NID, per sample, with phi(m) = m log m: a move to a new
        cluster lowers the joint and the cluster-size phi sums alike, so
        the mutual information I is unchanged while H_C rises; a move to a
        cluster D of held size d lowers I by dphi[d]/n, and if H_C falls
        with it, I'/H_C' ≤ I/H_C because I ≤ H_C.  Either way
        I/max(H_C, H_B) cannot rise, and the clip at 0 and 1 keeps that
        order, so no sample's NID falls.  O(|M|)."""
        if not self.unanimous[i]:
            return False
        label = self.smat[0, i]
        mates = self.order[self.starts[label] : self.starts[label + 1]]
        return self.sizes[a] == len(mates) and bool((self.assign[mates] == a).all())

    def _try_move(self, i: int) -> bool:
        a = int(self.assign[i])
        if self._settled(i, a):
            return False
        allow_new = self.n_clusters < self.max_clusters
        entries = self._match_entries(i)
        score, new_score = self._scores(i, entries)

        base = float(score[a])
        target = int(np.argmin(score))
        best_score = float(score[target])
        if allow_new and new_score < best_score:
            best_score = new_score
            target = _NEW_TARGET
        if best_score >= base - 1e-12:
            return False
        self._apply(i, a, target, entries)
        return True

    def _apply(self, i: int, a: int, target: int, entries) -> None:
        held_a = int(self.sizes[a]) - 1
        new = target == _NEW_TARGET
        if new:
            target = self.n_clusters
            self.n_clusters += 1
        held_t = int(self.sizes[target])
        if self.kind == "nid":
            joint_delta = -self.dphi[self._column(entries, a)]
            if not new:
                joint_delta += self.dphi[self._column(entries, target)]
            self.sum_phi_sizes += float(self.dphi[held_t] - self.dphi[held_a])
            self.joint_phi += joint_delta
        self.sizes[a] -= 1
        self.sizes[target] += 1
        self.assign[i] = target
        if self.sizes[a] == 0:
            last = self.n_clusters - 1
            if a != last:
                self.assign[self.assign == last] = a
                self.sizes[a] = self.sizes[last]
            self.sizes[last] = 0
            self.n_clusters = last


_NEW_TARGET = -1
