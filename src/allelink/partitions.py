"""Linkage structures, allelic partitions, and exact enumeration for small n.

A linkage structure assigns every record to a latent entity and induces a
set partition of the record indices.  The allelic partition summarizes a
set partition by counting the clusters of each size; it is the coordinate
system the priors work in.  pair_counts is the one place co-clustered
pairs are counted: pairwise error rates and the Binder loss are functions
of it, and the information losses of the contingency table between two
labelings.  The brute-force enumerator and pair lister here back the
correctness tests of every downstream module.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

ENUMERATION_LIMIT = 12


class CapViolationError(ValueError):
    """Raised when a cluster exceeds the permitted maximum size."""


@dataclass(frozen=True)
class LinkageStructure:
    """Cluster assignments with labels 1..K in first-appearance order.

    Canonical labeling makes partition equality plain tuple equality: two
    structures induce the same set partition iff their assignment tuples
    are equal.
    """

    assignments: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(int(a) for a in self.assignments))
        if not self.assignments:
            raise ValueError("linkage structure must contain at least one record")
        seen = 0
        for a in self.assignments:
            if a == seen + 1:
                seen += 1
            elif not 1 <= a <= seen:
                raise ValueError(
                    "assignments must use labels 1..K in first-appearance order; "
                    f"got label {a} after {seen} clusters"
                )

    @property
    def n(self) -> int:
        return len(self.assignments)

    @property
    def n_clusters(self) -> int:
        return max(self.assignments)

    def cluster_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.n_clusters
        for a in self.assignments:
            sizes[a - 1] += 1
        return tuple(sizes)

    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Member record indices of each cluster, in label order."""
        members: list[list[int]] = [[] for _ in range(self.n_clusters)]
        for i, a in enumerate(self.assignments):
            members[a - 1].append(i)
        return tuple(tuple(m) for m in members)

    def max_cluster_size(self) -> int:
        return max(self.cluster_sizes())


def canonical_rows(labels: np.ndarray) -> np.ndarray:
    """Per row of an integer matrix, whether it is a canonical assignment
    vector (labels 1..K in first-appearance order), as LinkageStructure
    requires: the first label is 1 and every label is at least 1 and at
    most one more than the largest label before it."""
    if labels.shape[1] == 0:
        return np.zeros(len(labels), dtype=bool)
    running_max = np.maximum.accumulate(labels, axis=1)
    return (
        (labels[:, 0] == 1)
        & (labels >= 1).all(axis=1)
        & (labels[:, 1:] <= running_max[:, :-1] + 1).all(axis=1)
    )


@dataclass(frozen=True)
class AllelicPartition:
    """Cluster-size counts: counts[i] clusters of size i + 1, up to a size cap.

    The cap is the length of the counts vector; sizes above it are
    implicitly zero.  Total record count and cluster count are derived.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if not self.counts:
            raise ValueError("counts must cover at least size 1")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        if sum(self.counts) < 1:
            raise ValueError("allelic partition must contain at least one cluster")

    @property
    def cap(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return sum((i + 1) * c for i, c in enumerate(self.counts))

    @property
    def n_clusters(self) -> int:
        return sum(self.counts)

    def count_of(self, size: int) -> int:
        if size < 1:
            raise ValueError("cluster sizes start at 1")
        return self.counts[size - 1] if size <= self.cap else 0

    def padded(self, cap: int) -> "AllelicPartition":
        if cap < self.cap:
            if any(self.counts[cap:]):
                raise CapViolationError(f"cannot shrink cap below occupied size {self.cap}")
            return AllelicPartition(self.counts[:cap])
        return AllelicPartition(self.counts + (0,) * (cap - self.cap))


def canonical_labels(assignments: Sequence) -> np.ndarray:
    """Raw cluster ids (any sortable values) relabelled 1..K in
    first-appearance order, as an int32 array."""
    ids = np.asarray(assignments)
    if ids.size == 0:
        raise ValueError("cannot canonicalize an empty assignment sequence")
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(1, len(first) + 1)
    return rank[inverse]


def canonicalize(assignments: Sequence) -> LinkageStructure:
    """Relabel raw cluster ids to 1..K in first-appearance order."""
    return LinkageStructure(tuple(canonical_labels(assignments).tolist()))


def to_allelic(xi: LinkageStructure, cap: int | None = None) -> AllelicPartition:
    """Count clusters of each size; cap defaults to n."""
    cap = xi.n if cap is None else int(cap)
    sizes = xi.cluster_sizes()
    largest = max(sizes)
    if largest > cap:
        raise CapViolationError(f"cluster of size {largest} exceeds cap {cap}")
    counts = [0] * cap
    for s in sizes:
        counts[s - 1] += 1
    return AllelicPartition(tuple(counts))


def allelic_class_size(r: AllelicPartition) -> int:
    """Number of set partitions sharing the size counts: n! / prod_i (i!)^r_i r_i!.

    Exact integer arithmetic; intended for n up to a few dozen.  Use
    log_allelic_class_size for larger n.
    """
    out = math.factorial(r.n)
    for i, c in enumerate(r.counts):
        if c:
            out //= math.factorial(i + 1) ** c * math.factorial(c)
    return out


def log_allelic_class_size(r: AllelicPartition) -> float:
    """log of allelic_class_size via log-gamma; scales to any n."""
    out = math.lgamma(r.n + 1)
    for i, c in enumerate(r.counts):
        if c:
            out -= c * math.lgamma(i + 2) + math.lgamma(c + 1)
    return out


def enumerate_partitions(n: int, cap: int | None = None) -> Iterator[LinkageStructure]:
    """Yield every set partition of {1..n} with cluster sizes <= cap, once, canonical.

    Depth-first over restricted-growth strings with size-cap pruning.  The
    stream is single-consumer.  Guarded at n <= 12 to avoid combinatorial
    blowup (Bell(12) is ~4.2M).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to n <= {ENUMERATION_LIMIT}, got {n}")
    cap = n if cap is None else int(cap)
    if cap < 1:
        raise ValueError("cap must be at least 1")

    labels = [0] * n
    sizes = [0] * (n + 2)

    def grow(i: int, used: int) -> Iterator[LinkageStructure]:
        if i == n:
            yield LinkageStructure(tuple(labels))
            return
        for k in range(1, used + 2):
            if sizes[k] >= cap:
                continue
            labels[i] = k
            sizes[k] += 1
            yield from grow(i + 1, max(used, k))
            sizes[k] -= 1

    yield from grow(0, 0)


def matched_pairs(xi: LinkageStructure) -> frozenset[tuple[int, int]]:
    """All co-clustered record-index pairs (i, j) with i < j, zero-based."""
    pairs = []
    for members in xi.clusters():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pairs.append((members[a], members[b]))
    return frozenset(pairs)


Labels = Union[LinkageStructure, Sequence[int]]


def contingency(a: Labels, b: Labels) -> tuple[Counter, Counter, Counter]:
    """Joint cell counts of two labelings of the same records, and both marginals.

    Cells are keyed (label in a, label in b); every counter lists its keys
    in first-appearance order, so float sums over them are reproducible.
    """
    a = a.assignments if isinstance(a, LinkageStructure) else a
    b = b.assignments if isinstance(b, LinkageStructure) else b
    if len(a) != len(b):
        raise ValueError("labelings must have the same length")
    return Counter(zip(a, b)), Counter(a), Counter(b)


def _codes(labels: Labels) -> np.ndarray:
    """A labeling as int64 codes in [0, n], the same partition."""
    labels = np.asarray(
        labels.assignments if isinstance(labels, LinkageStructure) else labels, dtype=np.int64
    )
    if len(labels) and (labels.min() < 0 or labels.max() > len(labels)):
        return np.unique(labels, return_inverse=True)[1].reshape(-1)
    return labels


def _pairs(sizes: np.ndarray) -> int:
    return int((sizes * (sizes - 1)).sum()) // 2


def pair_counts(a: Labels, b: Labels) -> tuple[int, int, int]:
    """Co-clustered record pairs in a, in b, and in both.

    Counted over integer (a, b) keys rather than through contingency: the
    counts are the same integers, without its first-appearance order.
    """
    a, b = _codes(a), _codes(b)
    if len(a) != len(b):
        raise ValueError("labelings must have the same length")
    joint = np.unique(a * (len(b) + 1) + b, return_counts=True)[1]
    return _pairs(np.bincount(a)), _pairs(np.bincount(b)), _pairs(joint)


def fnr_fdr(estimate: Labels, truth: Labels) -> tuple[float, float]:
    """Pairwise false-negative and false-discovery rates, 0/0 defined as 0."""
    declared, actual, both = pair_counts(estimate, truth)
    fnr = (actual - both) / actual if actual else 0.0
    fdr = (declared - both) / declared if declared else 0.0
    return fnr, fdr
