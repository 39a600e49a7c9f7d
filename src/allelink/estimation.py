"""Point estimation over posterior partition samples.

Three pairwise losses (Binder, variation of information, normalized
information distance) and a greedy minimizer of the expected posterior
loss: starting from one of the samples, records are moved one at a time to
whichever cluster lowers the sample-averaged loss the most, until a full
sweep makes no move.

The sweep engine evaluates every candidate move against every sample at
once.  All three losses depend on a candidate move only through the
contingency counts between the candidate's clusters and the sample cluster
of the moved record, so one bincount of the record's sample-cluster matches
feeds table lookups of m log m differences instead of per-sample loss
recomputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partitions import LinkageStructure, canonicalize, contingency, pair_counts

LOSS_KINDS = ("binder", "vi", "nid")


def _check_kind(kind: str) -> None:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind '{kind}'; expected one of {LOSS_KINDS}")


def _check_samples(samples: Sequence[LinkageStructure]) -> int:
    if not samples:
        raise ValueError("need at least one posterior sample")
    n = samples[0].n
    if any(s.n != n for s in samples):
        raise ValueError("samples must share a common record count")
    return n


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


def expected_posterior_loss(
    candidate: LinkageStructure, samples: Sequence[LinkageStructure], kind: str
) -> float:
    """Mean pairwise loss between a candidate and the posterior samples."""
    n = _check_samples(samples)
    if candidate.n != n:
        raise ValueError("candidate length does not match the samples")
    return sum(pairwise_loss(candidate, s, kind) for s in samples) / len(samples)


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
    samples: Sequence[LinkageStructure], kind: str, config: GreedyConfig | None = None
) -> LinkageStructure:
    """Greedy expected-posterior-loss minimizer over single-record moves.

    Initializes at a random sample, applies the best strictly improving
    move per record in random order, keeps the current assignment on ties,
    and stops after a moveless sweep or the sweep budget.
    """
    estimate, _ = _greedy_epl_with_info(samples, kind, config)
    return estimate


def _greedy_epl_with_info(
    samples: Sequence[LinkageStructure], kind: str, config: GreedyConfig | None = None
) -> tuple[LinkageStructure, dict]:
    _check_kind(kind)
    _check_samples(samples)
    engine = _GreedyEngine(samples, kind, config or GreedyConfig())
    return engine.run()


class _GreedyEngine:
    def __init__(self, samples, kind, config):
        self.kind = kind
        self.config = config
        self.n = samples[0].n
        self.n_samples = len(samples)
        self.smat = np.array([s.assignments for s in samples], dtype=np.int32)
        self.rng = np.random.default_rng(config.seed)
        self.max_clusters = config.max_clusters or self.n

        init = samples[int(self.rng.integers(self.n_samples))]
        self.init = init
        self.assign = np.array(init.assignments, dtype=np.int64) - 1
        self.n_clusters = init.n_clusters
        # a search never holds more than n clusters
        self.sizes = np.bincount(self.assign, minlength=self.n + 1)

        # phi(m) = m log m lookup and its forward difference, m = 0..n
        m = np.arange(self.n + 2, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = m * np.log(m)
        phi[0] = 0.0
        self.dphi = phi[1:] - phi[:-1]

        if kind != "binder":
            self.sum_phi_sizes = float(phi[self.sizes[: self.n_clusters]].sum())
            self.joint_phi = np.empty(self.n_samples)
            self.sample_entropy = np.empty(self.n_samples)
            self.sample_phi = np.empty(self.n_samples)
            span = int(self.smat.max()) + 1
            for s in range(self.n_samples):
                # counts in ascending cell order, as bincount's nonzero entries
                _, joint = np.unique(self.assign * span + self.smat[s], return_counts=True)
                self.joint_phi[s] = phi[joint].sum()
                bsz = np.bincount(self.smat[s])
                self.sample_phi[s] = phi[bsz[bsz > 0]].sum()
                self.sample_entropy[s] = math.log(self.n) - self.sample_phi[s] / self.n

        self.epl = expected_posterior_loss(init, samples, kind)
        self.epl_path = [self.epl]

    def run(self):
        for _ in range(self.config.sweeps):
            moved = False
            for i in self.rng.permutation(self.n):
                moved = self._try_move(int(i)) or moved
            if not moved:
                break
        estimate = canonicalize(self.assign + 1)
        info = {"init": self.init, "epl": self.epl, "epl_path": self.epl_path}
        return estimate, info

    def _match_counts(self, i: int) -> np.ndarray:
        """Per-sample counts, excluding record i, of records sharing i's
        sample cluster within each current cluster."""
        k = self.n_clusters
        sample, record = np.nonzero(self.smat == self.smat[:, i : i + 1])
        counts = np.bincount(sample * k + self.assign[record], minlength=self.n_samples * k)
        counts = counts.reshape(self.n_samples, k)
        counts[:, self.assign[i]] -= 1
        return counts

    def _try_move(self, i: int) -> bool:
        a = int(self.assign[i])
        k = self.n_clusters
        allow_new = k < self.max_clusters
        counts = self._match_counts(i)
        held_sizes = self.sizes[:k].copy()
        held_sizes[a] -= 1

        # score per existing target plus one fresh-singleton score; for
        # binder/vi these are relative objectives (stay = score[a]), for
        # nid they are absolute expected losses
        if self.kind == "binder":
            pairs = self.n * (self.n - 1) / 2.0
            score = (held_sizes - 2.0 * counts.mean(axis=0)) / pairs
            new_score = 0.0
        elif self.kind == "vi":
            score = (self.dphi[held_sizes] - 2.0 * self.dphi[counts].mean(axis=0)) / self.n
            new_score = 0.0
        else:
            score, new_score = self._nid_scores(a, counts, held_sizes)

        base = float(score[a])
        target = int(np.argmin(score))
        best_score = float(score[target])
        if allow_new and new_score < best_score:
            best_score = new_score
            target = _NEW_TARGET
        if best_score >= base - 1e-12:
            return False
        if self.kind == "nid":
            self.epl = best_score
        else:
            self.epl += best_score - base
        self._apply(i, a, target, counts)
        self.epl_path.append(self.epl)
        return True

    def _nid_cand(self, d_joint: np.ndarray, d_size: np.ndarray) -> np.ndarray:
        """Expected NID of candidate states given tracker deltas.

        d_joint has one row per sample and one column per candidate target;
        d_size one entry per target.
        """
        n = self.n
        cand_entropy = math.log(n) - (self.sum_phi_sizes + d_size) / n
        info = (
            (self.joint_phi[:, None] + d_joint) / n
            - (self.sum_phi_sizes + d_size)[None, :] / n
            - self.sample_phi[:, None] / n
            + math.log(n)
        )
        info = np.maximum(info, 0.0)
        denom = np.maximum(cand_entropy[None, :], self.sample_entropy[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            nid = 1.0 - info / denom
        nid = np.where(denom <= 1e-12, 0.0, nid)
        return np.clip(nid, 0.0, 1.0).mean(axis=0)

    def _nid_scores(self, a, counts, held_sizes):
        d_joint = self.dphi[counts] - self.dphi[counts[:, a]][:, None]
        d_size = self.dphi[held_sizes] - self.dphi[held_sizes[a]]
        score = self._nid_cand(d_joint, d_size)
        d_joint_new = -self.dphi[counts[:, a]][:, None]
        d_size_new = np.array([-float(self.dphi[held_sizes[a]])])
        new_score = float(self._nid_cand(d_joint_new, d_size_new)[0])
        return score, new_score

    def _apply(self, i: int, a: int, target: int, counts: np.ndarray) -> None:
        held_a = int(self.sizes[a]) - 1
        if target == _NEW_TARGET:
            held_t = 0
            joint_delta = -self.dphi[counts[:, a]]
            target = self.n_clusters
            self.n_clusters += 1
        else:
            held_t = int(self.sizes[target])
            joint_delta = self.dphi[counts[:, target]] - self.dphi[counts[:, a]]
        if self.kind != "binder":
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
