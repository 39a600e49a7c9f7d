"""Posterior simulation over linkage, latent entities, and distortion.

One iteration is a composite sweep: a linkage move (either a restricted
chaperone move or a full reallocation pass over every record), followed by
conjugate updates of the entity attributes and, unless pinned, the
distortion probabilities.  Chaperone pairs are drawn from a data-only
similarity distribution fixed before sampling, so the restricted updates
are plain Gibbs steps and need no acceptance correction.
"""

from __future__ import annotations

import io
import json
import math
import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import likelihood as lik
from . import parallel, priors
from .datagen import DataError
from .likelihood import Dataset, DistortionState, LikelihoodConfig
from .partitions import LinkageStructure, canonical_labels, canonical_rows, fnr_fdr
from .priors import BbapParams, PriorParams

NEG_INF = float("-inf")
_NEW = -1
# size-count vectors a bbap chain caches factors for before it clears the cache
FACTOR_CACHE_ENTRIES = 100_000
# (records x clusters) entries a full pass scores in one block: 16 KB of doubles
RUN_ENTRIES = 2048


@dataclass(frozen=True)
class SamplerConfig:
    """Sweep counts, move mixture, and bookkeeping strides for one run.

    iterations is the total sweep count including burn-in; move_mix is the
    fraction of sweeps using the restricted chaperone move instead of a
    full reallocation pass.
    """

    iterations: int
    burn_in: int
    thin: int = 1
    chains: int = 2
    seed: int = 0
    move_mix: float = 0.9
    chaperone_floor: float = 0.1
    inner_sweeps: int = 5
    snapshot_stride: int = 10
    check_every: int = 1000

    def __post_init__(self):
        if self.burn_in < 0 or self.iterations <= self.burn_in:
            raise ValueError("need iterations > burn_in >= 0")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.chains < 1:
            raise ValueError("chains must be at least 1")
        if not 0.0 <= self.move_mix <= 1.0:
            raise ValueError("move_mix must lie in [0, 1]")
        if not self.chaperone_floor >= 0:
            raise ValueError("chaperone_floor must be non-negative")
        if self.inner_sweeps < 1:
            raise ValueError("inner_sweeps must be at least 1")
        if self.snapshot_stride < 1 or self.check_every < 1:
            raise ValueError("strides must be at least 1")


@dataclass
class PosteriorTrace:
    """One row per kept iteration plus strided full linkage snapshots.

    A row is the object trace.jsonl stores: iter, chain, K, r (the counts
    of clusters of each size from 1), psi and logJoint, and fnr and fdr
    when the run had a truth to score against.  A snapshot is the row
    xi_snapshots.csv stores: chain, iteration, then the canonical labels of
    the n records, one int32 row of the (S, n + 2) snapshots matrix.
    """

    rows: list[dict] = field(default_factory=list)
    snapshots: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int32))

    def __len__(self) -> int:
        return len(self.rows)


class PairSampler:
    """Chaperone-pair proposal weighted by field agreement; data-only.

    weight(i, j) = floor + number of agreeing fields, so similar records
    are proposed often while every pair keeps positive probability
    whenever the floor is positive.  Only the running total of the pair
    weights at the end of each row i, over the pairs (i, j > i) in row
    order, is kept: the build computes the rows in order and a draw
    recomputes the one row it lands in, each with _row_cum.
    """

    def __init__(self, dataset: Dataset, floor: float = 0.1):
        n = dataset.n
        if n < 2:
            raise ValueError("need at least two records to pick pairs")
        # field-major, so that a row's agreement counts add F contiguous rows
        self._values_t, self._floor = np.ascontiguousarray(dataset.values.T), floor
        self._ends = np.empty(n - 1)
        for i in range(n - 1):
            self._ends[i] = self._row_cum(i)[-1]
        self.total = float(self._ends[-1])

    def _row_cum(self, i: int) -> np.ndarray:
        """Row i's running totals, led by row i - 1's end so that each one
        rounds as in a single cumsum over all pairs in row order."""
        start = self._ends[i - 1] if i else 0.0
        agree = (self._values_t[:, i + 1:] == self._values_t[:, i, None]).sum(axis=0)
        return np.cumsum(np.concatenate(([start], self._floor + agree)))[1:]

    def weight(self, i: int, j: int) -> float:
        return self._floor + int((self._values_t[:, i] == self._values_t[:, j]).sum())

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        u = rng.random() * self.total
        i = _first_above(self._ends, u)
        return i, i + 1 + _first_above(self._row_cum(i), u)


class ChainState:
    """Mutable sampler state for a single chain; owned by that chain only.

    Internally clusters carry arbitrary contiguous 0-based ids with
    swap-with-last compaction; canonical labels are produced only when a
    linkage snapshot is taken.
    """

    def __init__(
        self,
        dataset: Dataset,
        prior: PriorParams,
        like_config: LikelihoodConfig,
        rng: np.random.Generator,
    ):
        self.dataset = dataset
        self.prior = prior
        n, n_fields = dataset.n, dataset.n_fields
        self._bounded = isinstance(prior, BbapParams)
        self.cap = prior.cap if self._bounded else n
        self.freqs = dataset.freqs
        # log_joint's field-major inputs: the record values and reference
        # frequencies, and every field's log frequencies in one vector
        self._values_t = np.ascontiguousarray(dataset.values.T)
        self._record_freqs_t = np.ascontiguousarray(dataset.record_freqs.T)
        self._log_freqs = np.concatenate(dataset.log_freqs())
        widths = [len(f) for f in self.freqs]
        self._field_starts = (np.cumsum(widths) - widths)[:, None]

        self.assign = np.arange(n, dtype=np.int64)
        self.members: list[list[int]] = [[i] for i in range(n)]
        self.sizes = np.zeros(n, dtype=np.int64)
        self.sizes[:] = 1
        self.n_clusters = n
        self.size_counts = np.zeros(self.cap + 2, dtype=np.int64)
        self.size_counts[1] = n

        fixed = like_config.fixed_psi(n_fields)
        prior_a, prior_b = (
            like_config.prior_shapes(n_fields)
            if fixed is None
            else (np.ones(n_fields), np.ones(n_fields))
        )
        psi0 = fixed if fixed is not None else prior_a / (prior_a + prior_b)
        self.psi_fixed = fixed is not None
        self.distortion = DistortionState(np.array(psi0, dtype=float), prior_a, prior_b)

        self.entities = np.empty((n, n_fields), dtype=np.int64)
        for i in range(n):
            self.entities[i] = lik.draw_singleton_entity(
                dataset.values[i], self.distortion.psi, self.freqs, rng
            )
        # a constant of the data: the entity integrates out of a new cluster
        self._new_logliks = lik.new_cluster_marginal_loglik(dataset.values, self.freqs)
        # which slots hold each (field, value); changed wherever entities change
        self._planes = lik.AgreementPlanes(dataset.cardinalities, n)
        self._planes.fill(self.entities)
        self._plane_rows = self._planes.record_rows(dataset.values)
        # per-record pattern log likelihoods, rebuilt after self.distortion is
        # replaced (a DistortionState is frozen, so the sampler swaps in a new one)
        self._tables: np.ndarray | None = None
        self._tables_for: DistortionState | None = None
        # bbap factors are cached by size counts; EPP factors depend on n alone,
        # so an EPP chain computes its one row here, from n - 1 singletons
        self._factor_cache: dict[bytes, tuple[np.ndarray, float]] = {}
        self._epp_factors = None if self._bounded else priors._realloc_log_factors(
            np.array([0, n - 1]), n - 1, prior
        )
        # reallocate_record's log weights, one per cluster plus a new one
        self._logw = np.empty(n + 1)

    # -- bookkeeping ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.dataset.n

    def linkage(self) -> np.ndarray:
        """The canonical labels of the current partition, as int32."""
        return canonical_labels(self.assign)

    def max_cluster_size(self) -> int:
        return int(self.sizes[: self.n_clusters].max()) if self.n_clusters else 0

    def _remove_record(self, i: int) -> None:
        k = self.assign.item(i)
        s = self.sizes.item(k)
        self.size_counts[s] -= 1
        self.members[k].remove(i)
        self.sizes[k] = s - 1
        self.assign[i] = -1
        if s > 1:
            self.size_counts[s - 1] += 1
            return
        # cluster vanished: move the last cluster into its slot
        last = self.n_clusters - 1
        if k != last:
            self.assign[self.members[last]] = k
            self.members[k] = self.members[last]
            self.sizes[k] = self.sizes[last]
            self.entities[k] = self.entities[last]
            self._planes.move_slot(last, k)
        else:
            self._planes.clear_slot(last, self.entities[last])
        self.members[last] = []
        self.sizes[last] = 0
        self.n_clusters = last

    def _insert_record(self, i: int, target: int, rng: np.random.Generator | None) -> None:
        if target == _NEW:
            target = self.n_clusters
            self.members[target] = [i]
            self.sizes[target] = 1
            self.size_counts[1] += 1
            self.entities[target] = lik.draw_singleton_entity(
                self.dataset.values[i], self.distortion.psi, self.freqs, rng
            )
            self._planes.set_slot(target, self.entities[target])
            self.n_clusters += 1
        else:
            s = self.sizes.item(target)
            self.members[target].append(i)
            self.sizes[target] = s + 1
            self.size_counts[s] -= 1
            self.size_counts[s + 1] += 1
        self.assign[i] = target

    def _factors(self, counts: np.ndarray) -> tuple[np.ndarray, float]:
        """The reallocation factors (join, new) of the given reduced size
        counts: an EPP chain's one row, or a bbap chain's cache entry, computed
        on a miss; bbap counts outside the prior's support raise ValueError."""
        if not self._bounded:
            return self._epp_factors
        key = counts.tobytes()
        hit = self._factor_cache.get(key)
        if hit is None:
            hit = priors._realloc_log_factors(counts, self.n - 1, self.prior)
            if len(self._factor_cache) >= FACTOR_CACHE_ENTRIES:
                self._factor_cache.clear()
            self._factor_cache[key] = hit
        return hit

    def _factors_without(self, size: int) -> tuple[np.ndarray, float]:
        """_factors of the size counts that _remove_record leaves once a
        record leaves a cluster of the given size (at least 2)."""
        counts = self.size_counts.copy()
        counts[size] -= 1
        counts[size - 1] += 1
        return self._factors(counts)

    def _pattern_tables(self) -> np.ndarray:
        if self._tables_for is not self.distortion:
            self._tables = lik.pattern_tables(self.dataset.record_freqs, self.distortion.psi)
            self._tables_for = self.distortion
        return self._tables

    # -- moves -----------------------------------------------------------

    def reallocate_record(self, i: int, rng: np.random.Generator) -> None:
        """One collapsed Gibbs update of a single record's assignment."""
        self._remove_record(i)
        join, new = self._factors(self.size_counts)
        k = self.n_clusters
        logw = self._logw[: k + 1]
        if k:
            np.add(
                join.take(self.sizes[:k]),
                lik.entity_logliks(
                    self.dataset.values[i], self.entities[:k], self._planes,
                    self._plane_rows[i], self._pattern_tables()[i],
                ),
                out=logw[:k],
            )
        logw[k] = new + self._new_logliks[i]
        choice = _sample_from_logw(logw, rng)
        self._insert_record(i, _NEW if choice == k else choice, rng)

    def reallocate_run(self, i: int, rng: np.random.Generator) -> int:
        """Update records i, i + 1, ... in order, each exactly as
        reallocate_record would, and return the first index not updated.

        A run is the longest stretch of records from i, at most
        RUN_ENTRIES // K of them, whose clusters are not singletons.  Such a
        record's removal moves no slot, and if it draws its own cluster back
        the state is as it was but for its place at the end of its member
        list.  So the run is scored in one block against the state it
        starts from, each record against every cluster with its own cluster
        one smaller, and drawn in order with one uniform each; the first
        record that moves or opens a cluster is applied and ends the run.
        A singleton, or a run of one, takes reallocate_record.

        Runs are an EPP path: they read the chain's one EPP factor row,
        which depends on n alone and so serves every record of a run, while
        a bbap row depends on the size counts each removal leaves.
        """
        assign, sizes = self.assign, self.sizes
        k = self.n_clusters
        end = min(self.n, i + RUN_ENTRIES // k)
        j = i
        while j < end and sizes.item(assign.item(j)) > 1:
            j += 1
        if j < i + 2:
            self.reallocate_record(i, rng)
            return i + 1
        own = assign[i:j]
        join, new = self._epp_factors
        scores = lik.entity_logliks(
            self.dataset.values[i:j], self.entities[:k], self._planes,
            self._plane_rows[i:j], self._pattern_tables()[i:j],
        )
        # every cluster at its size, then each record's own cluster one
        # smaller; the row has n entries, so a cluster of all n records
        # lies past its end (clipped) until its entry is replaced
        logw = np.empty((j - i, k + 1))
        np.add(join.take(sizes[:k], mode="clip"), scores, out=logw[:, :k])
        rows = np.arange(j - i)
        logw[rows, own] = join.take(sizes.take(own) - 1) + scores[rows, own]
        np.add(new, self._new_logliks[i:j], out=logw[:, k])
        # a new cluster's weight is positive, so every row's top is finite
        top = np.maximum.reduce(logw, axis=1, keepdims=True)
        cum = np.subtract(logw, top, out=logw)
        np.exp(cum, out=cum)
        np.add.accumulate(cum, axis=1, out=cum)
        members = self.members
        for r, (c, total) in enumerate(zip(own.tolist(), cum[:, k].tolist())):
            choice = int(cum[r].searchsorted(rng.random() * total, "right"))
            if choice == c:
                # the record rejoins its cluster: what _remove_record and
                # _insert_record change is its place in the member list
                members[c].remove(i + r)
                members[c].append(i + r)
                continue
            self._remove_record(i + r)
            self._insert_record(i + r, _NEW if choice >= k else choice, rng)
            return i + r + 1
        return j

    def restricted_reallocate(
        self, i: int, targets: np.ndarray, logliks: np.ndarray, u: float
    ) -> None:
        """Gibbs update of one record restricted to two anchors' clusters.

        The record must currently sit in one of the two target clusters, so
        the update is an exact conditional draw over a support determined
        by the rest of the state; keeping restricted records with an anchor
        is what conserves the restricted set and makes the move leave the
        posterior invariant.  Each target holds its anchor, so no removal
        empties it or moves its slot; logliks holds the record's
        record_loglik against the two targets' entities, and u is the
        update's uniform, used as _sample_from_logw uses its draw.
        """
        self._remove_record(i)
        join, _ = self._factors(self.size_counts)
        logw = join.take(self.sizes.take(targets)) + logliks
        top = np.maximum.reduce(logw)
        if top == NEG_INF:
            # rejoining the record's own cluster always has positive density
            raise RuntimeError("restricted move found no admissible target")
        cum = np.exp(logw - top).cumsum()
        self._insert_record(i, targets.item(_first_above(cum, u * cum[-1])), None)

    def resample_entities(self, rng: np.random.Generator) -> None:
        self.entities[: self.n_clusters] = lik.resample_entities(
            self.dataset.values,
            self.assign,
            self.n_clusters,
            self.distortion.psi,
            self.freqs,
            rng,
        )
        self._planes.fill(self.entities[: self.n_clusters])

    def resample_distortion(self, rng: np.random.Generator) -> None:
        if self.psi_fixed:
            return
        entity_rows = self.entities[self.assign]
        self.distortion = lik.resample_distortion(
            self.dataset.values, entity_rows, self.dataset.record_freqs, self.distortion, rng
        )

    # -- densities & checks ----------------------------------------------

    def log_joint(self) -> float:
        """Joint log density of the current state from the maintained caches."""
        n = self.n
        k = self.n_clusters
        out = priors.log_allelic_counts(self.size_counts, n, self.prior)
        out -= math.lgamma(n + 1)
        for s in np.flatnonzero(self.size_counts[1 : self.cap + 1]) + 1:
            c = int(self.size_counts[s])
            out += c * math.lgamma(s + 1) + math.lgamma(c + 1)
        psi = self.distortion.psi
        # per field, the entities' log frequencies and the records' log
        # likelihoods: (F, K) and (F, n) C-contiguous arrays, whose rows
        # numpy sums as it sums a 1-D array
        entity_log_freqs = self._log_freqs.take(self._field_starts + self.entities[:k].T)
        agree = self._values_t == self.entities.T.take(self.assign, axis=1)
        p = psi[:, None] * self._record_freqs_t
        p = p + (1.0 - psi)[:, None] * agree
        with np.errstate(divide="ignore"):
            record_logliks = np.log(p).sum(axis=1)
        for entity_sum, record_sum in zip(
            entity_log_freqs.sum(axis=1).tolist(), record_logliks.tolist()
        ):
            out += entity_sum
            out += record_sum
        if not self.psi_fixed:
            a, b = self.distortion.prior_a, self.distortion.prior_b
            log_beta_norm = np.array(
                [math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y) for x, y in zip(a, b)]
            )
            out += float(
                np.sum((a - 1) * np.log(psi) + (b - 1) * np.log1p(-psi) - log_beta_norm)
            )
        return out

    def consistency_check(self) -> None:
        """Rebuild the caches from the assignment vector and compare them."""
        rebuilt_sizes = np.bincount(self.assign, minlength=self.n_clusters)
        if len(rebuilt_sizes) != self.n_clusters or np.any(rebuilt_sizes == 0):
            raise RuntimeError("cluster bookkeeping out of sync with assignments")
        if not np.array_equal(rebuilt_sizes, self.sizes[: self.n_clusters]):
            raise RuntimeError("cluster sizes out of sync with assignments")
        rebuilt_counts = np.bincount(rebuilt_sizes, minlength=len(self.size_counts))
        if not np.array_equal(rebuilt_counts, self.size_counts):
            raise RuntimeError("size counts out of sync with assignments")
        # a stable sort lists each cluster's records in index order
        order = np.argsort(self.assign, kind="stable")
        for listed, rows in zip(self.members, np.split(order, np.cumsum(rebuilt_sizes)[:-1])):
            if sorted(listed) != rows.tolist():
                raise RuntimeError("membership lists out of sync with assignments")
        rebuilt_planes = lik.AgreementPlanes(self.dataset.cardinalities, self.n)
        rebuilt_planes.fill(self.entities[: self.n_clusters])
        if not np.array_equal(rebuilt_planes.planes, self._planes.planes):
            raise RuntimeError("agreement planes out of sync with entities")
        if math.isnan(self.log_joint()):
            raise RuntimeError("log joint is NaN")


def _sample_from_logw(logw: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probability proportional to exp(logw).  Some weight
    must be positive: in a reallocation, a new cluster's always is."""
    # ndarray methods and ufuncs: numpy's function wrappers cost more than
    # the arithmetic at a few hundred weights
    top = np.maximum.reduce(logw)
    cum = np.exp(logw - top).cumsum()
    return _first_above(cum, rng.random() * cum[-1])


def _first_above(cum: np.ndarray, u: float) -> int:
    """Index of the first running total above u, clamped to the last."""
    return min(int(cum.searchsorted(u, "right")), len(cum) - 1)


# ---------------------------------------------------------------------------
# moves


def reallocation_pass(state: ChainState, rng: np.random.Generator) -> None:
    """Reallocate every record once, in index order; every draw is
    reallocate_record's.  An EPP pass goes run by run (see
    ChainState.reallocate_run); a bbap pass goes record by record, because
    its factor row depends on the size counts each removal leaves."""
    i, n = 0, state.n
    while i < n:
        if state._bounded or 2 * state.n_clusters > RUN_ENTRIES:
            # a bbap chain, or no run of two fits: the record goes alone
            state.reallocate_record(i, rng)
            i += 1
        else:
            i = state.reallocate_run(i, rng)


def chaperones_step(
    state: ChainState,
    pair_sampler: PairSampler,
    rng: np.random.Generator,
    inner_sweeps: int = 5,
) -> None:
    """Restricted Gibbs passes over the clusters of one similarity-chosen pair.

    The two chaperone records never move; every other member of their
    clusters is reallocated between the chaperones' current clusters.
    Pair selection depends on the data only and restricted records always
    stay with a chaperone, so each update is an exact conditional draw and
    the move leaves the posterior invariant without a correction.  A
    record sheds its clustermates (and singletons form) when it later
    serves as a chaperone itself; full reallocation passes in the move mix
    cover every remaining transition.

    Almost every update leaves its record where it is, and then the state
    stays as it was but for member order.  So each record's two weights
    are computed under the starting state, all inner_sweeps x |R| uniforms
    are drawn at once, and each is compared with its record's threshold.
    If none moves a record, each anchor's member list ends as the anchor
    followed by its restricted records in order, as the updates would leave
    it.  Otherwise the updates before the first moving draw are applied as
    stays, and from it on they run one by one on the remaining uniforms.
    """
    i, j = pair_sampler.sample(rng)
    ci, cj = int(state.assign[i]), int(state.assign[j])
    if ci == cj:
        # a single shared cluster admits no restricted move
        return
    members = state.members
    restricted = [u for u in members[ci] + members[cj] if u != i and u != j]
    if not restricted:
        return
    # the anchors keep both clusters in their slots, and no entity or psi
    # changes within the step, so each record's likelihood against the two
    # entities holds for every inner sweep
    targets = np.array([ci, cj])
    logliks = lik.record_loglik(
        state.dataset.values[restricted][:, None], state.entities[targets],
        state.distortion.psi, state.freqs, state.dataset.record_freqs[restricted][:, None],
    )
    # each record's weights with itself taken from its own cluster: side 0
    # for the records of the first anchor's cluster
    in_first = len(members[ci]) - 1
    side = np.arange(len(restricted)) >= in_first
    sizes = state.sizes.take(targets)
    prior = np.empty((2, 2))
    for s in (0, 1):
        reduced = sizes.copy()
        reduced[s] -= 1
        prior[s] = state._factors_without(sizes.item(s))[0].take(reduced)
    logw = prior[side.astype(np.intp)] + logliks
    top = logw.max(axis=1)
    if top.min() == NEG_INF:
        # rejoining the record's own cluster always has positive density
        raise RuntimeError("restricted move found no admissible target")
    w = np.exp(logw - top[:, None])
    uniforms = rng.random(inner_sweeps * len(restricted))
    # a draw picks the first target iff its running total lies above u * total
    first = w[:, 0] > uniforms.reshape(inner_sweeps, -1) * (w[:, 0] + w[:, 1])
    moved = (first == side).reshape(-1)
    if not moved.any():
        members[ci] = [i] + restricted[:in_first]
        members[cj] = [j] + restricted[in_first:]
        return
    start = int(moved.argmax())
    sweep = restricted * inner_sweeps
    for u in sweep[:start]:
        # a stay moves the record to the end of its member list
        listed = members[state.assign.item(u)]
        listed.remove(u)
        listed.append(u)
    for t in range(start, len(sweep)):
        r = t % len(restricted)
        state.restricted_reallocate(sweep[t], targets, logliks[r], uniforms.item(t))


# ---------------------------------------------------------------------------
# chain driver


def run_chain(
    config: SamplerConfig,
    dataset: Dataset,
    prior: PriorParams,
    like_config: LikelihoodConfig | None = None,
    truth: LinkageStructure | None = None,
) -> PosteriorTrace:
    """Run all configured chains and collect one merged trace.

    Each chain starts from all singletons with entities drawn from their
    singleton conditionals and distortion at its prior mean (or pinned
    value), and owns an independent generator spawned from the seed.
    Deterministic given the config and dataset: the chains run in
    min(chains, usable CPUs) processes, and the merged trace does not
    depend on that number.
    """
    like_config = like_config or LikelihoodConfig()
    if truth is not None and truth.n != dataset.n:
        raise ValueError("truth length does not match the dataset")
    # the pair sampler's O(n^2 F) build runs only if a chaperone step can be
    # drawn; the move draw below consumes one uniform per sweep either way
    pair_sampler = (
        PairSampler(dataset, config.chaperone_floor)
        if dataset.n >= 2 and config.move_mix > 0
        else None
    )
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)

    def one_chain(chain_id: int, checkpoint: Callable[[], None] | None) -> PosteriorTrace:
        return _run_one_chain(
            config, dataset, prior, like_config, truth, pair_sampler,
            seeds[chain_id], chain_id, checkpoint,
        )

    parts = parallel.run_tasks(one_chain, config.chains, "chain")
    return PosteriorTrace(
        [row for part in parts for row in part.rows],
        np.concatenate([part.snapshots for part in parts]),
    )


def _run_one_chain(
    config: SamplerConfig,
    dataset: Dataset,
    prior: PriorParams,
    like_config: LikelihoodConfig,
    truth: LinkageStructure | None,
    pair_sampler: PairSampler | None,
    seed: np.random.SeedSequence,
    chain_id: int,
    each_sweep: Callable[[], None] | None = None,
) -> PosteriorTrace:
    """Run one chain from its seed; the result holds that chain's rows only.

    each_sweep, if given, is called with no arguments before every sweep.
    """
    rows, snapshots = [], []
    rng = np.random.default_rng(seed)
    state = ChainState(dataset, prior, like_config, rng)
    truth_labels = None if truth is None else np.array(truth.assignments)
    kept = 0
    for it in range(config.iterations):
        if each_sweep is not None:
            each_sweep()
        if dataset.n >= 2 and rng.random() < config.move_mix:
            chaperones_step(state, pair_sampler, rng, config.inner_sweeps)
        else:
            reallocation_pass(state, rng)
        state.resample_entities(rng)
        state.resample_distortion(rng)
        if (it + 1) % config.check_every == 0:
            state.consistency_check()
        if it < config.burn_in or (it - config.burn_in) % config.thin != 0:
            continue
        if state._bounded and state.max_cluster_size() > prior.cap:
            raise RuntimeError("bounded prior violated: cluster exceeds the cap")
        counts = state.size_counts[1 : state.cap + 1]
        if not state._bounded:
            last = int(np.max(np.nonzero(counts)[0])) + 1 if counts.any() else 1
            counts = counts[:last]
        row = {
            "iter": it,
            "chain": chain_id,
            "K": int(state.n_clusters),
            "r": counts.tolist(),
            "psi": state.distortion.psi.tolist(),
            "logJoint": state.log_joint(),
        }
        if truth is not None:
            row["fnr"], row["fdr"] = fnr_fdr(state.assign, truth_labels)
        rows.append(row)
        if kept % config.snapshot_stride == 0:
            snapshots.append(np.concatenate(([chain_id, it], state.linkage()), dtype=np.int32))
        kept += 1
    return PosteriorTrace(rows, np.stack(snapshots))


# ---------------------------------------------------------------------------
# trace serialization


def write_trace_jsonl(trace: PosteriorTrace, path) -> None:
    """One JSON object per kept iteration; keys stable for byte determinism."""
    with open(path, "w") as fh:
        for row in trace.rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# every row holds these; fnr and fdr come together or not at all
_TRACE_KEYS = ("iter", "chain", "K", "r", "psi", "logJoint")
_RATE_KEYS = ("fnr", "fdr")
# what the values that readers compute with must be: (integers only, a
# list of them, the description a DataError gives)
_VALUE_KINDS = {
    "K": (True, False, "an integer"),
    "r": (True, True, "a list of integers"),
    "psi": (False, True, "a list of numbers"),
    "logJoint": (False, False, "a number"),
    "fnr": (False, False, "a number"),
    "fdr": (False, False, "a number"),
}


def _numeric(value, integral: bool) -> bool:
    # JSON true and false load as bool, which Python counts as int
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (not integral and isinstance(value, float))


def read_trace_jsonl(path, n: int | None = None) -> PosteriorTrace:
    """Rows written by write_trace_jsonl.  A missing or empty file, a
    malformed row, a value of the wrong kind, a row whose keys differ from
    the first row's, or (given n, and once every row is well formed) a row
    whose size counts describe other than n records raises DataError."""
    if not os.path.exists(path):
        raise DataError(f"no trace at '{path}'; run the sampler first")
    trace = PosteriorTrace()
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            where = f"trace file '{path}' line {line_no}"
            try:
                row = json.loads(line)
                rates = _RATE_KEYS if any(key in row for key in _RATE_KEYS) else ()
                # a missing key raises KeyError, a row that is no object TypeError
                for key in _TRACE_KEYS + rates:
                    row[key]
            except KeyError as exc:
                raise DataError(f"{where}: no key {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise DataError(f"{where}: {exc}") from exc
            for key, (integral, listed, kind) in _VALUE_KINDS.items():
                if key not in row:
                    continue
                value = row[key]
                items = value if isinstance(value, list) else [value]
                if isinstance(value, list) != listed or not all(
                    _numeric(v, integral) for v in items
                ):
                    raise DataError(f"{where}: {key} is {json.dumps(value)}, not {kind}")
            if trace.rows and row.keys() != trace.rows[0].keys():
                raise DataError(
                    f"{where}: keys {sorted(row)} differ from line 1's {sorted(trace.rows[0])}"
                )
            trace.rows.append(row)
    if not trace.rows:
        raise DataError(f"trace file '{path}' holds no rows")
    for line_no, row in enumerate(trace.rows, 1):
        records = sum(size * count for size, count in enumerate(row["r"], 1))
        if n is not None and records != n:
            raise DataError(f"trace file '{path}' line {line_no}: {records} records, expected {n}")
    return trace


def write_snapshots_csv(trace: PosteriorTrace, path) -> None:
    """Integer rows: chain, iteration, then the canonical assignment vector."""
    with open(path, "w") as fh:
        for row in trace.snapshots.tolist():
            fh.write(",".join(map(str, row)) + "\n")


def read_snapshots_csv(path, n: int | None = None) -> np.ndarray:
    """Rows written by write_snapshots_csv, as PosteriorTrace.snapshots
    holds them: one (S, n + 2) int32 matrix of chain, iteration and the
    canonical assignment row.

    The file is parsed in one call and its label rows checked for
    canonical form all at once; only if that fails is it read again line
    by line, so that a malformed row raises DataError naming its line.
    A missing or empty file, or (given n) rows of other than n records,
    also raise DataError.
    """
    if not os.path.exists(path):
        raise DataError(f"no linkage snapshots at '{path}'; run the sampler first")
    with open(path) as fh:
        text = fh.read()
    if not text:
        raise DataError(f"snapshot file '{path}' holds no samples")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                text.split("\n"), delimiter=",", dtype=np.int32, ndmin=2, comments=None
            )
    except (ValueError, Warning):
        rows = None
    # the bulk parse skips blank lines, which the line reader rejects
    lines = text.count("\n") + (not text.endswith("\n"))
    if (
        rows is None
        or len(rows) != lines
        or rows.shape[1] < 3
        or not canonical_rows(rows[:, 2:]).all()
    ):
        rows = _read_snapshot_lines(path, text)
    if n is not None and rows.shape[1] - 2 != n:
        raise DataError(f"snapshot file '{path}': {rows.shape[1] - 2} records, expected {n}")
    return rows


def _read_snapshot_lines(path, text: str) -> np.ndarray:
    """The snapshot rows parsed one line at a time; the first malformed
    row, or one with a value outside int32, raises DataError naming its
    line."""
    out = []
    for line_no, line in enumerate(io.StringIO(text), 1):
        try:
            parts = np.array([int(v) for v in line.strip().split(",")], dtype=np.int32)
            xi = LinkageStructure(parts[2:])
            if out and xi.n != len(out[0]) - 2:
                raise ValueError(f"{xi.n} records, expected {len(out[0]) - 2}")
        except (ValueError, OverflowError) as exc:
            raise DataError(f"snapshot file '{path}' line {line_no}: {exc}") from exc
        out.append(parts)
    return np.array(out)
