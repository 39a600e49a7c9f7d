"""Posterior simulation over linkage, latent entities, and distortion.

One iteration is a composite sweep: a linkage move (either a restricted
chaperone move or a full reallocation pass over every record), followed by
conjugate updates of the entity attributes and, unless pinned, the
distortion probabilities.  Chaperone pairs are drawn from a data-only
similarity distribution fixed before sampling, so the restricted updates
are plain Gibbs steps and need no acceptance correction.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import likelihood as lik
from . import priors
from .datagen import DataError
from .likelihood import Dataset, DistortionState, LikelihoodConfig
from .partitions import LinkageStructure, canonicalize, fnr_fdr
from .priors import BbapParams, PriorParams

NEG_INF = float("-inf")
_NEW = -1
# reallocation-factor entries a bbap chain keeps before its cache is cleared
FACTOR_CACHE_ENTRIES = 100_000


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
        if self.chaperone_floor < 0:
            raise ValueError("chaperone_floor must be non-negative")
        if self.inner_sweeps < 1:
            raise ValueError("inner_sweeps must be at least 1")
        if self.snapshot_stride < 1 or self.check_every < 1:
            raise ValueError("strides must be at least 1")


@dataclass
class PosteriorTrace:
    """Per-kept-iteration summaries plus strided full linkage snapshots."""

    n: int
    iters: list[int] = field(default_factory=list)
    chain_ids: list[int] = field(default_factory=list)
    n_clusters: list[int] = field(default_factory=list)
    size_counts: list[tuple[int, ...]] = field(default_factory=list)
    psi: list[tuple[float, ...]] = field(default_factory=list)
    log_joint: list[float] = field(default_factory=list)
    fnr: list[float] | None = None
    fdr: list[float] | None = None
    snapshots: list[tuple[int, int, LinkageStructure]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.iters)


class PairSampler:
    """Chaperone-pair proposal weighted by field agreement; data-only.

    weight(i, j) = floor + number of agreeing fields, so similar records
    are proposed often while every pair keeps positive probability
    whenever the floor is positive.
    """

    def __init__(self, dataset: Dataset, floor: float = 0.1):
        n = dataset.n
        if n < 2:
            raise ValueError("need at least two records to pick pairs")
        agree = np.zeros((n, n), dtype=np.int64)
        for f in range(dataset.n_fields):
            col = dataset.values[:, f]
            agree += col[:, None] == col[None, :]
        self.rows, self.cols = np.triu_indices(n, k=1)
        weights = floor + agree[self.rows, self.cols]
        self._cum = np.cumsum(weights)
        self.total = float(self._cum[-1])

    def weight(self, i: int, j: int) -> float:
        idx = np.flatnonzero((self.rows == min(i, j)) & (self.cols == max(i, j)))[0]
        prev = self._cum[idx - 1] if idx > 0 else 0.0
        return float(self._cum[idx] - prev)

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        u = rng.random() * self.total
        idx = int(np.searchsorted(self._cum, u, side="right"))
        idx = min(idx, len(self.rows) - 1)
        return int(self.rows[idx]), int(self.cols[idx])


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
        self.cap = prior.cap if isinstance(prior, BbapParams) else n
        self.freqs = dataset.freqs
        self._log_freqs = dataset.log_freqs()

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
        # replaced (the sampler swaps in a new DistortionState, never edits one)
        self._tables: np.ndarray | None = None
        self._tables_for: DistortionState | None = None
        self._factor_cache: dict[bytes, tuple[np.ndarray, float]] = {}

    # -- bookkeeping ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.dataset.n

    def linkage(self) -> LinkageStructure:
        return canonicalize(self.assign)

    def max_cluster_size(self) -> int:
        return int(self.sizes[: self.n_clusters].max()) if self.n_clusters else 0

    def _remove_record(self, i: int) -> None:
        k = int(self.assign[i])
        s = int(self.sizes[k])
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
            for j in self.members[last]:
                self.assign[j] = k
            self.members[k] = self.members[last]
            self.sizes[k] = self.sizes[last]
            self._planes.clear_slot(k, self.entities[k])
            self.entities[k] = self.entities[last]
            self._planes.set_slot(k, self.entities[k])
        self._planes.clear_slot(last, self.entities[last])
        self.members[last] = []
        self.sizes[last] = 0
        self.n_clusters = last

    def _insert_record(self, i: int, target: int, rng: np.random.Generator) -> None:
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
            s = int(self.sizes[target])
            self.members[target].append(i)
            self.sizes[target] = s + 1
            self.size_counts[s] -= 1
            self.size_counts[s + 1] += 1
        self.assign[i] = target

    def _prior_factors(self) -> tuple[np.ndarray, float]:
        # EPP factors depend on n alone, so an EPP chain keeps one entry
        key = self.size_counts.tobytes() if isinstance(self.prior, BbapParams) else b""
        hit = self._factor_cache.get(key)
        if hit is None:
            hit = priors._realloc_log_factors(self.size_counts, int(self.n - 1), self.prior)
            if len(self._factor_cache) >= FACTOR_CACHE_ENTRIES:
                self._factor_cache.clear()
            self._factor_cache[key] = hit
        return hit

    def _pattern_tables(self) -> np.ndarray:
        if self._tables_for is not self.distortion:
            self._tables = lik.pattern_tables(
                self.dataset.values, self.distortion.psi, self.freqs
            )
            self._tables_for = self.distortion
        return self._tables

    # -- moves -----------------------------------------------------------

    def reallocate_record(self, i: int, rng: np.random.Generator) -> None:
        """One collapsed Gibbs update of a single record's assignment."""
        self._remove_record(i)
        x = self.dataset.values[i]
        join, new = self._prior_factors()
        k = self.n_clusters
        logw = np.empty(k + 1)
        if k:
            logw[:k] = join.take(self.sizes[:k]) + lik.entity_logliks(
                x, self.entities[:k], self._planes, self._plane_rows[i], self._pattern_tables()[i]
            )
        logw[k] = new + self._new_logliks[i]
        choice = _sample_from_logw(logw, rng, new_index=k)
        self._insert_record(i, _NEW if choice == k else choice, rng)

    def restricted_reallocate(
        self, i: int, anchors: tuple[int, int], rng: np.random.Generator
    ) -> None:
        """Gibbs update of one record restricted to the anchors' clusters.

        The record must currently sit in one of the two clusters, so the
        update is an exact conditional draw over a support determined by
        the rest of the state; keeping restricted records with an anchor
        is what conserves the restricted set and makes the move leave the
        posterior invariant.
        """
        self._remove_record(i)
        ca = int(self.assign[anchors[0]])
        cb = int(self.assign[anchors[1]])
        targets = [ca] if ca == cb else [ca, cb]
        x = self.dataset.values[i]
        join, _ = self._prior_factors()
        logw = np.empty(len(targets))
        for t, k in enumerate(targets):
            logw[t] = join[self.sizes[k]] + lik.record_loglik(
                x, self.entities[k], self.distortion.psi, self.freqs
            )
        if logw.max() == NEG_INF:
            # rejoining the record's own cluster always has positive density
            raise RuntimeError("restricted move found no admissible target")
        choice = _sample_from_logw(logw, rng, new_index=0)
        self._insert_record(i, targets[choice], rng)

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
            self.dataset.values, entity_rows, self.freqs, self.distortion, rng
        )

    # -- densities & checks ----------------------------------------------

    def log_joint(self) -> float:
        """Joint log density of the current state from the maintained caches."""
        n = self.n
        k = self.n_clusters
        out = priors.log_allelic_counts(self.size_counts, n, self.prior)
        out -= math.lgamma(n + 1)
        for s in range(1, self.cap + 1):
            c = int(self.size_counts[s])
            if c:
                out += c * math.lgamma(s + 1) + math.lgamma(c + 1)
        entity_rows = self.entities[self.assign]
        psi = self.distortion.psi
        for f in range(self.dataset.n_fields):
            out += float(self._log_freqs[f][self.entities[:k, f]].sum())
            p = psi[f] * self.freqs[f][self.dataset.values[:, f]]
            p = p + (1.0 - psi[f]) * (self.dataset.values[:, f] == entity_rows[:, f])
            with np.errstate(divide="ignore"):
                out += float(np.log(p).sum())
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


def _sample_from_logw(logw: np.ndarray, rng: np.random.Generator, new_index: int) -> int:
    top = logw.max()
    if top == NEG_INF:
        return new_index
    w = np.exp(logw - top)
    cum = np.cumsum(w)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(logw) - 1)


# ---------------------------------------------------------------------------
# moves


def reallocation_pass(state: ChainState, rng: np.random.Generator) -> None:
    """Reallocate every record once, in index order."""
    for i in range(state.n):
        state.reallocate_record(i, rng)


def full_gibbs_scan(state: ChainState, rng: np.random.Generator) -> None:
    """Full composite sweep: reallocation pass plus both conjugate updates."""
    reallocation_pass(state, rng)
    state.resample_entities(rng)
    state.resample_distortion(rng)


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
    """
    i, j = pair_sampler.sample(rng)
    ci, cj = int(state.assign[i]), int(state.assign[j])
    if ci == cj:
        # a single shared cluster admits no restricted move
        return
    restricted = [u for u in state.members[ci] + state.members[cj] if u != i and u != j]
    if not restricted:
        return
    for _ in range(inner_sweeps):
        for u in restricted:
            state.restricted_reallocate(u, (i, j), rng)


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
    # the O(n^2) pair sampler is built only if a chaperone step can be drawn;
    # the move draw below consumes one uniform per sweep either way
    pair_sampler = (
        PairSampler(dataset, config.chaperone_floor)
        if dataset.n >= 2 and config.move_mix > 0
        else None
    )
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)

    def one_chain(chain_id: int, each_sweep: Callable[[], None] | None = None) -> PosteriorTrace:
        return _run_one_chain(
            config, dataset, prior, like_config, truth, pair_sampler,
            seeds[chain_id], chain_id, each_sweep,
        )

    procs = min(config.chains, _usable_cpus())
    parts = _run_forked(one_chain, config.chains, procs) if procs > 1 else None
    if parts is None:
        parts = [one_chain(c) for c in range(config.chains)]
    trace = PosteriorTrace(n=dataset.n)
    if truth is not None:
        trace.fnr = []
        trace.fdr = []
    for part in parts:
        trace.iters += part.iters
        trace.chain_ids += part.chain_ids
        trace.n_clusters += part.n_clusters
        trace.size_counts += part.size_counts
        trace.psi += part.psi
        trace.log_joint += part.log_joint
        if truth is not None:
            trace.fnr += part.fnr
            trace.fdr += part.fdr
        trace.snapshots += part.snapshots
    return trace


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
    bounded = isinstance(prior, BbapParams)
    trace = PosteriorTrace(n=dataset.n)
    if truth is not None:
        trace.fnr = []
        trace.fdr = []
    rng = np.random.default_rng(seed)
    state = ChainState(dataset, prior, like_config, rng)
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
        if bounded and state.max_cluster_size() > prior.cap:
            raise RuntimeError("bounded prior violated: cluster exceeds the cap")
        counts = state.size_counts[1 : state.cap + 1]
        if not bounded:
            last = int(np.max(np.nonzero(counts)[0])) + 1 if counts.any() else 1
            counts = counts[:last]
        trace.iters.append(it)
        trace.chain_ids.append(chain_id)
        trace.n_clusters.append(int(state.n_clusters))
        trace.size_counts.append(tuple(int(c) for c in counts))
        trace.psi.append(tuple(float(p) for p in state.distortion.psi))
        trace.log_joint.append(state.log_joint())
        if truth is not None:
            fnr, fdr = fnr_fdr(state.assign.tolist(), truth)
            trace.fnr.append(fnr)
            trace.fdr.append(fdr)
        if kept % config.snapshot_stride == 0:
            trace.snapshots.append((chain_id, it, state.linkage()))
        kept += 1
    return trace


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_forked(one_chain, chains: int, procs: int) -> list[PosteriorTrace] | None:
    """Run chains 0, procs, 2*procs, ... here and the others round-robin in
    procs - 1 forked workers; None where forking is unavailable or unsafe.

    Forked workers read the dataset, prior and pair sampler in place
    instead of receiving a pickled copy. A fork copies only the calling
    thread, so a process that runs other Python threads runs its chains
    in-process, as does a daemonic process, which may not start children.
    A worker's exception is raised again here, and every worker has been
    joined when this returns or raises.
    """
    import multiprocessing
    import threading

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
        or multiprocessing.current_process().daemon
    ):
        return None
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for w in range(1, procs):
            receiver, sender = ctx.Pipe(duplex=False)
            # the worker closes every read end it inherits, its own included,
            # so a send to a parent that has gone fails instead of blocking
            readers = [r for _, r in workers] + [receiver]
            proc = ctx.Process(
                target=_chain_worker,
                args=(one_chain, range(w, chains, procs), sender, readers, os.getpid()),
                daemon=True,
            )
            proc.start()
            sender.close()
            workers.append((proc, receiver))
        parts = {c: one_chain(c) for c in range(0, chains, procs)}
        for w, (proc, receiver) in enumerate(workers, 1):
            try:
                status, payload = receiver.recv()
            except EOFError:
                raise RuntimeError(
                    f"chain worker {w} exited with code {proc.exitcode} before sending its chains"
                ) from None
            if status == "error":
                raise payload
            for c, packed in zip(range(w, chains, procs), payload):
                parts[c] = _unpack_chain(packed, c)
        return [parts[c] for c in range(chains)]
    finally:
        for proc, receiver in workers:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            receiver.close()


def _chain_worker(one_chain, chain_ids, sender, readers, parent: int) -> None:
    """Run the given chains and send them, or the exception that stopped
    them, to the parent in one message; exit if the parent has gone."""
    import signal

    # an interrupt reaches the parent, which then stops every worker
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for reader in readers:
        reader.close()

    def exit_if_orphaned() -> None:
        if os.getppid() != parent:
            os._exit(1)

    try:
        message = ("ok", [_pack_chain(one_chain(c, exit_if_orphaned)) for c in chain_ids])
    except Exception as exc:  # noqa: BLE001 - re-raised by the parent
        message = ("error", exc)
    try:
        sender.send(message)
    except BrokenPipeError:
        os._exit(1)


def _pack_chain(part: PosteriorTrace) -> tuple[PosteriorTrace, list[int], np.ndarray]:
    """A chain's rows with its snapshots as one int32 array, for the pipe."""
    labels = np.array([xi.assignments for _, _, xi in part.snapshots], dtype=np.int32)
    its = [it for _, it, _ in part.snapshots]
    part.snapshots = []
    return part, its, labels


def _unpack_chain(
    packed: tuple[PosteriorTrace, list[int], np.ndarray], chain_id: int
) -> PosteriorTrace:
    part, its, labels = packed
    part.snapshots = [
        (chain_id, it, LinkageStructure(tuple(row))) for it, row in zip(its, labels.tolist())
    ]
    return part


# ---------------------------------------------------------------------------
# trace serialization


def write_trace_jsonl(trace: PosteriorTrace, path) -> None:
    """One JSON object per kept iteration; keys stable for byte determinism."""
    with open(path, "w") as fh:
        for idx in range(len(trace)):
            row = {
                "iter": trace.iters[idx],
                "chain": trace.chain_ids[idx],
                "K": trace.n_clusters[idx],
                "r": list(trace.size_counts[idx]),
                "psi": list(trace.psi[idx]),
                "logJoint": trace.log_joint[idx],
            }
            if trace.fnr is not None:
                row["fnr"] = trace.fnr[idx]
                row["fdr"] = trace.fdr[idx]
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_trace_jsonl(path) -> PosteriorTrace:
    """Rows written by write_trace_jsonl; a malformed row or an empty file
    raises DataError.  The trace does not record n, so the result's n is 0."""
    trace = PosteriorTrace(n=0)
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                row = json.loads(line)
                trace.iters.append(row["iter"])
                trace.chain_ids.append(row["chain"])
                trace.n_clusters.append(row["K"])
                trace.size_counts.append(tuple(row["r"]))
                trace.psi.append(tuple(row["psi"]))
                trace.log_joint.append(row["logJoint"])
                if "fnr" in row:
                    if trace.fnr is None:
                        trace.fnr = []
                        trace.fdr = []
                    trace.fnr.append(row["fnr"])
                    trace.fdr.append(row["fdr"])
            except KeyError as exc:
                raise DataError(f"trace file '{path}' line {line_no}: no key {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise DataError(f"trace file '{path}' line {line_no}: {exc}") from exc
    if not trace.iters:
        raise DataError(f"trace file '{path}' holds no rows")
    return trace


def write_snapshots_csv(trace: PosteriorTrace, path) -> None:
    """Integer rows: chain, iteration, then the canonical assignment vector."""
    with open(path, "w") as fh:
        for chain_id, it, xi in trace.snapshots:
            fh.write(",".join(map(str, (chain_id, it) + xi.assignments)) + "\n")


def read_snapshots_csv(path) -> list[tuple[int, int, LinkageStructure]]:
    """Rows written by write_snapshots_csv; a malformed row raises DataError."""
    out = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                parts = [int(v) for v in line.strip().split(",")]
                xi = LinkageStructure(tuple(parts[2:]))
                if out and xi.n != out[0][2].n:
                    raise ValueError(f"{xi.n} records, expected {out[0][2].n}")
            except ValueError as exc:
                raise DataError(f"snapshot file '{path}' line {line_no}: {exc}") from exc
            out.append((parts[0], parts[1], xi))
    return out
