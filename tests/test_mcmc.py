import copy
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import allelink
from allelink import mcmc, priors
from allelink.datagen import DataError, scenario_preset, simulate
from allelink.likelihood import (
    DistortionState,
    LikelihoodConfig,
    make_dataset,
    new_cluster_marginal_loglik,
    record_loglik,
)
from allelink.mcmc import (
    ChainState,
    PairSampler,
    SamplerConfig,
    chaperones_step,
    read_snapshots_csv,
    read_trace_jsonl,
    reallocation_pass,
    run_chain,
    write_snapshots_csv,
    write_trace_jsonl,
)
from allelink.partitions import LinkageStructure, canonical_rows, matched_pairs
from allelink.priors import BbapParams, CalibrationSpec, EppParams, calibrate_recursive

from conftest import exact_partition_posterior, tv_distance


def small_dataset():
    values = np.array([[0, 0], [0, 0], [0, 1], [1, 1], [1, 1]])
    return make_dataset(values)


def small_prior(cap=3, n=5):
    return calibrate_recursive(CalibrationSpec("geometric", cap=cap, cv=0.25, p=0.5), n)


class TestSimilarityWeights:
    def test_identical_and_discordant_records(self):
        values = np.array([[0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [1, 2, 3, 4, 0]])
        ps = PairSampler(make_dataset(values), floor=0.1)
        assert math.isclose(ps.weight(0, 1), 5.1)
        assert math.isclose(ps.weight(0, 2), 0.1)

    def test_total_weight(self):
        values = np.array([[0], [0], [1]])
        ps = PairSampler(make_dataset(values), floor=0.1)
        # pairs: (0,1) share one field, (0,2) and (1,2) share none
        assert math.isclose(ps.total, 1.1 + 0.1 + 0.1)

    def test_every_pair_reachable(self, rng):
        values = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        ps = PairSampler(make_dataset(values), floor=0.1)
        seen = {ps.sample(rng) for _ in range(2000)}
        assert seen == {(i, j) for i in range(4) for j in range(i + 1, 4)}

    @pytest.mark.parametrize("floor", [0.1, 0.0])
    def test_uniforms_map_to_pairs_as_one_cumsum(self, floor):
        # repeated and distinct records; at floor 0 some pairs weigh nothing
        values = np.array([[0, 1, 2], [0, 1, 2], [0, 1, 0], [1, 2, 0], [0, 1, 2], [2, 0, 1]])
        ps = PairSampler(make_dataset(values), floor=floor)
        n = len(values)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        agreements = [int((values[i] == values[j]).sum()) for i, j in pairs]
        cum = np.cumsum([floor + a for a in agreements])
        assert ps.total == cum[-1]

        def expected(u):
            above = np.flatnonzero(cum > u * ps.total)
            return pairs[above[0]] if len(above) else pairs[-1]

        row_ends = [cum[k] / ps.total for k, (i, j) in enumerate(pairs) if j == n - 1]
        uniforms = [0.0, 1 - 2**-53, *row_ends, *np.nextafter(row_ends, 0.0)]
        uniforms += list(cum / ps.total) + list(np.random.default_rng(4).random(2000))
        draws = [ps.sample(StubUniforms([u])) for u in uniforms]
        assert draws == [expected(u) for u in uniforms]
        if floor > 0:
            assert ps.sample(StubUniforms([1 - 2**-53])) == pairs[-1]

    @pytest.mark.parametrize("n", [2, 3, 30])
    @pytest.mark.parametrize("floor", [0.1, 0.0])
    def test_row_ends_equal_one_cumsum(self, n, floor):
        values = np.random.default_rng(7).integers(0, 3, size=(n, 4))
        ps = PairSampler(make_dataset(values), floor=floor)
        weights = [floor + int((values[i] == values[j]).sum())
                   for i in range(n) for j in range(i + 1, n)]
        cum = np.cumsum(weights)
        ends = cum[np.cumsum(np.arange(n - 1, 0, -1)) - 1]
        assert np.array_equal(ps._ends, ends)
        assert ps.total == cum[-1]

    def test_weight_is_floor_plus_agreements(self):
        values = np.array([[0, 1, 2], [0, 1, 2], [0, 1, 0], [2, 0, 1]])
        ps = PairSampler(make_dataset(values), floor=0.1)
        assert [ps.weight(0, j) for j in (1, 2, 3)] == [3.1, 2.1, 0.1]
        assert ps.weight(3, 2) == ps.weight(2, 3) == 0.1

    def test_build_memory_stays_linear_in_n(self):
        # the n(n-1)/2 pair weights alone would take 36 MB here
        n, cards = 3000, (2, 12, 31, 51, 6)
        values = np.random.default_rng(2).integers(0, cards, size=(n, len(cards)))
        ds = make_dataset(values, cardinalities=cards)
        tracemalloc.start()
        try:
            ps = PairSampler(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ps.total > 0
        assert peak < 2 * 2**20, f"PairSampler build peaked at {peak / 2**20:.1f} MiB"


class StubUniforms:
    """A generator whose random() returns the given values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestMoves:
    def test_single_record_state_unchanged(self, rng):
        ds = make_dataset(np.array([[0, 1]]), cardinalities=(2, 2))
        prior = BbapParams(cap=2, a=(1.0,), b=(1.0,))
        state = ChainState(ds, prior, LikelihoodConfig(psi_fixed=0.1), rng)
        reallocation_pass(state, rng)
        state.resample_entities(rng)
        state.resample_distortion(rng)
        assert tuple(state.linkage().tolist()) == (1,)

    def test_shared_pair_cluster_is_noop(self, rng):
        ds = small_dataset()
        state = ChainState(ds, small_prior(), LikelihoodConfig(psi_fixed=0.05), rng)
        # force records 0,1 together; chaperone pair inside a two-cluster
        state.reallocate_record(0, rng)
        while state.assign[0] != state.assign[1]:
            state.reallocate_record(0, rng)
        before = tuple(state.linkage().tolist())

        class FixedPair:
            def sample(self, rng):
                return 0, 1

        chaperones_step(state, FixedPair(), rng, inner_sweeps=3)
        assert tuple(state.linkage().tolist()) == before

    def test_bounded_prior_never_violated(self, rng):
        values = np.zeros((8, 2), dtype=int)  # identical records push merging
        ds = make_dataset(values, cardinalities=(2, 2))
        prior = small_prior(cap=2, n=8)
        state = ChainState(ds, prior, LikelihoodConfig(psi_fixed=0.05), rng)
        ps = PairSampler(ds)
        for _ in range(500):
            if rng.random() < 0.5:
                chaperones_step(state, ps, rng, 3)
            else:
                reallocation_pass(state, rng)
            assert state.max_cluster_size() <= 2

    def test_zero_distortion_concentrates_on_duplicates(self, rng):
        from allelink.priors import log_density_bbap_linkage

        values = np.array([[0, 1, 2, 3], [0, 1, 2, 3], [4, 4, 4, 4]])
        ds = make_dataset(values, cardinalities=(5, 5, 5, 5))
        prior = small_prior(cap=2, n=3)
        psi = np.zeros(4)
        exact = exact_partition_posterior(
            ds.values, ds.freqs, psi, lambda xi: log_density_bbap_linkage(xi, prior)
        )
        # mixed clusters are impossible, duplicates dominate
        assert set(exact) == {(1, 1, 2), (1, 2, 3)}
        assert exact[(1, 1, 2)] > 0.8

        state = ChainState(ds, prior, LikelihoodConfig(psi_fixed=0.0), rng)
        counts = Counter()
        for _ in range(600):
            reallocation_pass(state, rng)
            state.resample_entities(rng)
            counts[tuple(state.linkage().tolist())] += 1
        empirical = {k: v / 600 for k, v in counts.items()}
        assert set(empirical) <= set(exact)
        assert tv_distance(empirical, exact) < 0.08

    def test_consistency_check_passes_under_stress(self, rng):
        ds = small_dataset()
        state = ChainState(ds, small_prior(), LikelihoodConfig(), rng)
        ps = PairSampler(ds)
        for step in range(300):
            if rng.random() < 0.7:
                chaperones_step(state, ps, rng, 4)
            else:
                reallocation_pass(state, rng)
            state.resample_entities(rng)
            state.resample_distortion(rng)
            if step % 25 == 0:
                state.consistency_check()


def _move_a_listed_member(state):
    donor = next(k for k in range(state.n_clusters) if state.sizes[k] >= 2)
    receiver = (donor + 1) % state.n_clusters
    state.members[receiver].append(state.members[donor].pop())


def _grow_a_size(state):
    state.sizes[0] += 1


def _shift_a_size_count(state):
    s = int(np.flatnonzero(state.size_counts)[0])
    state.size_counts[s] -= 1
    state.size_counts[s + 1] += 1


def _nan_psi(state):
    d = state.distortion
    psi = d.psi.copy()
    psi[0] = np.nan
    state.distortion = DistortionState(psi, d.prior_a, d.prior_b)


def _change_an_entity(state):
    # the entity moves to another value without its agreement planes
    d = state.dataset.cardinalities[0]
    state.entities[0, 0] = (state.entities[0, 0] + 1) % d


class TestConsistencyCheckDetects:
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_move_a_listed_member, "membership lists"),
            (_grow_a_size, "cluster sizes"),
            (_shift_a_size_count, "size counts"),
            (_nan_psi, "NaN"),
            (_change_an_entity, "agreement planes"),
        ],
        ids=[
            "member-moved", "size-off-by-one", "size-count-shifted", "nan-psi",
            "entity-without-plane",
        ],
    )
    def test_corrupted_state_raises(self, rng, corrupt, message):
        ds = small_dataset()
        state = ChainState(ds, small_prior(), LikelihoodConfig(), rng)
        while state.max_cluster_size() < 2:
            reallocation_pass(state, rng)
            state.resample_entities(rng)
        state.consistency_check()
        corrupt(state)
        with pytest.raises(RuntimeError, match=message):
            state.consistency_check()


def scalar_reallocation_choice(state, i, rng):
    """Where reallocate_record must put record i, from the scalar likelihood.

    Runs the removal on a copy of the state, scores every remaining cluster
    with record_loglik and a new one with the record's marginal, and makes
    the draw with a copy of the generator.
    """
    ref = copy.deepcopy(state)
    ref._remove_record(i)
    x = ref.dataset.values[i]
    join, new = priors._realloc_log_factors(ref.size_counts, ref.n - 1, ref.prior)
    k = ref.n_clusters
    logw = np.empty(k + 1)
    for c in range(k):
        logw[c] = join[ref.sizes[c]] + record_loglik(
            x, ref.entities[c], ref.distortion.psi, ref.freqs
        )
    logw[k] = new + new_cluster_marginal_loglik(x, ref.freqs)
    return mcmc._sample_from_logw(logw, copy.deepcopy(rng))


class TestTableKernelDraws:
    def _check_pass(self, state, rng):
        for i in range(state.n):
            expected = scalar_reallocation_choice(state, i, rng)
            state.reallocate_record(i, rng)
            # a new cluster takes the id after the remaining ones
            assert state.assign[i] == expected

    def _state(self, psi_fixed, cardinalities=(3, 3, 3)):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 3, size=(12, len(cardinalities)))
        ds = make_dataset(values, cardinalities=cardinalities)
        prior = small_prior(cap=4, n=12)
        return ChainState(ds, prior, LikelihoodConfig(psi_fixed=psi_fixed), rng), rng

    def test_same_draws_as_the_scalar_likelihood(self):
        state, rng = self._state(None)
        for _ in range(4):
            self._check_pass(state, rng)
            state.resample_entities(rng)
            state.resample_distortion(rng)

    def test_same_draws_after_the_distortion_is_replaced(self):
        state, rng = self._state(None)
        self._check_pass(state, rng)
        d = state.distortion
        state.distortion = DistortionState(np.array([0.6, 0.3, 0.9]), d.prior_a, d.prior_b)
        self._check_pass(state, rng)

    def test_same_draws_without_distortion(self):
        state, rng = self._state(0.0)
        for _ in range(4):
            self._check_pass(state, rng)
            state.resample_entities(rng)
            state.resample_distortion(rng)

    def test_same_draws_over_two_pattern_chunks(self):
        state, rng = self._state(None, cardinalities=(3,) * 10)
        assert len(state._planes.chunks) == 2
        for _ in range(4):
            self._check_pass(state, rng)
            state.resample_entities(rng)
            state.resample_distortion(rng)
            state.consistency_check()

    def test_same_draws_with_a_field_too_wide_for_the_planes(self):
        # three fields allow 8 x 2^3 = 64 plane rows; the last would need 80
        state, rng = self._state(None, cardinalities=(3, 3, 80))
        assert state._planes.offsets.tolist() == [0, 3, -1]
        for _ in range(4):
            self._check_pass(state, rng)
            state.resample_entities(rng)
            state.resample_distortion(rng)
            state.consistency_check()


def partition_state(labels, prior, like_config, cardinalities=(3, 3, 3), seed=11, values=None):
    """A chain state whose clusters are the groups of labels, built with the
    state's own moves, then with entities and (unless pinned) psi redrawn.
    The records are random unless values are given."""
    rng = np.random.default_rng(seed)
    if values is None:
        values = rng.integers(0, 3, size=(len(labels), len(cardinalities)))
        values[:, -1] = rng.integers(0, cardinalities[-1], size=len(labels))
    state = ChainState(make_dataset(values, cardinalities=cardinalities), prior, like_config, rng)
    first = {}
    for i, label in enumerate(labels):
        if label in first:
            state._remove_record(i)
            state._insert_record(i, int(state.assign[first[label]]), rng)
        else:
            first[label] = i
    state.resample_entities(rng)
    state.resample_distortion(rng)
    state.consistency_check()
    return state, rng


def assert_same_chain(state, rng, ref, ref_rng):
    """Every bit the sampler reads later: clusters, member order, entities,
    agreement planes and the generator."""
    k = state.n_clusters
    assert ref.n_clusters == k
    assert np.array_equal(state.assign, ref.assign)
    assert state.members == ref.members
    assert np.array_equal(state.sizes, ref.sizes)
    assert np.array_equal(state.size_counts, ref.size_counts)
    assert np.array_equal(state.entities[:k], ref.entities[:k])
    assert np.array_equal(state._planes.planes, ref._planes.planes)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


N_RUN = 12
RUN_CASES = {
    # name: (labels, prior, likelihood config, cardinalities)
    "singletons": (list(range(N_RUN)), small_prior(cap=4, n=N_RUN), LikelihoodConfig(), (3, 3, 3)),
    "at-bbap-cap": ([0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 4, 4], small_prior(cap=3, n=N_RUN),
                    LikelihoodConfig(), (3, 3, 3)),
    "epp-all-n-in-one": ([0] * N_RUN, EppParams(1.0), LikelihoodConfig(psi_fixed=0.2), (3, 3, 3)),
    "psi-zero-field": ([0, 1, 0, 1, 2, 2, 3, 4, 3, 5, 5, 6], small_prior(cap=4, n=N_RUN),
                       LikelihoodConfig(psi_fixed=(0.0, 0.3, 0.3)), (3, 3, 3)),
    "two-pattern-chunks": ([0, 1, 2, 0, 1, 2, 3, 3, 4, 5, 6, 6], small_prior(cap=4, n=N_RUN),
                           LikelihoodConfig(), (3,) * 10),
    "field-too-wide-for-planes": ([0, 0, 1, 1, 2, 3, 3, 4, 4, 5, 6, 6],
                                  small_prior(cap=4, n=N_RUN), LikelihoodConfig(), (3, 3, 80)),
    **{
        f"epp-K={k}": ([i % k for i in range(N_RUN)], EppParams(2.0), LikelihoodConfig(),
                       (3, 3, 3))
        for k in (1, 2, 5, N_RUN - 1, N_RUN)
    },
}
# under EPP, so that the block kernel meets a psi = 0 field, two pattern
# chunks and a compared field (epp-K=12 is the all-singleton twin)
RUN_CASES.update({
    f"epp-{name}": (RUN_CASES[name][0], EppParams(1.0), *RUN_CASES[name][2:])
    for name in ("psi-zero-field", "two-pattern-chunks", "field-too-wide-for-planes")
})


class TestRunPass:
    """reallocation_pass must end every bit of the state and the generator
    as the loop of reallocate_record over the records leaves them.  An EPP
    pass scores each run of non-singleton records in one block; a bbap pass
    goes record by record and scores none."""

    @pytest.mark.parametrize("run_entries", [mcmc.RUN_ENTRIES, 7])
    @pytest.mark.parametrize("case", list(RUN_CASES))
    def test_equals_the_per_record_loop(self, case, run_entries, monkeypatch):
        labels, prior, like_config, cardinalities = RUN_CASES[case]
        monkeypatch.setattr(mcmc, "RUN_ENTRIES", run_entries)
        blocks = []
        kernel = mcmc.lik.entity_logliks

        def counting(x, *args):
            blocks.append(x.ndim == 2)
            return kernel(x, *args)

        monkeypatch.setattr(mcmc.lik, "entity_logliks", counting)
        state, rng = partition_state(labels, prior, like_config, cardinalities)
        if case == "epp-all-n-in-one":
            assert state.n_clusters == 1 and state.sizes[0] == state.n
        paired = state.sizes[state.assign] > 1
        runs_at_start = bool((paired[1:] & paired[:-1]).any())
        ref, ref_rng = copy.deepcopy(state), copy.deepcopy(rng)
        for _ in range(4):
            reallocation_pass(state, rng)
            for i in range(ref.n):
                ref.reallocate_record(i, ref_rng)
            assert_same_chain(state, rng, ref, ref_rng)
            for chain, chain_rng in ((state, rng), (ref, ref_rng)):
                chain.resample_entities(chain_rng)
                chain.resample_distortion(chain_rng)
        state.consistency_check()
        if isinstance(prior, BbapParams):
            assert not any(blocks), "a bbap pass scored a block"
        elif runs_at_start and run_entries > N_RUN:
            assert any(blocks), "no run was scored as a block"

    def test_long_chain_equals_the_per_record_loop(self):
        # many passes from a random start: runs that end in moves, new
        # clusters and singletons between them
        rng0 = np.random.default_rng(5)
        values = rng0.integers(0, 4, size=(40, 4))
        ds = make_dataset(values, cardinalities=(4, 4, 4, 4))
        for prior in (small_prior(cap=5, n=40), EppParams(3.0)):
            rng = np.random.default_rng(9)
            state = ChainState(ds, prior, LikelihoodConfig(), rng)
            ref, ref_rng = copy.deepcopy(state), copy.deepcopy(rng)
            for _ in range(30):
                reallocation_pass(state, rng)
                for i in range(ref.n):
                    ref.reallocate_record(i, ref_rng)
                assert_same_chain(state, rng, ref, ref_rng)
                for chain, chain_rng in ((state, rng), (ref, ref_rng)):
                    chain.resample_entities(chain_rng)
                    chain.resample_distortion(chain_rng)


def new_cluster_logw(state, i):
    """A new cluster's log weight for record i once it leaves the state,
    computed on a copy."""
    ref = copy.deepcopy(state)
    ref._remove_record(i)
    _, new = ref._prior_factors()
    return new + ref._new_logliks[i]


class TestNewClusterWeight:
    """A new cluster's log weight is finite after any record's removal, so
    every reallocation has a positive weight to draw."""

    @pytest.mark.parametrize("case", list(RUN_CASES))
    def test_finite_for_every_record(self, case):
        labels, prior, like_config, cardinalities = RUN_CASES[case]
        state, _ = partition_state(labels, prior, like_config, cardinalities)
        for i in range(state.n):
            assert math.isfinite(new_cluster_logw(state, i)), i

    @pytest.mark.parametrize("prior", [small_prior(cap=5, n=40), EppParams(3.0)],
                             ids=["bbap", "epp"])
    def test_finite_through_a_chain(self, prior):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 4, size=(40, 4))
        state = ChainState(make_dataset(values, cardinalities=(4, 4, 4, 4)), prior,
                           LikelihoodConfig(), rng)
        for _ in range(30):
            reallocation_pass(state, rng)
            state.resample_entities(rng)
            state.resample_distortion(rng)
            for i in range(state.n):
                assert math.isfinite(new_cluster_logw(state, i)), i
        assert state.max_cluster_size() > 1


def loop_record_loglik(x, y, psi, freqs):
    """record_loglik as a loop over one record's fields."""
    out = 0.0
    for f in range(len(freqs)):
        p = psi[f] * freqs[f][x[f]]
        if x[f] == y[f]:
            p += 1.0 - psi[f]
        if p <= 0.0:
            return float("-inf")
        out += np.log(p)
    return float(out)


def sequential_chaperones_step(state, pair, rng, inner_sweeps):
    """The chaperone step as one restricted Gibbs update after another, each
    with its own uniform: what chaperones_step must equal."""
    i, j = pair
    ci, cj = int(state.assign[i]), int(state.assign[j])
    if ci == cj:
        return
    restricted = [u for u in state.members[ci] + state.members[cj] if u != i and u != j]
    if not restricted:
        return
    targets = np.array([ci, cj])
    psi, freqs = state.distortion.psi, state.freqs
    logliks = [
        np.array([loop_record_loglik(state.dataset.values[u], state.entities[c], psi, freqs)
                  for c in targets])
        for u in restricted
    ]
    for _ in range(inner_sweeps):
        for u, loglik in zip(restricted, logliks):
            state._remove_record(u)
            join, _ = priors._realloc_log_factors(state.size_counts, state.n - 1, state.prior)
            logw = join[state.sizes[targets]] + loglik
            if logw.max() == -np.inf:
                raise RuntimeError("restricted move found no admissible target")
            choice = mcmc._sample_from_logw(logw, rng)
            state._insert_record(u, int(targets[choice]), rng)


class FixedPair:
    def __init__(self, i, j):
        self.pair = (i, j)

    def sample(self, rng):
        return self.pair


class TestChaperoneNoOpCheck:
    """chaperones_step settles its updates in one check when no draw moves
    a record; the state and the generator must end as the sequential
    restricted updates leave them."""

    LABELS = [0, 0, 0, 1, 1, 2, 2, 2, 3, 4, 4, 5]

    @pytest.mark.parametrize("psi, family", [(0.5, "bbap"), (0.5, "epp"), (0.02, "bbap")],
                             ids=["forced-moves", "forced-moves-epp", "mostly-stays"])
    def test_equals_the_sequential_updates(self, psi, family):
        prior = small_prior(cap=5, n=len(self.LABELS)) if family == "bbap" else EppParams(1.0)
        state, rng = partition_state(self.LABELS, prior, LikelihoodConfig(psi_fixed=psi))
        ref, ref_rng = copy.deepcopy(state), copy.deepcopy(rng)
        moved = stayed = 0
        pairs = [(i, j) for i in range(state.n) for j in range(i + 1, state.n)]
        for step, (i, j) in enumerate(pairs * 2):
            sweeps = 1 + step % 5
            before = state.assign.copy()
            chaperones_step(state, FixedPair(i, j), rng, sweeps)
            sequential_chaperones_step(ref, (i, j), ref_rng, sweeps)
            assert_same_chain(state, rng, ref, ref_rng)
            if state.assign[i] != state.assign[j]:
                changed = not np.array_equal(before, state.assign)
                moved += changed
                stayed += not changed
        state.consistency_check()
        assert moved and stayed

    def test_all_stay_lists_each_anchor_before_its_records(self):
        # each cluster's records are copies of one row that no other shares
        values = np.repeat(np.array(self.LABELS)[:, None], 3, axis=1)
        state, rng = partition_state(self.LABELS, small_prior(cap=5, n=len(self.LABELS)),
                                     LikelihoodConfig(psi_fixed=0.01), (6, 6, 6),
                                     values=values)
        # records 0..2 and 5..7 share clusters; rotate the first one's list
        a, b = int(state.assign[1]), int(state.assign[6])
        state.members[a] = [1, 2, 0]
        ref, ref_rng = copy.deepcopy(state), copy.deepcopy(rng)
        chaperones_step(state, FixedPair(1, 6), rng, 3)
        sequential_chaperones_step(ref, (1, 6), ref_rng, 3)
        assert np.array_equal(state.assign, ref.assign)
        assert state.members[a] == [1, 2, 0] and state.members[b] == [6, 5, 7]
        assert_same_chain(state, rng, ref, ref_rng)

    def test_no_admissible_target_raises(self):
        # psi 0 in every field: record 1 disagrees with both entities
        values = np.array([[0, 0], [1, 0], [2, 0], [3, 0]])
        rng = np.random.default_rng(0)
        state = ChainState(make_dataset(values, cardinalities=(4, 2)), EppParams(1.0),
                           LikelihoodConfig(psi_fixed=0.0), rng)
        state._remove_record(1)
        state._insert_record(1, int(state.assign[0]), rng)
        ref = copy.deepcopy(state)
        with pytest.raises(RuntimeError, match="no admissible target"):
            sequential_chaperones_step(ref, (0, 2), copy.deepcopy(rng), 2)
        with pytest.raises(RuntimeError, match="no admissible target"):
            chaperones_step(state, FixedPair(0, 2), rng, 2)


def loop_log_joint(state):
    """log_joint with one pass over the records per field."""
    n, k = state.n, state.n_clusters
    out = priors.log_allelic_counts(state.size_counts, n, state.prior)
    out -= math.lgamma(n + 1)
    for s in np.flatnonzero(state.size_counts[1 : state.cap + 1]) + 1:
        c = int(state.size_counts[s])
        out += c * math.lgamma(s + 1) + math.lgamma(c + 1)
    entity_rows = state.entities[state.assign]
    psi, values = state.distortion.psi, state.dataset.values
    for f in range(state.dataset.n_fields):
        out += float(np.log(state.freqs[f])[state.entities[:k, f]].sum())
        p = psi[f] * state.freqs[f][values[:, f]]
        p = p + (1.0 - psi[f]) * (values[:, f] == entity_rows[:, f])
        with np.errstate(divide="ignore"):
            out += float(np.log(p).sum())
    if not state.psi_fixed:
        a, b = state.distortion.prior_a, state.distortion.prior_b
        log_beta_norm = np.array(
            [math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y) for x, y in zip(a, b)]
        )
        out += float(np.sum((a - 1) * np.log(psi) + (b - 1) * np.log1p(-psi) - log_beta_norm))
    return out


class TestLogJoint:
    @pytest.mark.parametrize("case", ["at-bbap-cap", "psi-zero-field", "two-pattern-chunks",
                                      "epp-all-n-in-one", "epp-K=5"])
    def test_equals_the_field_loop(self, case):
        labels, prior, like_config, cardinalities = RUN_CASES[case]
        state, rng = partition_state(labels, prior, like_config, cardinalities)
        for _ in range(5):
            got, expected = state.log_joint(), loop_log_joint(state)
            assert got == expected or (math.isnan(got) and math.isnan(expected))
            reallocation_pass(state, rng)
            state.resample_entities(rng)
            state.resample_distortion(rng)

    def test_equals_the_field_loop_at_scale(self):
        rng = np.random.default_rng(12)
        dims = (2, 12, 31, 51, 6)
        values = np.column_stack([rng.integers(0, d, size=400) for d in dims])
        state = ChainState(make_dataset(values, cardinalities=dims), EppParams(150.0),
                           LikelihoodConfig(), rng)
        for _ in range(3):
            reallocation_pass(state, rng)
            state.resample_entities(rng)
            state.resample_distortion(rng)
            assert state.log_joint() == loop_log_joint(state)


class TestMemory:
    def test_distinct_field_keeps_memory_linear_in_n(self):
        # an identifier column has n values; giving it plane rows would take
        # n^2 bytes (400 MB here), so it is compared instead
        rng = np.random.default_rng(4)
        n = 20_000
        dims = (2, 12, 31, 51, 6)
        values = np.column_stack(
            [rng.integers(0, d, size=n) for d in dims] + [np.arange(n)]
        )
        ds = make_dataset(values)
        tracemalloc.start()
        try:
            state = ChainState(ds, EppParams(1.0), LikelihoodConfig(), rng)
            for i in rng.choice(n, 50, replace=False):
                state.reallocate_record(int(i), rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"chain state peaked at {peak / 2**20:.1f} MiB"
        assert state._planes.offsets[-1] == -1


class TestExactPosterior:
    @pytest.mark.parametrize(
        "family, move_mix",
        [
            pytest.param("bbap", 0.0, id="0.0"),
            pytest.param("bbap", 0.9, id="0.9"),
            pytest.param("epp", 0.0, id="epp-0.0"),
            pytest.param("epp", 0.9, id="epp-0.9"),
        ],
    )
    def test_reduced_scale_total_variation(self, family, move_mix):
        ds = small_dataset()
        prior, log_density = {
            "bbap": (small_prior(), priors.log_density_bbap_linkage),
            "epp": (EppParams(1.0), priors.log_density_epp_linkage),
        }[family]
        psi = np.array([0.05, 0.05])
        exact = exact_partition_posterior(
            ds.values, ds.freqs, psi, lambda xi: log_density(xi, prior)
        )
        cfg = SamplerConfig(
            iterations=31_000, burn_in=1_000, chains=1, seed=3,
            move_mix=move_mix, snapshot_stride=1, check_every=10_000,
        )
        trace = run_chain(cfg, ds, prior, LikelihoodConfig(psi_fixed=0.05))
        counts = Counter(map(tuple, trace.snapshots[:, 2:].tolist()))
        total = sum(counts.values())
        empirical = {k: v / total for k, v in counts.items()}
        assert tv_distance(empirical, exact) < 0.08


class TestRunChain:
    def test_trace_shapes_and_burnin(self):
        ds = small_dataset()
        cfg = SamplerConfig(iterations=220, burn_in=100, thin=3, chains=2, seed=0,
                            check_every=100, snapshot_stride=5)
        trace = run_chain(cfg, ds, small_prior(), LikelihoodConfig())
        kept_per_chain = math.ceil((220 - 100) / 3)
        assert len(trace) == 2 * kept_per_chain
        assert min(row["iter"] for row in trace.rows) == 100
        assert {row["chain"] for row in trace.rows} == {0, 1}
        assert all(len(row["psi"]) == 2 for row in trace.rows)
        assert all("fnr" not in row and "fdr" not in row for row in trace.rows)
        assert len(trace.snapshots) == 2 * math.ceil(kept_per_chain / 5)

    def test_truth_adds_error_rates_consistent_with_pairsets(self):
        ds = small_dataset()
        truth = LinkageStructure((1, 1, 2, 3, 3))
        actual = matched_pairs(truth)
        cfg = SamplerConfig(iterations=60, burn_in=20, chains=1, seed=4,
                            check_every=50, snapshot_stride=1)
        trace = run_chain(cfg, ds, small_prior(), LikelihoodConfig(), truth)
        assert all("fnr" in row and "fdr" in row for row in trace.rows)
        for chain, it, *labels in trace.snapshots.tolist():
            declared = matched_pairs(LinkageStructure(labels))
            fnr = len(actual - declared) / len(actual)
            fdr = len(declared - actual) / len(declared) if declared else 0.0
            kept = next(row for row in trace.rows if row["iter"] == it)
            assert math.isclose(kept["fnr"], fnr, abs_tol=1e-12)
            assert math.isclose(kept["fdr"], fdr, abs_tol=1e-12)

    def test_seeded_determinism(self):
        ds = small_dataset()
        cfg = SamplerConfig(iterations=300, burn_in=100, chains=2, seed=11, check_every=100)
        first = run_chain(cfg, ds, small_prior(), LikelihoodConfig())
        second = run_chain(cfg, ds, small_prior(), LikelihoodConfig())
        for key in ("logJoint", "r", "psi"):
            assert [row[key] for row in first.rows] == [row[key] for row in second.rows]
        assert first.snapshots[:, 2:].tolist() == second.snapshots[:, 2:].tolist()

    def test_chains_agree_on_mean_cluster_count(self):
        ds = small_dataset()
        cfg = SamplerConfig(iterations=4_000, burn_in=1_000, chains=2, seed=2, check_every=2000)
        trace = run_chain(cfg, ds, small_prior(), LikelihoodConfig(psi_fixed=0.05))
        ks = np.array([row["K"] for row in trace.rows], dtype=float)
        chains = np.array([row["chain"] for row in trace.rows])
        k0, k1 = ks[chains == 0], ks[chains == 1]
        pooled_se = math.sqrt(k0.var(ddof=1) / _ess(k0) + k1.var(ddof=1) / _ess(k1))
        assert abs(k0.mean() - k1.mean()) < 4 * pooled_se

    def test_nan_chaperone_floor_rejected(self):
        with pytest.raises(ValueError, match="chaperone_floor"):
            SamplerConfig(iterations=100, burn_in=0, chaperone_floor=math.nan)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(iterations=100, burn_in=100)
        with pytest.raises(ValueError):
            SamplerConfig(iterations=100, burn_in=-1)
        with pytest.raises(ValueError):
            SamplerConfig(iterations=100, burn_in=0, thin=0)
        with pytest.raises(ValueError):
            SamplerConfig(iterations=100, burn_in=0, move_mix=1.5)

    def test_epp_prior_runs(self):
        ds = small_dataset()
        cfg = SamplerConfig(iterations=200, burn_in=50, chains=1, seed=6, check_every=100)
        trace = run_chain(cfg, ds, EppParams(1.0), LikelihoodConfig())
        assert len(trace) == 150
        # size counts are trimmed to the largest occupied size
        assert all(row["r"][-1] > 0 for row in trace.rows)

    def test_no_pair_sampler_without_chaperone_moves(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("pair sampler built at move_mix 0")

        monkeypatch.setattr(mcmc.PairSampler, "__init__", refuse)
        cfg = SamplerConfig(iterations=30, burn_in=10, chains=2, seed=5, move_mix=0.0)
        trace = run_chain(cfg, small_dataset(), small_prior(), LikelihoodConfig())
        assert len(trace) == 40

    def test_epp_chain_keeps_one_factor_entry(self, rng):
        ds = small_dataset()
        state = ChainState(ds, EppParams(5.0), LikelihoodConfig(psi_fixed=0.05), rng)
        before = state.size_counts.copy()
        reallocation_pass(state, rng)
        # the factors depend on n alone, so changed counts add no entry
        assert not np.array_equal(state.size_counts, before)
        assert len(state._factor_cache) == 1

    def test_bbap_factor_cache_stays_within_its_entry_bound(self, rng, monkeypatch):
        ds = small_dataset()
        monkeypatch.setattr(mcmc, "FACTOR_CACHE_ENTRIES", 3)
        state = ChainState(ds, small_prior(), LikelihoodConfig(), rng)
        calls = []

        def stub(size_counts, n_minus, params):
            calls.append(1)
            return np.zeros(params.cap + 1), 0.0

        monkeypatch.setattr(priors, "_realloc_log_factors", stub)
        for step in range(20):
            state.size_counts[1] = step  # a fresh key every time
            state._prior_factors()
            assert 1 <= len(state._factor_cache) <= 3
        # every fresh state is a miss and is recomputed
        assert len(calls) == 20


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


def use_cpus(monkeypatch, count):
    """Make run_chain see `count` usable CPUs, however many the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def scenario_dataset():
    spec = scenario_preset(2, n_clusters=20, psi=0.02, seed=3)
    values, truth, _ = simulate(spec)
    return make_dataset(values, spec.cardinalities), truth


def exit_in_workers(monkeypatch, code):
    """Make a forked worker exit with `code` before it runs a chain."""
    parent = os.getpid()
    original = mcmc._run_one_chain

    def exits_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(code)
        return original(*args, **kwargs)

    monkeypatch.setattr(mcmc, "_run_one_chain", exits_in_a_worker)


@needs_fork
class TestParallelChains:
    CONFIG = SamplerConfig(iterations=120, burn_in=40, thin=2, chains=3, seed=8,
                           check_every=30, snapshot_stride=3)

    @pytest.mark.parametrize("with_truth", [False, True])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_trace_does_not_depend_on_cpu_count(self, monkeypatch, cpus, with_truth):
        ds, truth = scenario_dataset()
        truth = truth if with_truth else None
        use_cpus(monkeypatch, 1)
        serial = run_chain(self.CONFIG, ds, small_prior(n=ds.n), LikelihoodConfig(), truth)
        use_cpus(monkeypatch, cpus)
        parallel = run_chain(self.CONFIG, ds, small_prior(n=ds.n), LikelihoodConfig(), truth)
        assert sorted({row["chain"] for row in parallel.rows}) == [0, 1, 2]
        assert serial.rows == parallel.rows
        assert all(("fnr" in row) == (truth is not None) for row in serial.rows)
        assert np.array_equal(serial.snapshots, parallel.snapshots)
        assert parallel.snapshots.dtype == np.int32
        assert multiprocessing.active_children() == []

    def test_worker_failure_is_raised_in_the_parent(self, monkeypatch):
        parent = os.getpid()
        original = ChainState.consistency_check

        def fails_in_a_worker(state):
            if os.getpid() != parent:
                raise RuntimeError("cluster sizes out of sync with assignments")
            original(state)

        monkeypatch.setattr(ChainState, "consistency_check", fails_in_a_worker)
        use_cpus(monkeypatch, 2)
        ds, _ = scenario_dataset()
        with pytest.raises(RuntimeError, match="^cluster sizes out of sync with assignments$"):
            run_chain(self.CONFIG, ds, small_prior(n=ds.n), LikelihoodConfig())
        assert multiprocessing.active_children() == []

    def test_worker_failure_is_raised_before_the_parent_chain_ends(self, monkeypatch):
        parent = os.getpid()
        original = ChainState.consistency_check

        def fails_in_a_worker(state):
            if os.getpid() != parent:
                raise RuntimeError("cluster sizes out of sync with assignments")
            original(state)

        monkeypatch.setattr(ChainState, "consistency_check", fails_in_a_worker)
        use_cpus(monkeypatch, 2)
        ds, _ = scenario_dataset()
        # the parent's own chain would run for about 3 s; the worker fails at sweep 10
        cfg = SamplerConfig(iterations=3000, burn_in=10, chains=2, seed=8, check_every=10)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^cluster sizes out of sync with assignments$"):
            run_chain(cfg, ds, small_prior(n=ds.n), LikelihoodConfig())
        assert time.monotonic() - start < 0.5
        assert multiprocessing.active_children() == []

    def test_parent_failure_stops_the_workers(self, monkeypatch):
        parent = os.getpid()

        message = "bounded prior violated: cluster exceeds the cap"

        def fails_in_the_parent(state):
            if os.getpid() == parent:
                raise RuntimeError(message)

        monkeypatch.setattr(ChainState, "consistency_check", fails_in_the_parent)
        use_cpus(monkeypatch, 3)
        ds, _ = scenario_dataset()
        # each worker's chain would run for about 100 s if it were not stopped
        cfg = SamplerConfig(iterations=10**5, burn_in=1, chains=3, seed=8, check_every=10)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            run_chain(cfg, ds, small_prior(n=ds.n), LikelihoodConfig())
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_worker_that_exits_without_its_chains(self, monkeypatch):
        exit_in_workers(monkeypatch, 3)
        use_cpus(monkeypatch, 2)
        ds, _ = scenario_dataset()
        cfg = SamplerConfig(iterations=20, burn_in=10, chains=2, seed=8)
        with pytest.raises(RuntimeError, match="exited with code 3 before sending its chains"):
            run_chain(cfg, ds, small_prior(n=ds.n), LikelihoodConfig())
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("caller", ["with another thread", "daemonic"])
    def test_chains_stay_in_process_where_a_fork_is_unsafe(self, monkeypatch, caller):
        exit_in_workers(monkeypatch, 3)
        use_cpus(monkeypatch, 2)
        ds, _ = scenario_dataset()
        cfg = SamplerConfig(iterations=20, burn_in=10, chains=2, seed=8)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if caller == "daemonic":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        else:
            thread.start()
        try:
            trace = run_chain(cfg, ds, small_prior(n=ds.n), LikelihoodConfig())
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert sorted({row["chain"] for row in trace.rows}) == [0, 1]

    @pytest.mark.skipif(not os.path.exists("/proc/self/task"), reason="needs /proc")
    def test_worker_exits_when_its_parent_is_killed(self, tmp_path):
        config = {
            "scenario": {"id": 2, "clusters": 30, "psi": 0.02, "seed": 5},
            "prior": {"family": "bbap", "cap": 6},
            "sampler": {"iterations": 10**7, "burn_in": 10, "chains": 2},
            "output_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from allelink.cli import main\n"
            f"sys.exit(main(['run', '--config', {str(config_path)!r}]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(allelink.__file__)))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            worker = _wait_for_child(proc.pid, timeout=60)
            time.sleep(1.0)
        finally:
            proc.kill()
            proc.wait()
        assert worker is not None, "the run started no worker"
        deadline = time.monotonic() + 5
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _running(worker):
            os.kill(worker, signal.SIGKILL)
            pytest.fail("the worker outlived its parent by more than 5 s")


def _wait_for_child(pid: int, timeout: float) -> int | None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as fh:
                    children = fh.read().split()
                if children:
                    return int(children[0])
        except FileNotFoundError:
            return None
        time.sleep(0.05)
    return None


def _running(pid: int) -> bool:
    """True while the process exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def _ess(x: np.ndarray) -> float:
    # crude effective sample size from the lag-1 autocorrelation
    if x.var() == 0:
        return len(x)
    rho = np.corrcoef(x[:-1], x[1:])[0, 1]
    rho = min(max(rho, 0.0), 0.999)
    return max(len(x) * (1 - rho) / (1 + rho), 4.0)


class TestSnapshotMatrix:
    @pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
    def test_int32_rows_the_reader_gives_back(self, monkeypatch, tmp_path, cpus):
        ds, _ = scenario_dataset()
        use_cpus(monkeypatch, cpus)
        cfg = SamplerConfig(iterations=60, burn_in=20, chains=2, seed=5,
                            check_every=30, snapshot_stride=4)
        snapshots = run_chain(cfg, ds, small_prior(n=ds.n), LikelihoodConfig()).snapshots
        # 40 kept sweeps per chain, every fourth one a snapshot
        assert snapshots.dtype == np.int32
        assert snapshots.shape == (20, ds.n + 2)
        assert snapshots[:, 0].tolist() == [0] * 10 + [1] * 10
        assert snapshots[:, 1].tolist() == list(range(20, 60, 4)) * 2
        assert canonical_rows(snapshots[:, 2:]).all()
        path = tmp_path / "snaps.csv"
        write_snapshots_csv(mcmc.PosteriorTrace(snapshots=snapshots), path)
        read = read_snapshots_csv(path, ds.n)
        assert read.dtype == np.int32
        assert np.array_equal(read, snapshots)


class TestTraceIO:
    def test_jsonl_round_trip(self, tmp_path):
        ds = small_dataset()
        truth = LinkageStructure((1, 1, 2, 3, 3))
        cfg = SamplerConfig(iterations=40, burn_in=10, chains=2, seed=1, check_every=50)
        trace = run_chain(cfg, ds, small_prior(), LikelihoodConfig(), truth)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        loaded = read_trace_jsonl(path)
        assert loaded.rows == trace.rows

    def test_snapshot_round_trip(self, tmp_path):
        ds = small_dataset()
        cfg = SamplerConfig(iterations=40, burn_in=10, chains=1, seed=1, check_every=50,
                            snapshot_stride=3)
        trace = run_chain(cfg, ds, small_prior(), LikelihoodConfig())
        path = tmp_path / "snaps.csv"
        write_snapshots_csv(trace, path)
        rows = read_snapshots_csv(path)
        assert rows.dtype == np.int32
        assert rows.tolist() == trace.snapshots.tolist()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,436,1,2,x,3", "invalid literal for int() with base 10: 'x'"),
            ("0,436,1,0,2,3", "got label 0 after 1 clusters"),
            ("0,436,0,1,2,3", "got label 0 after 0 clusters"),
            ("", "invalid literal for int() with base 10: ''"),
        ],
        ids=["non-integer", "label-0", "label-0-first", "blank"],
    )
    def test_malformed_row_is_named_by_its_line(self, tmp_path, row, message):
        rows = [f"{it % 2},{it},1,2,1,3" for it in range(500)]
        rows[436] = row
        path = tmp_path / "snaps.csv"
        path.write_text("".join(r + "\n" for r in rows))
        with pytest.raises(DataError, match=re.escape(f"snaps.csv' line 437: ") + ".*"
                           + re.escape(message)):
            read_snapshots_csv(path)

    def test_line_reader_gives_the_same_int32_matrix(self, tmp_path):
        # "1_0" parses as int() parses it but not in the bulk parse, so the
        # file goes through the line reader; a value outside int32 is named
        path = tmp_path / "snaps.csv"
        path.write_text("0,1_0,1,2\n1,10,1,1\n")
        rows = read_snapshots_csv(path)
        assert rows.dtype == np.int32
        assert rows.tolist() == [[0, 10, 1, 2], [1, 10, 1, 1]]
        path.write_text("0,10,1,2\n1,3000000000,1,1\n")
        with pytest.raises(DataError, match="snaps.csv' line 2: .*out of bounds for int32"):
            read_snapshots_csv(path)

    @pytest.mark.parametrize(
        "text, n, message",
        [
            (None, None, "no linkage snapshots at '{path}'; run the sampler first"),
            ("", None, "snapshot file '{path}' holds no samples"),
            ("0,0,1,1,2\n0,2,1,2,2\n", 4, "snapshot file '{path}': 3 records, expected 4"),
            ("0,0,1,1,2\n0,2,1,2,2\n", 2, "snapshot file '{path}': 3 records, expected 2"),
        ],
        ids=["missing", "empty", "more-records", "fewer-records"],
    )
    def test_snapshot_file_checks(self, tmp_path, text, n, message):
        path = tmp_path / "snaps.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(DataError, match=re.escape(message.format(path=path))):
            read_snapshots_csv(path, n)
        if n is not None:
            assert read_snapshots_csv(path, 3).shape == (2, 5)

    @pytest.mark.parametrize(
        "rows, n, message",
        [
            (None, 3, "no trace at '{path}'; run the sampler first"),
            ([[3], [1, 1], [0, 0, 1]], 4, "trace file '{path}' line 1: 3 records, expected 4"),
            ([[3], [1, 1], [0, 2]], 3, "trace file '{path}' line 3: 4 records, expected 3"),
        ],
        ids=["missing", "other-record-count", "one-row-off"],
    )
    def test_trace_file_checks(self, tmp_path, rows, n, message):
        path = tmp_path / "trace.jsonl"
        if rows is not None:
            path.write_text("".join(
                json.dumps({"iter": it, "chain": 0, "K": sum(r), "r": r, "psi": [0.01],
                            "logJoint": -1.0}) + "\n"
                for it, r in enumerate(rows)
            ))
        with pytest.raises(DataError, match=re.escape(message.format(path=path))):
            read_trace_jsonl(path, n)
        if rows is not None:
            assert len(read_trace_jsonl(path)) == 3

    def test_byte_identical_files_same_seed(self, tmp_path):
        ds = small_dataset()
        cfg = SamplerConfig(iterations=60, burn_in=20, chains=1, seed=9, check_every=50)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace_jsonl(run_chain(cfg, ds, small_prior(), LikelihoodConfig()), p1)
        write_trace_jsonl(run_chain(cfg, ds, small_prior(), LikelihoodConfig()), p2)
        assert p1.read_bytes() == p2.read_bytes()
