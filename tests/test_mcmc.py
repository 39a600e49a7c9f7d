import copy
import json
import math
import multiprocessing
import os
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
from allelink.datagen import scenario_preset, simulate
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
    PosteriorTrace,
    SamplerConfig,
    chaperones_step,
    full_gibbs_scan,
    read_snapshots_csv,
    read_trace_jsonl,
    reallocation_pass,
    run_chain,
    write_snapshots_csv,
    write_trace_jsonl,
)
from allelink.partitions import LinkageStructure, matched_pairs
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


class TestMoves:
    def test_single_record_state_unchanged(self, rng):
        ds = make_dataset(np.array([[0, 1]]), cardinalities=(2, 2))
        prior = BbapParams(cap=2, a=(1.0,), b=(1.0,))
        state = ChainState(ds, prior, LikelihoodConfig(psi_fixed=0.1), rng)
        full_gibbs_scan(state, rng)
        assert state.linkage().assignments == (1,)

    def test_shared_pair_cluster_is_noop(self, rng):
        ds = small_dataset()
        state = ChainState(ds, small_prior(), LikelihoodConfig(psi_fixed=0.05), rng)
        # force records 0,1 together; chaperone pair inside a two-cluster
        state.reallocate_record(0, rng)
        while state.assign[0] != state.assign[1]:
            state.reallocate_record(0, rng)
        before = state.linkage().assignments

        class FixedPair:
            def sample(self, rng):
                return 0, 1

        chaperones_step(state, FixedPair(), rng, inner_sweeps=3)
        assert state.linkage().assignments == before

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
            counts[state.linkage().assignments] += 1
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
    return mcmc._sample_from_logw(logw, copy.deepcopy(rng), new_index=k)


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
        counts = Counter(xi.assignments for _, _, xi in trace.snapshots)
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
        assert min(trace.iters) == 100
        assert set(trace.chain_ids) == {0, 1}
        assert all(len(p) == 2 for p in trace.psi)
        assert trace.fnr is None
        assert len(trace.snapshots) == 2 * math.ceil(kept_per_chain / 5)

    def test_truth_adds_error_rates_consistent_with_pairsets(self):
        ds = small_dataset()
        truth = LinkageStructure((1, 1, 2, 3, 3))
        actual = matched_pairs(truth)
        cfg = SamplerConfig(iterations=60, burn_in=20, chains=1, seed=4,
                            check_every=50, snapshot_stride=1)
        trace = run_chain(cfg, ds, small_prior(), LikelihoodConfig(), truth)
        assert trace.fnr is not None and len(trace.fnr) == len(trace)
        for chain, it, xi in trace.snapshots:
            declared = matched_pairs(xi)
            fnr = len(actual - declared) / len(actual)
            fdr = len(declared - actual) / len(declared) if declared else 0.0
            row = trace.iters.index(it)
            assert math.isclose(trace.fnr[row], fnr, abs_tol=1e-12)
            assert math.isclose(trace.fdr[row], fdr, abs_tol=1e-12)

    def test_seeded_determinism(self):
        ds = small_dataset()
        cfg = SamplerConfig(iterations=300, burn_in=100, chains=2, seed=11, check_every=100)
        first = run_chain(cfg, ds, small_prior(), LikelihoodConfig())
        second = run_chain(cfg, ds, small_prior(), LikelihoodConfig())
        assert first.log_joint == second.log_joint
        assert first.size_counts == second.size_counts
        assert first.psi == second.psi
        assert [s[2].assignments for s in first.snapshots] == [
            s[2].assignments for s in second.snapshots
        ]

    def test_chains_agree_on_mean_cluster_count(self):
        ds = small_dataset()
        cfg = SamplerConfig(iterations=4_000, burn_in=1_000, chains=2, seed=2, check_every=2000)
        trace = run_chain(cfg, ds, small_prior(), LikelihoodConfig(psi_fixed=0.05))
        ks = np.array(trace.n_clusters, dtype=float)
        chains = np.array(trace.chain_ids)
        k0, k1 = ks[chains == 0], ks[chains == 1]
        pooled_se = math.sqrt(k0.var(ddof=1) / _ess(k0) + k1.var(ddof=1) / _ess(k1))
        assert abs(k0.mean() - k1.mean()) < 4 * pooled_se

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
        assert all(r[-1] > 0 for r in trace.size_counts)

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
        assert serial.chain_ids == parallel.chain_ids
        assert sorted(set(parallel.chain_ids)) == [0, 1, 2]
        assert serial.iters == parallel.iters
        assert serial.n_clusters == parallel.n_clusters
        assert serial.size_counts == parallel.size_counts
        assert serial.psi == parallel.psi
        assert serial.log_joint == parallel.log_joint
        assert serial.fnr == parallel.fnr
        assert serial.fdr == parallel.fdr
        assert (serial.fnr is None) == (truth is None)
        assert serial.snapshots == parallel.snapshots
        assert all(isinstance(xi, LinkageStructure) for _, _, xi in parallel.snapshots)
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
        assert sorted(set(trace.chain_ids)) == [0, 1]

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


class TestTraceIO:
    def test_jsonl_round_trip(self, tmp_path):
        ds = small_dataset()
        truth = LinkageStructure((1, 1, 2, 3, 3))
        cfg = SamplerConfig(iterations=40, burn_in=10, chains=2, seed=1, check_every=50)
        trace = run_chain(cfg, ds, small_prior(), LikelihoodConfig(), truth)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        loaded = read_trace_jsonl(path)
        assert loaded.iters == trace.iters
        assert loaded.size_counts == trace.size_counts
        assert loaded.log_joint == trace.log_joint
        assert loaded.fnr == trace.fnr

    def test_snapshot_round_trip(self, tmp_path):
        ds = small_dataset()
        cfg = SamplerConfig(iterations=40, burn_in=10, chains=1, seed=1, check_every=50,
                            snapshot_stride=3)
        trace = run_chain(cfg, ds, small_prior(), LikelihoodConfig())
        path = tmp_path / "snaps.csv"
        write_snapshots_csv(trace, path)
        loaded = read_snapshots_csv(path)
        assert [(c, i, xi.assignments) for c, i, xi in loaded] == [
            (c, i, xi.assignments) for c, i, xi in trace.snapshots
        ]

    def test_byte_identical_files_same_seed(self, tmp_path):
        ds = small_dataset()
        cfg = SamplerConfig(iterations=60, burn_in=20, chains=1, seed=9, check_every=50)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace_jsonl(run_chain(cfg, ds, small_prior(), LikelihoodConfig()), p1)
        write_trace_jsonl(run_chain(cfg, ds, small_prior(), LikelihoodConfig()), p2)
        assert p1.read_bytes() == p2.read_bytes()
