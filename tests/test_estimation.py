import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from allelink import estimation
from allelink.estimation import (
    GreedyConfig,
    LOSS_KINDS,
    _GreedyEngine,
    expected_posterior_loss,
    greedy_epl,
    pairwise_loss,
)
from allelink.partitions import (
    LinkageStructure,
    canonicalize,
    enumerate_partitions,
    matched_pairs,
)


def random_partition(rng, n, spread=4):
    return canonicalize(rng.integers(0, spread, size=n))


class TestPairwiseLoss:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_zero_on_equal(self, kind, rng):
        for _ in range(10):
            xi = random_partition(rng, 8)
            assert pairwise_loss(xi, xi, kind) == 0.0

    def test_binder_hand_value(self):
        a = LinkageStructure((1, 1, 2))
        b = LinkageStructure((1, 2, 2))
        # pairs (0,1) and (1,2) disagree out of three
        assert math.isclose(pairwise_loss(a, b, "binder"), 2.0 / 3.0)

    def test_vi_hand_value(self):
        a = LinkageStructure((1, 2, 3, 4))
        b = LinkageStructure((1, 1, 1, 1))
        assert math.isclose(pairwise_loss(a, b, "vi"), math.log(4))

    def test_nid_trivial_pair(self):
        # both single-block: the 0/0 convention gives zero distance
        a = LinkageStructure((1, 1, 1))
        assert pairwise_loss(a, a, "nid") == 0.0
        singletons = LinkageStructure((1, 2, 3))
        assert pairwise_loss(singletons, singletons, "nid") == 0.0
        assert pairwise_loss(a, singletons, "nid") == 1.0

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_symmetry_and_label_invariance(self, kind, rng):
        for _ in range(15):
            a = random_partition(rng, 9)
            b = random_partition(rng, 9)
            assert math.isclose(
                pairwise_loss(a, b, kind), pairwise_loss(b, a, kind), abs_tol=1e-12
            )
            perm = rng.permutation(9)
            a_renamed = canonicalize([a.assignments[p] for p in perm])
            b_renamed = canonicalize([b.assignments[p] for p in perm])
            assert math.isclose(
                pairwise_loss(a, b, kind),
                pairwise_loss(a_renamed, b_renamed, kind),
                abs_tol=1e-12,
            )

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_zero_iff_equal_partition(self, kind, rng):
        for _ in range(20):
            a = random_partition(rng, 7)
            b = random_partition(rng, 7)
            loss = pairwise_loss(a, b, kind)
            if a.assignments == b.assignments:
                assert loss == 0.0
            else:
                assert loss > 1e-12

    def test_binder_equals_pair_error_fraction(self, rng):
        # cross-check against the pair-set error counts
        for _ in range(20):
            a = random_partition(rng, 10)
            b = random_partition(rng, 10)
            pa, pb = matched_pairs(a), matched_pairs(b)
            fn = len(pb - pa)
            fp = len(pa - pb)
            assert math.isclose(pairwise_loss(a, b, "binder"), (fn + fp) / 45.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_loss(LinkageStructure((1, 1)), LinkageStructure((1, 1, 2)), "vi")
        with pytest.raises(ValueError):
            pairwise_loss(LinkageStructure((1, 1)), LinkageStructure((1, 2)), "nope")


class TestExpectedPosteriorLoss:
    def test_single_identical_sample(self):
        xi = LinkageStructure((1, 1, 2, 3))
        assert expected_posterior_loss(xi, [xi], "binder") == 0.0

    def test_linearity_two_samples(self, rng):
        c = random_partition(rng, 8)
        s1 = random_partition(rng, 8)
        s2 = random_partition(rng, 8)
        got = expected_posterior_loss(c, [s1, s2], "vi")
        expected = 0.5 * (pairwise_loss(c, s1, "vi") + pairwise_loss(c, s2, "vi"))
        assert math.isclose(got, expected)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_direct_loop(self, kind, rng):
        for _ in range(5):
            c = random_partition(rng, 6)
            samples = [random_partition(rng, 6) for _ in range(7)]
            direct = sum(pairwise_loss(c, s, kind) for s in samples) / 7
            assert math.isclose(expected_posterior_loss(c, samples, kind), direct)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            expected_posterior_loss(LinkageStructure((1,)), [], "binder")

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_pairwise_oracle(self, kind, monkeypatch):
        """All samples' losses come from one vectorized pass.  Binder's pair
        counts are exact integers, so it equals the oracle's mean bit for
        bit.  VI and NID add the same per-cell log terms, but in sorted
        cell order (a bincount) where the oracle adds them in its Counter's
        first-appearance order, so they agree only to rounding.  Splitting
        the samples into blocks changes no value."""
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(80):
            n = int(rng.integers(1, 61))
            spread = lambda: int(rng.integers(1, n + 1))  # noqa: E731
            candidate = random_partition(rng, n, spread())
            samples = [random_partition(rng, n, spread()) for _ in range(rng.integers(1, 41))]
            cases.append((candidate, samples))
        for n in (1, 2, 7):
            one = LinkageStructure((1,) * n)
            singletons = canonicalize(range(n))
            # both trivial partitions, against each other and themselves: NID's 0/0 case
            for candidate in (one, singletons):
                cases.append((candidate, [one, singletons, one]))
        # a candidate with more clusters than any sample
        cases.append((canonicalize(range(12)), [random_partition(rng, 12, 3) for _ in range(5)]))
        for candidate, samples in cases:
            oracle = sum(pairwise_loss(candidate, s, kind) for s in samples) / len(samples)
            got = expected_posterior_loss(candidate, samples, kind)
            matrix = np.array([s.assignments for s in samples], dtype=np.int32)
            with monkeypatch.context() as blocks:
                blocks.setattr(estimation, "_BLOCK_ENTRIES", 50)
                assert expected_posterior_loss(candidate, matrix, kind) == got
            if kind == "binder":
                assert got == oracle
            else:
                assert math.isclose(got, oracle, rel_tol=1e-12, abs_tol=1e-15)

    def test_non_canonical_matrix_rejected(self):
        with pytest.raises(ValueError, match="first-appearance order"):
            expected_posterior_loss(LinkageStructure((1, 2)), np.array([[2, 1]]), "vi")


def perturbed_samples(rng, base: LinkageStructure, count: int, flips: int = 1):
    """Posterior-style sample set: the base partition with a few records moved."""
    out = []
    n = base.n
    for _ in range(count):
        labels = list(base.assignments)
        for _ in range(flips):
            i = int(rng.integers(n))
            labels[i] = int(rng.integers(1, max(labels) + 2))
        out.append(canonicalize(labels))
    return out


class TestGreedyEpl:
    def test_identical_samples_returns_that_partition(self):
        xi = LinkageStructure((1, 2, 2, 3, 1))
        est = greedy_epl([xi] * 5, "binder", GreedyConfig(seed=0))
        assert est.assignments == xi.assignments

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_never_worse_than_init_and_monotone(self, kind, rng):
        base = canonicalize([1, 1, 2, 2, 3, 4, 4, 5, 5, 5])
        samples = perturbed_samples(rng, base, 12, flips=2)
        for seed in range(4):
            engine = _GreedyEngine(samples, kind, GreedyConfig(seed=seed))
            init = canonicalize(engine.assign + 1)
            assert init in samples
            # the direct expected loss after every applied move
            path = [expected_posterior_loss(init, samples, kind)]
            apply = engine._apply

            def recording_apply(*args):
                apply(*args)
                path.append(
                    expected_posterior_loss(canonicalize(engine.assign + 1), samples, kind)
                )

            engine._apply = recording_apply
            est = engine.run()
            assert all(b <= a + 1e-9 for a, b in zip(path, path[1:]))
            final = expected_posterior_loss(est, samples, kind)
            assert final == path[-1]
            assert final <= path[0] + 1e-9

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_exhaustive_minimizer_small(self, kind, rng):
        base = canonicalize([1, 1, 2, 3, 3, 4])
        samples = perturbed_samples(rng, base, 10)
        best = None
        for xi in enumerate_partitions(6):
            epl = expected_posterior_loss(xi, samples, kind)
            if best is None or epl < best[0] - 1e-12:
                best = (epl, xi)
        hits = 0
        for seed in range(10):
            est = greedy_epl(samples, kind, GreedyConfig(seed=seed))
            hits += math.isclose(
                expected_posterior_loss(est, samples, kind), best[0], abs_tol=1e-9
            )
        assert hits >= 9

    def test_max_clusters_blocks_growth(self, rng):
        samples = [canonicalize(rng.integers(0, 6, size=12)) for _ in range(8)]
        for seed in range(5):
            cap = max(s.n_clusters for s in samples)
            engine = _GreedyEngine(samples, "binder", GreedyConfig(seed=seed, max_clusters=cap))
            init_clusters = engine.n_clusters
            est = engine.run()
            assert est.n_clusters <= max(cap, init_clusters)
            engine = _GreedyEngine(samples, "binder", GreedyConfig(seed=seed, max_clusters=1))
            init_clusters = engine.n_clusters
            tight = engine.run()
            # nothing may be created beyond the initialization's clusters
            assert tight.n_clusters <= init_clusters

    def test_sweep_budget_is_a_hard_stop(self, rng):
        samples = [random_partition(rng, 10) for _ in range(6)]
        est = greedy_epl(samples, "vi", GreedyConfig(seed=2, sweeps=1))
        assert est.n == 10

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_label_matrix_gives_the_same_estimate(self, kind, rng):
        samples = perturbed_samples(rng, canonicalize([1, 1, 2, 3, 3, 4, 4, 5]), 9, flips=2)
        matrix = np.array([s.assignments for s in samples], dtype=np.int32)
        config = GreedyConfig(seed=3)
        assert greedy_epl(matrix, kind, config) == greedy_epl(samples, kind, config)

    def test_candidate_scores_match_direct_epl_deltas(self, rng):
        # at every state the search passes through, each single move's score
        # against a brute-force recomputation of the expected loss
        base = canonicalize([1, 1, 2, 3, 3])
        samples = perturbed_samples(rng, base, 6)
        for kind, seed in itertools.product(LOSS_KINDS, range(3)):
            engine = _GreedyEngine(samples, kind, GreedyConfig(seed=seed))
            moved = True
            while moved:
                moved = False
                current = expected_posterior_loss(canonicalize(engine.assign + 1), samples, kind)
                for i in engine.rng.permutation(engine.n):
                    i = int(i)
                    a = int(engine.assign[i])
                    score, new_score = engine._scores(i, engine._match_entries(i))
                    scores = np.append(score, new_score)
                    for target in range(engine.n_clusters + 1):
                        labels = engine.assign.copy()
                        labels[i] = target
                        direct = expected_posterior_loss(canonicalize(labels + 1), samples, kind)
                        if kind == "nid":
                            assert math.isclose(scores[target], direct, abs_tol=1e-9)
                        else:
                            assert math.isclose(
                                scores[target] - score[a], direct - current, abs_tol=1e-9
                            )
                    if engine._try_move(i):
                        moved = True
                        current = expected_posterior_loss(
                            canonicalize(engine.assign + 1), samples, kind
                        )
            # the last sweep moved nothing: the estimate is a local minimum
            est = canonicalize(engine.assign + 1)
            final = expected_posterior_loss(est, samples, kind)
            for i in range(est.n):
                for target in range(1, est.n_clusters + 2):
                    labels = list(est.assignments)
                    labels[i] = target
                    direct = expected_posterior_loss(canonicalize(labels), samples, kind)
                    assert direct >= final - 1e-9

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_one_record_stops_after_one_sweep(self, kind, monkeypatch):
        calls = []
        try_move = _GreedyEngine._try_move

        def counting_try_move(engine, i):
            calls.append(i)
            return try_move(engine, i)

        monkeypatch.setattr(_GreedyEngine, "_try_move", counting_try_move)
        xi = LinkageStructure((1,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = greedy_epl([xi] * 3, kind)
        assert est.assignments == (1,)
        assert calls == [0]

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_search_evaluates_no_expected_loss(self, kind, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("the search called expected_posterior_loss")

        samples = perturbed_samples(rng, canonicalize([1, 1, 2, 3, 3, 4]), 8, flips=2)
        want = greedy_epl(samples, kind, GreedyConfig(seed=1))
        monkeypatch.setattr(estimation, "expected_posterior_loss", refuse)
        assert greedy_epl(samples, kind, GreedyConfig(seed=1)) == want

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_joint_tables_only_for_nid(self, kind, rng):
        samples = [random_partition(rng, 8) for _ in range(4)]
        engine = _GreedyEngine(samples, kind, GreedyConfig())
        assert hasattr(engine, "joint_phi") == (kind == "nid")

    @pytest.mark.parametrize(
        "kind, n_samples, bound_mib",
        [pytest.param(kind, 3, 4, id=kind) for kind in LOSS_KINDS]
        + [pytest.param(kind, 200, 8, id=f"{kind}-200-samples") for kind in LOSS_KINDS],
    )
    def test_memory_stays_linear_in_n(self, kind, n_samples, bound_mib):
        # about n/2 clusters per sample, as under a microclustering prior:
        # any n-by-K buffer, or a samples-by-K one per record, would take
        # megabytes here
        rng = np.random.default_rng(5)
        n = 2000
        pairs = np.arange(n) // 2
        samples = []
        for _ in range(n_samples):
            labels = pairs.copy()
            moved = rng.choice(n, 100, replace=False)
            labels[moved] = rng.integers(0, n // 2, size=100)
            samples.append(canonicalize(labels))
        tracemalloc.start()
        try:
            greedy_epl(samples, kind, GreedyConfig(sweeps=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, f"greedy {kind} peaked at {peak / 2**20:.1f} MiB"


def dense_nid(engine, d_joint, d_size):
    """Expected NID of candidate states over dense samples-by-target deltas."""
    n = engine.n
    cand_entropy = math.log(n) - (engine.sum_phi_sizes + d_size) / n
    info = (
        (engine.joint_phi[:, None] + d_joint) / n
        - (engine.sum_phi_sizes + d_size)[None, :] / n
        - engine.sample_phi[:, None] / n
        + math.log(n)
    )
    info = np.maximum(info, 0.0)
    denom = np.maximum(cand_entropy[None, :], engine.sample_entropy[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        nid = 1.0 - info / denom
    nid = np.where(denom <= 1e-12, 0.0, nid)
    return np.clip(nid, 0.0, 1.0).mean(axis=0)


def dense_counts(engine, i):
    """Samples-by-cluster counts, excluding record i, of the records that
    share i's sample cluster, from a full comparison of the sample matrix."""
    k, n_samples = engine.n_clusters, engine.n_samples
    smat = engine.smat
    sample, record = np.nonzero(smat == smat[:, i : i + 1])
    counts = np.bincount(sample * k + engine.assign[record], minlength=n_samples * k)
    counts = counts.reshape(n_samples, k)
    counts[:, engine.assign[i]] -= 1
    return counts


def dense_scores(engine, i, counts):
    """Candidate scores and the new-cluster score from dense counts."""
    a = int(engine.assign[i])
    held = engine.sizes[: engine.n_clusters].copy()
    held[a] -= 1
    dphi = engine.dphi
    if engine.kind == "binder":
        pairs = engine.n * (engine.n - 1) / 2.0
        return (held - 2.0 * counts.mean(axis=0)) / pairs, 0.0
    if engine.kind == "vi":
        return (dphi[held] - 2.0 * dphi[counts].mean(axis=0)) / engine.n, 0.0
    d_joint = dphi[counts] - dphi[counts[:, a]][:, None]
    score = dense_nid(engine, d_joint, dphi[held] - dphi[held[a]])
    new = dense_nid(engine, -dphi[counts[:, a]][:, None], np.array([-float(dphi[held[a]])]))
    return score, float(new[0])


def score_check_posteriors(rng):
    """(samples, max_clusters) pairs covering the shapes the scores meet."""
    n = 14
    yield [random_partition(rng, n)], None
    yield [random_partition(rng, n) for _ in range(2)], None
    for spread in (2, 5, n):
        yield [random_partition(rng, n, spread) for _ in range(23)], None
    singletons = canonicalize(range(n))
    yield [singletons] * 9, None
    yield [singletons] * 8 + [random_partition(rng, n, 3)], None
    one = canonicalize([1] * n)
    yield [one] * 12, None
    yield [one] * 11 + [random_partition(rng, n)], None
    yield [random_partition(rng, n) for _ in range(10)], 1
    yield [random_partition(rng, n, 8) for _ in range(10)], 6


class TestSparseScores:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_scores_equal_dense_reference_bitwise(self, kind):
        rng = np.random.default_rng(11)
        one_cluster_states = 0
        for samples, cap in score_check_posteriors(rng):
            for seed in range(3):
                config = GreedyConfig(seed=seed, max_clusters=cap)
                engine = _GreedyEngine(samples, kind, config)
                for _ in range(2):
                    for i in engine.rng.permutation(engine.n):
                        i = int(i)
                        counts = dense_counts(engine, i)
                        want, want_new = dense_scores(engine, i, counts)
                        got, got_new = engine._scores(i, engine._match_entries(i))
                        assert np.array_equal(got, want), (kind, engine.n_clusters)
                        assert got_new == want_new
                        one_cluster_states += engine.n_clusters == 1
                        before = engine.assign.copy()
                        joint_phi = engine.joint_phi.copy() if kind == "nid" else None
                        if engine._try_move(i) and joint_phi is not None:
                            # the joint tables take the dense columns' difference
                            mates = np.flatnonzero(engine.assign == engine.assign[i])
                            mates = mates[mates != i]
                            moved_to = counts[:, before[mates[0]]] if len(mates) else 0
                            delta = engine.dphi[moved_to] - engine.dphi[counts[:, before[i]]]
                            assert np.array_equal(engine.joint_phi, joint_phi + delta)
        assert one_cluster_states > 0


def reference_tables(engine):
    """The engine's member lists, unanimity mask and NID tables, built one
    sample at a time from its samples and its initial assignment."""
    smat, assign, n = engine.smat, engine.assign, engine.n
    n_labels = int(smat.max()) + 1
    order = np.empty(smat.size, dtype=np.int32)
    starts = np.empty((len(smat), n_labels + 1), dtype=np.int32)
    label0 = smat[0]
    agrees = np.ones(n, dtype=bool)
    phi = np.arange(n + 2.0) * np.log(np.maximum(np.arange(n + 2.0), 1.0))
    joint_phi, sample_phi = np.empty(len(smat)), np.empty(len(smat))
    for s, row in enumerate(smat):
        order[s * n : (s + 1) * n] = np.argsort(row, kind="stable")
        counts = np.bincount(row, minlength=n_labels)
        starts[s, 0] = s * n
        starts[s, 1:] = s * n + np.cumsum(counts)
        if s == 0:
            first, size0 = order[starts[0, label0]], counts[label0]
        agrees &= (row == row[first]) & (counts[row] == size0)
        _, joint = np.unique(assign * n_labels + row, return_counts=True)
        joint_phi[s] = phi[joint].sum()
        sizes = np.bincount(row)
        sample_phi[s] = phi[sizes[sizes > 0]].sum()
    split = np.zeros(n_labels, dtype=bool)
    split[label0[~agrees]] = True
    sample_entropy = np.array([math.log(n) - v / n for v in sample_phi.tolist()])
    return {
        "order": order,
        "starts": starts.ravel(),
        "unanimous": ~split[label0],
        "joint_phi": joint_phi,
        "sample_phi": sample_phi,
        "sample_entropy": sample_entropy,
    }


def construction_posteriors(rng):
    """Label matrices with S·n above the engine's block size, so that its
    construction runs in several blocks: samples of widely varying cluster
    counts, and a posterior-like set that most records agree on."""
    n = 300
    spreads = rng.integers(1, n + 1, size=500)
    yield np.array([random_partition(rng, n, int(k)).assignments for k in spreads], dtype=np.int32)
    base = random_partition(rng, n, n // 3)
    yield np.array([s.assignments for s in perturbed_samples(rng, base, 400, flips=30)],
                   dtype=np.int32)


class TestBlockConstruction:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_tables_equal_per_sample_reference_bitwise(self, kind):
        rng = np.random.default_rng(31)
        for smat in construction_posteriors(rng):
            assert smat.size > estimation._BLOCK_ENTRIES
            for seed in range(2):
                engine = _GreedyEngine(smat, kind, GreedyConfig(seed=seed))
                want = reference_tables(engine)
                names = list(want) if kind == "nid" else ["order", "starts", "unanimous"]
                for name in names:
                    assert np.array_equal(getattr(engine, name), want[name]), (kind, name)

    def test_one_sample_per_block_gives_the_same_tables(self, monkeypatch):
        rng = np.random.default_rng(37)
        samples = [random_partition(rng, 40, int(k)) for k in rng.integers(1, 41, size=30)]
        want = reference_tables(_GreedyEngine(samples, "nid", GreedyConfig()))
        monkeypatch.setattr(estimation, "_BLOCK_ENTRIES", 1)
        engine = _GreedyEngine(samples, "nid", GreedyConfig())
        for name, table in want.items():
            assert np.array_equal(getattr(engine, name), table), name

    def test_segment_sums_equal_one_dimensional_sums(self):
        # lengths 1..300 cross numpy's pairwise-summation blocks of 8 and 128
        rng = np.random.default_rng(41)
        lengths = rng.permutation(np.repeat(np.arange(1, 301), 3))
        values = rng.standard_normal(lengths.sum()) * 10.0 ** rng.integers(-8, 9, lengths.sum())
        got = estimation._segment_sums(values, lengths)
        ends = np.cumsum(lengths)
        want = [values[end - length : end].sum() for end, length in zip(ends, lengths)]
        assert np.array_equal(got, np.array(want))


def mostly_unanimous_posteriors(rng):
    """(samples, max_clusters) pairs in which most records keep one sample
    cluster across the samples and a few move."""
    for n, count, flips in ((12, 6, 1), (30, 10, 1), (30, 8, 3)):
        base = random_partition(rng, n, n // 3)
        samples = perturbed_samples(rng, base, count, flips)
        yield samples, None
        # no new clusters: a moving record may join a settled record's cluster
        yield samples, max(s.n_clusters for s in samples)
    yield [random_partition(rng, 10, 4)] * 5, None
    # record 0 is a singleton in every sample; started from the one sample
    # that links the others (seed 0 starts there), with no new clusters
    # allowed, some of them join record 0
    samples = [canonicalize(range(6))] * 8
    samples[6] = canonicalize([1, 2, 2, 2, 2, 2])
    yield samples, 2
    # records 0 and 1 share a cluster of three in both samples, but not
    # the same one: {0, 1, 2}, then {0, 1, 3}
    yield [canonicalize([1, 1, 1, 2, 3, 3]), canonicalize([1, 1, 2, 1, 3, 3])], None


class TestSettledRecords:
    def test_unanimous_is_one_sample_cluster_in_every_sample(self):
        rng = np.random.default_rng(23)
        for samples, _ in mostly_unanimous_posteriors(rng):
            engine = _GreedyEngine(samples, "vi", GreedyConfig())
            sets = [
                {frozenset(np.flatnonzero(row == row[i]).tolist()) for row in engine.smat}
                for i in range(engine.n)
            ]
            assert engine.unanimous.tolist() == [len(s) == 1 for s in sets]

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_settled_record_has_no_improving_move(self, kind):
        rng = np.random.default_rng(29)
        settled = unsettled_unanimous = 0
        for samples, cap in mostly_unanimous_posteriors(rng):
            for seed in range(3):
                engine = _GreedyEngine(samples, kind, GreedyConfig(seed=seed, max_clusters=cap))
                for _ in range(3):
                    for i in engine.rng.permutation(engine.n):
                        i = int(i)
                        a = int(engine.assign[i])
                        if engine._settled(i, a):
                            settled += 1
                            score, new_score = engine._scores(i, engine._match_entries(i))
                            stay = float(score[a])
                            assert score.min() >= stay - 1e-12, (kind, i)
                            assert new_score >= stay - 1e-12, (kind, i)
                        else:
                            unsettled_unanimous += bool(engine.unanimous[i])
                        engine._try_move(i)
        assert settled > 0 and unsettled_unanimous > 0
