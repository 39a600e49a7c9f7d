import itertools
import math

import numpy as np
import pytest
from scipy import stats

from allelink import likelihood
from allelink.likelihood import (
    AgreementPlanes,
    Dataset,
    DistortionState,
    LikelihoodConfig,
    beta_from_mean_sd,
    draw_singleton_entity,
    empirical_freqs,
    entity_logliks,
    make_dataset,
    new_cluster_marginal_loglik,
    pattern_tables,
    record_loglik,
    resample_distortion,
    resample_entities,
)
from allelink.priors import BbapParams, EppParams, sample_prior


class TestEmpiricalFreqs:
    def test_balanced_counts_without_smoothing(self):
        values = np.array([[0], [0], [1], [1]])
        freqs = empirical_freqs(values, (2,), eps=0.0)
        np.testing.assert_allclose(freqs[0], [0.5, 0.5])

    def test_constant_field_with_smoothing(self):
        values = np.zeros((4, 1), dtype=int)
        freqs = empirical_freqs(values, (2,), eps=0.01)
        np.testing.assert_allclose(freqs[0], [4.01 / 4.02, 0.01 / 4.02])

    def test_sums_to_one_and_positive(self, rng):
        values = rng.integers(0, 5, size=(40, 3))
        freqs = empirical_freqs(values, (5, 5, 5))
        for f in freqs:
            assert math.isclose(f.sum(), 1.0)
            assert np.all(f > 0)

    def test_make_dataset_validates(self):
        with pytest.raises(ValueError):
            make_dataset(np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError):
            make_dataset(np.array([[3]]), cardinalities=(2,))


def uniform_freqs(dims):
    return [np.full(d, 1.0 / d) for d in dims]


class TestRecordLoglik:
    def test_no_distortion_is_exact_match(self):
        freqs = uniform_freqs((2, 3))
        psi = np.zeros(2)
        x = np.array([1, 2])
        assert record_loglik(x, np.array([1, 2]), psi, freqs) == 0.0
        assert record_loglik(x, np.array([1, 1]), psi, freqs) == float("-inf")

    def test_pure_noise_ignores_entity(self):
        freqs = uniform_freqs((4, 4))
        psi = np.ones(2)
        x = np.array([0, 3])
        expected = sum(math.log(0.25) for _ in range(2))
        for y in ([0, 3], [1, 1], [3, 0]):
            assert math.isclose(record_loglik(x, np.array(y), psi, freqs), expected)

    def test_partial_distortion_value(self):
        freqs = uniform_freqs((2,))
        got = record_loglik(np.array([0]), np.array([0]), np.array([0.1]), freqs)
        assert math.isclose(got, math.log(0.95), rel_tol=1e-12)

    def test_normalizes_over_observations(self):
        # exp of the record log likelihood sums to one over all x given y
        rng = np.random.default_rng(7)
        for dims in [(2,), (3, 4), (6, 2, 5)]:
            freqs = [rng.dirichlet(np.ones(d)) for d in dims]
            psi = rng.uniform(0.05, 0.95, size=len(dims))
            y = np.array([rng.integers(0, d) for d in dims])
            total = 0.0
            for x in itertools.product(*[range(d) for d in dims]):
                total += math.exp(record_loglik(np.array(x), y, psi, freqs))
            assert math.isclose(total, 1.0, rel_tol=1e-10)

    @staticmethod
    def _kernel_and_scalar(rng, dims, n_records=30, n_entities=50):
        freqs = [rng.dirichlet(np.ones(d)) for d in dims]
        # every field's distortion is 0, 1 or strictly between
        psi = rng.uniform(size=len(dims))
        pinned = rng.integers(0, 3, size=len(dims))
        psi[pinned == 0] = 0.0
        psi[pinned == 1] = 1.0
        values = np.column_stack([rng.integers(0, d, size=n_records) for d in dims])
        entities = np.column_stack([rng.integers(0, d, size=n_entities) for d in dims])
        tables = pattern_tables(likelihood._record_freqs(values, freqs), psi)
        planes = AgreementPlanes(dims, n_entities)
        planes.fill(entities)
        for x, rows, table in zip(values, planes.record_rows(values), tables):
            vec = entity_logliks(x, entities, planes, rows, table)
            scalar = np.array([record_loglik(x, y, psi, freqs) for y in entities])
            yield x, entities, table, vec, scalar

    def test_vectorized_matches_scalar(self, rng):
        # equal bit for bit while every field sits in one pattern chunk
        for dims in [(3, 5), (2, 4, 3, 2, 5), (2, 3, 2, 3, 2, 3, 2, 3)]:
            for _ in range(10):
                for _, _, _, vec, scalar in self._kernel_and_scalar(rng, dims):
                    assert np.array_equal(vec, scalar)

    def test_vectorized_matches_scalar_over_field_chunks(self, rng):
        # ten fields take two pattern chunks, whose subtotals are added last;
        # the reference is the kernel that compared entity rows: an agreement
        # row times each field's pattern bit gives every chunk's code
        dims = (2, 3, 2, 4, 2, 3, 2, 2, 3, 2)
        f = np.arange(len(dims))
        weights = np.zeros((len(dims), 2), dtype=np.uint8)
        weights[f, f // 8] = 1 << (f % 8)
        for _ in range(10):
            for x, entities, table, vec, scalar in self._kernel_and_scalar(rng, dims):
                codes = (entities == x).view(np.uint8) @ weights
                assert np.array_equal(vec, table[0, codes[:, 0]] + table[1, codes[:, 1]])
                np.testing.assert_allclose(vec, scalar, rtol=1e-12)

    @pytest.mark.parametrize(
        "dims",
        [(3, 5), (2, 3, 2, 4, 2, 3, 2, 2, 3, 2), (3, 5, 200), (2, 3, 2, 4, 2, 3, 2, 2, 3, 5000)],
        ids=["one-chunk", "two-chunks", "compared", "two-chunks-compared"],
    )
    def test_block_equals_one_record_at_a_time(self, rng, dims):
        freqs = [rng.dirichlet(np.ones(d)) for d in dims]
        psi = rng.uniform(size=len(dims))
        psi[0] = 0.0
        values = np.column_stack([rng.integers(0, d, size=12) for d in dims])
        entities = np.column_stack([rng.integers(0, d, size=20) for d in dims])
        tables = pattern_tables(likelihood._record_freqs(values, freqs), psi)
        planes = AgreementPlanes(dims, 25)
        planes.fill(entities)
        rows = planes.record_rows(values)
        for lo, hi in [(0, 12), (3, 5), (7, 8)]:
            block = entity_logliks(values[lo:hi], entities, planes, rows[lo:hi], tables[lo:hi])
            one = [entity_logliks(values[i], entities, planes, rows[i], tables[i])
                   for i in range(lo, hi)]
            assert np.array_equal(block, np.array(one))

    def test_vectorized_matches_scalar_with_compared_fields(self, rng):
        # a field too wide for the planes is compared against the entity column
        for dims in [(3, 5, 200), (300, 4), (2, 3, 2, 4, 2, 3, 2, 2, 3, 5000)]:
            assert (AgreementPlanes(dims, 1).offsets < 0).sum() == 1
            for _ in range(3):
                for _, _, _, vec, scalar in self._kernel_and_scalar(rng, dims):
                    np.testing.assert_allclose(vec, scalar, rtol=1e-12)
                    if len(dims) <= 8:
                        assert np.array_equal(vec, scalar)


class TestRecordLoglikBroadcast:
    @staticmethod
    def scalar(x, y, psi, freqs):
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

    @pytest.mark.parametrize("dims", [(3, 5), (2, 3, 2, 4, 2, 3, 2, 2, 3, 2)])
    def test_pairs_equal_the_field_loop(self, rng, dims):
        freqs = [rng.dirichlet(np.ones(d)) for d in dims]
        psi = rng.uniform(size=len(dims))
        psi[0] = 0.0
        values = np.column_stack([rng.integers(0, d, size=15) for d in dims])
        entities = np.column_stack([rng.integers(0, d, size=4) for d in dims])
        expected = np.array(
            [[self.scalar(x, y, psi, freqs) for y in entities] for x in values]
        )
        assert np.isneginf(expected).any() and np.isfinite(expected).any()
        x_freqs = np.column_stack([freqs[f][values[:, f]] for f in range(len(dims))])
        for given in (None, x_freqs[:, None]):
            got = record_loglik(values[:, None], entities, psi, freqs, given)
            assert np.array_equal(got, expected)
        assert record_loglik(values[2], entities[1], psi, freqs) == expected[2, 1]


class TestAgreementPlanes:
    def test_rows_fit_the_pattern_table_width(self):
        # one chunk of five fields: 8 bytes x 2^5 patterns = 256 rows per slot
        planes = AgreementPlanes((2, 12, 31, 51, 6), 7)
        assert planes.planes.shape == (102, 7)
        assert planes.offsets.tolist() == [0, 2, 14, 45, 96]
        # a field that would pass 8 x 2^6 = 512 rows is left out; later ones still fit
        planes = AgreementPlanes((2, 12, 31, 51, 6, 20_000, 9), 7)
        assert planes.offsets.tolist() == [0, 2, 14, 45, 96, -1, 102]
        assert planes.chunks == [(slice(0, 6), [(5, 32)])]

    def test_slots_hold_their_entities_bits(self, rng):
        dims = (3, 4, 2, 5, 3, 2, 4, 3, 2, 3)
        entities = np.column_stack([rng.integers(0, d, size=6) for d in dims])
        planes = AgreementPlanes(dims, 9)
        planes.fill(entities)
        for f, d in enumerate(dims):
            block = planes.planes[planes.offsets[f] : planes.offsets[f] + d]
            expected = np.zeros((d, 9), dtype=np.uint8)
            expected[entities[:, f], np.arange(6)] = 1 << (f % 8)
            assert np.array_equal(block, expected)
        planes.clear_slot(2, entities[2])
        assert not planes.planes[:, 2].any()
        planes.set_slot(7, entities[0])
        assert np.array_equal(planes.planes[:, 7], planes.planes[:, 0])


class TestNewClusterMarginal:
    def test_uniform_binary(self):
        freqs = uniform_freqs((2,))
        for x in (0, 1):
            assert math.isclose(
                new_cluster_marginal_loglik(np.array([x]), freqs), math.log(0.5)
            )

    def test_distortion_invariance_via_exact_average(self, rng):
        # averaging the record likelihood over entity draws reproduces the
        # marginal for every distortion level
        dims = (3, 4)
        freqs = [rng.dirichlet(np.ones(d)) for d in dims]
        x = np.array([1, 3])
        marginal = new_cluster_marginal_loglik(x, freqs)
        for psi_val in (0.0, 0.17, 0.55, 1.0):
            psi = np.full(2, psi_val)
            total = 0.0
            for y in itertools.product(range(3), range(4)):
                weight = freqs[0][y[0]] * freqs[1][y[1]]
                total += weight * math.exp(record_loglik(x, np.array(y), psi, freqs))
            assert math.isclose(math.log(total), marginal, rel_tol=0, abs_tol=1e-12)

    def test_sums_per_field(self, rng):
        dims = (4, 6, 3)
        freqs = [rng.dirichlet(np.ones(d)) for d in dims]
        x = np.array([0, 5, 2])
        per_field = sum(math.log(freqs[f][x[f]]) for f in range(3))
        assert math.isclose(new_cluster_marginal_loglik(x, freqs), per_field)

    def test_table_of_records_matches_each_record(self, rng):
        dims = (4, 6, 3)
        freqs = [rng.dirichlet(np.ones(d)) for d in dims]
        values = np.column_stack([rng.integers(0, d, size=40) for d in dims])
        per_record = [new_cluster_marginal_loglik(x, freqs) for x in values]
        assert np.array_equal(new_cluster_marginal_loglik(values, freqs), per_record)


class TestResampleEntities:
    def test_singleton_low_distortion_copies_record(self, rng):
        values = np.array([[2, 1]])
        freqs = uniform_freqs((4, 3))
        psi = np.full(2, 1e-9)
        draws = [
            resample_entities(values, np.array([0]), 1, psi, freqs, rng)[0]
            for _ in range(200)
        ]
        assert all(np.array_equal(d, values[0]) for d in draws)

    def test_full_distortion_reverts_to_reference(self, rng):
        # at distortion one the conditional is the reference distribution
        values = np.array([[0]] * 6)
        freqs = [np.array([0.2, 0.8])]
        psi = np.ones(1)
        hits = 0
        draws = 4000
        for _ in range(draws):
            y = resample_entities(values, np.zeros(6, dtype=int), 1, psi, freqs, rng)
            hits += int(y[0, 0] == 1)
        assert abs(hits / draws - 0.8) < 3 * math.sqrt(0.8 * 0.2 / draws)

    def test_two_record_cluster_exact_conditional(self, rng):
        # normalize the conditional over a small category set directly
        values = np.array([[1, 0], [1, 2]])
        dims = (3, 4)
        freqs = [np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.2, 0.3, 0.4])]
        psi = np.array([0.2, 0.3])
        assign = np.zeros(2, dtype=int)

        for f in range(2):
            weights = []
            for d in range(dims[f]):
                w = freqs[f][d]
                for i in range(2):
                    x = values[i, f]
                    w *= (1 - psi[f]) * (x == d) + psi[f] * freqs[f][x]
                weights.append(w)
            exact = np.array(weights) / sum(weights)
            draws = 30_000
            counts = np.zeros(dims[f])
            for _ in range(draws // 100):
                ys = [
                    resample_entities(values, assign, 1, psi, freqs, rng)[0, f]
                    for _ in range(100)
                ]
                for y in ys:
                    counts[y] += 1
            emp = counts / draws
            assert 0.5 * np.abs(emp - exact).sum() < 0.02

    def test_agreeing_pair_modal_value(self, rng):
        values = np.array([[2], [2]])
        freqs = [np.full(5, 0.2)]
        psi = np.array([0.1])
        draws = [
            resample_entities(values, np.zeros(2, dtype=int), 1, psi, freqs, rng)[0, 0]
            for _ in range(400)
        ]
        counts = np.bincount(draws, minlength=5)
        assert counts.argmax() == 2


def dense_resample_entities(values, assignments, n_clusters, psi, freqs, rng):
    """The entity update as a dense draw: np.add.at counts, rng.gumbel noise
    per field and a row-wise argmax."""
    out = np.empty((n_clusters, values.shape[1]), dtype=np.int64)
    for f, fr in enumerate(freqs):
        d = len(fr)
        with np.errstate(divide="ignore"):
            gain = np.log((1.0 - psi[f]) + psi[f] * fr) - np.log(psi[f] * fr)
        counts = np.zeros((n_clusters, d))
        np.add.at(counts, (assignments, values[:, f]), 1.0)
        with np.errstate(invalid="ignore"):
            logits = np.log(fr)[None, :] + np.where(counts > 0, counts * gain[None, :], 0.0)
        out[:, f] = np.argmax(logits + rng.gumbel(size=(n_clusters, d)), axis=1)
    return out


def assert_same_draws_as_dense(values, assignments, n_clusters, psi, freqs, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = resample_entities(values, assignments, n_clusters, psi, freqs, rng)
    expected = dense_resample_entities(values, assignments, n_clusters, psi, freqs, ref_rng)
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class CountingMath:
    """Stands in for the likelihood module's math, counting log calls."""

    def __init__(self):
        self.logs = 0

    def log(self, x):
        self.logs += 1
        return math.log(x)


class TestEntityDrawStream:
    """resample_entities draws what the dense Gumbel draw does, bit for bit,
    and leaves the generator where it would."""

    CARDINALITIES = (2, 3, 12, 31, 80)
    PSI = {
        "0.01": np.full(5, 0.01),
        "0.2": np.full(5, 0.2),
        "1": np.ones(5),
        "1e-9": np.full(5, 1e-9),
        "one-field-at-0": np.array([0.01, 0.0, 0.2, 1.0, 1e-9]),
    }

    @pytest.mark.parametrize("psi", list(PSI), ids=list(PSI))
    @pytest.mark.parametrize("family", ["bbap", "epp"])
    def test_matches_dense_draw(self, psi, family):
        rng = np.random.default_rng(41)
        n = 60
        values = np.column_stack([rng.integers(0, d, n) for d in self.CARDINALITIES])
        freqs = empirical_freqs(values, self.CARDINALITIES)
        prior = BbapParams(4, (1.0, 2.0, 0.5), (3.0, 1.0, 2.0)) if family == "bbap" else EppParams(8.0)
        labelings = [np.zeros(n, dtype=np.int64), np.arange(n)]
        labelings += [np.array(sample_prior(prior, n, rng).assignments) - 1 for _ in range(6)]
        for seed, labels in enumerate(labelings):
            k = int(labels.max()) + 1
            assert_same_draws_as_dense(values, labels, k, self.PSI[psi], freqs, seed)

    def test_infinite_top_takes_its_first_infinite_cell_without_log(self, monkeypatch):
        # at psi = 0 every cell a member sits in has an infinite logit
        values = np.array([[0, 3], [2, 3], [1, 1], [1, 0]])
        freqs = uniform_freqs((3, 4))
        psi = np.array([0.0, 0.0])
        counting = CountingMath()
        monkeypatch.setattr(likelihood, "math", counting)
        for seed in range(20):
            assign = np.array([0, 0, 1, 2])
            rng = np.random.default_rng(seed)
            got = resample_entities(values, assign, 3, psi, freqs, rng)
            # a two-member cluster takes its first member value, as np.argmax does
            assert got.tolist() == [[0, 3], [1, 1], [1, 0]]
            assert_same_draws_as_dense(values, assign, 3, psi, freqs, seed)
        assert counting.logs == 0

    def test_near_tie_is_decided_by_libm_log(self, monkeypatch):
        # one row of two cells whose logits are set by hand to tie within a
        # few units in the last place; the seed is one whose Gumbels numpy's
        # log rounds otherwise than libm's, where the platform has one
        def gumbels(seed):
            u = np.random.default_rng(seed).random(2)
            return [-math.log(-math.log(1.0 - v)) for v in u], (-np.log(-np.log(1.0 - u))).tolist()

        seed = next((s for s in range(5000) if gumbels(s)[0] != gumbels(s)[1]), 7)
        g = gumbels(seed)[0]
        counting = CountingMath()
        monkeypatch.setattr(likelihood, "math", counting)
        choices = set()
        for step in range(-4, 5):
            x = g[1] - g[0]
            for _ in range(abs(step)):
                x = np.nextafter(x, np.sign(step) * np.inf)
            logits = np.array([[x, 0.0]])
            expected = np.argmax(logits + np.random.default_rng(seed).gumbel(size=(1, 2)), axis=1)
            u = likelihood._gumbel_uniforms(np.random.default_rng(seed), 2).reshape(1, 2)
            before = counting.logs
            got = likelihood._gumbel_argmax(logits, u)
            # the row took the exact path: two logs per cell
            assert counting.logs - before == 4
            assert np.array_equal(got, expected)
            choices.add(int(got[0]))
        assert choices == {0, 1}

    def test_zero_uniforms_are_dropped_and_redrawn(self):
        class Stub:
            def __init__(self, batches):
                self.batches, self.sizes = [np.array(b, dtype=float) for b in batches], []

            def random(self, size):
                self.sizes.append(size)
                out = self.batches.pop(0)
                assert len(out) == size
                return out

        stub = Stub([[0.5, 0.0, 0.25, 0.0], [0.0, 0.75], [0.125]])
        u = likelihood._gumbel_uniforms(stub, 4)
        assert u.tolist() == [0.5, 0.25, 0.75, 0.125]
        assert stub.sizes == [4, 2, 1]


class TestResampleDistortion:
    def test_mismatch_forces_indicator(self, rng):
        # every record mismatches its entity, so every indicator is on and
        # psi is drawn from Beta(a + n, b) exactly, whatever the current psi
        values = np.array([[0], [1], [0]])
        entity_rows = np.array([[1], [0], [1]])
        state = DistortionState(np.array([0.05]), np.array([1.0]), np.array([2.0]))
        record_freqs = likelihood._record_freqs(values, [np.array([0.5, 0.5])])
        draws = [
            resample_distortion(values, entity_rows, record_freqs, state, rng).psi[0]
            for _ in range(2000)
        ]
        assert stats.kstest(draws, stats.beta(1.0 + 3, 2.0).cdf).pvalue > 1e-3
        # with one indicator left off psi would follow Beta(a + 2, b + 1) instead
        assert stats.kstest(draws, stats.beta(1.0 + 2, 2.0 + 1).cdf).pvalue < 1e-6

    def test_all_match_low_distortion_stays_low(self, rng):
        values = np.zeros((50, 1), dtype=int)
        entity_rows = np.zeros((50, 1), dtype=int)
        a, b = beta_from_mean_sd(0.01, 0.01)
        state = DistortionState(np.array([1e-4]), np.array([a]), np.array([b]))
        record_freqs = likelihood._record_freqs(values, [np.array([0.9, 0.1])])
        draws = [
            resample_distortion(values, entity_rows, record_freqs, state, rng).psi[0]
            for _ in range(2000)
        ]
        # indicators are almost never on, so the posterior is nearly the prior
        assert abs(np.mean(draws) - a / (a + b + 50)) < 0.004

    def test_exact_posterior_tiny_case(self, rng):
        # three records, one field: alternate the two conditional updates and
        # compare moments against the enumerated mixture over indicators
        values = np.array([[0], [0], [1]])
        entity_rows = np.array([[0], [0], [0]])
        freqs = [np.array([0.6, 0.4])]
        a0, b0 = 1.5, 3.0

        # enumerate indicator vectors consistent with the data
        log_weights = []
        betas = []
        for w in itertools.product((0, 1), repeat=3):
            if w[2] == 0:
                continue  # record 2 mismatches its entity
            lw = 0.0
            for i, wi in enumerate(w):
                x = values[i, 0]
                if wi:
                    lw += math.log(freqs[0][x])
            # Beta-Bernoulli marginal over psi
            s = sum(w)
            lw += (
                math.lgamma(a0 + s)
                + math.lgamma(b0 + 3 - s)
                - math.lgamma(a0 + b0 + 3)
                - (math.lgamma(a0) + math.lgamma(b0) - math.lgamma(a0 + b0))
            )
            log_weights.append(lw)
            betas.append((a0 + s, b0 + 3 - s))
        top = max(log_weights)
        probs = np.array([math.exp(v - top) for v in log_weights])
        probs /= probs.sum()
        exact_mean = sum(p * a / (a + b) for p, (a, b) in zip(probs, betas))
        exact_second = sum(
            p * (a * (a + 1)) / ((a + b) * (a + b + 1)) for p, (a, b) in zip(probs, betas)
        )

        state = DistortionState(np.array([0.5]), np.array([a0]), np.array([b0]))
        record_freqs = likelihood._record_freqs(values, freqs)
        draws = []
        for _ in range(20_000):
            state = resample_distortion(values, entity_rows, record_freqs, state, rng)
            draws.append(state.psi[0])
        draws = np.array(draws[200:])
        assert abs(draws.mean() - exact_mean) < 0.01
        assert abs((draws**2).mean() - exact_second) < 0.01


class TestDrawSingletonEntity:
    def test_copies_when_distortion_zero(self, rng):
        freqs = uniform_freqs((3, 3))
        x = np.array([2, 0])
        for _ in range(50):
            assert np.array_equal(
                draw_singleton_entity(x, np.zeros(2), freqs, rng), x
            )

    def test_mixture_rate(self, rng):
        freqs = [np.array([0.5, 0.5])]
        x = np.array([0])
        psi = np.array([0.4])
        flips = sum(
            draw_singleton_entity(x, psi, freqs, rng)[0] != 0 for _ in range(20_000)
        )
        # flips need distortion and a different reference draw: 0.4 * 0.5
        assert abs(flips / 20_000 - 0.2) < 3 * math.sqrt(0.2 * 0.8 / 20_000)


def scalar_singleton_entity(x, psi, freqs, rng):
    """draw_singleton_entity as a loop of scalar draws, each distorted field
    drawn by rng.choice."""
    y = np.array(x, dtype=np.int64, copy=True)
    for f in range(len(freqs)):
        if rng.random() < psi[f]:
            y[f] = rng.choice(len(freqs[f]), p=freqs[f])
    return y


class TestSingletonEntityBlockDraw:
    DIMS = (2, 12, 31, 51, 6)
    PSI = {
        "0.01": np.full(5, 0.01),
        "0.5": np.full(5, 0.5),
        "1": np.ones(5),
        "0": np.zeros(5),
        "mixed": np.array([0.0, 1.0, 0.3, 0.9, 0.05]),
    }

    @pytest.mark.parametrize("psi", list(PSI), ids=list(PSI))
    def test_equals_the_scalar_loop(self, psi):
        data = np.random.default_rng(3)
        values = np.column_stack([data.integers(0, d, size=50) for d in self.DIMS])
        freqs = make_dataset(values, cardinalities=self.DIMS).freqs
        for seed in range(200):
            block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            for x in values[seed % 45 : seed % 45 + 5]:
                assert np.array_equal(
                    draw_singleton_entity(x, self.PSI[psi], freqs, block),
                    scalar_singleton_entity(x, self.PSI[psi], freqs, scalar),
                )
            assert block.bit_generator.state == scalar.bit_generator.state


class TestConfig:
    def test_beta_from_mean_sd_round_trip(self):
        a, b = beta_from_mean_sd(0.01, 0.01)
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1))
        assert math.isclose(mean, 0.01, rel_tol=1e-12)
        assert math.isclose(math.sqrt(var), 0.01, rel_tol=1e-12)

    def test_invalid_sd_rejected(self):
        with pytest.raises(ValueError):
            beta_from_mean_sd(0.01, 0.5)
        with pytest.raises(ValueError):
            LikelihoodConfig(psi_prior_mean=0.5, psi_prior_sd=0.6)

    @pytest.mark.parametrize(
        "kwargs",
        [{"psi_prior_sd": math.nan}, {"smoothing_eps": math.nan}],
        ids=["sd-nan", "eps-nan"],
    )
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LikelihoodConfig(**kwargs)

    def test_fixed_psi_broadcast(self):
        cfg = LikelihoodConfig(psi_fixed=0.05)
        np.testing.assert_allclose(cfg.fixed_psi(3), [0.05] * 3)
        cfg2 = LikelihoodConfig(psi_fixed=(0.1, 0.2))
        np.testing.assert_allclose(cfg2.fixed_psi(2), [0.1, 0.2])
        with pytest.raises(ValueError):
            cfg2.fixed_psi(3)
