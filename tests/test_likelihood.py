import itertools
import math

import numpy as np
import pytest
from scipy import stats

from allelink.likelihood import (
    Dataset,
    DistortionState,
    LikelihoodConfig,
    beta_from_mean_sd,
    draw_singleton_entity,
    empirical_freqs,
    entity_logliks,
    make_dataset,
    new_cluster_marginal_loglik,
    record_loglik,
    resample_distortion,
    resample_entities,
)


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

    def test_vectorized_matches_scalar(self, rng):
        dims = (3, 5)
        freqs = [rng.dirichlet(np.ones(d)) for d in dims]
        psi = np.array([0.1, 0.4])
        entities = rng.integers(0, 3, size=(6, 2))
        entities[:, 1] = rng.integers(0, 5, size=6)
        x = np.array([2, 4])
        vec = entity_logliks(x, entities, psi, freqs)
        for k in range(6):
            assert math.isclose(vec[k], record_loglik(x, entities[k], psi, freqs))


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


class TestResampleDistortion:
    def test_mismatch_forces_indicator(self, rng):
        # every record mismatches its entity, so every indicator is on and
        # psi is drawn from Beta(a + n, b) exactly, whatever the current psi
        values = np.array([[0], [1], [0]])
        entity_rows = np.array([[1], [0], [1]])
        state = DistortionState(np.array([0.05]), np.array([1.0]), np.array([2.0]))
        freqs = [np.array([0.5, 0.5])]
        draws = [
            resample_distortion(values, entity_rows, freqs, state, rng).psi[0]
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
        freqs = [np.array([0.9, 0.1])]
        draws = [
            resample_distortion(values, entity_rows, freqs, state, rng).psi[0]
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
        draws = []
        for _ in range(20_000):
            state = resample_distortion(values, entity_rows, freqs, state, rng)
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

    def test_fixed_psi_broadcast(self):
        cfg = LikelihoodConfig(psi_fixed=0.05)
        np.testing.assert_allclose(cfg.fixed_psi(3), [0.05] * 3)
        cfg2 = LikelihoodConfig(psi_fixed=(0.1, 0.2))
        np.testing.assert_allclose(cfg2.fixed_psi(2), [0.1, 0.2])
        with pytest.raises(ValueError):
            cfg2.fixed_psi(3)
