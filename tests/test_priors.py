import math
from collections import Counter

import numpy as np
import pytest

from allelink.partitions import (
    AllelicPartition,
    LinkageStructure,
    enumerate_partitions,
    to_allelic,
)
from allelink.priors import (
    BbapParams,
    CalibrationSpec,
    EppParams,
    calibrate_m2,
    calibrate_recursive,
    log_density_bbap_allelic,
    log_density_bbap_linkage,
    log_density_epp_allelic,
    log_density_epp_linkage,
    prior_count_moments,
    reallocation_weights,
    sample_count_matrix,
    sample_prior,
    singleton_moments_m2,
    size_target_distribution,
    _draw_size_counts,
    _log_allelic_counts_bbap,
    _log_allelic_counts_epp,
    _realloc_log_factors,
    log_allelic_counts,
)

from conftest import tv_distance

NEG_INF = float("-inf")


def log_beta_binomial_oracle(k, trials, a, b):
    # direct transcription of choose(trials, k) B(k+a, trials-k+b) / B(a, b)
    from math import lgamma

    return (
        lgamma(trials + 1) - lgamma(k + 1) - lgamma(trials - k + 1)
        + lgamma(k + a) + lgamma(trials - k + b) - lgamma(trials + a + b)
        - (lgamma(a) + lgamma(b) - lgamma(a + b))
    )


def cap2_linkage_logdensity_oracle(xi: LinkageStructure, a: float, b: float) -> float:
    """Closed-form density at cap 2: within-class term times one
    beta-binomial factor in the pair count."""
    n = xi.n
    sizes = xi.cluster_sizes()
    if max(sizes) > 2:
        return NEG_INF
    r2 = sum(1 for s in sizes if s == 2)
    r1 = n - 2 * r2
    class_term = (
        math.lgamma(r1 + 1) + r2 * math.log(2.0) + math.lgamma(r2 + 1) - math.lgamma(n + 1)
    )
    return class_term + log_beta_binomial_oracle(r2, n // 2, a, b)


class TestEppDensities:
    def test_two_record_allelic_values(self):
        params = EppParams(1.0)
        assert math.isclose(
            log_density_epp_allelic(AllelicPartition((0, 1)), params), math.log(0.5)
        )
        assert math.isclose(
            log_density_epp_allelic(AllelicPartition((2, 0)), params), math.log(0.5)
        )

    def test_single_record(self):
        for theta in (0.3, 1.0, 4.5):
            assert abs(log_density_epp_allelic(AllelicPartition((1,)), EppParams(theta))) < 1e-12
            assert abs(log_density_epp_linkage(LinkageStructure((1,)), EppParams(theta))) < 1e-12

    def test_hand_value_three_records(self):
        got = log_density_epp_linkage(LinkageStructure((1, 1, 2)), EppParams(1.0))
        assert math.isclose(got, math.log(1.0 / 6.0), rel_tol=1e-12)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_linkage_normalizes(self, n, theta):
        params = EppParams(theta)
        total = math.fsum(
            math.exp(log_density_epp_linkage(xi, params)) for xi in enumerate_partitions(n)
        )
        assert math.isclose(total, 1.0, abs_tol=1e-10)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.3])
    def test_factorization_matches_direct(self, theta):
        # class-uniform term plus the allelic density reproduces the direct form
        from allelink.partitions import log_allelic_class_size

        params = EppParams(theta)
        for xi in enumerate_partitions(6):
            r = to_allelic(xi)
            via_factors = -log_allelic_class_size(r) + log_density_epp_allelic(r, params)
            assert math.isclose(
                via_factors, log_density_epp_linkage(xi, params), rel_tol=0, abs_tol=1e-12
            )

    def test_size_count_density_equals_the_loop_over_every_size(self, rng):
        # reference: the loop over all sizes 1..len - 1, skipping zero counts
        def every_size(size_counts, n, theta):
            total = 0
            out = math.lgamma(n + 1) - (math.lgamma(theta + n) - math.lgamma(theta))
            for s in range(1, len(size_counts)):
                r_s = int(size_counts[s])
                if r_s < 0:
                    return float("-inf")
                if r_s:
                    total += s * r_s
                    out += r_s * math.log(theta) - r_s * math.log(s) - math.lgamma(r_s + 1)
            return out if total == n else float("-inf")

        for _ in range(300):
            counts = rng.integers(0, 4, size=rng.integers(2, 40))
            counts[rng.random(len(counts)) < 0.7] = 0
            counts[0] = rng.integers(0, 3)  # entry 0 is ignored
            n = int(np.arange(len(counts))[1:] @ counts[1:])
            n += int(n == 0 or rng.random() < 0.1)  # sometimes a total that does not match
            if rng.random() < 0.1:
                counts[rng.integers(1, len(counts))] = -1
            theta = float(rng.uniform(0.2, 30.0))
            for vec in (counts, counts.tolist()):
                got = _log_allelic_counts_epp(vec, n, EppParams(theta))
                assert got == every_size(counts, n, theta)

    def test_theta_must_be_positive(self):
        with pytest.raises(ValueError):
            EppParams(0.0)
        with pytest.raises(ValueError):
            EppParams(-1.0)


class TestBbapDensities:
    def test_uniform_pair_counts_at_flat_shapes(self):
        # with unit shapes the pair count is uniform over its support
        params = BbapParams(cap=2, a=(1.0,), b=(1.0,))
        for r2 in range(3):
            counts = (4 - 2 * r2, r2)
            got = log_density_bbap_allelic(AllelicPartition(counts), params)
            assert math.isclose(got, math.log(1.0 / 3.0), rel_tol=1e-12)

    def test_hand_value_two_factor_case(self):
        params = BbapParams(cap=3, a=(1.0, 1.0), b=(1.0, 1.0))
        # ten records: two triples leave trials 3 at size 3 and 2 at size 2
        got = log_density_bbap_allelic(AllelicPartition((2, 1, 2)), params)
        expected = log_beta_binomial_oracle(2, 3, 1.0, 1.0) + log_beta_binomial_oracle(
            1, 2, 1.0, 1.0
        )
        assert math.isclose(got, expected, rel_tol=1e-12)
        assert math.isclose(got, math.log(1.0 / 12.0), rel_tol=1e-12)

    def test_support_violations(self):
        params = BbapParams(cap=3, a=(1.0, 1.0), b=(1.0, 1.0))
        over_cap = AllelicPartition((0, 0, 0, 1))
        assert log_density_bbap_allelic(over_cap, params) == NEG_INF
        # counts exceeding the feasible trials at a size
        assert _log_allelic_counts_bbap([0, 0, 0, 2], 5, params) == NEG_INF
        # inconsistent singleton count
        assert _log_allelic_counts_bbap([0, 2, 1, 0], 8, params) == NEG_INF

    def test_linkage_beyond_cap(self):
        params = BbapParams(cap=2, a=(1.0,), b=(1.0,))
        assert log_density_bbap_linkage(LinkageStructure((1, 1, 1)), params) == NEG_INF

    @pytest.mark.parametrize("shapes", [(1.0, 1.0), (3.1, 7.2333), (0.7, 2.0)])
    def test_cap2_closed_form(self, shapes):
        a, b = shapes
        params = BbapParams(cap=2, a=(a,), b=(b,))
        for n in (4, 5, 9):
            for xi in enumerate_partitions(n, 2):
                assert math.isclose(
                    log_density_bbap_linkage(xi, params),
                    cap2_linkage_logdensity_oracle(xi, a, b),
                    rel_tol=0,
                    abs_tol=1e-12,
                )

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_linkage_normalizes(self, cap):
        params = BbapParams(
            cap=cap, a=tuple([1.3] * (cap - 1)), b=tuple([2.6] * (cap - 1))
        )
        total = math.fsum(
            math.exp(log_density_bbap_linkage(xi, params))
            for xi in enumerate_partitions(5, cap)
        )
        assert math.isclose(total, 1.0, abs_tol=1e-10)

    def test_within_class_uniformity(self):
        params = BbapParams(cap=3, a=(1.7, 0.9), b=(2.2, 3.0))
        by_class = {}
        for xi in enumerate_partitions(6, 3):
            by_class.setdefault(to_allelic(xi, 3).counts, []).append(
                log_density_bbap_linkage(xi, params)
            )
        for values in by_class.values():
            assert max(values) - min(values) <= 1e-12

    def test_param_validation(self):
        with pytest.raises(ValueError):
            BbapParams(cap=1, a=(), b=())
        with pytest.raises(ValueError):
            BbapParams(cap=3, a=(1.0,), b=(1.0, 1.0))
        with pytest.raises(ValueError):
            BbapParams(cap=2, a=(0.0,), b=(1.0,))


class TestSampling:
    def test_single_record(self, rng):
        params = BbapParams(cap=2, a=(1.0,), b=(1.0,))
        assert sample_prior(params, 1, rng).assignments == (1,)
        assert sample_prior(EppParams(2.0), 1, rng).assignments == (1,)

    def test_bounded_draws_small(self, rng):
        params = calibrate_recursive(
            CalibrationSpec("geometric", cap=4, cv=0.25, p=0.5), 60
        )
        for _ in range(300):
            assert sample_prior(params, 60, rng).max_cluster_size() <= 4

    @pytest.mark.parametrize("cap", [2, 3])
    def test_empirical_matches_density_bbap(self, cap, rng):
        params = BbapParams(
            cap=cap, a=tuple([1.4] * (cap - 1)), b=tuple([2.1] * (cap - 1))
        )
        draws = 40_000
        counts = Counter(sample_prior(params, 5, rng).assignments for _ in range(draws))
        empirical = {k: v / draws for k, v in counts.items()}
        exact = {
            xi.assignments: math.exp(log_density_bbap_linkage(xi, params))
            for xi in enumerate_partitions(5, cap)
        }
        assert tv_distance(empirical, exact) < 0.03

    def test_empirical_matches_density_epp(self, rng):
        params = EppParams(1.3)
        draws = 40_000
        counts = Counter(sample_prior(params, 4, rng).assignments for _ in range(draws))
        empirical = {k: v / draws for k, v in counts.items()}
        exact = {
            xi.assignments: math.exp(log_density_epp_linkage(xi, params))
            for xi in enumerate_partitions(4)
        }
        assert tv_distance(empirical, exact) < 0.03

    def test_singleton_mean_at_calibrated_shapes(self, rng):
        a2, b2 = calibrate_m2(0.3, 0.5)
        params = BbapParams(cap=2, a=(a2,), b=(b2,))
        mat = sample_count_matrix(params, 100, 8000, rng)
        mean, var = singleton_moments_m2(100, a2, b2)
        se = math.sqrt(var / mat.shape[0])
        assert abs(mat[:, 0].mean() - mean) < 3 * se
        assert round(mean) == 70


class TestCalibration:
    def test_m2_reference_values(self):
        a2, b2 = calibrate_m2(0.3, 0.5)
        assert math.isclose(a2, 3.1, rel_tol=1e-12)
        assert math.isclose(b2, 3.1 * 0.7 / 0.3, rel_tol=1e-12)
        assert math.isclose(calibrate_m2(0.5, 1.0)[0], 1.0)
        assert math.isclose(calibrate_m2(0.5, 1.0)[1], 1.0)

    def test_m2_mean_identity(self):
        for pi in (0.05, 0.3, 0.6):
            for gamma in (0.25, 0.5, 1.0):
                a2, b2 = calibrate_m2(pi, gamma)
                assert math.isclose(a2 / (a2 + b2), pi, rel_tol=1e-12)

    def test_m2_range_checks(self):
        with pytest.raises(ValueError):
            calibrate_m2(0.0, 0.5)
        with pytest.raises(ValueError):
            calibrate_m2(1.0, 0.5)
        with pytest.raises(ValueError):
            calibrate_m2(0.3, 0.0)

    def test_recursive_base_case_reduces_to_m2(self):
        n = 100
        spec = CalibrationSpec("geometric", cap=2, cv=0.25, p=0.5)
        params = calibrate_recursive(spec, n)
        # expected duplication probability from the target profile
        g = size_target_distribution(spec)
        expected_clusters = n / (g[1] + 2 * g[2])
        pi = expected_clusters * g[2] / (n // 2)
        a2, b2 = calibrate_m2(pi, 0.25)
        assert math.isclose(params.a[0], a2, rel_tol=1e-12)
        assert math.isclose(params.b[0], b2, rel_tol=1e-12)

    def test_geometric_defaults_decay(self):
        params = calibrate_recursive(
            CalibrationSpec("geometric", cap=15, cv=0.25, p=0.5), 4000
        )
        means = [params.a[t] / (params.a[t] + params.b[t]) for t in range(len(params.a))]
        # duplication mass should shrink with size under a geometric target
        assert all(means[t + 1] < means[t] for t in range(len(means) - 1))

    def test_negbin_mode_between_two_and_three(self, rng):
        params = calibrate_recursive(
            CalibrationSpec("negbin", cap=8, cv=0.25, p=0.5, r=4.0), 400
        )
        mat = sample_count_matrix(params, 400, 400, rng)
        pooled = mat.sum(axis=0)
        mode_size = int(np.argmax(pooled[1:])) + 2  # mode among non-singleton sizes
        assert mode_size in (2, 3)

    def test_explicit_profile(self):
        spec = CalibrationSpec("explicit", cap=4, cv=0.5, pi=(0.2, 0.1, 0.05))
        g = size_target_distribution(spec)
        assert math.isclose(g[1], 0.65)
        assert math.isclose(g.sum(), 1.0)
        params = calibrate_recursive(spec, 200)
        assert params.cap == 4

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            CalibrationSpec("explicit", cap=3, cv=0.5, pi=(0.9, 0.2))
        with pytest.raises(ValueError):
            CalibrationSpec("explicit", cap=3, cv=0.5, pi=(-0.1, 0.2))
        with pytest.raises(ValueError):
            CalibrationSpec("geometric", cap=3, cv=0.0, p=0.5)


class TestMoments:
    def test_closed_form_reference(self):
        mean, var = singleton_moments_m2(100, 3.1, 7.2333)
        assert abs(mean - 70.0) < 5e-4
        # exact enumeration over the pair-count distribution
        probs = np.array(
            [math.exp(log_beta_binomial_oracle(r2, 50, 3.1, 7.2333)) for r2 in range(51)]
        )
        singles = 100 - 2 * np.arange(51)
        mean_exact = float(probs @ singles)
        var_exact = float(probs @ (singles - mean_exact) ** 2)
        assert math.isclose(mean, mean_exact, rel_tol=1e-10)
        assert math.isclose(var, var_exact, rel_tol=1e-10)
        # symmetric shapes put half the records in pairs
        mean_sym, _ = singleton_moments_m2(50, 2.0, 2.0)
        assert math.isclose(mean_sym, 25.0)

    def test_monte_carlo_agreement(self, rng):
        n, a2, b2 = 60, 2.0, 5.0
        params = BbapParams(cap=2, a=(a2,), b=(b2,))
        mat = sample_count_matrix(params, n, 20_000, rng)
        mean, var = singleton_moments_m2(n, a2, b2)
        singles = mat[:, 0].astype(float)
        se_mean = singles.std(ddof=1) / math.sqrt(len(singles))
        assert abs(singles.mean() - mean) < 3 * se_mean
        m4 = ((singles - singles.mean()) ** 4).mean()
        s2 = singles.var(ddof=1)
        se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / len(singles))
        assert abs(s2 - var) < 3 * se_var

    def test_top_size_count_mean(self, rng):
        # the largest size has a clean expectation: mean fraction times trials
        params = BbapParams(cap=3, a=(1.5, 2.0), b=(3.0, 4.0), )
        n, draws = 90, 20_000
        mat = sample_count_matrix(params, n, draws, rng)
        top = mat[:, 2].astype(float)
        expected = params.a[1] / (params.a[1] + params.b[1]) * (n // 3)
        se = top.std(ddof=1) / math.sqrt(draws)
        assert abs(top.mean() - expected) < 3 * se

    def test_count_moments_shape(self, rng):
        params = BbapParams(cap=3, a=(1.0, 1.0), b=(1.0, 1.0))
        mean, var = prior_count_moments(params, 30, 500, rng)
        assert mean.shape == (3,) and var.shape == (3,)


class TestBoundedSupport:
    @pytest.mark.parametrize("n", [100, 500, 1000])
    def test_no_cluster_exceeds_cap(self, n, rng):
        params = calibrate_recursive(
            CalibrationSpec("geometric", cap=5, cv=0.25, p=0.5), n
        )
        for _ in range(200):
            assert sample_prior(params, n, rng).max_cluster_size() <= 5


class TestReallocationWeights:
    @staticmethod
    def completions(reduced: LinkageStructure):
        base = tuple(reduced.assignments)
        for k in range(1, reduced.n_clusters + 2):
            yield LinkageStructure(base + (k,))

    @pytest.mark.parametrize("n_reduced", [1, 2, 3, 4, 5])
    def test_matches_joint_ratios_bbap(self, n_reduced):
        params = BbapParams(
            cap=3, a=(1.4, 0.8), b=(2.0, 3.5)
        )
        for reduced in enumerate_partitions(n_reduced, 3):
            weights = reallocation_weights(reduced, params)
            joint = np.array(
                [
                    math.exp(log_density_bbap_linkage(c, params))
                    for c in self.completions(reduced)
                ]
            )
            assert weights.shape == joint.shape
            if joint.sum() == 0:
                continue
            np.testing.assert_allclose(
                weights / weights.sum(), joint / joint.sum(), atol=1e-10
            )

    def test_cap_sized_cluster_gets_zero(self):
        params = BbapParams(cap=2, a=(1.0,), b=(1.0,))
        reduced = LinkageStructure((1, 1, 2))
        weights = reallocation_weights(reduced, params)
        assert weights[0] == 0.0
        assert weights[1] > 0 and weights[2] > 0

    def test_two_record_odds_match_closed_form(self):
        a, b = 3.1, 7.2333
        params = BbapParams(cap=2, a=(a,), b=(b,))
        weights = reallocation_weights(LinkageStructure((1,)), params)
        join_over_new = weights[0] / weights[1]
        expected = math.exp(
            cap2_linkage_logdensity_oracle(LinkageStructure((1, 1)), a, b)
            - cap2_linkage_logdensity_oracle(LinkageStructure((1, 2)), a, b)
        )
        assert math.isclose(join_over_new, expected, rel_tol=1e-10)

    def test_epp_reduces_to_seating_rule(self):
        params = EppParams(1.7)
        reduced = LinkageStructure((1, 1, 2, 3, 3, 3))
        weights = reallocation_weights(reduced, params)
        seating = np.array([2.0, 1.0, 3.0, 1.7])
        np.testing.assert_allclose(
            weights / weights.sum(), seating / seating.sum(), atol=1e-12
        )

    @pytest.mark.parametrize("n_reduced", [2, 4])
    def test_matches_joint_ratios_epp(self, n_reduced):
        params = EppParams(0.8)
        for reduced in enumerate_partitions(n_reduced):
            weights = reallocation_weights(reduced, params)
            joint = np.array(
                [
                    math.exp(log_density_epp_linkage(c, params))
                    for c in self.completions(reduced)
                ]
            )
            np.testing.assert_allclose(
                weights / weights.sum(), joint / joint.sum(), atol=1e-10
            )


def direct_realloc_log_factors(counts, n_minus, params, cap):
    """The reallocation factors as density ratios from log_allelic_counts."""
    counts = list(counts) + [0] * (cap + 2 - len(counts))
    base = log_allelic_counts(counts, n_minus, params)

    def moved(src, dst):
        after = list(counts)
        if src:
            after[src] -= 1
        after[dst] += 1
        return log_allelic_counts(after, n_minus + 1, params) - base

    join = {
        s: math.log(s + 1) + math.log(counts[s + 1] + 1) - math.log(counts[s]) + moved(s, s + 1)
        for s in range(1, cap)
        if counts[s]
    }
    return join, math.log(counts[1] + 1) + moved(0, 1)


class TestClosedFormFactors:
    def test_bbap_matches_direct_ratio(self):
        rng = np.random.default_rng(6)
        full = opens_trial = 0
        for _ in range(400):
            cap = int(rng.integers(2, 10))
            n = int(rng.integers(1, 301))
            a, b = rng.uniform(0.05, 20, size=(2, cap - 1))
            params = BbapParams(cap, a, b)
            counts = _draw_size_counts(params, n, rng)
            join, new = _realloc_log_factors(counts, n, params)
            expected_join, expected_new = direct_realloc_log_factors(counts, n, params, cap)
            assert math.isclose(new, expected_new, abs_tol=1e-9)
            for s in range(cap + 1):
                if s in expected_join and expected_join[s] > NEG_INF:
                    assert math.isclose(join[s], expected_join[s], abs_tol=1e-9)
                else:
                    assert join[s] == NEG_INF
            left = n
            for t in range(cap, 1, -1):
                full += counts[t] == left // t > 0
                opens_trial += (left + 1) % t == 0
                left -= t * counts[t]
        # full sizes and sizes that gain a trial are both covered
        assert full > 50 and opens_trial > 50

    def test_epp_matches_direct_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            theta = float(rng.uniform(0.05, 50))
            n = int(rng.integers(1, 120))
            params = EppParams(theta)
            counts = np.bincount(sample_prior(params, n, rng).cluster_sizes())
            join, new = _realloc_log_factors(counts, n, params)
            expected_join, expected_new = direct_realloc_log_factors(counts, n, params, n + 1)
            assert math.isclose(new, expected_new, abs_tol=1e-9)
            for s, value in expected_join.items():
                assert math.isclose(join[s], value, abs_tol=1e-9)

    @pytest.mark.parametrize(
        "counts, params",
        [
            ([0, 1, 0, 0, 1], BbapParams(cap=3, a=(1.0, 1.0), b=(1.0, 1.0))),
            ([0, 2, 2], BbapParams(cap=3, a=(1.0, 1.0), b=(1.0, 1.0))),
            ([0, 2, 2], EppParams(1.0)),
        ],
        ids=["above-cap", "singletons-off", "epp-total-off"],
    )
    def test_state_outside_support_raises(self, counts, params):
        with pytest.raises(ValueError, match="outside the prior support"):
            _realloc_log_factors(counts, 5, params)
