import math

import numpy as np
import pytest

from allelink.estimation import pairwise_loss
from allelink.partitions import (
    AllelicPartition,
    CapViolationError,
    LinkageStructure,
    allelic_class_size,
    canonical_labels,
    canonicalize,
    contingency,
    enumerate_partitions,
    fnr_fdr,
    log_allelic_class_size,
    matched_pairs,
    pair_counts,
    to_allelic,
)

from conftest import bell_number, independent_partitions


def dict_relabel(ids):
    """The reference relabel: each new id gets the next label from 1."""
    relabel = {}
    return [relabel.setdefault(a, len(relabel) + 1) for a in ids]


class TestCanonicalLabels:
    @pytest.mark.parametrize(
        "ids",
        [
            [7],
            ["x"],
            [-3, 5, -3, 0, 5, -1],
            [900, 12, 900, 12, 40],
            ["b", "a", "b", "10", "1", "a"],
        ],
        ids=["one-record", "one-string", "negative", "above-n", "strings"],
    )
    def test_equals_dict_relabel(self, ids):
        labels = canonical_labels(ids)
        assert labels.dtype == np.int32
        assert labels.tolist() == dict_relabel(ids)
        assert canonicalize(ids).assignments == tuple(dict_relabel(ids))

    def test_equals_dict_relabel_on_random_ids(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 40))
            ids = rng.integers(-50, 3 * n, size=n)
            assert canonical_labels(ids).tolist() == dict_relabel(ids.tolist())
            assert canonicalize(ids).assignments == tuple(dict_relabel(ids.tolist()))

    @pytest.mark.parametrize("empty", [(), [], np.array([], dtype=np.int64)])
    def test_empty_rejected(self, empty):
        with pytest.raises(ValueError, match="empty"):
            canonical_labels(empty)


class TestCanonicalize:
    def test_relabels_in_first_appearance_order(self):
        assert canonicalize((7, 7, 2)).assignments == (1, 1, 2)
        assert canonicalize((3, 1, 3, 2)).assignments == (1, 2, 1, 3)

    def test_idempotent_on_canonical_input(self):
        xi = canonicalize((4, 9, 4, 4, 1))
        assert canonicalize(xi.assignments).assignments == xi.assignments

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(())

    def test_preserves_co_clustering(self, rng):
        for _ in range(50):
            raw = rng.integers(0, 6, size=rng.integers(1, 12))
            xi = canonicalize(raw)
            for i in range(len(raw)):
                for j in range(len(raw)):
                    assert (raw[i] == raw[j]) == (
                        xi.assignments[i] == xi.assignments[j]
                    )

    def test_non_canonical_construction_rejected(self):
        with pytest.raises(ValueError):
            LinkageStructure((2, 1))
        with pytest.raises(ValueError):
            LinkageStructure((1, 3))


class TestToAllelic:
    def test_mixed_sizes(self):
        xi = LinkageStructure((1, 2, 1, 3))
        assert to_allelic(xi).counts == (2, 1, 0, 0)

    def test_single_block_and_all_singletons(self):
        assert to_allelic(LinkageStructure((1, 1, 1))).counts == (0, 0, 1)
        assert to_allelic(LinkageStructure((1, 2, 3))).counts == (3, 0, 0)

    def test_one_record(self):
        assert to_allelic(LinkageStructure((1,))).counts == (1,)

    def test_cap_violation(self):
        with pytest.raises(CapViolationError):
            to_allelic(LinkageStructure((1, 1, 1)), cap=2)

    def test_counting_identities(self, rng):
        for _ in range(30):
            xi = canonicalize(rng.integers(0, 5, size=10))
            r = to_allelic(xi)
            assert r.n == 10
            assert r.n_clusters == xi.n_clusters


class TestAllelicClassSize:
    def test_enumerated_class_membership(self):
        # class of one pair + one singleton among the 5 partitions of 3
        r = AllelicPartition((1, 1, 0))
        members = [
            p for p in independent_partitions(3)
            if to_allelic(LinkageStructure(p)).counts == (1, 1, 0)
        ]
        assert allelic_class_size(r) == len(members) == 3

    def test_degenerate_classes(self):
        assert allelic_class_size(AllelicPartition((3, 0, 0))) == 1
        assert allelic_class_size(AllelicPartition((0, 0, 1))) == 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_class_sizes_sum_to_bell(self, n):
        seen = {}
        for xi in enumerate_partitions(n):
            seen[to_allelic(xi).counts] = seen.get(to_allelic(xi).counts, 0) + 1
        total = 0
        for counts, observed in seen.items():
            expected = allelic_class_size(AllelicPartition(counts))
            assert observed == expected
            total += expected
        assert total == bell_number(n)

    def test_log_variant_matches_exact(self):
        for counts in [(2, 1, 0, 0), (0, 0, 0, 2), (5, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0)]:
            r = AllelicPartition(counts)
            assert math.isclose(
                log_allelic_class_size(r), math.log(allelic_class_size(r)), rel_tol=1e-12
            )


class TestEnumeration:
    def test_small_counts(self):
        assert sum(1 for _ in enumerate_partitions(3, 3)) == 5
        assert sum(1 for _ in enumerate_partitions(3, 2)) == 4
        assert sum(1 for _ in enumerate_partitions(4, 4)) == bell_number(4) == 15

    @pytest.mark.parametrize("n,cap", [(1, 1), (4, 2), (5, 3), (6, 6), (7, 4), (8, 8)])
    def test_matches_independent_enumeration(self, n, cap):
        ours = {xi.assignments for xi in enumerate_partitions(n, cap)}
        assert ours == independent_partitions(n, cap)

    def test_all_canonical_and_unique(self):
        seen = set()
        for xi in enumerate_partitions(6, 3):
            assert canonicalize(xi.assignments).assignments == xi.assignments
            assert xi.assignments not in seen
            seen.add(xi.assignments)

    def test_guards(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(13))
        with pytest.raises(ValueError):
            list(enumerate_partitions(0))


class TestMatchedPairs:
    def test_basic(self):
        assert matched_pairs(LinkageStructure((1, 1, 2))) == frozenset({(0, 1)})
        assert matched_pairs(LinkageStructure((1, 2, 3))) == frozenset()
        assert matched_pairs(LinkageStructure((1, 1, 1))) == frozenset(
            {(0, 1), (0, 2), (1, 2)}
        )

    def test_pair_count_matches_sizes(self, rng):
        for _ in range(20):
            xi = canonicalize(rng.integers(0, 4, size=9))
            expected = sum(s * (s - 1) // 2 for s in xi.cluster_sizes())
            assert len(matched_pairs(xi)) == expected


class TestContingency:
    def test_cells_and_marginals_in_first_appearance_order(self):
        joint, sizes_a, sizes_b = contingency((2, 2, 1, 3, 2), (1, 2, 2, 1, 1))
        assert list(joint.items()) == [((2, 1), 2), ((2, 2), 1), ((1, 2), 1), ((3, 1), 1)]
        assert list(sizes_a.items()) == [(2, 3), (1, 1), (3, 1)]
        assert list(sizes_b.items()) == [(1, 3), (2, 2)]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency((1, 1), (1, 2, 3))

    def test_agrees_with_pair_sets_on_every_pair_of_partitions(self):
        # brute-force frozensets of pairs are the oracle; n = 5 has C(5, 2) = 10 pairs
        parts = list(enumerate_partitions(5))
        pair_sets = [matched_pairs(xi) for xi in parts]
        for a, pa in zip(parts, pair_sets):
            for b, pb in zip(parts, pair_sets):
                assert pair_counts(a, b) == (len(pa), len(pb), len(pa & pb))
                fnr = len(pb - pa) / len(pb) if pb else 0.0
                fdr = len(pa - pb) / len(pa) if pa else 0.0
                assert fnr_fdr(a, b) == (fnr, fdr)
                assert pairwise_loss(a, b, "binder") == len(pa ^ pb) / 10


class TestPairCounts:
    def test_any_integer_labels_and_arrays(self, rng):
        # slot ids from 0, negative and very large labels count as canonical ones
        for _ in range(200):
            n = int(rng.integers(1, 15))
            a, b = rng.integers(0, 5, size=n), rng.integers(0, 5, size=n)
            pa, pb = matched_pairs(canonicalize(a)), matched_pairs(canonicalize(b))
            expected = (len(pa), len(pb), len(pa & pb))
            spread = a * 10**12 - 7
            assert pair_counts(a, b) == expected
            assert pair_counts(spread.tolist(), canonicalize(b)) == expected
            assert pair_counts(canonicalize(a), -b) == expected

    def test_empty_labelings(self):
        assert pair_counts((), ()) == (0, 0, 0)


class TestAllelicPartitionType:
    def test_invariants(self):
        with pytest.raises(ValueError):
            AllelicPartition(())
        with pytest.raises(ValueError):
            AllelicPartition((0, 0))
        with pytest.raises(ValueError):
            AllelicPartition((-1, 1))

    def test_padding(self):
        r = AllelicPartition((2, 1))
        assert r.padded(4).counts == (2, 1, 0, 0)
        assert r.padded(2).counts == (2, 1)
        with pytest.raises(CapViolationError):
            r.padded(1)
