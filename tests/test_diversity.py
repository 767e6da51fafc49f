"""Cluster-vs-partition similarity scores and the admission gate."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cesel.clusterers import Partition
from cesel.diversity import aapmm, aapmm_raw, admit, apmm, uniformity
from cesel.errors import EmptyCommittee
from cesel.harness import gen_blobs
from cesel.clusterers import ClustererConfig, run_kmeans


def part(assignments, k=None):
    a = np.asarray(assignments, dtype=int)
    return Partition(a, k if k is not None else int(a.max()) + 1)


def oracle_apmm(members, partition, n):
    """Direct formula evaluation with plain python loops."""
    n_c = len(members)
    numerator = -2.0 * n_c * math.log(n / n_c)
    sizes = [int((partition.assignments == c).sum()) for c in range(partition.k)]
    denominator = n_c * math.log(n_c / n) + sum(
        s * math.log(s / n) for s in sizes if s > 0
    )
    if denominator == 0.0:
        return 1.0
    return numerator / denominator


class TestApmm:
    def test_hand_derived_case(self):
        # n=4, cluster of 2, reference of two equal halves -> 2/3
        ref = part([0, 0, 1, 1])
        value = apmm(np.array([0, 1]), ref, 4)
        assert abs(value - 2.0 / 3.0) < 1e-9

    def test_full_cluster_vs_nontrivial_partition_is_zero(self):
        ref = part([0, 0, 1, 1])
        assert apmm(np.arange(4), ref, 4) == 0.0

    def test_degenerate_full_vs_full_is_one(self):
        ref = part([0, 0, 0, 0], k=1)
        assert apmm(np.arange(4), ref, 4) == 1.0

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(53)
        for _ in range(500):
            n = int(rng.integers(2, 31))
            k = int(rng.integers(1, n + 1))
            ref = part(rng.integers(0, k, n), k)
            size = int(rng.integers(1, n + 1))
            members = rng.choice(n, size=size, replace=False)
            assert abs(
                apmm(members, ref, n) - oracle_apmm(members, ref, n)
            ) < 1e-12

    def test_invariant_under_relabeling_and_sample_order(self):
        rng = np.random.default_rng(59)
        n = 20
        ref = part(rng.integers(0, 3, n), 3)
        members = np.array([2, 5, 7, 11])
        base = apmm(members, ref, n)
        # relabel reference clusters
        mapping = np.array([2, 0, 1])
        relabelled = part(mapping[ref.assignments], 3)
        assert abs(apmm(members, relabelled, n) - base) < 1e-12
        # permute member order
        assert abs(apmm(members[::-1], ref, n) - base) < 1e-12

    def test_rejects_bad_cluster(self):
        ref = part([0, 0, 1, 1])
        with pytest.raises(ValueError):
            apmm(np.array([]), ref, 4)
        with pytest.raises(ValueError):
            apmm(np.array([1, 1]), ref, 4)


class TestAapmm:
    def test_self_similarity_two_halves(self):
        p = part([0, 0, 1, 1])
        assert abs(aapmm(p, p) - 2.0 / 3.0) < 1e-9

    def test_singletons_vs_singletons_matches_oracle(self):
        p = part([0, 1, 2, 3])
        value = aapmm_raw(p, p)
        expected = np.mean([oracle_apmm([i], p, 4) for i in range(4)])
        assert abs(value - expected) < 1e-12

    def test_clamp_applies_when_reference_is_single_cluster(self):
        p = part([0, 0, 1, 1])
        ref = part([0, 0, 0, 0], k=1)
        # each balanced cluster against the single-cluster reference is 2.0
        assert aapmm_raw(p, ref) > 1.0
        assert aapmm(p, ref) == 1.0

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            aapmm(part([0, 1]), part([0, 1, 0]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_relabel_invariance(self, data):
        n = data.draw(st.integers(2, 30))
        p = part(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), 5)
        ref = part(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), 5)
        relabel = np.asarray(data.draw(st.permutations(range(5))))
        value = aapmm(p, ref)
        # Relabelling reorders the floating-point sums, so allow a few ulps.
        assert aapmm(part(relabel[p.assignments], 5), ref) == pytest.approx(value, abs=1e-12)
        assert aapmm(p, part(relabel[ref.assignments], 5)) == pytest.approx(value, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_raw_equals_mean_of_per_cluster_apmm(self, data):
        # aapmm_raw computes the reference's term once; it must equal the
        # public per-cluster score averaged over the non-empty clusters.
        n = data.draw(st.integers(1, 30))
        p = part(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), 5)
        ref = part(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), 5)
        scores = [apmm(np.flatnonzero(p.assignments == c), ref, n)
                  for c in range(p.k) if np.any(p.assignments == c)]
        assert aapmm_raw(p, ref) == float(np.mean(scores))


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exact_copy_stays_below_one(self, data):
        # APMM scores cluster sizes only: a copy of a committee member
        # scores no higher than any partition with the same size profile,
        # and below 1 whenever it has two or more clusters, so a gate with
        # dT <= 1 - aapmm(p, p) admits it again.
        n = data.draw(st.integers(2, 30))
        labels = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        assume(len(set(labels)) >= 2)
        p = part(labels, 5)
        shuffled = part(np.asarray(data.draw(st.permutations(labels))), 5)
        assert aapmm(p, p) < 1.0
        assert aapmm(p, shuffled) == aapmm(p, p)
        assert admit(p, [p], 1.0 - aapmm(p, p)).admitted


class TestUniformity:
    def test_single_member_is_self_similarity(self):
        p = part([0, 0, 1, 1])
        assert uniformity(p, [p]) == aapmm(p, p)

    def test_max_over_members(self):
        p = part([0, 0, 1, 1])
        q = part([0, 1, 0, 1])
        expected = max(aapmm(p, p), aapmm(p, q))
        assert uniformity(p, [p, q]) == expected

    def test_idempotent_on_copies(self):
        p = part([0, 0, 1, 1])
        assert uniformity(p, [p]) == uniformity(p, [p, p, p])

    def test_monotone_in_committee_growth(self):
        rng = np.random.default_rng(61)
        p = part(rng.integers(0, 3, 30), 3)
        committee = [part(rng.integers(0, 3, 30), 3) for _ in range(6)]
        values = [uniformity(p, committee[: i + 1]) for i in range(6)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_empty_committee_rejected(self):
        with pytest.raises(EmptyCommittee):
            uniformity(part([0, 1]), [])


class TestAdmit:
    def test_first_candidate_always_admitted(self):
        report = admit(part([0, 1, 0, 1]), [], 0.9)
        assert report.admitted
        assert report.div == 1.0
        assert report.raw_scores == ()

    def test_identical_member_rejected_on_real_data(self):
        # concrete 20-point two-blob dataset: self-similarity of a balanced
        # k-cluster partition is exactly 2/(1+k), so an exact duplicate of a
        # committee member carries diversity 1/3 and only a gate above that
        # rejects it
        data = gen_blobs(10, [[0.0, 0.0], [8.0, 8.0]], 0.4, seed=3)
        p, _ = run_kmeans(data, ClustererConfig("K", k=2, seed=5))
        report = admit(p, [p], 0.4)
        assert abs(report.div - 1.0 / 3.0) < 1e-9
        assert not report.admitted

    def test_zero_threshold_admits_everything(self):
        rng = np.random.default_rng(67)
        committee = [part(rng.integers(0, 2, 12), 2) for _ in range(3)]
        for _ in range(20):
            candidate = part(rng.integers(0, 2, 12), 2)
            assert admit(candidate, committee, 0.0).admitted

    def test_div_complements_uniformity(self):
        p = part([0, 0, 1, 1])
        q = part([0, 1, 0, 1])
        report = admit(p, [q], 0.5)
        assert abs(report.div - (1.0 - report.uniformity)) < 1e-15
        assert report.uniformity == uniformity(p, [q])

    def test_raw_scores_preserved_per_member(self):
        p = part([0, 0, 1, 1])
        committee = [part([0, 1, 0, 1]), part([0, 0, 0, 0], k=1)]
        report = admit(p, committee, 0.2)
        assert len(report.raw_scores) == 2
        assert report.raw_scores[0] == aapmm_raw(p, committee[0])
        assert report.raw_scores[1] > 1.0  # unclamped value survives for logs

    def test_gate_uses_geq(self):
        p = part([0, 0, 1, 1])
        q = part([0, 1, 0, 1])
        div = admit(p, [q], 0.0).div
        assert admit(p, [q], div).admitted  # boundary inclusive

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            admit(part([0, 1]), [], 1.5)
