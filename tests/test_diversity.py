"""Cluster-vs-partition similarity scores and the admission gate."""
import builtins
import json
import math
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cesel import assets
from cesel.clusterers import Partition
from cesel.diversity import DiversityReport, _mean, aapmm, aapmm_raw, admit, apmm, uniformity
from cesel.errors import EmptyCommittee
from cesel.harness import gen_blobs
from cesel.independency import build_aidm
from cesel.clusterers import ClustererConfig, run_kmeans
from summation import PAIRWISE_TERMS, left_to_right


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


# --- the gate on cached size terms --------------------------------------------
# The gate adds every sum left to right: a reference's size terms, and the
# cluster scores it averages. ``ltr_*`` below score each pair that way in
# plain Python, and the gate must equal them bit for bit.
#
# ``seed_*`` is per-member scoring as it was before each partition kept its
# size terms, verbatim: the reference's term from a fresh bincount for every
# pair, through the builtin sum, and the mean through np.mean. Those add
# left to right only below 8 terms (np.mean) and before Python 3.12 (whose
# sum compensates), so the gate must equal them bit for bit only there.

SEED_SUM_ADDS_LEFT_TO_RIGHT = sys.version_info < (3, 12)


def ltr_aapmm_raw(p, ref):
    n = len(p.assignments)
    sizes = [int(s) for s in np.bincount(ref.assignments) if s > 0]
    ref_term = left_to_right([s * math.log(s / n) for s in sizes])
    scores = [seed_apmm(int(n_c), n, ref_term) for n_c in p.cluster_sizes() if n_c > 0]
    return left_to_right(scores) / len(scores)


def ltr_admit(p, committee, d_threshold):
    if not committee:
        return DiversityReport(uniformity=0.0, div=1.0, raw_scores=(), admitted=True)
    raw = tuple(ltr_aapmm_raw(p, member) for member in committee)
    uni = max(min(1.0, max(0.0, r)) for r in raw)
    div = 1.0 - uni
    return DiversityReport(uniformity=uni, div=div, raw_scores=raw, admitted=div >= d_threshold)


def seed_comparable(p):
    """Whether the seed scoring of ``p`` adds left to right (see above)."""
    return SEED_SUM_ADDS_LEFT_TO_RIGHT and np.count_nonzero(p.cluster_sizes()) < PAIRWISE_TERMS


def seed_size_entropy_term(partition, n_total):
    sizes = np.bincount(partition.assignments, minlength=partition.k)
    return sum(s * math.log(s / n_total) for s in sizes if s > 0)


def seed_apmm(n_c, n_total, ref_term):
    numerator = -2.0 * n_c * math.log(n_total / n_c)
    denominator = n_c * math.log(n_c / n_total) + ref_term
    if denominator == 0.0:
        return 1.0
    return numerator / denominator


def seed_aapmm_raw(p, ref):
    n = len(p.assignments)
    if n != len(ref.assignments):
        raise ValueError("partitions cover different sample counts")
    ref_term = seed_size_entropy_term(ref, n)
    scores = [seed_apmm(int(n_c), n, ref_term) for n_c in p.cluster_sizes() if n_c > 0]
    return float(np.mean(scores))


def seed_admit(p, committee, d_threshold):
    if not committee:
        return DiversityReport(uniformity=0.0, div=1.0, raw_scores=(), admitted=True)
    raw = tuple(seed_aapmm_raw(p, member) for member in committee)
    uni = max(min(1.0, max(0.0, r)) for r in raw)
    div = 1.0 - uni
    return DiversityReport(uniformity=uni, div=div, raw_scores=raw, admitted=div >= d_threshold)


@st.composite
def partitions(draw, n):
    """A partition of n samples: random labels over 1-12 clusters (some may
    be empty), all singletons, or one full cluster."""
    kind = draw(st.sampled_from(["labels", "singletons", "full"]))
    if kind == "singletons":
        return part(np.asarray(draw(st.permutations(range(n)))), n)
    if kind == "full":
        return part(np.zeros(n, dtype=int), draw(st.integers(1, 3)))
    k = draw(st.integers(1, 12))
    return part(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), k)


def bits(report):
    return ([r.hex() for r in report.raw_scores], report.uniformity.hex(),
            report.div.hex(), report.admitted)


def assert_plain(report):
    assert all(type(r) is float for r in report.raw_scores)
    assert type(report.uniformity) is float and type(report.div) is float
    assert type(report.admitted) is bool
    json.dumps(asdict(report))


class TestCachedGate:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_per_member_scoring(self, data):
        n = data.draw(st.integers(1, 40))
        p = data.draw(partitions(n))
        committee = data.draw(st.lists(partitions(n), max_size=6))
        d_threshold = data.draw(st.floats(0.0, 1.0))
        report = admit(p, committee, d_threshold)
        assert bits(report) == bits(ltr_admit(p, committee, d_threshold))
        if seed_comparable(p):
            assert bits(report) == bits(seed_admit(p, committee, d_threshold))
        assert_plain(report)
        for ref in committee:
            assert aapmm_raw(p, ref).hex() == ltr_aapmm_raw(p, ref).hex()
        if committee:
            assert uniformity(p, committee) == report.uniformity

    @pytest.mark.parametrize("k", range(1, 13))
    def test_every_cluster_count_around_the_pairwise_sum(self, k):
        # np.mean adds left to right below 8 terms and pairwise from 8 on;
        # the gate adds left to right on both sides.
        rng = np.random.default_rng(100 + k)
        n = 60
        p = part(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]), k)
        committee = [part(rng.integers(0, m, n), m) for m in (1, 2, 5, 9, 12)]
        committee.append(p)
        report = admit(p, committee, 0.3)
        assert bits(report) == bits(ltr_admit(p, committee, 0.3))
        if seed_comparable(p):
            assert bits(report) == bits(seed_admit(p, committee, 0.3))
        assert_plain(report)

    def test_mean_matches_numpy_on_both_sides_of_eight(self):
        # left to right at every length, which is np.mean below 8 terms
        rng = np.random.default_rng(71)
        for length in range(1, 21):
            for _ in range(50):
                scores = list(rng.random(length) * 10.0 ** rng.integers(-3, 4, length))
                assert _mean(scores).hex() == (left_to_right(scores) / length).hex()
                if length < PAIRWISE_TERMS:
                    assert _mean(scores).hex() == float(np.mean(scores)).hex()

    def test_singletons_and_full_clusters(self):
        n = 12
        singletons = part(np.arange(n), n)
        full = part(np.zeros(n, dtype=int), 1)
        halves = part(np.repeat([0, 1], n // 2))
        for p in (singletons, full, halves):
            committee = [singletons, full, halves]
            report = admit(p, committee, 0.5)
            assert bits(report) == bits(ltr_admit(p, committee, 0.5))
            if seed_comparable(p):
                assert bits(report) == bits(seed_admit(p, committee, 0.5))
        # a full cluster against a single full cluster: denominator 0, score 1
        assert aapmm_raw(full, full) == 1.0 and admit(full, [full], 0.0).div == 0.0

    def test_same_bits_when_builtin_sum_compensates(self, monkeypatch):
        # Python 3.12's sum() adds floats with compensation; sizes (2, 3, 3)
        # of n = 8 are one sum that it rounds differently from 3.11's.
        rng = np.random.default_rng(79)
        label_rows = [np.repeat([0, 1, 2], [2, 3, 3])] + [
            rng.integers(0, k, n) for n, k in [(8, 3), (20, 4), (60, 9), (150, 12)] * 3]

        def scores():
            parts = [part(labels) for labels in label_rows]
            size_terms = [p.size_terms for p in parts]
            reports = [bits(admit(p, [q for q in parts if len(q) == len(p)], 0.2))
                       for p in parts]
            aidm = build_aidm(assets.load_script_arrays())
            return size_terms, reports, aidm.algorithm_ids, aidm.values.tobytes()

        plain = scores()
        assert plain[0][0][2].hex() == left_to_right(plain[0][0][1]).hex()
        monkeypatch.setattr(builtins, "sum", math.fsum)
        assert scores() == plain

    def test_plain_types_for_any_threshold_type(self):
        p, q = part([0, 0, 1, 1]), part([0, 1, 0, 1])
        report = admit(p, [q, p], np.float64(0.2))
        assert_plain(report)
        assert_plain(admit(p, [], 0.2))

    def test_size_terms_computed_once_per_partition(self, monkeypatch):
        counted = []
        sizes = Partition.cluster_sizes

        def counting(self):
            counted.append(id(self))
            return sizes(self)

        monkeypatch.setattr(Partition, "cluster_sizes", counting)
        rng = np.random.default_rng(73)
        committee = [part(rng.integers(0, 3, 20), 3) for _ in range(4)]
        candidates = [part(rng.integers(0, 3, 20), 3) for _ in range(5)]
        for candidate in candidates:
            admit(candidate, committee, 0.2)
        # four members and five candidates, each counted once
        assert len(counted) == len(set(counted)) == 9
