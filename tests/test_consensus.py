"""Co-association evidence, merge tree, cut, and the full pipeline."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cesel.clusterers import LINKAGE_IDS, Partition, run_algorithm
from cesel.consensus import (
    CommitteeEntry,
    Dendrogram,
    PipelineConfig,
    average_linkage,
    cut,
    eac,
    run_ces,
    weac,
)
from cesel.errors import (
    CommitteeTooSmall,
    DegenerateSpectrum,
    EmptyCommittee,
    InvalidK,
    WeightMismatch,
)
from cesel.harness import accuracy, gen_blobs, gen_half_ring
from cesel.independency import BasicParams


def part(assignments, k=None):
    a = np.asarray(assignments, dtype=int)
    return Partition(a, k if k is not None else int(a.max()) + 1)


def entry(p, algorithm="K", run_index=0, params=None):
    rows = params if params is not None else [[float(run_index), 0.0]]
    return CommitteeEntry(p, algorithm, BasicParams(algorithm, np.array(rows)), 1.0, run_index)


class TestEac:
    def test_single_partition_is_indicator(self):
        p = part([0, 0, 1, 1])
        c = eac([p])
        expected = (p.assignments[:, None] == p.assignments[None, :]).astype(float)
        assert np.array_equal(c, expected)

    def test_two_partition_counts(self):
        p = part([0, 0, 1, 1])
        q = part([0, 1, 1, 0])
        c = eac([p, q])
        assert c[0, 1] == 0.5  # together only in p
        assert c[1, 2] == 0.5  # together only in q
        assert c[0, 3] == 0.5
        assert c[1, 3] == 0.0
        assert np.all(np.diag(c) == 1.0)

    def test_identical_copies_collapse(self):
        p = part([0, 1, 0, 2])
        assert np.array_equal(eac([p] * 7), eac([p]))

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(73)
        parts = [part(rng.integers(0, 3, 15), 3) for _ in range(5)]
        c = eac(parts)
        assert np.array_equal(c, c.T)
        assert c.min() >= 0.0 and c.max() <= 1.0

    def test_empty_committee(self):
        with pytest.raises(EmptyCommittee):
            eac([])


class TestWeac:
    def test_unit_weights_reduce_to_eac(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(4, 30))
            parts = [part(rng.integers(0, 3, n), 3) for _ in range(m)]
            entries = [entry(p, run_index=i) for i, p in enumerate(parts)]
            assert np.array_equal(weac(entries, np.ones(m)), eac(parts))

    def test_weighted_pair_example(self):
        p = part([0, 1])
        q = part([0, 0])
        entries = [entry(p, run_index=0), entry(q, run_index=1)]
        c = weac(entries, np.array([0.5, 1.0]))
        # the pair co-clusters only in the second member
        assert c[0, 1] == 0.5
        assert np.all(np.diag(c) == 1.0)

    def test_zero_weights_zero_off_diagonal(self):
        p = part([0, 0, 1])
        entries = [entry(p, run_index=0), entry(p, run_index=1)]
        c = weac(entries, np.zeros(2))
        off = c[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0)
        assert np.all(np.diag(c) == 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sample_permutation_equivariance(self, data):
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(2, 25))
        labels = data.draw(arrays(np.int64, (m, n), elements=st.integers(0, 3)))
        weights = data.draw(arrays(np.float64, m, elements=st.floats(0, 1)))
        perm = np.asarray(data.draw(st.permutations(range(n))))
        entries = [entry(part(row, 4), run_index=i) for i, row in enumerate(labels)]
        permuted = [entry(part(row[perm], 4), run_index=i) for i, row in enumerate(labels)]
        c = weac(entries, weights)
        assert np.array_equal(weac(permuted, weights), c[np.ix_(perm, perm)])

    def test_weight_mismatch(self):
        entries = [entry(part([0, 1]), run_index=0)]
        with pytest.raises(WeightMismatch):
            weac(entries, np.ones(3))


class TestAverageLinkageCut:
    def test_block_diagonal_two_blocks(self):
        c = np.ones((6, 6))
        c[:3, 3:] = 0.0
        c[3:, :3] = 0.0
        dend = average_linkage(c)
        assert dend.merges[-1][2] == pytest.approx(1.0)  # blocks join at 1
        labels = cut(dend, 2).assignments
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_all_ones_merges_at_zero(self):
        dend = average_linkage(np.ones((5, 5)))
        heights = [m[2] for m in dend.merges]
        assert np.allclose(heights, 0.0)

    def test_four_point_hand_trace(self):
        # co-association 0.9/0.8 inside pairs, 0.1..0.4 across
        c = np.array(
            [
                [1.0, 0.9, 0.1, 0.2],
                [0.9, 1.0, 0.3, 0.1],
                [0.1, 0.3, 1.0, 0.8],
                [0.2, 0.1, 0.8, 1.0],
            ]
        )
        dend = average_linkage(c)
        merges = list(dend.merges)
        # brute-force average-linkage trace on D = 1 - C:
        # (0,1) at 0.1; (2,3) at 0.2; clusters join at mean cross D = 0.825
        assert merges[0][:2] == (0, 1) and merges[0][2] == pytest.approx(0.1)
        assert merges[1][:2] == (2, 3) and merges[1][2] == pytest.approx(0.2)
        assert merges[2][2] == pytest.approx(np.mean([0.9, 0.8, 0.7, 0.9]))
        labels = cut(dend, 2).assignments
        assert labels[0] == labels[1] and labels[2] == labels[3]

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            n = int(rng.integers(3, 15))
            parts = [part(rng.integers(0, 3, n), 3) for _ in range(4)]
            dend = average_linkage(eac(parts))
            heights = [m[2] for m in dend.merges]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))
            assert len(heights) == n - 1

    def test_cut_extremes(self):
        c = eac([part([0, 1, 2, 0])])
        dend = average_linkage(c)
        assert cut(dend, 1).k == 1
        assert len(set(cut(dend, 1).assignments)) == 1
        singles = cut(dend, 4)
        assert sorted(singles.assignments) == [0, 1, 2, 3]

    def test_cut_always_k_nonempty(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            parts = [part(rng.integers(0, 4, n), 4) for _ in range(3)]
            dend = average_linkage(eac(parts))
            for k in range(1, n + 1):
                sizes = cut(dend, k).cluster_sizes()
                assert len(sizes) == k and np.all(sizes > 0)

    def test_invalid_k(self):
        dend = average_linkage(np.eye(3))
        with pytest.raises(InvalidK):
            cut(dend, 0)
        with pytest.raises(InvalidK):
            cut(dend, 4)

    def test_dendrogram_merge_count_validated(self):
        with pytest.raises(ValueError):
            Dendrogram(5, ((0, 1, 0.0, 2),))


BLOBS = gen_blobs(15, [[0.0, 0.0], [9.0, 9.0]], 0.5, seed=97)


class TestRunCes:
    def test_deterministic_rerun(self):
        cfg = PipelineConfig(k_final=2, d_threshold=0.1, committee_target=4,
                             max_attempts=15, seed=101)
        p1, r1 = run_ces(BLOBS, cfg)
        p2, r2 = run_ces(BLOBS, cfg)
        assert np.array_equal(p1.assignments, p2.assignments)
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
        assert d1 == d2

    def test_easy_blobs_kmeans_only_roster(self):
        cfg = PipelineConfig(k_final=2, d_threshold=0.0, committee_target=5,
                             max_attempts=20, seed=103, roster=("K",))
        final, report = run_ces(BLOBS, cfg)
        assert accuracy(final, BLOBS.labels) == 100.0
        assert report.n_ce == 5
        assert all(t["algorithm"] == "K" for t in report.trace)

    def test_committee_too_small(self):
        # an impossible gate: every candidate after the first two identical
        # ones is rejected by dT=1
        cfg = PipelineConfig(k_final=2, d_threshold=1.0, committee_target=5,
                             max_attempts=6, seed=107, roster=("SLE",))
        with pytest.raises(CommitteeTooSmall):
            run_ces(BLOBS, cfg)

    def test_eac_mode_reports_unit_weights(self):
        cfg = PipelineConfig(k_final=2, d_threshold=0.0, committee_target=3,
                             max_attempts=12, seed=109, consensus="eac")
        _, report = run_ces(BLOBS, cfg)
        assert all(e["weight"] == 1.0 for e in report.per_entry)

    def test_report_contract(self):
        cfg = PipelineConfig(k_final=2, d_threshold=0.0, committee_target=3,
                             max_attempts=12, seed=113)
        final, report = run_ces(BLOBS, cfg)
        assert report.n_ce == len(report.per_entry) == 3
        assert report.attempts >= report.n_ce
        assert len(report.final_assignments) == BLOBS.n
        assert list(report.final_assignments) == list(final.assignments)
        admitted = [t for t in report.trace if t["admitted"]]
        assert len(admitted) == report.n_ce
        assert report.config["seed"] == 113
        assert report.wall_time_ms > 0

    def test_gate_holds_in_trace(self):
        cfg = PipelineConfig(k_final=2, d_threshold=0.2, committee_target=4,
                             max_attempts=30, seed=127)
        _, report = run_ces(BLOBS, cfg)
        admitted = [t for t in report.trace if t["admitted"]]
        for t in admitted[1:]:
            assert t["diversity"] >= cfg.d_threshold

    def test_invariant_under_member_relabeling(self):
        # consensus depends on co-membership only; relabeling any committee
        # member's clusters must not change the final partition
        rng = np.random.default_rng(131)
        parts = [part(rng.integers(0, 3, 20), 3) for _ in range(5)]
        entries = [entry(p, run_index=i) for i, p in enumerate(parts)]
        weights = np.linspace(0.4, 1.0, 5)
        base = cut(average_linkage(weac(entries, weights)), 3)

        shuffled = []
        for i, p in enumerate(parts):
            mapping = rng.permutation(3)
            shuffled.append(entry(part(mapping[p.assignments], 3), run_index=i))
        relabelled = cut(average_linkage(weac(shuffled, weights)), 3)
        assert np.array_equal(base.assignments, relabelled.assignments)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(k_final=1)
        with pytest.raises(ValueError):
            PipelineConfig(k_final=2, d_threshold=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(k_final=2, committee_target=1)
        with pytest.raises(ValueError):
            PipelineConfig(k_final=2, committee_target=10, max_attempts=5)
        with pytest.raises(ValueError):
            PipelineConfig(k_final=2, consensus="mcla")
        with pytest.raises(ValueError, match=r"unknown algorithm IDs: \['BOGUS'\]"):
            PipelineConfig(k_final=2, roster=("K", "BOGUS"))


RING = gen_half_ring(60, 0.05, seed=11)


class TestCandidateRuns:
    def test_each_linkage_key_runs_once(self, monkeypatch):
        calls = []

        def counting(data, cfg):
            calls.append((cfg.algorithm_id, cfg.k))
            return run_algorithm(data, cfg)

        monkeypatch.setattr("cesel.consensus.run_algorithm", counting)
        cfg = PipelineConfig(k_final=2, d_threshold=0.35, committee_target=8,
                             max_attempts=32, seed=3, vary_k=True)
        _, report = run_ces(RING, cfg)
        linkage_calls = [c for c in calls if c[0] in LINKAGE_IDS]
        assert len(linkage_calls) == len(set(linkage_calls))
        # the memo was exercised: some linkage key was drawn more than once
        drawn = [t["algorithm"] for t in report.trace if t["algorithm"] in LINKAGE_IDS]
        assert len(drawn) > len(linkage_calls)

    def test_degenerate_candidate_is_recorded_and_skipped(self, monkeypatch):
        def flaky(data, cfg):
            if cfg.algorithm_id == "SPS":
                raise DegenerateSpectrum("fewer than 2 usable eigenvectors")
            return run_algorithm(data, cfg)

        monkeypatch.setattr("cesel.consensus.run_algorithm", flaky)
        cfg = PipelineConfig(k_final=2, d_threshold=0.0, committee_target=4,
                             max_attempts=20, seed=5, roster=("K", "SPS"))
        final, report = run_ces(RING, cfg)
        failed = [t for t in report.trace if "error" in t]
        assert failed
        for t in failed:
            assert t["algorithm"] == "SPS" and t["admitted"] is False and t["diversity"] is None
            assert t["error"] == "DegenerateSpectrum"
            assert t["message"] == "fewer than 2 usable eigenvectors"
        assert report.n_ce == 4 and len(final) == RING.n
        assert all(e["algorithm"] == "K" for e in report.per_entry)
        ok = [t for t in report.trace if "error" not in t]
        assert all(set(t) == {"run_index", "algorithm", "diversity", "admitted"} for t in ok)
