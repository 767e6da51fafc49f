"""Co-association evidence, merge tree, cut, and the full pipeline."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.cluster.hierarchy
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cesel import clusterers
from cesel._agglo import cut_merges
from cesel.clusterers import LINKAGE_IDS, Dataset, Partition, run_algorithm
from cesel.consensus import (
    CommitteeEntry,
    PipelineConfig,
    average_linkage,
    cut,
    eac,
    fuse,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_weights_must_be_finite_and_non_negative(self, bad):
        # a NaN weight would reach the merge as a NaN co-association
        entries = [entry(part([0, 0, 1, 1]), run_index=i) for i in range(3)]
        for combine in (weac, lambda c, w: fuse(c, w, 2)):
            with pytest.raises(WeightMismatch, match="entry 1 "):
                combine(entries, [1.0, bad, 1.0])


class TestAverageLinkageCut:
    def test_block_diagonal_two_blocks(self):
        c = np.ones((6, 6))
        c[:3, 3:] = 0.0
        c[3:, :3] = 0.0
        tree = average_linkage(c)
        assert tree[-1, 2] == pytest.approx(1.0)  # blocks join at 1
        labels = cut(tree, 2).assignments
        assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
        assert labels[0] != labels[3]

    def test_all_ones_merges_at_zero(self):
        tree = average_linkage(np.ones((5, 5)))
        assert np.allclose(tree[:, 2], 0.0)

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
        tree = average_linkage(c)
        # brute-force average-linkage trace on D = 1 - C:
        # (0,1) at 0.1; (2,3) at 0.2; clusters join at mean cross D = 0.825
        assert np.array_equal(tree[:, [0, 1, 3]], [[0, 1, 2], [2, 3, 2], [4, 5, 4]])
        assert tree[0, 2] == pytest.approx(0.1)
        assert tree[1, 2] == pytest.approx(0.2)
        assert tree[2, 2] == pytest.approx(np.mean([0.9, 0.8, 0.7, 0.9]))
        labels = cut(tree, 2).assignments
        assert labels[0] == labels[1] and labels[2] == labels[3]

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            n = int(rng.integers(3, 15))
            parts = [part(rng.integers(0, 3, n), 3) for _ in range(4)]
            tree = average_linkage(eac(parts))
            heights = tree[:, 2]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))
            assert tree.shape == (n - 1, 4)

    def test_cut_extremes(self):
        c = eac([part([0, 1, 2, 0])])
        tree = average_linkage(c)
        assert cut(tree, 1).k == 1
        assert len(set(cut(tree, 1).assignments)) == 1
        singles = cut(tree, 4)
        assert sorted(singles.assignments) == [0, 1, 2, 3]

    def test_cut_always_k_nonempty(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            parts = [part(rng.integers(0, 4, n), 4) for _ in range(3)]
            tree = average_linkage(eac(parts))
            for k in range(1, n + 1):
                sizes = cut(tree, k).cluster_sizes()
                assert len(sizes) == k and np.all(sizes > 0)

    def test_invalid_k(self):
        tree = average_linkage(np.eye(3))
        with pytest.raises(InvalidK):
            cut(tree, 0)
        with pytest.raises(InvalidK):
            cut(tree, 4)


def dense(committee, weights, k):
    """The dense oracle for :func:`fuse`: n x n evidence, merge and cut."""
    return cut(average_linkage(weac(committee, weights)), k).assignments


def canonical(labels):
    """Labels renumbered by first occurrence, so equal partitions compare equal."""
    first = {}
    return [first.setdefault(v, len(first)) for v in labels]


@st.composite
def tie_free_committees(draw):
    """Committees over 2 <= u <= 6 signatures whose u x u evidence has no tie.

    Each of n samples takes one of u distinct label rows; weights are
    continuous, so pairs of signatures agreeing on different entries get
    different evidence, and the drawn labels must make every pair's
    agreement set different.
    """
    m = draw(st.integers(2, 8))
    u = draw(st.integers(2, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                         min_size=u, max_size=u, unique_by=tuple))
    n = draw(st.integers(u, 40))
    which = np.array(list(range(u)) + draw(st.lists(st.integers(0, u - 1),
                                                    min_size=n - u, max_size=n - u)))
    which = which[np.asarray(draw(st.permutations(range(n))))]
    rows = np.array(rows)
    labels = rows[which].T
    agree = [tuple(a == b) for i, a in enumerate(rows) for b in rows[i + 1:]]
    assume(len(set(agree)) == len(agree))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.05, 1.0, m)
    return [entry(part(row, 4), run_index=i) for i, row in enumerate(labels)], weights, u


def spy_weac(monkeypatch):
    """Record the size of every matrix the pipeline's ``weac`` returns."""
    shapes = []

    def recording(committee, weights):
        c = weac(committee, weights)
        shapes.append(c.shape[0])
        return c

    monkeypatch.setattr("cesel.consensus.weac", recording)
    return shapes


class TestFuse:
    @settings(max_examples=200, deadline=None)
    @given(tie_free_committees(), st.integers(2, 8))
    def test_matches_dense_oracle_when_tie_free(self, drawn, k):
        committee, weights, _ = drawn
        k = min(k, len(committee[0].partition))
        assert np.array_equal(fuse(committee, weights, k).assignments,
                              dense(committee, weights, k))

    @settings(max_examples=100, deadline=None)
    @given(tie_free_committees(), st.integers(2, 8), st.data())
    def test_sample_permutation_equivariance(self, drawn, k, data):
        # Below u clusters the dense fallback ties equal rows by position.
        committee, weights, u = drawn
        n = len(committee[0].partition)
        k = min(k, u)
        perm = np.asarray(data.draw(st.permutations(range(n))))
        permuted = [entry(part(e.partition.assignments[perm], 4), run_index=e.run_index)
                    for e in committee]
        base = fuse(committee, weights, k).assignments
        assert canonical(fuse(permuted, weights, k).assignments) == canonical(base[perm])

    def test_group_sizes_steer_the_merge(self):
        # Signatures {0, 1}, {2}, {3, 4, 5} and {6}; merged with unit sizes
        # the representatives would cut [0, 0, 1, 1, 1, 1, 0].
        labels = [[2, 2, 0, 0, 0, 0, 2], [2, 2, 2, 2, 2, 2, 0], [1, 1, 0, 1, 1, 1, 1]]
        committee = [entry(part(row, 3), run_index=i) for i, row in enumerate(labels)]
        weights = np.array([0.6, 0.5, 0.8])
        result = fuse(committee, weights, 2).assignments
        assert result.tolist() == [0, 0, 1, 0, 0, 0, 0]
        assert np.array_equal(result, dense(committee, weights, 2))

    def test_all_zero_weights_fall_back_to_dense(self, monkeypatch):
        shapes = spy_weac(monkeypatch)
        parts = [part([0, 0, 1, 1, 2]), part([0, 1, 1, 0, 2])]
        committee = [entry(p, run_index=i) for i, p in enumerate(parts)]
        result = fuse(committee, np.zeros(2), 3)
        assert shapes == [5]
        assert np.array_equal(result.assignments, dense(committee, np.zeros(2), 3))

    def test_fewer_signatures_than_k_falls_back_to_dense(self, monkeypatch):
        shapes = spy_weac(monkeypatch)
        parts = [part([0, 0, 1, 1, 1, 0]), part([1, 1, 0, 0, 0, 1])]  # u = 2
        committee = [entry(p, run_index=i) for i, p in enumerate(parts)]
        weights = np.array([0.3, 0.8])
        result = fuse(committee, weights, 3)
        assert shapes == [6]
        assert np.array_equal(result.assignments, dense(committee, weights, 3))
        assert len(set(result.assignments)) == 3

    def test_zero_weight_entry_does_not_split_a_signature(self, monkeypatch):
        shapes = spy_weac(monkeypatch)
        parts = [part([0, 0, 1, 1, 2, 2]), part([0, 0, 0, 0, 1, 1]), part([0, 1, 2, 3, 4, 5])]
        committee = [entry(p, run_index=i) for i, p in enumerate(parts)]
        weights = np.array([0.7, 0.4, 0.0])
        result = fuse(committee, weights, 2)
        assert shapes == [3]  # the last entry would split all three pairs
        assert np.array_equal(result.assignments, dense(committee, weights, 2))
        assert result.assignments.tolist() == [0, 0, 0, 0, 1, 1]

    def test_distinct_signatures_match_dense_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(137)
        parts = [part(np.arange(12))] + [part(rng.integers(0, 3, 12), 3) for _ in range(3)]
        committee = [entry(p, run_index=i) for i, p in enumerate(parts)]
        weights = np.array([0.2, 0.5, 0.5, 0.9])
        trees = []

        def recording(c, sizes=None):
            trees.append(average_linkage(c, sizes))
            return trees[-1]

        monkeypatch.setattr("cesel.consensus.average_linkage", recording)
        for k in range(2, 13):
            assert np.array_equal(fuse(committee, weights, k).assignments,
                                  dense(committee, weights, k))
        assert np.array_equal(trees[0], average_linkage(weac(committee, weights)))  # u = n

    def test_eac_mode_matches_dense_eac(self, monkeypatch):
        fused = []

        def recording(committee, weights, k):
            fused.append((committee, weights, k))
            return fuse(committee, weights, k)

        monkeypatch.setattr("cesel.consensus.fuse", recording)
        cfg = PipelineConfig(k_final=3, d_threshold=0.0, committee_target=4,
                             max_attempts=12, seed=139, consensus="eac", roster=("K", "F"),
                             vary_k=True)
        final, _ = run_ces(BLOBS, cfg)
        (committee, weights, k), = fused
        assert np.array_equal(weights, np.ones(4))
        oracle = cut(average_linkage(eac([e.partition for e in committee])), k)
        assert np.array_equal(final.assignments, oracle.assignments)

    def test_memory_stays_at_signature_scale(self):
        # One dense 6000 x 6000 float64 matrix is 288 MB.
        rng = np.random.default_rng(149)
        n = 6000
        parts = [part(rng.integers(0, 2, n), 2) for _ in range(6)]  # <= 64 signatures
        committee = [entry(p, run_index=i) for i, p in enumerate(parts)]
        weights = rng.uniform(0.1, 1.0, 6)
        tracemalloc.start()
        try:
            result = fuse(committee, weights, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(set(result.assignments)) == 3
        assert peak < 16 * 2**20


BLOBS = gen_blobs(15, [[0.0, 0.0], [9.0, 9.0]], 0.5, seed=97)


def test_kmeans_fcm_runs_leave_scipy_spatial_unloaded():
    # Loading scipy.spatial (scipy.cluster loads it too) takes ~0.14 s, which
    # a K/F-only pipeline, like the blobs-consensus benchmark, need not pay.
    env = dict(os.environ, PYTHONPATH=str(Path(clusterers.__file__).parents[1]))
    code = (
        "import sys, cesel\n"
        "from cesel.consensus import PipelineConfig, run_ces\n"
        "from cesel.harness import gen_blobs\n"
        "data = gen_blobs(20, [[0, 0], [6, 6], [0, 6]], 1.0, seed=1)\n"
        "run_ces(data, PipelineConfig(k_final=3, d_threshold=0.0, committee_target=6,\n"
        "                             max_attempts=12, roster=('K', 'F'), vary_k=True))\n"
        "loaded = [m for m in ('scipy.spatial', 'scipy.cluster') if m in sys.modules]\n"
        "print(loaded)\n"
        "sys.exit(1 if loaded else 0)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


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
        with pytest.raises(ValueError, match=r"repeated algorithm IDs: \['K'\]"):
            PipelineConfig(k_final=2, roster=("K", "F", "K"))


RING = gen_half_ring(60, 0.05, seed=11)
# Candidate k in [2, 4]. SPS_CFG draws SPS at k = 2, 2, 2, 4, 3 in its 14
# attempts; FULL_CFG, the whole roster, at k = 3, 2, 2, 3, 3 in its 23.
SPS_CFG = PipelineConfig(k_final=2, d_threshold=0.0, committee_target=14, max_attempts=14,
                         seed=3, roster=("K", "SPS"), vary_k=True)
FULL_CFG = PipelineConfig(k_final=2, d_threshold=0.35, committee_target=8,
                          max_attempts=32, seed=7, vary_k=True)
LINKAGE_CFG = PipelineConfig(k_final=2, d_threshold=0.35, committee_target=8,
                             max_attempts=32, seed=5, roster=LINKAGE_IDS, vary_k=True)


def _deterministic(report):
    doc = report.to_dict()
    doc.pop("wall_time_ms")
    return doc


def _without_memo(data, cfg, monkeypatch):
    """run_ces with every linkage and SPS run computing its own tree or embedding."""
    with monkeypatch.context() as m:
        m.setattr(Dataset, "with_memo", lambda self: self)
        return run_ces(data, cfg)


def _recording(monkeypatch):
    """Record the dataset and config of every candidate run."""
    seen = []

    def recording(data, cfg):
        seen.append((data, cfg))
        return run_algorithm(data, cfg)

    monkeypatch.setattr("cesel.consensus.run_algorithm", recording)
    return seen


class TestCandidateRuns:
    def test_each_linkage_tree_is_built_once(self, monkeypatch):
        built = []
        engine, compiled = clusterers.linkage_merge, scipy.cluster.hierarchy.linkage

        def counting(build):
            def counted(*args):
                built.append(build)
                return build(*args)
            return counted

        monkeypatch.setattr(clusterers, "linkage_merge", counting(engine))
        monkeypatch.setattr(clusterers, "chain_tree", counting(clusterers.chain_tree))
        monkeypatch.setattr(scipy.cluster.hierarchy, "linkage", counting(compiled))
        seen = _recording(monkeypatch)
        cfg = PipelineConfig(k_final=2, d_threshold=0.35, committee_target=8,
                             max_attempts=32, seed=3, vary_k=True)
        _, report = run_ces(RING, cfg)
        assert len(seen) == report.attempts  # no cache sits above the clusterers
        drawn_ks: dict[str, set[int]] = {}
        for _, run_cfg in seen:
            if run_cfg.algorithm_id in LINKAGE_IDS:
                drawn_ks.setdefault(run_cfg.algorithm_id, set()).add(run_cfg.k)
        assert len(built) == len(drawn_ks)
        # the memo was exercised across k: some ID was cut at two or more k
        assert any(len(ks) >= 2 for ks in drawn_ks.values())

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

    def test_spectral_embedding_computed_once_per_k(self, monkeypatch):
        computed = []
        embed = clusterers._spectral_embedding

        def counting(x, k):
            computed.append(k)
            return embed(x, k)

        monkeypatch.setattr(clusterers, "_spectral_embedding", counting)
        seen = _recording(monkeypatch)
        run_ces(RING, SPS_CFG)
        drawn = [cfg.k for _, cfg in seen if cfg.algorithm_id == "SPS"]
        assert sorted(computed) == sorted(set(drawn))
        assert len(drawn) > len(computed)  # the memo was hit

    @pytest.mark.parametrize("cfg", [SPS_CFG, FULL_CFG, LINKAGE_CFG])
    def test_memo_leaves_reports_unchanged(self, cfg, monkeypatch):
        _, want = _without_memo(RING, cfg, monkeypatch)
        _, got = run_ces(RING, cfg)
        assert _deterministic(got) == _deterministic(want)

    def test_each_call_gets_its_own_memo(self, monkeypatch):
        other = gen_half_ring(RING.n, 0.05, seed=12)
        samples = RING.samples.copy()
        want = [_deterministic(_without_memo(d, SPS_CFG, monkeypatch)[1]) for d in (RING, other)]
        seen = _recording(monkeypatch)
        got = [_deterministic(run_ces(d, SPS_CFG)[1]) for d in (RING, other)]
        assert got == want
        first, second = (d for d, _ in seen[:1] + seen[-1:])
        assert first._memo is not second._memo
        assert all(d is not RING and d is not other for d, _ in seen)
        assert RING._memo is None and np.array_equal(RING.samples, samples)

    def test_cached_embeddings_are_read_only(self, monkeypatch):
        seen = _recording(monkeypatch)
        run_ces(RING, SPS_CFG)
        run_ces(RING, LINKAGE_CFG)
        memos = {id(d._memo): d._memo for d, _ in seen}
        assert len(memos) == 2
        trees = cuts = embeddings = 0
        for memo in memos.values():
            for key, value in memo.items():
                if key in LINKAGE_IDS:
                    trees += 1
                    assert value.shape == (RING.n - 1, 4)
                elif key[0] in LINKAGE_IDS:
                    cuts += 1
                    assert np.array_equal(value, cut_merges(memo[key[0]], key[1]))
                else:
                    embeddings += 1
                    assert key[0] == "SPS" and value.shape == (RING.n, key[1])
                assert not value.flags.writeable
                with pytest.raises(ValueError):
                    value[(0,) * value.ndim] = 0
        assert trees and cuts and embeddings

    def test_degenerate_spectrum_is_remembered(self, monkeypatch):
        computed = []

        def degenerate(x, k):
            computed.append(k)
            raise DegenerateSpectrum(f"fewer than {k} usable eigenvectors")

        monkeypatch.setattr(clusterers, "_spectral_embedding", degenerate)
        _, want = _without_memo(RING, SPS_CFG, monkeypatch)
        drawn = len(computed)
        computed.clear()
        _, got = run_ces(RING, SPS_CFG)
        assert got.trace == want.trace
        failed = [t for t in got.trace if "error" in t]
        assert len(failed) == drawn > len(computed) == len(set(computed))
        assert {t["message"] for t in failed} == {
            f"fewer than {k} usable eigenvectors" for k in computed}
