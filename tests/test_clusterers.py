"""Base clusterers: geometry sanity, determinism, parameter reporting."""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial.distance import pdist, squareform

from cesel import assets, clusterers
from cesel._agglo import cut_merges, linkage_merge
from cesel.clusterers import (
    ALGORITHM_IDS,
    ClustererConfig,
    Dataset,
    LINKAGE_IDS,
    Partition,
    _cosine_distances,
    _linkage_tree,
    preprocess,
    run_algorithm,
    run_fcm,
    run_kmeans,
    run_linkage,
    run_spectral_sparse,
)
from cesel.errors import AllMissingColumn, ColumnOverflow, InvalidK
from cesel.harness import accuracy, gen_blobs, gen_half_ring, load_csv
from cesel.independency import bpi


def _unscaled(points):
    """Dataset wrapper that skips standardization (unit-test geometry)."""
    pts = np.asarray(points, dtype=float)
    return Dataset(samples=pts, raw=pts)


RECTANGLE = _unscaled([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


class TestPreprocess:
    def test_two_value_column(self):
        ds = preprocess(np.array([[1.0], [3.0]]))
        assert np.allclose(ds.samples.ravel(), [-1.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        ds = preprocess(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        assert np.all(ds.samples[:, 0] == 0.0)

    def test_missing_cell_imputed_with_column_mean(self):
        ds = preprocess(np.array([[1.0], [np.nan], [3.0]]))
        # imputed 2 before scaling; scaled column is symmetric around it
        assert ds.samples[1, 0] == 0.0
        assert np.allclose(ds.samples[:, 0], [-1.224744871391589, 0.0, 1.224744871391589])

    def test_all_missing_column_rejected(self):
        with pytest.raises(AllMissingColumn):
            preprocess(np.array([[np.nan, 1.0], [np.nan, 2.0]]))

    @pytest.mark.parametrize("column", [[1e308, -1e308, 1e308], [1e308, 1e308, 1e308],
                                        [1e308, np.nan, 1e308], [1e160, 0.0, -1e160]])
    def test_overflowing_column_rejected(self, column):
        raw = np.column_stack([[1.0, 2.0, 4.0], column])
        with pytest.raises(ColumnOverflow, match="'b'"):
            preprocess(raw, feature_names=("a", "b"))

    def test_large_finite_column_scales_as_the_formula(self):
        raw = np.array([[1e150, 1.0], [-3e150, 2.0], [2e150, 4.0]])
        want = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        assert np.array_equal(preprocess(raw).samples, want)

    def test_columns_end_up_standardized(self):
        rng = np.random.default_rng(71)
        ds = preprocess(rng.normal(3.0, 7.0, size=(40, 3)))
        assert np.allclose(ds.samples.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(ds.samples.std(axis=0), 1.0, atol=1e-12)

    def test_raw_matrix_preserved(self):
        raw = np.array([[1.0, np.nan], [2.0, 5.0]])
        ds = preprocess(raw)
        assert np.isnan(ds.raw[0, 1])
        assert ds.raw[0, 0] == 1.0

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 0, 1, 0, 1], [[0], [1], [0], [1], [0]]])
    def test_labels_must_give_one_label_per_sample(self, labels):
        with pytest.raises(ValueError, match="labels"):
            preprocess(np.arange(10.0).reshape(5, 2), labels=labels)

    @pytest.mark.parametrize("names", [("a",), ("a", "b", "c")])
    def test_feature_names_must_name_every_column(self, names):
        with pytest.raises(ValueError, match="feature names"):
            preprocess(np.arange(10.0).reshape(5, 2), feature_names=names)

    @pytest.mark.parametrize("raw", [np.zeros((3, 7)), np.zeros((5, 3)), np.zeros(10)])
    def test_raw_matrix_must_match_the_samples(self, raw):
        with pytest.raises(ValueError, match="raw matrix"):
            Dataset(samples=np.arange(10.0).reshape(5, 2), raw=raw)


class TestKmeans:
    def test_rectangle_corners(self):
        # whenever the two seeds straddle the short sides, the short sides
        # pair up; seeding both centroids on one short side locks the other
        # (orthogonal) fixed point, which is why restarts matter
        straddled = locked = 0
        for seed in range(12):
            part, params = run_kmeans(RECTANGLE, ClustererConfig("K", k=2, seed=seed))
            a = part.assignments
            if params.rows[0, 0] != params.rows[1, 0]:
                straddled += 1
                assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
            else:
                locked += 1
                assert a[0] == a[2] and a[1] == a[3] and a[0] != a[1]
        assert straddled > 0  # both cases actually exercised
        assert locked > 0

    def test_k_equals_n_singletons(self):
        part, _ = run_kmeans(RECTANGLE, ClustererConfig("K", k=4, seed=1))
        assert sorted(part.assignments) == [0, 1, 2, 3]

    def test_params_are_initial_centroids(self):
        data = gen_blobs(15, [[0, 0], [6, 6]], 0.5, seed=5)
        _, params = run_kmeans(data, ClustererConfig("K", k=2, seed=9))
        assert params.rows.shape == (2, 2)
        # initial centroids are data points
        found = [
            any(np.allclose(row, x) for x in data.samples) for row in params.rows
        ]
        assert all(found)

    def test_iris_band(self):
        # ten seeds on the bundled flowers stay near the expected range
        from cesel import assets
        from cesel.harness import load_csv

        iris = load_csv(assets.iris_csv_path(), label_column="species")
        scores = [
            accuracy(run_kmeans(iris, ClustererConfig("K", k=3, seed=s))[0], iris.labels)
            for s in range(10)
        ]
        # the reference band is 65.3 +/- 1.46 under a different initializer;
        # seeded Forgy starts land a little above it, so the loose check only
        # pins "mediocre alone, far below the ensemble"
        assert 55.0 <= np.mean(scores) <= 86.0


class TestFcm:
    def test_separated_blobs(self):
        data = gen_blobs(20, [[0, 0], [9, 9]], 0.5, seed=2)
        part, _ = run_fcm(data, ClustererConfig("F", k=2, seed=4))
        assert accuracy(part, data.labels) == 100.0

    def test_two_seeds_same_fixpoint_same_partition(self):
        data = gen_blobs(20, [[0, 0], [9, 9]], 0.4, seed=8)
        p1, _ = run_fcm(data, ClustererConfig("F", k=2, seed=1))
        p2, _ = run_fcm(data, ClustererConfig("F", k=2, seed=2))
        # well-separated blobs: both seeds converge to the same hard split
        assert _same_up_to_relabel(p1, p2)

    def test_uniform_data_seed_dependent_but_deterministic(self):
        rng = np.random.default_rng(13)
        data = preprocess(rng.random((30, 2)))
        a1, _ = run_fcm(data, ClustererConfig("F", k=2, seed=5))
        a2, _ = run_fcm(data, ClustererConfig("F", k=2, seed=5))
        assert np.array_equal(a1.assignments, a2.assignments)

    def test_params_shape(self):
        data = gen_blobs(10, [[0, 0], [5, 5]], 0.5, seed=3)
        _, params = run_fcm(data, ClustererConfig("F", k=2, seed=6))
        assert params.rows.shape == (2, 2)


class TestLinkage:
    def test_blobs_single_link(self):
        data = gen_blobs(15, [[0, 0], [7, 7]], 0.4, seed=6)
        part, _ = run_linkage(data, ClustererConfig("SLE", k=2, seed=0))
        assert accuracy(part, data.labels) == 100.0

    def test_deterministic_and_bpi_zero(self):
        data = gen_blobs(10, [[0, 0], [6, 6]], 0.5, seed=7)
        p1, b1 = run_linkage(data, ClustererConfig("ALE", k=2, seed=11))
        p2, b2 = run_linkage(data, ClustererConfig("ALE", k=2, seed=99))
        assert np.array_equal(p1.assignments, p2.assignments)
        assert bpi(b1, b2) == 0.0

    def test_chain_complete_vs_single_cut_differs(self):
        # six equally spaced collinear points: single link chains (ties) while
        # complete link splits into two triples
        pts = np.column_stack([np.arange(6.0), np.zeros(6)])
        data = preprocess(pts)
        single, _ = run_linkage(data, ClustererConfig("SLE", k=2, seed=0))
        complete, _ = run_linkage(data, ClustererConfig("CLE", k=2, seed=0))
        assert np.array_equal(complete.assignments, [0, 0, 0, 1, 1, 1])
        assert not np.array_equal(single.assignments, complete.assignments)

    def test_every_linkage_id_runs_and_fills_k(self):
        data = gen_blobs(8, [[0, 0], [5, 5], [0, 9]], 0.4, seed=9)
        for alg in LINKAGE_IDS:
            part, params = run_linkage(data, ClustererConfig(alg, k=3, seed=0))
            assert np.all(part.cluster_sizes() > 0)
            assert params.rows.shape == (1, 2)

    def test_bad_id_rejected(self):
        with pytest.raises(ValueError):
            run_linkage(RECTANGLE, ClustererConfig("XLE", k=2, seed=0))

    def test_only_hamming_ids_reach_the_engine(self, monkeypatch):
        reached = []

        def counting(dissimilarity, method):
            reached.append(method)
            return linkage_merge(dissimilarity, method)

        monkeypatch.setattr(clusterers, "linkage_merge", counting)
        blobs = gen_blobs(8, [[0, 0], [5, 5], [0, 9]], 0.4, seed=9)
        for alg in LINKAGE_IDS:  # continuous: the Hamming IDs chain without the engine
            run_linkage(blobs, ClustererConfig(alg, k=3, seed=0))
        assert reached == []
        data = preprocess(np.round(blobs.raw))  # tied coordinates
        for alg in LINKAGE_IDS:
            before = len(reached)
            run_linkage(data, ClustererConfig(alg, k=3, seed=0))
            assert len(reached) - before == (alg[2] == "H"), alg
        assert sorted(reached) == ["average", "complete", "single", "ward"]

    @pytest.mark.parametrize("alg", [alg for alg in LINKAGE_IDS if alg[2] == "H"])
    def test_hamming_ids_chain_without_a_distance_matrix(self, alg, monkeypatch):
        # All-distinct columns: the tree is chain_tree(n), neither counted nor merged.
        def forbidden(*args):
            raise AssertionError("no n x n Hamming work on all-distinct data")

        monkeypatch.setattr("scipy.spatial.distance.pdist", forbidden)
        monkeypatch.setattr(clusterers, "linkage_merge", forbidden)
        n = 30
        data = gen_half_ring(n, 0.05, seed=5)
        for k in range(1, n + 1):
            part, _ = run_linkage(data, ClustererConfig(alg, k=k, seed=0))
            assert np.array_equal(part.assignments, np.r_[np.zeros(n + 1 - k), np.arange(1, k)]), k

    @pytest.mark.parametrize("alg", [alg for alg in LINKAGE_IDS if alg[2] == "H"])
    def test_hamming_ids_chain_on_continuous_data(self, alg):
        # No two half-ring samples share a coordinate, so every Hamming
        # distance is 1 and each cut splits off the last k-1 samples.
        data = gen_half_ring(40, 0.05, seed=3)
        assert np.all(pdist(data.samples, "hamming") == 1.0)
        for k in range(1, 41):
            part, _ = run_linkage(data, ClustererConfig(alg, k=k, seed=0))
            assert np.array_equal(part.assignments, np.r_[np.zeros(41 - k), np.arange(1, k)]), k

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 40), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([alg for alg in LINKAGE_IDS if alg[2] != "H"]))
    def test_scipy_path_matches_engine_on_tie_free_points(self, n, d, seed, alg):
        data = _unscaled(np.random.default_rng(seed).normal(size=(n, d)))
        condensed = {"E": pdist, "C": _cosine_distances}[alg[2]](data.samples)
        assume(np.unique(condensed).size == condensed.size)
        tree = linkage_merge(squareform(condensed), clusterers._LINKAGE_NAMES[alg[0]])
        for k in range(1, n + 1):
            part, _ = run_linkage(data, ClustererConfig(alg, k=k, seed=0))
            assert np.array_equal(part.assignments, cut_merges(tree, k)), k

    def test_scipy_path_matches_engine_on_iris_up_to_k_77(self):
        # 639 of iris's 11,175 Euclidean distances repeat another, so scipy
        # may merge tied pairs in another order than the engine. The cuts
        # agree at every k a pipeline draws (at most 2 * k_final) and far
        # beyond; 5 of the 584 cuts above k = 77 differ.
        x = load_csv(assets.iris_csv_path(), label_column="species").samples
        differ = []
        for alg in (a for a in LINKAGE_IDS if a[2] != "H"):
            condensed = pdist(x) if alg[2] == "E" else _cosine_distances(x)
            engine = linkage_merge(squareform(condensed), clusterers._LINKAGE_NAMES[alg[0]])
            tree = _linkage_tree(x, alg)
            differ += [k for k in range(1, len(x) + 1)
                       if not np.array_equal(cut_merges(tree, k), cut_merges(engine, k))]
        assert min(differ) == 78 and len(differ) == 5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
    def test_memoized_tree_cuts_as_a_fresh_run(self, n, d, seed, draw):
        # Few distinct values on a small grid, plus a repeated row: points
        # coincide and distances tie, so the tie rules decide the trees.
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 3, size=(n, d)).astype(float)
        points[-1] = points[0]
        data = preprocess(points)
        memo = data.with_memo()
        ks = draw.draw(st.lists(st.integers(1, n), min_size=1, max_size=6))
        for alg in LINKAGE_IDS:
            for k in ks:
                cfg = ClustererConfig(alg, k=k, seed=k)
                got, got_params = run_linkage(memo, cfg)
                want, want_params = run_linkage(data, cfg)
                assert np.array_equal(got.assignments, want.assignments), (alg, k)
                assert got_params.algorithm_id == want_params.algorithm_id
                assert np.array_equal(got_params.rows, want_params.rows)
        assert data._memo is None
        cuts = {(alg, k) for alg in LINKAGE_IDS for k in ks}
        assert set(memo._memo) == set(LINKAGE_IDS) | cuts
        for alg, k in cuts:
            labels = memo._memo[alg, k]
            assert not labels.flags.writeable
            assert np.array_equal(labels, cut_merges(memo._memo[alg], k)), (alg, k)


class TestDistanceMatrices:
    def test_euclidean_basics(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert _linkage_tree(x, "SLE").tolist() == [[0.0, 1.0, 5.0, 2.0]]

    def test_hamming_counts_differing_coordinates(self):
        x = np.array([[1.0, 2.0, 3.0], [1.0, 2.5, 3.0], [9.0, 9.0, 9.0]])
        d = squareform(pdist(x, "hamming"))
        assert d[0, 1] == pytest.approx(1 / 3)
        assert d[0, 2] == 1.0
        assert np.all(np.diag(d) == 0.0)

    def test_hamming_exact_gap(self):
        # Any gap is a difference, however small; -0.0 and 0.0 are one value.
        x = np.array([[0.0], [1e-12], [-0.0], [np.nextafter(1e-12, 1.0)]])
        d = squareform(pdist(x, "hamming"))
        assert d[0, 1] == 1.0 and d[1, 3] == 1.0 and d[0, 2] == 0.0
        assert _linkage_tree(x, "SLH")[0].tolist() == [0.0, 2.0, 0.0, 2.0]
        assert np.array_equal(_linkage_tree(x[:2], "SLH"), [[0.0, 1.0, 1.0, 2.0]])

    def test_cosine_right_angle(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        d01, d02, d12 = _cosine_distances(x)  # condensed: (0, 1), (0, 2), (1, 2)
        assert d01 == pytest.approx(1.0)
        assert d02 == pytest.approx(0.0, abs=1e-12)
        assert d12 == pytest.approx(1.0)

    def test_cosine_zero_rows(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
        d = squareform(_cosine_distances(x))
        assert d[0, 2] == 0.0  # both undefined directions treated as identical
        assert d[0, 1] == d[0, 3] == d[2, 1] == d[2, 3] == 1.0
        assert d[1, 3] == pytest.approx(0.0, abs=1e-12)


class TestSpectralSparse:
    def test_half_rings_beat_kmeans(self):
        hr = gen_half_ring(300, 0.05, seed=17)
        spectral, _ = run_spectral_sparse(hr, ClustererConfig("SPS", k=2, seed=3))
        km, _ = run_kmeans(hr, ClustererConfig("K", k=2, seed=3))
        assert accuracy(spectral, hr.labels) >= 95.0
        assert accuracy(spectral, hr.labels) > accuracy(km, hr.labels)

    def test_two_far_blobs_exact(self):
        data = gen_blobs(20, [[0, 0], [50, 50]], 0.5, seed=21)
        part, _ = run_spectral_sparse(data, ClustererConfig("SPS", k=2, seed=2))
        assert accuracy(part, data.labels) == 100.0

    def test_dense_graph_matches_sparse_on_blobs(self, monkeypatch):
        data = gen_blobs(15, [[0, 0], [20, 20]], 0.5, seed=23)
        sparse, _ = run_spectral_sparse(data, ClustererConfig("SPS", k=2, seed=5))
        monkeypatch.setattr(clusterers, "_MAX_NEIGHBORS", data.n - 1)
        dense, _ = run_spectral_sparse(data, ClustererConfig("SPS", k=2, seed=5))
        assert _same_up_to_relabel(sparse, dense)

    def test_params_live_in_embedded_space(self):
        data = gen_blobs(12, [[0, 0], [9, 9]], 0.4, seed=25)
        _, params = run_spectral_sparse(data, ClustererConfig("SPS", k=2, seed=7))
        assert params.rows.shape == (2, 2)  # k x k embedding centroids


class TestContracts:
    def test_seeded_determinism_everywhere(self):
        data = gen_blobs(12, [[0, 0], [6, 6]], 0.6, seed=29)
        for alg in ALGORITHM_IDS:
            cfg = ClustererConfig(alg, k=2, seed=31)
            p1, b1 = run_algorithm(data, cfg)
            p2, b2 = run_algorithm(data, cfg)
            assert np.array_equal(p1.assignments, p2.assignments), alg
            assert np.array_equal(b1.rows, b2.rows), alg

    def test_all_clusters_nonempty(self):
        data = gen_blobs(10, [[0, 0], [4, 4]], 1.5, seed=33)
        for alg in ALGORITHM_IDS:
            part, _ = run_algorithm(data, ClustererConfig(alg, k=4, seed=37))
            assert np.all(part.cluster_sizes() > 0), alg

    def test_label_permutation_leaves_accuracy_unchanged(self):
        data = gen_blobs(10, [[0, 0], [8, 8]], 0.5, seed=39)
        part, _ = run_kmeans(data, ClustererConfig("K", k=2, seed=41))
        base = accuracy(part, data.labels)
        flipped = Partition(1 - part.assignments, 2)
        assert accuracy(flipped, data.labels) == base

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            run_kmeans(RECTANGLE, ClustererConfig("K", k=5, seed=0))

    @pytest.mark.parametrize("alg", ALGORITHM_IDS)
    def test_k_above_n_raises_before_any_memoized_work(self, alg):
        data = gen_blobs(4, [[0, 0], [4, 4]], 0.5, seed=43).with_memo()
        with pytest.raises(InvalidK):
            run_algorithm(data, ClustererConfig(alg, k=data.n + 1, seed=0))
        assert data._memo == {}

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 3]), 2)
        with pytest.raises(ValueError):
            Partition(np.array([0, 1]), 0)


def _same_up_to_relabel(p1: Partition, p2: Partition) -> bool:
    if p1.k != p2.k or len(p1) != len(p2):
        return False
    mapping = {}
    for a, b in zip(p1.assignments, p2.assignments):
        if mapping.setdefault(a, b) != b:
            return False
    return len(set(mapping.values())) == len(mapping)
