"""Cell dependence, greedy independency degree, run-level matching, weights."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.spatial.distance import cdist

from cesel import assets
from cesel.cail import GraphArray
from cesel.consensus import CommitteeEntry
from cesel.clusterers import Partition
from cesel.errors import (
    CommitteeTooSmall,
    DataFileError,
    DimensionMismatch,
    DuplicateAlgorithmId,
    EmptyCell,
    UnknownAlgorithm,
)
from cesel.independency import (
    BasicParams,
    Cddm,
    _greedy_extract,
    _pad_to_common,
    ai_weights,
    aid,
    bpi,
    build_aidm,
    build_cddm,
    compare_cells,
    load_aidm_csv,
    max_cells,
    reference_aidm,
    save_aidm_csv,
)


def arr(name, *cells):
    return GraphArray(name, tuple(tuple(c) for c in cells))


K_ARRAY = arr("K", ["R(1)"], ["F(1)", "M(1)"])
F_ARRAY = arr("F", ["R(1)"], ["M(2)", "M(3)"])


def oracle_compare(cell1, cell2):
    """Literal match-with-removal loop, independent of the implementation."""
    remaining = list(cell2)
    count = 0
    for sym in cell1:
        if sym in remaining:
            remaining.remove(sym)
            count += 1
    return count / max(len(cell1), len(cell2))


class TestCompareCells:
    def test_identical_singletons(self):
        assert compare_cells(["R(1)"], ["R(1)"]) == 1.0

    def test_disjoint(self):
        assert compare_cells(["F(1)", "M(1)"], ["M(2)", "M(3)"]) == 0.0

    def test_partial_overlap(self):
        assert compare_cells(["M(1)", "M(2)"], ["M(1)"]) == 0.5

    def test_empty_cell_rejected(self):
        with pytest.raises(EmptyCell):
            compare_cells([], ["M(1)"])
        with pytest.raises(EmptyCell):
            compare_cells(["M(1)"], [])

    def test_matches_removal_oracle_with_duplicates(self):
        rng = np.random.default_rng(11)
        pool = ["R(1)", "M(1)", "M(2)", "F(1)"]
        for _ in range(2000):
            c1 = [pool[i] for i in rng.integers(0, len(pool), rng.integers(1, 5))]
            c2 = [pool[i] for i in rng.integers(0, len(pool), rng.integers(1, 5))]
            got = compare_cells(c1, c2)
            assert got == oracle_compare(c1, c2)
            assert got == compare_cells(c2, c1)
            assert 0.0 <= got <= 1.0


class TestCddm:
    def test_worked_pair(self):
        cddm = build_cddm(K_ARRAY, F_ARRAY)
        assert cddm.values.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_self_diagonal_is_one(self):
        a = arr("X", ["M(1)"], ["M(2)", "M(3)"], ["F(1)"])
        cddm = build_cddm(a, a)
        assert np.allclose(np.diag(cddm.values), 1.0)

    def test_rectangular(self):
        one = arr("A", ["R(1)"])
        cddm = build_cddm(one, F_ARRAY)
        assert cddm.values.shape == (1, 2)
        assert cddm.values.tolist() == [[1.0, 0.0]]


class TestAid:
    def test_worked_pair_exact(self):
        cddm = build_cddm(K_ARRAY, F_ARRAY)
        assert max_cells(cddm) == [1.0, 0.0]
        assert aid(K_ARRAY, F_ARRAY) == 0.5

    def test_self_is_zero(self):
        for a in (K_ARRAY, F_ARRAY, arr("X", ["M(1)", "M(1)"], ["M(2)"])):
            assert aid(a, a) == 0.0

    def test_fully_disjoint_singletons(self):
        assert aid(arr("A", ["R(1)"]), arr("B", ["M(2)", "M(3)"])) == 1.0

    def test_unequal_cell_counts_use_max_denominator(self):
        a = arr("A", ["R(1)"])
        b = arr("B", ["R(1)"], ["M(2)", "M(3)"])
        # one extraction (value 1), denominator 2
        assert aid(a, b) == 0.5

    def test_tie_break_row_major(self):
        # both rows tie at 1.0; smallest (row, col) must be taken first
        a = arr("A", ["M(1)"], ["M(1)"])
        b = arr("B", ["M(1)"], ["M(1)"])
        cddm = build_cddm(a, b)
        assert max_cells(cddm) == [1.0, 1.0]
        assert aid(a, b) == 0.0


def random_array(rng, name, max_cells_=4, max_syms=4):
    pool = ["R(1)", "R(2)", "M(1)", "M(2)", "M(3)", "F(1)", "F(2)"]
    cells = []
    for _ in range(rng.integers(1, max_cells_ + 1)):
        size = rng.integers(1, max_syms + 1)
        cells.append(tuple(pool[i] for i in rng.integers(0, len(pool), size)))
    return arr(name, *cells)


class TestAidProperties:
    def test_symmetry_range_and_self_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(1200):
            a = random_array(rng, "A")
            b = random_array(rng, "B")
            ab = aid(a, b)
            assert ab == aid(b, a)
            assert 0.0 <= ab <= 1.0
            assert aid(a, a) == 0.0

    def test_shared_symbol_removal_is_not_monotone(self):
        # "fewer shared symbols => higher independency" sounds plausible but
        # is false: deleting a shared symbol shrinks its cell, which can make
        # that cell match *other* cells better. Documented counterexample:
        a = arr("A", ["R(1)", "M(1)"])
        b = arr("B", ["R(1)", "F(2)"], ["M(1)"])
        before = aid(a, b)  # best match 0.5, m=2 -> 0.75
        a2 = arr("A", ["M(1)"])
        b2 = arr("B", ["F(2)"], ["M(1)"])
        after = aid(a2, b2)  # exact [M(1)] match appears -> 0.5
        assert before == 0.75
        assert after == 0.5
        assert after < before


class TestAidm:
    def test_worked_pair(self):
        aidm = build_aidm([K_ARRAY, F_ARRAY])
        assert aidm.values.tolist() == [[-1.0, 0.5], [0.5, -1.0]]

    def test_identical_scripts_different_ids(self):
        aidm = build_aidm([K_ARRAY, arr("K2", ["R(1)"], ["F(1)", "M(1)"])])
        assert aidm.lookup("K", "K2") == 0.0

    def test_three_arrays_compose_from_pairwise(self):
        rng = np.random.default_rng(31)
        arrays = [random_array(rng, n) for n in ("A", "B", "C")]
        aidm = build_aidm(arrays)
        for i, j in itertools.combinations(range(3), 2):
            assert aidm.values[i, j] == aid(arrays[i], arrays[j])
            assert aidm.values[i, j] == aidm.values[j, i]
        assert np.all(np.diag(aidm.values) == -1.0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateAlgorithmId):
            build_aidm([K_ARRAY, arr("K", ["M(1)"])])

    def test_unknown_algorithm_lookup(self):
        aidm = build_aidm([K_ARRAY, F_ARRAY])
        with pytest.raises(UnknownAlgorithm):
            aidm.lookup("K", "NOPE")

    def test_csv_roundtrip(self, tmp_path):
        aidm = build_aidm([K_ARRAY, F_ARRAY, arr("X", ["M(1)", "F(6)"], ["F(7)", "M(11)"])])
        path = tmp_path / "aidm.csv"
        save_aidm_csv(aidm, path)
        loaded = load_aidm_csv(path)
        assert loaded.algorithm_ids == aidm.algorithm_ids
        assert np.array_equal(loaded.values, aidm.values)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "aidm.csv"
        path.write_bytes(b"\xef\xbb\xbf" + assets._data_path("aidm_reference.csv").read_bytes())
        loaded, reference = load_aidm_csv(path), reference_aidm()
        assert loaded.algorithm_ids == reference.algorithm_ids
        assert np.array_equal(loaded.values, reference.values)

    @pytest.mark.parametrize("text", [
        ",K,F\nK,-1,0.5\n",
        ",K,F\nK,-1,oops\nF,0.5,-1\n",
        ",K,F\nK,-1,0.5\nF,0.4,-1\n",
        ",K,F\nK,-1," + "1" * 200_000 + "\nF,0.5,-1\n",
    ], ids=["missing-row", "non-numeric", "asymmetric", "long-cell"])
    def test_bad_file_is_data_error_naming_it(self, tmp_path, text):
        path = tmp_path / "aidm.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFileError) as caught:
            load_aidm_csv(path)
        assert str(caught.value).startswith(f"{path}: ")


class TestReferenceAidm:
    def test_shape_symmetry_diagonal(self):
        ref = reference_aidm()
        assert len(ref.algorithm_ids) == 20
        assert ref.values.shape == (20, 20)
        assert np.array_equal(ref.values, ref.values.T)
        assert np.all(np.diag(ref.values) == -1.0)
        off = ref.values[~np.eye(20, dtype=bool)]
        assert off.min() >= 0.0 and off.max() <= 1.0

    def test_kmeans_fcm_entry(self):
        assert reference_aidm().lookup("K", "F") == 0.5

    def test_computed_mode_matches_reference_for_printed_scripts(self):
        computed = assets.computed_aidm()
        assert computed.lookup("K", "F") == reference_aidm().lookup("K", "F")

    def test_computed_differs_from_reference_in_nine_linkage_pairs(self):
        # the reconstructed A, C and W linkage scripts score their own
        # family 0.25 where the reference has 0.5; every other pair matches
        computed, reference = assets.computed_aidm(), reference_aidm()
        pairs = list(itertools.combinations(computed.algorithm_ids, 2))
        differ = {(a, b): computed.lookup(a, b) - reference.lookup(a, b)
                  for a, b in pairs if computed.lookup(a, b) != reference.lookup(a, b)}
        assert len(pairs) == 105
        assert differ == {pair: -0.25 for family in "ACW"
                          for pair in itertools.combinations([f"{family}LC", f"{family}LE",
                                                              f"{family}LH"], 2)}

    def test_computed_covers_implemented_roster(self):
        from cesel.clusterers import ALGORITHM_IDS

        computed = assets.computed_aidm()
        assert set(computed.algorithm_ids) == set(ALGORITHM_IDS)

    def test_bundled_matrices_built_once_and_read_only(self):
        for load in (reference_aidm, assets.computed_aidm):
            aidm = load()
            assert load() is aidm
            with pytest.raises(ValueError):
                aidm.values[0, 1] = 0.0


class TestBpi:
    def test_identical_params_zero(self):
        p = BasicParams("K", np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert bpi(p, p) == 0.0

    def test_single_row_worked_example(self):
        p1 = BasicParams("K", np.array([[0.0, 0.0]]))
        p2 = BasicParams("K", np.array([[3.0, 4.0]]))
        assert abs(bpi(p1, p2) - 5.0 / 6.0) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            r1, r2 = rng.integers(1, 5, 2)
            d = int(rng.integers(1, 4))
            p1 = BasicParams("K", rng.normal(size=(r1, d)))
            p2 = BasicParams("K", rng.normal(size=(r2, d)))
            assert bpi(p1, p2) == bpi(p2, p1)
            assert 0.0 <= bpi(p1, p2) < 1.0

    def test_strictly_increasing_in_matched_distance(self):
        base = BasicParams("K", np.array([[0.0, 0.0], [10.0, 10.0]]))
        near = BasicParams("K", np.array([[0.1, 0.0], [10.0, 10.0]]))
        far = BasicParams("K", np.array([[2.0, 0.0], [10.0, 10.0]]))
        assert bpi(base, near) < bpi(base, far)

    def test_cross_type_rejected(self):
        p1 = BasicParams("K", np.array([[0.0]]))
        p2 = BasicParams("F", np.array([[0.0]]))
        with pytest.raises(DimensionMismatch):
            bpi(p1, p2)

    def test_dimensionality_mismatch_rejected(self):
        p1 = BasicParams("K", np.array([[0.0, 1.0]]))
        p2 = BasicParams("K", np.array([[0.0, 1.0, 2.0]]))
        with pytest.raises(DimensionMismatch):
            bpi(p1, p2)

    def test_greedy_against_sorted_oracle(self):
        # independent route: sort all entries ascending, take compatible ones
        rng = np.random.default_rng(41)
        for _ in range(300):
            r = int(rng.integers(1, 5))
            c = int(rng.integers(1, 5))
            d1 = rng.normal(size=(r, 3))
            d2 = rng.normal(size=(c, 3))
            p1, p2 = BasicParams("K", d1), BasicParams("K", d2)
            dist = np.sqrt(((d1[:, None, :] - d2[None, :, :]) ** 2).sum(2))
            picked = _sorted_greedy(dist)
            t = float(np.mean(picked))
            assert abs(bpi(p1, p2) - t / (1 + t)) < 1e-12

    def test_greedy_mean_bounds_optimal_assignment(self):
        # greedy matching can never beat the exhaustive-optimal assignment
        rng = np.random.default_rng(43)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            dist = rng.random((n, n))
            greedy = _sorted_greedy(dist)
            best = min(
                sum(dist[i, p[i]] for i in range(n))
                for p in itertools.permutations(range(n))
            )
            assert sum(greedy) >= best - 1e-12


def seed_max_cells(values):
    """The graph-level greedy max extraction as it stood before sharing a loop."""
    m = values.copy()
    rows = list(range(m.shape[0]))
    cols = list(range(m.shape[1]))
    picked = []
    for _ in range(min(m.shape)):
        sub = m[np.ix_(rows, cols)]
        r, c = np.unravel_index(int(np.argmax(sub)), sub.shape)
        picked.append(float(sub[r, c]))
        del rows[r]
        del cols[c]
    return picked


def seed_min_matching(dist):
    """The run-level greedy min matching of ``bpi`` before sharing a loop."""
    rows = list(range(dist.shape[0]))
    cols = list(range(dist.shape[1]))
    matched = []
    for _ in range(min(dist.shape)):
        sub = dist[np.ix_(rows, cols)]
        r, c = np.unravel_index(int(np.argmin(sub)), sub.shape)
        matched.append(float(sub[r, c]))
        del rows[r]
        del cols[c]
    return matched


@settings(max_examples=300, deadline=None)
@given(arrays(np.int64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
              elements=st.integers(0, 3)))
# integer matrices where every pick is a tie: all equal, equal rows, equal
# columns, and a tied diagonal against tied off-diagonal entries
@example(np.zeros((4, 6), dtype=np.int64))
@example(np.full((6, 6), 3, dtype=np.int64))
@example(np.tile(np.array([[2, 0, 2, 1, 0, 2]]), (5, 1)))
@example(np.tile(np.array([[1], [3], [1], [0], [3], [0]]), (1, 4)))
@example(2 - np.eye(6, dtype=np.int64) * 2)
@example(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
def test_greedy_extract_matches_seed_loops(values):
    values = values.astype(float)  # small integers: many exact ties
    assert max_cells(Cddm("a", "b", values)) == seed_max_cells(values)
    assert _greedy_extract(values) == seed_min_matching(values)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
              elements=st.sampled_from([-np.inf, -1.5, 0.0, 0.25, 2.0, np.inf])))
def test_greedy_extract_with_infinite_entries(values):
    # ±inf entries sort and tie like any other value: the sorted walk meets
    # them where the seed loops' shrinking matrix picks them.
    assert max_cells(Cddm("a", "b", values)) == seed_max_cells(values)
    assert _greedy_extract(values) == seed_min_matching(values)


@st.composite
def param_rows(draw, width):
    """Parameter rows with ties: mostly small integers, some rows repeated."""
    value = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), st.floats(-10.0, 10.0))
    pool = draw(arrays(np.float64, (draw(st.integers(1, 4)), width), elements=value))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=7))
    return pool[picks]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_bpi_is_symmetric_bit_for_bit(data):
    # unequal widths meet through _pad_to_common, as in ai_weights
    p = BasicParams("SPS", data.draw(param_rows(data.draw(st.integers(1, 9)))))
    q = BasicParams("SPS", data.draw(param_rows(data.draw(st.integers(1, 9)))))
    p, q = _pad_to_common(p, q)
    assert bpi(p, q) == bpi(q, p)


def test_pad_to_common_appends_zero_coordinates():
    # SPS centroids live in a k-dimensional embedding, so runs at k = 2 and
    # k = 3 meet with a zero third coordinate on the narrower side
    p = BasicParams("SPS", np.array([[1.0, 2.0], [3.0, 4.0]]))
    q = BasicParams("SPS", np.ones((3, 3)))
    padded, same = _pad_to_common(p, q)
    assert same is q
    assert np.array_equal(padded.rows, [[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]])


@pytest.mark.parametrize("d", range(1, 41))
def test_bpi_matches_greedy_matching_on_cdist(d):
    # the distance kernel adds left to right at every width, as cdist does
    rng = np.random.default_rng(d)
    for r1, r2 in [(1, 1), (3, 5), (6, 6), (9, 4)]:
        p, q = (BasicParams("K", rng.normal(size=(r, d))) for r in (r1, r2))
        t = float(np.mean(seed_min_matching(cdist(p.rows, q.rows))))
        assert bpi(p, q) == t / (1.0 + t)


def seed_ai_weights(committee, aidm):
    """``ai_weights`` as it stood before scoring each pair once: both orders of every pair."""
    n = len(committee)
    weights = np.empty(n)
    for i, p in enumerate(committee):
        scores = []
        for j, q in enumerate(committee):
            if i == j:
                continue
            if p.algorithm_id == q.algorithm_id:
                scores.append(bpi(*_pad_to_common(p.basic_params, q.basic_params)))
            else:
                scores.append(aidm.lookup(p.algorithm_id, q.algorithm_id))
        weights[i] = float(np.mean(scores))
    return weights


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ai_weights_match_seed_loop(data):
    # committees up to 21 entries reach the 8-term point of the row means;
    # few algorithms make most pairs same-algorithm ones
    algorithms = data.draw(st.lists(st.sampled_from(["K", "F", "SPS", "ALE"]),
                                    min_size=2, max_size=21))
    committee = [
        entry(alg, data.draw(param_rows(data.draw(st.integers(1, 3)))), i)
        for i, alg in enumerate(algorithms)
    ]
    aidm = reference_aidm()
    assert np.array_equal(ai_weights(committee, aidm), seed_ai_weights(committee, aidm))


def _sorted_greedy(dist):
    order = sorted(
        ((dist[i, j], i, j) for i in range(dist.shape[0]) for j in range(dist.shape[1])),
        key=lambda t: (t[0], t[1], t[2]),
    )
    used_r, used_c, picked = set(), set(), []
    for value, i, j in order:
        if i in used_r or j in used_c:
            continue
        used_r.add(i)
        used_c.add(j)
        picked.append(value)
    return picked


def entry(algorithm, params, run_index=0):
    part = Partition(np.array([0, 1]), 2)
    return CommitteeEntry(part, algorithm, BasicParams(algorithm, params), 1.0, run_index)


class TestAiWeights:
    def test_two_entry_cross_pair(self):
        aidm = build_aidm([K_ARRAY, F_ARRAY])
        committee = [entry("K", [[0.0, 0.0]]), entry("F", [[1.0, 1.0]], 1)]
        weights = ai_weights(committee, aidm)
        assert np.allclose(weights, [0.5, 0.5])

    def test_identical_same_type_runs_zero(self):
        aidm = build_aidm([K_ARRAY, F_ARRAY])
        committee = [entry("K", [[1.0, 2.0]]), entry("K", [[1.0, 2.0]], 1)]
        assert np.allclose(ai_weights(committee, aidm), [0.0, 0.0])

    def test_mixed_committee_mean(self):
        # two K runs with bpi = 0.2, one F run with aidm K/F = 0.5
        aidm = build_aidm([K_ARRAY, F_ARRAY])
        t = 0.25  # t/(1+t) = 0.2
        committee = [
            entry("K", [[0.0, 0.0]]),
            entry("K", [[t, 0.0]], 1),
            entry("F", [[0.0, 0.0]], 2),
        ]
        weights = ai_weights(committee, aidm)
        assert abs(weights[0] - (0.2 + 0.5) / 2) < 1e-12
        assert abs(weights[1] - (0.2 + 0.5) / 2) < 1e-12
        assert abs(weights[2] - 0.5) < 1e-12

    def test_committee_too_small(self):
        aidm = build_aidm([K_ARRAY, F_ARRAY])
        with pytest.raises(CommitteeTooSmall):
            ai_weights([entry("K", [[0.0]])], aidm)

    def test_unknown_algorithm(self):
        aidm = build_aidm([K_ARRAY, F_ARRAY])
        committee = [entry("K", [[0.0]]), entry("ZZZ", [[0.0]], 1)]
        with pytest.raises(UnknownAlgorithm):
            ai_weights(committee, aidm)

    def test_weights_in_unit_interval(self):
        ref = reference_aidm()
        rng = np.random.default_rng(47)
        algs = ["K", "F", "SPS", "SLE", "WLC"]
        committee = [
            entry(algs[int(rng.integers(len(algs)))], rng.normal(size=(3, 2)), i)
            for i in range(8)
        ]
        weights = ai_weights(committee, ref)
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0)


class TestBasicParams:
    def test_serialization_roundtrip(self):
        p = BasicParams("K", np.array([[0.1, -2.5], [3.25, 4.0]]))
        q = BasicParams.from_dict(p.to_dict())
        assert q.algorithm_id == p.algorithm_id
        assert np.array_equal(q.rows, p.rows)

    def test_json_roundtrip_exact(self):
        import json

        p = BasicParams("F", np.array([[1 / 3, 2 / 7], [0.1, 1e-17]]))
        q = BasicParams.from_dict(json.loads(json.dumps(p.to_dict())))
        assert np.array_equal(q.rows, p.rows)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BasicParams("K", np.array([[np.nan]]))
