"""Distance and membership kernels against left-to-right oracles and their earlier forms.

The clusterers add every sum of their own left to right, one coordinate
(or one cluster) at a time, at any term count. Each kernel must equal a
plain Python oracle that adds its terms in that order, bit for bit. The
earlier broadcast expressions are kept verbatim as references: NumPy
reduces them left to right below 8 terms and in another order from 8 on,
so the kernels must equal them bit for bit up to 7 terms.

The linkage clusterers and SPS take their Euclidean and cosine distances
from scipy's condensed ``pdist``, which adds the squared coordinate
differences left to right too: the Euclidean distances must equal the
clusterers' own at any dimension, the earlier dense matrices bit for bit
up to 7 coordinates, and the linkage cuts must match those matrices' cuts
on tie-free data at any dimension.

The Hamming distances are ``pdist(x, "hamming")`` too: the share of
coordinates that differ, by exact inequality. The earlier kernel, which
counted a coordinate as equal up to a 1e-9 gap, is kept as an oracle; the
Hamming trees must equal its trees wherever no non-zero gap is that small.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import cdist, pdist, squareform

from cesel import clusterers
from cesel._agglo import chain_tree, cut_merges, linkage_merge
from cesel.clusterers import (LINKAGE_IDS, ClustererConfig, Dataset, _cosine_distances,
                              _linkage_tree, _sq_distances, run_linkage)
from summation import PAIRWISE_TERMS, left_to_right

HAMMING_IDS = [alg for alg in LINKAGE_IDS if alg[2] == "H"]
# the earlier kernel's tolerance: gaps up to it counted as equal
_HAMMING_TOL = 1e-9


def oracle_sq_distances(x, centroids):
    diff = x[:, None, :] - centroids[None, :, :]
    return (diff * diff).sum(axis=2)


def ltr_sq_distances(x, centroids):
    """(k, n) squared distances, each added coordinate by coordinate."""
    return np.array([[left_to_right([(a - b) * (a - b) for a, b in zip(row, c)])
                      for row in x.tolist()] for c in centroids.tolist()])


def oracle_memberships(d2, m=2.0):
    d2 = np.maximum(d2, 0.0)
    zero_rows = np.isclose(d2, 0.0).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = d2 ** (-1.0 / (m - 1.0))
        new_u = inv / inv.sum(axis=1, keepdims=True)
    if zero_rows.any():
        hits = np.isclose(d2[zero_rows], 0.0)
        new_u[zero_rows] = hits / hits.sum(axis=1, keepdims=True)
    return new_u


def oracle_hamming(x):
    return (x[:, None, :] != x[None, :, :]).mean(axis=2)


def hamming_matrix(x):
    """The square Hamming matrix that the ``?LH`` IDs merge on tied data."""
    return squareform(pdist(x, "hamming"))


COORD = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def points(draw, max_rows=12, max_d=12):
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, max_rows))
    return draw(arrays(np.float64, (n, d), elements=COORD))


@settings(max_examples=300, deadline=None)
@given(x=points(), data=st.data())
def test_sq_distances_match_broadcast_sum(x, data):
    k = data.draw(st.integers(1, 65))
    centroids = data.draw(arrays(np.float64, (k, x.shape[1]), elements=COORD))
    # the kernel returns the (k, n) layout the clusterers work in
    got = clusterers._sq_distances(x, centroids)
    assert np.array_equal(got, ltr_sq_distances(x, centroids))
    if x.shape[1] < PAIRWISE_TERMS:
        assert np.array_equal(got, oracle_sq_distances(x, centroids).T)


@pytest.mark.parametrize("d", range(1, 41))
def test_sq_distances_match_cdist(d):
    # scipy's squared Euclidean distances add left to right at every d, and
    # so does the kernel
    rng = np.random.default_rng(d)
    for n, k in [(1, 1), (2, 9), (13, 4), (40, 12), (750, 5)]:
        x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
        centroids = rng.normal(size=(k, d))
        expected = cdist(centroids, x, "sqeuclidean")
        assert np.array_equal(clusterers._sq_distances(x, centroids), expected)


def test_sq_distances_memory_is_bounded():
    # Stacking all 1500 centroids at d=12 would take two (1500, 1500, 12)
    # temporaries, 216 MB each; the column loop keeps the n x n result and
    # one n x n difference.
    x = np.random.default_rng(0).normal(size=(1500, 12))
    tracemalloc.start()
    try:
        _sq_distances(x, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * x.shape[0] ** 2 * 8


# --- Euclidean and cosine distances against the earlier dense kernels -------

def euclidean_matrix(x: np.ndarray) -> np.ndarray:
    # the earlier kernel's squared distances were the broadcast sum
    return np.sqrt(oracle_sq_distances(x, x))


def cosine_matrix(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = x / safe[:, None]
    dist = 1.0 - unit @ unit.T
    zero = norms == 0
    if zero.any():
        dist[zero, :] = 1.0
        dist[:, zero] = 1.0
        dist[np.ix_(zero, zero)] = 0.0
    np.fill_diagonal(dist, 0.0)
    return np.maximum(dist, 0.0)


@settings(max_examples=200, deadline=None)
@given(x=points(max_rows=16))
def test_condensed_euclidean_matches_earlier_matrix(x):
    # pdist and the clusterers' kernel add the squared differences left to
    # right at every d; the earlier stacked sum does so up to 7 coordinates.
    got = squareform(pdist(x))
    assert np.array_equal(got, np.sqrt(_sq_distances(x, x)))
    if x.shape[1] < PAIRWISE_TERMS:
        assert np.array_equal(got, euclidean_matrix(x))


@settings(max_examples=100, deadline=None)
@given(st.integers(12, 40), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.sampled_from([alg for alg in LINKAGE_IDS if alg[2] != "H"]))
def test_linkage_cuts_match_earlier_matrices_on_tie_free_points(n, d, seed, alg):
    # The cosine distances move by ulps from the earlier matrix at any d;
    # on tie-free data no cut may change.
    x = np.random.default_rng(seed).normal(size=(n, d))
    dist = {"E": euclidean_matrix, "C": cosine_matrix}[alg[2]](x)
    condensed = squareform(dist, checks=False)
    assume(np.unique(condensed).size == condensed.size)
    earlier = linkage(condensed, clusterers._LINKAGE_NAMES[alg[0]])
    data = Dataset(samples=x, raw=x)
    for k in range(2, 13):
        part, _ = run_linkage(data, ClustererConfig(alg, k=k, seed=0))
        assert np.array_equal(part.assignments, cut_merges(earlier, k)), k


# Coordinates on a grid: no row so small that its squared norm loses digits.
COSINE_COORD = st.integers(-10**6, 10**6).map(lambda v: v / 1e3)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cosine_distances_keep_the_zero_row_convention(data):
    n = data.draw(st.integers(1, 16))
    x = data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 12))), elements=COSINE_COORD))
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    x[zero] = 0.0
    got = _cosine_distances(x)
    want = squareform(cosine_matrix(x), checks=False)
    assert got.shape == want.shape and not np.isnan(got).any()
    # a pair with an all-zero row: 0 to another all-zero row, 1 to any other
    with_zero = squareform(zero[:, None] | zero[None, :], checks=False)
    assert np.array_equal(got[with_zero], want[with_zero])
    assert np.allclose(got[~with_zero], want[~with_zero], rtol=0.0, atol=1e-12)


# squared distances straddling the zero test's 1e-8, plus ordinary ones; NaN
# is the distance to the centroid of a cluster that has no weight left
SQ_DIST = st.one_of(
    st.sampled_from([0.0, 5e-9, 1e-8, np.nextafter(1e-8, 1.0), 2e-8, np.nan]),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


def ltr_memberships(d2):
    """(n, k) memberships with fuzzifier 2, each row's total added left to right.

    A row with a squared distance of at most 1e-8 splits its membership
    evenly among those entries.
    """
    u = np.empty_like(d2)
    for i, row in enumerate(d2.tolist()):
        hits = [v <= 1e-8 for v in row]
        if any(hits):
            u[i] = np.divide(hits, sum(hits))  # integer count: exact
            continue
        inv = [1.0 / v for v in row]  # every v > 1e-8, or NaN
        total = left_to_right(inv)
        u[i] = [v / total for v in inv]
    return u


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fcm_memberships_match_broadcast_sum(data):
    k = data.draw(st.integers(1, 10))
    n = data.draw(st.integers(1, 12))
    d2 = data.draw(arrays(np.float64, (n, k), elements=SQ_DIST))
    # the kernel works on the transposed (k, n) layout; its scratch starts
    # as NaN so that no stale entry can leak into the result
    d2_kn = np.ascontiguousarray(d2.T)
    scratch = np.full_like(d2_kn, np.nan)
    with np.errstate(all="raise"):
        got = clusterers._memberships(d2_kn, scratch, np.empty_like(d2_kn))
    with np.errstate(over="ignore"):  # 1 / subnormal overflows to inf
        if k < PAIRWISE_TERMS:
            assert np.array_equal(got.T, oracle_memberships(d2), equal_nan=True)
        # The totals add one row of the (k, n) reciprocals at a time, for
        # n >= 2 as in every FCM run (a Dataset holds two samples or more);
        # a lone column, n = 1, NumPy sums as one vector, pairwise from 8.
        if n > 1 or k < PAIRWISE_TERMS:
            assert np.array_equal(got.T, ltr_memberships(d2), equal_nan=True)


def ltr_fcm_centroids(u, x):
    """FCM's centroids at memberships u (k, n): each weight total added left to right.

    The weighted sums are the same BLAS product on the same C-order (n, k)
    weights as the kernel's.
    """
    w_nk = np.ascontiguousarray((u * u).T)
    totals = np.array([left_to_right(column) for column in w_nk.T.tolist()])
    return (w_nk.T @ x) / totals[:, None]


# memberships in [0, 1], with exact zeros (a cluster a sample has left)
MEMBERSHIP = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fcm_weight_totals_add_left_to_right(data):
    # einsum adds each column of the (n, k) weights top to bottom for k >= 2
    k = data.draw(st.integers(2, 16))
    n = data.draw(st.integers(2, 60))
    u = data.draw(arrays(np.float64, (k, n), elements=MEMBERSHIP))
    assume(((u * u).sum(axis=1) > 0).all())
    x = data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 4))), elements=COORD))
    w_nk = np.full((n, k), np.nan)
    got = clusterers._fcm_centroids(u, x, w_nk)
    assert np.array_equal(w_nk, (u * u).T)
    assert np.array_equal(got, ltr_fcm_centroids(u, x))
    totals = np.einsum("ij->j", w_nk)
    assert totals.tolist() == [left_to_right(column) for column in w_nk.T.tolist()]


@pytest.mark.parametrize("n", [2, 7, 8, 9, 150, 750, 5000])
def test_fcm_weight_totals_at_one_cluster_are_exact(n):
    # At k = 1 every membership, so every weight, is exactly 1; NumPy sums
    # the lone column pairwise, and any order gives exactly n.
    x = np.random.default_rng(n).normal(size=(n, 3))
    u, w_nk = np.ones((1, n)), np.empty((n, 1))
    got = clusterers._fcm_centroids(u, x, w_nk)
    assert np.einsum("ij->j", w_nk).tolist() == [float(n)]
    assert np.array_equal(got, (w_nk.T @ x) / n)


# -0.0 beside 0.0, subnormals, values one ulp apart, and gaps at the earlier
# tolerance and one ulp either side of it
HAMMING_COORD = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0,
     _HAMMING_TOL, np.nextafter(_HAMMING_TOL, 0.0), np.nextafter(_HAMMING_TOL, 1.0)]
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hamming_matrix_matches_stacked_mean(data):
    d = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 12))
    x = data.draw(arrays(np.float64, (n, d), elements=HAMMING_COORD))
    assert np.array_equal(hamming_matrix(x), oracle_hamming(x))



def oracle_counting_hamming(x):
    """The per-coordinate counting loop that ran for every column, verbatim."""
    n, d = x.shape
    count = np.zeros((n, n))
    gap = np.empty((n, n))
    differs = np.empty((n, n), dtype=bool)
    for col in x.T:
        np.subtract.outer(col, col, out=gap)
        np.abs(gap, out=gap)
        np.greater(gap, _HAMMING_TOL, out=differs)
        count += differs
    count /= d
    return count


def off_diagonal_ones(n):
    return 1.0 - np.eye(n)


# Values spread over many magnitudes, including gaps near the earlier tolerance.
WIDE_COORD = st.one_of(
    COORD,
    st.floats(-1e-7, 1e-7, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, _HAMMING_TOL, 2 * _HAMMING_TOL, 3.0, 3.0 + _HAMMING_TOL]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_all_distinct_shortcut_matches_counting(data):
    # No value repeats, so every pair differs in every coordinate: the
    # chain tree is the engine's tree on the all-ones Hamming matrix.
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(2, 12))
    x = data.draw(arrays(np.float64, (n, d), elements=WIDE_COORD, unique=True))
    assert np.array_equal(hamming_matrix(x), off_diagonal_ones(n))
    assert np.array_equal(oracle_hamming(x), off_diagonal_ones(n))
    for alg in HAMMING_IDS:
        tree = _linkage_tree(x, alg)
        method = clusterers._LINKAGE_NAMES[alg[0]]
        assert np.array_equal(tree, chain_tree(n))
        assert np.array_equal(tree, linkage_merge(hamming_matrix(x), method))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_all_distinct_columns_give_ones(d):
    x = np.random.default_rng(d).standard_normal((30, d))
    assert np.array_equal(hamming_matrix(x), off_diagonal_ones(30))
    assert np.array_equal(hamming_matrix(x), oracle_counting_hamming(x))


def test_repeated_values_are_counted():
    x = np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 2.0], [1.0, 2.0], [-0.0, 1.0]])
    got = hamming_matrix(x)
    assert np.array_equal(got, oracle_hamming(x))
    assert got[0, 1] == 0.5 and got[2, 3] == 0.0 and got[0, 3] == 1.0
    assert got[0, 4] == 0.0  # -0.0 and 0.0 are one value


@pytest.mark.parametrize("offset", [0.0, 3.0, -1e3])
def test_gap_at_the_tolerance_and_one_ulp_either_side(offset):
    # One pair of sort-neighbours sits one ulp apart, or at the earlier
    # 1e-9 tolerance or one ulp either side of it; the others are far
    # apart. Every such gap is a difference, so the column is all-distinct.
    low = offset
    for high in [np.nextafter(low, np.inf), low + np.nextafter(_HAMMING_TOL, 0.0),
                 low + _HAMMING_TOL, low + np.nextafter(_HAMMING_TOL, 1.0)]:
        assert high != low
        x = np.array([[5.0 + offset], [low], [high], [-5.0 + offset]])
        assert np.array_equal(hamming_matrix(x), off_diagonal_ones(4))
        for alg in HAMMING_IDS:
            assert np.array_equal(_linkage_tree(x, alg), chain_tree(4))


def test_mix_of_distinct_and_tied_columns():
    rng = np.random.default_rng(7)
    n = 25
    distinct = rng.standard_normal((n, 3))
    tied = rng.integers(0, 3, (n, 2)).astype(float)
    near = np.arange(n) * _HAMMING_TOL  # neighbours about the earlier tolerance apart
    assert not np.all(np.diff(near) > _HAMMING_TOL)
    rest = np.column_stack([distinct, tied])
    x = np.column_stack([distinct[:, 0], tied[:, 0], distinct[:, 1], near,
                         tied[:, 1], distinct[:, 2]])
    got = hamming_matrix(x)
    assert np.array_equal(got, oracle_hamming(x))
    # the near column differs at every pair; the earlier kernel took the
    # pairs at most its tolerance apart as equal
    counts = np.rint(got * 6)
    assert np.array_equal(counts, np.rint(hamming_matrix(rest) * 5) + off_diagonal_ones(n))
    within = (np.abs(near[:, None] - near[None, :]) <= _HAMMING_TOL) & (off_diagonal_ones(n) > 0)
    assert within.any()
    assert np.array_equal(counts - np.rint(oracle_counting_hamming(x) * 6), within)


# Tied values on a grid, and values 2e-9 apart: every non-zero gap above the
# earlier tolerance.
SPACED_COORD = st.one_of(
    st.integers(-3, 3).map(float),
    st.integers(-10**6, 10**6).map(lambda v: v / 1e3),
    st.integers(0, 4).map(lambda j: 1.0 + j * 2e-9),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hamming_trees_match_the_earlier_kernel_above_its_tolerance(data):
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(2, 20))
    x = data.draw(arrays(np.float64, (n, d), elements=SPACED_COORD))
    gaps = np.abs(x[:, None, :] - x[None, :, :])
    assume(np.all((gaps == 0.0) | (gaps > _HAMMING_TOL)))
    earlier = oracle_counting_hamming(x)
    for alg in HAMMING_IDS:
        tree = _linkage_tree(x, alg)
        want = linkage_merge(earlier, clusterers._LINKAGE_NAMES[alg[0]])
        assert np.array_equal(tree, want), alg
        for k in range(1, n + 1):
            assert np.array_equal(cut_merges(tree, k), cut_merges(want, k)), (alg, k)
