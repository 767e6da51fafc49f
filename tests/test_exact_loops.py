"""The fuzzy, Lloyd and co-association loops against their earlier forms.

``run_fcm`` keeps its state in a transposed (k, n) layout with reused
buffers, ``_lloyd`` takes every cluster sum from one ``bincount`` per
coordinate, and ``weac`` accumulates over unique label signatures. Each is
meant to repeat the arithmetic of the straightforward version exactly. The
oracles below are those versions, kept verbatim (the FCM loop also counts
its iterations), and every comparison is ``array_equal``, not a tolerance.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cesel import clusterers
from cesel.clusterers import ClustererConfig, Dataset, Partition, run_fcm
from cesel.consensus import CommitteeEntry, weac
from cesel.errors import EmptyCommittee, WeightMismatch
from cesel.harness import gen_blobs, gen_half_ring
from cesel.independency import BasicParams

_FUZZIFIER = 2.0
_MAX_ITER = 300
_TOL = 1e-6
_SEQUENTIAL_TERMS = 7


# --- oracles: the earlier code, verbatim ------------------------------------

def _sum_terms(count: int, term, stacked) -> np.ndarray:
    if count > _SEQUENTIAL_TERMS:
        return stacked().sum(axis=-1)
    acc = term(0)
    for j in range(1, count):
        acc += term(j)
    return acc


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    def term(j: int) -> np.ndarray:
        diff = x[:, j, None] - centroids[None, :, j]
        return diff * diff

    def stacked() -> np.ndarray:
        diff = x[:, None, :] - centroids[None, :, :]
        return diff * diff

    return _sum_terms(x.shape[1], term, stacked)


def _repair_empty(labels, x, centroids, k) -> None:
    for c in range(k):
        if np.any(labels == c):
            continue
        d2 = _sq_distances(x, centroids)
        own = d2[np.arange(len(labels)), labels]
        sizes = np.bincount(labels, minlength=k)
        movable = sizes[labels] >= 2
        own = np.where(movable, own, -np.inf)
        far = int(np.argmax(own))
        labels[far] = c
        centroids[c] = x[far]


def oracle_lloyd(x, k, rng):
    n = x.shape[0]
    init_idx = rng.choice(n, size=k, replace=False)
    centroids = x[init_idx].copy()
    initial = centroids.copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(_MAX_ITER):
        labels = np.argmin(_sq_distances(x, centroids), axis=1)
        _repair_empty(labels, x, centroids, k)
        new_centroids = np.array([x[labels == c].mean(axis=0) for c in range(k)])
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < _TOL:
            break
    return labels, initial


def _memberships(d2: np.ndarray) -> np.ndarray:
    zero = d2 <= 1e-8
    zero_rows = zero.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = d2 ** (-1.0 / (_FUZZIFIER - 1.0))
        total = _sum_terms(inv.shape[1], lambda j: inv[:, j].copy(), lambda: inv)
        u = inv / total[:, None]
    if zero_rows.any():
        hits = zero[zero_rows]
        u[zero_rows] = hits / hits.sum(axis=1, keepdims=True)
    return u


def oracle_fcm(x, k, seed):
    """(memberships n x k, centroids, initial, iterations, labels)."""
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    u = rng.random((n, k)) + 1e-9
    u /= u.sum(axis=1, keepdims=True)

    def centroids_of(memberships: np.ndarray) -> np.ndarray:
        w = memberships**_FUZZIFIER
        return (w.T @ x) / w.sum(axis=0)[:, None]

    initial = centroids_of(u)
    centroids = initial.copy()
    for iterations in range(1, _MAX_ITER + 1):
        new_u = _memberships(_sq_distances(x, centroids))
        change = float(np.abs(new_u - u).max())
        u = new_u
        centroids = centroids_of(u)
        if change < _TOL:
            break
    labels = np.argmax(u, axis=1)
    _repair_empty(labels, x, centroids.copy(), k)
    return u, centroids, initial, iterations, labels


def oracle_weac(committee, weights):
    weights = np.asarray(weights, dtype=float)
    n = len(committee[0].partition)
    acc = np.zeros((n, n))
    for entry, w in zip(committee, weights):
        a = entry.partition.assignments
        acc += w * (a[:, None] == a[None, :])
    c = acc / len(committee)
    np.fill_diagonal(c, 1.0)
    return c


# --- inputs -------------------------------------------------------------------

# Ordinary coordinates mixed with a few fixed values: the fixed ones make
# duplicated points (zero distances, empty clusters) and pairs whose squared
# distance lands at or next to the 1e-8 zero test ((1e-4)^2 rounds to just
# above it).
COORD = st.one_of(
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-4, np.nextafter(1e-4, 0.0), -1e-4, 5e-5, 1.0]),
)


@st.composite
def samples_and_k(draw, max_n=24, max_d=12):
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(2, max_n))  # a Dataset holds at least two samples
    x = draw(arrays(np.float64, (n, d), elements=COORD))
    k = draw(st.integers(1, min(10, n)))
    return x, k


def _dataset(x):
    return Dataset(samples=x, raw=x)


# --- FCM -----------------------------------------------------------------------

def assert_fcm_matches(x, k, seed):
    u, centroids, initial, iterations = clusterers._fcm(x, k, np.random.default_rng(seed))
    o_u, o_centroids, o_initial, o_iterations, o_labels = oracle_fcm(x, k, seed)
    assert iterations == o_iterations
    assert np.array_equal(u.T, o_u, equal_nan=True)
    assert np.array_equal(centroids, o_centroids, equal_nan=True)
    assert np.array_equal(initial, o_initial, equal_nan=True)
    partition, params = run_fcm(_dataset(x), ClustererConfig("F", k, seed))
    assert np.array_equal(partition.assignments, o_labels)
    assert np.array_equal(params.rows, o_initial)


@settings(max_examples=150, deadline=None)
@given(case=samples_and_k(), seed=st.integers(0, 2**32 - 1))
def test_fcm_matches_earlier_loop(case, seed):
    x, k = case
    with np.errstate(all="ignore"):  # the oracle divides by zero on purpose
        assert_fcm_matches(x, k, seed)


@pytest.mark.parametrize("k", range(2, 11))
@pytest.mark.parametrize("make", [
    lambda: gen_blobs(40, [[0, 0], [3, 0], [0, 3]], 1.0, seed=4),
    lambda: gen_half_ring(120, 0.05, seed=2),
], ids=["blobs", "half-ring"])
def test_fcm_matches_earlier_loop_on_pipeline_data(make, k):
    x = make().samples
    for seed in range(2):
        with np.errstate(all="ignore"):
            assert_fcm_matches(x, k, seed)


@pytest.mark.parametrize("x, k", [
    (np.zeros((6, 3)), 3),                                  # every point on every centroid
    (np.repeat([[0.0, 1.0], [2.0, 2.0]], 4, axis=0), 4),    # duplicates
    (np.arange(10.0).reshape(5, 2), 5),                     # k = n
    (np.array([[0.0], [1e-4], [2e-4], [5.0], [5.0]]), 5),   # d2 next to 1e-8, d = 1
], ids=["all-identical", "duplicates", "k-equals-n", "near-threshold"])
def test_fcm_zero_distance_columns(x, k):
    for seed in range(3):
        with np.errstate(all="ignore"):
            assert_fcm_matches(x, k, seed)


def test_fcm_on_duplicated_points_raises_no_floating_point_warning():
    # 11 distinct points, each repeated; at k = 11 centroids settle on
    # points, so the zero-distance path runs in most iterations
    x = np.repeat(gen_blobs(5, [[0, 0], [3, 0]], 0.5, seed=1).samples, 3, axis=0)
    x = np.vstack([x, np.zeros((4, 2))])
    # 4 distinct points, each thrice, at k = 6: a cluster loses all its
    # membership, and its centroid update divides 0 by 0
    few = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 3, axis=0)
    cases = [(x, 2), (x, 5), (x, 11), (few, 6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for data, k in cases:
            for seed in range(4):
                run_fcm(_dataset(data), ClustererConfig("F", k, seed))


# --- Lloyd ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(case=samples_and_k(max_n=40), seed=st.integers(0, 2**32 - 1))
def test_lloyd_matches_earlier_loop(case, seed):
    x, k = case
    labels, initial = clusterers._lloyd(x, k, np.random.default_rng(seed))
    o_labels, o_initial = oracle_lloyd(x, k, np.random.default_rng(seed))
    assert np.array_equal(labels, o_labels)
    assert np.array_equal(initial, o_initial)


def test_lloyd_repairs_empty_clusters_as_before():
    # four copies of two points: three of the five centroids start on
    # duplicates, so clusters come up empty and must be reseeded
    x = np.repeat([[0.0, 0.0], [1.0, 1.0]], 4, axis=0)
    x = np.vstack([x, [[5.0, 5.0], [5.0, 5.0]]])
    for seed in range(10):
        labels, initial = clusterers._lloyd(x, 5, np.random.default_rng(seed))
        o_labels, o_initial = oracle_lloyd(x, 5, np.random.default_rng(seed))
        assert np.array_equal(labels, o_labels)
        assert np.array_equal(initial, o_initial)
        assert len(np.unique(labels)) == 5


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cluster_means_match_per_cluster_mean(data):
    # long clusters, so NumPy's pairwise sum (from 9 terms on) shows for d = 1
    d = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 80))
    k = data.draw(st.integers(1, min(4, n)))
    x = data.draw(arrays(np.float64, (n, d), elements=COORD))
    labels = np.concatenate([np.arange(k), data.draw(
        arrays(np.int64, n - k, elements=st.integers(0, k - 1)))])
    labels = np.asarray(data.draw(st.permutations(labels)), dtype=np.intp)
    sizes = np.bincount(labels, minlength=k)
    expected = np.array([x[labels == c].mean(axis=0) for c in range(k)])
    assert np.array_equal(clusterers._cluster_means(x, labels, sizes), expected)


# --- weac ------------------------------------------------------------------------

def _committee(label_rows):
    return [
        CommitteeEntry(Partition(a, int(a.max()) + 1), "K",
                       BasicParams("K", np.zeros((1, 1))), 0.0, i)
        for i, a in enumerate(label_rows)
    ]


WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 3.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_weac_matches_dense_accumulation(data):
    n = data.draw(st.integers(1, 30))
    m = data.draw(st.integers(1, 8))
    top = data.draw(st.integers(0, 5))
    rows = [data.draw(arrays(np.int64, n, elements=st.integers(0, top))) for _ in range(m)]
    weights = data.draw(arrays(np.float64, m, elements=WEIGHT))
    committee = _committee(rows)
    assert np.array_equal(weac(committee, weights), oracle_weac(committee, weights))


@pytest.mark.parametrize("rows, weights", [
    ([np.zeros(7, int)] * 3, [0.2, 0.0, 1.5]),                        # u = 1
    ([np.arange(7), np.zeros(7, int)], [0.7, 0.3]),                    # u = n
    ([np.arange(7) % 2, np.arange(7) % 3], [0.0, 0.0]),                # zero weights
    ([np.array([2, 0, 2, 1, 0])], [1.0]),                              # one entry
], ids=["one-signature", "all-distinct", "zero-weights", "single-entry"])
def test_weac_signature_extremes(rows, weights):
    committee = _committee([np.asarray(r) for r in rows])
    got = weac(committee, weights)
    assert np.array_equal(got, oracle_weac(committee, weights))
    assert np.all(np.diag(got) == 1.0)


def test_weac_keeps_its_errors():
    with pytest.raises(EmptyCommittee):
        weac([], [])
    with pytest.raises(WeightMismatch):
        weac(_committee([np.arange(3)]), [1.0, 2.0])
