"""The fuzzy and Lloyd loops, the spectral graph and the signature grouping
against their earlier forms.

``_lloyd`` takes every cluster sum from one ``bincount`` across all
coordinates (the earlier one per coordinate is kept as an oracle), SPS
picks its neighbours with one partition per row (the index-order tie
fill only on rows with more ties than places), takes its bandwidth from
scipy's condensed distances and builds the similarity in the distance
matrix's buffer, and ``consensus._signatures`` groups equal label rows
with a stable ``lexsort`` instead of ``np.unique(axis=0)``. Each is meant
to repeat the result of the straightforward version exactly. The oracles
below are those versions, kept verbatim (the spectral graph takes its
distances from the ``_sq_distances`` below and reads the module's
constants), and every comparison is ``array_equal``, not a tolerance.
SPS's eigen step is the one exception: LAPACK computes only the k
largest eigenpairs, by another algorithm than the full decomposition, so
their values are checked against ``eigvalsh`` to 1e-12 and their span
against the full decomposition's.
The clusterers add their own sums left to right at any term count, where
the oracles' NumPy reductions switch order from 8 terms on (8 coordinates,
or 8 members of a one-feature cluster). So the cluster means and Lloyd's
loop are checked against left-to-right oracles as well: ``ltr_lloyd``
runs ``oracle_lloyd``, whose cluster mean is an argument, with both its
distances and its means added left to right.

``_fcm`` is the exception: it extrapolates its centroid steps (SQUAREM,
safeguarded by the FCM objective), so it takes other steps than the
plain loop and may settle elsewhere. Its oracle, the plain loop kept
verbatim with its iteration count, checks what must not move: the
starting centroids bit for bit, and the hard partition up to
relabelling where both loops settle on the same point. The new loop's
own guarantees (determinism, the evaluation cap, an objective no higher
than at the start, a settled stopping point) are checked as properties.
``weac`` is checked against ``eac``: unit weights give ``eac`` itself, and
other weights scale each entry's vote.
"""
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import scipy.linalg
from scipy.linalg import eigh

from cesel import clusterers
from cesel.clusterers import ClustererConfig, Dataset, Partition, run_fcm
from cesel.consensus import CommitteeEntry, _signatures, eac, weac
from cesel.errors import DegenerateSpectrum, EmptyCommittee, WeightMismatch
from cesel.harness import gen_blobs, gen_half_ring
from cesel.independency import BasicParams
from summation import PAIRWISE_TERMS, left_to_right

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


def oracle_lloyd(x, k, rng, mean=lambda rows: rows.mean(axis=0)):
    n = x.shape[0]
    init_idx = rng.choice(n, size=k, replace=False)
    centroids = x[init_idx].copy()
    initial = centroids.copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(_MAX_ITER):
        labels = np.argmin(_sq_distances(x, centroids), axis=1)
        _repair_empty(labels, x, centroids, k)
        new_centroids = np.array([mean(x[labels == c]) for c in range(k)])
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < _TOL:
            break
    return labels, initial


def ltr_lloyd(x, k, rng):
    """``oracle_lloyd`` with every sum added left to right.

    The distances add one coordinate at a time at any d, and a cluster's
    rows are added in sample order; the earlier loop does the same only
    for 2 to 7 coordinates.
    """
    with mock.patch.dict(globals(), {"_SEQUENTIAL_TERMS": math.inf}):
        return oracle_lloyd(x, k, rng, mean=lambda rows: left_to_right(rows) / len(rows))


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


def oracle_nearest(dist, t):
    n = dist.shape[0]
    order = np.argsort(dist, axis=1, kind="stable")
    keep = np.zeros((n, n), dtype=bool)
    for i in range(n):
        neighbours = order[i][order[i] != i][:t]
        keep[i, neighbours] = True
    return keep


def oracle_similarity(data):
    n = data.n
    t = min(clusterers._MAX_NEIGHBORS, n - 1)

    dist = np.sqrt(_sq_distances(data.samples, data.samples))
    off_diag = dist[~np.eye(n, dtype=bool)]
    sigma = float(np.median(off_diag))
    if sigma <= 0:
        sigma = 1.0

    keep = oracle_nearest(dist, t)
    keep |= keep.T  # symmetric union graph

    similarity = np.where(keep, np.exp(-(dist**2) / (2.0 * sigma**2)), 0.0)
    np.fill_diagonal(similarity, 0.0)
    degree = similarity.sum(axis=1)
    if np.any(degree <= 0):
        raise DegenerateSpectrum("graph has an isolated vertex")
    inv_sqrt = 1.0 / np.sqrt(degree)
    return similarity * inv_sqrt[:, None] * inv_sqrt[None, :]


def oracle_signatures(labels):
    _, first, inverse = np.unique(labels, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    return first[order], slot[inverse.ravel()]


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

def _fcm_run(x, k, seed):
    """``run_fcm``'s labels, ``_fcm``'s evaluation count, and the oracle's
    iteration count and labels, after checking the starting centroids
    (which ``bpi`` reads) against the oracle's."""
    with np.errstate(all="ignore"):  # the oracle divides by zero on purpose
        _, _, initial, evaluations = clusterers._fcm(x, k, np.random.default_rng(seed))
        _, _, o_initial, o_iterations, o_labels = oracle_fcm(x, k, seed)
    partition, params = run_fcm(_dataset(x), ClustererConfig("F", k, seed))
    assert np.array_equal(initial, o_initial)
    assert np.array_equal(params.rows, o_initial)
    return partition.assignments, evaluations, o_iterations, o_labels


def same_up_to_relabelling(a, b):
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


@settings(max_examples=150, deadline=None)
@given(case=samples_and_k(), seed=st.integers(0, 2**32 - 1))
def test_fcm_matches_earlier_loop(case, seed):
    x, k = case
    labels, _, _, o_labels = _fcm_run(x, k, seed)
    if k == 1:
        assert same_up_to_relabelling(labels, o_labels)


@pytest.mark.parametrize("k", range(2, 11))
@pytest.mark.parametrize("make", [
    lambda: gen_blobs(40, [[0, 0], [3, 0], [0, 3]], 1.0, seed=4),
    lambda: gen_half_ring(120, 0.05, seed=2),
], ids=["blobs", "half-ring"])
def test_fcm_matches_earlier_loop_on_pipeline_data(make, k):
    # the extrapolated loop also needs fewer membership evaluations than
    # the plain loop took iterations, which is what it is for
    x = make().samples
    for seed in range(2):
        _, evaluations, o_iterations, _ = _fcm_run(x, k, seed)
        assert evaluations < o_iterations


@pytest.mark.parametrize("x, k", [
    (np.zeros((6, 3)), 3),                                  # every point on every centroid
    (np.repeat([[0.0, 1.0], [2.0, 2.0]], 4, axis=0), 4),    # duplicates
    (np.arange(10.0).reshape(5, 2), 5),                     # k = n
    (np.array([[0.0], [1e-4], [2e-4], [5.0], [5.0]]), 5),   # d2 next to 1e-8, d = 1
], ids=["all-identical", "duplicates", "k-equals-n", "near-threshold"])
def test_fcm_zero_distance_columns(x, k):
    for seed in range(3):
        labels, _, _, o_labels = _fcm_run(x, k, seed)
        assert same_up_to_relabelling(labels, o_labels)


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


# Properties of the extrapolated loop itself. ``FEW`` is the NaN-centroid
# case above: 4 distinct points at k = 6.
FEW = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 3, axis=0)
FCM_CASES = st.one_of(samples_and_k(), st.just((FEW, 6)))


def _step(x, centroids):
    """Memberships at ``centroids`` and the objective sum(u^2 d^2) there."""
    d2 = clusterers._sq_distances(x, centroids)
    u = clusterers._memberships(d2, np.empty_like(d2), np.empty_like(d2))
    return u, float((u * u * d2).sum())


def _fcm_quietly(x, k, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the loop handles its NaN centroids
        return clusterers._fcm(x, k, np.random.default_rng(seed))


@settings(max_examples=150, deadline=None)
@given(case=FCM_CASES, seed=st.integers(0, 2**32 - 1))
def test_fcm_is_deterministic_and_within_its_budget(case, seed):
    x, k = case
    first, again = _fcm_quietly(x, k, seed), _fcm_quietly(x, k, seed)
    for a, b in zip(first[:3], again[:3]):
        assert np.array_equal(a, b, equal_nan=True)
    assert first[3] == again[3]
    assert 1 <= first[3] <= clusterers._MAX_ITER


@settings(max_examples=150, deadline=None)
@given(case=FCM_CASES, seed=st.integers(0, 2**32 - 1))
def test_fcm_stops_at_a_settled_point_no_worse_than_its_start(case, seed):
    x, k = case
    u, centroids, initial, evaluations = _fcm_quietly(x, k, seed)
    with np.errstate(invalid="ignore"):
        after, objective = _step(x, centroids)
        _, start = _step(x, initial)
    # A NaN centroid (a cluster without membership) leaves the objective
    # undefined. In exact arithmetic no accepted step raises it; a centroid
    # can still settle ulps off samples that the start had at distance 0.
    if np.isfinite(centroids).all():
        slack = 1e-12 * start + len(x) * (1e-12 * (1.0 + np.abs(x).max())) ** 2
        assert objective <= start + slack
    if evaluations < clusterers._MAX_ITER:
        assert np.abs(after - u).max() < clusterers._TOL


@pytest.mark.parametrize("rate", [-1.5, 0.1, 0.5, 0.9, 0.99])
def test_squarem_point_extrapolates_a_one_rate_map(rate):
    # F(c) = fixed + rate (c - fixed): for 0 < rate < 1 the step length is
    # |r|/|v| = 1/(1 - rate) and lands on the fixed point; for rate = -1.5
    # it is 1/2.5, so the length 1 applies and the point is c2 itself
    rng = np.random.default_rng(0)
    fixed, c0 = rng.normal(size=(2, 4, 3))
    c1 = fixed + rate * (c0 - fixed)
    c2 = fixed + rate * (c1 - fixed)
    want = c2 if rate < 0 else fixed
    assert np.allclose(clusterers._squarem_point(c0, c1, c2), want, rtol=0, atol=1e-9)


def test_squarem_point_falls_back_without_a_finite_step():
    c = np.arange(6.0).reshape(3, 2)
    nan_row = c.copy()
    nan_row[1] = np.nan
    assert clusterers._squarem_point(c, c, c) is None          # no move at all
    assert clusterers._squarem_point(c, c + 1, c + 2) is None  # equal moves: v = 0
    assert clusterers._squarem_point(nan_row, c, c + 1) is None


BLOBS = gen_blobs(40, [[0, 0], [3, 0], [0, 3]], 1.0, seed=4).samples


@pytest.mark.parametrize("k", [2, 4, 6])
def test_fcm_rejecting_every_extrapolation_walks_the_plain_path(k):
    # centroids 1e3 away from every sample have a far higher objective than
    # c1, so the safeguard turns every such point down and each cycle goes
    # on from c2: the plain steps are then the oracle's, bit for bit
    def far(c0, c1, c2):
        return c0 + 1e3

    for seed in range(2):
        with mock.patch.object(clusterers, "_squarem_point", far):
            u, centroids, _, evaluations = clusterers._fcm(BLOBS, k, np.random.default_rng(seed))
        iterations = oracle_fcm(BLOBS, k, seed)[3]
        assert 2 <= iterations < _MAX_ITER
        assert evaluations == iterations + (iterations - 1) // 2  # one after each pair
        # it stops where the oracle's last iteration started
        with mock.patch.dict(globals(), {"_MAX_ITER": iterations - 1}):
            o_u, o_centroids = oracle_fcm(BLOBS, k, seed)[:2]
        assert np.array_equal(u.T, o_u)
        assert np.array_equal(centroids, o_centroids)


@pytest.mark.parametrize("cap", range(1, 8))
def test_fcm_stops_at_the_evaluation_cap(cap):
    with mock.patch.object(clusterers, "_MAX_ITER", cap):
        evaluations = clusterers._fcm(BLOBS, 6, np.random.default_rng(0))[3]
    assert evaluations == cap


# --- Lloyd ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(case=samples_and_k(max_n=40), seed=st.integers(0, 2**32 - 1))
def test_lloyd_matches_earlier_loop(case, seed):
    x, k = case
    labels, initial = clusterers._lloyd(x, k, np.random.default_rng(seed))
    o_labels, o_initial = ltr_lloyd(x, k, np.random.default_rng(seed))
    assert np.array_equal(labels, o_labels)
    assert np.array_equal(initial, o_initial)
    if 1 < x.shape[1] < PAIRWISE_TERMS:
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


def ltr_cluster_means(x, labels, k):
    """Each cluster's mean, its rows added in sample order in Python floats."""
    means = []
    for c in range(k):
        rows = x[labels == c].tolist()
        means.append([left_to_right(column) / len(rows) for column in zip(*rows)])
    return np.array(means)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cluster_means_match_per_cluster_mean(data):
    # long clusters, so a pairwise sum (NumPy's from 8 terms on) would show
    d = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 80))
    k = data.draw(st.integers(1, min(4, n)))
    x = data.draw(arrays(np.float64, (n, d), elements=COORD))
    labels = np.concatenate([np.arange(k), data.draw(
        arrays(np.int64, n - k, elements=st.integers(0, k - 1)))])
    labels = np.asarray(data.draw(st.permutations(labels)), dtype=np.intp)
    sizes = np.bincount(labels, minlength=k)
    got = clusterers._cluster_means(x, labels, sizes)
    assert np.array_equal(got, ltr_cluster_means(x, labels, k))
    # The earlier per-cluster mean: NumPy adds the rows of a (size, d) block
    # one at a time for d >= 2, but sums a lone column as one vector.
    if d > 1 or sizes.max() < PAIRWISE_TERMS:
        expected = np.array([x[labels == c].mean(axis=0) for c in range(k)])
        assert np.array_equal(got, expected)


# --- sparse spectral ---------------------------------------------------------------

# A coarse grid, so distances tie and points repeat, or continuous values
# (on a 1e-8 grid, so the squared bandwidth cannot underflow to zero).
GRID = st.integers(-3, 3).map(lambda v: v / 2)
CONTINUOUS = st.integers(-10**9, 10**9).map(lambda v: v / 1e8)


def _graph_outcome(build, x):
    try:
        return build(x)
    except DegenerateSpectrum as exc:
        return str(exc)


def per_coordinate_cluster_means(x, labels, sizes):
    """The earlier ``_cluster_means``: one ``bincount`` per coordinate, verbatim."""
    k = len(sizes)
    sums = np.stack([np.bincount(labels, weights=column, minlength=k) for column in x.T], axis=1)
    return sums / sizes[:, None]


@pytest.mark.parametrize("d", range(1, 41))
def test_cluster_means_match_per_coordinate_sums(d):
    # one bincount across all coordinates adds each bin in sample order
    rng = np.random.default_rng(d)
    for n, k in [(1, 1), (9, 2), (40, 7), (750, 5)]:
        x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
        labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
        sizes = np.bincount(labels, minlength=k)
        got = clusterers._cluster_means(x, labels, sizes)
        assert np.array_equal(got, per_coordinate_cluster_means(x, labels, sizes))
        if n <= 40:
            assert np.array_equal(got, ltr_cluster_means(x, labels, k))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_spectral_sparse_matches_earlier_graph(data):
    n = data.draw(st.integers(2, 40))
    d = data.draw(st.integers(1, 4))
    coord = data.draw(st.sampled_from([GRID, CONTINUOUS]))
    x = data.draw(arrays(np.float64, (n, d), elements=coord))
    for degree in (clusterers._MAX_NEIGHBORS, n - 1):
        with mock.patch.object(clusterers, "_MAX_NEIGHBORS", degree):
            got = _graph_outcome(clusterers._normalized_similarity, x)
            want = _graph_outcome(oracle_similarity, _dataset(x))
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_spectral_embedding_spans_the_top_eigenvectors(data):
    """The k largest eigenvalues to 1e-12, and their eigenvectors' span
    wherever the k-th eigenvalue stands more than 1e-8 above the next."""
    n = data.draw(st.integers(2, 40))
    d = data.draw(st.integers(1, 4))
    coord = data.draw(st.sampled_from([GRID, CONTINUOUS]))
    x = data.draw(arrays(np.float64, (n, d), elements=coord))
    k = data.draw(st.integers(1, min(5, n)))
    solved = []

    def recording_eigh(a, **kwargs):
        solved.append(eigh(a, **kwargs))
        return solved[-1]

    with mock.patch.object(scipy.linalg, "eigh", recording_eigh):
        embedding = _graph_outcome(lambda x: clusterers._spectral_embedding(x, k), x)
    if isinstance(embedding, str):
        assert embedding == "graph has an isolated vertex" and not solved
        return
    (values, vectors), = solved
    graph = oracle_similarity(_dataset(x))
    full = np.linalg.eigvalsh(graph)[::-1]
    assert np.allclose(values[::-1], full[:k], rtol=0.0, atol=1e-12)
    if k < n and full[k - 1] - full[k] > 1e-8:
        ref = np.linalg.eigh(graph)[1][:, ::-1][:, :k]
        sin_theta = np.linalg.norm(vectors - ref @ (ref.T @ vectors), 2)
        assert sin_theta <= 1e-12 / (full[k - 1] - full[k])
    top = vectors[:, ::-1]
    row_norm = np.linalg.norm(top, axis=1, keepdims=True)
    assert np.array_equal(embedding, top / np.where(row_norm > 0, row_norm, 1.0))


def test_nearest_fills_excess_ties_in_index_order():
    # A 5 x 5 unit grid at t = 10: an inner point meets 4 points at distance
    # 2 with 2 places left, a corner has exactly as many ties at distance 3
    # as places left.
    grid = np.array([(i, j) for i in range(5) for j in range(5)], dtype=float)
    dist = np.sqrt(_sq_distances(grid, grid))
    t = 10
    ranked = dist + np.diag(np.full(len(grid), -1.0))
    kth = np.sort(ranked, axis=1)[:, [t]]
    excess = (ranked <= kth).sum(axis=1) > t + 1
    assert excess.any() and not excess.all()
    assert np.array_equal(clusterers._nearest(dist, t), oracle_nearest(dist, t))


# --- weac ------------------------------------------------------------------------

def _committee(label_rows):
    return [
        CommitteeEntry(Partition(a, int(a.max()) + 1), "K",
                       BasicParams("K", np.zeros((1, 1))), 0.0, i)
        for i, a in enumerate(label_rows)
    ]


WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 3.0, allow_nan=False))


def _check_weac(committee, weights):
    """Unit weights give ``eac``; other weights scale each entry's ``eac`` vote."""
    partitions = [entry.partition for entry in committee]
    assert np.array_equal(weac(committee, np.ones(len(committee))), eac(partitions))
    scaled = sum(w * eac([p]) for p, w in zip(partitions, weights)) / len(committee)
    np.fill_diagonal(scaled, 1.0)
    got = weac(committee, weights)
    assert np.array_equal(got, scaled)
    return got


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_weac_matches_dense_accumulation(data):
    n = data.draw(st.integers(1, 30))
    m = data.draw(st.integers(1, 8))
    top = data.draw(st.integers(0, 5))
    rows = [data.draw(arrays(np.int64, n, elements=st.integers(0, top))) for _ in range(m)]
    weights = data.draw(arrays(np.float64, m, elements=WEIGHT))
    _check_weac(_committee(rows), weights)


@pytest.mark.parametrize("rows, weights", [
    ([np.zeros(7, int)] * 3, [0.2, 0.0, 1.5]),                        # u = 1
    ([np.arange(7), np.zeros(7, int)], [0.7, 0.3]),                    # u = n
    ([np.arange(7) % 2, np.arange(7) % 3], [0.0, 0.0]),                # zero weights
    ([np.array([2, 0, 2, 1, 0])], [1.0]),                              # one entry
], ids=["one-signature", "all-distinct", "zero-weights", "single-entry"])
def test_weac_signature_extremes(rows, weights):
    got = _check_weac(_committee([np.asarray(r) for r in rows]), weights)
    assert np.all(np.diag(got) == 1.0)


def test_weac_keeps_its_errors():
    with pytest.raises(EmptyCommittee):
        weac([], [])
    with pytest.raises(WeightMismatch):
        weac(_committee([np.arange(3)]), [1.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(arrays(np.int64, st.tuples(st.integers(0, 40), st.integers(0, 6)),
              elements=st.integers(0, 3)))
def test_signatures_match_unique_rows(labels):
    first, inverse = _signatures(labels)
    want_first, want_inverse = oracle_signatures(labels)
    for got, want in ((first, want_first), (inverse, want_inverse)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
