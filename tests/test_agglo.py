"""The consensus engine and the cut against plain reference loops.

The first oracle, ``oracle_linkage_merge``, is the original engine: at
every step it copies the active submatrix and takes its row-major first
minimum. The cached engine must reproduce its average-linkage matrix
exactly (same pairs, bit-identical heights), above all on tie-heavy
inputs. On a matrix with one off-diagonal value the loop's tree is a
chain; at value 1, the Hamming distances of continuous features,
``chain_tree`` builds it without a matrix and must equal the loop's tree
under every method. The second oracle is the original cut, a Python
union-find over the merge records; the vectorised cut must label every
tree as it does, for the engine's trees and scipy's.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist, squareform

from cesel import assets, clusterers
from cesel._agglo import chain_tree, cut_merges, linkage_merge
from cesel.clusterers import LINKAGE_IDS, _cosine_distances
from cesel.errors import InvalidK
from cesel.harness import load_csv
from linkage_oracle import oracle_linkage_merge

METHODS = tuple(clusterers._LINKAGE_NAMES.values())


# Square forms of the clusterers' condensed distances, as the engine takes them.
def euclidean_matrix(x):
    return squareform(pdist(x))


def cosine_matrix(x):
    return squareform(_cosine_distances(x))


def hamming_matrix(x):
    return squareform(pdist(x, "hamming"))


def oracle_cut_merges(tree, k):
    """Union-find over the first n-k merges; labels by smallest sample index."""
    n = len(tree) + 1
    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in range(n - k):
        left, right = int(tree[step][0]), int(tree[step][1])
        new = n + step
        parent[find(left)] = new
        parent[find(right)] = new

    relabel: dict[int, int] = {}
    return np.array([relabel.setdefault(find(i), len(relabel)) for i in range(n)])


def _one_minus_coassociation(labels: np.ndarray) -> np.ndarray:
    votes = sum((row[:, None] == row[None, :]).astype(float) for row in labels)
    return 1.0 - votes / len(labels)


@st.composite
def dissimilarities(draw):
    """Square matrices for n = 1..40, mostly with many exact ties."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["euclidean", "hamming", "coassoc", "continuous", "asymmetric"]))
    if kind == "coassoc":
        members = draw(st.integers(1, 6))
        labels = draw(arrays(np.int64, (members, n), elements=st.integers(0, 3)))
        return _one_minus_coassociation(labels)
    if kind == "asymmetric":
        return draw(arrays(np.int64, (n, n), elements=st.integers(0, 5))).astype(float)
    dim = draw(st.integers(1, 3))
    if kind == "continuous":
        points = draw(arrays(np.float64, (n, dim),
                             elements=st.floats(-100, 100, allow_nan=False, width=64)))
        return euclidean_matrix(points)
    points = draw(arrays(np.int64, (n, dim), elements=st.integers(0, 3))).astype(float)
    return euclidean_matrix(points) if kind == "euclidean" else hamming_matrix(points)


@settings(max_examples=200, deadline=None)
@given(dissimilarities())
def test_matches_full_scan_oracle(d):
    merges = oracle_linkage_merge(d, "average")
    assert np.array_equal(linkage_merge(d), merges)
    assert np.array_equal(linkage_merge(d, sizes=np.ones(len(d))), merges)


@settings(max_examples=200, deadline=None)
@given(dissimilarities())
def test_cut_matches_union_find_oracle(d):
    n = len(d)
    trees = [linkage_merge(d)]
    if n > 1:
        trees += [linkage(squareform(d, checks=False), method) for method in METHODS]
    for tree in trees:
        for k in range(1, n + 1):
            assert np.array_equal(cut_merges(tree, k), oracle_cut_merges(tree, k)), k


def test_cut_edges():
    tree = linkage_merge(euclidean_matrix(np.arange(4.0)[:, None]))
    for k in (0, 5):
        with pytest.raises(InvalidK):
            cut_merges(tree, k)
    single = linkage_merge(np.zeros((1, 1)))
    assert cut_merges(single, 1).tolist() == [0]
    with pytest.raises(InvalidK):
        cut_merges(single, 2)


@pytest.mark.parametrize("distance", [euclidean_matrix, hamming_matrix, cosine_matrix])
def test_matches_oracle_on_iris(distance):
    # n=150 with duplicate samples: long runs of rescans and exact ties.
    d = distance(load_csv(assets.iris_csv_path(), label_column="species").samples)
    assert np.array_equal(linkage_merge(d), oracle_linkage_merge(d, "average"))


def _canonical(labels):
    """Labels renumbered by first occurrence, so equal partitions compare equal."""
    first = {}
    return [first.setdefault(v, len(first)) for v in labels]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_sized_average_matches_expanded_unit_merge(u, dim, seed, data):
    # Row i of the sized merge stands for sizes[i] samples at distance 0
    # from each other; the unit merge runs on those samples, shuffled.
    rng = np.random.default_rng(seed)
    d = euclidean_matrix(rng.random((u, dim)))  # tie-free with probability 1
    sizes = np.array(data.draw(st.lists(st.integers(1, 4), min_size=u, max_size=u)))
    group = rng.permutation(np.repeat(np.arange(u), sizes))
    sized = linkage_merge(d, sizes=sizes)
    unit = linkage_merge(d[np.ix_(group, group)])
    assert sized[-1, 3] == sizes.sum()
    for k in range(1, u + 1):
        expanded = cut_merges(sized, k)[group]
        assert _canonical(expanded) == _canonical(cut_merges(unit, k))


# Off-diagonal levels j/d: the Hamming distances of d coordinates.
LEVELS = sorted({j / d for d in range(1, 13) for j in range(d + 1)})


def _constant(n, level):
    d = np.full((n, n), level)
    np.fill_diagonal(d, 0.0)
    return d


def _expected_chain(n, level, sizes):
    """(0, 1), (2, n), (3, n+1), ... at one height; sizes are running sums."""
    left = [0] + list(range(2, n))
    right = [1] + list(range(n, 2 * n - 2))
    return np.column_stack([left, right, np.full(n - 1, level), np.cumsum(sizes)[1:]])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.sampled_from(LEVELS), st.data())
def test_constant_matrix_merges_as_the_oracle(n, level, data):
    d = _constant(n, level)
    sizes = np.array(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    # Averages of one level round back to it only at 0 and 1.
    exact_chain = level in (0.0, 1.0)
    for given_sizes in (None, sizes):
        tree = linkage_merge(d, given_sizes)
        assert np.array_equal(tree, oracle_linkage_merge(d, "average", given_sizes))
        if exact_chain and n > 1:
            unit = np.ones(n, dtype=int) if given_sizes is None else given_sizes
            assert np.array_equal(tree, _expected_chain(n, level, unit))
    if level == 1.0:
        # The sized tree cuts as the unit merge of its expanded matrix,
        # where each row's samples sit at distance 0 from each other.
        group = np.repeat(np.arange(n), sizes)
        expanded = np.where(group[:, None] == group[None, :], 0.0, level)
        unit_tree = linkage_merge(expanded)
        assert np.array_equal(unit_tree[len(unit_tree) - len(tree):, 2:], tree[:, 2:])
        for k in range(1, n + 1):
            assert np.array_equal(cut_merges(tree, k)[group], cut_merges(unit_tree, k))


@pytest.mark.parametrize("method", METHODS)
def test_chain_tree_is_the_loop_tree_at_level_one(method):
    for n in range(2, 61):
        assert np.array_equal(chain_tree(n), oracle_linkage_merge(_constant(n, 1.0), method)), n
    # scipy builds the chain too, except under Ward from n = 6 on: there the
    # Hamming IDs keep the loop's order.
    for n in (5, 50, 200):
        scipy_tree = linkage(np.ones(n * (n - 1) // 2), method)
        assert np.array_equal(chain_tree(n), scipy_tree) == (method != "ward" or n == 5), n


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_one_shared_coordinate_falls_through(n, dim, seed, data):
    # Continuous points give an all-ones Hamming matrix; one shared
    # coordinate lowers one pair to (dim - 1) / dim, so the Hamming IDs
    # leave the chain for scipy, and every tree merges that pair first.
    x = np.random.default_rng(seed).normal(size=(n, dim))
    i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    col = data.draw(st.integers(0, dim - 1))
    x[j, col] = x[i, col]
    d = hamming_matrix(x)
    assert np.count_nonzero(d < 1.0) == n + 2
    tree = linkage_merge(d)
    assert np.array_equal(tree, oracle_linkage_merge(d, "average"))
    trees = [tree]
    for alg in (alg for alg in LINKAGE_IDS if alg[2] == "H"):
        method = clusterers._LINKAGE_NAMES[alg[0]]
        trees.append(clusterers.linkage_merge(x, alg))
        assert np.array_equal(trees[-1], linkage(pdist(x, "hamming"), method))
    for tree in trees:
        assert tree[0].tolist() == [i, j, (dim - 1) / dim, 2]


def test_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        linkage_merge(np.zeros((3, 2)))
    assert np.array_equal(linkage_merge(np.zeros((1, 1))), np.empty((0, 4)))
    with pytest.raises(ValueError, match="sizes"):
        linkage_merge(np.zeros((3, 3)), sizes=[1, 2])
    with pytest.raises(ValueError, match="sizes"):
        linkage_merge(np.zeros((3, 3)), sizes=[1, 0, 2])
    with pytest.raises(ValueError, match="sizes"):
        linkage_merge(np.zeros((3, 3)), sizes=[1, 1.5, 2])
