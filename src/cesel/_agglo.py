"""Agglomerative merging on a precomputed dissimilarity matrix.

This Lance-Williams style engine serves the inputs whose distances tie by
construction: the Hamming linkage clusterers (distances are multiples of
1/d) and the consensus step (1 - co-association takes few values). There
the tie rule below decides the partition. The Euclidean and cosine
linkage clusterers use scipy's compiled ``linkage`` instead, which merges
tie-free inputs the same way (see ``clusterers.run_linkage``).

A merge tree is scipy's linkage matrix, a float (n-1, 4) array: row ``i``
holds merge ``i``'s (left node, right node, height, size), samples are
nodes 0..n-1 and merge ``i`` creates node ``n + i``. :func:`cut_merges`
cuts this engine's trees and scipy's alike.

Each step merges the closest pair of active clusters. Ties go to the
smallest row, then the smallest column, of the current matrix (the
row-major first minimum), so the merge sequence is deterministic.

The engine caches, for every active row, its minimum over the active
columns and the smallest column holding it; this is the nearest-neighbour
list of Müllner's generic algorithm (arXiv:1109.2378), kept exact under
the tie rule above. A step then picks the pair from the n cached minima
instead of scanning the matrix, and rescans only the merged row and the
rows whose cached minimum pointed at a merged cluster and grew. That
costs O(n^2) in the typical case and O(n^3) in the worst case, when most
rows must rescan at most steps.

:func:`chain_tree` is the loop's tree when every pairwise distance is 1,
the Hamming case of continuous features, for every method: there every
update returns exactly 1, so the loop only follows its tie rule.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidK

LINKAGE_METHODS = ("single", "complete", "average", "ward")


def linkage_merge(
    dissimilarity: np.ndarray, method: str, sizes: np.ndarray | None = None
) -> np.ndarray:
    """Run bottom-up merging; returns the (n-1, 4) linkage matrix.

    Ties in the closest pair go to the smallest (row, column) slot pair,
    which keeps the merge sequence deterministic. Entries must not be
    NaN.

    ``sizes`` gives each starting node's size (default: all ones). With
    sizes, row i stands for ``sizes[i]`` samples that merged at distance
    0 among themselves, so ``"average"`` merges the groups as it would
    the samples; the size column counts samples, not rows.
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}")
    d = np.asarray(dissimilarity, dtype=float).copy()
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("dissimilarity matrix must be square")
    if sizes is None:
        size = np.ones(n, dtype=int)    # slot -> cluster size
    else:
        size = np.array(sizes, dtype=int)
        if size.shape != (n,) or (n and size.min() < 1) or not np.array_equal(size, sizes):
            raise ValueError("sizes must hold one positive count per row")
    if n < 2:
        return np.empty((0, 4))
    # Rows and columns of merged-away slots are held at +inf, so full
    # columns can be updated without first selecting the active slots.
    np.fill_diagonal(d, np.inf)

    node_id = list(range(n))        # slot -> current cluster id
    row_arg = d.argmin(axis=1)      # slot -> smallest column holding the row minimum
    row_min = d[np.arange(n), row_arg]
    merges = np.empty((n - 1, 4))

    for step in range(n - 1):
        r = int(row_min.argmin())
        c = int(row_arg[r])
        i, j = (r, c) if r < c else (c, r)
        height = float(d[i, j])

        dki = d[:, i]
        dkj = d[:, j]
        si, sj = size[i], size[j]
        if method == "single":
            new = np.minimum(dki, dkj)
        elif method == "complete":
            new = np.maximum(dki, dkj)
        elif method == "average":
            new = (si * dki + sj * dkj) / (si + sj)
        else:  # ward, treating stored values as Euclidean-like distances
            num = (si + size) * dki**2 + (sj + size) * dkj**2 - size * height**2
            new = np.sqrt(np.maximum(num / (si + sj + size), 0.0))
        new[i] = new[j] = np.inf
        d[:, i] = new
        d[i, :] = new
        d[j, :] = np.inf
        d[:, j] = np.inf
        row_min[j] = np.inf

        # Only column i changed in the other rows (column j is gone). A row
        # whose minimum sat at i or j and grew must rescan; any other row
        # takes (new, i) when that is smaller, or equal with i the earlier
        # column, and otherwise keeps its cache.
        stale = (new > row_min) & ((row_arg == i) | (row_arg == j))
        take = (new < row_min) | ((new == row_min) & (row_arg > i))
        np.copyto(row_min, new, where=take)
        row_arg[take] = i
        stale[i] = True
        rows = np.flatnonzero(stale)
        args = d[rows].argmin(axis=1)
        row_arg[rows] = args
        row_min[rows] = d[rows, args]

        left, right = sorted((node_id[i], node_id[j]))
        size[i] = si + sj
        merges[step] = left, right, height, size[i]
        node_id[i] = n + step

    return merges


def chain_tree(n: int) -> np.ndarray:
    """The merge tree of n >= 2 samples whose pairwise distances all equal 1.

    Every row's first minimum is column 0, or slot 0 once merged into, so
    the loop merges (0, 1), then (2, n), (3, n+1), ..., every height 1 and
    sizes 2..n; a cut at k leaves the last k-1 samples as singletons.
    """
    return np.column_stack(
        [np.r_[0, 2:n], np.r_[1, n:2 * n - 2], np.ones(n - 1), np.arange(2.0, n + 1)]
    )


def cut_merges(tree: np.ndarray, k: int) -> np.ndarray:
    """Labels after undoing the last k-1 merges of ``tree`` (exactly k clusters).

    ``tree`` is a linkage matrix over n = ``len(tree) + 1`` samples.
    Raises :class:`InvalidK` for k outside [1, n]. Labels are numbered
    0..k-1 in order of each cluster's smallest sample index.
    """
    n = len(tree) + 1
    if not 1 <= k <= n:
        raise InvalidK(f"cannot cut {n} samples into {k} clusters")
    kept = n - k
    parent = np.arange(n + kept)
    parent[tree[:kept, :2].astype(np.intp)] = np.arange(n, n + kept)[:, None]
    # Pointer jumping: every node ends at the root of its kept subtree.
    while not np.array_equal(grand := parent[parent], parent):
        parent = grand
    roots = parent[:n]
    _, first = np.unique(roots, return_index=True)
    label_of = np.empty(n + kept, dtype=int)
    label_of[roots[np.sort(first)]] = np.arange(k)
    return label_of[roots]
