"""Agglomerative merging on a precomputed dissimilarity matrix.

This Lance-Williams style engine serves the inputs whose distances tie by
construction: the Hamming linkage clusterers (distances are multiples of
1/d) and the consensus step (1 - co-association takes few values). There
the tie rule below decides the partition. The Euclidean and cosine
linkage clusterers use scipy's compiled ``linkage`` instead, which merges
tie-free inputs the same way (see ``clusterers.run_linkage``). Merge
records follow the usual convention, which scipy's shares: original
samples are nodes 0..n-1 and the cluster created by merge ``i`` is node
``n + i``.

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
"""
from __future__ import annotations

import numpy as np

LINKAGE_METHODS = ("single", "complete", "average", "ward")


def linkage_merge(dissimilarity: np.ndarray, method: str) -> list[tuple[int, int, float, int]]:
    """Run bottom-up merging; returns n-1 records (left, right, height, size).

    Ties in the closest pair go to the smallest (row, column) slot pair,
    which keeps the merge sequence deterministic. Entries must not be
    NaN.
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}")
    d = np.asarray(dissimilarity, dtype=float).copy()
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("dissimilarity matrix must be square")
    if n < 2:
        return []
    # Rows and columns of merged-away slots are held at +inf, so full
    # columns can be updated without first selecting the active slots.
    np.fill_diagonal(d, np.inf)

    node_id = list(range(n))        # slot -> current cluster id
    size = np.ones(n, dtype=int)    # slot -> cluster size
    row_arg = d.argmin(axis=1)      # slot -> smallest column holding the row minimum
    row_min = d[np.arange(n), row_arg]
    merges: list[tuple[int, int, float, int]] = []

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
        merges.append((left, right, height, int(size[i])))
        node_id[i] = n + step

    return merges


def cut_merges(merges: list[tuple[int, int, float, int]], n: int, k: int) -> np.ndarray:
    """Labels after undoing the last k-1 merges (exactly k clusters).

    Labels are renumbered 0..k-1 in order of each cluster's smallest
    sample index.
    """
    if not 1 <= k <= n:
        raise ValueError(f"cluster count {k} outside [1, {n}]")
    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in range(n - k):
        left, right, _, _ = merges[step]
        new = n + step
        parent[find(left)] = new
        parent[find(right)] = new

    roots = [find(i) for i in range(n)]
    relabel: dict[int, int] = {}
    labels = np.empty(n, dtype=int)
    for i, root in enumerate(roots):
        if root not in relabel:
            relabel[root] = len(relabel)
        labels[i] = relabel[root]
    return labels
