"""The reference merge loop the linkage trees are held to.

``oracle_linkage_merge`` is the original Lance-Williams engine: at every
step it copies the active submatrix and takes its row-major first
minimum, under single, complete, average or Ward updates. The consensus
engine must reproduce its average-linkage trees exactly; the clusterers'
scipy trees must cut as it does wherever distances do not tie.
"""
import numpy as np


def oracle_linkage_merge(dissimilarity, method, sizes=None):
    """Full-scan Lance-Williams merging: O(n^3), ties to the smallest (row, column)."""
    d = np.asarray(dissimilarity, dtype=float).copy()
    n = d.shape[0]
    np.fill_diagonal(d, np.inf)

    active = np.ones(n, dtype=bool)
    node_id = np.arange(n)
    size = np.ones(n, dtype=int) if sizes is None else np.array(sizes, dtype=int)
    merges = []

    for step in range(n - 1):
        idx = np.flatnonzero(active)
        sub = d[np.ix_(idx, idx)]
        r, c = np.unravel_index(int(np.argmin(sub)), sub.shape)
        i, j = int(idx[r]), int(idx[c])
        if i > j:
            i, j = j, i
        height = float(d[i, j])

        others = idx[(idx != i) & (idx != j)]
        if others.size:
            dki = d[others, i]
            dkj = d[others, j]
            if method == "single":
                new = np.minimum(dki, dkj)
            elif method == "complete":
                new = np.maximum(dki, dkj)
            elif method == "average":
                new = (size[i] * dki + size[j] * dkj) / (size[i] + size[j])
            else:
                sk = size[others]
                num = (
                    (size[i] + sk) * dki**2
                    + (size[j] + sk) * dkj**2
                    - sk * height**2
                )
                new = np.sqrt(np.maximum(num / (size[i] + size[j] + sk), 0.0))
            d[others, i] = new
            d[i, others] = new

        left, right = sorted((int(node_id[i]), int(node_id[j])))
        size[i] += size[j]
        merges.append((left, right, height, int(size[i])))
        node_id[i] = n + step
        active[j] = False

    return np.array(merges, dtype=float).reshape(-1, 4)
