"""Base clustering algorithms producing candidate partitions.

All clusterers are pure functions of (dataset, config): the same seed
gives a bit-identical partition. Each run also returns the randomized
starting parameters that drive run-level independency scoring; for the
deterministic linkage family those are a constant encoding, so repeated
runs are flagged fully dependent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._agglo import cut_merges, linkage_merge
from .errors import AllMissingColumn, DegenerateSpectrum, InvalidK
from .independency import BasicParams

KMEANS_ID = "K"
FCM_ID = "F"
SPECTRAL_SPARSE_ID = "SPS"
LINKAGE_IDS = tuple(
    f"{link}L{dist}" for link in "SACW" for dist in "EHC"
)  # SLE, SLH, SLC, ALE, ...
ALGORITHM_IDS = (KMEANS_ID, FCM_ID) + LINKAGE_IDS + (SPECTRAL_SPARSE_ID,)

_LINKAGE_NAMES = {"S": "single", "A": "average", "C": "complete", "W": "ward"}
_HAMMING_TOL = 1e-9
_MAX_NEIGHBORS = 10    # sparse-graph degree, capped at n - 1
_MAX_ITER = 300
_TOL = 1e-6


@dataclass(frozen=True)
class Dataset:
    """Samples in z-scored feature space, plus the raw matrix behind them."""

    samples: np.ndarray                    # (n, d) float, finite
    raw: np.ndarray                        # (n, d) float, NaN = missing
    labels: np.ndarray | None = None       # (n,) int class labels, evaluation only
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] < 2 or self.samples.shape[1] < 1:
            raise ValueError("dataset needs at least 2 samples and 1 feature")
        if not np.isfinite(self.samples).all():
            raise ValueError("processed samples must be finite")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class Partition:
    """Hard assignment of n samples to clusters 0..k-1."""

    assignments: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=int)
        object.__setattr__(self, "assignments", a)
        if self.k < 1:
            raise ValueError("cluster count must be >= 1")
        if a.ndim != 1 or a.size == 0:
            raise ValueError("assignments must be a non-empty 1-d array")
        if a.min() < 0 or a.max() >= self.k:
            raise ValueError(f"assignment outside [0, {self.k})")

    def __len__(self) -> int:
        return self.assignments.size

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


@dataclass(frozen=True)
class ClustererConfig:
    """One run's identity: algorithm, target k and seed."""

    algorithm_id: str
    k: int
    seed: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def preprocess(
    raw,
    labels=None,
    feature_names: tuple[str, ...] = (),
) -> Dataset:
    """Impute missing cells with the column mean, then z-score each column.

    Standardization uses the population standard deviation (divide by n),
    so a two-value column [1, 3] maps to [-1, 1]. Zero-variance columns
    map to all zeros. A column with no observed value at all raises
    :class:`AllMissingColumn`.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError("raw samples must be a 2-d matrix")
    filled = raw.copy()
    for col in range(filled.shape[1]):
        column = filled[:, col]
        missing = np.isnan(column)
        if missing.all():
            name = feature_names[col] if col < len(feature_names) else str(col)
            raise AllMissingColumn(f"column {name!r} has no observed values")
        if missing.any():
            column[missing] = column[~missing].mean()
    mean = filled.mean(axis=0)
    std = filled.std(axis=0)  # population std
    scaled = np.where(std > 0, (filled - mean) / np.where(std > 0, std, 1.0), 0.0)
    lab = None if labels is None else np.asarray(labels, dtype=int)
    return Dataset(samples=scaled, raw=raw, labels=lab, feature_names=tuple(feature_names))


# --- shared pieces ----------------------------------------------------------

# NumPy adds fewer than 8 terms of a reduction left to right and switches to
# 8 interleaved accumulators from 8 terms on. Up to this many terms, adding
# them one array at a time gives its result bit for bit, without one tiny
# reduction per output element.
_SEQUENTIAL_TERMS = 7


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances (k x n) from each of k centroids to each of n samples.

    Bit for bit the stacked ``diff = x[None, :, :] - centroids[:, None, :]``
    summed as ``(diff * diff).sum(axis=-1)``: up to ``_SEQUENTIAL_TERMS``
    coordinates are added one (k, n) array at a time, longer sums use the
    reduction itself. Each centroid's row is contiguous, which is the
    layout the fuzzy loop works in; ``(a - b)**2`` equals ``(b - a)**2``
    exactly, so ``_sq_distances(x, x)`` is exactly symmetric.
    """
    if x.shape[1] > _SEQUENTIAL_TERMS:
        diff = x[None, :, :] - centroids[:, None, :]
        return (diff * diff).sum(axis=-1)
    columns = np.ascontiguousarray(x.T)
    diff = columns[0] - centroids[:, 0, None]
    acc = diff * diff
    for j in range(1, len(columns)):
        np.subtract(columns[j], centroids[:, j, None], out=diff)
        acc += np.multiply(diff, diff, out=diff)
    return acc


def _repair_empty(labels: np.ndarray, x: np.ndarray, centroids: np.ndarray, k: int) -> None:
    """Reseed each empty cluster from the farthest point of a non-singleton cluster."""
    for c in range(k):
        if np.any(labels == c):
            continue
        d2 = _sq_distances(x, centroids)
        own = d2[labels, np.arange(len(labels))]
        sizes = np.bincount(labels, minlength=k)
        movable = sizes[labels] >= 2
        own = np.where(movable, own, -np.inf)
        far = int(np.argmax(own))
        labels[far] = c
        centroids[c] = x[far]


def _cluster_means(x: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each cluster's mean (k x d), bit for bit ``x[labels == c].mean(axis=0)``.

    For d >= 2 NumPy sums a cluster's rows one after another, in sample
    order, which is the order in which ``np.bincount`` adds its weights; so
    one ``bincount`` per coordinate gives every cluster's sum. For d = 1
    the rows form one contiguous axis, which NumPy sums pairwise, so that
    case keeps the per-cluster mean. Every cluster must be non-empty.
    """
    k = len(sizes)
    if x.shape[1] == 1:
        return np.array([x[labels == c].mean(axis=0) for c in range(k)])
    sums = np.stack([np.bincount(labels, weights=column, minlength=k) for column in x.T], axis=1)
    return sums / sizes[:, None]


def _lloyd(x: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Standard alternating assignment/centroid iteration.

    Returns (labels, initial_centroids). Initial centroids are k distinct
    samples drawn from ``rng``; empty clusters are repaired inside the
    loop, so the result always has k non-empty clusters. One ``bincount``
    gives the cluster sizes, the repair runs only when one is zero, and
    :func:`_cluster_means` gives the per-cluster means bit for bit.
    """
    n = x.shape[0]
    init_idx = rng.choice(n, size=k, replace=False)
    centroids = x[init_idx].copy()
    initial = centroids.copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(_MAX_ITER):
        labels = np.argmin(_sq_distances(x, centroids), axis=0)
        sizes = np.bincount(labels, minlength=k)
        if not sizes.all():
            _repair_empty(labels, x, centroids, k)
            sizes = np.bincount(labels, minlength=k)
        new_centroids = _cluster_means(x, labels, sizes)
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < _TOL:
            break
    return labels, initial


def run_kmeans(data: Dataset, cfg: ClustererConfig) -> tuple[Partition, BasicParams]:
    """Alternating-assignment clustering from k seeded random centroids."""
    if cfg.k > data.n:
        raise InvalidK(f"k={cfg.k} exceeds sample count {data.n}")
    rng = np.random.default_rng(cfg.seed)
    labels, initial = _lloyd(data.samples, cfg.k, rng)
    return Partition(labels, cfg.k), BasicParams(cfg.algorithm_id, initial)


def _memberships(d2: np.ndarray, inv: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fuzzy memberships (k x n) from squared distances (k x n), into ``out``.

    With fuzzifier 2 a membership is the reciprocal squared distance over
    its column's sum of reciprocals. A sample at distance zero (at most
    1e-8, ``isclose``'s default on non-negative values) from some
    centroids splits its membership evenly among those. ``inv`` is
    scratch of the same shape.

    Bit for bit the same as the (n x k) expression ``d2 ** -1.0``, summed
    per row and divided: NumPy computes that power as the reciprocal, and
    the k column terms are added one row at a time up to 7 terms, or
    reduced as a C-order (n, k) copy from 8 on (see ``_SEQUENTIAL_TERMS``).
    Zero-distance entries are left out of the reciprocal, so nothing
    divides by zero; their columns are overwritten at the end.
    """
    zero = d2 <= 1e-8
    any_zero = zero.any()
    np.divide(1.0, d2, out=inv, where=~zero if any_zero else True)
    if any_zero:
        inv[zero] = 1.0  # any finite positive value keeps the totals finite
    k = d2.shape[0]
    if k > _SEQUENTIAL_TERMS:
        total = np.ascontiguousarray(inv.T).sum(axis=1)
    else:
        total = inv[0].copy()
        for j in range(1, k):
            total += inv[j]
    np.divide(inv, total, out=out)
    if any_zero:
        zero_cols = zero.any(axis=0)
        hits = zero[:, zero_cols]
        out[:, zero_cols] = hits / hits.sum(axis=0)
    return out


def _fcm(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The fuzzy clustering loop: (memberships, centroids, initial, iterations).

    Memberships are (k x n); centroids and the initial centroids, implied
    by the random initial memberships, are (k x d). The loop alternates
    the weighted-centroid and membership updates with fuzzifier 2 (the
    weights are squared memberships) until memberships move less than the
    tolerance, or for at most ``_MAX_ITER`` iterations.

    It keeps memberships, squared distances and weights as C-order (k, n)
    arrays, the memberships and weights in buffers allocated once, and
    repeats the arithmetic of the (n, k) formulation bit for bit:

    - squared distances come from ``_sq_distances``, already (k, n);
    - a centroid's denominator, the sum of its n weights, is the last
      entry of ``np.add.accumulate``, which adds left to right as the
      (n, k) column sum did; a row reduction would add pairwise;
    - the weighted sum of samples is ``w_nk.T @ x`` on a C-order (n, k)
      copy of the weights: BLAS may round differently when handed the
      same matrix in another memory layout.
    """
    n = x.shape[0]
    u = rng.random((n, k)) + 1e-9
    u /= u.sum(axis=1, keepdims=True)
    u = np.ascontiguousarray(u.T)
    new_u, scratch, w, running = (np.empty((k, n)) for _ in range(4))
    w_nk = np.empty((n, k))

    def centroids_of(memberships: np.ndarray) -> np.ndarray:
        np.multiply(memberships, memberships, out=w)
        denominator = np.add.accumulate(w, axis=1, out=running)[:, -1]
        np.copyto(w_nk, w.T)
        return (w_nk.T @ x) / denominator[:, None]

    initial = centroids_of(u)
    centroids = initial
    # When k exceeds the distinct samples, a cluster can lose all its
    # membership; its centroid is then 0/0, a NaN that _memberships and
    # _repair_empty handle. Entered once per call, not per iteration.
    with np.errstate(invalid="ignore"):
        for iteration in range(1, _MAX_ITER + 1):
            _memberships(_sq_distances(x, centroids), scratch, new_u)
            change = float(np.abs(np.subtract(new_u, u, out=scratch), out=scratch).max())
            u, new_u = new_u, u
            centroids = centroids_of(u)
            if change < _TOL:
                break
    return u, centroids, initial, iteration


def run_fcm(data: Dataset, cfg: ClustererConfig) -> tuple[Partition, BasicParams]:
    """Fuzzy-membership clustering, hardened by argmax at the end.

    The starting parameters reported for independency are the k x d
    centroids implied by the random initial membership matrix. The loop,
    :func:`_fcm`, works in a (k, n) layout and repeats the arithmetic of
    the plain (n, k) formulation bit for bit.
    """
    if cfg.k > data.n:
        raise InvalidK(f"k={cfg.k} exceeds sample count {data.n}")
    u, centroids, initial, _ = _fcm(data.samples, cfg.k, np.random.default_rng(cfg.seed))
    labels = np.argmax(u, axis=0)
    _repair_empty(labels, data.samples, centroids, cfg.k)
    return Partition(labels, cfg.k), BasicParams(cfg.algorithm_id, initial)


# --- linkage family ----------------------------------------------------------

def euclidean_matrix(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq_distances(x, x))


def hamming_matrix(x: np.ndarray) -> np.ndarray:
    """Fraction of coordinates differing by more than a small tolerance.

    Counts one coordinate at a time; a count of 0/1 values is exact in any
    order, so this equals the mean over a stacked (n, n, d) mask.
    """
    n, d = x.shape
    count = np.zeros((n, n))
    for j in range(d):
        count += np.abs(x[:, j, None] - x[None, :, j]) > _HAMMING_TOL
    return count / d


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

_DISTANCE_FNS = {"E": euclidean_matrix, "H": hamming_matrix, "C": cosine_matrix}


def run_linkage(data: Dataset, cfg: ClustererConfig) -> tuple[Partition, BasicParams]:
    """Agglomerative clustering; the algorithm ID picks linkage and distance.

    IDs look like ``ALE``: linkage letter in {S, A, C, W} (single, average,
    complete, ward), then ``L``, then distance letter in {E, H, C}
    (Euclidean, Hamming, cosine). Deterministic, so the starting
    parameters are a constant one-row code and reruns score fully
    dependent at run level.

    Hamming distances are multiples of 1/d and tie by construction, so
    the ``?LH`` IDs merge on the exact engine of :mod:`cesel._agglo`,
    whose row-major tie rule then decides the partition. Euclidean and
    cosine IDs merge on scipy's compiled ``linkage`` (Müllner's MST and
    NN-chain algorithms). On tie-free distances both give the same
    partition at every k. Where distances tie, scipy may merge the tied
    pairs in another order than the engine and so cut a different,
    equally deterministic partition.
    """
    alg = cfg.algorithm_id
    if alg not in LINKAGE_IDS:
        raise ValueError(f"not a linkage algorithm ID: {alg!r}")
    if cfg.k > data.n:
        raise InvalidK(f"k={cfg.k} exceeds sample count {data.n}")
    dist = _DISTANCE_FNS[alg[2]](data.samples)
    method = _LINKAGE_NAMES[alg[0]]
    if alg[2] == "H":
        merges = linkage_merge(dist, method)
    else:
        # Imported on first use: scipy.cluster loads scipy.spatial (~50 ms),
        # which runs and commands without such a linkage need not pay.
        from scipy.cluster.hierarchy import linkage
        from scipy.spatial.distance import squareform

        z = linkage(squareform(dist, checks=False), method)
        merges = [(int(left), int(right), height, int(size))
                  for left, right, height, size in z.tolist()]
    labels = cut_merges(merges, data.n, cfg.k)
    code = np.array([["SACW".index(alg[0]), "EHC".index(alg[2])]], dtype=float)
    return Partition(labels, cfg.k), BasicParams(alg, code)


# --- sparse spectral ----------------------------------------------------------

def run_spectral_sparse(data: Dataset, cfg: ClustererConfig) -> tuple[Partition, BasicParams]:
    """Spectral clustering on a t-nearest-neighbour similarity graph.

    Builds the symmetrized sparse graph, applies a Gaussian kernel
    (bandwidth = median pairwise distance), forms the degree-normalized
    similarity matrix, embeds samples into its top-k eigenvectors by
    magnitude, row-normalizes, and clusters the embedding with the seeded
    assignment loop. Starting parameters are the initial centroids in the
    embedded space.
    """
    n, k = data.n, cfg.k
    if k > n:
        raise InvalidK(f"k={cfg.k} exceeds sample count {n}")
    t = min(_MAX_NEIGHBORS, n - 1)

    dist = euclidean_matrix(data.samples)
    off_diag = dist[~np.eye(n, dtype=bool)]
    sigma = float(np.median(off_diag))
    if sigma <= 0:
        sigma = 1.0

    order = np.argsort(dist, axis=1, kind="stable")
    keep = np.zeros((n, n), dtype=bool)
    for i in range(n):
        neighbours = order[i][order[i] != i][:t]
        keep[i, neighbours] = True
    keep |= keep.T  # symmetric union graph

    similarity = np.where(keep, np.exp(-(dist**2) / (2.0 * sigma**2)), 0.0)
    np.fill_diagonal(similarity, 0.0)
    degree = similarity.sum(axis=1)
    if np.any(degree <= 0):
        raise DegenerateSpectrum("graph has an isolated vertex")
    inv_sqrt = 1.0 / np.sqrt(degree)
    laplacian_like = similarity * inv_sqrt[:, None] * inv_sqrt[None, :]

    eigvals, eigvecs = np.linalg.eigh(laplacian_like)
    top = np.argsort(-np.abs(eigvals), kind="stable")[:k]
    embedding = eigvecs[:, top]
    if not np.isfinite(embedding).all() or embedding.shape[1] < k:
        raise DegenerateSpectrum(f"fewer than {k} usable eigenvectors")
    row_norm = np.linalg.norm(embedding, axis=1, keepdims=True)
    embedding = embedding / np.where(row_norm > 0, row_norm, 1.0)

    rng = np.random.default_rng(cfg.seed)
    labels, initial = _lloyd(embedding, k, rng)
    return Partition(labels, k), BasicParams(cfg.algorithm_id, initial)


_RUNNERS = {KMEANS_ID: run_kmeans, FCM_ID: run_fcm, SPECTRAL_SPARSE_ID: run_spectral_sparse}
_RUNNERS.update({alg: run_linkage for alg in LINKAGE_IDS})


def run_algorithm(data: Dataset, cfg: ClustererConfig) -> tuple[Partition, BasicParams]:
    """Dispatch one run by ``cfg.algorithm_id``."""
    try:
        runner = _RUNNERS[cfg.algorithm_id]
    except KeyError:
        raise ValueError(f"unknown algorithm ID {cfg.algorithm_id!r}") from None
    return runner(data, cfg)
