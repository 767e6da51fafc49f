"""Base clustering algorithms producing candidate partitions.

All clusterers are pure functions of (dataset, config): the same seed
gives a bit-identical partition. Each run also returns the randomized
starting parameters that drive run-level independency scoring; for the
deterministic linkage family those are a constant encoding, so repeated
runs are flagged fully dependent.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from ._agglo import chain_tree, cut_merges, linkage_merge
from .errors import AllMissingColumn, ColumnOverflow, DegenerateSpectrum, InvalidK

KMEANS_ID = "K"
FCM_ID = "F"
SPECTRAL_SPARSE_ID = "SPS"
LINKAGE_IDS = tuple(
    f"{link}L{dist}" for link in "SACW" for dist in "EHC"
)  # SLE, SLH, SLC, ALE, ...
ALGORITHM_IDS = (KMEANS_ID, FCM_ID) + LINKAGE_IDS + (SPECTRAL_SPARSE_ID,)

_LINKAGE_NAMES = {"S": "single", "A": "average", "C": "complete", "W": "ward"}
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
    # linkage ID -> read-only merge tree, (linkage ID, k) -> its read-only cut,
    # ("SPS", k) -> read-only embedding or the message of its
    # DegenerateSpectrum; None unless made by with_memo()
    _memo: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] < 2 or self.samples.shape[1] < 1:
            raise ValueError("dataset needs at least 2 samples and 1 feature")
        if not np.isfinite(self.samples).all():
            raise ValueError("processed samples must be finite")
        if self.raw.shape != self.samples.shape:
            raise ValueError(f"raw matrix is {self.raw.shape}, samples are {self.samples.shape}")
        if self.labels is not None and self.labels.shape != (self.n,):
            raise ValueError(f"labels of shape {self.labels.shape} for {self.n} samples")
        if self.feature_names and len(self.feature_names) != self.d:
            raise ValueError(f"{len(self.feature_names)} feature names for {self.d} features")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]

    def with_memo(self) -> Dataset:
        """This dataset if it keeps the clusterers' seed-free results, else a copy that does.

        Linkage runs on it share one merge tree per linkage ID and one cut per
        (ID, k), SPS runs one embedding per k; all are read-only, and nothing
        n x n is kept. The memo lives as long as the copy; a dataset without
        one is left as it is.
        """
        return self if self._memo is not None else replace(self, _memo={})


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

    @cached_property
    def size_terms(self) -> tuple[tuple[int, ...], tuple[float, ...], float]:
        """Each non-empty cluster's size s and s·log(s/n), in label order, and their sum.

        The sum is -n times the entropy of the cluster sizes; the diversity
        gate reads all three. Computed on first use and kept, so the
        assignments must not change afterwards.
        """
        n = self.assignments.size
        sizes = tuple(int(s) for s in self.cluster_sizes() if s > 0)
        terms = tuple(s * math.log(s / n) for s in sizes)
        # left to right on every Python: from 3.12 on, sum() compensates
        return sizes, terms, reduce(operator.add, terms)


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


@dataclass(frozen=True)
class BasicParams:
    """The randomized starting parameters of one clusterer run."""

    algorithm_id: str
    rows: np.ndarray  # (r, d), finite

    def __post_init__(self):
        object.__setattr__(self, "rows", np.atleast_2d(np.asarray(self.rows, dtype=float)))
        if self.rows.size == 0:
            raise ValueError("basic parameters need at least one row")
        if not np.isfinite(self.rows).all():
            raise ValueError("basic parameters must be finite")

    def to_dict(self) -> dict:
        return {"algorithm_id": self.algorithm_id, "rows": self.rows.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "BasicParams":
        return cls(d["algorithm_id"], np.asarray(d["rows"], dtype=float))


def preprocess(
    raw,
    labels=None,
    feature_names: tuple[str, ...] = (),
) -> Dataset:
    """Impute missing cells with the column mean, then z-score each column.

    Standardization uses the population standard deviation (divide by n),
    so a two-value column [1, 3] maps to [-1, 1]. Zero-variance columns
    map to all zeros. A column with no observed value at all raises
    :class:`AllMissingColumn`, one whose mean or variance overflows
    float64 :class:`ColumnOverflow`.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError("raw samples must be a 2-d matrix")
    names = [feature_names[c] if c < len(feature_names) else str(c) for c in range(raw.shape[1])]
    filled = raw.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for name, column in zip(names, filled.T):
            missing = np.isnan(column)
            if missing.all():
                raise AllMissingColumn(f"column {name!r} has no observed values")
            if missing.any():
                column[missing] = column[~missing].mean()
        mean = filled.mean(axis=0)
        std = filled.std(axis=0)  # population std
    overflow = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if overflow.size:
        raise ColumnOverflow(f"column {names[overflow[0]]!r} overflows float64 when standardized")
    scaled = np.where(std > 0, (filled - mean) / np.where(std > 0, std, 1.0), 0.0)
    lab = None if labels is None else np.asarray(labels, dtype=int)
    return Dataset(samples=scaled, raw=raw, labels=lab, feature_names=tuple(feature_names))


# --- shared pieces ----------------------------------------------------------

def _memoized(data: Dataset, key, compute):
    """``compute()``, once per ``key`` on a dataset from :meth:`Dataset.with_memo`."""
    memo = {} if data._memo is None else data._memo
    if key not in memo:
        try:
            memo[key] = compute()
            memo[key].setflags(write=False)
        except DegenerateSpectrum as exc:
            memo[key] = str(exc)
    if isinstance(memo[key], str):
        raise DegenerateSpectrum(memo[key])
    return memo[key]


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances (k x n) from each of k centroids to each of n samples.

    Each sum adds its d squared coordinate differences left to right, one
    (k, n) array at a time, so it is bit for bit scipy's
    ``cdist(centroids, x, "sqeuclidean")`` at every d, with no (k, n, d)
    temporary. Each centroid's row is contiguous, which is the layout the
    fuzzy loop works in.
    """
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
    """Each cluster's mean (k x d): its rows added in sample order, over its size.

    One ``np.bincount`` gives every coordinate's cluster sums: coordinate
    j of a sample in cluster c goes to bin ``j * k + c``. ``bincount`` adds
    its weights in the order they come, so each bin adds its samples in
    sample order, at any d. Every cluster must be non-empty.
    """
    k, d = len(sizes), x.shape[1]
    bins = (labels + np.arange(0, d * k, k)[:, None]).ravel()
    sums = np.bincount(bins, weights=x.T.ravel(), minlength=d * k).reshape(d, k)
    return (sums / sizes).T


def _lloyd(x: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Standard alternating assignment/centroid iteration.

    Returns (labels, initial_centroids). Initial centroids are k distinct
    samples drawn from ``rng``; empty clusters are repaired inside the
    loop, so the result always has k non-empty clusters. One ``bincount``
    gives the cluster sizes, the repair runs only when one is zero, and
    :func:`_cluster_means` adds each cluster's rows in sample order (README
    "Summation order").
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

    A column's total adds its k reciprocals left to right: the outer-axis
    sum of a C-order (k, n) array adds one row at a time. That takes
    n >= 2, as in every FCM run (a dataset holds two samples or more);
    NumPy sums a lone column as one vector, pairwise from 8 terms.
    One ``np.fmin`` reduction, which skips NaN, finds whether any distance
    is zero; only then is the mask built. Zero-distance entries are left
    out of the reciprocal, so nothing divides by zero; their columns are
    overwritten at the end.
    """
    if not np.fmin.reduce(d2, axis=None) <= 1e-8:
        np.divide(1.0, d2, out=inv)
        return np.divide(inv, inv.sum(axis=0), out=out)
    zero = d2 <= 1e-8
    np.divide(1.0, d2, out=inv, where=~zero)
    inv[zero] = 1.0  # any finite positive value keeps the totals finite
    np.divide(inv, inv.sum(axis=0), out=out)
    zero_cols = zero.any(axis=0)
    hits = zero[:, zero_cols]
    out[:, zero_cols] = hits / hits.sum(axis=0)
    return out


def _fcm_centroids(u: np.ndarray, x: np.ndarray, w_nk: np.ndarray) -> np.ndarray:
    """FCM's centroids (k x d) at memberships ``u`` (k x n), with fuzzifier 2.

    The weights, the squared memberships, go straight into ``w_nk``, a
    C-order (n, k) buffer: the weighted sum of samples is ``w_nk.T @ x``,
    and BLAS may round differently when handed the same matrix in another
    memory layout. A centroid's denominator, the sum of its n weights, is
    ``np.einsum("ij->j", w_nk)``, which adds each column top to bottom,
    left to right over the samples, for k >= 2. A lone column NumPy sums
    pairwise, but at k = 1 every weight is exactly 1, so every order gives
    the same total.
    """
    np.square(u.T, out=w_nk)
    return (w_nk.T @ x) / np.einsum("ij->j", w_nk)[:, None]


def _squarem_point(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray | None:
    """SQUAREM's extrapolated point from c0 and two map steps c1 = F(c0), c2 = F(c1).

    With r = c1 - c0, v = c2 - 2 c1 + c0 and a = -max(1, |r|/|v|) it is
    c0 - 2ar + a^2 v, which is F's fixed point where F contracts at one rate
    (Varadhan & Roland, 2008, scheme S3). None when a norm is not finite or
    |v| = 0. A norm is the square root of the flattened dot product, the
    formula of ``np.linalg.norm`` without its call overhead.
    """
    r = c1 - c0
    v = c2 - c1 - r
    r_norm, v_norm = math.sqrt(r.ravel() @ r.ravel()), math.sqrt(v.ravel() @ v.ravel())
    if not (v_norm > 0 and math.isfinite(r_norm / v_norm)):
        return None
    alpha = -max(1.0, r_norm / v_norm)
    return c0 - 2.0 * alpha * r + alpha * alpha * v


def _fcm(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The fuzzy clustering loop: (memberships, centroids, initial, evaluations).

    Memberships are (k x n); centroids and the initial centroids, implied
    by the random initial memberships, are (k x d). With fuzzifier 2 (the
    weights are squared memberships) a plain step evaluates the
    memberships at the centroids, then takes the weighted centroids of
    those, F(c). The loop runs SQUAREM cycles on F (Varadhan & Roland,
    2008): two plain steps c1 = F(c0) and c2 = F(c1), then one evaluation
    at the extrapolated point cx of :func:`_squarem_point`. The cycle
    continues from F(cx) if the objective sum(u^2 d^2) at cx is no larger
    than at c1, and from c2 otherwise; the plain step never raises that
    objective (Bezdek, 1981), so in exact arithmetic neither does the
    cycle. Where there is no cx (a non-finite norm, from a NaN centroid,
    or |v| = 0) the cycle skips the extrapolation. The loop stops at
    centroids from which a plain step moves the memberships less than the
    tolerance, and returns those centroids and the memberships they came
    from, or after ``_MAX_ITER`` membership evaluations.

    It keeps memberships and squared distances as C-order (k, n) arrays,
    and each plain step adds its sums left to right (README "Summation
    order"): squared distances come from ``_sq_distances``, already
    (k, n), the membership totals from ``_memberships``, and the
    centroids from ``_fcm_centroids``.
    """
    n = x.shape[0]
    u = rng.random((n, k)) + 1e-9
    u /= u.sum(axis=1, keepdims=True)
    u = np.ascontiguousarray(u.T)
    scratch, w_nk = np.empty((k, n)), np.empty((n, k))

    def evaluate(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d2 = _sq_distances(x, c)
        return _memberships(d2, scratch, np.empty((k, n))), d2

    def objective(memberships: np.ndarray, d2: np.ndarray) -> float:
        # NumPy's own sum, not BLAS: the same bits at any BLAS thread count
        np.multiply(memberships, memberships, out=scratch)
        return float(np.multiply(scratch, d2, out=scratch).sum())

    initial = _fcm_centroids(u, x, w_nk)
    centroids, evaluations = initial, 0
    # When k exceeds the distinct samples, a cluster can lose all its
    # membership; its centroid is then 0/0, a NaN that _memberships and
    # _repair_empty handle, and whose norms skip every extrapolation.
    # Entered once per call, not per evaluation.
    with np.errstate(invalid="ignore"):
        while True:
            cycle = [centroids]
            for _ in range(2):
                new_u, d2 = evaluate(centroids)
                evaluations += 1
                change = float(np.abs(np.subtract(new_u, u, out=scratch), out=scratch).max())
                if change < _TOL:
                    return u, centroids, initial, evaluations
                u, centroids = new_u, _fcm_centroids(new_u, x, w_nk)
                if evaluations == _MAX_ITER:
                    return u, centroids, initial, evaluations
                cycle.append(centroids)
            extrapolated = _squarem_point(*cycle)
            if extrapolated is None:
                continue
            extrapolated_u, extrapolated_d2 = evaluate(extrapolated)
            evaluations += 1
            # u and d2 are still the memberships and distances at c1
            if objective(extrapolated_u, extrapolated_d2) <= objective(u, d2):
                u, centroids = extrapolated_u, _fcm_centroids(extrapolated_u, x, w_nk)
            if evaluations == _MAX_ITER:
                return u, centroids, initial, evaluations


def run_fcm(data: Dataset, cfg: ClustererConfig) -> tuple[Partition, BasicParams]:
    """Fuzzy-membership clustering, hardened by argmax at the end.

    The starting parameters reported for independency are the k x d
    centroids implied by the random initial membership matrix. The loop,
    :func:`_fcm`, extrapolates the centroid steps, safeguarded by the FCM
    objective, and stops where memberships move less than 1e-6 or after
    300 membership evaluations.
    """
    if cfg.k > data.n:
        raise InvalidK(f"k={cfg.k} exceeds sample count {data.n}")
    u, centroids, initial, _ = _fcm(data.samples, cfg.k, np.random.default_rng(cfg.seed))
    labels = np.argmax(u, axis=0)
    _repair_empty(labels, data.samples, centroids, cfg.k)
    return Partition(labels, cfg.k), BasicParams(cfg.algorithm_id, initial)


# --- linkage family ----------------------------------------------------------

def _cosine_distances(x: np.ndarray) -> np.ndarray:
    """Condensed cosine distances, as ``pdist(x, "cosine")``.

    scipy leaves NaN at a pair with an all-zero row, which has no direction.
    Russell-Rao on the zero flags puts such a row at 1 from every other row
    and at 0 from another all-zero row.
    """
    from scipy.spatial.distance import pdist

    dist = pdist(x, "cosine")
    undefined = np.isnan(dist)
    if undefined.any():
        zero = np.linalg.norm(x, axis=1) == 0
        dist[undefined] = pdist(zero[:, None], "russellrao")[undefined]
    return dist


def _linkage_tree(x: np.ndarray, alg: str) -> np.ndarray:
    """The (n-1, 4) merge tree of linkage ID ``alg`` on samples ``x``."""
    method = _LINKAGE_NAMES[alg[0]]
    # Sorted neighbours apart in every column: no two samples share a
    # coordinate, and every Hamming distance is d/d = 1.
    if alg[2] == "H" and np.all(np.diff(np.sort(x, axis=0), axis=0) > 0):
        return chain_tree(len(x))
    # Imported on first use: scipy.spatial takes ~50 ms to load, which runs
    # and commands without such a linkage need not pay.
    from scipy.spatial.distance import pdist, squareform

    if alg[2] == "H":
        return linkage_merge(squareform(pdist(x, "hamming")), method)
    from scipy.cluster.hierarchy import linkage

    return linkage(pdist(x) if alg[2] == "E" else _cosine_distances(x), method)


def run_linkage(data: Dataset, cfg: ClustererConfig) -> tuple[Partition, BasicParams]:
    """Agglomerative clustering; the algorithm ID picks linkage and distance.

    IDs look like ``ALE``: linkage letter in {S, A, C, W} (single, average,
    complete, ward), then ``L``, then distance letter in {E, H, C}
    (Euclidean, Hamming, cosine). Deterministic, so the starting
    parameters are a constant one-row code and reruns score fully
    dependent at run level.

    A Hamming distance is the share of coordinates that differ, exactly
    as ``pdist(x, "hamming")`` counts them (0.0 equals -0.0). These
    distances are multiples of 1/d and tie by construction, so the
    ``?LH`` IDs merge on the exact engine of :mod:`cesel._agglo`, whose
    row-major tie rule then decides the partition. Where no two
    samples share a coordinate, every Hamming distance is 1 and the tree
    is the engine's ``chain_tree``, built without a distance matrix; its
    cuts leave the last k-1 samples as singletons. Euclidean and cosine
    IDs merge scipy's condensed ``pdist`` distances on its compiled
    ``linkage`` (Müllner's MST and NN-chain algorithms). Either linkage
    matrix goes to the one cut, ``cut_merges``. On tie-free distances both
    give the same partition at every k. Where distances tie, scipy may
    merge the tied pairs in another order and so cut a different, equally
    deterministic partition.

    The tree depends on neither k nor the seed: on a dataset from
    :meth:`Dataset.with_memo` it is built once per linkage ID and cut once
    per (ID, k); a repeated draw reuses the cut's read-only labels.
    """
    alg = cfg.algorithm_id
    if alg not in LINKAGE_IDS:
        raise ValueError(f"not a linkage algorithm ID: {alg!r}")
    if cfg.k > data.n:
        raise InvalidK(f"k={cfg.k} exceeds sample count {data.n}")
    tree = _memoized(data, alg, lambda: _linkage_tree(data.samples, alg))
    labels = _memoized(data, (alg, cfg.k), lambda: cut_merges(tree, cfg.k))
    code = np.array([["SACW".index(alg[0]), "EHC".index(alg[2])]], dtype=float)
    return Partition(labels, cfg.k), BasicParams(alg, code)


# --- sparse spectral ----------------------------------------------------------

def _nearest(dist: np.ndarray, t: int) -> np.ndarray:
    """Each sample's t nearest other samples, as an n x n boolean mask.

    Neighbours rank by (distance, index). With its diagonal at -1, a
    sample's t+1 smallest entries are itself and its t neighbours: one
    partition finds the (t+1)-th smallest value of each row, and every
    entry up to it is taken. Only on a row with more entries equal to it
    than places left do those entries fill the places in index order, as
    a stable sort of the row would take them.
    """
    rows = np.arange(dist.shape[0])
    ranked = dist.copy()
    ranked[rows, rows] = -1.0
    kth = np.partition(ranked, t, axis=1)[:, [t]]
    keep = ranked <= kth
    over = np.flatnonzero(keep.sum(axis=1) > t + 1)
    if over.size:
        sub, sub_kth = ranked[over], kth[over]
        tie = sub == sub_kth
        need = t + 1 - (sub < sub_kth).sum(axis=1, keepdims=True)
        keep[over] &= ~tie | (np.cumsum(tie, axis=1) <= need)
    keep[rows, rows] = False
    return keep


def _normalized_similarity(x: np.ndarray) -> np.ndarray:
    """The degree-normalized t-NN similarity D^-1/2 W D^-1/2 of samples ``x``, n x n.

    Raises :class:`DegenerateSpectrum` on an isolated vertex. W is built in
    the distance matrix's own buffer, with the arithmetic of
    ``np.where(keep, np.exp(-(dist**2) / (2 * sigma**2)), 0.0)``.
    """
    from scipy.spatial.distance import pdist, squareform

    n = x.shape[0]
    dist = pdist(x)
    sigma = float(np.median(dist))  # each pair once: the off-diagonal median
    dist = squareform(dist)
    if sigma <= 0:
        sigma = 1.0
    keep = _nearest(dist, min(_MAX_NEIGHBORS, n - 1))
    keep |= keep.T  # symmetric union graph, no self-loops

    similarity = np.square(dist, out=dist)
    np.negative(similarity, out=similarity)
    similarity /= 2.0 * sigma**2
    np.exp(similarity, out=similarity)
    similarity[~keep] = 0.0
    degree = similarity.sum(axis=1)
    if np.any(degree <= 0):
        raise DegenerateSpectrum("graph has an isolated vertex")
    inv_sqrt = 1.0 / np.sqrt(degree)
    similarity *= inv_sqrt[:, None]
    similarity *= inv_sqrt[None, :]
    return similarity


def _spectral_embedding(x: np.ndarray, k: int) -> np.ndarray:
    """The seed-free part of :func:`run_spectral_sparse`: its (n, k) embedding.

    The eigenvectors of the k largest eigenvalues, in descending order,
    with each row scaled to unit length. LAPACK's MRRR driver (``evr``)
    computes only those k pairs. Raises :class:`DegenerateSpectrum` on an
    isolated vertex or eigenvectors that are not finite.
    """
    from scipy.linalg import eigh

    similarity = _normalized_similarity(x)
    n = similarity.shape[0]
    _, eigvecs = eigh(similarity, subset_by_index=[n - k, n - 1], driver="evr",
                      overwrite_a=True, check_finite=False)
    embedding = eigvecs[:, ::-1]
    if not np.isfinite(embedding).all():
        raise DegenerateSpectrum("eigenvectors are not finite")
    row_norm = np.linalg.norm(embedding, axis=1, keepdims=True)
    return embedding / np.where(row_norm > 0, row_norm, 1.0)


def run_spectral_sparse(data: Dataset, cfg: ClustererConfig) -> tuple[Partition, BasicParams]:
    """Spectral clustering on a t-nearest-neighbour similarity graph.

    Each sample links to its t = min(10, n-1) nearest other samples,
    ranked by distance with ties going to the smaller index; the graph is
    the symmetric union of those links, with no self-loops. Linked pairs
    get a Gaussian kernel whose bandwidth is the median distance over all
    pairs. The graph is held in a dense n x n matrix. The samples are
    embedded into the eigenvectors of its k largest degree-normalized
    eigenvalues (Ng, Jordan & Weiss, 2002), which LAPACK computes without
    the other n - k, row-normalized and clustered with the seeded
    assignment loop. Starting parameters are the initial centroids in the
    embedded space.

    Only the assignment loop reads the seed: on a dataset from
    :meth:`Dataset.with_memo` the embedding is computed once per k.
    """
    n, k = data.n, cfg.k
    if k > n:
        raise InvalidK(f"k={cfg.k} exceeds sample count {n}")
    embedding = _memoized(data, ("SPS", k), lambda: _spectral_embedding(data.samples, k))
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
