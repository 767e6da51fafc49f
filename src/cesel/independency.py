"""Independency scoring between algorithms.

Two layers live here. Graph-level: cells from two :class:`GraphArray`
objects are scored pairwise into a dependence matrix, and a greedy
max-extraction over that matrix yields the pairwise independency degree
(0 = identical procedure, 1 = nothing in common). Run-level: two runs of
the *same* algorithm are compared through their randomized starting
parameters (greedy minimum matching of parameter rows). The two layers
combine into one scalar weight per committee entry.
"""
from __future__ import annotations

import csv
import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .cail import GraphArray
from .clusterers import BasicParams, _sq_distances
from .errors import (
    CommitteeTooSmall,
    DataFileError,
    DimensionMismatch,
    DuplicateAlgorithmId,
    EmptyCell,
    EmptyGraph,
    UnknownAlgorithm,
)


def compare_cells(cell1, cell2) -> float:
    """Dependence of two cells: shared symbols over the larger cell size.

    Shared symbols are counted with multiset semantics (a symbol matched
    in one cell is consumed), which keeps the score symmetric when
    duplicates appear. Result is in [0, 1].
    """
    if not cell1 or not cell2:
        raise EmptyCell("cannot compare an empty cell")
    shared = sum((Counter(cell1) & Counter(cell2)).values())
    return shared / max(len(cell1), len(cell2))


@dataclass(frozen=True)
class Cddm:
    """Cell-by-cell dependence matrix for one pair of algorithms."""

    row_name: str
    col_name: str
    values: np.ndarray  # shape (len(a.cells), len(b.cells)), entries in [0, 1]


def build_cddm(a: GraphArray, b: GraphArray) -> Cddm:
    """Score every cell of ``a`` against every cell of ``b``."""
    if len(a) == 0 or len(b) == 0:
        raise EmptyGraph("cannot build a dependence matrix from an empty array")
    values = np.array(
        [[compare_cells(ca, cb) for cb in b.cells] for ca in a.cells],
        dtype=float,
    )
    return Cddm(a.name, b.name, values)


def _greedy_extract(values: np.ndarray) -> list[float]:
    """Greedy one-to-one extraction of matrix minima, smallest first.

    Repeatedly takes the smallest entry left, then deletes its row and
    column; ties go to the smallest row index, then the smallest column
    index. Stops after min(rows, cols) extractions.

    One stable ``np.argsort`` of the flattened matrix orders every entry
    by (value, row, column). Walking it and skipping entries whose row or
    column is already taken meets each pick in turn, since entries only
    ever leave the matrix.
    """
    left = np.asarray(values, dtype=float)
    rows, cols = left.shape
    flat = left.ravel().tolist()
    row_free, col_free = [True] * rows, [True] * cols
    picked: list[float] = []
    for index in np.argsort(left, axis=None, kind="stable").tolist():
        r, c = divmod(index, cols)
        if row_free[r] and col_free[c]:
            picked.append(flat[index])
            if len(picked) == min(rows, cols):
                break
            row_free[r] = col_free[c] = False
    return picked


def max_cells(cddm: Cddm) -> list[float]:
    """Greedy extraction of matrix maxima: the negated matrix's minima, negated
    back (see :func:`_greedy_extract`), which is exact and keeps every tie."""
    return [-v for v in _greedy_extract(-cddm.values)]


def aid(a: GraphArray, b: GraphArray) -> float:
    """Independency degree of two algorithms' arrays, in [0, 1].

    One minus the mean extracted dependence, where the mean is taken over
    the larger of the two cell counts so that unmatched cells count as
    fully independent.
    """
    picked = max_cells(build_cddm(a, b))
    m = max(len(a), len(b))
    # left to right on every Python: from 3.12 on, sum() compensates
    return 1.0 - functools.reduce(operator.add, picked) / m


@dataclass(frozen=True)
class Aidm:
    """Symmetric matrix of pairwise independency degrees, diagonal -1."""

    algorithm_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        n = len(self.algorithm_ids)
        v = np.array(self.values, dtype=float)
        v.flags.writeable = False  # instances are shared (see reference_aidm)
        object.__setattr__(self, "values", v)
        if v.shape != (n, n):
            raise ValueError("matrix shape does not match the ID list")
        off = v[~np.eye(n, dtype=bool)]  # NaN fails every test below
        if not (np.array_equal(v, v.T) and (np.diag(v) == -1.0).all()
                and ((off >= 0.0) & (off <= 1.0)).all()):
            raise ValueError("independency matrix must be symmetric, -1 on the diagonal "
                             "and in [0, 1] elsewhere")

    def index(self, algorithm_id: str) -> int:
        try:
            return self.algorithm_ids.index(algorithm_id)
        except ValueError:
            raise UnknownAlgorithm(f"algorithm {algorithm_id!r} not in matrix") from None

    def lookup(self, alg_a: str, alg_b: str) -> float:
        return float(self.values[self.index(alg_a), self.index(alg_b)])


def build_aidm(arrays: list[GraphArray]) -> Aidm:
    """Pairwise independency over a roster of graph arrays.

    Off-diagonal entries are mirrored from the upper triangle so the
    result is exactly symmetric; the diagonal is -1 by convention (an
    algorithm against itself is resolved at run level, not graph level).
    """
    ids = [a.name for a in arrays]
    if len(set(ids)) != len(ids):
        raise DuplicateAlgorithmId(f"duplicate algorithm IDs in {ids}")
    n = len(arrays)
    values = np.full((n, n), -1.0)
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = aid(arrays[i], arrays[j])
    return Aidm(tuple(ids), values)


def save_aidm_csv(aidm: Aidm, path: str | Path) -> None:
    """Write ``aidm`` as UTF-8 CSV: header row/column of IDs, -1 diagonal."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(aidm.algorithm_ids))
        for alg_id, row in zip(aidm.algorithm_ids, aidm.values):
            writer.writerow([alg_id] + [_fmt(v) for v in row])


def _fmt(v: float) -> str:
    return str(int(v)) if v == int(v) else repr(float(v))


def load_aidm_csv(path: str | Path) -> Aidm:
    """Read an independency matrix CSV written by :func:`save_aidm_csv`.

    A leading byte-order mark is dropped. Raises :class:`DataFileError`
    naming ``path`` for a file not in UTF-8, with a cell longer than the
    csv module's field limit, without a header row of IDs, with a
    repeated ID, a row count or length that does not match the header, a
    row label unlike its ID, a non-numeric cell, or a matrix that
    :class:`Aidm` rejects.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataFileError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except csv.Error as exc:
        raise DataFileError(f"{path}: {exc}") from None
    if not rows or len(rows[0]) < 2:
        raise DataFileError(f"{path}: no header row of algorithm IDs")
    ids = tuple(h.strip() for h in rows[0][1:])
    if len(set(ids)) != len(ids):
        raise DataFileError(f"{path}: duplicate algorithm IDs in the header: {list(ids)}")
    body = rows[1:]
    if len(body) != len(ids) or any(len(row) != len(ids) + 1 for row in body):
        raise DataFileError(
            f"{path}: expected {len(ids)} rows of {len(ids) + 1} cells below the header")
    if tuple(row[0].strip() for row in body) != ids:
        raise DataFileError(f"{path}: row labels do not match the header")
    try:
        return Aidm(ids, np.array([[float(v) for v in row[1:]] for row in body]))
    except ValueError as exc:
        raise DataFileError(f"{path}: {exc}") from None


@functools.cache
def reference_aidm() -> Aidm:
    """The bundled 20-algorithm reference independency matrix, read once."""
    return load_aidm_csv(Path(str(resources.files("cesel.data").joinpath("aidm_reference.csv"))))


# --- run-level independency ---------------------------------------------------

def bpi(p1: BasicParams, p2: BasicParams) -> float:
    """Run-level independency of two same-algorithm runs, in [0, 1).

    Greedy minimum matching of parameter rows: extract the global minimum
    of the pairwise Euclidean distance matrix, drop its row and column,
    repeat until one side is exhausted. The mean matched distance ``t``
    is squashed to ``t / (1 + t)`` so identical runs score 0 and the
    score stays bounded. Symmetric bit for bit: swapping the runs
    transposes the distances exactly, and the ascending picks are the same.
    """
    if p1.algorithm_id != p2.algorithm_id:
        raise DimensionMismatch(
            f"run-level comparison needs one algorithm, got "
            f"{p1.algorithm_id!r} vs {p2.algorithm_id!r}"
        )
    if p1.rows.shape[1] != p2.rows.shape[1]:
        raise DimensionMismatch(
            f"parameter dimensionality differs: {p1.rows.shape[1]} vs {p2.rows.shape[1]}"
        )
    t = float(np.mean(_greedy_extract(np.sqrt(_sq_distances(p2.rows, p1.rows)))))
    return t / (1.0 + t)


def ai_weights(committee, aidm: Aidm) -> np.ndarray:
    """Per-entry independency weight: mean pair score against the rest.

    For entries from different algorithms the pair score is the matrix
    lookup; for entries from the same algorithm it is the run-level
    :func:`bpi`, scored once per unordered pair. Each weight is the mean of
    its row of pair scores without the diagonal, and lands in [0, 1].

    ``committee`` is a sequence of objects with ``algorithm_id`` and
    ``basic_params`` attributes (see :class:`cesel.consensus.CommitteeEntry`).
    """
    if len(committee) < 2:
        raise CommitteeTooSmall("independency weights need at least two entries")
    index = [aidm.index(entry.algorithm_id) for entry in committee]  # raises UnknownAlgorithm
    scores = aidm.values[np.ix_(index, index)]
    m = len(committee)
    for i, j in itertools.combinations(range(m), 2):
        if index[i] == index[j]:
            pair = _pad_to_common(committee[i].basic_params, committee[j].basic_params)
            scores[i, j] = scores[j, i] = bpi(*pair)
    return scores[~np.eye(m, dtype=bool)].reshape(m, m - 1).mean(axis=1)


def _pad_to_common(p1: BasicParams, p2: BasicParams) -> tuple[BasicParams, BasicParams]:
    """Zero-pad the narrower parameter rows so same-algorithm runs compare.

    Runs of one algorithm under different cluster counts can carry
    parameters of different dimensionality (e.g. embedded-space centroids
    are k x k); eigen-embeddings nest, so padding the missing trailing
    coordinates with zeros keeps distances meaningful.
    """
    width = max(p1.rows.shape[1], p2.rows.shape[1])

    def pad(p: BasicParams) -> BasicParams:
        extra = width - p.rows.shape[1]
        return BasicParams(p.algorithm_id, np.pad(p.rows, ((0, 0), (0, extra)))) if extra else p

    return pad(p1), pad(p2)
