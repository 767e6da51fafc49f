"""Cluster-vs-partition similarity and the committee admission gate.

The base score compares one cluster against a whole partition through
cluster-size entropies; averaging it over a candidate partition's
clusters gives a partition-vs-partition similarity, and the maximum of
that over the current committee is the candidate's uniformity. Diversity
is one minus uniformity, and a candidate joins the committee when its
diversity clears the threshold (the first candidate always joins).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clusterers import Partition
from .errors import EmptyCommittee


def apmm(cluster_members: np.ndarray, partition: Partition, n_total: int) -> float:
    """Similarity of one cluster to a reference partition.

    ``cluster_members`` are the sample indices of the cluster; ``n_total``
    is the number of samples both objects are defined over. Uses natural
    logs of cluster-size fractions; the 0/0 case (full cluster against a
    single full cluster) is defined as 1, and a full cluster against any
    finer partition scores 0.
    """
    n_c = len(cluster_members)
    if not 1 <= n_c <= n_total:
        raise ValueError(f"cluster size {n_c} outside [1, {n_total}]")
    if len(np.unique(cluster_members)) != n_c:
        raise ValueError("cluster member indices must be unique")
    return _apmm(n_c, n_total, _size_entropy_term(partition, n_total))


def _size_entropy_term(partition: Partition, n_total: int) -> float:
    """The reference partition's share of the :func:`apmm` denominator."""
    sizes = np.bincount(partition.assignments, minlength=partition.k)
    return sum(s * math.log(s / n_total) for s in sizes if s > 0)


def _apmm(n_c: int, n_total: int, ref_term: float) -> float:
    """:func:`apmm` of a cluster of ``n_c`` samples, given the reference's term."""
    numerator = -2.0 * n_c * math.log(n_total / n_c)
    denominator = n_c * math.log(n_c / n_total) + ref_term
    if denominator == 0.0:
        # both sides are the degenerate single full cluster
        return 1.0
    return numerator / denominator


def aapmm_raw(p: Partition, ref: Partition) -> float:
    """Unclamped similarity of partition ``p`` to reference ``ref``.

    Mean cluster-vs-partition score over the clusters of ``p``. Can
    exceed 1 for degenerate references; see :func:`aapmm`.
    """
    n = len(p.assignments)
    if n != len(ref.assignments):
        raise ValueError("partitions cover different sample counts")
    ref_term = _size_entropy_term(ref, n)
    scores = [_apmm(int(n_c), n, ref_term) for n_c in p.cluster_sizes() if n_c > 0]
    return float(np.mean(scores))


def aapmm(p: Partition, ref: Partition) -> float:
    """Similarity of two partitions, clamped to [0, 1]."""
    return min(1.0, max(0.0, aapmm_raw(p, ref)))


def uniformity(p: Partition, committee: list[Partition]) -> float:
    """Maximum similarity of ``p`` against any committee member."""
    if not committee:
        raise EmptyCommittee("uniformity needs at least one committee member")
    return max(aapmm(p, member) for member in committee)


@dataclass(frozen=True)
class DiversityReport:
    """Outcome of one admission check."""

    uniformity: float
    div: float
    raw_scores: tuple[float, ...] = field(default=())  # unclamped, per member
    admitted: bool = False


def admit(p: Partition, committee: list[Partition], d_threshold: float) -> DiversityReport:
    """Gate a candidate partition against the current committee.

    Diversity is 1 - uniformity; the candidate is admitted when the
    committee is empty (vacuous maximum) or diversity >= threshold.
    """
    if not 0.0 <= d_threshold <= 1.0:
        raise ValueError(f"diversity threshold {d_threshold} outside [0, 1]")
    if not committee:
        return DiversityReport(uniformity=0.0, div=1.0, raw_scores=(), admitted=True)
    raw = tuple(aapmm_raw(p, member) for member in committee)
    uni = max(min(1.0, max(0.0, r)) for r in raw)
    div = 1.0 - uni
    return DiversityReport(
        uniformity=uni, div=div, raw_scores=raw, admitted=div >= d_threshold
    )
