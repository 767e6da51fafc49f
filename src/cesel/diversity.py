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
import operator
from dataclasses import dataclass, field
from functools import reduce

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
    if len(partition) != n_total:
        raise ValueError(f"reference partition covers {len(partition)} samples, not {n_total}")
    own = n_c * math.log(n_c / n_total)
    return _apmm(-2.0 * n_c * math.log(n_total / n_c), own, partition.size_terms[2])


def _apmm(numerator: float, own: float, ref_term: float) -> float:
    """:func:`apmm` of a cluster of s samples out of n, from its terms.

    ``numerator`` is -2·s·log(n/s), ``own`` is s·log(s/n), and ``ref_term``
    is the reference's sum of such terms (:attr:`Partition.size_terms`).
    """
    denominator = own + ref_term
    if denominator == 0.0:
        # both sides are the degenerate single full cluster
        return 1.0
    return numerator / denominator


def _mean(scores: list[float]) -> float:
    """The mean of ``scores``, added left to right."""
    return reduce(operator.add, scores) / len(scores)


def _raw_scores(p: Partition, refs: list[Partition]) -> tuple[float, ...]:
    """Unclamped similarity of ``p`` to each of ``refs``.

    The one path of :func:`aapmm_raw`, :func:`aapmm`, :func:`uniformity`
    and :func:`admit`: each partition's size terms are computed once and
    kept with it, and ``p``'s numerators once per call, so each reference
    costs a few float operations per cluster of ``p``.
    """
    n = len(p)
    sizes, own_terms, _ = p.size_terms
    numerators = [-2.0 * s * math.log(n / s) for s in sizes]
    raw = []
    for ref in refs:
        if len(ref) != n:
            raise ValueError("partitions cover different sample counts")
        ref_term = ref.size_terms[2]
        raw.append(_mean([_apmm(num, own, ref_term)
                          for num, own in zip(numerators, own_terms)]))
    return tuple(raw)


def _clamp(raw: float) -> float:
    return min(1.0, max(0.0, raw))


def aapmm_raw(p: Partition, ref: Partition) -> float:
    """Unclamped similarity of partition ``p`` to reference ``ref``.

    Mean cluster-vs-partition score over the non-empty clusters of ``p``.
    Can exceed 1 for degenerate references; see :func:`aapmm`.
    """
    return _raw_scores(p, [ref])[0]


def aapmm(p: Partition, ref: Partition) -> float:
    """Similarity of two partitions, clamped to [0, 1]."""
    return _clamp(aapmm_raw(p, ref))


def uniformity(p: Partition, committee: list[Partition]) -> float:
    """Maximum similarity of ``p`` against any committee member."""
    if not committee:
        raise EmptyCommittee("uniformity needs at least one committee member")
    return max(_clamp(r) for r in _raw_scores(p, committee))


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
    raw = _raw_scores(p, committee)
    uni = max(_clamp(r) for r in raw)
    div = 1.0 - uni
    return DiversityReport(
        uniformity=uni, div=div, raw_scores=raw, admitted=bool(div >= d_threshold)
    )
