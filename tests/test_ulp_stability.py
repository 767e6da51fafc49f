"""Where an ulp-level change of the input moves a partition, and where it must not.

``tools/ulp_stability.py`` counts the K, F and SPS partitions that a
one-ulp nudge of every coordinate, a 1 + 2**-50 rescale or a second BLAS
thread moves. These tests run its counting on a few of its runs: the
benchmark's data must not move, and the two known cases on far-apart
clusters (README deviation ledger) must show as stated.
"""
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
from scipy.linalg import eigvalsh

from cesel import clusterers
from cesel.clusterers import ClustererConfig, run_algorithm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import ulp_stability  # noqa: E402


def test_changes_count_relabellings_apart():
    base = [ulp_stability.labels_key(np.array(a)) for a in ([0, 0, 1, 1], [0, 1, 2, 0], [0, 0, 1])]
    other = [ulp_stability.labels_key(np.array(a)) for a in ([0, 0, 1, 1], [2, 0, 1, 2], [0, 1, 1])]
    assert ulp_stability.changes(base, base) == (0, 0)
    assert ulp_stability.changes(base, other) == (2, 1)


def test_benchmark_partitions_survive_a_nudge_and_a_rescale():
    # iris and the first half ring at seeds 0-1, the first blob set at k = 2-6
    runs = list(ulp_stability.benchmark_runs())
    runs = runs[0:2] + runs[5:7] + runs[85:110:5]
    for alg in ulp_stability.CLUSTERERS:
        base = ulp_stability.partition_keys(runs, alg)
        for perturb in ulp_stability.PERTURBATIONS.values():
            assert ulp_stability.changes(base, ulp_stability.partition_keys(runs, alg, perturb)) == (0, 0)


def test_fcm_twins_split_samples_by_ulps():
    # far-apart set 4 at k = 6: FCM ends with two centroids 7.7e-9 apart,
    # and the nudge moves two samples from one of them to the other
    data = next(islice(ulp_stability.random_sets(3.0), 4, None))
    x, nudged = data.samples, np.nextafter(data.samples, np.inf)
    _, centroids, _, _ = clusterers._fcm(x, 6, np.random.default_rng(0))
    gaps = np.sqrt(((centroids[:, None] - centroids[None]) ** 2).sum(axis=2))
    twins = {tuple(pair) for pair in np.argwhere((gaps < 1e-8) & (gaps > 0))}
    a = run_algorithm(data, ClustererConfig("F", 6, 0))[0].assignments
    b = run_algorithm(replace(data, samples=nudged), ClustererConfig("F", 6, 0))[0].assignments
    moved = np.flatnonzero(a != b)
    assert moved.size == 2
    assert {(a[i], b[i]) for i in moved} <= twins


def test_sps_basis_is_chosen_by_ulps_on_a_split_graph():
    # far-apart set 0: the t-NN graph has three components, so eigenvalue 1
    # repeats three times and any basis of its eigenspace is an answer
    data = next(ulp_stability.random_sets(3.0))
    eigenvalues = eigvalsh(clusterers._normalized_similarity(data.samples))
    assert np.sum(eigenvalues > 1 - 1e-9) == 3
    a = run_algorithm(data, ClustererConfig("SPS", 2, 1))[0].assignments
    nudged = replace(data, samples=np.nextafter(data.samples, np.inf))
    b = run_algorithm(nudged, ClustererConfig("SPS", 2, 1))[0].assignments
    assert not np.array_equal(a, b)
