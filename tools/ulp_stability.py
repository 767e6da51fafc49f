"""Count the K, F and SPS partitions that an ulp-level change of their input moves.

Each clusterer runs on fixed sets, k values and seeds, once on the samples
as they are at one BLAS thread, and again under three perturbations:

- ``nudge``: every coordinate moved up by one ulp, ``np.nextafter(x, inf)``;
- ``rescale``: every coordinate times 1 + 2**-50;
- ``threads``: the samples as they are, at two OpenBLAS threads.

For each family of sets, clusterer and perturbation the script prints how
many partitions changed at all and how many changed up to relabelling too
(a pure relabelling counts in the first column only). A spectral run that
raises ``DegenerateSpectrum`` counts as its message. Each thread count runs
in its own process.

    python3 tools/ulp_stability.py

The families:

- ``benchmark``: perfbench's datasets at workload seed 1: iris at k=3, the
  16 half rings at k=2 and the 16 blob sets at k=2-6, seeds 0-4;
- ``far-apart``: 100 random sets, n=150, d = 8 + (set % 5), four Gaussian
  clusters whose centres are drawn at scale 3, preprocessed; k=2-12, K and
  F at seed 0, SPS at seed 1 (the sets of ``BENCH_20.json`` and
  ``BENCH_24.json``). The t-NN graph has several components and FCM runs
  with more clusters than the data has;
- ``overlapping``: the same at centre scale 0.5, where neither happens.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE / "src"), str(HERE / "perfbench")]

from cesel.clusterers import ClustererConfig, preprocess, run_algorithm  # noqa: E402
from cesel.errors import DegenerateSpectrum  # noqa: E402

CLUSTERERS = ("K", "F", "SPS")
PERTURBATIONS = {
    "nudge": lambda x: np.nextafter(x, np.inf),
    "rescale": lambda x: x * (1.0 + 2.0**-50),
}


def benchmark_runs():
    """(dataset, k, seed) of the ``benchmark`` family."""
    import workloads

    for name, ks in (("iris-curated", (3,)), ("ring-gated", (2,)),
                     ("blobs-consensus", range(2, 7))):
        for data in workloads.build(name, 1).datasets:
            for k in ks:
                for seed in range(5):
                    yield data, k, seed


def random_sets(scale: float):
    """The 100 preprocessed four-cluster sets at centre scale ``scale``."""
    for s in range(100):
        rng = np.random.default_rng(s)
        d = 8 + s % 5
        centres = rng.normal(scale=scale, size=(4, d))
        yield preprocess(centres[rng.integers(0, 4, 150)] + rng.normal(size=(150, d)))


def random_runs(scale: float):
    """(dataset, k, seed) of a random family; SPS reads the seed plus one."""
    for data in random_sets(scale):
        for k in range(2, 13):
            yield data, k, 0


FAMILIES = {
    "benchmark": benchmark_runs,
    "far-apart": lambda: random_runs(3.0),
    "overlapping": lambda: random_runs(0.5),
}


def labels_key(assignments: np.ndarray) -> tuple[str, str]:
    """Hashes of the labels as they are and numbered by first occurrence."""
    _, first, inverse = np.unique(assignments, return_index=True, return_inverse=True)
    canonical = np.argsort(np.argsort(first))[inverse]
    return tuple(hashlib.blake2b(a.astype(np.int64).tobytes(), digest_size=8).hexdigest()
                 for a in (assignments, canonical))


def partition_keys(runs, alg: str, perturb=None) -> list[tuple[str, str]]:
    """:func:`labels_key` of ``alg``'s partition on each run, samples perturbed first.

    Runs on one dataset share a memo, as a pipeline run's candidates do,
    so SPS decomposes once per dataset and k, not once per seed.
    """
    keys, prepared = [], {}
    for data, k, seed in runs:
        if id(data) not in prepared:
            samples = data.samples if perturb is None else perturb(data.samples)
            prepared[id(data)] = replace(data, samples=samples, _memo={})
        cfg = ClustererConfig(alg, k, seed + (alg == "SPS"))
        try:
            keys.append(labels_key(run_algorithm(prepared[id(data)], cfg)[0].assignments))
        except DegenerateSpectrum as exc:
            keys.append((str(exc), str(exc)))
    return keys


def changes(base, other) -> tuple[int, int]:
    """Partitions that differ, and that differ up to relabelling too."""
    pairs = list(zip(base, other, strict=True))
    return sum(a[0] != b[0] for a, b in pairs), sum(a[1] != b[1] for a, b in pairs)


def keys_at(threads: str, perturbed: bool) -> dict:
    """Every family's keys, computed in a child process at ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    out = subprocess.run([sys.executable, __file__, "--keys", str(int(perturbed))], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def child_keys(perturbed: bool) -> dict:
    """Every family's keys per clusterer, as they are and, if ``perturbed``, perturbed."""
    variants = {"base": None, **(PERTURBATIONS if perturbed else {})}
    found = {}
    for family, make in FAMILIES.items():
        runs = list(make())
        found[family] = {alg: {name: partition_keys(runs, alg, f) for name, f in variants.items()}
                         for alg in CLUSTERERS}
    return found


def main() -> None:
    if sys.argv[1:2] == ["--keys"]:
        json.dump(child_keys(sys.argv[2] == "1"), sys.stdout)
        return
    one, two = keys_at("1", True), keys_at("2", False)
    print(f"{'family':<13}{'clusterer':<11}{'perturbation':<14}{'partitions':>11}"
          f"{'changed':>9}{'up to relabelling':>19}")
    for family, by_alg in one.items():
        for alg, found in by_alg.items():
            base = found["base"]
            others = {name: found[name] for name in PERTURBATIONS}
            others["threads"] = two[family][alg]["base"]
            for name, keys in others.items():
                changed, relabelled = changes(base, keys)
                print(f"{family:<13}{alg:<11}{name:<14}{len(base):>11}{changed:>9}{relabelled:>19}")


if __name__ == "__main__":
    main()
