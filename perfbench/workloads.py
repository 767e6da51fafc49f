"""The three benchmark workloads: their data, pipeline config and seeds.

Each workload stresses a different layer of the pipeline (see README.md).
Everything a workload feeds the pipeline is derived from the workload
seed given on the command line: the generated datasets, and the master
seed of every run in a batch. The bundled flower data is fixed, so on
``iris-curated`` only the master seeds change with the workload seed.

The generated workloads draw a pool of datasets and run ``i`` of a batch
uses dataset ``i % POOL``. How often the gate rejects depends on the
dataset as much as on the master seed, so a batch on a single dataset
measures that one dataset's luck rather than the workload.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cesel import assets
from cesel.clusterers import ALGORITHM_IDS, Dataset
from cesel.consensus import PipelineConfig
from cesel.harness import gen_blobs, gen_half_ring, load_csv

IRIS_ROSTER = ("K", "F", "SPS", "ALE", "ALC", "CLE", "CLC", "WLE", "WLC", "SLE", "SLC")
BLOB_CENTERS = [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]
POOL = 16

# Half-ring size. n=400 fits only ~14 runs in a 30 s window, and runs take
# 10 to 32 attempts, so throughput spread 26% of its median across seeds;
# n=200 fits ~80 runs with the same gate behaviour and layer shares.
RING_N = 200

# Samples per blob (three blobs). At 500 (n=1500) a run took ~7 s, so a
# 30 s window held 4 runs and the O(n^3) merge streamed 18 MB matrices
# through a cache shared with other tenants: the median run time of two
# sets of ten seeds spread 11% and 34%. At 250 (n=750) a window holds ~25
# runs and the average-linkage merge still takes most of each run.
BLOB_N = 250

# Runs whose accuracy is averaged. A fixed count keeps ``accuracy_pct``
# independent of how many runs the timed window happens to hold, so a
# change that only alters speed leaves it bit-identical.
ACCURACY_RUNS = {"iris-curated": 80, "ring-gated": 32, "blobs-consensus": 8}

_SEED_TAGS = {"iris-curated": 1, "ring-gated": 2, "blobs-consensus": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple[Dataset, ...]
    pipeline: PipelineConfig     # master seed is replaced per run
    accuracy_runs: int
    workload_seed: int

    def data_for(self, index: int) -> Dataset:
        """Dataset of run ``index`` of a batch."""
        return self.datasets[index % len(self.datasets)]

    def run_seed(self, index: int) -> int:
        """Master seed of run ``index`` of a batch."""
        return _derive(self.workload_seed, self.name, 1, index) % (2**63 - 1)


def _derive(workload_seed: int, name: str, *path: int) -> int:
    words = [workload_seed, _SEED_TAGS[name], *path]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


def names() -> tuple[str, ...]:
    return tuple(_SEED_TAGS)


def build(name: str, workload_seed: int, toy: bool = False) -> Workload:
    """Make a workload's inputs. ``toy`` shrinks the data for smoke tests."""
    if name not in _SEED_TAGS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(names())}")
    data_seeds = [_derive(workload_seed, name, 0, j) % 2**32 for j in range(POOL)]
    if name == "iris-curated":
        datasets = (load_csv(assets.iris_csv_path(), label_column="species"),)
        pipeline = PipelineConfig(
            k_final=3, d_threshold=0.1, committee_target=10, max_attempts=60,
            aidm_source="computed", consensus="weac", roster=IRIS_ROSTER,
        )
    elif name == "ring-gated":
        n = 60 if toy else RING_N
        datasets = tuple(gen_half_ring(n, 0.05, seed=s) for s in data_seeds)
        pipeline = PipelineConfig(
            k_final=2, d_threshold=0.35, committee_target=8, max_attempts=32,
            aidm_source="reference", roster=ALGORITHM_IDS,
        )
    else:
        per_blob = 20 if toy else BLOB_N
        datasets = tuple(gen_blobs(per_blob, BLOB_CENTERS, 1.0, seed=s) for s in data_seeds)
        pipeline = PipelineConfig(
            k_final=3, d_threshold=0.0, committee_target=20, max_attempts=60,
            aidm_source="reference", roster=("K", "F"), vary_k=True,
        )
    runs = 2 if toy else ACCURACY_RUNS[name]
    return Workload(name, datasets, pipeline, runs, workload_seed)
