"""SHA-256 of the RunReports of a fixed set of runs, to check that a change keeps every report.

Each part hashes the JSON of its runs' RunReports (``wall_time_ms``
dropped, keys sorted) in run order, and the script prints one full
SHA-256 per part and one over all parts. Run it on two checkouts and
compare: equal hashes mean bit-identical reports. It pins one BLAS
thread, since SPS weights can move by ulps with the thread count.

    python3 tools/report_parity.py               # this checkout
    python3 tools/report_parity.py path/to/other  # another checkout, same parts

The parts:

- ``iris-curated``, ``ring-gated``, ``blobs-consensus``: the first 80, 32
  and 8 runs of each benchmark workload, as ``perfbench`` builds them, at
  workload seeds 1 and 2;
- ``blobs-consensus-runs8-39``: runs 8-39 of blobs-consensus at both seeds;
- ``vary_k-ring400``: 12 ``vary_k`` full-roster runs on a half ring, n=400;
- ``vary_k-iris-full-roster``: 12 ``vary_k`` full-roster runs on iris,
  whose tied coordinates make the ``?LH`` IDs merge on the exact engine;
- ``SLH-only-ring200``: 4 runs with roster ``SLH`` on a half ring, n=200,
  where every copy weighs 0 and the consensus merges a constant matrix.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cesel import assets  # noqa: E402
from cesel.clusterers import ALGORITHM_IDS  # noqa: E402
from cesel.consensus import PipelineConfig, run_ces  # noqa: E402
from cesel.harness import gen_half_ring, load_csv  # noqa: E402

WORKLOAD_RUNS = {"iris-curated": 80, "ring-gated": 32, "blobs-consensus": 8}
WORKLOAD_SEEDS = (1, 2)


def digest(runs) -> str:
    """SHA-256 over the reports of ``runs``, pairs of (dataset, pipeline config)."""
    h = hashlib.sha256()
    for data, cfg in runs:
        report = run_ces(data, cfg)[1].to_dict()
        report.pop("wall_time_ms")
        h.update(json.dumps(report, sort_keys=True).encode())
    return h.hexdigest()


def workload_runs(name: str, indices):
    for seed in WORKLOAD_SEEDS:
        w = workloads.build(name, seed)
        for i in indices:
            yield w.data_for(i), replace(w.pipeline, seed=w.run_seed(i))


def vary_k_runs(data, k_final: int, d_threshold: float):
    for seed in range(12):
        yield data, PipelineConfig(k_final=k_final, d_threshold=d_threshold, committee_target=8,
                                   max_attempts=32, seed=seed, roster=ALGORITHM_IDS, vary_k=True)


def parts() -> dict[str, str]:
    found = {name: digest(workload_runs(name, range(runs))) for name, runs in WORKLOAD_RUNS.items()}
    found["blobs-consensus-runs8-39"] = digest(workload_runs("blobs-consensus", range(8, 40)))
    found["vary_k-ring400"] = digest(vary_k_runs(gen_half_ring(400, 0.05, seed=4), 2, 0.35))
    iris = load_csv(assets.iris_csv_path(), label_column="species")
    found["vary_k-iris-full-roster"] = digest(vary_k_runs(iris, 3, 0.1))
    ring = gen_half_ring(200, 0.05, seed=1)
    found["SLH-only-ring200"] = digest(
        (ring, PipelineConfig(k_final=2, d_threshold=0.0, committee_target=4, max_attempts=8,
                              seed=seed, roster=("SLH",)))
        for seed in range(4))
    return found


def main() -> None:
    total = hashlib.sha256()
    for name, value in parts().items():
        total.update(value.encode())
        print(name, value)
    print("sha256", total.hexdigest())


if __name__ == "__main__":
    main()
