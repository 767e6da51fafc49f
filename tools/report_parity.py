"""Hash, or compare, the RunReports of a fixed set of runs, to check what a change does to reports.

Each part hashes the JSON of its runs' RunReports (``wall_time_ms``
dropped, keys sorted) in run order, and the script prints one full
SHA-256 per part and one over all parts. Given another checkout, it runs
the same parts there and says per part how the reports differ: how many
differ at all, how many end in another final partition, how many admit
another set of candidates, and the largest change of an entry's weight.
Each checkout runs in its own process, which pins one BLAS thread, since
SPS weights can move by ulps with the thread count.

    python3 tools/report_parity.py               # this checkout's hashes
    python3 tools/report_parity.py path/to/other  # this checkout against another

The parts:

- ``iris-curated``, ``ring-gated``, ``blobs-consensus``: the first 80, 32
  and 8 runs of each benchmark workload, as ``perfbench`` builds them, at
  workload seeds 1 and 2;
- ``blobs-consensus-runs8-39``: runs 8-39 of blobs-consensus at both seeds;
- ``vary_k-ring400``: 12 ``vary_k`` full-roster runs on a half ring, n=400;
- ``vary_k-iris-full-roster``: 12 ``vary_k`` full-roster runs on iris,
  whose tied coordinates make the ``?LH`` IDs merge on scipy's ``linkage``
  rather than take the chain;
- ``SLH-only-ring200``: 4 runs with roster ``SLH`` on a half ring, n=200,
  where every copy weighs 0 and the consensus merges a constant matrix.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOAD_RUNS = {"iris-curated": 80, "ring-gated": 32, "blobs-consensus": 8}
WORKLOAD_SEEDS = (1, 2)


def reports(root: Path) -> dict[str, list[dict]]:
    """Every part's RunReports, as dicts without ``wall_time_ms``, from the checkout at ``root``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from cesel import assets
    from cesel.clusterers import ALGORITHM_IDS
    from cesel.consensus import PipelineConfig, run_ces
    from cesel.harness import gen_half_ring, load_csv

    def run_all(runs):
        found = []
        for data, cfg in runs:
            report = run_ces(data, cfg)[1].to_dict()
            report.pop("wall_time_ms")
            found.append(report)
        return found

    def workload_runs(name, indices):
        for seed in WORKLOAD_SEEDS:
            w = workloads.build(name, seed)
            for i in indices:
                yield w.data_for(i), replace(w.pipeline, seed=w.run_seed(i))

    def vary_k_runs(data, k_final, d_threshold):
        for seed in range(12):
            yield data, PipelineConfig(k_final=k_final, d_threshold=d_threshold, committee_target=8,
                                       max_attempts=32, seed=seed, roster=ALGORITHM_IDS, vary_k=True)

    found = {name: run_all(workload_runs(name, range(runs))) for name, runs in WORKLOAD_RUNS.items()}
    found["blobs-consensus-runs8-39"] = run_all(workload_runs("blobs-consensus", range(8, 40)))
    found["vary_k-ring400"] = run_all(vary_k_runs(gen_half_ring(400, 0.05, seed=4), 2, 0.35))
    iris = load_csv(assets.iris_csv_path(), label_column="species")
    found["vary_k-iris-full-roster"] = run_all(vary_k_runs(iris, 3, 0.1))
    ring = gen_half_ring(200, 0.05, seed=1)
    found["SLH-only-ring200"] = run_all(
        (ring, PipelineConfig(k_final=2, d_threshold=0.0, committee_target=4, max_attempts=8,
                              seed=seed, roster=("SLH",)))
        for seed in range(4))
    return found


def reports_of(root: Path) -> dict[str, list[dict]]:
    """:func:`reports` of ``root``, computed in a child process at one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--reports", str(root)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def digest(part: list[dict]) -> str:
    h = hashlib.sha256()
    for report in part:
        h.update(json.dumps(report, sort_keys=True).encode())
    return h.hexdigest()


def digest_of_parts(found: dict[str, list[dict]]) -> str:
    """SHA-256 over the parts' own hashes, in part order."""
    total = hashlib.sha256()
    for part in found.values():
        total.update(digest(part).encode())
    return total.hexdigest()


def differences(mine: list[dict], theirs: list[dict]) -> tuple[int, int, int, float]:
    """Reports that differ, that end in another partition, that admit otherwise; largest |Δweight|."""
    differ = partitions = admissions = 0
    largest = 0.0
    for a, b in zip(mine, theirs, strict=True):
        differ += a != b
        partitions += a["final_assignments"] != b["final_assignments"]
        admitted = [[(t["algorithm"], t["admitted"]) for t in r["trace"]] for r in (a, b)]
        admissions += admitted[0] != admitted[1]
        if len(a["per_entry"]) == len(b["per_entry"]):
            for x, y in zip(a["per_entry"], b["per_entry"]):
                largest = max(largest, abs(x["weight"] - y["weight"]))
    return differ, partitions, admissions, largest


def main() -> None:
    if sys.argv[1:2] == ["--reports"]:
        json.dump(reports(Path(sys.argv[2]).resolve()), sys.stdout)
        return
    mine = reports_of(HERE)
    if len(sys.argv) == 1:
        for name, part in mine.items():
            print(name, digest(part))
        print("sha256", digest_of_parts(mine))
        return
    theirs = reports_of(Path(sys.argv[1]).resolve())
    print(f"{'part':<26}{'reports':>8}{'differ':>8}{'partitions':>12}{'admissions':>12}  max|dweight|")
    for name, part in mine.items():
        differ, partitions, admissions, largest = differences(part, theirs[name])
        print(f"{name:<26}{len(part):>8}{differ:>8}{partitions:>12}{admissions:>12}  {largest:.3g}")
    print("sha256 this ", digest_of_parts(mine))
    print("sha256 other", digest_of_parts(theirs))


if __name__ == "__main__":
    main()
