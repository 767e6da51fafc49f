"""Pipeline outputs pinned to a stored file.

``data/golden_reports.json`` holds the final assignments, the committee's
run indices and the weights of a few small iris and half-ring runs. Speed
work must leave them bit-identical; a change that moves them on purpose
regenerates the file and explains the change. They must also hold at one
and at two BLAS threads.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``.
"""
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cesel
from cesel import assets
from cesel.clusterers import ALGORITHM_IDS
from cesel.consensus import PipelineConfig, run_ces
from cesel.harness import gen_half_ring, load_csv

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

IRIS_ROSTER = ("K", "F", "SPS", "ALE", "ALC", "CLE", "CLC", "WLE", "WLC", "SLE", "SLC")
IRIS = PipelineConfig(k_final=3, d_threshold=0.1, committee_target=10, max_attempts=60,
                      aidm_source="computed", roster=IRIS_ROSTER)
RING = PipelineConfig(k_final=2, d_threshold=0.35, committee_target=8, max_attempts=32,
                      roster=ALGORITHM_IDS)

# name -> (dataset name, pipeline config)
CASES = {
    "iris-computed-seed0": ("iris", replace(IRIS, seed=0)),
    "iris-computed-seed1": ("iris", replace(IRIS, seed=1)),
    "iris-reference-vary-k": ("iris", replace(IRIS, seed=2, aidm_source="reference",
                                              roster=ALGORITHM_IDS, vary_k=True)),
    "iris-eac": ("iris", replace(IRIS, seed=3, consensus="eac", d_threshold=0.0)),
    "ring60-data1-seed0": ("ring1", replace(RING, seed=0)),
    "ring60-data2-seed1": ("ring2", replace(RING, seed=1)),
    "ring60-data3-vary-k": ("ring3", replace(RING, seed=2, vary_k=True)),
}


def _dataset(name: str):
    if name == "iris":
        return load_csv(assets.iris_csv_path(), label_column="species")
    return gen_half_ring(60, 0.05, seed=int(name.removeprefix("ring")))


def _outputs(case: str) -> dict:
    data_name, cfg = CASES[case]
    _, report = run_ces(_dataset(data_name), cfg)
    return {
        "final_assignments": list(report.final_assignments),
        "run_indices": [e["run_index"] for e in report.per_entry],
        "weights": [e["weight"] for e in report.per_entry],
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case):
    golden = json.loads(GOLDEN.read_text())
    assert _outputs(case) == golden[case]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_outputs_match_golden_at_blas_thread_count(threads):
    # Dense eigh can round differently with another thread count (README,
    # "Determinism"); the golden runs must not move with it.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=str(Path(cesel.__file__).parents[1]))
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_golden import CASES, GOLDEN, _outputs\n"
        "golden = json.loads(GOLDEN.read_text())\n"
        "moved = [case for case in sorted(CASES) if _outputs(case) != golden[case]]\n"
        "print(moved)\n"
        "sys.exit(1 if moved else 0)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({c: _outputs(c) for c in sorted(CASES)}, indent=1) + "\n")
