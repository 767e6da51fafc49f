"""cesel benchmark: time ``cesel.consensus.run_ces`` on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ring-gated --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced batch. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any heavy import

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

# One BLAS thread (<= nproc): steadier timings on a shared machine, and the
# pipeline's hot paths are elementwise NumPy, not BLAS. Must precede numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Benchmark the package in this checkout's src/, never an installed copy.
if not (SRC / "cesel" / "__init__.py").is_file():
    sys.exit(f"perfbench: no cesel sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if it bundles one)

import cesel
import cesel.consensus
import spans
import workloads
from cesel.clusterers import ClustererConfig, Dataset, run_algorithm
from cesel.errors import CeselError
from cesel.harness import accuracy

if Path(cesel.__file__).resolve().parent != (SRC / "cesel").resolve():
    sys.exit(f"perfbench: imported cesel from {cesel.__file__}, not from {SRC}")

SETUP_REPEATS = 3        # set-ups per measured run; setup_s is their median
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_pct": "%",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="shrink data (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# --- set-up -------------------------------------------------------------------

def set_up(args):
    """Build the workload and warm every code path a timed run will take.

    Each roster algorithm runs once, and one short pipeline runs once, on an
    evenly spaced subsample, so lazy initialisation (LAPACK, first-call
    imports) finishes here and not in the timed batch.
    """
    workload = workloads.build(args.workload, args.seed, toy=args.toy)
    data = workload.data_for(0)
    step = max(1, data.n // 48)
    sub = Dataset(samples=data.samples[::step], raw=data.raw[::step],
                  labels=data.labels[::step])
    for algorithm in workload.pipeline.roster:
        run_algorithm(sub, ClustererConfig(algorithm, k=workload.pipeline.k_final, seed=0))
    try:
        cesel.consensus.run_ces(sub, replace(workload.pipeline, seed=0))
    except CeselError:
        pass  # the subsample may not fill a committee; the warm-up still ran
    return workload


def measure_setup(args, own_setup_s: float) -> float:
    """Median set-up time over this process and fresh child processes."""
    samples = [own_setup_s]
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    if args.toy:
        command.append("--toy")
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True, cwd=ROOT)
        samples.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return statistics.median(samples)


# --- pipeline runs --------------------------------------------------------------

@dataclass
class Record:
    """Outcome of run ``index`` of a batch: a result, or the CeselError raised."""

    index: int
    seed: int
    wall_s: float
    partition: object = None
    report: object = None
    error: Exception | None = None

    def outcome(self) -> str:
        """Everything deterministic about the run, for bit-exact comparison."""
        if self.error is not None:
            return f"{type(self.error).__name__}: {self.error}"
        doc = self.report.to_dict()
        doc.pop("wall_time_ms")
        return json.dumps(doc, sort_keys=True)


def run_one(workload, index: int) -> Record:
    """One pipeline run; any exception but CeselError propagates."""
    seed = workload.run_seed(index)
    cfg = replace(workload.pipeline, seed=seed)
    start = time.perf_counter()
    try:
        partition, report = cesel.consensus.run_ces(workload.data_for(index), cfg)
    except CeselError as err:
        return Record(index, seed, time.perf_counter() - start, error=err)
    return Record(index, seed, time.perf_counter() - start, partition, report)


def timed_batch(workload, seconds: float, min_runs: int) -> tuple[list[Record], float]:
    """Runs back to back until ``seconds`` have passed and ``min_runs`` ran."""
    records = []
    start = time.perf_counter()
    while len(records) < min_runs or time.perf_counter() - start < seconds:
        records.append(run_one(workload, len(records)))
    return records, time.perf_counter() - start


def check_outputs(workload, records) -> list[str]:
    """Problems with the batch's outputs; empty when every output is valid."""
    problems = []
    k = workload.pipeline.k_final
    for r in records:
        if r.error is not None:
            continue
        n = workload.data_for(r.index).n
        a = r.partition.assignments
        if a.shape != (n,):
            problems.append(f"run {r.index}: {a.size} assignments for {n} samples")
        elif r.partition.k != k or np.count_nonzero(np.bincount(a, minlength=k)) != k:
            problems.append(f"run {r.index}: final partition is not {k} non-empty clusters")
        elif tuple(int(v) for v in a) != r.report.final_assignments:
            problems.append(f"run {r.index}: report disagrees with the returned partition")
    return problems


def check_rerun(workload, record: Record) -> list[str]:
    """Rerun one seed outside the timed batch; the report must be bit-identical."""
    if run_one(workload, record.index).outcome() != record.outcome():
        return [f"run {record.index}: rerun gave a different report"]
    return []


def untraced_measurement(args, workload, own_setup_s: float):
    setup_s = measure_setup(args, own_setup_s)
    records, wall = timed_batch(workload, args.seconds, workload.accuracy_runs)
    done = [r for r in records if r.error is None]
    scored = [r for r in records[: workload.accuracy_runs] if r.error is None]
    values = {
        "runs_per_s": len(done) / wall,
        "run_ms_p50": statistics.median(r.wall_s for r in done) * 1000.0 if done else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_pct": statistics.fmean(
            accuracy(r.partition, workload.data_for(r.index).labels) for r in scored
        ) if scored else 0.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return records, metrics, []


def traced_measurement(args, workload, env):
    """Each run untraced, then again traced, until ``--seconds`` pass.

    Alternating the two keeps slow drift of the machine out of the
    overhead estimate; the traced twin must reproduce the untraced report.
    """
    tracer = spans.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(run_one(workload, len(plain)))
        tracer.install()
        try:
            traced.append(run_one(workload, len(traced)))
        finally:
            tracer.uninstall()
    metrics = tracer.metrics(sum(r.wall_s for r in plain), sum(r.wall_s for r in traced))
    problems = [f"run {a.index}: traced run differs from untraced run"
                for a, b in zip(plain, traced) if a.outcome() != b.outcome()]

    print(f"{'span':<28} {'calls':>7} {'busy_s':>10} {'self_s':>10}")
    for name, calls, busy, own in tracer.layer_table():
        print(f"{name:<28} {calls:>7d} {busy:>10.4f} {own:>10.4f}")
    for target in tracer.absent:
        print(f"absent {target}")
    out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(out, {"env": env, "seeds": [r.seed for r in traced]})
    print(f"spans written to {out.relative_to(ROOT)}")
    return plain + traced, metrics, problems


# --- environment stamp ------------------------------------------------------------

def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "toy": args.toy,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS; the env setting otherwise."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(lib).name] = getter()
                break
    return found or {"env": BLAS_THREADS}


# --- main ---------------------------------------------------------------------

def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        label = " (absent)" if m.get("absent") else ""
        print(f"metric {name} {m['value']:.6g} {m['unit']}{label}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = set_up(args)
    own_setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        records, metrics, problems = traced_measurement(args, workload, env)
    else:
        records, metrics, problems = untraced_measurement(args, workload, own_setup_s)

    failed = sum(r.error is not None for r in records)
    problems += check_outputs(workload, records)
    problems += check_rerun(workload, records[0])
    if failed == len(records):
        problems.append("no pipeline run succeeded")
    for problem in problems:
        print(f"check FAILED {problem}")
    print(f"check {'ok' if not problems else 'FAILED'}: {len(records)} runs, "
          f"failed_frac {failed / len(records):.6g} frac")
    _print_metrics(metrics)
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
