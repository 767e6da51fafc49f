"""Dataset I/O, synthetic data, evaluation, and experiment protocols.

Accuracy matches predicted clusters to true classes by the optimal
one-to-one assignment over the contingency table, so it is invariant to
any relabeling on either side. Experiments run every method over
``repetitions`` seeds derived from one master seed and report mean and
standard deviation per method; perturbation schedules repeat that per
corruption rate.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .clusterers import ClustererConfig, Dataset, Partition, preprocess, run_algorithm
from .consensus import PipelineConfig, run_ces
from .errors import LengthMismatch, ParseError

_MISSING_TOKENS = {"", "na", "nan", "null", "none", "?"}
_SINGLE_CLUSTERER_IDS = {"kmeans": "K", "spectral": "SPS"}


def load_csv(path: str | Path, label_column: str | None = None) -> Dataset:
    """Read a headered CSV of numeric features into a z-scored dataset.

    Empty cells (and NA/NaN/null markers) become missing values, imputed
    during preprocessing. ``label_column`` names an optional class column;
    its values may be arbitrary strings and are encoded by first
    appearance. Any other non-numeric or infinite cell raises
    :class:`ParseError` naming the offending row and column, as does a
    file with fewer than two data rows or no feature column, or one that
    is not UTF-8 text or has a cell longer than the csv module's field
    limit. A leading byte-order mark is dropped.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    if len(rows) < 3:
        raise ParseError(f"{path}: need a header row and at least two data rows")
    header = [h.strip() for h in rows[0]]
    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise ParseError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
    feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
    if not feature_names:
        raise ParseError(f"{path}: no feature column")

    raw: list[list[float]] = []
    label_codes: dict[str, int] = {}
    labels: list[int] = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        values = []
        for c, cell in enumerate(row):
            if c == label_idx:
                key = cell.strip()
                labels.append(label_codes.setdefault(key, len(label_codes)))
                continue
            text = cell.strip()
            if text.lower() in _MISSING_TOKENS:
                values.append(float("nan"))
                continue
            try:
                value = float(text)
            except ValueError:
                raise ParseError(
                    f"{path}: row {r}, column {header[c]!r}: not numeric: {cell!r}"
                ) from None
            if np.isinf(value):
                raise ParseError(f"{path}: row {r}, column {header[c]!r}: not finite: {cell!r}")
            values.append(value)
        raw.append(values)

    return preprocess(
        np.array(raw, dtype=float),
        labels=np.array(labels, dtype=int) if label_idx is not None else None,
        feature_names=feature_names,
    )


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset.raw`` as a UTF-8 CSV that :func:`load_csv` reads back bit for bit.

    Missing cells are written empty, each value as its shortest round-trip
    repr, and a labelled dataset gets a last ``label`` column of its class
    codes.
    """
    names = list(dataset.feature_names) or [f"f{i}" for i in range(dataset.d)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + (["label"] if dataset.labels is not None else []))
        for i, values in enumerate(dataset.raw):
            row = ["" if np.isnan(v) else repr(float(v)) for v in values]
            if dataset.labels is not None:
                row.append(int(dataset.labels[i]))
            writer.writerow(row)


def gen_half_ring(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-ring clouds, n/2 points each, labelled 0/1.

    A small upper half-ring sits inside a larger, horizontally shifted
    one, so no straight cut separates the classes but a clear gap does.
    ``noise`` is the standard deviation of Gaussian jitter around the
    arcs; zero puts the points exactly on them. A negative or non-finite
    ``noise`` raises ``ValueError``.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError("sample count must be even and >= 4")
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    half = n // 2
    theta = np.linspace(0.0, np.pi, half)
    inner = np.column_stack([np.cos(theta), np.sin(theta)])
    outer = np.column_stack([0.5 + 2.0 * np.cos(theta), 2.0 * np.sin(theta)])
    points = np.vstack([inner, outer])
    rng = np.random.default_rng(seed)
    points = points + rng.normal(0.0, noise, size=points.shape) if noise > 0 else points
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    return preprocess(points, labels=labels, feature_names=("x", "y"))


def gen_blobs(n_per_blob: int, centers, spread: float, seed: int) -> Dataset:
    """Isotropic Gaussian blobs around the given centers; handy for tests."""
    centers = np.asarray(centers, dtype=float)
    rng = np.random.default_rng(seed)
    points = np.vstack(
        [c + rng.normal(0.0, spread, size=(n_per_blob, centers.shape[1])) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per_blob)
    names = tuple(f"f{i}" for i in range(centers.shape[1]))
    return preprocess(points, labels=labels, feature_names=names)


def accuracy(pred: Partition, truth) -> float:
    """Percent of samples explained by the best cluster-to-class matching.

    Builds the contingency table, solves the assignment problem for the
    one-to-one matching that maximizes agreement (extra clusters or
    classes simply stay unmatched), and returns matched samples over n
    as a percentage.
    """
    # Imported on first use: scipy.optimize takes ~0.5 s to load, which
    # commands and runs that score no accuracy need not pay.
    from scipy.optimize import linear_sum_assignment

    truth = np.asarray(truth, dtype=int)
    if len(pred) != truth.size:
        raise LengthMismatch(f"{len(pred)} predictions vs {truth.size} labels")
    classes, truth_codes = np.unique(truth, return_inverse=True)
    table = np.zeros((pred.k, classes.size), dtype=int)
    np.add.at(table, (pred.assignments, truth_codes), 1)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return 100.0 * table[rows, cols].sum() / truth.size


def _pick_cells(n: int, d: int, rate: float, seed: int) -> np.ndarray:
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"perturbation rate {rate} outside [0, 1)")
    count = int(round(rate * n * d))
    rng = np.random.default_rng(seed)
    return rng.choice(n * d, size=count, replace=False)


def inject_missing(data: Dataset, rate: float, seed: int) -> Dataset:
    """Mark a random ``rate`` fraction of raw cells missing and re-preprocess."""
    cells = _pick_cells(data.n, data.d, rate, seed)
    if cells.size == 0:
        return data
    raw = data.raw.copy()
    raw.reshape(-1)[cells] = np.nan
    return preprocess(raw, labels=data.labels, feature_names=data.feature_names)


def inject_noise(data: Dataset, rate: float, seed: int) -> Dataset:
    """Replace a random ``rate`` fraction of cells with standard-normal draws.

    Replacement happens on the z-scored matrix (so the noise is on the
    feature scale the clusterers see), then columns are re-standardized.
    """
    cells = _pick_cells(data.n, data.d, rate, seed)
    if cells.size == 0:
        return data
    rng = np.random.default_rng(seed)
    perturbed = data.samples.copy()
    perturbed.reshape(-1)[cells] = rng.standard_normal(cells.size)
    return preprocess(perturbed, labels=data.labels, feature_names=data.feature_names)


@dataclass(frozen=True)
class AccuracyResult:
    """Mean/std accuracy over repeated runs, percentages in [0, 100]."""

    mean: float
    std: float
    per_run: tuple[float, ...]

    @classmethod
    def from_runs(cls, values) -> "AccuracyResult":
        arr = np.asarray(list(values), dtype=float)
        return cls(float(arr.mean()), float(arr.std()), tuple(float(v) for v in arr))

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std, "per_run": list(self.per_run)}


@dataclass(frozen=True)
class ExperimentSpec:
    """A full evaluation protocol: data, pipeline, methods, perturbations."""

    dataset: Dataset
    dataset_name: str
    pipeline: PipelineConfig
    repetitions: int = 10
    methods: tuple[str, ...] = ("kmeans", "eac", "weac")
    perturb_mode: str = "none"        # none | missing | noise
    perturb_rates: tuple[float, ...] = ()

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.perturb_mode not in ("none", "missing", "noise"):
            raise ValueError(f"unknown perturbation mode {self.perturb_mode!r}")
        unknown = set(self.methods) - {"kmeans", "spectral", "eac", "weac"}
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")


def _rep_seed(master: int, tag: int, rep: int) -> int:
    state = np.random.SeedSequence([master, tag, rep]).generate_state(1, np.uint64)[0]
    return int(state) % (2**63 - 1)


def run_method(method: str, data: Dataset, pipeline: PipelineConfig, seed: int) -> Partition:
    """One run of a named method with an explicit seed."""
    if method in _SINGLE_CLUSTERER_IDS:
        cfg = ClustererConfig(_SINGLE_CLUSTERER_IDS[method], k=pipeline.k_final, seed=seed)
        return run_algorithm(data, cfg)[0]
    if method == "eac":
        cfg = replace(pipeline, consensus="eac", d_threshold=0.0, seed=seed)
        return run_ces(data, cfg)[0]
    if method == "weac":
        return run_ces(data, replace(pipeline, seed=seed))[0]
    raise ValueError(f"unknown method {method!r}")


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute the protocol and return its report.

    The report maps each perturbation rate (0.0 when mode is ``none``) to
    per-method accuracy results, one row per (rate, method).
    """
    if spec.dataset.labels is None:
        raise ValueError("experiments need a labelled dataset")
    rates = spec.perturb_rates if spec.perturb_mode != "none" else (0.0,)
    rows = []
    for rate_idx, rate in enumerate(rates):
        if spec.perturb_mode == "missing" and rate > 0:
            data = inject_missing(spec.dataset, rate, _rep_seed(spec.pipeline.seed, 91, rate_idx))
        elif spec.perturb_mode == "noise" and rate > 0:
            data = inject_noise(spec.dataset, rate, _rep_seed(spec.pipeline.seed, 92, rate_idx))
        else:
            data = spec.dataset
        data = data.with_memo()  # shared by every method and repetition
        for method_idx, method in enumerate(spec.methods):
            scores = [
                accuracy(
                    run_method(method, data, spec.pipeline,
                               _rep_seed(spec.pipeline.seed, method_idx, rep)),
                    data.labels,
                )
                for rep in range(spec.repetitions)
            ]
            rows.append({"rate": rate, "method": method,
                         "result": AccuracyResult.from_runs(scores)})

    return {
        "dataset": spec.dataset_name,
        "n": spec.dataset.n,
        "d": spec.dataset.d,
        "repetitions": spec.repetitions,
        "perturb_mode": spec.perturb_mode,
        "pipeline": spec.pipeline.to_dict(),
        "rows": [
            {"rate": r["rate"], "method": r["method"], **r["result"].to_dict()}
            for r in rows
        ],
    }


def sweep_dt(
    data: Dataset,
    pipeline: PipelineConfig,
    thresholds,
    repetitions: int = 3,
) -> list[dict]:
    """Run the pipeline across diversity thresholds with shared seeds.

    Shared per-repetition seeds mean every threshold sees the same
    candidate stream, isolating the gate's effect. Each row reports mean
    accuracy (when labels exist), mean wall time, and the mean number of
    attempts needed per admitted committee member.

    Each threshold's repetitions share one memo of seed-free work, and no
    threshold reuses another's, so every row's wall time includes the
    linkage trees and SPS embeddings its own runs needed and the rows
    compare as separate sweeps would.
    """
    rows = []
    for dt in thresholds:
        shared = replace(data, _memo={})
        accs, walls, ratios = [], [], []
        for rep in range(repetitions):
            cfg = replace(pipeline, d_threshold=float(dt),
                          seed=_rep_seed(pipeline.seed, 77, rep))
            part, report = run_ces(shared, cfg)
            walls.append(report.wall_time_ms)
            ratios.append(report.attempts / report.n_ce)
            if data.labels is not None:
                accs.append(accuracy(part, data.labels))
        rows.append(
            {
                "d_threshold": float(dt),
                "accuracy_mean": float(np.mean(accs)) if accs else None,
                "wall_time_ms_mean": float(np.mean(walls)),
                "attempts_per_admission": float(np.mean(ratios)),
            }
        )
    return rows
