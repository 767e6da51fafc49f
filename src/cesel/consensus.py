"""Committee management, co-association evidence, and the full pipeline.

Candidates come from the base clusterers, pass the diversity gate, and
accumulate into a committee. Each admitted entry gets an independency
weight; the weighted co-association matrix is merged by average linkage
and cut at the requested cluster count. The whole pipeline is a pure
function of (dataset, config): a fixed master seed reproduces every
candidate, every admission decision, and the final partition.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import assets
from ._agglo import cut_merges, linkage_merge
from .clusterers import (
    ALGORITHM_IDS,
    LINKAGE_IDS,
    ClustererConfig,
    Dataset,
    Partition,
    run_algorithm,
)
from .diversity import admit
from .errors import (
    CommitteeTooSmall,
    DataFileError,
    DegenerateSpectrum,
    EmptyCommittee,
    InvalidK,
    WeightMismatch,
)
from .independency import Aidm, BasicParams, ai_weights, load_aidm_csv, reference_aidm


@dataclass(frozen=True)
class CommitteeEntry:
    """One admitted base clustering and everything needed to weight it."""

    partition: Partition
    algorithm_id: str
    basic_params: BasicParams
    diversity_at_admission: float
    run_index: int


def eac(partitions: list[Partition]) -> np.ndarray:
    """Evidence accumulation: fraction of partitions co-clustering each pair.

    Returns the n x n co-association matrix; the diagonal is exactly 1
    because every sample co-clusters with itself in every partition. The
    pipeline gets the same matrix from :func:`weac` with unit weights;
    this function is the unweighted reference.
    """
    if not partitions:
        raise EmptyCommittee("evidence accumulation needs at least one partition")
    n = len(partitions[0])
    acc = np.zeros((n, n))
    for p in partitions:
        if len(p) != n:
            raise ValueError("partitions cover different sample counts")
        a = p.assignments
        acc += a[:, None] == a[None, :]
    return acc / len(partitions)


def weac(committee: list[CommitteeEntry], weights: np.ndarray) -> np.ndarray:
    """Weighted evidence accumulation over committee entries.

    Each co-clustering vote counts its entry's weight; the denominator
    stays the committee size, so unit weights reduce exactly to
    :func:`eac`. The diagonal is pinned to 1.

    Samples with the same labels in every entry (the same signature) have
    the same row, so the votes are added on the u x u matrix of the u
    distinct signatures and then expanded to n x n. Every entry gets the
    same additions, in the same order, as on the n x n matrix, so the
    result is the dense accumulation bit for bit.
    """
    if not committee:
        raise EmptyCommittee("weighted accumulation needs at least one entry")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(committee),):
        raise WeightMismatch(
            f"{len(weights)} weights for {len(committee)} committee entries"
        )
    labels = np.stack([entry.partition.assignments for entry in committee], axis=1)
    signatures, inverse = np.unique(labels, axis=0, return_inverse=True)
    acc = np.zeros((len(signatures), len(signatures)))
    for a, w in zip(signatures.T, weights):
        acc += w * (a[:, None] == a[None, :])
    inverse = inverse.ravel()
    c = (acc / len(committee)).take(inverse, axis=0).take(inverse, axis=1)
    np.fill_diagonal(c, 1.0)
    return c


@dataclass(frozen=True)
class Dendrogram:
    """Full merge tree over n samples: (left, right, height, size) per merge."""

    n: int
    merges: tuple[tuple[int, int, float, int], ...]

    def __post_init__(self):
        if len(self.merges) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} merges, got {len(self.merges)}")


def average_linkage(co_association: np.ndarray) -> Dendrogram:
    """Merge tree of the co-association evidence under average linkage.

    Dissimilarity is 1 - association, so pairs that always co-cluster
    merge at height 0 and pairs that never do merge at height 1.
    """
    c = np.asarray(co_association, dtype=float)
    dissimilarity = 1.0 - c
    np.fill_diagonal(dissimilarity, 0.0)
    return Dendrogram(c.shape[0], tuple(linkage_merge(dissimilarity, "average")))


def cut(dendrogram: Dendrogram, k: int) -> Partition:
    """Undo the last k-1 merges, leaving exactly k non-empty clusters."""
    if not 1 <= k <= dendrogram.n:
        raise InvalidK(f"cannot cut {dendrogram.n} samples into {k} clusters")
    labels = cut_merges(list(dendrogram.merges), dendrogram.n, k)
    return Partition(labels, k)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines a pipeline run besides the data."""

    k_final: int                      # clusters in the final result
    d_threshold: float = 0.1          # diversity gate
    committee_target: int = 10        # stop admitting once reached
    max_attempts: int = 50            # hard bound on candidate generation
    seed: int = 0                     # master seed; runs derive their own
    aidm_source: str = "reference"    # "reference" | "computed" | CSV path
    consensus: str = "weac"           # "weac" | "eac"
    roster: tuple[str, ...] = ALGORITHM_IDS
    vary_k: bool = False              # sample candidate k from [2, 2*k_final]

    def __post_init__(self):
        unknown = set(self.roster) - set(ALGORITHM_IDS)
        if unknown:
            raise ValueError(f"unknown algorithm IDs: {sorted(unknown)}")
        if self.k_final < 2:
            raise ValueError("final cluster count must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 0.0 <= self.d_threshold <= 1.0:
            raise ValueError("diversity threshold must be in [0, 1]")
        if self.committee_target < 2:
            raise ValueError("committee target must be >= 2")
        if self.max_attempts < self.committee_target:
            raise ValueError("max_attempts must be >= committee target")
        if self.consensus not in ("weac", "eac"):
            raise ValueError(f"unknown consensus mode {self.consensus!r}")
        if not self.roster:
            raise ValueError("roster must not be empty")

    def to_dict(self) -> dict:
        return {**asdict(self), "roster": list(self.roster)}


@dataclass(frozen=True)
class RunReport:
    """Machine-readable account of one pipeline run."""

    final_assignments: tuple[int, ...]
    n_ce: int
    attempts: int
    per_entry: tuple[dict, ...]    # {algorithm, weight, diversity, run_index}
    trace: tuple[dict, ...]        # every attempt: {run_index, algorithm, diversity, admitted},
                                   # plus {error, message} when the candidate failed
    config: dict
    wall_time_ms: float

    def to_dict(self) -> dict:
        return {
            "final_assignments": list(self.final_assignments),
            "nCE": self.n_ce,
            "attempts": self.attempts,
            "per_entry": [dict(e) for e in self.per_entry],
            "trace": [dict(t) for t in self.trace],
            "config": dict(self.config),
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def resolve_aidm(cfg: PipelineConfig) -> Aidm:
    """Locate the independency matrix named by ``cfg.aidm_source``.

    Raises :class:`DataFileError` when a CSV path cannot be opened or read,
    or holds no valid independency matrix.
    """
    if cfg.aidm_source == "reference":
        return reference_aidm()
    if cfg.aidm_source == "computed":
        return assets.computed_aidm()
    try:
        return load_aidm_csv(cfg.aidm_source)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise DataFileError(f"cannot read AIDM file {cfg.aidm_source!r}: {reason}") from exc
    except ValueError as exc:
        raise DataFileError(f"invalid AIDM file {cfg.aidm_source!r}: {exc}") from exc


def _candidate_config(cfg: PipelineConfig, data_n: int, run_index: int) -> ClustererConfig:
    """Derive one candidate's algorithm, k, and seed from the master seed."""
    rng = np.random.default_rng([cfg.seed, run_index])
    algorithm = cfg.roster[int(rng.integers(len(cfg.roster)))]
    if cfg.vary_k:
        k = int(rng.integers(2, 2 * cfg.k_final + 1))
        k = min(k, data_n)
    else:
        k = cfg.k_final
    seed = int(rng.integers(2**63 - 1))
    return ClustererConfig(algorithm_id=algorithm, k=k, seed=seed)


def run_ces(data: Dataset, cfg: PipelineConfig) -> tuple[Partition, RunReport]:
    """Generate, gate, weight, and fuse base clusterings into one result.

    Candidates are drawn uniformly from the roster with seeds derived
    from (master seed, run index), admitted strictly in run-index order
    by the diversity gate, and capped by ``max_attempts`` so the loop
    always terminates. Raises :class:`CommitteeTooSmall` when fewer than
    two candidates get admitted. A final k above the sample count
    (:class:`InvalidK`) and, for ``weac``, an unreadable AIDM or one that
    lacks a roster algorithm (:class:`DataFileError`) fail before any
    candidate runs. A candidate whose spectrum degenerates is recorded in
    the trace with its error and not admitted.

    Linkage runs ignore the seed, so each (algorithm, k) is clustered
    once per call and its result reused by later candidates.
    """
    t0 = time.perf_counter()
    if cfg.k_final > data.n:
        raise InvalidK(f"cannot cut {data.n} samples into {cfg.k_final} clusters")
    aidm = resolve_aidm(cfg) if cfg.consensus == "weac" else None
    if aidm is not None:
        missing = [a for a in cfg.roster if a not in aidm.algorithm_ids]
        if missing:
            raise DataFileError(
                f"AIDM {cfg.aidm_source!r} lacks roster algorithm(s) {', '.join(missing)}"
            )
    committee: list[CommitteeEntry] = []
    trace: list[dict] = []
    linkage_runs: dict[tuple[str, int], tuple[Partition, BasicParams]] = {}
    attempts = 0
    for run_index in range(cfg.max_attempts):
        if len(committee) >= cfg.committee_target:
            break
        attempts += 1
        run_cfg = _candidate_config(cfg, data.n, run_index)
        attempt = {"run_index": run_index, "algorithm": run_cfg.algorithm_id}
        trace.append(attempt)
        key = (run_cfg.algorithm_id, run_cfg.k)
        try:
            partition, params = linkage_runs.get(key) or run_algorithm(data, run_cfg)
        except DegenerateSpectrum as exc:
            attempt.update(diversity=None, admitted=False,
                           error=type(exc).__name__, message=str(exc))
            continue
        if run_cfg.algorithm_id in LINKAGE_IDS:
            linkage_runs[key] = partition, params
        report = admit(partition, [e.partition for e in committee], cfg.d_threshold)
        attempt.update(diversity=report.div, admitted=report.admitted)
        if report.admitted:
            committee.append(
                CommitteeEntry(
                    partition=partition,
                    algorithm_id=run_cfg.algorithm_id,
                    basic_params=params,
                    diversity_at_admission=report.div,
                    run_index=run_index,
                )
            )

    if len(committee) < 2:
        raise CommitteeTooSmall(
            f"only {len(committee)} admission(s) after {attempts} attempts"
        )

    if cfg.consensus == "weac":
        weights = ai_weights(committee, aidm)
    else:
        weights = np.ones(len(committee))  # unit weights: exactly eac
    final = cut(average_linkage(weac(committee, weights)), cfg.k_final)

    per_entry = tuple(
        {
            "algorithm": e.algorithm_id,
            "weight": float(w),
            "diversity": e.diversity_at_admission,
            "run_index": e.run_index,
        }
        for e, w in zip(committee, weights)
    )
    report = RunReport(
        final_assignments=tuple(int(v) for v in final.assignments),
        n_ce=len(committee),
        attempts=attempts,
        per_entry=per_entry,
        trace=tuple(trace),
        config=cfg.to_dict(),
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return final, report
