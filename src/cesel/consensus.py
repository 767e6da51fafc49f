"""Committee management, co-association evidence, and the full pipeline.

Candidates come from the base clusterers, pass the diversity gate, and
accumulate into a committee. Each admitted entry gets an independency
weight; the weighted co-association matrix is merged by average linkage
and cut at the requested cluster count. The pipeline fuses one
representative per distinct label signature instead of every sample
(see :func:`fuse`). The whole pipeline is a pure
function of (dataset, config): a fixed master seed reproduces every
candidate, every admission decision, and the final partition.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import assets
from ._agglo import cut_merges, linkage_merge
from .clusterers import (
    ALGORITHM_IDS,
    BasicParams,
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
from .independency import Aidm, ai_weights, load_aidm_csv, reference_aidm


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


def _checked_weights(committee: list[CommitteeEntry], weights) -> np.ndarray:
    """``weights`` as floats, one finite non-negative weight per entry of a non-empty committee."""
    if not committee:
        raise EmptyCommittee("weighted accumulation needs at least one entry")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(committee),):
        raise WeightMismatch(
            f"{len(weights)} weights for {len(committee)} committee entries"
        )
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0.0)))
    if bad.size:
        raise WeightMismatch(f"weight {weights[bad[0]]} of entry {bad[0]} is not finite and non-negative")
    return weights


def _labels(committee: list[CommitteeEntry]) -> np.ndarray:
    """The committee's assignments as an n x m matrix, one column per entry."""
    return np.stack([entry.partition.assignments for entry in committee], axis=1)


def _signatures(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of ``labels`` (one sample per row) by equal content.

    Returns ``(first, inverse)``: the index of each distinct row's first
    sample, and each sample's slot in ``first``. Slots follow first
    occurrence, so ``first`` is increasing and a slot's number orders it
    by its smallest sample index. A matrix with no columns has one
    signature.
    """
    n = labels.shape[0]
    # A stable sort puts equal rows next to each other in sample order, so
    # each run of equal rows starts at its first sample.
    order = np.lexsort(labels.T) if labels.shape[1] else np.arange(n)
    ranked = labels[order]
    starts = np.ones(n, dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    run = np.cumsum(starts) - 1
    first = order[starts]
    by_first = np.argsort(first)
    slot = np.empty_like(by_first)
    slot[by_first] = np.arange(len(first))
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = slot[run]
    return first[by_first], inverse


def weac(committee: list[CommitteeEntry], weights: np.ndarray) -> np.ndarray:
    """Weighted evidence accumulation over committee entries.

    Each co-clustering vote counts its entry's weight; the denominator
    stays the committee size, so unit weights reduce exactly to
    :func:`eac`. The diagonal is pinned to 1. Returns the dense n x n
    matrix; the pipeline keeps n small by passing one representative per
    label signature (see :func:`fuse`).
    """
    weights = _checked_weights(committee, weights)
    labels = _labels(committee)
    n = labels.shape[0]
    acc = np.zeros((n, n))
    for a, w in zip(labels.T, weights):
        acc += w * (a[:, None] == a[None, :])
    c = acc / len(committee)
    np.fill_diagonal(c, 1.0)
    return c


def average_linkage(co_association: np.ndarray, sizes: np.ndarray | None = None) -> np.ndarray:
    """Linkage matrix of the co-association evidence under average linkage.

    Dissimilarity is 1 - association, so pairs that always co-cluster
    merge at height 0 and pairs that never do merge at height 1. With
    ``sizes``, row i stands for ``sizes[i]`` samples that share its row
    (see :func:`linkage_merge`); the tree's leaves are still the rows,
    but its size column counts samples, not leaves.
    """
    dissimilarity = 1.0 - np.asarray(co_association, dtype=float)
    return linkage_merge(dissimilarity, "average", sizes)


def cut(tree: np.ndarray, k: int) -> Partition:
    """Undo the last k-1 merges, leaving exactly k non-empty clusters."""
    return Partition(cut_merges(tree, k), k)


def fuse(committee: list[CommitteeEntry], weights: np.ndarray, k: int) -> Partition:
    """The consensus partition of a weighted committee, over its signatures.

    Samples labelled alike by every entry of positive weight have equal
    co-association rows, so one representative per such signature
    carries the evidence: :func:`weac` runs on the u representatives,
    :func:`average_linkage` merges them with their sample counts as
    starting sizes, and the cut at ``k`` is mapped back to every sample.
    The result is labelled in order of each cluster's smallest sample
    index, as :func:`cut` labels the dense tree.

    When u < k the representatives cannot make k clusters, so every
    sample becomes its own representative (unit sizes), and the same calls
    give the dense ``cut(average_linkage(weac(committee, weights)), k)``;
    that includes all-zero weights (u = 1).

    The fused and dense merges agree in exact arithmetic. In floating point
    the dense merge's average update drifts by ulps on equal rows, while
    the fused merge starts from one undrifted row per signature; where
    merges tie exactly, the two can therefore take another merge order and
    cut another partition.
    """
    weights = _checked_weights(committee, weights)
    first, inverse = _signatures(_labels(committee)[:, weights > 0])
    if len(first) < k:
        first = inverse = np.arange(len(inverse))
    representatives = [
        replace(e, partition=Partition(e.partition.assignments[first], e.partition.k))
        for e in committee
    ]
    tree = average_linkage(weac(representatives, weights), np.bincount(inverse))
    return Partition(cut(tree, k).assignments[inverse], k)


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
        repeated = {a for a in self.roster if self.roster.count(a) > 1}
        if repeated:
            raise ValueError(f"repeated algorithm IDs: {sorted(repeated)}")
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

    A CSV path that holds no valid independency matrix raises
    :class:`DataFileError`; one the OS cannot open or read raises its
    ``OSError``.
    """
    if cfg.aidm_source == "reference":
        return reference_aidm()
    if cfg.aidm_source == "computed":
        return assets.computed_aidm()
    return load_aidm_csv(cfg.aidm_source)


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
    (:class:`InvalidK`) and, for ``weac``, an AIDM file that the OS
    cannot read (its ``OSError``), that is invalid or that lacks a roster
    algorithm (:class:`DataFileError`) fail before any candidate runs. A
    candidate whose spectrum degenerates is recorded in the trace with its
    error and not admitted.

    Every attempt calls its clusterer on ``data.with_memo()``, which keeps
    the clusterers' seed-free work: ``data`` itself when it already keeps
    it, so callers that run several pipelines on one dataset from
    :meth:`Dataset.with_memo` share that work, and otherwise one copy made
    for this call, which leaves ``data`` as it is.
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
    run_data = data.with_memo()
    committee: list[CommitteeEntry] = []
    trace: list[dict] = []
    for run_index in range(cfg.max_attempts):
        if len(committee) >= cfg.committee_target:
            break
        run_cfg = _candidate_config(cfg, data.n, run_index)
        attempt = {"run_index": run_index, "algorithm": run_cfg.algorithm_id}
        trace.append(attempt)
        try:
            partition, params = run_algorithm(run_data, run_cfg)
        except DegenerateSpectrum as exc:
            attempt.update(diversity=None, admitted=False,
                           error=type(exc).__name__, message=str(exc))
            continue
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
            f"only {len(committee)} admission(s) after {len(trace)} attempts"
        )

    if cfg.consensus == "weac":
        weights = ai_weights(committee, aidm)
    else:
        weights = np.ones(len(committee))  # unit weights: exactly eac
    final = fuse(committee, weights, cfg.k_final)

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
        attempts=len(trace),
        per_entry=per_entry,
        trace=tuple(trace),
        config=cfg.to_dict(),
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return final, report
