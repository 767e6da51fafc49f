"""Outside-in layer trace: spans recorded by wrappers on module attributes.

The benchmark wraps the functions through which one layer of cesel calls
the next (for example ``cesel.consensus.run_algorithm``, the name the
pipeline uses to reach the clusterers). Each wrapper records a span:
name, start, end, the index of the enclosing span, and the run it belongs
to. Counters that need the call's arguments or result (admissions, pair
counts, label signatures) are taken at the same boundary. Nothing inside
the package is modified; ``uninstall`` puts every original back.

A wrap target missing from the package (renamed or removed by a later
change) is recorded as absent and its layer's metrics are reported as
``absent`` instead of failing the run.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import cesel.assets
import cesel.clusterers
import cesel.consensus
import cesel.independency

# Spelled out here, not imported, so a package refactor cannot silently
# change how the benchmark classifies candidates.
LINKAGE_IDS = frozenset(f"{link}L{dist}" for link in "SACW" for dist in "EHC")
_BUSY_BY_ALGORITHM = {"K": "clusterers.kmeans_busy_s", "F": "clusterers.fcm_busy_s",
                      "SPS": "clusterers.sps_busy_s"}

# (module, attribute, span name). Order matters only for readability.
TARGETS = (
    (cesel.consensus, "run_ces", "pipeline.run_ces"),
    (cesel.consensus, "run_algorithm", "clusterers.run_algorithm"),
    (cesel.clusterers, "linkage_merge", "clusterers.linkage_merge"),
    (cesel.consensus, "admit", "diversity.admit"),
    (cesel.consensus, "ai_weights", "independency.ai_weights"),
    (cesel.independency, "bpi", "independency.bpi"),
    (cesel.consensus, "resolve_aidm", "consensus.resolve_aidm"),
    (cesel.assets, "computed_aidm", "cail.computed_aidm"),
    (cesel.consensus, "weac", "consensus.coassoc"),
    (cesel.consensus, "eac", "consensus.coassoc"),
    (cesel.consensus, "average_linkage", "consensus.average_linkage"),
    (cesel.consensus, "linkage_merge", "consensus.linkage_merge"),
    (cesel.consensus, "cut", "consensus.cut"),
)

# Per-layer metric -> (unit, wrap targets it is measured at). Times and
# counts are per traced pipeline run unless the unit says otherwise. A
# target "a|b" is met by either attribute; the metric is absent when any
# of its targets is wholly missing.
METRICS = {
    "clusterers.calls": ("count/run", ["consensus.run_algorithm"]),
    "clusterers.busy_s": ("s/run", ["consensus.run_algorithm"]),
    "clusterers.failed": ("count/run", ["consensus.run_algorithm"]),
    "clusterers.linkage_busy_s": ("s/run", ["consensus.run_algorithm"]),
    "clusterers.linkage_merge_s": ("s/run", ["clusterers.linkage_merge"]),
    "clusterers.linkage_self_s": ("s/run", ["consensus.run_algorithm", "clusterers.linkage_merge"]),
    "clusterers.sps_busy_s": ("s/run", ["consensus.run_algorithm"]),
    "clusterers.kmeans_busy_s": ("s/run", ["consensus.run_algorithm"]),
    "clusterers.fcm_busy_s": ("s/run", ["consensus.run_algorithm"]),
    "diversity.admit_calls": ("count/run", ["consensus.admit"]),
    "diversity.admit_s": ("s/run", ["consensus.admit"]),
    "diversity.admitted_ratio": ("admits/attempt", ["consensus.admit"]),
    "diversity.rejected_clusterer_s": ("s/run", ["consensus.admit", "consensus.run_algorithm"]),
    "independency.ai_weights_s": ("s/run", ["consensus.ai_weights"]),
    "independency.bpi_calls": ("count/run", ["independency.bpi"]),
    "independency.bpi_share": ("bpi/pair", ["independency.bpi", "consensus.ai_weights"]),
    "cail.computed_aidm_calls": ("count/run", ["assets.computed_aidm"]),
    "cail.computed_aidm_s": ("s/run", ["assets.computed_aidm"]),
    "consensus.coassoc_s": ("s/run", ["consensus.weac|consensus.eac"]),
    "consensus.coassoc_bytes": ("bytes_computed", ["consensus.weac|consensus.eac"]),
    "consensus.merge_s": ("s/run", ["consensus.average_linkage"]),
    "consensus.cut_s": ("s/run", ["consensus.cut"]),
    "consensus.signature_ratio": ("unique/n", ["consensus.weac|consensus.eac"]),
    "pipeline.runs": ("count", ["consensus.run_ces"]),
    "pipeline.busy_s": ("s/run", ["consensus.run_ces"]),
    "pipeline.self_s": ("s/run", ["consensus.run_ces"]),
    "trace.overhead_frac": ("frac", ["consensus.run_ces"]),
}


def _target_key(module, attr: str) -> str:
    return f"{module.__name__.removeprefix('cesel.')}.{attr}"


class Tracer:
    """Span recorder installed around cesel's layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, run, attrs]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self._run = -1
        self._clusterer_time: dict[int, float] = {}   # id(partition) -> seconds
        self._committees: list[tuple[int, list[np.ndarray]]] = []
        self.counters: dict[str, float] = defaultdict(float)

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target present; may be repeated after ``uninstall``."""
        self.absent = []
        for module, attr, name in TARGETS:
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(_target_key(module, attr))
                continue
            after = getattr(self, f"_after_{attr}", None)  # counters taken at this boundary
            setattr(module, attr, self._wrap(original, name, after))
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str, after):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, failed=True)
                raise
            tracer._close(index)
            if after is not None:
                after(index, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _open(self, name: str) -> int:
        if name == "pipeline.run_ces":
            self._run += 1
            self._clusterer_time.clear()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._run, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, failed: bool = False) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.spans[index][5] = {"failed": True}

    def _duration(self, index: int) -> float:
        span = self.spans[index]
        return span[2] - span[1]

    # --- per-boundary counters ---------------------------------------------

    def _after_run_algorithm(self, index, args, result):
        algorithm = args[1].algorithm_id
        self.spans[index][5] = {"algorithm": algorithm}
        self._clusterer_time[id(result[0])] = self._duration(index)

    def _after_admit(self, index, args, report):
        self.counters["admitted"] += report.admitted
        if not report.admitted:
            self.counters["rejected_clusterer_s"] += self._clusterer_time.get(id(args[0]), 0.0)

    def _after_ai_weights(self, index, args, result):
        m = len(args[0])
        self.counters["weight_pairs"] += m * (m - 1)

    def _after_weac(self, index, args, result):
        n = result.shape[0]
        self.counters["coassoc_bytes"] += n * n * 8
        # Label vectors are only referenced here; uniqueness is counted
        # after tracing so it does not inflate any span.
        self._committees.append((n, [e.partition.assignments for e in args[0]]))

    def _after_eac(self, index, args, result):
        n = result.shape[0]
        self.counters["coassoc_bytes"] += n * n * 8
        self._committees.append((n, [p.assignments for p in args[0]]))

    # --- summaries -----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_table(self) -> list[tuple[str, int, float, float]]:
        """(span name, calls, busy seconds, self seconds) summed over the trace."""
        rows: dict[str, list] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = rows.setdefault(span[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span[2] - span[1]
            row[2] += own
        return [(name, *row) for name, row in rows.items()]

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, dict]:
        """Per-layer metrics, averaged per traced run; absent layers flagged."""
        runs = max(self._run + 1, 1)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        failed = 0
        for span, self_s in zip(self.spans, self.self_times()):
            name, dur, attrs = span[0], span[2] - span[1], span[5] or {}
            busy[name] += dur
            own[name] += self_s
            calls[name] += 1
            if name != "clusterers.run_algorithm":
                continue
            failed += bool(attrs.get("failed"))
            algorithm = attrs.get("algorithm")
            if algorithm in LINKAGE_IDS:
                busy["clusterers.linkage_busy_s"] += dur
                own["clusterers.linkage_self_s"] += self_s
            elif algorithm in _BUSY_BY_ALGORITHM:
                busy[_BUSY_BY_ALGORITHM[algorithm]] += dur
        signature_ratios = [
            np.unique(np.stack(labels, axis=1), axis=0).shape[0] / n
            for n, labels in self._committees
        ]
        coassoc_calls = calls["consensus.coassoc"]
        admit_calls = calls["diversity.admit"]
        values = {
            "clusterers.calls": calls["clusterers.run_algorithm"] / runs,
            "clusterers.busy_s": busy["clusterers.run_algorithm"] / runs,
            "clusterers.failed": failed / runs,
            "clusterers.linkage_busy_s": busy["clusterers.linkage_busy_s"] / runs,
            "clusterers.linkage_merge_s": busy["clusterers.linkage_merge"] / runs,
            "clusterers.linkage_self_s": own["clusterers.linkage_self_s"] / runs,
            "clusterers.sps_busy_s": busy["clusterers.sps_busy_s"] / runs,
            "clusterers.kmeans_busy_s": busy["clusterers.kmeans_busy_s"] / runs,
            "clusterers.fcm_busy_s": busy["clusterers.fcm_busy_s"] / runs,
            "diversity.admit_calls": admit_calls / runs,
            "diversity.admit_s": busy["diversity.admit"] / runs,
            "diversity.admitted_ratio": self.counters["admitted"] / max(admit_calls, 1),
            "diversity.rejected_clusterer_s": self.counters["rejected_clusterer_s"] / runs,
            "independency.ai_weights_s": busy["independency.ai_weights"] / runs,
            "independency.bpi_calls": calls["independency.bpi"] / runs,
            "independency.bpi_share": calls["independency.bpi"] / max(self.counters["weight_pairs"], 1),
            "cail.computed_aidm_calls": calls["cail.computed_aidm"] / runs,
            "cail.computed_aidm_s": busy["cail.computed_aidm"] / runs,
            "consensus.coassoc_s": busy["consensus.coassoc"] / runs,
            "consensus.coassoc_bytes": self.counters["coassoc_bytes"] / max(coassoc_calls, 1),
            "consensus.merge_s": busy["consensus.average_linkage"] / runs,
            "consensus.cut_s": busy["consensus.cut"] / runs,
            "consensus.signature_ratio": float(np.mean(signature_ratios)) if signature_ratios else 0.0,
            "pipeline.runs": float(self._run + 1),
            "pipeline.busy_s": busy["pipeline.run_ces"] / runs,
            "pipeline.self_s": own["pipeline.run_ces"] / runs,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        }
        out = {}
        for name, (unit, targets) in METRICS.items():
            out[name] = {"value": values[name], "unit": unit}
            if any(all(t in self.absent for t in group.split("|")) for group in targets):
                out[name]["absent"] = True
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        doc = {
            **extra,
            "span_fields": ["name", "start_s", "end_s", "parent", "run", "attrs", "self_s"],
            "spans": [s + [o] for s, o in zip(self.spans, own)],
            "counters": dict(self.counters),
            "absent": self.absent,
        }
        path.write_text(json.dumps(doc) + "\n")
