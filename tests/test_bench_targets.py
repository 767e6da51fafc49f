"""Every function the benchmark trace wraps still exists in the package.

``perfbench/spans.py`` wraps cesel's module attributes by name. A wrap
target that a refactor renames or removes is reported ``absent`` by the
benchmark, and its per-layer metrics vanish without any run failing;
this test fails instead. A target that still exists but that the
pipeline no longer calls loses its metrics the same way.
"""
import sys
from pathlib import Path

import pytest

from cesel import consensus
from cesel.harness import gen_half_ring

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in spans.TARGETS],
    ids=[f"{module.__name__}.{attr}" for module, attr, _ in spans.TARGETS],
)
def test_wrap_target_exists(module, attr):
    assert callable(getattr(module, attr, None))


def test_pipeline_calls_the_consensus_targets():
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Every linkage tree, scipy's included, is built in clusterers.linkage_merge.
        consensus.run_ces(
            gen_half_ring(60, 0.05, seed=11),
            consensus.PipelineConfig(k_final=2, d_threshold=0.0, committee_target=4,
                                     max_attempts=8, roster=("K", "ALE"), vary_k=True),
        )
    finally:
        tracer.uninstall()
    called = {span[0] for span in tracer.spans}
    assert {"pipeline.run_ces", "clusterers.linkage_merge", "consensus.coassoc",
            "consensus.average_linkage", "consensus.linkage_merge", "consensus.cut"} <= called


def test_every_attempt_opens_one_clusterer_span():
    # No cache sits above run_algorithm, so the benchmark's
    # clusterers.calls counts attempts, reused linkage trees included.
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, report = consensus.run_ces(
            gen_half_ring(60, 0.05, seed=11),
            consensus.PipelineConfig(k_final=2, d_threshold=0.35, committee_target=8,
                                     max_attempts=32, seed=3, vary_k=True),
        )
    finally:
        tracer.uninstall()
    calls = [span for span in tracer.spans if span[0] == "clusterers.run_algorithm"]
    assert len(calls) == report.attempts
    drawn = [t["algorithm"] for t in report.trace if t["algorithm"] in spans.LINKAGE_IDS]
    assert len(drawn) > len(set(drawn))  # some linkage ID was drawn again
