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
from cesel.harness import gen_blobs

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
        consensus.run_ces(
            gen_blobs(20, [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], 1.0, seed=5),
            consensus.PipelineConfig(k_final=3, d_threshold=0.0, committee_target=4,
                                     max_attempts=8, roster=("K", "ALH"), vary_k=True),
        )
    finally:
        tracer.uninstall()
    called = {span[0] for span in tracer.spans}
    assert {"pipeline.run_ces", "clusterers.linkage_merge", "consensus.coassoc",
            "consensus.average_linkage", "consensus.linkage_merge", "consensus.cut"} <= called
