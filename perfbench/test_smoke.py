"""Smoke test of the benchmark itself, at toy data sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and once traced; each run must pass its
own correctness check and emit every metric that BENCHMARK.json names,
with that metric's unit.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
               "--seconds", "0.5", "--trace", str(trace), "--toy"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert f"metric {metric['name']} " in "\n".join(lines)
    assert any(line.startswith("env ") for line in lines)
    assert any("failed_frac" in line for line in lines)


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import cesel.clusterers
    import spans
    import workloads
    from cesel.consensus import run_ces

    # The blobs roster has no linkage candidate, so the pipeline still runs
    # without the clusterers' merge step, as it would after a refactor.
    workload = workloads.build("blobs-consensus", 5, toy=True)
    monkeypatch.delattr(cesel.clusterers, "linkage_merge")
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_ces(workload.data_for(0), workload.pipeline)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1.0, 1.0)
    assert tracer.absent == ["clusterers.linkage_merge"]
    assert metrics["clusterers.linkage_merge_s"]["absent"] is True
    assert metrics["clusterers.linkage_self_s"]["absent"] is True
    assert "absent" not in metrics["consensus.merge_s"]


def test_unknown_workload_exits_nonzero():
    command = [sys.executable, *SPEC["command"][1:], "--workload", "nope", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
