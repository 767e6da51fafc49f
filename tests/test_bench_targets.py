"""Every function the benchmark trace wraps still exists in the package.

``perfbench/spans.py`` wraps cesel's module attributes by name. A wrap
target that a refactor renames or removes is reported ``absent`` by the
benchmark, and its per-layer metrics vanish without any run failing;
this test fails instead.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in spans.TARGETS],
    ids=[f"{module.__name__}.{attr}" for module, attr, _ in spans.TARGETS],
)
def test_wrap_target_exists(module, attr):
    assert callable(getattr(module, attr, None))
