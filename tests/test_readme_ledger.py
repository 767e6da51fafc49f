"""README's deviation ledger names code and tests that exist.

README.md states each departure from the paper once, as a row of one
table whose header is ``| deviation | where | pinned by | measured effect |``.
"where" names the code in backticks, each as ``module.name`` of the
package or as a path in the repository; "pinned by" names one test as
``tests/<file>.py::<name>`` or ``tests/<file>.py::<Class>::<method>``, a
parametrized test by its base name. The names are looked up in the
parsed files, so a rename or a removal breaks the ledger here instead of
leaving a row that points nowhere.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HEADER = "| deviation | where | pinned by | measured effect |"


def ledger() -> list[list[str]]:
    """The ledger's rows, each as its cells; none when README has no ledger."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    if HEADER not in lines:
        return []
    rows = []
    for line in lines[lines.index(HEADER) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def definitions(path: Path) -> set[str]:
    """Top-level functions and classes of ``path``, and ``Class::method`` for each method."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}::{m.name}" for m in node.body if isinstance(m, ast.FunctionDef)}
    return names


ROWS = ledger()
IDS = [re.sub(r"\W+", "-", row[0].split("**")[1 if "**" in row[0] else 0]).strip("-") for row in ROWS]


def test_readme_has_one_ledger():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert readme.count(HEADER) == 1
    assert ROWS and all(len(row) == 4 and all(row) for row in ROWS)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_row_is_pinned_by_a_test_that_exists(row):
    tests = re.findall(r"`([^`]*)`", row[2])
    assert len(tests) == 1, f"name one test as `tests/<file>.py::<name>`, not {row[2]!r}"
    file, _, name = tests[0].partition("::")
    assert re.fullmatch(r"tests/\w+\.py", file) and name, tests[0]
    assert (ROOT / file).is_file(), file
    assert name in definitions(ROOT / file), tests[0]


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_row_names_code_that_exists(row):
    places = re.findall(r"`([^`]*)`", row[1])
    assert places, f"name the code as `module.name`, not {row[1]!r}"
    for place in places:
        if "/" in place:
            assert (ROOT / place).exists(), place
            continue
        module, _, name = place.partition(".")
        source = ROOT / "src" / "cesel" / f"{module}.py"
        assert source.is_file() and name in definitions(source), place
