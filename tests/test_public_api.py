"""Every public top-level function and class in the package has a user.

A name counts as used when it appears as a name, an attribute or an
import in the package itself, in the benchmark driver, or in the
acceptance suite.  Helpers that only unit tests call belong in
``tests/helpers.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "metapsk"
USERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py"]


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"


def _referenced_names() -> set[str]:
    names = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_helper_has_a_user():
    definitions = list(_public_definitions())
    assert "harness.run_trial" in definitions  # the scan found the package
    used = _referenced_names()
    assert [d for d in definitions if d.split(".", 1)[1] not in used] == []
