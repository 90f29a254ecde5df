"""Properties of the package source itself."""

import ast
from pathlib import Path

import laddergf


def test_no_assert_statements():
    """Invariants must raise real exceptions: ``python -O`` drops asserts."""
    found = []
    for path in sorted(Path(laddergf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
