"""Properties of the package source itself."""

import ast
import doctest
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


def test_pipeline_determinant_does_not_use_the_generic_one():
    """``hilbert.py`` never names ``det_poly_matrix``, so the Hadamard-sized
    determinant stays an independent check of the pipeline's family-count
    one."""
    path = Path(laddergf.__file__).parent / "hilbert.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "det_poly_matrix")
             or (isinstance(node, ast.Attribute) and node.attr == "det_poly_matrix")
             or (isinstance(node, ast.alias) and node.name == "det_poly_matrix")]
    assert not found, found


def test_package_docstring_example_runs():
    """The ``>>>`` example in ``laddergf.__doc__`` runs and holds: tier-1
    collects only ``tests/``, so no doctest collection reaches it."""
    failed, attempted = doctest.testmod(laddergf, verbose=False)
    assert attempted >= 1 and failed == 0, (failed, attempted)
