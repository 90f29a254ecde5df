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


def test_oracle_imports_no_engine_code():
    """``oracle.py`` imports only ``TASpec`` from ``genfun`` and nothing from
    ``hilbert`` or the package as a whole, so the brute-force ground truth
    shares no counting code with either engine."""
    path = Path(laddergf.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = set()  # (module within the package, name), "*" for a whole module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports |= {(a.name.removeprefix("laddergf").lstrip("."), "*") for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("laddergf").lstrip(".")
            imports |= {(module, a.name) if module else (a.name, "*") for a in node.names}
    assert {name for module, name in imports if module == "genfun"} == {"TASpec"}, imports
    assert not [module for module, _ in imports if module in ("hilbert", "")], imports


def _reachable(tree: ast.Module, root: str) -> set[str]:
    """The module-level names that the definition of root names, and those
    that theirs name, transitively, root included."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in defs:
            todo += [node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)]
    return seen


def test_engines_share_no_counting_code():
    """In ``genfun.py`` the recursive engine (``_Engine``, and everything it
    names) names no direct multi-sum, and the direct row sweep
    (``_direct_row``, and everything it names) names no closed form, so
    ``direct == recursive`` compares two independent computations."""
    path = Path(laddergf.__file__).parent / "genfun.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    direct = {"_direct_row", "_direct_sum", "_direct_steps", "gf_direct", "gf_direct_row"}
    closed = {"_trivial_terms", "_diagonal_terms", "gf_trivial", "gf_diagonal"}
    assert not _reachable(tree, "_Engine") & direct, _reachable(tree, "_Engine") & direct
    assert "_trivial_terms" in _reachable(tree, "_Engine")
    assert not _reachable(tree, "_direct_row") & closed, _reachable(tree, "_direct_row") & closed
    assert "_direct_steps" in _reachable(tree, "_direct_row")


def test_engine_calls_only_the_unchecked_binomial():
    """The recursive engine (``_Engine``, and everything it names, such as
    ``_diagonal_terms``) calls ``_binomial``, whose arguments are ints by
    construction, and never the public, type-checked ``binomial``."""
    path = Path(laddergf.__file__).parent / "genfun.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "_diagonal_terms" in _reachable(tree, "_Engine")
    for root in ("_Engine", "_diagonal_terms"):
        reached = _reachable(tree, root)
        assert "_binomial" in reached and "binomial" not in reached, (root, reached)


def test_engine_peel_takes_ordinary_binomials():
    """The body of ``_Engine`` names ``comb`` and not ``_binomial``: every
    binomial of the peel is in the ordinary range, and only the reflection
    form ``_diagonal_terms`` needs the extended convention of ``_binomial``."""
    path = Path(laddergf.__file__).parent / "genfun.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    engine = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Engine")
    named = {node.id for node in ast.walk(engine) if isinstance(node, ast.Name)}
    assert "comb" in named and "_diagonal_terms" in named, named
    reached = set().union(*(_reachable(tree, name) for name in named - {"_diagonal_terms"}))
    assert "_binomial" not in reached, reached


def test_package_docstring_example_runs():
    """The ``>>>`` example in ``laddergf.__doc__`` runs and holds: tier-1
    collects only ``tests/``, so no doctest collection reaches it."""
    failed, attempted = doctest.testmod(laddergf, verbose=False)
    assert attempted >= 1 and failed == 0, (failed, attempted)
