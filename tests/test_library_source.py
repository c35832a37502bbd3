import ast
from pathlib import Path

import gpmcdiag as gd


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes
    # in optimized runs; the library raises its errors explicitly instead
    found = []
    for path in sorted(Path(gd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_public_names_resolve_once():
    # every exported name exists and is listed once; the per-test object
    # model and the unused graph helpers stay out of the public API
    names = gd.__all__
    assert [name for name in names if not hasattr(gd, name)] == []
    assert len(set(names)) == len(names)
    removed = {"Test", "enumerate_tests", "ForcedOutcome", "forced_outcome",
               "common_neighbors", "hypercube_neighbor"}
    assert removed.isdisjoint(names)
    assert not any(hasattr(gd, name) for name in removed)
