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
