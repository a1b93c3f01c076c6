"""Source-level checks on the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitcount"


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements; every exactness check must raise
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_module_imports_random():
    # every check is exact or a certificate: nothing in the package samples
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == "random" or name.startswith("random.") or name.startswith("numpy.random")]
    assert not found, found
