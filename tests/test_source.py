import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "clasptools"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a correctness check in the
    # package must raise explicitly instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SRC.is_dir() and not found, found
