import ast
import importlib.util
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


def test_trace_targets_exist():
    # bench/tracing.py wraps these names from outside the package; a renamed
    # or moved one would only break a traced benchmark run.
    path = SRC.parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner}.{attr}" for targets in tracing.TARGETS.values()
               for owner, attr in targets
               if attr not in vars(tracing._resolve(owner))]
    assert tracing.TARGETS and not missing, missing
