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


def test_every_config_key_is_read():
    # A key in cli.DEFAULTS that no command reads is a setting that does
    # nothing: each must be read as cfg["<key>"] outside _load_config.
    tree = ast.parse((SRC / "cli.py").read_text())
    keys = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "DEFAULTS" for t in node.targets):
            keys = {k.value for k in node.value.keys}
    reads = {node.slice.value
             for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and fn.name != "_load_config"
             for node in ast.walk(fn)
             if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
             and isinstance(node.value, ast.Name) and node.value.id == "cfg"
             and isinstance(node.slice, ast.Constant)}
    assert keys and keys <= reads, sorted(keys - reads)
