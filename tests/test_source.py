import argparse
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


def test_every_flag_is_read():
    # A flag that no command reads is a setting that does nothing: the dest
    # of each option, in the parser and every subparser, must be read as
    # args.<dest> somewhere in cli.py.
    from clasptools.cli import build_parser

    tree = ast.parse((SRC / "cli.py").read_text())
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and isinstance(node.value, ast.Name) and node.value.id == "args"}
    dests, parsers = set(), [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif action.dest != "help":
                dests.add(action.dest)
    assert dests and dests <= reads, sorted(dests - reads)


def _export_table():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets))


def test_package_table_names_top_level_definitions():
    # clasptools/__init__.py imports a public name's submodule only on first
    # access; a renamed or moved definition would otherwise fail only there.
    table = _export_table()
    missing = []
    for module, names in table.items():
        defined = set()
        for node in ast.parse((SRC / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        missing += [f"{module}.{name}" for name in names if name not in defined]
    assert table and not missing, missing


def test_only_laurent_reads_the_term_dict():
    # LaurentPoly's term dict is private to laurent.py; other modules go
    # through its public methods, so its storage can change in one place.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "laurent.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_terms"]
    assert SRC.is_dir() and not found, found


def test_cli_prints_only_in_main():
    # Commands return their payloads; main alone writes stdout and stderr.
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print" and id(node) not in in_main]
    assert not stray, stray


# Public names with no caller yet, each kept for the paper.
_UNCALLED_BY_DESIGN = (
    ("p0_model", "the paper's p0 formula for a two-clasp knot, to check catalog knots"),
    ("insert_clasp", "the paper's clasp insertion, to build non-braided clasp-two diagrams"),
    ("pretzel_diagram", "the paper's pretzel knots, to build non-braided test diagrams"),
)


def _uses(path, strings=False):
    """Identifiers a file uses (names, attributes, imported names and, with
    ``strings``, the dotted parts of string constants), leaving out each use
    inside a definition of the same name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        words = []
        if isinstance(node, ast.Name):
            words = [node.id]
        elif isinstance(node, ast.Attribute):
            words = [node.attr]
        elif isinstance(node, ast.alias):
            words = node.name.split(".")
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = node.value.split(".")
        used.update(w for w in words if w not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return used


def test_every_public_name_has_a_caller():
    # A public name that no module, benchmark or acceptance test calls is
    # surface kept for its own tests.  Covered: the package table, the
    # public top-level definitions of every submodule and the public
    # methods of Diagram and LaurentPoly; the string targets in
    # bench/tracing.py count as calls.
    names = {n for names in _export_table().values() for n in names}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                names.add(node.name)
                if node.name in ("Diagram", "LaurentPoly"):
                    names |= {f.name for f in node.body
                              if isinstance(f, ast.FunctionDef) and f.name[0] != "_"}
    used = set()
    for path in SRC.glob("*.py"):
        used |= _uses(path)
    for path in (SRC.parent.parent / "bench").glob("*.py"):
        used |= _uses(path, strings=True)
    used |= _uses(SRC.parent.parent / "tests" / "test_acceptance.py")
    exempt = {name for name, _ in _UNCALLED_BY_DESIGN}
    assert names - used == exempt, ", ".join(sorted((names - used) ^ exempt))
