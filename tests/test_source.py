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


def _is_cache(decorator):
    """Whether a decorator is ``lru_cache`` or ``cache``, called or not,
    plain or as ``functools.<name>``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = getattr(decorator, "attr", None) or getattr(decorator, "id", None)
    return name in ("lru_cache", "cache")


def test_process_wide_caches_take_only_ints():
    # A cache decorator keeps its table for the life of the process.  Keyed
    # on ints alone, it can hold only constants of the algebra (a twist's
    # coefficients, a power of delta, a table of orders), never a diagram's
    # polynomial or a query's answer, so every query still starts cold.
    cached, found = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(_is_cache(dec) for dec in fn.decorator_list):
                continue
            cached.append(fn.name)
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            found += [f"{path.name}:{fn.lineno} {fn.name}({a.arg})" for a in params
                      if not (isinstance(a.annotation, ast.Name) and a.annotation.id == "int")]
    assert "_trace_orders" in cached and not found, found


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


def _top_level(path):
    """(name, node) for each top-level def, class and assigned name of a file."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def test_package_table_names_top_level_definitions():
    # clasptools/__init__.py imports a public name's submodule only on first
    # access; a renamed or moved definition would otherwise fail only there.
    table = _export_table()
    missing = []
    for module, names in table.items():
        defined = {name for name, _ in _top_level(SRC / f"{module}.py")}
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


def test_only_diagram_reads_the_arc_table():
    # A Diagram's _head and _tail are its arc table, and _without_loops
    # shares it; only diagram.py, which builds the table, reaches into it.
    # The skein walks it through Diagram's public operations.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "diagram.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("_head", "_tail", "_without_loops")]
    assert SRC.is_dir() and not found, found


def test_private_imports_between_modules():
    # A module reaches into a sibling only for these private names: the
    # face walk the tangle layer shares with the planarity check, and the
    # default node budget the CLI prints in its help.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(path.name, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("clasptools"))
                  for alias in node.names if alias.name[0] == "_"}
    assert found == {("tangle.py", "_faces"), ("cli.py", "_MAX_NODES")}, sorted(found)


def test_only_diagram_and_tangle_build_trusted_diagrams():
    # Diagram._trusted skips the PD checks and runs only _finish; keeping
    # its callers in diagram.py and tangle.py keeps every diagram's one
    # _finish behind the code that builds arc tables.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("diagram.py", "tangle.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_trusted"]
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
    """Identifiers a file reads (names, attributes, each attribute of a plain
    name also as ``Owner.attr``, imported names and, with ``strings``, the
    dotted parts of string constants), leaving out assignment targets and
    each use inside a definition of the same name."""
    used = set()

    def visit(node, inside, owner):
        if isinstance(node, ast.ClassDef):
            inside, owner = inside | {node.name}, node.name + "."
        elif isinstance(node, ast.FunctionDef):
            inside, owner = inside | {node.name, owner + node.name}, ""
        words = []
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            words = [node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            words = [node.attr]
            if isinstance(node.value, ast.Name):
                words.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.alias):
            words = node.name.split(".")
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = node.value.split(".")
        used.update(w for w in words if w not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset(), "")
    return used


def _callers():
    """The files whose uses make a public name or parameter needed."""
    root = SRC.parent.parent
    return [*SRC.glob("*.py"), *(root / "bench").glob("*.py"),
            root / "tests" / "test_acceptance.py"]


def test_every_public_name_has_a_caller():
    # A public name that no module, benchmark or acceptance test calls is
    # surface kept for its own tests.  Covered: the package table, the
    # public top-level definitions and module constants of every submodule
    # and the public methods of every public class; a method name that
    # several classes define counts only as ``Class.name``.  The string
    # targets in bench/tracing.py count as calls.
    names = {n for names in _export_table().values() for n in names}
    owners = {}
    for path in SRC.glob("*.py"):
        for name, node in _top_level(path):
            if name[0] != "_":
                names.add(name)
                if isinstance(node, ast.ClassDef):
                    for f in node.body:
                        if isinstance(f, ast.FunctionDef) and f.name[0] != "_":
                            owners.setdefault(f.name, []).append(name)
    for method, classes in owners.items():
        names |= {method} if len(classes) == 1 else {f"{c}.{method}" for c in classes}
    used = set()
    for path in _callers():
        used |= _uses(path, strings=path.parent.name == "bench")
    exempt = {name for name, _ in _UNCALLED_BY_DESIGN}
    assert names - used == exempt, ", ".join(sorted((names - used) ^ exempt))


def test_every_private_definition_is_used():
    # Every module is compiled on each import when no bytecode is cached,
    # so a private helper that nothing calls costs set-up time for nothing.
    # Each private top-level function or class, and each private method,
    # needs a use in src/clasptools outside its own definition (dunder
    # names excepted).
    defined = set()
    for path in SRC.glob("*.py"):
        for name, node in _top_level(path):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(name)
            if isinstance(node, ast.ClassDef):
                defined |= {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
    private = {name for name in defined if name[0] == "_" and not name.endswith("__")}
    used = set().union(*(_uses(path) for path in SRC.glob("*.py")))
    assert private and not private - used, sorted(private - used)


# Keyword parameters that the guard below flags, each waiting on a change to
# bench/ and deleted by the ROADMAP direction named.
_PENDING_PARAMETERS = (
    ("todd_coxeter", "max_cosets", "only tests pass it; Direction 9 deletes todd_coxeter"),
    ("typeX_sum_of_squares_search", "node_cap", "only tests pass it; Direction 3"),
    ("load_census", "engine", "the benchmark worker passes it, the body never reads it; "
                              "Direction 6, after Direction 1"),
)


def test_every_keyword_parameter_is_read_and_passed():
    # A parameter with a default is a setting: the body of its function (or
    # of its class's __new__ or __init__) must read it, and some module,
    # benchmark or acceptance test must pass it, by keyword or by position.
    # Covered: the names of the package table, except _UNCALLED_BY_DESIGN.
    exempt = {name for name, _ in _UNCALLED_BY_DESIGN}
    calls = [node for path in _callers() for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    flagged = set()
    for module, names in _export_table().items():
        for name, node in _top_level(SRC / f"{module}.py"):
            if name not in names or name in exempt:
                continue
            fns = [node]
            if isinstance(node, ast.ClassDef):
                fns = [f for f in node.body if isinstance(f, ast.FunctionDef)
                       and f.name in ("__new__", "__init__")]
            passes = [c for c in calls
                      if name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))]
            for fn in fns:
                args = fn.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if fn is not node:
                    positional = positional[1:]  # cls or self
                keyword = positional[len(positional) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                reads = {n.id for n in ast.walk(fn)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                for arg in keyword:
                    passed = any(any(k.arg == arg for k in c.keywords)
                                 or arg in positional and len(c.args) > positional.index(arg)
                                 for c in passes)
                    if arg not in reads or not passed:
                        flagged.add((name, arg))
    pending = {(name, arg) for name, arg, _ in _PENDING_PARAMETERS}
    assert flagged == pending, sorted(flagged ^ pending)
