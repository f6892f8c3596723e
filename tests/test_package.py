import importlib
import json
import os
import subprocess
import sys

import pytest

import clasptools


def test_every_public_name_resolves_to_its_submodule():
    for name in clasptools.__all__:
        module = importlib.import_module("clasptools." + clasptools._OWNER[name])
        assert getattr(clasptools, name) is getattr(module, name), name


def test_dir_lists_public_names():
    assert set(clasptools.__all__) <= set(dir(clasptools))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        clasptools.no_such_name
    assert not hasattr(clasptools, "_SquareSearcher")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from clasptools import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(clasptools.__all__)


# Each case runs in a fresh interpreter, which prints its exit code, the
# clasptools submodules it ended up with and the heavy standard modules it
# imported as the last line of stdout.  The interpreter runs with -S, so that
# no site hook can preload a module and hide an import the package makes:
# ``dataclasses`` (which pulls in ``inspect``, ``ast`` and ``dis``), ``pathlib``
# (which pulls in ``urllib.parse`` and ``ipaddress``) and
# ``importlib.resources`` may not load on any path the package runs.
_CHILD = """import json, sys
rc = 0
{}
heavy = [m for m in ("dataclasses", "inspect", "importlib.resources", "pathlib") if m in sys.modules]
print(json.dumps([rc, sorted(m[11:] for m in sys.modules if m.startswith("clasptools.")), heavy]))
"""


def _loaded_submodules(code, expected_rc=0):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-S", "-c", _CHILD.format(code)], check=True,
                         capture_output=True, text=True, env=env).stdout
    rc, loaded, heavy = json.loads(out.splitlines()[-1])
    assert rc == expected_rc
    assert heavy == [], heavy
    return set(loaded)


def test_import_loads_no_submodule():
    assert _loaded_submodules("import clasptools") == set()


def test_from_import_of_a_submodule_loads_just_that_submodule():
    code = "from clasptools import openbook; openbook.OpenBookTriple(2, 3, 7)"
    assert _loaded_submodules(code) == {"openbook"}


def test_set_up_loads_only_census_diagram_laurent_skein():
    code = "import clasptools; clasptools.load_census(); clasptools.SkeinEngine()"
    assert _loaded_submodules(code) == {"census", "diagram", "laurent", "skein"}


# corollary12 exits 1: the shipped census lacks its five target knots.
_EXIT_CODE = {"corollary12": 1}


@pytest.mark.parametrize("argv, unused", [
    (["invariants", "3_1"], {"openbook", "tangle"}),
    (["openbook", "--triple=2,3,7"], {"tangle"}),
    (["clasp-obstruct", "--a2", "2", "--a4", "1"], {"openbook", "tangle"}),
    (["montesinos", "--desc=-2/3,2,1/2"], {"openbook"}),
    (["catalog", "--n-bound", "1"], {"openbook"}),
    (["corollary12"], {"openbook"}),
])
def test_cli_command_skips_layers_it_does_not_run(argv, unused):
    code = f"from clasptools import cli; rc = cli.main({argv!r})"
    loaded = _loaded_submodules(code, _EXIT_CODE.get(argv[0], 0))
    assert "cli" in loaded and not loaded & unused, sorted(loaded)
