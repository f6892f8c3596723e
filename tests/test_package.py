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


# Each case runs in a fresh interpreter, which prints its exit code and the
# clasptools submodules it ended up with as the last line of stdout.
_CHILD = """import json, sys
rc = 0
{}
print(json.dumps([rc, sorted(m[11:] for m in sys.modules if m.startswith("clasptools."))]))
"""


def _loaded_submodules(code):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _CHILD.format(code)], check=True,
                         capture_output=True, text=True, env=env).stdout
    rc, loaded = json.loads(out.splitlines()[-1])
    assert rc == 0
    return set(loaded)


def test_import_loads_no_submodule():
    assert _loaded_submodules("import clasptools") == set()


def test_from_import_of_a_submodule_loads_just_that_submodule():
    code = "from clasptools import openbook; openbook.OpenBookTriple(2, 3, 7)"
    assert _loaded_submodules(code) == {"openbook"}


def test_set_up_loads_only_census_diagram_laurent_skein():
    code = "import clasptools; clasptools.load_census(); clasptools.SkeinEngine()"
    assert _loaded_submodules(code) == {"census", "diagram", "laurent", "skein"}


@pytest.mark.parametrize("argv, unused", [
    (["invariants", "3_1"], {"openbook", "tangle"}),
    (["openbook", "--triple=2,3,7"], {"tangle"}),
])
def test_cli_command_skips_layers_it_does_not_run(argv, unused):
    loaded = _loaded_submodules(f"from clasptools import cli; rc = cli.main({argv!r})")
    assert "cli" in loaded and not loaded & unused, sorted(loaded)
