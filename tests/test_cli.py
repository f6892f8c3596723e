import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clasptools.census import COROLLARY12_NAMES, CensusError, load_census, load_exceptional
from clasptools.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNKNOWN_NAME,
    build_parser,
    main,
)
from clasptools.skein import SkeinEngine
from clasptools.tangle import closed_braid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_census_name(capsys):
    code, out, _ = run(capsys, "invariants", "4_1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["a2"] == -1 and payload["a4"] == 0
    assert payload["conway"] == "1 + -1*z^2"


def test_invariants_pd_text(capsys):
    code, out, _ = run(capsys, "invariants", "PD[]")
    assert code == EXIT_OK
    assert json.loads(out)["homfly"] == "1"


def test_invariants_deterministic(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "invariants", "6_2")
        assert code == EXIT_OK
        outs.add(out)
    assert len(outs) == 1


def test_exit_codes(capsys, monkeypatch, tmp_path):
    code, _, err = run(capsys, "invariants", "nosuchknot")
    assert code == EXIT_UNKNOWN_NAME and "unknown census name" in err
    code, _, err = run(capsys, "invariants", "PD[X[1,2,3]]")
    assert code == EXIT_PARSE
    code, out, err = run(capsys, "invariants", "PD[X[3,2,1,1],X[4,2,4,3]]")
    assert code == EXIT_PARSE and out == "" and "not a planar diagram" in err
    code, _, err = run(capsys, "--node-budget", "2", "invariants", "6_2")
    assert code == EXIT_BUDGET
    code, _, err = run(capsys, "--node-budget", "0", "invariants", "3_1")
    assert code == EXIT_BUDGET and "exceeded 0 nodes" in err
    code, out, err = run(capsys, "--node-budget", "-3", "invariants", "3_1")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: max_nodes must be >= 0, got -3\n"
    code, _, err = run(capsys, "corollary12")
    assert code == EXIT_ERROR and "missing required entries" in err
    # The catalog needs the census trefoil and figure-eight.
    no_trefoil = tmp_path / "no_trefoil.tsv"
    no_trefoil.write_text(f"4_1\t{FIG8_PD}\n")
    code, out, err = run(capsys, "--census", str(no_trefoil), "catalog")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: census is missing required entries: 3_1\n"
    targets_only = tmp_path / "targets_only.tsv"
    targets_only.write_text("".join(f"{n}\t{TREFOIL_PD}\n" for n in COROLLARY12_NAMES))
    code, out, err = run(capsys, "--census", str(targets_only), "corollary12")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: census is missing required entries: 3_1, 4_1\n"
    missing = tmp_path / "nonexistent.tsv"
    code, out, err = run(capsys, "--exceptional", str(missing), "catalog")
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: exceptional file not found: {missing}\n"
    for triple in ("1,2", "1,2,3,4", "a,b,c"):
        code, out, err = run(capsys, "openbook", f"--triple={triple}")
        assert code == EXIT_ERROR and out == ""
        assert err == "error: --triple takes three integers a,b,c\n"
    # An option after a flag that takes a value is still an option.
    code, out, err = run(capsys, "openbook", "--triple", "--scan", "3")
    assert code == EXIT_ERROR and out == ""
    assert "argument --triple: expected one argument" in err
    # Usage errors exit 1: exit 2 names an unknown census name.
    code, out, err = run(capsys, "--jobs=2", "invariants", "3_1")
    assert code == EXIT_ERROR and out == ""
    assert "unrecognized arguments: --jobs=2" in err
    # Flags are the only settings: there is no config file.
    code, out, err = run(capsys, "--config=x", "invariants", "3_1")
    assert code == EXIT_ERROR and out == ""
    assert "unrecognized arguments: --config=x" in err
    code, out, err = run(capsys, "invariants")
    assert code == EXIT_ERROR and "required: knot" in err
    # A data file that cannot be read is an error naming it, not a traceback.
    for flag, argv, kind in (("--census", ["invariants", "3_1"], "census"),
                             ("--exceptional", ["catalog"], "exceptional")):
        code, out, err = run(capsys, flag, str(tmp_path), *argv)
        assert code == EXIT_ERROR and out == ""
        assert err.startswith(f"error: cannot read {kind} file {tmp_path}: ")
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes(b"3_1\xff\tPD[]\n")
    code, out, err = run(capsys, "--census", str(latin1), "invariants", "3_1")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith(f"error: cannot read census file {latin1}: 'utf-8' codec")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()

    def broken(*args, **kwargs):
        raise KeyError("internal")

    # An internal KeyError is a bug, not an unknown census name.
    monkeypatch.setattr("clasptools.cli.load_census", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["invariants", "3_1"])


def test_clasp_obstruct(capsys):
    code, out, _ = run(capsys, "clasp-obstruct", "--a2", "2", "--a4", "1", "--bound", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["typeX_parity_obstruction"] is True
    assert payload["kadokami_kawamura_excluded"] is False
    assert any(
        s == {"eps1": 1, "eps2": 1, "l1": 1, "l2": 1, "l": 0}
        for s in payload["solutions"]["II"]
    )
    # Without --bound the search runs to the default bound of 50.
    code, out, _ = run(capsys, "clasp-obstruct", "--a2", "2", "--a4", "1")
    assert code == EXIT_OK
    assert json.loads(out)["bound"] == 50
    assert run(capsys, "clasp-obstruct", "--a2", "2", "--a4", "1", "--bound", "50")[1] == out


def test_clasp_obstruct_huge_bound_answers(capsys):
    # The enumeration costs O(min(sqrt|D|, bound)), so a bound far past
    # every solution answers at once with the solutions of a modest bound.
    code, out, _ = run(capsys, "clasp-obstruct", "--a2", "3", "--a4", "-2", "--bound", "1000000000")
    assert code == EXIT_OK
    solutions = json.loads(out)["solutions"]
    assert [len(solutions[t]) for t in ("X", "II")] == [16, 16]
    small = run(capsys, "clasp-obstruct", "--a2", "3", "--a4", "-2", "--bound", "100000")[1]
    assert json.loads(small)["solutions"] == solutions


def test_node_budget_default():
    args = build_parser().parse_args(["invariants", "3_1"])
    assert args.node_budget == 10_000_000


def test_montesinos_command(capsys):
    code, out, _ = run(capsys, "montesinos", "--desc=-2/3,2,1/2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["is_knot"] is True
    assert payload["a2"] == -1 and payload["a4"] == -1


@pytest.mark.parametrize("desc, bad", [
    ("1/2,1/3,a", "'a'"),
    ("1/2/3,1/3,1/2", "'1/2/3'"),
    ("1/,1/3,1/2", "'1/'"),
    ("1/2,,1/3", "''"),
])
def test_montesinos_parse_errors(capsys, desc, bad):
    code, out, err = run(capsys, "montesinos", f"--desc={desc}")
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: not a fraction: {bad} (expected p, p/q or inf)\n"


@pytest.mark.parametrize("command, flag, value, code", [
    ("montesinos", "--desc", "-2/3,2,1/2", EXIT_OK),
    ("montesinos", "--desc", "-2/3,2,a", EXIT_ERROR),
    ("openbook", "--triple", "-2,3,7", EXIT_OK),
    ("openbook", "--triple", "-2,3", EXIT_ERROR),
])
def test_value_starting_with_a_minus_may_follow_its_flag(capsys, command, flag, value, code):
    # The --desc help text shows such a value; it reads as in the '=' form.
    spaced = run(capsys, command, flag, value)
    assert spaced[0] == code
    assert spaced == run(capsys, command, f"{flag}={value}")


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "catalog", "--n-bound", "0")
    assert code == EXIT_OK
    rows = json.loads(out)
    families = {r["family"] for r in rows}
    assert families == {"i", "ii", "iii", "iv"}
    for r in rows:
        if "pd" in r:
            assert r["a4"] in (1, -1)


def test_pinned_catalog_text(capsys):
    # Every catalog PD text comes from the tangle emitter or the builder,
    # both of which list each crossing as their walk enters its under
    # strand; the whole output is meant to stay byte for byte.
    code, out, err = run(capsys, "catalog", "--n-bound", "6")
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9a81702672afe2cae9b53904f5504a2a9e804bbde73ede52b104a7be309367db")


def test_openbook_commands(capsys):
    code, out, _ = run(capsys, "openbook", "--triple=-1,2,3")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "trivial-pi1"
    # Past the prime cap of the witness search: a clean inconclusive answer.
    code, out, _ = run(capsys, "openbook", "--triple=7,-11,-19")
    assert code == EXIT_OK
    got = json.loads(out)
    assert (got["verdict"], got["certificate"]) == (
        "inconclusive", {"method": "exhausted", "max_prime": 400})
    code, out, _ = run(capsys, "openbook", "--scan", "1")
    assert code == EXIT_OK
    rows = json.loads(out)
    named = {tuple(r["triple"]): r.get("fibered_link") for r in rows}
    assert named[(0, 1, 1)] == "H+#H+"


def test_invariants_split_over_component_closures(capsys):
    """Braid closures with a two-edge component over at both of its
    crossings print PD text that reads back to their frozen invariants."""
    data = Path(__file__).resolve().parents[1] / "bench" / "data" / "braid_links.json"
    pool = {e["id"]: e for e in json.loads(data.read_text())["pool"]}
    for name in ("b0000", "b0228", "b0312", "b0526", "b0592"):
        entry = pool[name]
        code, out, err = run(capsys, "invariants", entry["pd"])
        assert code == EXIT_OK, (name, err)
        payload = json.loads(out)
        assert {k: payload[k] for k in entry["expect"]} == entry["expect"], name


def test_load_census_validation(tmp_path):
    table = load_census()
    for name in ("3_1", "4_1", "6_2", "6_3", "7_6", "7_7"):
        assert name in table
    dup = tmp_path / "census.tsv"
    dup.write_text("a\tPD[]\na\tPD[]\n")
    with pytest.raises(CensusError, match="duplicate"):
        load_census(str(dup))
    bad = tmp_path / "bad.tsv"
    bad.write_text("broken\tPD[X[1,2,3]]\n")
    with pytest.raises(CensusError, match="broken"):
        load_census(str(bad))


HOPF_PD = "PD[X[1,3,2,4],X[3,1,4,2]]"
TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
FIG8_PD = "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]"


def test_census_entries_must_be_knots(tmp_path, capsys):
    f = tmp_path / "census.tsv"
    f.write_text(f"3_1\t{TREFOIL_PD}\n# a link\nL2a1\t{HOPF_PD}\n")
    with pytest.raises(CensusError) as err:
        load_census(str(f))
    assert str(err.value) == f"{f}:3: census entry 'L2a1' is not a knot"
    code, out, err = run(capsys, "--census", str(f), "invariants", "3_1")
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: {f}:3: census entry 'L2a1' is not a knot\n"
    f.write_text(f"Kex1\t1\t-1\t{TREFOIL_PD}\nL2a1\t1\t1\t{HOPF_PD}\n")
    with pytest.raises(CensusError) as err:
        load_exceptional(str(f))
    assert str(err.value) == f"{f}:2: exceptional entry 'L2a1' is not a knot"
    code, out, err = run(capsys, "--exceptional", str(f), "catalog")
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: {f}:2: exceptional entry 'L2a1' is not a knot\n"


def test_load_exceptional_absent_and_valid(tmp_path, capsys):
    assert load_exceptional() == []  # the default file is not shipped
    with pytest.raises(CensusError, match="exceptional file not found"):
        load_exceptional(str(tmp_path / "nope.tsv"))
    f = tmp_path / "ex.tsv"
    f.write_text("Kex1\t1\t-1\tPD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]\n")
    out = load_exceptional(str(f))
    assert len(out) == 1 and out[0].eps1 == 1 and out[0].eps2 == -1
    # The catalog lists the file's knot in family iv, in place of the
    # twelve flagged placeholders.
    code, out, err = run(capsys, "--exceptional", str(f), "catalog", "--n-bound", "0")
    assert code == EXIT_OK and err == ""
    rows = json.loads(out)
    family_iv = [r for r in rows if r["family"] == "iv"]
    assert len(family_iv) == 1
    row = family_iv[0]
    assert row["name"] == "Kex1" and row["params"] == {"eps1": 1, "eps2": -1}
    assert "pd" in row and "conway" in row
    assert not any("note" in r for r in rows)
    f.write_text("Kex1\t2\t1\tPD[]\n")
    with pytest.raises(CensusError, match="signs"):
        load_exceptional(str(f))
    # A sign that is not an integer names the file and line too.
    f.write_text("# header\nKex1\tx\t1\tPD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]\n")
    with pytest.raises(CensusError) as err:
        load_exceptional(str(f))
    assert str(err.value) == f"{f}:2: clasp signs must be +1 or -1"


# Loads both data files in an interpreter whose locale encoding is ASCII.
_ASCII_LOCALE_CHILD = """import sys
from clasptools.census import CensusError, load_census, load_exceptional
census, exceptional, latin1 = sys.argv[1:]
print(sorted(load_census(census)), [k.name for k in load_exceptional(exceptional)])
try:
    load_census(latin1)
except CensusError as e:
    print(str(e).replace(latin1, "LATIN1"))
"""


def test_data_files_are_utf8_under_any_locale(tmp_path):
    census, exceptional, latin1 = (tmp_path / n for n in ("census.tsv", "ex.tsv", "latin1.tsv"))
    census.write_text(f"# trèfle\n3_1\t{TREFOIL_PD}\n", encoding="utf-8")
    exceptional.write_text(f"# nœud\nKex1\t1\t-1\t{TREFOIL_PD}\n", encoding="utf-8")
    latin1.write_bytes(b"3_1\xff\tPD[]\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=str(src))
    env.pop("PYTHONUTF8", None)
    out = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", _ASCII_LOCALE_CHILD, str(census), str(exceptional),
         str(latin1)], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "['3_1'] ['Kex1']",
        "cannot read census file LATIN1: 'utf-8' codec can't decode byte 0xff in position 3: "
        "invalid start byte",
    ]


def test_census_anchors():
    """Frozen census codes match the knots' determinants and Conway data."""
    from clasptools.skein import SkeinEngine

    eng = SkeinEngine()
    table = load_census()
    anchors = {
        "3_1": (3, 1, 0),
        "4_1": (5, -1, 0),
        "6_2": (11, -1, -1),
        "6_3": (13, 1, 1),
        "7_6": (19, 1, -1),
        "7_7": (21, -1, 1),
    }
    for name, (det, a2, a4) in anchors.items():
        d = table[name]
        nabla = eng.conway(d)
        assert abs(sum(c * (-4) ** (ez // 2) for (_, ez), c in nabla.items())) == det, name
        assert (nabla.coefficient(0, 2), nabla.coefficient(0, 4)) == (a2, a4), name


def test_invariants_golden_output(capsys):
    """Bit-exact CLI output for the trefoil (golden file)."""
    code, out, _ = run(capsys, "invariants", "3_1")
    assert code == EXIT_OK
    assert out == (
        "{\n"
        '  "name": "3_1",\n'
        '  "components": 1,\n'
        '  "homfly": "2*v^2 + -1*v^4 + 1*v^2*z^2",\n'
        '  "conway": "1 + 1*z^2",\n'
        '  "p0": "2*v^2 + -1*v^4",\n'
        '  "a2": 1,\n'
        '  "a4": 0\n'
        "}\n"
    )


T37_PD = closed_braid([1, 2] * 7, 3).pd_text()
T37_STDOUT = (
    "{\n"
    f'  "name": "{T37_PD}",\n'
    '  "components": 1,\n'
    '  "homfly": "12*v^12 + -16*v^14 + 5*v^16 + 66*v^12*z^2 + -60*v^14*z^2'
    " + 10*v^16*z^2 + 132*v^12*z^4 + -78*v^14*z^4 + 6*v^16*z^4 + 121*v^12*z^6"
    " + -44*v^14*z^6 + 1*v^16*z^6 + 55*v^12*z^8 + -11*v^14*z^8 + 12*v^12*z^10"
    ' + -1*v^14*z^10 + 1*v^12*z^12",\n'
    '  "conway": "1 + 16*z^2 + 60*z^4 + 78*z^6 + 44*z^8 + 11*z^10 + 1*z^12",\n'
    '  "p0": "12*v^12 + -16*v^14 + 5*v^16",\n'
    '  "a2": 16,\n'
    '  "a4": 60\n'
    "}\n"
)
LINK3_PD = closed_braid([1, 1, 2, 2, -1, -1, 2, 2], 3).pd_text()
LINK3_STDOUT = (
    "{\n"
    f'  "name": "{LINK3_PD}",\n'
    '  "components": 3,\n'
    '  "homfly": "1*v^2*z^-2 + -2*v^4*z^-2 + 1*v^6*z^-2 + 3*v^2 + -4*v^4 + 1*v^6'
    ' + 2*v^2*z^2 + -3*v^4*z^2 + 1*v^6*z^2 + -1*v^4*z^4",\n'
    '  "conway": "-1*z^4",\n'
    '  "p0": "1 + -2*v^2 + 1*v^4"\n'
    "}\n"
)


def test_one_skein_query_per_command(capsys, monkeypatch):
    """`invariants` and `montesinos` read Conway and p0 off one HOMFLY query,
    and print what the three separate queries printed; loading the census
    for a named knot makes no query."""
    calls = []
    for name in ("homfly", "conway", "p0"):
        original = getattr(SkeinEngine, name)

        def counted(self, d, _name=name, _original=original):
            calls.append(_name)
            return _original(self, d)

        monkeypatch.setattr(SkeinEngine, name, counted)
    for argv, stdout in (
        (["invariants", T37_PD], T37_STDOUT),
        (["invariants", LINK3_PD], LINK3_STDOUT),
        (["montesinos", "--desc=-2/3,2,1/2"], None),
        (["invariants", "3_1"], None),
    ):
        calls.clear()
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert calls == ["homfly"], argv
        if stdout is not None:
            assert out == stdout
