import json
from pathlib import Path

import pytest

from clasptools.census import CensusError, load_census, load_exceptional
from clasptools.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNKNOWN_NAME,
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
    missing = tmp_path / "nonexistent.cfg"
    code, out, err = run(capsys, "--config", str(missing), "openbook", "--triple=1,2,3")
    assert code == EXIT_ERROR and out == ""
    assert err.startswith(f"error: cannot read config {missing}: ")
    code, _, err = run(capsys, "corollary12")
    assert code == EXIT_ERROR and "missing required entries" in err
    missing = tmp_path / "nonexistent.tsv"
    code, out, err = run(capsys, "--exceptional", str(missing), "catalog")
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: exceptional file not found: {missing}\n"
    cfg = tmp_path / "clasptools.cfg"
    cfg.write_text("max-cosets=-5\n")  # the open-book search has no budget
    for mode in ("--triple=-3,5,7", "--scan=1"):
        code, out, err = run(capsys, "--config", str(cfg), "openbook", mode)
        assert code == EXIT_ERROR and out == ""
        assert err == f"error: {cfg}:1: unknown key 'max-cosets'\n"
    for triple in ("1,2", "1,2,3,4", "a,b,c"):
        code, out, err = run(capsys, "openbook", f"--triple={triple}")
        assert code == EXIT_ERROR and out == ""
        assert err == "error: --triple takes three integers a,b,c\n"
    # Usage errors exit 1: exit 2 names an unknown census name.
    code, out, err = run(capsys, "--jobs=2", "invariants", "3_1")
    assert code == EXIT_ERROR and out == ""
    assert "unrecognized arguments: --jobs=2" in err
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
    for flag, kind in (("--census", "census file"), ("--config", "config")):
        code, out, err = run(capsys, flag, str(latin1), "invariants", "3_1")
        assert code == EXIT_ERROR and out == ""
        assert err.startswith(f"error: cannot read {kind} {latin1}: 'utf-8' codec")
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


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "catalog", "--n-bound", "0")
    assert code == EXIT_OK
    rows = json.loads(out)
    families = {r["family"] for r in rows}
    assert families == {"i", "ii", "iii", "iv"}
    for r in rows:
        if "pd" in r:
            assert r["a4"] in (1, -1)


def test_openbook_commands(capsys):
    code, out, _ = run(capsys, "openbook", "--triple=-1,2,3")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "trivial-pi1"
    code, out, _ = run(capsys, "openbook", "--scan", "1")
    assert code == EXIT_OK
    rows = json.loads(out)
    named = {tuple(r["triple"]): r.get("fibered_link") for r in rows}
    assert named[(0, 1, 1)] == "H+#H+"


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "clasptools.cfg"
    cfg.write_text("node-budget=3\n")
    code, _, _ = run(capsys, "--config", str(cfg), "invariants", "6_2")
    assert code == EXIT_BUDGET
    # flags override the file
    code, _, _ = run(capsys, "--config", str(cfg), "--node-budget", "10000000",
                     "invariants", "6_2")
    assert code == EXIT_OK


def test_config_rejects_non_integer_values(tmp_path, capsys):
    cfg = tmp_path / "clasptools.cfg"
    cfg.write_text("# limits\nbound=abc\n")
    code, out, err = run(capsys, "--config", str(cfg), "clasp-obstruct", "--a2", "2", "--a4", "1")
    assert code == EXIT_ERROR and out == ""
    assert err == f"error: {cfg}:2: bound needs an integer, got 'abc'\n"
    cfg.write_text("memo-capacity=-1\n")
    code, out, err = run(capsys, "--config", str(cfg), "invariants", "3_1")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: memo_capacity must be >= 0, got -1\n"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    # deg-bound and coeff-bound set nothing any command reads.
    for key in ("deg-bound", "coeff-bound"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key}=6\n")
        code, out, err = run(capsys, "--config", str(cfg), "invariants", "3_1")
        assert code == EXIT_ERROR and out == ""
        assert f"unknown key {key!r}" in err


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


def test_load_exceptional_absent_and_valid(tmp_path):
    assert load_exceptional() == []  # the default file is not shipped
    with pytest.raises(CensusError, match="exceptional file not found"):
        load_exceptional(str(tmp_path / "nope.tsv"))
    f = tmp_path / "ex.tsv"
    f.write_text("Kex1\t1\t-1\tPD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]\n")
    out = load_exceptional(str(f))
    assert len(out) == 1 and out[0].eps1 == 1 and out[0].eps2 == -1
    f.write_text("Kex1\t2\t1\tPD[]\n")
    with pytest.raises(CensusError, match="signs"):
        load_exceptional(str(f))
    # A sign that is not an integer names the file and line too.
    f.write_text("# header\nKex1\tx\t1\tPD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]\n")
    with pytest.raises(CensusError) as err:
        load_exceptional(str(f))
    assert str(err.value) == f"{f}:2: clasp signs must be +1 or -1"


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
        assert abs(nabla.eval_z_squared(-4).coefficient(0, 0)) == det, name
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
