import os
import subprocess
import sys

import pytest

from clasptools.diagram import Diagram, parse_pd
from clasptools.laurent import UNLINK_FACTOR, LaurentPoly, extract_p_i
from clasptools.skein import BudgetExceededError, SkeinEngine
from clasptools.tangle import closed_braid

from oracle import conway_bruteforce, homfly_bruteforce, p0_bruteforce

P = LaurentPoly.parse

TREFOIL = parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]")
FIG8 = parse_pd("PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]")
HOPF_POS = parse_pd("PD[X[1,4,2,3],X[3,2,4,1]]")

# One engine, and one memo, for the queries of this module.
ENGINE = SkeinEngine()
homfly, conway, p0 = ENGINE.homfly, ENGINE.conway, ENGINE.p0


def test_homfly_frozen_values():
    # Expected values computed with the brute-force oracle and checked
    # against the standard tables.
    assert homfly(Diagram.unknot()) == P("1")
    assert homfly(TREFOIL) == P("2*v^2 + -1*v^4 + 1*v^2*z^2")
    assert homfly(FIG8) == P("1*v^-2 + -1 + 1*v^2 + -1*z^2")
    assert homfly(HOPF_POS) == P("1*v*z^-1 + -1*v^3*z^-1 + 1*v*z")
    assert homfly(TREFOIL.mirror()) == P("2*v^-2 + -1*v^-4 + 1*v^-2*z^2")


def test_unlink_homfly():
    u = LaurentPoly({(-1, -1): 1, (1, -1): -1})
    for k in range(1, 5):
        assert homfly(Diagram((), k)) == u ** (k - 1)


def test_conway_frozen_values():
    assert conway(TREFOIL) == P("1 + 1*z^2")
    assert conway(FIG8) == P("1 + -1*z^2")
    assert conway(Diagram((), 2)).is_zero()
    assert conway(TREFOIL.connected_sum(TREFOIL)) == P("1 + 2*z^2 + 1*z^4")
    assert conway(TREFOIL.connected_sum(FIG8)) == P("1 + -1*z^4")
    assert conway(FIG8.connected_sum(FIG8)) == P("1 + -2*z^2 + 1*z^4")
    assert conway(TREFOIL.connected_sum(TREFOIL.mirror())) == P("1 + 2*z^2 + 1*z^4")


def test_p0_frozen_values():
    assert p0(Diagram.unknot()) == P("1")
    assert p0(Diagram((), 3)) == P("1*v^-4 + -2*v^-2 + 1")
    assert p0(HOPF_POS) == P("1 + -1*v^2")  # (v^-2 - 1) v^2
    assert p0(TREFOIL) == P("2*v^2 + -1*v^4")


def test_conway_coefficients():
    eng = SkeinEngine()
    assert eng.conway_coefficients(TREFOIL.connected_sum(TREFOIL)) == (2, 1)
    assert eng.conway_coefficients(FIG8) == (-1, 0)
    assert eng.conway_coefficients(Diagram.unknot()) == (0, 0)
    with pytest.raises(ValueError):
        eng.conway_coefficients(HOPF_POS)


def test_switching_trefoil_unknots_it():
    assert homfly(TREFOIL.switch_crossing(0)) == P("1")


def test_multiplicativity_under_connected_sum():
    for a in (TREFOIL, FIG8):
        for b in (TREFOIL, FIG8, TREFOIL.mirror()):
            assert homfly(a.connected_sum(b)) == homfly(a) * homfly(b)


def test_figure_eight_amphichiral():
    assert homfly(FIG8.mirror()) == homfly(FIG8)


def test_agreement_with_bruteforce_oracle():
    diagrams = [
        Diagram.unknot(),
        TREFOIL,
        FIG8,
        HOPF_POS,
        HOPF_POS.mirror(),
        TREFOIL.connected_sum(FIG8),
        TREFOIL.smooth_crossing(1),
        FIG8.smooth_crossing(2),
    ]
    eng = SkeinEngine()
    for d in diagrams:
        assert eng.homfly(d) == homfly_bruteforce(d)
        assert eng.conway(d) == conway_bruteforce(d)
        assert eng.p0(d) == p0_bruteforce(d)


def test_conway_is_homfly_at_v_1():
    for d in (TREFOIL, FIG8, HOPF_POS, TREFOIL.connected_sum(TREFOIL)):
        assert homfly(d).substitute_v(1) == conway(d)


def test_p0_is_extracted_homfly_coefficient():
    for d in (TREFOIL, FIG8, HOPF_POS, Diagram((), 2), TREFOIL.smooth_crossing(0)):
        assert p0(d) == extract_p_i(homfly(d), d.num_components, 0)


def test_p0_mirror_inverts_v():
    for d in (TREFOIL, FIG8, TREFOIL.connected_sum(TREFOIL)):
        assert p0(d.mirror()) == p0(d).invert_v()


def test_p0_split_union_formula():
    factor = LaurentPoly({(-2, 0): 1, (0, 0): -1})
    for a in (TREFOIL, FIG8):
        for b in (TREFOIL, HOPF_POS):
            u = a.disjoint_union(b)
            assert p0(u) == factor * p0(a) * p0(b)
            assert conway(u).is_zero()


def test_skein_relation_at_every_crossing():
    vinv = LaurentPoly.term(1, ev=-1)
    v = LaurentPoly.term(1, ev=1)
    z = LaurentPoly.term(1, ez=1)
    for d in (TREFOIL, FIG8, HOPF_POS):
        for k in range(d.num_crossings):
            pos = d if d.signs[k] > 0 else d.switch_crossing(k)
            neg = d.switch_crossing(k) if d.signs[k] > 0 else d
            sm = d.smooth_crossing(k)
            assert vinv * homfly(pos) - v * homfly(neg) == z * homfly(sm)


def test_simplify_preserves_homfly():
    kinked = Diagram._trusted([(3, 1, 4, 2), (4, 2, 3, 1)], (1, 1), 0)
    assert homfly(kinked) == homfly(kinked.simplify())
    for d in (TREFOIL, FIG8):
        assert homfly(d.simplify()) == homfly(d)


def test_node_budget():
    eng = SkeinEngine(max_nodes=2)
    with pytest.raises(BudgetExceededError):
        eng.homfly(TREFOIL)


def test_negative_limits_are_rejected():
    with pytest.raises(ValueError, match="max_nodes must be >= 0, got -3"):
        SkeinEngine(max_nodes=-3)
    eng = SkeinEngine(max_nodes=0)
    with pytest.raises(BudgetExceededError):
        eng.homfly(TREFOIL)


def test_node_budget_is_per_query():
    eng = SkeinEngine(max_nodes=157)
    eng.homfly(closed_braid([1, 2] * 7, 3))  # T(3,7): exactly 157 nodes
    assert eng.nodes_used == 157
    assert eng.homfly(FIG8) == homfly(FIG8)  # a fresh query, a fresh budget
    assert eng.nodes_used > 157  # the count itself stays cumulative


@pytest.mark.parametrize("word, strands, nodes", [
    ([1, 2] * 7, 3, 157),  # T(3,7)
    ([1, 2, 3] * 5, 4, 267),  # T(4,5)
    ([1] * 14, 2, 27),  # T(2,14)
    ([1] * 61, 2, 121),  # T(2,61)
])
def test_pinned_node_counts(word, strands, nodes):
    # Node counts depend on which diagrams share a memo key and on the
    # order of Reidemeister moves in simplify; both are meant to stay put.
    eng = SkeinEngine()
    eng.homfly(closed_braid(word, strands))
    assert eng.nodes_used == nodes


def test_split_link_of_ten_components():
    five = HOPF_POS
    for _ in range(4):
        five = five.disjoint_union(HOPF_POS)
    assert five.num_components == 10
    assert homfly(five) == homfly(HOPF_POS) ** 5 * UNLINK_FACTOR ** 4


def test_memo_reuse():
    eng = SkeinEngine()
    eng.homfly(TREFOIL)
    n1 = eng.nodes_used
    eng.homfly(TREFOIL)
    assert eng.nodes_used == n1 + 1  # one node: cache hit at the root


def test_memo_cap_drops_oldest_entries(monkeypatch):
    t37 = closed_braid([1, 2] * 7, 3)
    expect = SkeinEngine().homfly(t37)
    monkeypatch.setattr("clasptools.skein._MEMO_CAP", 4)
    eng = SkeinEngine()
    assert eng.homfly(t37) == expect
    assert len(eng._memo) == 4


def test_conway_and_p0_are_read_off_the_memoized_homfly():
    for d in (TREFOIL, FIG8, HOPF_POS, TREFOIL.connected_sum(FIG8)):
        eng = SkeinEngine()
        eng.homfly(d)
        n = eng.nodes_used
        eng.conway(d)
        assert eng.nodes_used == n + 1  # one node: memo hit at the root
        eng.p0(d)
        assert eng.nodes_used == n + 2


def test_engine_leaves_recursion_limit_alone():
    code = (
        "import sys; before = sys.getrecursionlimit(); import clasptools; "
        "clasptools.SkeinEngine(); assert sys.getrecursionlimit() == before"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=_child_env())


def test_deep_recursion_needs_no_python_stack():
    # A recursive walk of the skein tree of T(2,41) overflows a recursion
    # limit of 30; the engine keeps its own stack.
    code = (
        "import sys; from clasptools import SkeinEngine, closed_braid; "
        "eng = SkeinEngine(); d = closed_braid([1] * 41, 2); "
        "sys.setrecursionlimit(30); print(eng.conway(d).to_text())"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=_child_env()).stdout
    assert out.startswith("1 + 210*z^2 + 7315*z^4 + 100947*z^6 + ")


def _child_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_switching_any_trefoil_crossing_unknots_it():
    for k in range(TREFOIL.num_crossings):
        assert homfly(TREFOIL.switch_crossing(k)) == P("1")


def test_mirror_figure_eight_has_census_homfly():
    assert homfly(FIG8.mirror()) == homfly(FIG8)


def test_simplify_preserves_homfly_on_census():
    from clasptools.census import load_census

    for name, d in sorted(load_census().items()):
        assert homfly(d.simplify()) == homfly(d), name


def test_p0_mirror_rule_on_census():
    from clasptools.census import load_census

    for name, d in sorted(load_census().items()):
        assert p0(d.mirror()) == p0(d).invert_v(), name
