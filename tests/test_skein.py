import hashlib
import json
import os
import subprocess
import sys
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clasptools.census import load_census, load_exceptional
from clasptools.diagram import Diagram, parse_pd
from clasptools.laurent import UNLINK_FACTOR, LaurentPoly, extract_p_i
from clasptools.skein import BudgetExceededError, SkeinEngine
from clasptools.tangle import (
    ExtendedRational,
    MontesinosDesc,
    _emit,
    closed_braid,
    closure_tangle,
    insert_clasp,
    montesinos_diagram,
    pretzel_diagram,
    rational_tangle,
    tangle_faces,
    tangle_sum,
    theorem1_catalog,
)

from oracle import (P, conway_bruteforce, homfly_bruteforce, homfly_hecke, homfly_matches_jones,
                    jones_bracket, p0_bruteforce)
from strategies import braid_closures, listed

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
    assert not conway(Diagram((), 2))
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
            assert not conway(u)


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
    # FIG8 takes 3 nodes: a budget of 2 stops it and one of 3 answers.
    with pytest.raises(BudgetExceededError):
        SkeinEngine(max_nodes=2).homfly(FIG8)
    eng = SkeinEngine(max_nodes=3)
    assert eng.homfly(FIG8) == homfly(FIG8)
    assert eng.nodes_used == 3


def test_negative_limits_are_rejected():
    with pytest.raises(ValueError, match="max_nodes must be >= 0, got -3"):
        SkeinEngine(max_nodes=-3)
    eng = SkeinEngine(max_nodes=0)
    with pytest.raises(BudgetExceededError):
        eng.homfly(TREFOIL)


def test_node_budget_is_per_query():
    eng = SkeinEngine(max_nodes=121)
    eng.homfly(closed_braid([1, 2] * 7, 3))  # T(3,7): exactly 121 nodes
    assert eng.nodes_used == 121
    assert eng.homfly(FIG8) == homfly(FIG8)  # a fresh query, a fresh budget
    assert eng.nodes_used > 121  # the count itself stays cumulative


@pytest.mark.parametrize("word, strands, nodes", [
    ([1, 2] * 7, 3, 121),  # T(3,7)
    ([1, 2, 3] * 5, 4, 181),  # T(4,5)
    ([1] * 14, 2, 1),  # T(2,14), a closed-twist leaf
    ([1] * 61, 2, 1),  # T(2,61)
])
def test_pinned_node_counts(word, strands, nodes):
    # Node counts depend on which diagrams share a memo key, on the order
    # of Reidemeister moves in simplify and on the twist regions the skein
    # takes whole; all are meant to stay put.
    eng = SkeinEngine()
    eng.homfly(closed_braid(word, strands))
    assert eng.nodes_used == nodes


def test_pinned_catalog_traversal():
    # The 108 diagrams of theorem1_catalog(6): nodes with a fresh engine per
    # diagram, and the memo keys one engine keeps for all of them.  A change
    # to simplify, the canonical code or the surgery that moves either one
    # changes which diagrams the skein visits.
    entries = theorem1_catalog(6, load_census(), load_exceptional())
    diagrams = [e.diagram for e in entries if e.diagram is not None]
    assert len(diagrams) == 108
    total = 0
    for d in diagrams:
        eng = SkeinEngine()
        eng.homfly(d)
        total += eng.nodes_used
    assert total == 2404
    eng = SkeinEngine()
    for d in diagrams:
        eng.homfly(d)
    keys = "\n".join(sorted(eng._memo)).encode()
    assert hashlib.sha256(keys).hexdigest() == (
        "2066a8bda37756c3f23dd246eb1c1829286cad4d1daf2a0dc332858fafb84890")


def test_pinned_braid_links_pool():
    # Every PD of the benchmark's braid_links pool (read only), a fresh
    # engine each: the HOMFLY text matches the frozen answer wherever the
    # pool records no known defect, and the nodes add up as pinned.
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "data", "braid_links.json")
    with open(path) as f:
        data = json.load(f)
    queries = data["fixed"] + data["pool"]
    assert len(queries) == 642
    total, wrong, keys = 0, [], hashlib.sha256()
    for q in queries:
        eng = SkeinEngine()
        text = eng.homfly(parse_pd(q["pd"])).to_text()
        total += eng.nodes_used
        if q["known_defect"] is None and text != q["expect"]["homfly"]:
            wrong.append(q["id"])
        for key in eng._memo:  # in insertion order, the order nodes finish
            keys.update(key.encode() + b"\n")
    assert not wrong, wrong
    assert total == 10444
    assert keys.hexdigest() == (
        "97820defeb272e64703aacafa0e91fc7623bbb5fd92ddaa41a81cae276276895")


def _traversal(d):
    eng = SkeinEngine()
    return eng.homfly(d), eng.nodes_used, d.simplify().canonical_code()


@given(braid_closures(4, 10).flatmap(
    lambda d: st.tuples(st.just(d), st.permutations(range(d.num_crossings)))))
@example((closed_braid([2, -2, 3, -2, -3, 2, 2, -3, 1, -2], 4), [1, 2, 8, 6, 7, 0, 9, 4, 3, 5]))
@settings(max_examples=100, deadline=None)
def test_traversal_ignores_crossing_order(listing):
    # Simplify ranks crossings by arc label, so how a diagram's crossings
    # are listed changes neither the skein's nodes nor the simplified core.
    d, order = listing
    assert _traversal(listed(d, order)) == _traversal(d)


def test_split_link_of_ten_components():
    five = HOPF_POS
    for _ in range(4):
        five = five.disjoint_union(HOPF_POS)
    assert five.num_components == 10
    assert homfly(five) == homfly(HOPF_POS) ** 5 * UNLINK_FACTOR ** 4


def test_memo_reuse():
    # FIG8 is keyed; a closed twist such as TREFOIL is a leaf and no entry.
    eng = SkeinEngine()
    eng.homfly(FIG8)
    assert eng._memo
    n1 = eng.nodes_used
    eng.homfly(FIG8)
    assert eng.nodes_used == n1 + 1  # one node: cache hit at the root


def test_memo_cap_drops_oldest_entries(monkeypatch):
    t37 = closed_braid([1, 2] * 7, 3)
    expect = SkeinEngine().homfly(t37)
    monkeypatch.setattr("clasptools.skein._MEMO_CAP", 4)
    eng = SkeinEngine()
    assert eng.homfly(t37) == expect
    assert len(eng._memo) == 4


def test_conway_and_p0_are_read_off_the_memoized_homfly():
    for d in (FIG8, closed_braid([1, 2] * 7, 3), TREFOIL.connected_sum(FIG8)):
        eng = SkeinEngine()
        eng.homfly(d)
        assert eng._memo
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


# -- twist step, closed-twist leaf and lift against the oracles --------------

@st.composite
def twisted_braids(draw, lengths=(20, 40), runs=(1, 12)):
    """(word, strands): 2-5 strands, runs sigma_i^(+-k) with k in ``runs``."""
    n = draw(st.integers(2, 5))
    gens = [s * i for i in range(1, n) for s in (1, -1)]
    length = draw(st.integers(*lengths))
    word = []
    while len(word) < length:
        word += [draw(st.sampled_from(gens))] * draw(st.integers(*runs))
    return word[:length], n


@given(twisted_braids())
@settings(max_examples=60, deadline=None)
def test_twist_runs_match_hecke_oracle(braid):
    word, n = braid
    assert SkeinEngine().homfly(closed_braid(word, n)) == homfly_hecke(word, n)


small_fractions = st.builds(ExtendedRational, st.integers(-5, 5), st.integers(1, 3))
small_twisted_diagrams = st.one_of(
    twisted_braids(lengths=(6, 9), runs=(3, 6)).map(lambda b: closed_braid(*b)),
    st.lists(st.integers(-5, 5), min_size=1, max_size=3).map(lambda t: pretzel_diagram(*t)),
    st.tuples(small_fractions, small_fractions, small_fractions).map(
        lambda rs: montesinos_diagram(MontesinosDesc(rs))),
).filter(lambda d: d.num_crossings <= 9)


@given(small_twisted_diagrams)
@settings(max_examples=50, deadline=None)
def test_twisted_diagrams_match_bruteforce_oracle(d):
    assert SkeinEngine().homfly(d) == homfly_bruteforce(d)


wide_fractions = st.builds(ExtendedRational, st.integers(-11, 11), st.integers(1, 7))


@st.composite
def clasped_diagrams(draw):
    """A clasp laid across a face of the closed sum of 1-3 rational tangles."""
    parts = draw(st.lists(wide_fractions, min_size=1, max_size=3))
    t = closure_tangle(reduce(tangle_sum, map(rational_tangle, parts)))
    choices = [(da, db) for f in tangle_faces(t) for i, da in enumerate(f)
               for db in f[i + 1:] if db not in (da, t.pair[da])]
    assume(choices)
    da, db = draw(st.sampled_from(choices))
    return _emit(insert_clasp(t, da, db, draw(st.sampled_from([1, -1]))))


montesinos_knots = st.tuples(wide_fractions, wide_fractions, wide_fractions).map(
    lambda rs: montesinos_diagram(MontesinosDesc(rs)))
mid_size_diagrams = st.one_of(
    st.lists(st.integers(-9, 9), min_size=2, max_size=5).map(lambda t: pretzel_diagram(*t)),
    montesinos_knots,
    clasped_diagrams(),
    st.tuples(montesinos_knots, montesinos_knots).filter(
        lambda ds: ds[0].num_components == ds[1].num_components == 1).map(
        lambda ds: ds[0].connected_sum(ds[1])),
).filter(lambda d: 15 <= d.num_crossings <= 30)


@given(mid_size_diagrams)
@settings(max_examples=60, deadline=None)
def test_jones_bracket_matches_skein_on_non_braided_diagrams(d):
    # The bracket shares no code with the skein; on these diagrams the
    # skein's twist steps and closed-twist leaves fire.
    assert homfly_matches_jones(SkeinEngine().homfly(d), jones_bracket(d))


@given(st.tuples(montesinos_knots, braid_closures(4, 15, min_strands=3, min_len=9)).map(
    lambda mb: mb[0].disjoint_union(mb[1])).filter(lambda d: 15 <= d.num_crossings <= 30))
@settings(max_examples=40, deadline=None)
def test_jones_bracket_matches_skein_on_split_unions(d):
    # A braid closure split off a Montesinos diagram: on about a quarter of
    # these the skein lifts off a leading component that lies descending.
    assert homfly_matches_jones(SkeinEngine().homfly(d), jones_bracket(d))


@given(twisted_braids(lengths=(40, 60), runs=(1, 4)))
@settings(max_examples=30, deadline=None)
def test_jones_bracket_matches_hecke_on_long_words(braid):
    word, n = braid
    assert homfly_matches_jones(homfly_hecke(word, n), jones_bracket(closed_braid(word, n)))


def test_closed_twists_follow_the_twist_recurrence():
    # T(2, n) = closure of sigma^n: P_0 is the 2-unlink, P_1 the unknot and
    # P_n = v^2s P_n-2 + s v^s z P_n-1; each is one node, a leaf.
    for s in (1, -1):
        prev, cur = UNLINK_FACTOR, P("1")
        for n in range(1, 62):
            eng = SkeinEngine()
            assert eng.homfly(closed_braid([s] * n, 2)) == cur, (s, n)
            assert eng.nodes_used == 1 and not eng._memo
            if n <= 12:
                assert cur == homfly_hecke([s] * n, 2)
            prev, cur = cur, prev.shift(2 * s, 0) + cur.shift(s, 1, s)


def _first(d, ci):
    """d relabelled so that component ci comes first."""
    comps = d.components
    order = [e for c in (comps[ci],) + comps[:ci] + comps[ci + 1:] for e in c]
    label = {e: i for i, e in enumerate(order, 1)}
    return Diagram([tuple(label[e] for e in q) for q in d.crossings], d.free_loops)


@pytest.mark.parametrize("p, q", [(2, 2), (2, 3), (3, 4)])
def test_a_descending_first_component_is_lifted_off(p, q):
    # An unknot A that passes over two strands, between a twist of them
    # before and after it; after relabelling A is the first component, over
    # all four of its crossings, so the skein lifts it off as a split unknot
    # and what is left is T(2, p + q), a leaf.
    word = [2] * p + [1, 2] + [1] * q + [-2, -1]
    d = closed_braid(word, 3)
    a = next(ci for ci, c in enumerate(d.components) if len(c) == 4)
    d = _first(d, a)
    assert d.simplify().num_crossings == p + q + 4
    eng = SkeinEngine()
    got = eng.homfly(d)
    assert eng.nodes_used == 1
    assert got == homfly_hecke(word, 3)
    assert got == UNLINK_FACTOR * homfly(closed_braid([1] * (p + q), 2))
