import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clasptools.census import load_census
from clasptools.diagram import Diagram, DiagramError, _Builder, parse_pd
from clasptools.skein import SkeinEngine
from clasptools.tangle import closed_braid

from oracle import (
    canonical_code_bruteforce,
    linking_number,
    pd_code_is_valid,
    simplify_restart_scan,
)

TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
FIG8 = "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]"
HOPF_POS = "PD[X[1,4,2,3],X[3,2,4,1]]"
HOPF_NEG = "PD[X[1,3,2,4],X[3,1,4,2]]"


def test_parse_trefoil():
    d = parse_pd(TREFOIL)
    assert d.num_crossings == 3
    assert d.signs == (1, 1, 1)
    assert d.num_components == 1
    assert sum(d.signs) == 3


def test_parse_unknot_and_loops():
    u = parse_pd("PD[]")
    assert u.num_components == 1 and u.free_loops == 1
    uu = parse_pd("PD[U,U]")
    assert uu.num_components == 2


def test_diagram_guards():
    d = parse_pd(TREFOIL)
    with pytest.raises(AttributeError, match="Diagram is immutable"):
        d.free_loops = 2
    with pytest.raises(DiagramError, match="negative free loop count"):
        Diagram((), free_loops=-1)


def test_trusted_rejects_corrupt_surgery_output():
    # Surgery output skips the PD parser's checks, and Diagram._trusted
    # still rejects a bad arc table.  The first fault is named, crossing by
    # crossing and then ports 0, 2, over-in, over-out.  The bases are the
    # trefoil with negative crossings (over-in at port 3) and its mirror
    # (over-in at port 1).
    neg = ((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2))
    pos = ((4, 1, 5, 2), (6, 3, 1, 4), (2, 5, 3, 6))
    for quads, sign in ((neg, -1), (pos, 1)):
        assert Diagram._trusted(quads, [sign] * 3, 0).components == ((1, 2, 3, 4, 5, 6),)
    cases = [
        ([(1, 5, 2, 7), (3, 1, 4, 6), (5, 3, 6, 2)], -1, 0, "edge label 7 outside 1..6"),
        ([(0, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2)], -1, 0, "edge label 0 outside 1..6"),
        ([(4, 1, 5, 2), (6, 8, 1, 4), (2, 5, 3, 6)], 1, 0, "edge label 8 outside 1..6"),
        ([(1, 5, 2, 4), (1, 3, 4, 6), (5, 3, 6, 2)], -1, 0,
         "edge 1 enters two different crossings"),
        ([(4, 1, 5, 2), (6, 1, 1, 4), (2, 5, 3, 6)], 1, 0,
         "edge 1 enters two different crossings"),
        ([(1, 5, 2, 4), (3, 1, 2, 6), (5, 3, 6, 4)], -1, 0,
         "edge 2 leaves two different crossings"),
        # Two faults in crossing 1: edge 2 again at port 2, label 9 at port 3.
        ([(1, 5, 2, 4), (3, 1, 2, 9), (5, 3, 6, 2)], -1, 0,
         "edge 2 leaves two different crossings"),
        ([(1, 5, 3, 4), (2, 1, 4, 6), (5, 2, 6, 3)], -1, 0,
         "edge labels not consecutive along a component (succ(1) = 3)"),
        (neg, -1, -1, "negative free loop count"),
    ]
    for quads, sign, free_loops, message in cases:
        with pytest.raises(DiagramError) as err:
            Diagram._trusted(quads, [sign] * len(quads), free_loops)
        assert str(err.value) == message


def test_degenerate_kinks_are_accepted():
    # Chosen behavior: both one-crossing kink codes are valid unknot
    # diagrams, with the sign pinned by the successor structure.
    assert parse_pd("PD[X[1,1,2,2]]").signs == (-1,)
    assert parse_pd("PD[X[1,2,2,1]]").signs == (1,)


def test_parse_errors():
    with pytest.raises(DiagramError):
        parse_pd("PD[X[1,2,3]]")
    with pytest.raises(DiagramError, match=r"^edge labels \[1, 2\] do not appear exactly twice$"):
        parse_pd("PD[X[1,1,1,2]]")  # label 1 thrice
    with pytest.raises(DiagramError):
        parse_pd("PD[X[1,2,4,3],X[3,4,2,1]]")  # no consistent orientation
    with pytest.raises(DiagramError, match="^not a planar diagram"):
        # A one-edge loop through a crossing's over strand separates its two
        # under ports: not planar.
        parse_pd("PD[X[1,2,1,2]]")
    with pytest.raises(DiagramError, match=r"^edge label 0 outside 1\.\.2$"):
        parse_pd("PD[X[0,0,0,0]]")
    for code in ("PD[U,]", "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3],]"):
        # Every comma must be followed by a token; a trailing one is named.
        with pytest.raises(DiagramError, match=r"^PD code ends with ','$"):
            parse_pd(code)
    with pytest.raises(DiagramError, match=r"^bad PD token at ','$"):
        parse_pd("PD[,]")
    for code in ("PD[X[3,2,1,1],X[4,2,4,3]]", "PD[X[3,1,4,2],X[4,2,3,1]]"):
        # Two crossings, four edges and two faces: V - E + F = 0, not 2.
        with pytest.raises(DiagramError, match="not a planar diagram"):
            parse_pd(code)
    with pytest.raises(DiagramError):
        parse_pd("notapd")
    # The message names the side with two ports: edge 1 is the under-in
    # strand of both crossings; edge 2 leaves both at port 2 and enters none.
    with pytest.raises(DiagramError, match="^edge 1 enters two different crossings$"):
        parse_pd("PD[X[1,3,2,4],X[1,4,2,3]]")
    with pytest.raises(DiagramError, match="^edge 2 leaves two different crossings$"):
        parse_pd("PD[X[1,1,2,3],X[4,4,2,3]]")


@st.composite
def random_codes(draw):
    """1-4 crossings, each label 1..2n placed twice; sometimes one bad label."""
    n = draw(st.integers(1, 4))
    labels = draw(st.permutations([e for e in range(1, 2 * n + 1) for _ in range(2)]))
    if draw(st.booleans()):
        labels[draw(st.integers(0, 4 * n - 1))] = draw(st.integers(0, 2 * n + 1))
    return [tuple(labels[4 * k:4 * k + 4]) for k in range(n)]


@given(random_codes())
@example([(2, 4, 1, 3), (1, 4, 2, 3)])  # a split over component: both directions valid
@example([(1, 2, 1, 2)])  # a one-edge over loop: not planar
@settings(max_examples=400, deadline=None)
def test_parse_pd_accepts_what_the_oracle_accepts(quads):
    # The oracle tries every over-strand direction; parse_pd infers one.
    valid = pd_code_is_valid(quads)
    text = "PD[" + ",".join("X[%d,%d,%d,%d]" % q for q in quads) + "]"
    try:
        d = parse_pd(text)
    except DiagramError:
        assert not valid
    else:
        assert d.signs in valid


def test_split_over_component_orientation_rule():
    # The positive Hopf link with crossing 0 switched: component {1, 2} is
    # over at both of its crossings, a split unknot whose labels leave its
    # direction open.  Edge 1, the lower label, enters the first crossing
    # (at its over-in port).
    d = parse_pd("PD[X[4,2,3,1],X[3,2,4,1]]")
    assert d.signs == (-1, 1) and d.incoming_at(1) == (0, 3)
    assert d.components == ((1, 2), (3, 4))
    reversed_reading = Diagram._trusted(d.crossings, (1, -1), 0)
    assert parse_pd(reversed_reading.pd_text()) == d
    eng = SkeinEngine()
    assert eng.homfly(reversed_reading) == eng.homfly(d) == eng.homfly(Diagram((), 2))


def test_components():
    assert parse_pd(TREFOIL).components == ((1, 2, 3, 4, 5, 6),)
    h = parse_pd(HOPF_NEG)
    assert len(h.components) == 2
    g = parse_pd(TREFOIL).connected_sum(parse_pd(TREFOIL))
    assert g.num_components == 1 and g.num_crossings == 6


def test_linking_number():
    hp = parse_pd(HOPF_POS)
    assert hp.signs == (1, 1)
    assert linking_number(hp, 0, 1) == linking_number(hp, 1, 0) == 1
    assert linking_number(hp.mirror(), 0, 1) == -1
    assert linking_number(Diagram((), 2), 0, 1) == 0


def test_switch_crossing():
    t = parse_pd(TREFOIL)
    sw = t.switch_crossing(0)
    assert sw.signs == (-1, 1, 1)
    assert sw.switch_crossing(0).canonical_code() == t.canonical_code()
    hp = parse_pd(HOPF_POS)
    hm = hp.switch_crossing(0).switch_crossing(1)
    assert linking_number(hm, 0, 1) == -1
    with pytest.raises(IndexError):
        t.switch_crossing(3)


def test_smooth_crossing():
    t = parse_pd(TREFOIL)
    s = t.smooth_crossing(0)
    assert s.num_components == 2  # trefoil smooths to a Hopf link
    assert s.num_crossings == 2
    hp = parse_pd(HOPF_POS)
    assert hp.smooth_crossing(0).num_components == 1
    for d in (t, parse_pd(FIG8), hp):
        for k in range(d.num_crossings):
            assert abs(d.smooth_crossing(k).num_components - d.num_components) == 1


def test_connected_sum_and_mirror():
    t = parse_pd(TREFOIL)
    f8 = parse_pd(FIG8)
    assert t.connected_sum(f8).num_components == 1
    assert t.mirror().mirror().canonical_code() == t.canonical_code()
    assert t.connected_sum(Diagram.unknot()).canonical_code() == t.canonical_code()
    with pytest.raises(DiagramError):
        parse_pd(HOPF_POS).connected_sum(t)


def test_canonical_code():
    t = parse_pd(TREFOIL)
    rotated = parse_pd("PD[X[3,6,4,1],X[5,2,6,3],X[1,4,2,5]]")
    assert rotated.canonical_code() == t.canonical_code()
    assert parse_pd(FIG8).canonical_code() != t.canonical_code()
    assert Diagram((), 2).canonical_code() == Diagram((), 2).canonical_code()
    assert t.canonical_code() != t.mirror().canonical_code()


@given(st.integers(min_value=0, max_value=5))
@settings(max_examples=6, deadline=None)
def test_canonical_code_label_rotation(shift):
    t = parse_pd(TREFOIL)
    quads = [tuple((e + shift - 1) % 6 + 1 for e in q) for q in t.crossings]
    assert Diagram(quads).canonical_code() == t.canonical_code()


def _relabel(d, rnd):
    """Shuffle the component order, rotate labels within each component and
    shuffle the crossing list: a relabeling the canonical code ignores."""
    comps = list(d.components)
    rnd.shuffle(comps)
    new = {}
    nxt = 1
    for cyc in comps:
        r = rnd.randrange(len(cyc))
        for t in range(len(cyc)):
            new[cyc[(r + t) % len(cyc)]] = nxt + t
        nxt += len(cyc)
    items = [(tuple(new[e] for e in q), s) for q, s in zip(d.crossings, d.signs)]
    rnd.shuffle(items)
    return Diagram._trusted([q for q, _ in items], [s for _, s in items], d.free_loops)


@st.composite
def braid_closures(draw, max_strands=5, max_len=7):
    n = draw(st.integers(2, max_strands))
    letters = st.integers(1, n - 1).flatmap(lambda g: st.sampled_from([g, -g]))
    return closed_braid(draw(st.lists(letters, min_size=1, max_size=max_len)), n)


def _oracle_cost(d):
    return math.factorial(len(d.components)) * math.prod(len(c) for c in d.components)


@given(braid_closures(), st.one_of(st.none(), braid_closures(3, 4)), st.randoms())
@settings(max_examples=40, deadline=None)
def test_canonical_code_matches_bruteforce_classes(base, extra, rnd):
    if extra is not None:
        base = base.disjoint_union(extra)
    family = [base]
    for k in range(base.num_crossings):
        family += [base.smooth_crossing(k), base.switch_crossing(k)]
    family = [d for d in family if _oracle_cost(d) <= 2_000]
    assume(family)
    relabeled = [_relabel(d, rnd) for d in family]
    assert [d.canonical_code() for d in relabeled] == [d.canonical_code() for d in family]
    family += relabeled
    new = [d.canonical_code() for d in family]
    old = [canonical_code_bruteforce(d) for d in family]
    for i in range(len(family)):
        for j in range(i):
            assert (new[i] == new[j]) == (old[i] == old[j])


def test_canonical_code_has_no_component_cap():
    hopf = parse_pd(HOPF_POS)
    four = hopf
    for _ in range(3):
        four = four.disjoint_union(hopf)
    five = four.disjoint_union(hopf)
    assert five.num_components == 10
    assert _relabel(five, random.Random(0)).canonical_code() == five.canonical_code()
    one_mirrored = four.disjoint_union(hopf.mirror())
    assert one_mirrored.canonical_code() != five.canonical_code()


def _ties():
    """Diagrams whose pieces tie on many start edges."""
    pos = parse_pd(HOPF_POS)
    yield closed_braid([1] * 8, 2)  # T(2,8)
    yield closed_braid([1, 2] * 3, 3)  # T(3,3)
    yield closed_braid([1, 2] * 6, 3)  # T(3,6)
    yield closed_braid([1, 2, 3] * 4, 4)  # T(4,4)
    union = pos
    for _ in range(3):
        yield union.disjoint_union(pos.mirror())  # one Hopf link mirrored
        union = union.disjoint_union(pos)
        yield union


@pytest.mark.parametrize("seed", range(3))
def test_canonical_code_on_tied_start_edges(seed):
    rnd = random.Random(seed)
    for base in _ties():
        family = [base]
        for k in range(base.num_crossings):
            family += [base.smooth_crossing(k), base.switch_crossing(k)]
        relabeled = [_relabel(d, rnd) for d in family]
        assert [d.canonical_code() for d in relabeled] == [d.canonical_code() for d in family]
        family = [d for d in family + relabeled if _oracle_cost(d) <= 2_000]
        new = [d.canonical_code() for d in family]
        old = [canonical_code_bruteforce(d) for d in family]
        for i in range(len(family)):
            for j in range(i):
                assert (new[i] == new[j]) == (old[i] == old[j])


def test_pinned_memo_classes():
    # Node counts move when two diagrams stop or start sharing a memo key.
    census = load_census()
    cases = [(closed_braid([1, 2] * 7, 3), 121), (closed_braid([1, 2, 3] * 5, 4), 181)]
    for name, nodes in (("3_1", 1), ("4_1", 3), ("6_2", 3), ("6_3", 7), ("7_6", 7), ("7_7", 9)):
        cases.append((census[name], nodes))
    for d, nodes in cases:
        eng = SkeinEngine()
        eng.homfly(d)
        assert eng.nodes_used == nodes


def test_simplify():
    kink = parse_pd("PD[X[1,1,2,2]]")
    assert kink.simplify().num_crossings == 0
    assert kink.simplify().num_components == 1
    # R2 pair presenting the 2-unlink: the positive Hopf link with one
    # crossing switched.
    r2 = parse_pd("PD[X[4,2,3,1],X[3,2,4,1]]")
    s = r2.simplify()
    assert s.num_crossings == 0 and s.free_loops == 2
    t = parse_pd(TREFOIL)
    assert t.simplify().canonical_code() == t.canonical_code()


def test_simplify_without_a_move():
    # A diagram with no move keeps its labels; its crossings come back
    # sorted by under-in label, as the builder would emit them.
    t = parse_pd(TREFOIL)
    assert t.simplify() is t
    rotated = parse_pd("PD[X[3,6,4,1],X[5,2,6,3],X[1,4,2,5]]")
    s = rotated.simplify()
    assert s is not rotated and s == t
    for d in (t, rotated, parse_pd(FIG8), parse_pd(HOPF_NEG).disjoint_union(t)):
        s = d.simplify()
        assert s.num_crossings == d.num_crossings
        assert s == _Builder.from_diagram(d).to_diagram()


def _simplified(d):
    return d.crossings, d.signs, d.free_loops


@given(braid_closures(), st.one_of(st.none(), braid_closures(3, 4)))
@settings(max_examples=60, deadline=None)
def test_simplify_matches_restart_scan(base, extra):
    if extra is not None:
        base = base.disjoint_union(extra)
    family = [base]
    for k in range(base.num_crossings):
        family += [base.smooth_crossing(k), base.switch_crossing(k)]
    for d in family:
        assert _simplified(d.simplify()) == _simplified(simplify_restart_scan(d))


@given(braid_closures())
@settings(max_examples=60, deadline=None)
def test_pd_text_round_trip_closures(d):
    back = parse_pd(d.pd_text())
    assert back.crossings == d.crossings and back.free_loops == d.free_loops
    assert back.components == d.components
    eng = SkeinEngine()
    assert eng.homfly(back) == eng.homfly(d)


def test_inter_component_crossing_count_even():
    for text in (HOPF_POS, HOPF_NEG):
        d = parse_pd(text)
        for i in range(d.num_components):
            for j in range(d.num_components):
                if i != j:
                    linking_number(d, i, j)  # raises if the count were odd


def test_pd_text_round_trip():
    for text in (TREFOIL, FIG8, HOPF_POS, HOPF_NEG):
        d = parse_pd(text)
        again = parse_pd(d.pd_text())
        assert again.crossings == d.crossings
        assert again.signs == d.signs
