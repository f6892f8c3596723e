"""Randomized structural properties over braid-closure diagrams.

Closed braids give an endless supply of valid oriented diagrams, which
makes them a good fuzzing substrate for the surgery operations and the
skein engines.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from clasptools.diagram import Diagram
from clasptools.laurent import LaurentPoly, extract_p_i
from clasptools.skein import SkeinEngine
from clasptools.tangle import (
    ExtendedRational,
    MontesinosDesc,
    closed_braid,
    montesinos_diagram,
    pretzel_diagram,
)

import oracle

eng = SkeinEngine()

letters = st.sampled_from([1, -1, 2, -2])
words = st.lists(letters, min_size=1, max_size=7)


def build(word):
    return closed_braid(word, 3)


@given(words)
@settings(max_examples=60, deadline=None)
def test_simplify_preserves_homfly(word):
    d = build(word)
    assert eng.homfly(d.simplify()) == eng.homfly(d)


@given(words, st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_skein_relation_random_crossing(word, pick):
    d = build(word)
    if d.num_crossings == 0:
        return
    k = pick % d.num_crossings
    pos = d if d.signs[k] > 0 else d.switch_crossing(k)
    neg = d.switch_crossing(k) if d.signs[k] > 0 else d
    vinv = LaurentPoly.term(1, ev=-1)
    v = LaurentPoly.term(1, ev=1)
    z = LaurentPoly.term(1, ez=1)
    assert vinv * eng.homfly(pos) - v * eng.homfly(neg) == z * eng.homfly(d.smooth_crossing(k))


@given(words)
@settings(max_examples=50, deadline=None)
def test_invariant_routes_agree(word):
    d = build(word)
    P = eng.homfly(d)
    assert eng.conway(d) == P.substitute_v(1)
    assert eng.p0(d) == extract_p_i(P, d.num_components, 0)


@given(words)
@settings(max_examples=25, deadline=None)
def test_engine_matches_oracle_on_random_diagrams(word):
    d = build(word)
    if d.num_crossings > 7:
        return
    assert eng.homfly(d) == oracle.homfly_bruteforce(d)


braids = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([s * i for i in range(1, n) for s in (1, -1)]), max_size=24),
    st.just(n)))


@given(braids)
@settings(max_examples=120, deadline=None)
def test_engine_matches_hecke_oracle_on_closed_braids(braid):
    # Past the brute-force oracle's 7 crossings: 2-5 strands, up to 24 letters.
    word, n = braid
    assert SkeinEngine().homfly(closed_braid(word, n)) == oracle.homfly_hecke(word, n)


fractions = st.builds(ExtendedRational, st.integers(-7, 7), st.integers(1, 4))
conway_diagrams = st.one_of(
    braids.filter(lambda b: len(b[0]) <= 20).map(lambda b: closed_braid(*b)),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(lambda t: pretzel_diagram(*t)),
    st.tuples(fractions, fractions, fractions).map(
        lambda rs: montesinos_diagram(MontesinosDesc(rs))),
)


@given(conway_diagrams)
@settings(max_examples=200, deadline=None)
def test_engine_conway_matches_alexander_determinant(d):
    # Closed braids up to 20 letters, pretzel and Montesinos diagrams up to
    # ~20 crossings: Nabla(s - 1/s) = +-s^k det(reduced Alexander matrix)(s^2).
    assert oracle.conway_matches_alexander(eng.conway(d), oracle.alexander_polynomial(d))


@given(words, st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_switch_is_involution(word, pick):
    d = build(word)
    if d.num_crossings == 0:
        return
    k = pick % d.num_crossings
    assert d.switch_crossing(k).switch_crossing(k).canonical_code() == d.canonical_code()


@given(words, st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_smoothing_changes_component_count_by_one(word, pick):
    d = build(word)
    if d.num_crossings == 0:
        return
    k = pick % d.num_crossings
    assert abs(d.smooth_crossing(k).num_components - d.num_components) == 1


@given(words)
@settings(max_examples=40, deadline=None)
def test_mirror_is_involution_and_negates_writhe(word):
    d = build(word)
    m = d.mirror()
    assert sum(m.signs) == -sum(d.signs)
    assert m.mirror().canonical_code() == d.canonical_code()


@given(words)
@settings(max_examples=40, deadline=None)
def test_pd_text_round_trip_random(word):
    # PD codes re-parse to the same crossings and signs, except that a
    # two-edge component over at both of its crossings (a split unknot,
    # whose labels leave its direction open) is read by the fixed rule and
    # may come back reversed: both of its crossings flip sign, and the
    # HOMFLY polynomial is unchanged.
    d = build(word)
    if d.num_crossings == 0:
        return
    back = Diagram(d.crossings, d.free_loops)
    assert back.crossings == d.crossings
    flipped = {k for k, (s, t) in enumerate(zip(d.signs, back.signs)) if s != t}
    comp = {e: c for c, cyc in enumerate(d.components) for e in cyc}
    under = {comp[q[0]] for q in d.crossings}
    for k in flipped:
        ci = comp[d.crossings[k][1]]
        assert len(d.components[ci]) == 2 and ci not in under
        assert {j for j in flipped if comp[d.crossings[j][1]] == ci} == {
            j for j, q in enumerate(d.crossings) if comp[q[1]] == ci
        }
    if flipped:
        assert eng.homfly(back) == eng.homfly(d)


@given(words)
@settings(max_examples=30, deadline=None)
def test_reversing_all_components_preserves_homfly(word):
    # Reversing every component of a link preserves HOMFLY.
    d = build(word)
    rev = oracle.reverse_all_components(d)
    assert eng.homfly(rev) == eng.homfly(d)


@given(words)
@settings(max_examples=30, deadline=None)
def test_linking_matrix_symmetry_and_mirror(word):
    d = build(word)
    n = d.num_components
    m = d.mirror()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lk = oracle.linking_number(d, i, j)
            assert oracle.linking_number(d, j, i) == lk
            assert oracle.linking_number(m, i, j) == -lk
