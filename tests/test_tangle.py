from fractions import Fraction
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clasptools.census import load_census
from clasptools.diagram import parse_pd
from clasptools.skein import SkeinEngine
from clasptools.tangle import (
    ExtendedRational,
    MontesinosDesc,
    _emit,
    closed_braid,
    closure,
    closure_tangle,
    continued_fraction,
    evaluate_continued_fraction,
    horizontal_twists,
    insert_clasp,
    montesinos_diagram,
    montesinos_equivalent,
    pretzel_diagram,
    rational_tangle,
    tangle_faces,
    tangle_sum,
    theorem1_catalog,
    vertical_twists,
)

from oracle import P, linking_number, pd_code_is_valid

eng = SkeinEngine()


def test_extended_rational_normalization():
    assert ExtendedRational(2, 4) == ExtendedRational(1, 2)
    assert ExtendedRational(3, -6) == ExtendedRational(-1, 2)
    assert ExtendedRational(5, 0) == ExtendedRational(1, 0)
    assert ExtendedRational.parse("inf").is_infinity
    assert str(ExtendedRational.parse("-2/3")) == "-2/3"
    with pytest.raises(ValueError):
        ExtendedRational(0, 0)


def test_continued_fraction_examples():
    assert continued_fraction(ExtendedRational(7, 3)) == [3, 2]
    assert continued_fraction(ExtendedRational(2, 5)) == [2, 2, 0]
    assert continued_fraction(ExtendedRational(9, 1)) == [9]
    assert continued_fraction(ExtendedRational(0, 1)) == [0]
    with pytest.raises(ValueError):
        continued_fraction(ExtendedRational(1, 0))


@given(st.integers(-40, 40), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_continued_fraction_round_trip(p, q):
    r = ExtendedRational(p, q)
    if r.as_fraction() == 0:
        return
    cf = continued_fraction(r)
    assert cf[0] != 0
    assert evaluate_continued_fraction(cf) == Fraction(p, q)


def test_elementary_tangle_closures():
    z = closure(horizontal_twists(0))
    assert z.num_components == 2 and z.num_crossings == 0
    i = closure(vertical_twists(0))
    assert i.num_components == 1
    v2 = closure(vertical_twists(2))
    assert v2.num_components == 1  # clasp closure is an unknot
    h2 = closure(horizontal_twists(2))
    assert h2.num_components == 2  # Hopf link


def test_rational_tangle_crossing_count():
    for p, q in [(2, 3), (7, 3), (11, 4), (2, 5)]:
        r = ExtendedRational(p, q)
        cf = continued_fraction(r)
        t = rational_tangle(r)
        assert t.num_crossings == sum(abs(a) for a in cf)


def _det(d):
    # |Nabla(z)| at z^2 = -4, from the Conway polynomial's terms.
    return abs(sum(c * (-4) ** (ez // 2) for (_, ez), c in eng.conway(d).items()))


@given(st.integers(-31, 31), st.integers(1, 17))
@settings(max_examples=60, deadline=None)
def test_two_bridge_determinant(p, q):
    from math import gcd

    if p == 0 or gcd(abs(p), q) != 1 or abs(p) % 2 == 0:
        return  # knots only: odd p
    d = closure(rational_tangle(ExtendedRational(p, q)))
    assert d.num_components == 1
    assert _det(d) == abs(p)


def test_montesinos_examples_from_proof():
    tre = parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]")
    m = montesinos_diagram(MontesinosDesc.parse("-2/3,inf,-2/3"))
    assert m.num_components == 1
    assert eng.homfly(m) == eng.homfly(tre) * eng.homfly(tre)
    # K(-1/2, inf, -1/2) is the 3-component chain H+#H+ (connected sum of
    # two Hopf links: 2 + 2 - 1 components).
    hh = montesinos_diagram(MontesinosDesc.parse("-1/2,inf,-1/2"))
    assert hh.num_components == 3
    hopf_pos = parse_pd("PD[X[1,4,2,3],X[3,2,4,1]]")
    assert eng.homfly(hh) == eng.homfly(hopf_pos) * eng.homfly(hopf_pos)


def test_montesinos_equivalence_criterion():
    a = MontesinosDesc.parse("1/2,2/3,-2/3")
    b = MontesinosDesc.parse("-1/2,2/3,1/3")
    assert montesinos_equivalent(a, b)
    perm = MontesinosDesc.parse("2/3,-2/3,1/2")
    assert montesinos_equivalent(a, perm)
    c = MontesinosDesc.parse("1/2,1/3,1/7")
    d = MontesinosDesc.parse("1/2,1/3,2/7")
    assert not montesinos_equivalent(c, d)
    with pytest.raises(ValueError):
        montesinos_equivalent(a, MontesinosDesc.parse("1/2,inf,1/3"))


fracs = st.builds(
    ExtendedRational, st.integers(-9, 9).filter(lambda p: p != 0), st.integers(1, 9)
)
descs = st.builds(MontesinosDesc.of, fracs, fracs, fracs)


@given(descs, descs, descs)
@settings(max_examples=80, deadline=None)
def test_montesinos_equivalence_is_an_equivalence(m1, m2, m3):
    assert montesinos_equivalent(m1, m1)
    assert montesinos_equivalent(m1, m2) == montesinos_equivalent(m2, m1)
    if montesinos_equivalent(m1, m2) and montesinos_equivalent(m2, m3):
        assert montesinos_equivalent(m1, m3)


small_fracs = st.builds(
    ExtendedRational, st.sampled_from([-2, -1, 1, 2]), st.sampled_from([1, 2, 3])
)
small_descs = st.builds(MontesinosDesc.of, small_fracs, small_fracs, small_fracs)


@given(small_descs, st.sampled_from([-1, 1]), st.permutations([0, 1, 2]))
@settings(max_examples=25, deadline=None)
def test_equivalent_descriptions_have_equal_homfly(m, n, perm):
    e = m.entries
    shifted = MontesinosDesc.of(
        ExtendedRational(e[0].p + n * e[0].q, e[0].q),
        ExtendedRational(e[1].p - n * e[1].q, e[1].q),
        e[2],
    )
    permuted = MontesinosDesc.of(*(shifted.entries[i] for i in perm))
    assert montesinos_equivalent(m, permuted)
    d1 = montesinos_diagram(m)
    d2 = montesinos_diagram(permuted)
    # HOMFLY comparison only makes sense for knots: multi-component
    # closures carry traced orientations the criterion says nothing about.
    if (
        d1.num_components == 1
        and d2.num_components == 1
        and d1.num_crossings <= 12
        and d2.num_crossings <= 12
    ):
        assert eng.homfly(d1) == eng.homfly(d2)


def test_theorem1_catalog_structure():
    cat = theorem1_catalog(1, load_census(), [])
    by_family = {}
    for e in cat:
        by_family.setdefault(e.family, []).append(e)
    assert len(by_family["i"]) == 4
    assert len(by_family["ii"]) == 4
    assert len(by_family["iv"]) == 12
    names = [e.name for e in by_family["i"]]
    assert "3_1#3_1" in names
    for e in cat:
        if e.diagram is not None:
            assert e.diagram.num_components == 1


def test_catalog_contains_granny_conway():
    cat = theorem1_catalog(0, load_census(), [])
    target = P("1 + 2*z^2 + 1*z^4")
    assert any(
        e.diagram is not None and eng.conway(e.diagram) == target for e in cat
    )


def test_closed_braid():
    from clasptools.tangle import closed_braid

    tre = parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]")
    assert eng.homfly(closed_braid([1, 1, 1], 2)) == eng.homfly(tre)
    f8 = parse_pd("PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]")
    assert eng.homfly(closed_braid([1, -2, 1, -2], 3)) == eng.homfly(f8)
    spare = closed_braid([1, 1, 1], 3)
    assert spare.num_components == 2 and spare.free_loops == 1
    with pytest.raises(ValueError):
        closed_braid([3], 3)
    with pytest.raises(ValueError, match="^n_strands must be >= 1$"):
        closed_braid([], 0)


def _braid_linking_matrix(word, n):
    """Linking matrix of a braid closure oriented down the braid, from the
    word alone: a letter between two components adds its sign to their
    doubled linking number."""
    at = list(range(n))  # the strand at each position, read down the braid
    letters = []
    for g in word:
        i = abs(g) - 1
        letters.append((at[i], at[i + 1], 1 if g > 0 else -1))
        at[i], at[i + 1] = at[i + 1], at[i]
    comp = list(range(n))  # the closure joins the strand ending at a position
    for pos in range(n):   # to the strand starting there
        a, b = comp[at[pos]], comp[pos]
        comp = [a if c == b else c for c in comp]
    index = {c: k for k, c in enumerate(dict.fromkeys(comp))}
    doubled = [[0] * len(index) for _ in index]
    for s, t, sign in letters:
        a, b = index[comp[s]], index[comp[t]]
        if a != b:
            doubled[a][b] += sign
            doubled[b][a] += sign
    return [[v // 2 for v in row] for row in doubled]


@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])), max_size=12))))
@example((2, [-1, -1]))  # the negative Hopf link, signs (1, 1) before
@settings(max_examples=200, deadline=None)
def test_closed_braid_follows_the_braid(case):
    # Crossing signs are the letters' signs, and the signed linking numbers
    # are the braid's.
    n, word = case
    d = closed_braid(word, n)
    assert sorted(d.signs) == sorted(1 if g > 0 else -1 for g in word)
    expect = _braid_linking_matrix(word, n)
    k = d.num_components
    got = [[linking_number(d, i, j) if i != j else 0 for j in range(k)] for i in range(k)]
    assert len(expect) == k
    assert any(all(got[p[i]][p[j]] == expect[i][j] for i in range(k) for j in range(k))
               for p in permutations(range(k))), (got, expect)


def test_tangle_faces_euler():
    from clasptools.tangle import closure_tangle, tangle_faces, tangle_sum

    t = closure_tangle(
        tangle_sum(tangle_sum(vertical_twists(-2), vertical_twists(0)), vertical_twists(-2))
    )
    v = t.num_crossings
    faces = tangle_faces(t)
    assert v - 2 * v + len(faces) == 2  # V - E + F for a connected 4-valent map
    with pytest.raises(ValueError):
        tangle_faces(vertical_twists(2))


def test_insert_clasp_fuses_components():
    from clasptools.tangle import closure_tangle, insert_clasp, tangle_faces, tangle_sum, _emit

    t = closure_tangle(
        tangle_sum(tangle_sum(vertical_twists(-2), vertical_twists(0)), vertical_twists(-2))
    )
    base = _emit(t)
    assert base.num_components == 3
    comp = {}
    cid = 0
    for start in sorted(t.pair):
        if start in comp:
            continue
        cur = start
        while cur not in comp:
            comp[cur] = cid
            far = t.pair[cur]
            comp[far] = cid
            cur = far ^ 2
        cid += 1
    for f in tangle_faces(t):
        pairs = [
            (da, db)
            for i, da in enumerate(f)
            for db in f[i + 1 :]
            if comp[da] != comp[db]
        ]
        if pairs:
            da, db = pairs[0]
            fused = _emit(insert_clasp(t, da, db, 1))
            assert fused.num_components == 2
            assert fused.num_crossings == base.num_crossings + 2
            break
    else:
        pytest.fail("no mixed-component face found")


def test_insert_clasp_rejects_darts_of_two_faces():
    # A clasp across two faces cannot be drawn in the plane; building it
    # anyway gave PD text that parse_pd rejects as non-planar.
    t = closure_tangle(rational_tangle(ExtendedRational(3, 1)))
    faces = tangle_faces(t)
    assert len(faces) == 5
    for i, f in enumerate(faces):
        for g in faces[i + 1:]:
            with pytest.raises(ValueError, match="one face"):
                insert_clasp(t, f[0], g[0], 1)


@pytest.mark.parametrize("sign", [0, 2])
def test_insert_clasp_rejects_a_sign_other_than_one(sign):
    # A clasp is the [+-2] block: sign 0 would lay no crossings, sign 2 four.
    t = closure_tangle(rational_tangle(ExtendedRational(3, 1)))
    f = tangle_faces(t)[0]
    with pytest.raises(ValueError, match="sign"):
        insert_clasp(t, f[0], f[1], sign)


def test_insert_clasp_rejects_an_unknown_dart():
    # An unknown dart lies on no face, so it gets the two-face ValueError.
    t = closure_tangle(rational_tangle(ExtendedRational(3, 1)))
    f = tangle_faces(t)[0]
    with pytest.raises(ValueError, match="one face"):
        insert_clasp(t, f[0], 99, 1)


def test_rational_tangle_boundary_and_zero():
    t0 = rational_tangle(ExtendedRational(0, 1))
    assert set(t0.boundary) == {"NW", "NE", "SW", "SE"}
    assert t0.num_crossings == 0
    th = rational_tangle(ExtendedRational(1, 2))
    assert th.num_crossings == 2
    tinf = rational_tangle(ExtendedRational(1, 0))
    assert tinf.num_crossings == 0
    assert closure(tinf).num_components == 1


def _clasped():
    from clasptools.tangle import _emit, closure_tangle, insert_clasp, tangle_sum

    t = closure_tangle(
        tangle_sum(tangle_sum(vertical_twists(-2), vertical_twists(0)), vertical_twists(-2))
    )
    return _emit(insert_clasp(t, 3, 9, -1))


@pytest.mark.parametrize(
    "build, text",
    [
        (
            lambda: closure(rational_tangle(ExtendedRational(11, 4))),
            "PD[X[1,10,2,11],X[3,8,4,9],X[4,12,5,11],X[6,14,7,13],X[9,2,10,3],"
            "X[12,6,13,5],X[14,8,1,7]]",
        ),
        (
            lambda: montesinos_diagram(MontesinosDesc.parse("1/2,-2/3,2/5")),
            "PD[X[2,6,3,5],X[4,17,5,18],X[6,2,7,1],X[7,17,8,16],X[8,13,9,14],"
            "X[10,15,11,16],X[12,20,13,19],X[14,9,15,10],X[18,3,19,4],X[20,12,1,11]]",
        ),
        (
            lambda: pretzel_diagram(-2, 3, 5),
            "PD[X[1,16,2,17],X[3,18,4,19],X[5,12,6,13],X[7,14,8,15],X[10,19,11,20],"
            "X[11,4,12,5],X[13,6,14,7],X[15,8,16,9],X[17,2,18,3],X[20,9,1,10]]",
        ),
        (
            lambda: closed_braid([1, -2, 1, -2], 3),
            "PD[X[2,8,3,7],X[4,1,5,2],X[6,4,7,3],X[8,5,1,6]]",
        ),
        (
            _clasped,
            "PD[X[2,12,1,3],X[3,1,4,2],X[5,9,6,8],X[6,12,7,11],X[9,5,10,4],X[10,8,11,7]]",
        ),
    ],
    ids=["two_bridge_11_4", "montesinos", "pretzel", "braid", "clasp"],
)
def test_tangle_pd_text_pinned(build, text):
    # Crossing numbers follow construction order, so this text pins the
    # gluing order, the slot convention and the component walk.
    d = build()
    assert d.pd_text() == text
    assert parse_pd(text) == d


small_rationals = st.sampled_from(
    ["inf", "0", "1", "-1", "2", "-2", "1/2", "-1/2", "1/3", "-1/3", "2/3", "-2/3", "3/2"]
).map(ExtendedRational.parse)


@st.composite
def constructions(draw):
    """A diagram from one of the constructions of this module."""
    kind = draw(st.sampled_from(["montesinos", "pretzel", "braid", "clasp"]))
    if kind == "montesinos":
        return montesinos_diagram(MontesinosDesc.of(*draw(st.lists(small_rationals, min_size=3, max_size=3))))
    if kind == "pretzel":
        return pretzel_diagram(*draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4)))
    if kind == "braid":
        n = draw(st.integers(1, 4))
        letters = [g for g in range(1 - n, n) if g]
        word = draw(st.lists(st.sampled_from(letters), max_size=6)) if letters else []
        return closed_braid(word, n)
    parts = draw(st.lists(small_rationals, min_size=1, max_size=3))
    t = closure_tangle(reduce(tangle_sum, map(rational_tangle, parts)))
    # Two darts of one face on distinct arcs.
    choices = [
        (da, db)
        for f in tangle_faces(t)
        for i, da in enumerate(f)
        for db in f[i + 1:]
        if db not in (da, t.pair[da])
    ]
    assume(choices)
    da, db = draw(st.sampled_from(choices))
    return _emit(insert_clasp(t, da, db, draw(st.sampled_from([1, -1]))))


def _split_over_crossings(d):
    """Crossings of a two-edge component that is over at both of them."""
    out = set()
    for comp in d.components:
        if len(comp) == 2:
            ks = [k for k, q in enumerate(d.crossings) if set(comp) & set(q)]
            if all(d.crossings[k][0] not in comp for k in ks):
                out.update(ks)
    return out


@given(constructions())
@settings(max_examples=300, deadline=None)
def test_constructions_are_valid_pd_codes(d):
    # An independent check of every construction: the oracle tries every
    # over-strand direction, and the PD text reads back to the same link.
    assume(d.num_crossings <= 8)
    assert d.signs in pd_code_is_valid(d.crossings)
    back = parse_pd(d.pd_text())
    assert (back.crossings, back.components, back.free_loops) == (
        d.crossings, d.components, d.free_loops)
    # PD text leaves the direction of a split over component open.
    exempt = _split_over_crossings(d)
    assert [s for k, s in enumerate(back.signs) if k not in exempt] == [
        s for k, s in enumerate(d.signs) if k not in exempt]
