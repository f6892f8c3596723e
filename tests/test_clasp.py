import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clasptools import clasp
from clasptools.clasp import (
    TYPE_II,
    TYPE_X,
    ClaspParams,
    conway_model,
    enumerate_params,
    kadokami_kawamura_excluded,
    model_coefficients,
    p0_model,
    typeX_parity_obstruction,
    typeX_sum_of_squares_search,
)
from clasptools.laurent import P0_UNLINK_FACTOR, LaurentPoly
from oracle import enumerate_params_scan

P = LaurentPoly.parse

signs = st.sampled_from([1, -1])
small = st.integers(min_value=-6, max_value=6)
types = st.sampled_from([TYPE_X, TYPE_II])
params = st.builds(ClaspParams, signs, signs, small, small, small, types)


def test_conway_model_frozen_examples():
    assert conway_model(ClaspParams(1, 1, 1, 1, 0, TYPE_II)) == P("1 + 2*z^2 + 1*z^4")
    assert conway_model(ClaspParams(1, 1, 0, 0, 0, TYPE_II)) == P("1")
    assert conway_model(ClaspParams(1, 1, 0, 0, 0, TYPE_X)) == P("1 + 1*z^2")


@given(params)
@settings(max_examples=200, deadline=None)
def test_conway_model_shape(p):
    m = conway_model(p)
    assert m.coefficient(0, 0) == 1
    assert all(ez in (0, 2, 4) and ev == 0 for (ev, ez), _ in m.items())


@given(params)
@settings(max_examples=200, deadline=None)
def test_clasp_relabeling_symmetry(p):
    assert conway_model(p.swapped()) == conway_model(p)


def test_enumerate_params_examples():
    sols = enumerate_params(2, 1, TYPE_II, 3)
    assert ClaspParams(1, 1, 1, 1, 0, TYPE_II) in sols
    assert sols == sorted(sols)
    base = enumerate_params(0, 0, TYPE_II, 0)
    assert len(base) == 4
    assert {(p.eps1, p.eps2) for p in base} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert all(p.l1 == p.l2 == p.l == 0 for p in base)
    # Kadokami-Kawamura congruence pair: no solutions of either type.
    assert enumerate_params(2, 3, TYPE_II, 10) == []
    assert enumerate_params(2, 3, TYPE_X, 10) == []


@given(st.integers(-4, 4), st.integers(-4, 4), types)
@settings(max_examples=40, deadline=None)
def test_enumerate_params_matches_brute_force(a2, a4, disk_type):
    bound = 4
    brute = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            for l1 in range(-bound, bound + 1):
                for l2 in range(-bound, bound + 1):
                    for l in range(-bound, bound + 1):
                        p = ClaspParams(e1, e2, l1, l2, l, disk_type)
                        if model_coefficients(p) == (a2, a4):
                            brute.append(p)
    assert enumerate_params(a2, a4, disk_type, bound) == sorted(brute)


@given(st.integers(-60, 60), st.integers(-400, 400), types, st.integers(0, 120))
@settings(max_examples=300, deadline=None)
def test_enumerate_params_matches_scan(a2, a4, disk_type, bound):
    assert enumerate_params(a2, a4, disk_type, bound) == enumerate_params_scan(a2, a4, disk_type, bound)


# Every (a2, a4, type) with |a2|, |a4| <= 6 whose conic degenerates to the
# lines X = +-Y (D = 0) for some sign pair.
_DEGENERATE_CONICS = [
    (0, 0, TYPE_II), (2, 1, TYPE_II), (-2, 1, TYPE_II), (4, 4, TYPE_II), (-4, 4, TYPE_II),
    (0, 0, TYPE_X), (2, 2, TYPE_X), (-2, 0, TYPE_X), (4, 6, TYPE_X), (-4, 2, TYPE_X),
    (-6, 6, TYPE_X),
]


@pytest.mark.parametrize("a2, a4, disk_type", _DEGENERATE_CONICS)
def test_enumerate_params_on_degenerate_conics(a2, a4, disk_type):
    for bound in (0, 1, 7):
        assert enumerate_params(a2, a4, disk_type, bound) == enumerate_params_scan(a2, a4, disk_type, bound)


def test_typeX_parity_obstruction():
    assert typeX_parity_obstruction(0, 1)
    assert not typeX_parity_obstruction(1, 1)
    assert typeX_parity_obstruction(2, -1)


@given(signs, signs, st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
@settings(max_examples=300, deadline=None)
def test_parity_obstruction_contrapositive(e1, e2, l1, l2, l):
    # Parameter-level parity law: a type-X model with odd a4 has odd a2.
    a2, a4 = model_coefficients(ClaspParams(e1, e2, l1, l2, l, TYPE_X))
    if a4 % 2 == 1:
        assert a2 % 2 == 1


def test_kadokami_kawamura():
    assert kadokami_kawamura_excluded(2, 3)
    assert not kadokami_kawamura_excluded(2, 1)
    assert kadokami_kawamura_excluded(-2, -5)
    assert not kadokami_kawamura_excluded(1, 3)


def test_p0_model_trefoil_arithmetic():
    one = LaurentPoly.one()
    m = p0_model(ClaspParams(1, 1, 0, 0, 0, TYPE_X), one, one)
    assert m == P("2*v^2 + -1*v^4")


def test_p0_model_type_ii_second_evaluation():
    # Independent hand evaluation of the type II formula at
    # eps = (+1, -1), all linking numbers zero, companions 1:
    #   v^0 + v^-1(v^-1 - v) - v^1(v^-1 - v) - v^0 (v^-1 - v)^2
    one = LaurentPoly.one()
    w = P("1*v^-1 + -1*v")
    expect = (
        LaurentPoly.one()
        + w.shift(-1, 0)
        - w.shift(1, 0)
        - w * w
    )
    got = p0_model(ClaspParams(1, -1, 0, 0, 0, TYPE_II), one, one, one)
    assert got == expect


def test_p0_model_argument_validation():
    one = LaurentPoly.one()
    with pytest.raises(ValueError):
        p0_model(ClaspParams(1, 1, 0, 0, 0, TYPE_II), one, one)
    with pytest.raises(ValueError):
        p0_model(ClaspParams(1, 1, 0, 0, 0, TYPE_X), one, one, one)


@given(params, st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_p0_model_specializes_to_one_at_v_1(p, c1, c2):
    # Any companion polynomials with value 1 at v = 1 (true of every p0).
    comp1 = P("1") + LaurentPoly({(2, 0): c1, (0, 0): -c1})
    comp2 = P("1") + LaurentPoly({(-2, 0): c2, (0, 0): -c2})
    comp3 = comp1 * comp2
    if p.disk_type == TYPE_II:
        m = p0_model(p, comp1, comp2, comp3)
    else:
        m = p0_model(p, comp1, comp2)
    assert m.substitute_v(1) == LaurentPoly.one()


def test_unlink_quotient():
    unlink_quotient = clasp._unlink_quotient
    assert unlink_quotient(P("2*v^2 + -2*v^4")) == P("2*v^4")
    assert unlink_quotient(P("1*v^2 + 1")) is None
    assert unlink_quotient(LaurentPoly.zero()) == LaurentPoly.zero()
    # Vanishes at v = 1 but not at v = -1: no quotient.
    assert unlink_quotient(P("1*v + -1*v^2")) is None
    # An odd-exponent multiple divides exactly.
    odd = P("3*v^-1 + -2*v^5")
    assert unlink_quotient(odd * P0_UNLINK_FACTOR) == odd


@given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6))
@settings(max_examples=60, deadline=None)
def test_unlink_quotient_inverts_multiplication(terms):
    p = LaurentPoly({(ev, 0): c for ev, c in terms.items()})
    assert clasp._unlink_quotient(p * P0_UNLINK_FACTOR) == p


def test_sum_of_squares_examples():
    r = typeX_sum_of_squares_search(P("1*v^4"), 1, 1, 3, 8)
    assert r.status == "found" and r.f1.is_zero() and r.f2.is_zero()
    r = typeX_sum_of_squares_search(P("2*v^2 + -1*v^4"), 1, 1, 3, 8)
    assert r.status == "found"
    assert (r.f1 * r.f1) + (r.f2 * r.f2) == P("2*v^4")
    r = typeX_sum_of_squares_search(P("1*v^2 + 1"), 1, 1, 3, 8)
    assert r.status == "refuted"
    # The quotient v^8 lies above the window 2 * deg_bound = 6, which is
    # decided before the first node.
    r = typeX_sum_of_squares_search(P("1*v^4 + 1*v^6 + -1*v^8"), 1, 1, 3, 8, node_cap=0)
    assert (r.status, r.reason) == ("inconclusive", "no witness within bounds")


def test_sum_of_squares_rejects_negative_bounds():
    # A negative node cap is a bad argument, like a negative degree bound,
    # not an exhausted search.
    for kwargs in ({"deg_bound": -1}, {"coeff_bound": -1}, {"node_cap": -5}):
        with pytest.raises(ValueError, match="bounds must be nonnegative"):
            typeX_sum_of_squares_search(P("1*v^4"), 1, 1, **kwargs)
    r = typeX_sum_of_squares_search(P("1*v^4"), 1, 1, node_cap=0)
    assert (r.status, r.reason) == ("inconclusive", "search node cap exhausted")


def test_sum_of_squares_rejects_a_wrong_pair(monkeypatch):
    # The found pair is re-checked explicitly, so the check survives -O.
    wrong = (P("1*v^2"), LaurentPoly.zero())
    monkeypatch.setattr(clasp._SquareSearcher, "run", lambda self, r: wrong)
    with pytest.raises(RuntimeError):
        typeX_sum_of_squares_search(P("1*v^4"), 1, 1, 3, 8)


def test_sum_of_squares_search_depth_is_bounded_by_the_node_cap():
    # The search descends about 2 * deg_bound levels; a large degree bound
    # costs nodes, never Python stack.
    p0 = LaurentPoly.parse("2*v^2 + -1*v^4")
    r = typeX_sum_of_squares_search(p0, 1, -1, deg_bound=600, coeff_bound=2)
    assert (r.status, r.reason) == ("found", "")
    assert (r.f1.to_text(), r.f2.to_text()) == ("1*v^2", "1*v")
    r = typeX_sum_of_squares_search(p0, 1, -1, deg_bound=600, coeff_bound=2, node_cap=100)
    assert (r.status, r.reason) == ("inconclusive", "search node cap exhausted")


# Answers of the search on fixed inputs, with nodes at even exponents only.
# The last pair of rows of each found input, node caps k and k - 1, pins
# the node at which a witness is found (earlier pairs pin where a search
# that also counted odd exponents found it); the node caps 50 and 200 pin
# where an unfinished search stops; the witness text of each found row
# pins which witness in the box the visit order reaches first.
_FROZEN_SEARCHES = [
    ("-1*v^-2 + 2", -1, 1, 3, 4, 500000, "found", "1", "0"),
    ("-1*v^-2 + 2", -1, 1, 3, 4, 14, "found", "1", "0"),
    ("-1*v^-2 + 2", -1, 1, 3, 4, 13, "found", "1", "0"),
    ("-1*v^-2 + 2", -1, 1, 3, 4, 8, "found", "1", "0"),
    ("-1*v^-2 + 2", -1, 1, 3, 4, 7, "cap", None, None),
    ("1*v^-6 + 3*v^-4 + -5*v^-2 + -2 + 4*v^2", -1, 1, 2, 2, 500000,
     "found", "-1 + 2*v^2", "-1*v^-2 + -2 + 2*v^2"),
    ("1*v^-6 + 3*v^-4 + -5*v^-2 + -2 + 4*v^2", -1, 1, 2, 2, 40,
     "found", "-1 + 2*v^2", "-1*v^-2 + -2 + 2*v^2"),
    ("1*v^-6 + 3*v^-4 + -5*v^-2 + -2 + 4*v^2", -1, 1, 2, 2, 39,
     "found", "-1 + 2*v^2", "-1*v^-2 + -2 + 2*v^2"),
    ("1*v^-6 + 3*v^-4 + -5*v^-2 + -2 + 4*v^2", -1, 1, 2, 2, 21,
     "found", "-1 + 2*v^2", "-1*v^-2 + -2 + 2*v^2"),
    ("1*v^-6 + 3*v^-4 + -5*v^-2 + -2 + 4*v^2", -1, 1, 2, 2, 20, "cap", None, None),
    ("-9*v^-6 + 22*v^-4 + -16*v^-2 + 4", -1, -1, 3, 3, 500000, "found", "-3*v^-2 + 2", "0"),
    ("-9*v^-6 + 22*v^-4 + -16*v^-2 + 4", -1, -1, 3, 3, 14, "found", "-3*v^-2 + 2", "0"),
    ("-9*v^-6 + 22*v^-4 + -16*v^-2 + 4", -1, -1, 3, 3, 13, "found", "-3*v^-2 + 2", "0"),
    ("-9*v^-6 + 22*v^-4 + -16*v^-2 + 4", -1, -1, 3, 3, 8, "found", "-3*v^-2 + 2", "0"),
    ("-9*v^-6 + 22*v^-4 + -16*v^-2 + 4", -1, -1, 3, 3, 7, "cap", None, None),
    ("-1*v^-2 + 1 + 1*v^2", -1, -1, 2, 2, 500000, "found", "1*v^-1 + 1*v", "0"),
    ("-1*v^-2 + 1 + 1*v^2", -1, -1, 2, 2, 10, "found", "1*v^-1 + 1*v", "0"),
    ("-1*v^-2 + 1 + 1*v^2", -1, -1, 2, 2, 9, "found", "1*v^-1 + 1*v", "0"),
    ("-1*v^-2 + 1 + 1*v^2", -1, -1, 2, 2, 6, "found", "1*v^-1 + 1*v", "0"),
    ("-1*v^-2 + 1 + 1*v^2", -1, -1, 2, 2, 5, "cap", None, None),
    ("-9*v^-2 + 10", 1, -1, 3, 3, 500000, "found", "0", "3"),
    ("-9*v^-2 + 10", 1, -1, 3, 3, 14, "found", "0", "3"),
    ("-9*v^-2 + 10", 1, -1, 3, 3, 13, "found", "0", "3"),
    ("-9*v^-2 + 10", 1, -1, 3, 3, 8, "found", "0", "3"),
    ("-9*v^-2 + 10", 1, -1, 3, 3, 7, "cap", None, None),
    ("4*v^-6 + -16*v^-4 + 17*v^-2 + 2 + -5*v^2 + -1*v^4", -1, 1, 3, 3, 500000,
     "found", "0", "-2*v^-2 + 3 + 1*v^2"),
    ("4*v^-6 + -16*v^-4 + 17*v^-2 + 2 + -5*v^2 + -1*v^4", -1, 1, 3, 3, 18,
     "found", "0", "-2*v^-2 + 3 + 1*v^2"),
    ("4*v^-6 + -16*v^-4 + 17*v^-2 + 2 + -5*v^2 + -1*v^4", -1, 1, 3, 3, 17,
     "found", "0", "-2*v^-2 + 3 + 1*v^2"),
    ("4*v^-6 + -16*v^-4 + 17*v^-2 + 2 + -5*v^2 + -1*v^4", -1, 1, 3, 3, 10,
     "found", "0", "-2*v^-2 + 3 + 1*v^2"),
    ("4*v^-6 + -16*v^-4 + 17*v^-2 + 2 + -5*v^2 + -1*v^4", -1, 1, 3, 3, 9, "cap", None, None),
    ("-1*v^-8 + -4*v^-6 + 2*v^-4 + 8*v^-2 + -5*v^2 + 1*v^6", -1, -1, 3, 4, 500000,
     "found", "-1*v^-3 + -2*v^-1 + 1*v^3", "-1*v^-2 + 1*v^2"),
    ("-1*v^-8 + -4*v^-6 + 2*v^-4 + 8*v^-2 + -5*v^2 + 1*v^6", -1, -1, 3, 4, 30,
     "found", "-1*v^-3 + -2*v^-1 + 1*v^3", "-1*v^-2 + 1*v^2"),
    ("-1*v^-8 + -4*v^-6 + 2*v^-4 + 8*v^-2 + -5*v^2 + 1*v^6", -1, -1, 3, 4, 29,
     "found", "-1*v^-3 + -2*v^-1 + 1*v^3", "-1*v^-2 + 1*v^2"),
    ("-1*v^-8 + -4*v^-6 + 2*v^-4 + 8*v^-2 + -5*v^2 + 1*v^6", -1, -1, 3, 4, 16,
     "found", "-1*v^-3 + -2*v^-1 + 1*v^3", "-1*v^-2 + 1*v^2"),
    ("-1*v^-8 + -4*v^-6 + 2*v^-4 + 8*v^-2 + -5*v^2 + 1*v^6", -1, -1, 3, 4, 15, "cap", None, None),
    ("-7*v^-8 + 23*v^-6 + -20*v^-4 + 4*v^-2 + 1", -1, 1, 3, 4, 500000, "found", "-4*v^-3 + 2*v^-1", "3*v^-3"),
    ("-7*v^-8 + 23*v^-6 + -20*v^-4 + 4*v^-2 + 1", -1, 1, 3, 4, 14, "found", "-4*v^-3 + 2*v^-1", "3*v^-3"),
    ("-7*v^-8 + 23*v^-6 + -20*v^-4 + 4*v^-2 + 1", -1, 1, 3, 4, 13,
     "found", "-4*v^-3 + 2*v^-1", "3*v^-3"),
    ("-7*v^-8 + 23*v^-6 + -20*v^-4 + 4*v^-2 + 1", -1, 1, 3, 4, 8,
     "found", "-4*v^-3 + 2*v^-1", "3*v^-3"),
    ("-7*v^-8 + 23*v^-6 + -20*v^-4 + 4*v^-2 + 1", -1, 1, 3, 4, 7, "cap", None, None),
    ("-9*v^-8 + 9*v^-6 + 1*v^-4 + -4 + 4*v^2", -1, -1, 3, 3, 500000, "found", "2*v", "3*v^-3"),
    ("-9*v^-8 + 9*v^-6 + 1*v^-4 + -4 + 4*v^2", -1, -1, 3, 3, 8, "found", "2*v", "3*v^-3"),
    ("-9*v^-8 + 9*v^-6 + 1*v^-4 + -4 + 4*v^2", -1, -1, 3, 3, 7, "cap", None, None),
    ("1*v^-6 + -1*v^-4 + 1*v^-2 + -2 + 2*v^2", -1, 1, 2, 2, 500000, "found", "1 + 1*v^2", "1*v^-2 + 1*v^2"),
    ("1*v^-6 + -1*v^-4 + 1*v^-2 + -2 + 2*v^2", -1, 1, 2, 2, 8,
     "found", "1 + 1*v^2", "1*v^-2 + 1*v^2"),
    ("1*v^-6 + -1*v^-4 + 1*v^-2 + -2 + 2*v^2", -1, 1, 2, 2, 7, "cap", None, None),
    ("-1*v^-6 + 10*v^-4 + -16*v^-2 + -24 + 16*v^2 + 16*v^4", -1, -1, 3, 4, 500000,
     "found", "-1*v^-2 + 4 + 4*v^2", "0"),
    ("-1*v^-6 + 10*v^-4 + -16*v^-2 + -24 + 16*v^2 + 16*v^4", -1, -1, 3, 4, 8,
     "found", "-1*v^-2 + 4 + 4*v^2", "0"),
    ("-1*v^-6 + 10*v^-4 + -16*v^-2 + -24 + 16*v^2 + 16*v^4", -1, -1, 3, 4, 7, "cap", None, None),
    ("4*v^-4 + 4*v^-2 + -4 + -4*v^2 + 1*v^4", 1, 1, 2, 2, 500000, "found", "2*v^-1 + 2*v", "0"),
    ("4*v^-4 + 4*v^-2 + -4 + -4*v^2 + 1*v^4", 1, 1, 2, 2, 6, "found", "2*v^-1 + 2*v", "0"),
    ("4*v^-4 + 4*v^-2 + -4 + -4*v^2 + 1*v^4", 1, 1, 2, 2, 5, "cap", None, None),
    ("4*v^-6 + -3*v^-4 + -2*v^-2 + 2", -1, -1, 3, 3, 500000, "bounds", None, None),
    ("-1*v^-4 + 2*v^-2 + 6 + -5*v^2 + -1*v^4", -1, -1, 2, 2, 500000, "bounds", None, None),
    ("-4*v^-8 + 4*v^-6 + -5*v^-4 + 5*v^-2 + -1 + 2*v^2 + -6*v^4 + 6*v^6", 1, -1, 3, 4, 500000,
     "bounds", None, None),
    ("-1*v^-8 + 2*v^-6 + -1*v^-4 + 2 + -2*v^2 + 1*v^4", 1, 1, 3, 4, 50, "bounds", None, None),
    ("-1*v^-8 + 2*v^-6 + -1*v^-4 + 2 + -2*v^2 + 1*v^4", 1, 1, 3, 4, 200, "bounds", None, None),
    ("-5 + 5*v^2 + 1*v^4", 1, 1, 3, 3, 500000, "bounds", None, None),
    ("-1*v^-6 + 1*v^-4 + 2*v^-2 + 5 + -6*v^2", 1, -1, 3, 4, 50, "cap", None, None),
    ("-1*v^-6 + 1*v^-4 + 2*v^-2 + 5 + -6*v^2", 1, -1, 3, 4, 200, "cap", None, None),
    ("4*v^-6 + -4*v^-4 + 3*v^2 + -2*v^4", 1, 1, 3, 3, 500000, "bounds", None, None),
    ("-3*v^-4 + 3*v^-2 + 5 + -4*v^2", -1, 1, 2, 2, 50, "bounds", None, None),
    ("-3*v^-4 + 3*v^-2 + 5 + -4*v^2", -1, 1, 2, 2, 200, "bounds", None, None),
    ("-3*v^-8 + 3*v^-6 + 3*v^-4 + -2*v^-2 + -5 + 5*v^2 + -2*v^4 + 2*v^6", -1, -1, 3, 4, 500000,
     "bounds", None, None),
    ("6*v^-4 + -6*v^-2 + -3 + 4*v^2", 1, -1, 2, 2, 500000, "bounds", None, None),
    ("-4*v^-8 + 4*v^-6 + 1 + 3*v^2 + -3*v^4", -1, 1, 3, 3, 500000, "bounds", None, None),
    ("-1*v^-6 + -3*v^-4 + -1*v^-2 + 6", -1, -1, 3, 4, 500000, "bounds", None, None),
    ("1 + -5*v^2 + 5*v^4", 1, -1, 2, 2, 500000, "bounds", None, None),
    ("6*v^-6 + -8*v^-4 + 2*v^-2 + 1", -1, 1, 2, 2, 50, "cap", None, None),
    ("6*v^-6 + -8*v^-4 + 2*v^-2 + 1", -1, 1, 2, 2, 200, "bounds", None, None),
    ("-2*v^-4 + 5*v^-2 + -2 + -4*v^2 + 4*v^4", -1, 1, 3, 4, 50, "cap", None, None),
    ("-2*v^-4 + 5*v^-2 + -2 + -4*v^2 + 4*v^4", -1, 1, 3, 4, 200, "bounds", None, None),
    ("3*v^-6 + 3*v^-4 + -6*v^-2 + 7 + -6*v^2", 1, -1, 3, 3, 50, "cap", None, None),
    ("3*v^-6 + 3*v^-4 + -6*v^-2 + 7 + -6*v^2", 1, -1, 3, 3, 200, "cap", None, None),
    ("1*v^-6 + -1*v^-4 + 5 + -4*v^2", 1, -1, 2, 2, 50, "bounds", None, None),
    ("1*v^-6 + -1*v^-4 + 5 + -4*v^2", 1, -1, 2, 2, 200, "bounds", None, None),
    ("6*v^-8 + -6*v^-6 + -3*v^-4 + 3*v^-2 + 1", 1, -1, 3, 4, 50, "cap", None, None),
    ("6*v^-8 + -6*v^-6 + -3*v^-4 + 3*v^-2 + 1", 1, -1, 3, 4, 200, "cap", None, None),
    ("-6*v^-8 + 6*v^-6 + -2 + 3*v^2", -1, 1, 3, 3, 50, "bounds", None, None),
    ("-6*v^-8 + 6*v^-6 + -2 + 3*v^2", -1, 1, 3, 3, 200, "bounds", None, None),
    ("-5*v^-4 + 5*v^-2 + 1 + 1*v^4 + -1*v^6", -1, 1, 3, 4, 50, "bounds", None, None),
    ("-5*v^-4 + 5*v^-2 + 1 + 1*v^4 + -1*v^6", -1, 1, 3, 4, 200, "bounds", None, None),
    ("1*v^-8 + -1*v^-6 + 4*v^-4 + -3*v^-2 + -2*v^2 + 2*v^4", -1, -1, 3, 4, 50,
     "bounds", None, None),
    ("1*v^-8 + -1*v^-6 + 4*v^-4 + -3*v^-2 + -2*v^2 + 2*v^4", -1, -1, 3, 4, 200, "bounds", None, None),
    ("2*v^-4 + -2*v^-2 + 1", 1, -1, 2, 2, 50, "cap", None, None),
    ("2*v^-4 + -2*v^-2 + 1", 1, -1, 2, 2, 200, "bounds", None, None),
    ("6*v^-6 + -6*v^-4 + -4*v^-2 + 3 + 2*v^2", 1, -1, 3, 3, 50, "cap", None, None),
    ("6*v^-6 + -6*v^-4 + -4*v^-2 + 3 + 2*v^2", 1, -1, 3, 3, 200, "cap", None, None),
    ("-6*v^-8 + 6*v^-6 + 3*v^-2 + -2", 1, -1, 3, 4, 50, "cap", None, None),
    ("-6*v^-8 + 6*v^-6 + 3*v^-2 + -2", 1, -1, 3, 4, 200, "cap", None, None),
]

_OUTCOMES = {
    "found": ("found", ""),
    "cap": ("inconclusive", "search node cap exhausted"),
    "bounds": ("inconclusive", "no witness within bounds"),
}


def test_sum_of_squares_search_matches_frozen_answers():
    for p0, e1, e2, D, C, cap, outcome, f1, f2 in _FROZEN_SEARCHES:
        r = typeX_sum_of_squares_search(P(p0), e1, e2, D, C, cap)
        got = (r.status, r.reason,
               r.f1.to_text() if r.f1 is not None else None,
               r.f2.to_text() if r.f2 is not None else None)
        assert got == _OUTCOMES[outcome] + (f1, f2), (p0, e1, e2, D, C, cap)


def _brute_square_pairs(r, e1, e2, D, C):
    """Literal enumeration over the bounded parity-class boxes."""
    cands = [LaurentPoly.zero()]
    for parity in (0, 1):
        slots = [s for s in range(-D, D + 1) if s % 2 == parity]
        def grow(i, cur):
            if i == len(slots):
                if any(cur.values()):
                    cands.append(LaurentPoly({(s, 0): c for s, c in cur.items()}))
                return
            for c in range(-C, C + 1):
                cur[slots[i]] = c
                grow(i + 1, cur)
            del cur[slots[i]]
        grow(0, {})
    for f1 in cands:
        for f2 in cands:
            if (f1 * f1).shift(0, 0, e1) + (f2 * f2).shift(0, 0, e2) == r:
                return f1, f2
    return None


@given(
    st.dictionaries(st.sampled_from(range(-6, 7, 2)), st.integers(-4, 4), max_size=3),
    signs,
    signs,
)
@settings(max_examples=30, deadline=None)
def test_sum_of_squares_search_is_complete_on_small_box(terms, e1, e2):
    D, C = 2, 2
    r = LaurentPoly({(s, 0): c for s, c in terms.items()})
    p0_like = r * P("1*v^-2 + -1") + LaurentPoly.term(1, ev=2 * (e1 + e2))
    res = typeX_sum_of_squares_search(p0_like, e1, e2, D, C)
    brute = _brute_square_pairs(r, e1, e2, D, C)
    if brute is None:
        assert res.status == "inconclusive"
    else:
        assert res.status == "found"
        for f in (res.f1, res.f2):
            exps = [ev for (ev, _), _ in f.items()]
            coeffs = [c for _, c in f.items()]
            assert all(-D <= ev <= D for ev in exps)
            assert len({ev % 2 for ev in exps}) <= 1
            assert all(abs(c) <= C for c in coeffs)
            assert f.is_zero() or f.coefficient(f.v_degree()) > 0


def test_p0_model_reproduces_census_witness():
    # End-to-end pipeline: the two-bridge knot 6_2 arises from a type-II
    # clasp disk over the Hopf-sum chain (all companions unknots); some
    # enumerated parameter choice must reproduce its measured p0 exactly.
    from clasptools.census import load_census
    from clasptools.skein import SkeinEngine

    eng = SkeinEngine()
    d = load_census()["6_2"]
    a2, a4 = eng.conway_coefficients(d)
    target = eng.p0(d)
    one = LaurentPoly.one()
    sols = enumerate_params(a2, a4, TYPE_II, 5)
    witnesses = [p for p in sols if p0_model(p, one, one, one) == target]
    assert witnesses
    assert ClaspParams(1, -1, 1, 2, -1, TYPE_II) in witnesses
