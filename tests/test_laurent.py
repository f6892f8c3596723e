import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clasptools.laurent import UNLINK_FACTOR, LaurentPoly, extract_p_i
from oracle import P


def test_ring_examples():
    one_z2 = P("1 + 1*z^2")
    assert one_z2 * one_z2 == P("1 + 2*z^2 + 1*z^4")
    p = P("3*v^2 + -1*z^2")
    assert not p + (-p)
    vinv_minus_v = LaurentPoly({(-1, 0): 1, (1, 0): -1})
    assert vinv_minus_v * vinv_minus_v == P("1*v^-2 + -2 + 1*v^2")
    # Equal polynomials built in another term order hash alike.
    assert {vinv_minus_v: "delta"}[LaurentPoly({(1, 0): -1, (-1, 0): 1})] == "delta"
    assert (LaurentPoly.one() == 1) is False
    assert not p.shift(1, 2, 0)


def test_substitute_v():
    p = LaurentPoly({(2, 0): 2, (4, 0): -1, (2, 2): 1})  # HOMFLY of the right trefoil
    assert p.substitute_v(1) == P("1 + 1*z^2")
    assert LaurentPoly.one().substitute_v(1) == LaurentPoly.one()
    assert not P("1*v^-2 + -1").substitute_v(-1)
    assert P("1*v + 2*v^2*z").substitute_v(-1) == P("-1 + 2*z")


def test_coefficient():
    p = P("1 + 2*z^2 + 1*z^4")
    assert p.coefficient(0, 2) == 2
    assert p.coefficient(0, 6) == 0
    assert P("1 + -1*z^2").coefficient(0, 2) == -1
    zero = LaurentPoly.zero()
    assert zero.v_degree() is None and zero.v_min() is None and zero.z_degree() is None


def test_extract_p_i():
    assert extract_p_i(LaurentPoly.one(), 1, 0) == LaurentPoly.one()
    # 2-component unlink: P = (v^-1 - v) z^-1, p^0 = v^-2 - 1.
    assert extract_p_i(UNLINK_FACTOR, 2, 0) == P("1*v^-2 + -1")
    trefoil = LaurentPoly({(2, 0): 2, (4, 0): -1, (2, 2): 1})
    assert extract_p_i(trefoil, 1, 0) == P("2*v^2 + -1*v^4")
    assert extract_p_i(trefoil, 1, 1) == P("1*v^2")


def test_extract_p_i_rejects_malformed():
    with pytest.raises(ValueError):
        extract_p_i(LaurentPoly.term(1, ez=1), 1, 0)  # odd z-exponent
    with pytest.raises(ValueError):
        extract_p_i(LaurentPoly.term(1, ez=-2), 1, 0)  # negative after normalizing


def test_text_round_trip_examples():
    p = LaurentPoly({(4, 0): -1, (2, 0): 2, (2, 2): 1})
    assert p.to_text() == "2*v^2 + -1*v^4 + 1*v^2*z^2"
    assert P(p.to_text()) == p
    assert LaurentPoly.zero().to_text() == "0"
    q = LaurentPoly({(1, -3): -7})
    assert P(q.to_text()) == q


exponents = st.integers(min_value=-6, max_value=6)
coeffs = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(st.tuples(exponents, exponents), coeffs, max_size=6).map(LaurentPoly)


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys)
@settings(max_examples=100, deadline=None)
def test_canonical_form_no_zero_coefficients(p):
    q = p + (-p)
    assert not q
    for _, c in (p * p).items():
        assert c != 0


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_subtraction_adds_the_negation(p, q):
    assert p - q == p + (-q)
    assert p - p == LaurentPoly.zero()


@given(coeffs, exponents, exponents)
@example(0, 2, -1)
@settings(max_examples=100, deadline=None)
def test_term_is_the_one_entry_polynomial(c, ev, ez):
    t = LaurentPoly.term(c, ev, ez)
    assert t == LaurentPoly({(ev, ez): c})
    assert (not t) == (c == 0)
    assert len(t) == (1 if c else 0)
    assert t.coefficient(ev, ez) == c


def test_term_converts_to_int():
    t = LaurentPoly.term(True, ev=True)
    [((ev, ez), c)] = t.items()
    assert (type(ev), type(ez), type(c)) == (int, int, int)
    assert t == P("1*v")


@given(polys)
@settings(max_examples=100, deadline=None)
def test_text_round_trip(p):
    assert P(p.to_text()) == p


def test_reassembly_of_coefficient_polys():
    # A knot's P is p0 + p1 z^2 + ...: the trefoil's are read off exactly.
    trefoil = LaurentPoly({(2, 0): 2, (4, 0): -1, (2, 2): 1})
    parts = [extract_p_i(trefoil, 1, i) for i in range(3)]
    assert parts == [P("2*v^2 + -1*v^4"), P("1*v^2"), LaurentPoly.zero()]
