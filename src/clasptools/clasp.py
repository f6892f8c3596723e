"""Clasp-number-two models and obstructions.

A clasp disk with two clasp singularities carries signs eps1, eps2, the
linking numbers l1, l2 of the two annular resolution links, a third
linking number l, and a shape: type X (smoothing both clasps leaves a
knot) or type II (a three-component link).  These parameters determine
the Conway polynomial of the knot exactly, and almost determine the
zeroth coefficient HOMFLY polynomial; everything here evaluates or
inverts those closed forms.

Obstruction outputs are necessary conditions only: an empty parameter
enumeration means "no solutions within the bound", never "no clasp
disk".
"""

from __future__ import annotations

from math import isqrt
from typing import List, NamedTuple, Optional, Tuple

from .laurent import LaurentPoly

TYPE_X = "X"
TYPE_II = "II"

_V_INV_MINUS_V = LaurentPoly({(-1, 0): 1, (1, 0): -1})


class ClaspParams(NamedTuple("ClaspParams", [("eps1", int), ("eps2", int), ("l1", int),
                                             ("l2", int), ("l", int), ("disk_type", str)])):
    """Parameters (eps1, eps2, l1, l2, l) of a two-clasp disk of one type.

    A tuple of its six fields, so it compares and sorts field by field.
    """

    __slots__ = ()

    def __new__(cls, eps1: int, eps2: int, l1: int, l2: int, l: int, disk_type: str = TYPE_II):
        if eps1 not in (1, -1) or eps2 not in (1, -1):
            raise ValueError("clasp signs must be +1 or -1")
        if disk_type not in (TYPE_X, TYPE_II):
            raise ValueError("disk type must be 'X' or 'II'")
        return super().__new__(cls, eps1, eps2, l1, l2, l, disk_type)


def model_coefficients(p: ClaspParams) -> Tuple[int, int]:
    """(a2, a4) of the modeled Conway polynomial."""
    e1, e2, l1, l2, l = p.eps1, p.eps2, p.l1, p.l2, p.l
    if p.disk_type == TYPE_X:
        return e1 * l1 + e2 * l2 + e1 * e2, e1 * e2 * (l1 * l2 - l * (l + 1))
    return e1 * l1 + e2 * l2, e1 * e2 * (l1 * l2 - l * l)


def conway_model(p: ClaspParams) -> LaurentPoly:
    """Conway polynomial 1 + a2 z^2 + a4 z^4 of a two-clasp knot."""
    a2, a4 = model_coefficients(p)
    return LaurentPoly({(0, 0): 1, (0, 2): a2, (0, 4): a4})


def enumerate_params(a2: int, a4: int, disk_type: str, bound: int) -> List[ClaspParams]:
    """All parameters with |l1|, |l2|, |l| <= bound realizing (a2, a4).

    Both disk types solve one conic: with s = eps1 eps2, c = a2 (type II)
    or a2 - s (type X), X = 2 l1 - eps1 c, l2 = eps2 (c - eps1 X) / 2 and
    Y = 2l (type II) or 2l + 1 (type X), (a2, a4) is realized exactly when
    X^2 + s Y^2 = D = c^2 - 4 a4 (+ s for type X); Y's parity then forces
    X = c (mod 2).  The bound caps the search, so the cost is
    O(min(sqrt|D|, bound)) plus the output, which is sorted.  Where the s = -1 conic
    is the lines X = +-Y (4 a4 = a2^2 for type II, 4 a4 = a2 (a2 + 2) for type X),
    the output grows by 8 parameters per unit of bound.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if disk_type not in (TYPE_X, TYPE_II):
        raise ValueError("disk type must be 'X' or 'II'")
    odd = int(disk_type == TYPE_X)
    out = []
    for s in (1, -1):
        c = a2 - s * odd
        for x, y in _conic_points(s, c * c - 4 * a4 + s * odd, 4 * bound + 1 - abs(c)):
            if (y - odd) % 2 or x + abs(c) > 2 * bound:
                continue  # |l1|, |l2| <= bound exactly when |X| + |c| <= 2 bound
            for X, Y in {(x, y), (-x, y), (x, -y), (-x, -y)}:
                if abs(Y - odd) <= 2 * bound:
                    for e1 in (1, -1):
                        l1, l2 = (X + e1 * c) // 2, s * e1 * (c - e1 * X) // 2
                        out.append(ClaspParams(e1, s * e1, l1, l2, (Y - odd) // 2, disk_type))
    return sorted(out)


def _conic_points(s: int, D: int, size: int):
    """Points X, Y >= 0 of X^2 + s Y^2 = D (s = +-1), every one with X + Y <= size among them."""
    if s == 1:  # walk the circle
        for x in range(min(isqrt(D), size) + 1) if D >= 0 else ():
            y = isqrt(D - x * x)
            if y * y == D - x * x:
                yield x, y
    elif D == 0:  # the line X = Y
        for x in range(size // 2 + 1):
            yield x, x
    else:  # divisor pairs of (X + Y)(X - Y) = D
        n = abs(D)
        for t in range(1, min(isqrt(n), size) + 1):  # t, the smaller factor, is <= X + Y
            u = n // t
            if n % t == 0 and (u - t) % 2 == 0:
                yield ((u + t) // 2, (u - t) // 2) if D > 0 else ((u - t) // 2, (u + t) // 2)


def typeX_parity_obstruction(a2: int, a4: int) -> bool:
    """True when a4 is odd and a2 even, which rules out a type-X disk."""
    return a4 % 2 == 1 and a2 % 2 == 0


def kadokami_kawamura_excluded(a2: int, a4: int) -> bool:
    """True when a4 = 3 (mod 8) and a2 = 2 (mod 4): no two-clasp disk at all."""
    return a4 % 8 == 3 and a2 % 4 == 2


def p0_model(
    p: ClaspParams,
    p0_K1: LaurentPoly,
    p0_K2: LaurentPoly,
    p0_K3: Optional[LaurentPoly] = None,
) -> LaurentPoly:
    """Modeled zeroth coefficient polynomial of a two-clasp knot.

    Needs the companion polynomials of the annulus cores K1, K2 and, for
    type II only, of the third smoothed component K3.
    """
    e1, e2, l1, l2, l = p.eps1, p.eps2, p.l1, p.l2, p.l
    if p.disk_type == TYPE_II and p0_K3 is None:
        raise ValueError("type II needs the companion polynomial p0_K3")
    if p.disk_type == TYPE_X and p0_K3 is not None:
        raise ValueError("type X has no third companion component")
    acc = LaurentPoly.term(1, ev=2 * (e1 + e2))
    acc = acc + (p0_K1 * p0_K1 * _V_INV_MINUS_V).shift(e1 + 2 * e2 + 2 * l1, 0, e1)
    acc = acc + (p0_K2 * p0_K2 * _V_INV_MINUS_V).shift(e2 + 2 * e1 + 2 * l2, 0, e2)
    if p.disk_type == TYPE_II:
        triple = p0_K1 * p0_K2 * p0_K3 * _V_INV_MINUS_V * _V_INV_MINUS_V
        acc = acc + triple.shift(2 * (l1 + l2 + l) + e1 + e2, 0, e1 * e2)
    return acc


# -- sum-of-two-squares obstruction search -----------------------------------

class SquareSearchResult(NamedTuple):
    status: str  # "found" | "refuted" | "inconclusive"
    reason: str = ""
    f1: Optional[LaurentPoly] = None
    f2: Optional[LaurentPoly] = None


def typeX_sum_of_squares_search(
    p0_K: LaurentPoly,
    eps1: int,
    eps2: int,
    deg_bound: int = 6,
    coeff_bound: int = 8,
    node_cap: int = 500_000,
) -> SquareSearchResult:
    """Search for (p0_K - v^(2(eps1+eps2))) / (v^-2 - 1) = eps1 f1^2 + eps2 f2^2.

    f1, f2 range over Laurent polynomials with purely even or purely odd
    v-exponents in [-deg_bound, deg_bound] and coefficients bounded by
    coeff_bound.  A non-exact division by v^-2 - 1 (``_unlink_quotient``)
    or an odd exponent surviving it is a definitive refutation for this
    sign pair; exhausting the bounds or the node cap is reported as
    inconclusive, never as refutation.

    The depth-first search (``_SquareSearcher``) places its nodes at even
    exponents only and runs on an explicit stack, so any deg_bound is
    safe: the work is bounded by node_cap, not by the Python stack.
    """
    if eps1 not in (1, -1) or eps2 not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    if deg_bound < 0 or coeff_bound < 0 or node_cap < 0:
        raise ValueError("bounds must be nonnegative")
    if any(ez for (_, ez), _ in p0_K.items()):
        raise ValueError("p0 must be a v-only polynomial")
    r = _unlink_quotient(p0_K - LaurentPoly.term(1, ev=2 * (eps1 + eps2)))
    if r is None:
        return SquareSearchResult("refuted", "division by v^-2 - 1 is not exact")
    if any(ev % 2 for (ev, _), _ in r.items()):
        return SquareSearchResult(
            "refuted", "quotient has odd v-exponents, never a sum of two squares"
        )
    searcher = _SquareSearcher(eps1, eps2, deg_bound, coeff_bound, node_cap)
    hit = searcher.run(r)
    if hit is not None:
        f1, f2 = hit
        check = (f1 * f1).shift(0, 0, eps1) + (f2 * f2).shift(0, 0, eps2)
        if check != r:
            raise RuntimeError("witness verification failed")
        return SquareSearchResult("found", "", f1, f2)
    if searcher.exhausted_cap:
        return SquareSearchResult("inconclusive", "search node cap exhausted")
    return SquareSearchResult("inconclusive", "no witness within bounds")


def _unlink_quotient(p: LaurentPoly) -> Optional[LaurentPoly]:
    """The v-only q with p = (v^-2 - 1) q, or None if there is none.

    p_e = q_(e+2) - q_e, so from the top exponent down q_e is minus the
    running sum of p's coefficients of e's parity; the division is exact
    iff both sums end at 0 (p vanishes at v = 1 and v = -1)."""
    if not p:
        return p
    sums = [0, 0]
    q = {}
    for e in range(p.v_degree(), p.v_min() - 1, -1):
        sums[e % 2] += p.coefficient(e, 0)
        q[e, 0] = -sums[e % 2]
    return LaurentPoly(q) if sums == [0, 0] else None


class _SquareSearcher:
    """Complete frontier-descent search for eps1 f1^2 + eps2 f2^2 = r.

    Walks the contribution exponent E from 2*deg_bound down to
    -2*deg_bound in steps of 2, as r and every contribution (2 * lead *
    next, or next^2 while f is zero) have even exponents.  At each E the
    undetermined contributions can only come from each f's *next* (highest
    remaining) term, so the coefficient equation at E forces every choice
    except the genuinely free joint splits, which are enumerated.  Joint
    placements cover the cancelling-leading-squares solutions that a
    residual-top chase would miss.  Each f's leading coefficient is
    normalized positive (f and -f square identically).

    A search node is ``(E, r, state1, state2)`` with the residual r and,
    for each f, the state ``(f, lead, cap)``: f so far, its leading
    ``(exponent, coefficient)`` (None while f is zero; terms are placed
    top down, so the first placement fixes it) and the highest exponent
    its next term may take.  The depth-first search runs on an explicit
    stack, children pushed in reverse so that they pop in the order
    nobody / f1 alone / f2 alone / both, so the node cap, not the Python
    stack, bounds any deg_bound; it stops at the first node past the cap.
    Each node clears r at E and adds nothing above E, so r's degree is
    checked against the window once, before the first node.
    """

    def __init__(self, eps1, eps2, deg_bound, coeff_bound, node_cap):
        self.eps = (eps1, eps2)
        self.D = deg_bound
        self.C = coeff_bound
        self.cap = node_cap
        self.nodes = 0
        self.exhausted_cap = False

    def run(self, r: LaurentPoly):
        """A pair (f1, f2) with eps1 f1^2 + eps2 f2^2 = r, or None."""
        D, C = self.D, self.C
        sign0, sign1 = self.eps
        if r and r.v_degree() > 2 * D:
            return None
        empty = (LaurentPoly.zero(), None, D)
        stack = [(2 * D, r, empty, empty)]
        while stack:
            E, r, st0, st1 = stack.pop()
            self.nodes += 1
            if self.nodes > self.cap:
                self.exhausted_cap = True
                return None
            if E < -2 * D:
                if not r:
                    return st0[0], st1[0]
                continue
            c = r.coefficient(E, 0)
            s0 = self._next_slot(st0, E)
            s1 = self._next_slot(st1, E)
            children = []

            # Nobody contributes at E.
            if c == 0:
                children.append((E - 2, r, st0, st1))

            # Exactly one f contributes.
            if s0 is not None:
                b = self._coeff_option(st0[1], sign0, c)
                if b is not None:
                    n0, d0 = self._placed(st0, sign0, s0, b)
                    children.append((E - 2, r - d0, n0, st1))
            if s1 is not None:
                b = self._coeff_option(st1[1], sign1, c)
                if b is not None:
                    n1, d1 = self._placed(st1, sign1, s1, b)
                    children.append((E - 2, r - d1, st0, n1))

            # Both contribute at E jointly.
            if s0 is not None and s1 is not None:
                lead0 = st0[1]
                for b0 in range(1, C + 1) if lead0 is None else range(-C, C + 1):
                    if not b0:
                        continue
                    contrib0 = sign0 * b0 * b0 if lead0 is None else sign0 * 2 * lead0[1] * b0
                    b1 = self._coeff_option(st1[1], sign1, c - contrib0)
                    if b1 is not None:
                        n0, d0 = self._placed(st0, sign0, s0, b0)
                        n1, d1 = self._placed(st1, sign1, s1, b1)
                        children.append((E - 2, r - d0 - d1, n0, n1))

            stack.extend(reversed(children))
        return None

    def _next_slot(self, state, E: int) -> Optional[int]:
        """Exponent where f's next term must sit to contribute at E, or None."""
        _, lead, cap = state
        s = E // 2 if lead is None else E - lead[0]
        return s if -self.D <= s <= cap else None

    def _coeff_option(self, lead, eps_i, want) -> Optional[int]:
        """The nonzero next coefficient b with f's contribution at E equal to want, or None."""
        if lead is None:
            if eps_i * want <= 0:
                return None
            b = isqrt(eps_i * want)
            return b if b * b == eps_i * want and b <= self.C else None
        den = 2 * eps_i * lead[1]
        if want % den:
            return None
        b = want // den
        return b if b != 0 and abs(b) <= self.C else None

    @staticmethod
    def _placed(state, eps_i, s, b):
        """f's state after placing b*v^s, and the change eps_i * ((f + b v^s)^2 - f^2)."""
        f, lead, _ = state
        delta = f.shift(s, 0, 2 * b * eps_i) + LaurentPoly.term(eps_i * b * b, ev=2 * s)
        return (f + LaurentPoly.term(b, ev=s), lead or (s, b), s - 2), delta
