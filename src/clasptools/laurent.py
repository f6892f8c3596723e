"""Exact sparse Laurent polynomials over Z in the variables v and z.

Every invariant in this package lives here: the Conway polynomial is a
polynomial in z, the zeroth coefficient polynomial lives in Z[v^2, v^-2],
and the HOMFLY polynomial uses both variables.  A polynomial is stored as
a sparse map from exponent pairs (e_v, e_z) to nonzero integer
coefficients; z-only and v-only polynomials are simply the polynomials
whose terms have e_v = 0 (resp. e_z = 0), so mixed arithmetic needs no
embedding step.

Values are immutable and hashable.  The text form (see ``to_text``) is
ordered by ascending z-exponent, then ascending v-exponent.
"""

from __future__ import annotations

from operator import index
from typing import Iterator, Mapping, Optional, Tuple

Exponents = Tuple[int, int]


class LaurentPoly:
    """A Laurent polynomial sum of c * v^e_v * z^e_z with integer c."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Exponents, int]] = None):
        t = {}
        for (ev, ez), c in (terms or {}).items():
            try:
                c, key = index(c), (index(ev), index(ez))
            except TypeError:
                raise ValueError(f"term {c!r}*v^{ev!r}*z^{ez!r} is not integral") from None
            if c:
                t[key] = c
        self._terms = t

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, c: int, ev: int = 0, ez: int = 0) -> "LaurentPoly":
        """The monomial c * v^ev * z^ez (the zero polynomial when c is 0)."""
        out = cls.__new__(cls)
        try:  # the constructor's checks, without its loop: the clasp search makes many
            c, key = index(c), (index(ev), index(ez))
        except TypeError:
            return cls({(ev, ez): c})  # raises, naming the term
        out._terms = {key: c} if c else {}
        return out

    # -- basic queries -----------------------------------------------

    def items(self) -> Iterator[Tuple[Exponents, int]]:
        return iter(sorted(self._terms.items(), key=lambda kv: (kv[0][1], kv[0][0])))

    def coefficient(self, ev: int = 0, ez: int = 0) -> int:
        """The stored coefficient of v^ev * z^ez, or 0."""
        return self._terms.get((ev, ez), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def z_degree(self) -> Optional[int]:
        """Largest z-exponent, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(ez for _, ez in self._terms)

    def v_degree(self) -> Optional[int]:
        if not self._terms:
            return None
        return max(ev for ev, _ in self._terms)

    def v_min(self) -> Optional[int]:
        if not self._terms:
            return None
        return min(ev for ev, _ in self._terms)

    def z_coefficient(self, ez: int) -> "LaurentPoly":
        """The v-only polynomial multiplying z^ez."""
        return LaurentPoly({(ev, 0): c for (ev, e), c in self._terms.items() if e == ez})

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        t = dict(self._terms)
        for k, c in other._terms.items():
            s = t.get(k, 0) + c
            if s:
                t[k] = s
            else:
                t.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = t
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        t = dict(self._terms)
        for k, c in other._terms.items():
            s = t.get(k, 0) - c
            if s:
                t[k] = s
            else:
                t.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = t
        return out

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        t: dict = {}
        for (av, az), ac in self._terms.items():
            for (bv, bz), bc in other._terms.items():
                k = (av + bv, az + bz)
                t[k] = t.get(k, 0) + ac * bc
        return LaurentPoly(t)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("only nonnegative powers are supported")
        acc = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def shift(self, dv: int, dz: int, scale: int = 1) -> "LaurentPoly":
        """Multiply by scale * v^dv * z^dz (a fast monomial product)."""
        if scale == 0:
            return LaurentPoly.zero()
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {(ev + dv, ez + dz): c * scale for (ev, ez), c in self._terms.items()}
        return out

    # -- equality / hashing ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- substitutions ------------------------------------------------

    def substitute_v(self, value: int) -> "LaurentPoly":
        """Replace v by +1 or -1, collapsing to a z-only polynomial."""
        if value not in (1, -1):
            raise ValueError("v can only be specialized to +1 or -1")
        t: dict = {}
        for (ev, ez), c in self._terms.items():
            if value == -1 and ev % 2:
                c = -c
            t[0, ez] = t.get((0, ez), 0) + c
        return LaurentPoly(t)

    def invert_v(self) -> "LaurentPoly":
        """Substitute v -> v^-1 (the mirror action on v-only polynomials)."""
        return LaurentPoly({(-ev, ez): c for (ev, ez), c in self._terms.items()})

    # -- text form ----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: ascending z-exponent, then ascending v-exponent.

        Examples: ``0``, ``1``, ``2*v^2 + -1*v^4 + 1*v^2*z^2``.  Coefficients
        are always written (including 1 and -1) except on the bare constant
        term; exponent 1 is written without ``^1``.
        """
        if not self._terms:
            return "0"
        parts = []
        for (ev, ez), c in self.items():
            if ev == 0 and ez == 0:
                parts.append(str(c))
                continue
            frag = [str(c)]
            if ev:
                frag.append("v" if ev == 1 else f"v^{ev}")
            if ez:
                frag.append("z" if ez == 1 else f"z^{ez}")
            parts.append("*".join(frag))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r})"


# (v^-1 - v) / z, the HOMFLY value of adding one split unknot component.
UNLINK_FACTOR = LaurentPoly({(-1, -1): 1, (1, -1): -1})


def extract_p_i(P: LaurentPoly, num_components: int, i: int) -> LaurentPoly:
    """The i-th coefficient polynomial of a HOMFLY polynomial.

    Multiplies P by (v^-1 z)^(#K - 1) and reads off the v-only polynomial
    on z^(2i).  Raises ValueError if the normalized polynomial has odd or
    negative z-exponents, which means P is not the HOMFLY polynomial of a
    link with the stated number of components.
    """
    if num_components < 1:
        raise ValueError("a link has at least one component")
    if i < 0:
        raise ValueError("coefficient index must be nonnegative")
    norm = P.shift(-(num_components - 1), num_components - 1)
    for (_, ez) in norm._terms:
        if ez < 0 or ez % 2:
            raise ValueError(
                "normalized polynomial has odd or negative z-exponents; "
                f"not a {num_components}-component HOMFLY polynomial"
            )
    return norm.z_coefficient(2 * i)
