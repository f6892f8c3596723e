"""Rational tangles and length-three Montesinos knots.

A rational number p/q (or the infinity tangle 1/0) is expanded by a
minimal-absolute-remainder continued fraction [a1..an] satisfying

    p/q = a_n + 1/(a_{n-1} + 1/(... + 1/a_1)),

with a1 != 0 and a possibly zero trailing a_n; ties in the rounding take
the floor.  The tangle Q(p/q) alternates horizontal twist blocks [a_k]
(added) and vertical blocks [1/a_k] (stacked), ending with the
horizontal [a_n].  The Montesinos knot K(r1, r2, r3) is the closure of
Q(r1) + Q(r2) + Q(r3): northeast to northwest, southeast to southwest.

Twist handedness calibration: positive horizontal and positive vertical
twists both cross the SW-NE strand *under* the SE-NW strand.  With this
choice the numerator closure of Q(p/q) has determinant |p|, and
K(-2/3, inf, -2/3) is the connected sum of two *positive* trefoils, the
chirality stated alongside the classification; the audit lives in the
test suite.

Tangle ends are ints numbered like the darts of ``diagram``: dart 4c + s
is slot s of crossing c, and boundary end i is -1 - i.  Faces come from
the walk that checks a PD code's planarity.

Closures are oriented by component tracing from the lowest-numbered
strand end, closed braids down the braid; multi-component closures are
returned as ordinary diagrams and callers that need knots must check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .diagram import Diagram, _faces

End = int  # dart 4c + s (slot s of crossing c), or boundary end -1 - i


class ExtendedRational(NamedTuple("ExtendedRational", [("p", int), ("q", int)])):
    """p/q in lowest terms with q >= 0; q == 0 encodes the infinity tangle.

    A tuple ``(p, q)``: format it with ``str`` or an f-string, never as the
    whole right operand of ``%``.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if q < 0:
            p, q = -p, -q
        if q == 0:
            if p == 0:
                raise ValueError("0/0 is not an extended rational")
            p = 1
        else:
            g = gcd(abs(p), q)
            if g > 1:
                p, q = p // g, q // g
        return super().__new__(cls, p, q)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise ValueError("infinity has no rational value")
        return Fraction(self.p, self.q)

    @classmethod
    def parse(cls, text: str) -> "ExtendedRational":
        """``p``, ``p/q`` or ``inf``; anything else raises ValueError naming it."""
        t = text.strip()
        if t in ("inf", "∞", "1/0"):
            return cls(1, 0)
        num, slash, den = t.partition("/")
        try:
            p, q = int(num), (int(den) if slash else 1)
        except ValueError:
            raise ValueError(f"not a fraction: {text!r} (expected p, p/q or inf)") from None
        return cls(p, q)

    def __str__(self):
        if self.is_infinity:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"


class MontesinosDesc(NamedTuple("MontesinosDesc", [("entries", Tuple[ExtendedRational, ...])])):
    """An ordered triple of extended rationals K(r1, r2, r3): a 1-tuple."""

    __slots__ = ()

    def __new__(cls, entries: Tuple[ExtendedRational, ExtendedRational, ExtendedRational]):
        if len(entries) != 3:
            raise ValueError("length-three Montesinos descriptions only")
        return super().__new__(cls, entries)

    @classmethod
    def of(cls, *rs) -> "MontesinosDesc":
        entries = tuple(
            r if isinstance(r, ExtendedRational) else ExtendedRational.parse(str(r))
            for r in rs
        )
        return cls(entries)

    @classmethod
    def parse(cls, text: str) -> "MontesinosDesc":
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError("expected three comma-separated fractions")
        return cls(tuple(ExtendedRational.parse(p) for p in parts))

    def __str__(self):
        return "K(%s,%s,%s)" % self.entries


def continued_fraction(r: ExtendedRational) -> List[int]:
    """Minimal-absolute-remainder expansion [a1..an]; see module docstring."""
    if r.is_infinity:
        raise ValueError("infinity has no continued fraction")
    x = r.as_fraction()
    if x == 0:
        return [0]
    outer_first: List[int] = []
    while True:
        floor = x.numerator // x.denominator
        frac = x - floor
        a = floor if frac <= Fraction(1, 2) else floor + 1
        rem = x - a
        outer_first.append(a)
        if rem == 0:
            break
        x = 1 / rem
    return outer_first[::-1]


def evaluate_continued_fraction(a: Sequence[int]) -> Fraction:
    """Reassemble a_n + 1/(a_{n-1} + ... + 1/a_1) exactly."""
    acc = Fraction(a[0])
    for k in a[1:]:
        acc = Fraction(k) + 1 / acc
    return acc


# -- unoriented tangles -------------------------------------------------------

class Tangle:
    """A 4-ended unoriented tangle fragment.

    Crossings have slots 0..3 in counterclockwise order; the strand
    through slots (0, 2) passes under the strand through (1, 3).  An end
    is dart 4c + s (slot s of crossing c, so its strand partner across
    the crossing is ``d ^ 2``) or boundary end -1 - i.  ``pair`` is the
    arc involution on ends; ``boundary`` names the four open boundary
    ends NW, NE, SW, SE.
    """

    def __init__(self):
        self.num_crossings = 0
        self.pair: Dict[End, End] = {}
        self.boundary: Dict[str, End] = {}
        self.loops = 0
        self._next_end = 0

    def _new_end(self) -> End:
        self._next_end += 1
        return -self._next_end

    def _join(self, x: End, y: End):
        self.pair[x] = y
        self.pair[y] = x

    def _absorb(self, other: "Tangle") -> Dict[str, End]:
        """Add a disjoint copy of other; returns its boundary-end map."""
        doff = 4 * self.num_crossings
        eoff = self._next_end

        def shift(e: End) -> End:
            return e + doff if e >= 0 else e - eoff

        for x, y in other.pair.items():
            self.pair[shift(x)] = shift(y)
        self.num_crossings += other.num_crossings
        self._next_end += other._next_end
        self.loops += other.loops
        return {tag: shift(e) for tag, e in other.boundary.items()}

    def _connect(self, e1: End, e2: End):
        """Glue two boundary ends, fusing their strands."""
        x = self.pair.pop(e1)
        self.pair.pop(x, None)
        if x == e2:
            # e1 and e2 were the two ends of one strand: it closes up.
            self.loops += 1
            return
        y = self.pair.pop(e2)
        self.pair.pop(y, None)
        self._join(x, y)


# Crossing slot at each compass end of the one-crossing tangles: variant A
# runs the SW-NE strand (slots 0, 2) under the SE-NW strand, B the reverse.
# This is the handedness calibration of the module docstring.
_SLOTS = {
    "A": {"SW": 0, "SE": 1, "NE": 2, "NW": 3},
    "B": {"SE": 0, "NE": 1, "NW": 2, "SW": 3},
}
_ZERO = (("NW", "NE"), ("SW", "SE"))
_INFINITY = (("NW", "SW"), ("NE", "SE"))

# Gluing b onto a side of a joins these (a end, b end) pairs; each end a
# gives up there is taken over by b's end of the same name.
_GLUE = {
    "E": (("NE", "NW"), ("SE", "SW")),  # b to the east: a + b
    "S": (("SW", "NW"), ("SE", "NE")),  # b below: a * b
    "N": (("NW", "SW"), ("NE", "SE")),  # b above
}


def _tangle(pairs, num_crossings: int = 0) -> Tangle:
    """A fresh tangle joining ``pairs`` of compass tags or darts."""
    t = Tangle()
    t.num_crossings = num_crossings
    t.boundary = {tag: t._new_end() for tag in ("NW", "NE", "SW", "SE")}
    for x, y in pairs:
        t._join(t.boundary.get(x, x), t.boundary.get(y, y))
    return t


def _glue(a: Tangle, b: Optional[Tangle], side: str) -> Tangle:
    """Glue b onto ``side`` of a, numbering a's crossings first.

    With b None, a's own ends stand in for b's: side E then gives the
    numerator closure.
    """
    out = Tangle()
    out.boundary = out._absorb(a)
    far = out.boundary if b is None else out._absorb(b)
    for x, y in _GLUE[side]:
        out._connect(out.boundary[x], far[y])
    if b is None:
        out.boundary = {}
    else:
        out.boundary.update({x: far[x] for x, _ in _GLUE[side]})
    return out


def tangle_sum(a: Tangle, b: Tangle) -> Tangle:
    return _glue(a, b, "E")


def _twists(n: int, side: str, empty) -> Tangle:
    """|n| crossings in a line toward ``side``; ``empty`` pairs at n = 0.

    As if each crossing were glued onto ``side`` of the last: for each
    ``_GLUE[side]`` pair, crossing c's slot at the a end joins crossing
    c + 1's slot at the b end.  The a ends are the last crossing's, the
    other compass ends the first's.
    """
    if n == 0:
        return _tangle(empty)
    slots, m = _SLOTS["A" if n > 0 else "B"], abs(n)
    last = {x: 4 * (m - 1) for x, _ in _GLUE[side]}  # dart offset per compass end
    pairs = [(tag, s + last.get(tag, 0)) for tag, s in slots.items()]
    pairs += [(4 * c + slots[x], 4 * c + 4 + slots[y])
              for c in range(m - 1) for x, y in _GLUE[side]]
    return _tangle(pairs, m)


def horizontal_twists(n: int) -> Tangle:
    """The [n] tangle: |n| crossings in a row."""
    return _twists(n, "E", _ZERO)


def vertical_twists(n: int) -> Tangle:
    """The [1/n] tangle: |n| crossings in a column (infinity tangle at n = 0)."""
    return _twists(n, "N", _INFINITY)


def rational_tangle(r: ExtendedRational) -> Tangle:
    """Q(p/q) built from the continued fraction blocks."""
    if r.is_infinity:
        return _tangle(_INFINITY)
    a = continued_fraction(r)
    t: Optional[Tangle] = None
    for k, x in enumerate(a):
        # Blocks alternate, ending with the horizontal [a_n].
        horizontal = (len(a) - k) % 2 == 1
        block = horizontal_twists(x) if horizontal else vertical_twists(x)
        t = block if t is None else _glue(t, block, "E" if horizontal else "S")
    return t


def closure_tangle(t: Tangle) -> Tangle:
    """Numerator closure in tangle space: join NE to NW and SE to SW."""
    return _glue(t, None, "E")


def closure(t: Tangle) -> Diagram:
    """Numerator closure, oriented by component tracing."""
    return _emit(closure_tangle(t))


def tangle_faces(t: Tangle) -> List[Tuple[End, ...]]:
    """Faces of a closed tangle: tuples of the darts 4c + s whose arcs bound
    them, in boundary order, from ``diagram._faces`` over the sorted darts.
    """
    if any(e < 0 for e in t.pair):
        raise ValueError("faces are defined for closed tangles")
    return [tuple(f) for f in _faces(t.pair, sorted(t.pair))]


def insert_clasp(t: Tangle, dart_a: End, dart_b: End, sign: int) -> Tangle:
    """Insert a two-crossing clasp joining the arcs of two darts of one face.

    The darts are ints 4c + s from ``tangle_faces``; dart d names the arc
    d -> ``t.pair[d]``, which the face walk traverses with the face on its
    right.  The clasp is the [+-2] horizontal twist block laid in the face,
    west flank on arc a and east flank on arc b, fusing the two strands.
    Clockwise around the face the cut ends come as a1, a2, b1, b2, and the
    block's ends SW, NW, NE, SE take them in that order: the one planar way.
    A sign other than +-1, or darts not both on one face (unknown darts
    included), raise ValueError.
    """
    if sign not in (1, -1):
        raise ValueError("clasp sign must be +1 or -1")
    if not any(dart_a in f and dart_b in f for f in tangle_faces(t)):
        raise ValueError("clasp darts must lie on one face")
    out = Tangle()
    out._absorb(t)
    a1, a2 = dart_a, out.pair[dart_a]
    b1, b2 = dart_b, out.pair[dart_b]
    if {a1, a2} == {b1, b2}:
        raise ValueError("clasp needs two distinct arcs")
    bmap = out._absorb(horizontal_twists(2 * sign))
    for cut in (a1, a2, b1, b2):
        del out.pair[cut]
    for end_tag, cut in (("SW", a1), ("NW", a2), ("NE", b1), ("SE", b2)):
        out._join(cut, out.pair.pop(bmap[end_tag]))
    out.boundary = {}
    return out


def _emit(t: Tangle, down: frozenset = frozenset()) -> Diagram:
    """Orient a closed tangle by component tracing and emit a PD diagram;
    a walk starts at its least dart, or at that dart's partner ``^ 2``
    through the crossing when only the partner is in ``down``.  A crossing
    is listed as a walk enters its under strand: by under-in label."""
    if any(e < 0 for e in t.pair):
        raise ValueError("tangle still has open boundary ends")
    label_at: Dict[End, int] = {}
    heads: List[List[int]] = [[] for _ in range(t.num_crossings)]  # in-slots
    order = []
    nxt = 1
    for start in sorted(t.pair):
        if start in label_at:
            continue
        if start not in down and start ^ 2 in down:
            start ^= 2
        # Walk the component: arc from cur to pair[cur], then through the
        # crossing to the opposite slot.
        cur = start
        while True:
            far = t.pair[cur]
            label_at[cur] = label_at[far] = nxt
            nxt += 1
            heads[far // 4].append(far % 4)
            if far % 2 == 0:
                order.append(far // 4)
            cur = far ^ 2
            if cur == start:
                break
    quads = []
    signs = []
    for c in order:
        # Every arc is walked once, so the trace enters each crossing once
        # on the strand through slots 0/2 and once on the one through 1/3.
        u, o = sorted(heads[c], key=lambda s: s % 2)
        quads.append(tuple(label_at[4 * c + (u + i) % 4] for i in range(4)))
        signs.append(1 if o == (u + 1) % 4 else -1)
    return Diagram._trusted(quads, signs, t.loops)


def montesinos_diagram(m: MontesinosDesc) -> Diagram:
    """Closure of Q(r1) + Q(r2) + Q(r3)."""
    return closure(reduce(tangle_sum, map(rational_tangle, m.entries)))


def pretzel_diagram(*twists: int) -> Diagram:
    """P(t1, ..., tk): numerator closure of summed vertical twist regions."""
    return closure(reduce(tangle_sum, map(vertical_twists, twists)))


def closed_braid(word: Sequence[int], n_strands: int) -> Diagram:
    """Closure of a braid word (nonzero ints, sign = crossing handedness).

    Strands run down the braid.  Unused positions close into split
    unknots.  Raises ValueError when n_strands < 1.
    """
    if n_strands < 1:
        raise ValueError("n_strands must be >= 1")
    if any(g == 0 or abs(g) >= n_strands for g in word):
        raise ValueError("braid letters must be nonzero and < n_strands")
    t = Tangle()
    cur: List[Optional[End]] = [None] * n_strands
    first_in: List[Optional[End]] = [None] * n_strands
    down = set()  # darts that leave a crossing downwards
    for g in word:
        i = abs(g) - 1
        # sigma_i^+1: left strand passes over, as the SE-NW strand of
        # variant A does.
        slots = _SLOTS["A" if g > 0 else "B"]
        c = t.num_crossings
        t.num_crossings += 1
        for pos, tag in ((i, "NW"), (i + 1, "NE")):
            end = 4 * c + slots[tag]
            if cur[pos] is None:
                first_in[pos] = end
            else:
                t._join(cur[pos], end)
        cur[i] = 4 * c + slots["SW"]
        cur[i + 1] = 4 * c + slots["SE"]
        down.update(cur[i:i + 2])

    for j in range(n_strands):
        if first_in[j] is None:
            t.loops += 1
        else:
            t._join(cur[j], first_in[j])
    return _emit(t, down)


class CatalogEntry(NamedTuple("CatalogEntry", [
        ("family", str), ("name", str), ("diagram", Optional[Diagram]),
        ("description", Optional[MontesinosDesc]), ("params", dict), ("note", str)])):
    """One knot of the genus-two clasp-two type-II classification: a tuple.

    ``family`` is "i" (connected sums), "ii" (two-bridge), "iii"
    (Montesinos) or "iv" (exceptional); omitted ``params`` are a fresh dict.
    """

    __slots__ = ()

    def __new__(cls, family, name, diagram, description=None, params=None, note=""):
        return super().__new__(cls, family, name, diagram, description,
                               {} if params is None else params, note)


def theorem1_catalog(n_bound: int, census, exceptional) -> List[CatalogEntry]:
    """Generate the classification list up to the Montesinos family bound.

    (i) the four connected sums from the census trefoil and figure-eight;
    (ii) the two-bridge knots via their Montesinos expressions; (iii) the
    six classified Montesinos families over |n| <= n_bound (the 1/(2n)
    families skip n = 0, whose degenerate infinity entry reproduces the
    connected sums already listed); (iv) the twelve exceptional knots,
    emitted without diagrams and flagged when ``exceptional`` is empty.

    The caller supplies the data: ``census`` maps names to diagrams (it
    needs ``3_1`` and ``4_1``, as from ``census.load_census``), and
    ``exceptional`` is a list like ``census.load_exceptional`` returns.
    """
    if n_bound < 0:
        raise ValueError("n_bound must be nonnegative")
    missing = [name for name in ("3_1", "4_1") if name not in census]
    if missing:
        raise ValueError("census is missing required entries: " + ", ".join(missing))
    entries: List[CatalogEntry] = []

    tre = census["3_1"]
    f8 = census["4_1"]
    sums = [
        ("3_1#3_1", tre.connected_sum(tre)),
        ("3_1#4_1", tre.connected_sum(f8)),
        ("4_1#4_1", f8.connected_sum(f8)),
        ("3_1#mirror(3_1)", tre.connected_sum(tre.mirror())),
    ]
    for name, d in sums:
        entries.append(CatalogEntry("i", name, d))

    two_bridge = [
        ("6_2", MontesinosDesc.parse("-2/3,2,1/2")),
        ("6_3", MontesinosDesc.parse("-2/3,-2,1/2")),
        ("7_7", MontesinosDesc.parse("-2/5,2,1/2")),
        ("mirror(7_6)", MontesinosDesc.parse("-2/5,-2,1/2")),
    ]
    for name, m in two_bridge:
        entries.append(CatalogEntry("ii", name, montesinos_diagram(m), m))

    def fam(r1, r2, r3, n, tag):
        m = MontesinosDesc.of(r1, r2, r3)
        d = montesinos_diagram(m)
        entries.append(CatalogEntry("iii", str(m), d, m, {"n": n, "family": tag}))

    for n in range(-n_bound, n_bound + 1):
        for eps in (1, -1):
            for k in (3, 5):
                fam(ExtendedRational(1, 2), ExtendedRational(-2, k), ExtendedRational(2, 4 * n + eps), n, f"K(1/2,-2/{k},2/(4n{eps:+d}))")
        if n != 0:
            for k, j in ((3, 3), (3, 5), (5, 3), (5, 5)):
                fam(ExtendedRational(1, 2 * n), ExtendedRational(2, k), ExtendedRational(-2, j), n, f"K(1/(2n),2/{k},-2/{j})")

    for e in entries:
        if e.diagram is not None and e.diagram.num_components != 1:
            raise ValueError(f"catalog entry {e.name} is not a knot")

    if exceptional:
        for k in exceptional:
            entries.append(
                CatalogEntry(
                    "iv", k.name, k.diagram, params={"eps1": k.eps1, "eps2": k.eps2}
                )
            )
    else:
        for i in (1, 2, 3):
            for e1 in (1, -1):
                for e2 in (1, -1):
                    entries.append(
                        CatalogEntry(
                            "iv",
                            f"Kex{i}({e1:+d},{e2:+d})",
                            None,
                            params={"eps1": e1, "eps2": e2},
                            note="missing exceptional-knot data file",
                        )
                    )
    return entries


def montesinos_equivalent(m1: MontesinosDesc, m2: MontesinosDesc) -> bool:
    """Decide K(r1,r2,r3) = K(r1',r2',r3') by the classification criterion.

    True iff the multisets of fractional parts agree and the sums agree;
    stated for rational entries only.
    """
    for m in (m1, m2):
        if any(r.is_infinity for r in m.entries):
            raise ValueError("equivalence criterion needs finite entries")
    f1 = sorted(r.as_fraction() % 1 for r in m1.entries)
    f2 = sorted(r.as_fraction() % 1 for r in m2.entries)
    s1 = sum(r.as_fraction() for r in m1.entries)
    s2 = sum(r.as_fraction() for r in m2.entries)
    return f1 == f2 and s1 == s2
