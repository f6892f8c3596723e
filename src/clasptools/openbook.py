"""Fundamental groups of open books over the three-holed sphere.

The mapping class of the pants is a product of boundary Dehn twists
T1^a T2^b T3^c, and the resulting closed 3-manifold has

    pi1 = < x, y | (xy)^a x^b, (xy)^a y^c >.

This module decides triviality of that group with three certificates:
the order of H1 is |ab + bc + ca|, the determinant of the 2x2
exponent-sum matrix, read off the triple before any word is built;
Todd-Coxeter coset enumeration settles the finite cases, and an
exhaustive search for a nontrivial map into S3, S4 or S5 certifies
nontriviality of the infinite ones.  Every verdict carries a
certificate; `inconclusive`, when no such map exists, is an honest
possible outcome, never silently converted.

Coset enumeration is skipped where it cannot finish.  Adding x^b to the
relators gives the von Dyck group D(|b|, |c|, |a|) = < x, y | x^b, y^c,
(xy)^a >, so pi1 maps onto it.  That group is infinite when its three
orders p <= q <= r have p >= 2 and 1/p + 1/q + 1/r <= 1 (Coxeter & Moser,
*Generators and Relations for Discrete Groups*, ch. 4), so pi1 is
infinite and no budget lets the coset table close.  Those triples go
straight to the witness search; when it finds nothing, the certificate
`{"method": "exhausted", "max_degree": 5}` names the search that ran out.

No relator is longer than 90 letters, whatever the exponents.  With the
smallest order |a| <= 1, pi1 is cyclic (a = 0 gives Z/b * Z/c, and
a = +-1 writes y as a power of x), so H1 = 1 makes it trivial and coset
enumeration runs on < x, y | x, y >.  With |a| >= 2, a finite von Dyck
quotient and H1 = 1 leave only (2, -3, -5) and (-2, 3, 5); for (2, 2, n),
(2, 3, 3) and (2, 3, 4), |ab + bc + ca| is never 1.  So Todd-Coxeter sees
three presentations, each closing within 1614 coset labels, far inside
its default budget.  The witness search reduces each exponent into
[-29, 30]: every element of S3, S4 and S5 has order dividing 60, so the
same pairs kill the relators.

The search tries one x image per cycle type and every y image.  A pair
conjugated by any permutation still kills the relators, so it returns the
first pair of the all-pairs search (S5: 7 x 120 pairs, not 120 x 120).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

Word = Tuple[int, ...]  # signed generator indices: 1 = x, -1 = x^-1, 2 = y, -2 = y^-1


def free_reduce(word: Sequence[int]) -> Word:
    out: List[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def power(word: Sequence[int], n: int) -> Word:
    if n >= 0:
        return free_reduce(tuple(word) * n)
    inv = tuple(-g for g in reversed(word))
    return free_reduce(inv * (-n))


@dataclass(frozen=True)
class Presentation:
    """A presentation on x, y with freely reduced relators."""

    relators: Tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "relators", tuple(free_reduce(r) for r in self.relators)
        )


@dataclass(frozen=True)
class OpenBookTriple:
    a: int
    b: int
    c: int

    def sorted_by_magnitude(self) -> "OpenBookTriple":
        s = sorted((self.a, self.b, self.c), key=lambda t: (abs(t), t))
        return OpenBookTriple(*s)

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)


def pi1_presentation(t: OpenBookTriple) -> Presentation:
    """< x, y | (xy)^a x^b, (xy)^a y^c > for the twist exponents (a, b, c)."""
    xy = (1, 2)
    r1 = free_reduce(power(xy, t.a) + power((1,), t.b))
    r2 = free_reduce(power(xy, t.a) + power((2,), t.c))
    return Presentation((r1, r2))


def h1_order(t: OpenBookTriple) -> int:
    """Order of H1 of the (a, b, c) open book (0 means infinite).

    The relators' exponent sums are (a + b, a) and (a, a + c), so this is
    ``abelianization_order(pi1_presentation(t))`` in closed form,
    |(a + b)(a + c) - a^2| = |ab + bc + ca|, with no word built.
    """
    return abs(t.a * t.b + t.b * t.c + t.c * t.a)


def abelianization_order(p: Presentation) -> int:
    """Order of H1 (0 means infinite): |det| of the exponent-sum matrix.

    H1 is Z^2 modulo the rows (exponent sum of x, of y) of the two
    relators, and a 2x2 integer matrix has a cokernel of order |det|.
    """
    if len(p.relators) != 2:
        raise ValueError("H1 as a determinant needs exactly two relators")
    (x1, y1), (x2, y2) = (
        [sum((g > 0) - (g < 0) for g in rel if abs(g) == k) for k in (1, 2)]
        for rel in p.relators
    )
    return abs(x1 * y2 - x2 * y1)


# -- Todd-Coxeter coset enumeration ------------------------------------------

class CosetTableExhausted(Exception):
    pass


def todd_coxeter(p: Presentation, max_cosets: int = 20000) -> Optional[int]:
    """Order of the presented group, or None when max_cosets is exhausted.

    Enumerates cosets of the trivial subgroup with the classic
    union-find/scan strategy; deterministic for a fixed presentation.

    max_cosets caps the coset labels defined: a label is never reused
    after a merge, so even < x, y | x, y > needs 3.  Each label keeps a
    table row and costs a scan, so the cap bounds time and memory even on
    an infinite group, where labels are defined without end; a cap on live
    cosets would bound neither.  Raises ValueError when max_cosets < 1.
    """
    if max_cosets < 1:
        raise ValueError(f"max_cosets must be >= 1, got {max_cosets}")
    ngens = 4  # x, X, y, Y columns
    rels = []
    for rel in p.relators:
        rels.append(tuple((abs(g) - 1) * 2 + (0 if g > 0 else 1) for g in rel))

    def inv(col: int) -> int:
        return col ^ 1

    labels: List[int] = []
    table: List[List[Optional[int]]] = []

    def new_coset() -> int:
        if len(labels) >= max_cosets:
            raise CosetTableExhausted
        labels.append(len(labels))
        table.append([None] * ngens)
        return len(labels) - 1

    def find(c: int) -> int:
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def unify(c1: int, c2: int):
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            labels[b] = a
            for g in range(ngens):
                tb = table[b][g]
                if tb is None:
                    continue
                ta = table[a][g]
                if ta is None:
                    table[a][g] = tb
                else:
                    stack.append((ta, tb))

    def step(c: int, g: int) -> int:
        c = find(c)
        nxt = table[c][g]
        if nxt is None:
            n = new_coset()
            table[c][g] = n
            table[n][inv(g)] = c
            return n
        return find(nxt)

    try:
        start = new_coset()
        scanned = 0
        while scanned < len(labels):
            c = scanned
            scanned += 1
            if find(c) != c:
                continue
            for rel in rels:
                cur = find(c)
                for g in rel:
                    cur = step(cur, g)
                unify(cur, c)
            # The table must be complete before the count means anything:
            # define images under every generator, not only those the
            # relators happen to trace.
            for g in range(ngens):
                if find(c) == c:
                    step(c, g)
        return sum(1 for i, l in enumerate(labels) if find(i) == i)
    except CosetTableExhausted:
        return None


# -- homomorphism witnesses ---------------------------------------------------

@lru_cache(maxsize=None)
def _search_space(deg: int):
    """Permutations of range(deg) in order, their inverses, and the x images.

    The x images are the permutations that come first of their cycle type,
    that is of their conjugacy class, in `permutations(range(deg))` order.
    """
    elems = list(permutations(range(deg)))
    inv = {}
    firsts: Dict[Tuple[int, ...], tuple] = {}
    for e in elems:
        inv[e] = tuple(sorted(range(deg), key=e.__getitem__))
        lengths, seen = [], set()
        for i in range(deg):
            n = 0
            while i not in seen:
                seen.add(i)
                i = e[i]
                n += 1
            if n:
                lengths.append(n)
        firsts.setdefault(tuple(sorted(lengths)), e)
    return tuple(elems), inv, tuple(firsts.values())


def _kills(word: Word, maps: Dict[int, tuple], deg: int) -> bool:
    """Whether the letters of `word`, applied last letter first, fix every point."""
    for i in range(deg):
        j = i
        for g in reversed(word):
            j = maps[g][j]
        if j != i:
            return False
    return True


def nontriviality_witness(p: Presentation) -> Optional[Dict[str, object]]:
    """A nontrivial map into S3, S4 or S5 as a certificate, or None.

    Returns the first pair of images for x and y, S3 first and then in
    `permutations` order with x outer, that kills every relator and is not
    both the identity.  Only an x that comes first of its cycle type is
    tried: conjugating a pair gives another pair with the same property, so
    the first x with any partner is the first of its conjugacy class, and
    for that x every y is tried in order.  A relator dies when every
    point, chased through its letters last letter first, comes back to
    itself.
    """
    for deg in (3, 4, 5):
        elems, inv, xs = _search_space(deg)
        ident = elems[0]
        for ix in xs:
            for iy in elems:
                if ix == ident and iy == ident:
                    continue
                maps = {1: ix, -1: inv[ix], 2: iy, -2: inv[iy]}
                if all(_kills(r, maps, deg) for r in p.relators):
                    return {"method": "homomorphism", "target": f"S{deg}",
                            "image_x": ix, "image_y": iy}
    return None


# -- classification -----------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    triple: Tuple[int, int, int]
    normalized: Tuple[int, int, int]
    verdict: str  # "trivial-pi1" | "nontrivial-pi1" | "inconclusive"
    certificate: Dict[str, object] = field(default_factory=dict)


def _von_dyck_infinite(t: OpenBookTriple) -> bool:
    """Whether D(|a|, |b|, |c|), a quotient of pi1, is infinite.

    With the orders sorted into p <= q <= r: p >= 2 and
    1/p + 1/q + 1/r <= 1, tested as qr + pr + pq <= pqr.
    """
    p, q, r = sorted(abs(n) for n in t.as_tuple())
    return p >= 2 and q * r + p * r + p * q <= p * q * r


def _decide(t: OpenBookTriple) -> Tuple[str, Dict[str, object]]:
    """Verdict and certificate for a normalized triple.

    H1 first, from the triple; then Todd-Coxeter, unless the von Dyck
    quotient is infinite, where no run within any budget could finish, on
    < x, y | x, y > when |a| <= 1 (pi1 is cyclic); then a witness, with the
    exponents reduced modulo 60.  Words stay short (module docstring).
    """
    h1 = h1_order(t)
    if h1 != 1:
        return "nontrivial-pi1", {"method": "abelianization", "h1_order": h1}
    if not _von_dyck_infinite(t):
        pres = Presentation(((1,), (2,))) if abs(t.a) <= 1 else pi1_presentation(t)
        order = todd_coxeter(pres)
        if order is not None:
            verdict = "trivial-pi1" if order == 1 else "nontrivial-pi1"
            return verdict, {"method": "todd-coxeter", "group_order": order}
    reduced = OpenBookTriple(*((n + 29) % 60 - 29 for n in t.as_tuple()))
    witness = nontriviality_witness(pi1_presentation(reduced))
    if witness is not None:
        return "nontrivial-pi1", witness
    return "inconclusive", {"method": "exhausted", "max_degree": 5}


def classify_triple(t: OpenBookTriple) -> Verdict:
    """Decide whether pi1 of the (a, b, c) pants open book is trivial.

    Normalizes by the boundary-relabeling symmetry (sort by magnitude),
    then: nontrivial abelianization => nontrivial; else Todd-Coxeter,
    where the von Dyck quotient is finite (it always closes there); else
    a homomorphism witness into S3, S4 or S5; else inconclusive.
    """
    norm = t.sorted_by_magnitude()
    verdict, cert = _decide(norm)
    return Verdict(t.as_tuple(), norm.as_tuple(), verdict, cert)


def _trivial_link_name(triple: Tuple[int, int, int]) -> Optional[str]:
    """Fibered link of a triple on the known trivial-pi1 list, else None.

    The list, as multisets: {0, +-1, +-1}, the (1, -1, n) family,
    (-1, 2, 3) and (-3, -2, 1).
    """
    ms = sorted(triple)
    if sorted(map(abs, ms)) == [0, 1, 1]:
        tags = {(-1, -1): "H-#H-", (-1, 1): "H-#H+", (1, 1): "H+#H+"}
        return tags[tuple(s for s in ms if s)]
    if 1 in ms and -1 in ms:
        return f"P(2,{-2 * sum(ms)},-2)"  # the sum is the third entry n
    return {(-1, 2, 3): "L^ex", (-3, -2, 1): "mirror(L^ex)"}.get(tuple(ms))


def classified_trivial_set(triple: Tuple[int, int, int]) -> bool:
    """Membership in the known trivial-pi1 list (compared as multisets)."""
    return _trivial_link_name(triple) is not None


def s3_fibered_link_name(triple: Tuple[int, int, int]) -> str:
    """Fibered link realizing a trivial triple, per the case analysis."""
    name = _trivial_link_name(triple)
    if name is None:
        raise ValueError(f"{triple} is not in the trivial list")
    return name


def s3_openbook_report(bound: int) -> List[dict]:
    """Classify all |a| <= |b| <= |c| <= bound and name the trivial bindings.

    Raises ValueError when bound < 1.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rows = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if not (abs(a) <= abs(b) <= abs(c)):
                    continue
                v = classify_triple(OpenBookTriple(a, b, c))
                row = {
                    "triple": (a, b, c),
                    "verdict": v.verdict,
                    "certificate": v.certificate,
                }
                if v.verdict == "trivial-pi1":
                    row["fibered_link"] = s3_fibered_link_name((a, b, c))
                rows.append(row)
    return rows
