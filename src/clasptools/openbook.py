"""Fundamental groups of open books over the three-holed sphere.

The mapping class of the pants is a product of boundary Dehn twists
T1^a T2^b T3^c, and the resulting closed 3-manifold has

    pi1 = < x, y | (xy)^a x^b, (xy)^a y^c >.

This module decides triviality of that group with one certificate per
case, on the triple sorted by magnitude.  Relators are plain tuples of
unreduced words.  The order of H1 is |ab + bc + ca|, the determinant of
the 2x2 exponent-sum matrix, read off the triple before any word is
built; H1 != 1 proves pi1 nontrivial.  With |a| <= 1, pi1 is cyclic
(a = 0 gives Z/b * Z/c, and a = +-1 writes y as a power of x), so H1 = 1
makes it trivial: Todd-Coxeter coset enumeration closes < x, y | x, y >
to order 1.  Every other triple goes to a search for a nontrivial map
into PSL(2, p), over the primes 5 <= p <= _MAX_PRIME, which builds no
word.  pi1 maps onto the von Dyck group < x, y | x^b, y^c, (xy)^a >, and
a hyperbolic one maps onto PSL(2, p) for suitable p (Macbeath 1969,
*Generators of the linear fractional groups*; Coxeter & Moser,
*Generators and Relations for Discrete Groups*, ch. 4).  The search
looks for x and y in SL(2, p) with x^b, y^c and (xy)^a all +-I, choosing
their traces from a table of the order of each trace.  As the orders of
non-scalar elements of PSL(2, p) are exactly the divisors >= 2 of p,
(p - 1)/2 and (p + 1)/2, a prime is tried only when every exponent
shares a factor with p(p^2 - 1)/4; any other is skipped before its table
is built.  The search misses no map into PSL(2, p): with H1 = 1 a
nontrivial image is perfect, so A5 or PSL(2, p) by Dickson's list of
subgroups, simple and centreless, and there x^b = y^c = (xy)^-a commutes
with x and y, so it is 1.  In particular it finds every map into
A5 = PSL(2, 5).  The certificate is the action of x and y on the p + 1
points of the projective line.  When no prime up to the cap has one, the
verdict is `inconclusive` with `{"method": "exhausted", "max_prime":
_MAX_PRIME}`, never silently converted.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, isqrt
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

Word = Tuple[int, ...]  # signed generator indices: 1 = x, -1 = x^-1, 2 = y, -2 = y^-1


class OpenBookTriple(NamedTuple):
    a: int
    b: int
    c: int

    def sorted_by_magnitude(self) -> "OpenBookTriple":
        s = sorted((self.a, self.b, self.c), key=lambda t: (abs(t), t))
        return OpenBookTriple(*s)


def h1_order(t: OpenBookTriple) -> int:
    """Order of H1 of the (a, b, c) open book (0 means infinite).

    The relators' exponent sums are (a + b, a) and (a, a + c), so this is
    ``abelianization_order`` of the presentation in closed form,
    |(a + b)(a + c) - a^2| = |ab + bc + ca|, with no word built.
    """
    return abs(t.a * t.b + t.b * t.c + t.c * t.a)


def abelianization_order(relators: Sequence[Word]) -> int:
    """Order of H1 (0 means infinite): |det| of the exponent-sum matrix.

    H1 is Z^2 modulo the rows (exponent sum of x, of y) of the two
    relators, and a 2x2 integer matrix has a cokernel of order |det|.
    """
    if len(relators) != 2:
        raise ValueError("H1 as a determinant needs exactly two relators")
    (x1, y1), (x2, y2) = (
        [sum((g > 0) - (g < 0) for g in rel if abs(g) == k) for k in (1, 2)]
        for rel in relators
    )
    return abs(x1 * y2 - x2 * y1)


# -- Todd-Coxeter coset enumeration ------------------------------------------

class CosetTableExhausted(Exception):
    pass


def todd_coxeter(relators: Sequence[Word], max_cosets: int = 20000) -> Optional[int]:
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
    for rel in relators:
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

# The largest prime p tried for a map into PSL(2, p); certificates name it.
_MAX_PRIME = 400
_PRIMES = tuple(p for p in range(5, _MAX_PRIME + 1)
                if all(p % q for q in range(2, isqrt(p) + 1)))


@lru_cache(maxsize=None)
def _trace_orders(p: int) -> Tuple[int, ...]:
    """Order in PSL(2, p) of a non-scalar element of SL(2, p), by trace 0..p-1.

    Cayley-Hamilton gives M^k = s_k M - s_(k-1) I with s_0 = 0, s_1 = 1 and
    s_(k+1) = t s_k - s_(k-1), so M^k = +-I first at the first k >= 1 with
    s_k = 0.
    """
    orders = []
    for t in range(p):
        k, s_prev, s = 1, 0, 1
        while s:
            k, s_prev, s = k + 1, s, (t * s - s_prev) % p
        orders.append(k)
    return tuple(orders)


def _projective_action(m: Tuple[int, int, int, int], p: int) -> Tuple[int, ...]:
    """The permutation of P^1(F_p) induced by the matrix ((a, b), (c, d)):
    point i < p is [i : 1] and point p is [1 : 0]."""
    a, b, c, d = m
    images = []
    for u, v in [(i, 1) for i in range(p)] + [(1, 0)]:
        num, den = (a * u + b * v) % p, (c * u + d * v) % p
        images.append(num * pow(den, -1, p) % p if den else p)
    return tuple(images)


def nontriviality_witness(t: OpenBookTriple) -> Optional[Dict[str, object]]:
    """A nontrivial map into PSL(2, p), 5 <= p <= _MAX_PRIME, or None.

    For each prime p that is not skipped (module docstring), t1, t2 and
    t3 run over the traces whose order divides |b|, |c| and |a|.  x is
    the companion matrix of t1, never scalar, and y has trace t2, det 1
    and tr(xy) = t3: with x = ((0, -1), (1, t1)) and
    y = ((t2 - d, t3 + g - t1 d), (g, d)), d solves
    d^2 - (t2 + t1 g) d + g^2 + t3 g + 1 = 0, for the first g whose
    discriminant is a square.  Then x^b, y^c and (xy)^a are all +-I, so
    both relators die in PSL(2, p).  The certificate is the action of x
    and y on the p + 1 points of P^1(F_p).
    """
    for p in _PRIMES:
        if any(gcd(n, p * (p * p - 1) // 4) == 1 for n in t):
            continue
        orders = _trace_orders(p)
        t1s, t2s, t3s = ([s for s in range(p) if n % orders[s] == 0] for n in (t.b, t.c, t.a))
        roots = {r * r % p: r for r in range(p)}
        for t1, t2, t3 in product(t1s, t2s, t3s):
            for g in range(p):
                u = t2 + t1 * g
                r = roots.get((u * u - 4 * (g * g + t3 * g + 1)) % p)
                if r is not None:
                    d = (u + r) * (p + 1) // 2 % p
                    return {"method": "homomorphism", "target": f"PSL(2,{p})",
                            "image_x": _projective_action((0, -1, 1, t1), p),
                            "image_y": _projective_action((t2 - d, t3 + g - t1 * d, g, d), p)}
    return None


# -- classification -----------------------------------------------------------

class Verdict(NamedTuple):
    """A verdict, "trivial-pi1", "nontrivial-pi1" or "inconclusive", with its
    certificate."""

    triple: Tuple[int, int, int]
    normalized: Tuple[int, int, int]
    verdict: str
    certificate: Dict[str, object]


# pi1 of a triple with |a| <= 1 and H1 = 1: cyclic of order 1.
_CYCLIC_TRIVIAL = ((1,), (2,))


def _decide(t: OpenBookTriple) -> Tuple[str, Dict[str, object]]:
    """Verdict and certificate for a normalized triple (see classify_triple)."""
    h1 = h1_order(t)
    if h1 != 1:
        return "nontrivial-pi1", {"method": "abelianization", "h1_order": h1}
    if abs(t.a) <= 1:
        order = todd_coxeter(_CYCLIC_TRIVIAL)
        return "trivial-pi1", {"method": "todd-coxeter", "group_order": order}
    witness = nontriviality_witness(t)
    if witness is not None:
        return "nontrivial-pi1", witness
    return "inconclusive", {"method": "exhausted", "max_prime": _MAX_PRIME}


def classify_triple(t: OpenBookTriple) -> Verdict:
    """Decide whether pi1 of the (a, b, c) pants open book is trivial.

    Normalizes by the boundary-relabeling symmetry (sort by magnitude),
    then: H1 != 1 => nontrivial; else, with |a| <= 1, Todd-Coxeter on the
    cyclic group < x, y | x, y >; else a homomorphism witness into
    PSL(2, p) for a prime p <= _MAX_PRIME; else inconclusive.
    """
    norm = t.sorted_by_magnitude()
    verdict, cert = _decide(norm)
    return Verdict(tuple(t), tuple(norm), verdict, cert)


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
