"""Fundamental groups of open books over the three-holed sphere.

The mapping class of the pants is a product of boundary Dehn twists
T1^a T2^b T3^c, and the resulting closed 3-manifold has

    pi1 = < x, y | (xy)^a x^b, (xy)^a y^c >.

This module decides triviality of that group: the abelianization order
falls out of a Smith normal form, Todd-Coxeter coset enumeration settles
the finite cases, and an exhaustive homomorphism search into small
symmetric and cyclic groups certifies nontriviality when enumeration is
cut off.  Every verdict carries a certificate; `inconclusive` is an
honest possible outcome, never silently converted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """A two-generator presentation with freely reduced relators."""

    relators: Tuple[Word, ...]
    num_generators: int = 2

    def __post_init__(self):
        object.__setattr__(
            self, "relators", tuple(free_reduce(r) for r in self.relators)
        )

    def exponent_matrix(self) -> List[List[int]]:
        rows = []
        for rel in self.relators:
            row = [0] * self.num_generators
            for g in rel:
                row[abs(g) - 1] += 1 if g > 0 else -1
            rows.append(row)
        return rows


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


# -- abelianization via Smith normal form ------------------------------------

def smith_invariant_factors(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Nonnegative invariant factors d1 | d2 | ... of an integer matrix."""
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    out: List[int] = []
    top = 0
    while top < min(rows, cols):
        # Find a nonzero pivot of minimal absolute value.
        piv = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        m[top], m[i] = m[i], m[top]
        for r in m:
            r[top], r[j] = r[j], r[top]
        p = m[top][top]
        dirty = False
        for i in range(top + 1, rows):
            q = m[i][top] // p
            if q:
                for j in range(top, cols):
                    m[i][j] -= q * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = m[top][j] // p
            if q:
                for i in range(top, rows):
                    m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue  # smaller remainders appeared; pick a new pivot
        # Divisibility condition: pivot must divide everything below-right;
        # if not, fold the offending row into the pivot row and redo.
        bad = False
        for i in range(top + 1, rows):
            if any(m[i][j] % p for j in range(top + 1, cols)):
                for j in range(top, cols):
                    m[top][j] += m[i][j]
                bad = True
                break
        if bad:
            continue
        out.append(abs(p))
        top += 1
    while len(out) < min(rows, cols):
        out.append(0)
    return out


def abelianization_order(p: Presentation) -> int:
    """Order of H1 (0 means infinite), from the Smith normal form."""
    mat = p.exponent_matrix()
    if not mat:
        return 0
    factors = smith_invariant_factors(mat)
    if len(factors) < p.num_generators:
        return 0
    order = 1
    for d in factors:
        if d == 0:
            return 0
        order *= d
    return order


# -- Todd-Coxeter coset enumeration ------------------------------------------

class CosetTableExhausted(Exception):
    pass


def todd_coxeter(p: Presentation, max_cosets: int = 20000) -> Optional[int]:
    """Order of the presented group, or None when max_cosets is exhausted.

    Enumerates cosets of the trivial subgroup with the classic
    union-find/scan strategy; deterministic for a fixed presentation.
    """
    ngens = 2 * p.num_generators  # x, X, y, Y columns
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

def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))

def _perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _word_image(word: Word, imgs: Dict[int, tuple]) -> tuple:
    n = len(next(iter(imgs.values())))
    acc = tuple(range(n))
    for g in word:
        m = imgs[abs(g)]
        if g < 0:
            m = _perm_inv(m)
        acc = _perm_mul(acc, m)
    return acc


@dataclass(frozen=True)
class HomWitness:
    target: str
    image_x: tuple
    image_y: tuple


def nontriviality_witness(p: Presentation, max_target_order: int = 120) -> Optional[HomWitness]:
    """A surjection onto a nontrivial finite group, if one is found.

    Targets: cyclic groups Z/n (n <= max_target_order) by exponent sums,
    then S3, S4, S5 by exhaustive generator assignment.
    """
    # Every map onto Z/n factors through H1, so none exists when H1 = 1.
    if abelianization_order(p) != 1:
        mat = p.exponent_matrix()
        for n in range(2, max_target_order + 1):
            for ux in range(n):
                for uy in range(n):
                    if ux == 0 and uy == 0:
                        continue
                    if all((row[0] * ux + row[1] * uy) % n == 0 for row in mat):
                        return HomWitness(f"Z/{n}", (ux,), (uy,))
    for deg in (3, 4, 5):
        elems = list(permutations(range(deg)))
        ident = tuple(range(deg))
        for ix in elems:
            for iy in elems:
                if ix == ident and iy == ident:
                    continue
                imgs = {1: ix, 2: iy}
                if all(_word_image(r, imgs) == ident for r in p.relators):
                    return HomWitness(f"S{deg}", ix, iy)
    return None


# -- classification -----------------------------------------------------------

@dataclass(frozen=True)
class ClassifyBudgets:
    max_cosets: int = 20000
    max_target_order: int = 120


@dataclass(frozen=True)
class Verdict:
    triple: Tuple[int, int, int]
    normalized: Tuple[int, int, int]
    verdict: str  # "trivial-pi1" | "nontrivial-pi1" | "inconclusive"
    certificate: Dict[str, object] = field(default_factory=dict)


def classify_triple(t: OpenBookTriple, budgets: ClassifyBudgets = ClassifyBudgets()) -> Verdict:
    """Decide whether pi1 of the (a, b, c) pants open book is trivial.

    Normalizes by the boundary-relabeling symmetry (sort by magnitude),
    then: nontrivial abelianization => nontrivial; else Todd-Coxeter; if
    that exhausts, a homomorphism witness; else inconclusive.
    """
    norm = t.sorted_by_magnitude()
    pres = pi1_presentation(norm)
    h1 = abelianization_order(pres)
    if h1 != 1:
        return Verdict(
            t.as_tuple(), norm.as_tuple(), "nontrivial-pi1",
            {"method": "abelianization", "h1_order": h1},
        )
    order = todd_coxeter(pres, budgets.max_cosets)
    if order is not None:
        verdict = "trivial-pi1" if order == 1 else "nontrivial-pi1"
        return Verdict(
            t.as_tuple(), norm.as_tuple(), verdict,
            {"method": "todd-coxeter", "group_order": order},
        )
    witness = nontriviality_witness(pres, budgets.max_target_order)
    if witness is not None:
        return Verdict(
            t.as_tuple(), norm.as_tuple(), "nontrivial-pi1",
            {"method": "homomorphism", "target": witness.target,
             "image_x": witness.image_x, "image_y": witness.image_y},
        )
    return Verdict(
        t.as_tuple(), norm.as_tuple(), "inconclusive",
        {"method": "exhausted", "max_cosets": budgets.max_cosets,
         "max_target_order": budgets.max_target_order},
    )


def classified_trivial_set(triple: Tuple[int, int, int]) -> bool:
    """Membership in the known trivial-pi1 list (compared as multisets)."""
    ms = sorted(triple)
    if sorted(map(abs, triple))[0] == 0:
        return sorted(map(abs, triple)) in ([0, 1, 1],)
    if 1 in ms and -1 in ms:
        return True  # (-1, 1, n) and (1, -1, n) families
    return ms in ([-1, 2, 3], [-3, -2, 1])


def s3_fibered_link_name(triple: Tuple[int, int, int]) -> str:
    """Fibered link realizing a trivial triple, per the case analysis."""
    ms = sorted(triple)
    abss = sorted(map(abs, triple))
    if abss == [0, 1, 1]:
        signs = sorted(s for s in triple if s != 0)
        tags = {(-1, -1): "H-#H-", (-1, 1): "H-#H+", (1, 1): "H+#H+"}
        return tags[tuple(signs)]
    if 1 in ms and -1 in ms:
        rest = list(triple)
        rest.remove(1)
        rest.remove(-1)
        n = rest[0]
        return f"P(2,{-2 * n},-2)"
    if ms == [-1, 2, 3]:
        return "L^ex"
    if ms == [-3, -2, 1]:
        return "mirror(L^ex)"
    raise ValueError(f"{triple} is not in the trivial list")


def s3_openbook_report(bound: int, budgets: ClassifyBudgets = ClassifyBudgets()) -> List[dict]:
    """Classify all |a| <= |b| <= |c| <= bound and name the trivial bindings."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rows = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if not (abs(a) <= abs(b) <= abs(c)):
                    continue
                v = classify_triple(OpenBookTriple(a, b, c), budgets)
                row = {
                    "triple": (a, b, c),
                    "verdict": v.verdict,
                    "certificate": v.certificate,
                }
                if v.verdict == "trivial-pi1":
                    row["fibered_link"] = s3_fibered_link_name((a, b, c))
                rows.append(row)
    return rows
