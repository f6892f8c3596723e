"""Oriented link diagrams as PD codes.

A diagram is a list of crossings ``X[a,b,c,d]``: *a* is the incoming
under-strand edge and *b, c, d* follow counterclockwise around the
crossing.  Edge labels run 1..2n and are consecutive (cyclically) along
each component, so orientation is induced by increasing labels.  The
crossing is positive when the over strand runs b -> d, negative when it
runs d -> b; for knots this is the classical ``d = b+1 (mod 2n)`` rule,
and for links the wrap-around at component boundaries is resolved
structurally (following each edge through the crossing it enters must
give cycles of consecutive label runs).  A code read from outside is
checked through one dart table (each label's two darts, where dart 4k + p
is port p of crossing k): every label 1..2n appears exactly twice, then
V - E + F = 2 on every connected piece of crossings (planarity), and only
then are the signs inferred.

Crossingless unknot components ("free loops") are tracked by an explicit
counter: they arise naturally when a smoothing strands a component.  In
PD text they are written as ``U`` tokens, and the bare ``PD[]`` is the
unknot.

Diagrams are immutable; every operation returns a fresh value, and none
depends on the order of the crossings (``simplify`` ranks moves by label),
but ``==`` and ``hash`` compare the PD as listed, crossing order included;
``canonical_code`` ignores relabelling and reordering.  Only this module
reads the arc table; the skein steps through ``descending_core``,
``twist_region`` and ``twist_child`` (one crossing: ``smooth_crossing``).
"""

from __future__ import annotations

import re
from operator import index
from typing import Dict, List, Optional, Sequence, Tuple

Quad = Tuple[int, int, int, int]


class DiagramError(ValueError):
    """Malformed or ambiguous PD code."""


def _integer(x, what: str) -> int:
    try:  # operator.index: 1.5 raises here, where int() would truncate
        return index(x)
    except TypeError:
        raise DiagramError(f"{what} {x!r} is not an integer") from None


def _over_in_port(sign: int) -> int:
    return 1 if sign > 0 else 3

def _over_out_port(sign: int) -> int:
    return 3 if sign > 0 else 1

def _switched(q: Quad, sign: int) -> Quad:
    """Crossing q with over and under swapped: the over-in port comes first."""
    oi = _over_in_port(sign)
    return q[oi:] + q[:oi]


class Diagram:
    """An oriented link diagram (PD code plus free loop counter)."""

    __slots__ = ("crossings", "signs", "free_loops", "components", "_head", "_tail")

    def __init__(self, crossings: Sequence[Sequence[int]], free_loops: int = 0):
        quads = tuple(tuple(_integer(x, "edge label") for x in q) for q in crossings)
        for q in quads:
            if len(q) != 4:
                raise DiagramError(f"crossing {q} does not have four edge labels")
        darts = _dart_table(quads)
        _check_planar(darts, len(quads))
        self._finish(quads, _infer_signs(quads, darts), _integer(free_loops, "free loop count"))

    @classmethod
    def _trusted(cls, quads: Sequence[Quad], signs: Sequence[int], free_loops: int) -> "Diagram":
        """Construct from surgery output where crossing signs are already known."""
        self = object.__new__(cls)
        self._finish(tuple(quads), tuple(signs), free_loops)
        return self

    def _without_loops(self) -> "Diagram":
        """This diagram less its free loops, sharing its checked arc table."""
        d = object.__new__(Diagram)
        for name in self.__slots__:
            object.__setattr__(d, name, 0 if name == "free_loops" else getattr(self, name))
        return d

    def _finish(self, quads: Tuple[Quad, ...], signs: Tuple[int, ...], free_loops: int):
        """Build the arc table and the components, rejecting bad codes.

        One pass over the crossings fills ``_head`` and ``_tail``, which map
        an edge to the ``(crossing, port)`` where it enters and leaves, and
        lists each strand whose labels do not step by one.  A label outside
        1..2n or an edge on two ports of one side is rejected
        (``_reject_arcs`` names the first), so each label appears exactly
        twice.  The components are the label runs between those steps, and
        each must close on its first label.
        """
        if free_loops < 0:
            raise DiagramError("negative free loop count")
        two_n = 2 * len(quads)
        head: Dict[int, Tuple[int, int]] = {}
        tail: Dict[int, Tuple[int, int]] = {}
        ends = []  # (e, the edge after e on its strand) when that is not e + 1
        for k, (a, b, c, d) in enumerate(quads):
            head[a] = (k, 0)
            tail[c] = (k, 2)
            if signs[k] > 0:
                head[b], tail[d], oi, oo = (k, 1), (k, 3), b, d
            else:
                head[d], tail[b], oi, oo = (k, 3), (k, 1), d, b
            if c != a + 1:
                ends.append((a, c))
            if oo != oi + 1:
                ends.append((oi, oo))
        if quads and not (len(head) == len(tail) == two_n and min(head) > 0 < min(tail)
                          and max(head) <= two_n >= max(tail)):
            _reject_arcs(quads, signs)
        comps: List[Tuple[int, ...]] = []
        m = 1
        for cur, nxt in sorted(ends):
            if nxt != m:
                raise DiagramError("edge labels not consecutive along a component "
                                   f"(succ({cur}) = {nxt})")
            comps.append(tuple(range(m, cur + 1)))
            m = cur + 1
        object.__setattr__(self, "crossings", quads)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "free_loops", free_loops)
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "_head", head)
        object.__setattr__(self, "_tail", tail)

    def __setattr__(self, *args):
        raise AttributeError("Diagram is immutable")

    # -- structure ----------------------------------------------------

    @property
    def num_crossings(self) -> int:
        return len(self.crossings)

    @property
    def num_components(self) -> int:
        return len(self.components) + self.free_loops

    # -- moves ---------------------------------------------------------

    def switch_crossing(self, k: int) -> "Diagram":
        """Swap over/under at crossing k (sign flips, labels unchanged)."""
        if not (0 <= k < len(self.crossings)):
            raise IndexError("crossing index out of range")
        quads = list(self.crossings)
        signs = list(self.signs)
        quads[k] = _switched(quads[k], signs[k])
        signs[k] = -signs[k]
        return Diagram._trusted(quads, signs, self.free_loops)

    def mirror(self) -> "Diagram":
        """Swap over/under at every crossing."""
        quads = [_switched(q, s) for q, s in zip(self.crossings, self.signs)]
        return Diagram._trusted(quads, [-s for s in self.signs], self.free_loops)

    def smooth_crossing(self, k: int) -> "Diagram":
        """Oriented smoothing of crossing k: the child D_0 of the twist [k]."""
        if not (0 <= k < len(self.crossings)):
            raise IndexError("crossing index out of range")
        return self.twist_child((k,), 0)

    def connected_sum(self, other: "Diagram") -> "Diagram":
        """Connected sum of two knots, joined along their lowest-label edges."""
        if self.num_components != 1 or other.num_components != 1:
            raise DiagramError("connected sum is defined for knots only")
        if self.num_crossings == 0:
            return other
        if other.num_crossings == 0:
            return self
        b = _Builder.from_diagram(self.disjoint_union(other))
        b.cross_join(1, 2 * len(self.crossings) + 1)
        return b.to_diagram()

    def disjoint_union(self, other: "Diagram") -> "Diagram":
        """Distant union (no band): components of both, nothing joined.

        Other's labels are shifted past self's, so self keeps its labels.
        """
        shift = 2 * len(self.crossings)
        quads = self.crossings + tuple(tuple(e + shift for e in q) for q in other.crossings)
        return Diagram._trusted(quads, self.signs + other.signs, self.free_loops + other.free_loops)

    def simplify(self) -> "Diagram":
        """Exhaustively apply crossing-decreasing Reidemeister I/II moves.

        Each round makes the move ``_find_move`` picks by arc label, so the
        result does not depend on how the crossings are listed.  A diagram
        with no move comes back as itself.
        """
        move = _find_move(self._tail, self._head)
        if move is None:
            return self
        b = _Builder.from_diagram(self)
        while move is not None:
            b.remove(*move)
            move = _find_move(b.tail, b.head)
        return b.to_diagram()

    # -- skein steps ---------------------------------------------------

    def descending_core(self) -> Tuple["Diagram", int, Optional[int]]:
        """(core, loops, k): this diagram simplified less its free loops and
        its leading components while they lie descending over the rest (a
        split unlink), all counted in ``loops``, and the first crossing k of
        the core met on its under strand in label order, None if there is none."""
        d, loops = self, 0
        while True:
            d = d.simplify()
            if d.free_loops:
                loops += d.free_loops
                d = d._without_loops()
            for e in range(1, 2 * len(d.crossings) + 1):
                k, p = d._head[e]
                if not p and e < d.crossings[k][_over_in_port(d.signs[k])]:
                    break  # k is met first on its under strand, at edge e
            else:
                return d, loops, None
            i = sum(c[-1] < e for c in d.components)  # the component of edge e
            if not i:
                return d, loops, k
            b = _Builder.from_diagram(d)
            b.lift(d.components[i - 1][-1])
            d, loops = b.to_diagram(), loops + i

    def twist_region(self, k: int) -> Tuple[List[int], bool]:
        """The parallel twist through crossing k in strand order, and whether it
        closes up: the longest chain of crossings of k's sign in which both
        strands leaving one crossing (ports 2 and over-out) enter the next."""
        quads, signs, s = self.crossings, self.signs, self.signs[k]
        oi = _over_in_port(s)

        def step(j, ends, p):  # the crossing at the far ends of ports p and p + oi
            q = quads[j]
            a = ends[q[p]][0]
            return a if a == ends[q[(p + oi) % 4]][0] and signs[a] == s else None

        chain, j = [k], step(k, self._head, 2)
        while j not in (None, k):
            chain.append(j)
            j = step(j, self._head, 2)
        if j == k:
            return chain, True
        j = step(k, self._tail, 0)
        while j is not None:
            chain.insert(0, j)
            j = step(j, self._tail, 0)
        return chain, False

    def twist_child(self, chain: Sequence[int], j: int) -> "Diagram":
        """D_j of a twist ``chain`` from ``twist_region``: its last j crossings
        kept, its first smoothed when len(chain) - j is odd, and the rest
        removed in adjacent pairs, each a full twist of two parallel strands."""
        smooth, oo = (len(chain) - j) % 2, _over_out_port(self.signs[chain[0]])
        b = _Builder.from_diagram(self)
        if smooth:  # join each strand in to the other strand out
            q = b.cr.pop(chain[0])[0]
            b.splice(q[0], q[oo])
            b.splice(q[(oo + 2) % 4], q[2])
        cut = chain[smooth:len(chain) - j]
        for x, y in zip(cut[::2], cut[1::2]):
            b.remove((x, y), (self.crossings[x][2], self.crossings[x][oo]))
        return b.to_diagram()

    # -- canonical form -------------------------------------------------

    def canonical_code(self) -> str:
        """Label-renumbering-invariant code string (a traversal canonical form).

        Two diagrams get equal strings exactly when one becomes the other by
        reordering components and rotating the labels within each.  The
        edge components split into connected pieces (components that share
        a crossing).  For a start edge of a piece, its component is
        labelled from that edge, and further components first-in-first-out
        in the order the walk meets them: scanning the labelled edges in
        label order, the other strand leaving the crossing where an edge
        ends starts the next unlabelled component; each component's labels
        are two list slices.  A piece's code is the least sorted signed
        crossing list over its candidate start edges; the piece codes are
        joined in sorted order, after Weinberg's planar-graph traversal code.

        The candidates are chosen without labels.  Each edge has a letter,
        under or over by the strand it enters its crossing on and that
        crossing's sign; a start edge is a candidate when the letters of
        its component, read cyclically from it, form the least rotation
        over all components of the piece.  That rotation starts on an
        under-in edge with the least letter, found by ``str.find``.  As the
        candidate set is a relabeling invariant, the least code over it is
        one too.  Generic pieces have one candidate, one O(n) walk for n
        crossings; symmetric ones (torus links such as T(3,3), unions of
        equal links) tie on up to every under-in edge, O(n^2) at worst, as
        is the rotation search (each list comes out sorted, so no sort is
        needed), with no bound on the number of components.
        """
        if not self.crossings:
            return f"|U{self.free_loops}"
        comps = self.components
        size = 2 * len(self.crossings) + 1
        comp_of = [0] * size
        other = [0] * size  # outgoing edge of the other strand where e ends
        under = [None] * size  # crossing whose under strand e enters
        letter = [""] * size
        for (a, b, c, d), s in zip(self.crossings, self.signs):
            under[a] = (a, b, c, d, s)
            if s > 0:
                other[a], other[b], letter[a], letter[b] = d, c, "b", "d"
            else:
                other[a], other[d], letter[a], letter[d] = b, c, "a", "c"
        letters = "".join(letter)  # edge e's letter is letters[e - 1]
        groups = [[0]]
        if len(comps) > 1:  # merge the components that share a crossing
            for ci, cyc in enumerate(comps):
                comp_of[cyc[0]:cyc[-1] + 1] = [ci] * len(cyc)
            group_of = [[ci] for ci in range(len(comps))]
            for a, b, _, _ in self.crossings:  # b and d lie on the over strand
                g, h = group_of[comp_of[a]], group_of[comp_of[b]]
                if g is not h:
                    g += h
                    for ci in h:
                        group_of[ci] = g
            groups = [g for ci, g in enumerate(group_of) if g[0] == ci]
        pieces = []
        edges = list(range(size))
        label = [0] * size
        for group in groups:
            rots = []  # (rotation from a start edge with the least letter, that edge)
            for ci in group:
                base, length = comps[ci][0], len(comps[ci])
                word = letters[base - 1:base - 1 + length]
                twice, first = word + word, min(word)
                i = word.find(first)
                while i >= 0:
                    rots.append((twice[i:i + length], base + i))
                    i = word.find(first, i + 1)
            least = min(rots)[0]
            cands = [start for rot, start in rots if rot == least]
            best = None
            for start in cands:
                # Scan the labelled edges in label order (``order[i]`` has
                # label i, and other[0] leads to the start edge) until every
                # component of the piece is labelled.
                other[0], order, ups, placed, pos = start, [0], [], set(), 0
                while len(placed) < len(group):
                    e = other[order[pos]]
                    ci, pos = comp_of[e], pos + 1
                    if ci not in placed:
                        placed.add(ci)
                        base, end, at = comps[ci][0], comps[ci][-1] + 1, len(order)
                        label[e:end] = edges[at:at + end - e]
                        label[base:e] = edges[at + end - e:at + end - base]
                        order += edges[e:end] + edges[base:e]
                        ups += under[e:end] + under[base:e]  # ``under`` in label order
                # An edge enters at most one crossing as its under strand,
                # so reading them in label order gives the sorted list.
                code = [(label[a], label[b], label[c], label[d], s)
                        for a, b, c, d, s in filter(None, ups)]
                if best is None or code < best:
                    best = code
            pieces.append(";".join([f"X[{a},{b},{c},{d}]{'+' if s > 0 else '-'}"
                                    for a, b, c, d, s in best]))
        return "/".join(sorted(pieces)) + f"|U{self.free_loops}"

    # -- text -----------------------------------------------------------

    def pd_text(self) -> str:
        parts = ["X[%d,%d,%d,%d]" % q for q in self.crossings]
        parts.extend("U" for _ in range(self.free_loops))
        return "PD[" + ",".join(parts) + "]"

    def __repr__(self) -> str:
        return f"Diagram({self.pd_text()})"

    def __eq__(self, other) -> bool:
        """The same PD as listed, crossing order included, as ``hash`` sees it;
        a relisted diagram compares unequal (see ``canonical_code``)."""
        if not isinstance(other, Diagram):
            return NotImplemented
        return (
            self.crossings == other.crossings
            and self.signs == other.signs
            and self.free_loops == other.free_loops
        )

    def __hash__(self) -> int:
        return hash((self.crossings, self.signs, self.free_loops))

    @classmethod
    def unknot(cls) -> "Diagram":
        return cls((), free_loops=1)


_PD_TOKEN = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]|U")


def parse_pd(text: str) -> Diagram:
    """Parse ``PD[X[a,b,c,d], ..., U, ...]`` text (whitespace-insensitive).

    ``U`` tokens are crossingless unknot components; the bare ``PD[]``
    denotes the unknot.
    """
    s = re.sub(r"\s+", "", text)
    m = re.fullmatch(r"PD\[(.*)\]", s)
    if not m:
        raise DiagramError(f"not a PD code: {text!r}")
    body = m.group(1)
    if body == "":
        return Diagram.unknot()
    quads: List[Quad] = []
    loops = 0
    pos = 0
    while True:  # a token, then either the end or a comma and another token
        tok = _PD_TOKEN.match(body, pos)
        if not tok:
            raise DiagramError(f"bad PD token at {body[pos:pos+20]!r}")
        if tok.group(0) == "U":
            loops += 1
        else:
            quads.append(tuple(int(g) for g in tok.groups()))
        pos = tok.end()
        if pos == len(body):
            break
        if body[pos] != ",":
            raise DiagramError(f"expected ',' at {body[pos:pos+20]!r}")
        pos += 1
        if pos == len(body):
            raise DiagramError("PD code ends with ','")
    return Diagram(quads, free_loops=loops)


# -- validation helpers ----------------------------------------------------

def _reject_arcs(quads: Tuple[Quad, ...], signs: Tuple[int, ...]):
    """Raise for the first fault of an arc table ``Diagram._finish`` rejected,
    by crossing and then ports 0, 2, over-in, over-out: a bad label or repeat."""
    two_n = 2 * len(quads)
    ends = (set(), set())
    for q, s in zip(quads, signs):
        for p, side in ((0, 0), (2, 1), (_over_in_port(s), 0), (_over_out_port(s), 1)):
            e = q[p]
            if not (1 <= e <= two_n):
                raise DiagramError(f"edge label {e} outside 1..{two_n}")
            if e in ends[side]:
                raise DiagramError(f"edge {e} {('enters', 'leaves')[side]} two different crossings")
            ends[side].add(e)


def _dart_table(quads: Tuple[Quad, ...]) -> List[List[int]]:
    """Each edge label's two darts, in PD order; dart 4k + p is port p of
    crossing k.

    A label outside 1..2n, or one that does not appear exactly twice, is
    rejected.  Dart i's strand partner (across the crossing) is ``i ^ 2``.
    """
    two_n = 2 * len(quads)
    darts: List[List[int]] = [[] for _ in range(two_n + 1)]
    for i, e in enumerate(e for q in quads for e in q):
        if not (1 <= e <= two_n):
            raise DiagramError(f"edge label {e} outside 1..{two_n}")
        darts[e].append(i)
    bad = [e for e in range(1, two_n + 1) if len(darts[e]) != 2]
    if bad:
        raise DiagramError(f"edge labels {bad} do not appear exactly twice")
    return darts


def _faces(other, darts):
    """Faces as lists of darts: the orbits of d -> the counterclockwise
    neighbour of ``other[d]``, the dart at the far end of d's edge (dart
    4k + s turns to 4k + (s + 1) % 4).  An orbit starts at each unvisited
    dart in the order of ``darts``; ``other`` is a list or a dict.
    """
    seen = set()
    for start in darts:
        if start in seen:
            continue
        face = []
        d = start
        while d not in seen:
            seen.add(d)
            face.append(d)
            o = other[d]
            d = o - o % 4 + (o + 1) % 4
        yield face


def _check_planar(darts: List[List[int]], n: int):
    """Require V - E + F = 2 on every connected piece of the n crossings.

    The faces come from ``_faces``.  A piece of m crossings has 2m edges,
    so V - E + F is its face count minus m.  The pieces come from a
    union-find whose roots are their least crossings, and the first piece
    that fails is reported.
    """
    other = [0] * (4 * n)
    piece = list(range(n))

    def root(k: int) -> int:
        while piece[k] != k:
            k = piece[k]
        return k

    for i, j in darts[1:]:
        other[i], other[j] = j, i
        r, t = root(i // 4), root(j // 4)
        piece[max(r, t)] = min(r, t)
    euler = [0] * n  # piece root -> V - E + F
    for k in range(n):
        euler[root(k)] -= 1
    for face in _faces(other, range(4 * n)):
        euler[root(face[0] // 4)] += 1
    for k in range(n):
        if piece[k] == k and euler[k] != 2:
            raise DiagramError(f"not a planar diagram: V - E + F = {euler[k]}, not 2")


def _infer_signs(quads: Tuple[Quad, ...], darts: List[List[int]]) -> Tuple[int, ...]:
    """Resolve over-strand directions for each crossing, in one pass.

    Labels run consecutively along each component, so an over strand with
    labels x < y runs x -> y when y = x + 1, and y -> x (the wrap of a
    component's label run) otherwise.  A two-edge component {x, x + 1}
    meets both of its crossings with the same label pair (the strand
    partner of each dart of x is y), so its labels leave its direction
    open: an under strand of it fixes the direction, as the edge that
    leaves there (at a port 2) enters the crossing where it is over.  When
    it is over at both crossings it lies above the rest of the diagram, a
    split unknot, and either direction gives the same link; x is then
    taken to enter the first of its two crossings in PD order.  The code
    must already be planar: that rules out a one-edge over loop (b == d),
    a closed curve through the crossing that separates its two under
    ports.  Codes whose directions do not fit together are rejected when
    the diagram is built.
    """
    flat = [e for q in quads for e in q]

    def leaves_under(e: int) -> bool:
        return any(i % 4 == 2 for i in darts[e])

    signs = []
    for k, (_, b, _, d) in enumerate(quads):
        x, y = min(b, d), max(b, d)
        if any(flat[i ^ 2] != y for i in darts[x]):
            into = x if y == x + 1 else y
        elif leaves_under(x) or leaves_under(y):
            into = x if leaves_under(x) else y
        else:
            into = x if darts[x][0] // 4 == k else y
        signs.append(1 if into == b else -1)
    return tuple(signs)


# -- surgery ----------------------------------------------------------------

def _find_move(tail, head):
    """The first Reidemeister I/II move of a diagram, in two passes over its arcs.

    ``tail`` and ``head`` map each arc to the ``(crossing, port)`` it leaves
    and enters: a diagram's arc table, or a ``_Builder``'s.  A crossing's
    rank r is the arc entering its port 0 (so ``head[r][0]`` is the crossing),
    and the move is the first of a scan by rank: R1 at the least crossing
    with a kink (an arc joining two adjacent ports of one crossing), the kink
    entering its under-in port first; else R2 at the first crossing pair
    ``(j, k)``, j ranked below k, joined by two arcs of which one runs over
    and the other under both, trying the arcs in the order of their ports at
    ``j``.  Only pure arcs (equal port parity at both ends) can be such arcs,
    so only they are collected.  Returns the ``(crossings, arcs)`` that
    ``_Builder.remove`` takes, the R2 under arc first, or ``None``.
    """
    rank = {k: a for a, (k, p) in head.items() if not p}
    kinks = []
    joins: Dict[Tuple[int, int], list] = {}
    for a, (hk, hp) in head.items():
        tk, tp = tail[a]
        if (tp - hp) % 2:
            if tk == hk:
                kinks.append((rank[hk], hp > 0, a))
        elif tk != hk and not kinks:  # a pure arc between two crossings
            rt, rh = rank[tk], rank[hk]
            if rt < rh:
                joins.setdefault((rt, rh), []).append((tp, hp, a))
            else:
                joins.setdefault((rh, rt), []).append((hp, tp, a))
    if kinks:
        r, _, a = min(kinks)
        return (head[r][0],), (a,)
    for rj, rk in sorted(jk for jk, arcs in joins.items() if len(arcs) > 1):
        (ej, _, e), *rest = sorted(joins[rj, rk])
        for fj, _, f in rest:
            if fj % 2 != ej % 2:  # ports 1 and 3 are over, 0 and 2 under
                return (head[rj][0], head[rk][0]), ((f, e) if ej % 2 else (e, f))
    return None


class _Builder:
    """Mutable crossing/arc graph used for smoothing, sums and simplification.

    Arcs are directed: ``tail`` and ``head`` map each live arc to the
    ``(crossing, port)`` it leaves and enters (copies of the diagram's
    ``_tail`` and ``_head`` at the start), and ``cr`` maps a crossing to
    its port list and sign.  A splice keeps the smaller of the two arc ids,
    writes it into the port of the dropped arc's surviving end (unless that
    crossing is gone) and aliases the dropped id to it.  So the ports of
    live crossings hold live arc ids, which ``to_diagram`` reads as they
    are, and ``find`` resolves the ids that ``remove`` and ``cross_join``
    capture before they splice.  An arc's id is the least edge label
    merged into it; ``_find_move`` ranks a crossing by the id at its port 0.
    ``to_diagram`` relabels and emits the crossings in under-in order.
    """

    @classmethod
    def from_diagram(cls, d: Diagram) -> "_Builder":
        b = cls()
        b.cr = {k: (list(q), s) for k, (q, s) in enumerate(zip(d.crossings, d.signs))}
        b.tail, b.head, b.alias, b.free_loops = dict(d._tail), dict(d._head), {}, d.free_loops
        return b

    def find(self, aid: int) -> int:
        while aid in self.alias:
            aid = self.alias[aid]
        return aid

    def splice(self, x: int, y: int):
        """Join arc x (head being removed) to arc y (tail being removed)."""
        x = self.find(x)
        y = self.find(y)
        if x == y:
            self.free_loops += 1
            del self.tail[x], self.head[x]
            return
        tail, head = self.tail.pop(x), self.head.pop(y)
        del self.head[x], self.tail[y]
        keep, drop, (k, p) = (x, y, head) if x < y else (y, x, tail)
        self.tail[keep], self.head[keep] = tail, head
        self.alias[drop] = keep
        if k in self.cr:
            self.cr[k][0][p] = keep

    def remove(self, crossings, arcs):
        """Reidemeister move: delete the crossings and the arcs between them.

        Each deleted arc's strand is rejoined: the arc entering the strand
        at its tail is spliced to the arc leaving the strand at its head
        (port p's strand partner is port p + 2 mod 4).  Given two crossings
        of one sign and the two arcs from the first to the second, it also
        removes a full twist of parallel strands, which rejoins each strand
        in the same way.
        """
        joins = []
        for a in arcs:
            (tk, tp), (hk, hp) = self.tail.pop(a), self.head.pop(a)
            joins.append((self.cr[tk][0][(tp + 2) % 4], self.cr[hk][0][(hp + 2) % 4]))
        for k in crossings:
            del self.cr[k]
        for x, y in joins:
            self.splice(x, y)

    def lift(self, last: int):
        """Delete arcs 1..last, whole components of a fresh builder, with
        their crossings; each other strand through those is spliced through."""
        joins = []
        for k, (q, s) in list(self.cr.items()):
            kept = [(q[p], q[(p + 2) % 4]) for p in (0, _over_in_port(s)) if q[p] > last]
            if len(kept) < 2:
                del self.cr[k]
                joins += kept
        for a in range(1, last + 1):
            del self.tail[a], self.head[a]
        for x, y in joins:
            self.splice(x, y)

    def cross_join(self, a: int, b: int):
        """Cut arcs a and b and cross-rejoin (tail_a -> head_b, tail_b -> head_a)."""
        a, b = self.find(a), self.find(b)
        ha, hb = self.head[a], self.head[b]
        self.head[a], self.head[b] = hb, ha
        self.cr[hb[0]][0][hb[1]] = a
        self.cr[ha[0]][0][ha[1]] = b

    def to_diagram(self) -> Diagram:
        """Label each component from its least arc id, components in the
        order of those ids; the walk emits the crossings in under-in order,
        each as it enters that crossing's port 0."""
        label: Dict[int, int] = {}
        order = []
        nxt = 1
        for start in sorted(self.head):
            if start in label:
                continue
            cur = start
            while True:
                label[cur] = nxt
                nxt += 1
                k, p = self.head[cur]
                if not p:
                    order.append(k)
                cur = self.cr[k][0][(p + 2) % 4]
                if cur == start:
                    break
        quads = []
        signs = []
        for k in order:
            (a, b, c, d), s = self.cr[k]
            quads.append((label[a], label[b], label[c], label[d]))
            signs.append(s)
        return Diagram._trusted(quads, signs, self.free_loops)
