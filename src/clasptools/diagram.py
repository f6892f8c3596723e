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

Diagrams are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

Quad = Tuple[int, int, int, int]


class DiagramError(ValueError):
    """Malformed or ambiguous PD code."""


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

    __slots__ = ("crossings", "signs", "free_loops", "components", "_comp_of", "_head", "_tail")

    def __init__(self, crossings: Sequence[Sequence[int]], free_loops: int = 0):
        quads = tuple(tuple(int(x) for x in q) for q in crossings)
        for q in quads:
            if len(q) != 4:
                raise DiagramError(f"crossing {q} does not have four edge labels")
        darts = _dart_table(quads)
        _check_planar(darts, len(quads))
        self._finish(quads, _infer_signs(quads, darts), int(free_loops))

    @classmethod
    def _trusted(cls, quads: Sequence[Quad], signs: Sequence[int], free_loops: int) -> "Diagram":
        """Construct from surgery output where crossing signs are already known."""
        self = object.__new__(cls)
        self._finish(tuple(quads), tuple(signs), free_loops)
        return self

    def _finish(self, quads: Tuple[Quad, ...], signs: Tuple[int, ...], free_loops: int):
        """Build the arc table and the components, rejecting bad codes.

        ``_head`` and ``_tail`` map an edge to the ``(crossing, port)`` where
        it enters and leaves; a label outside 1..2n or an edge on two ports of
        one side is rejected, so each label appears exactly twice.  Components
        follow the heads (port p's strand leaves at p + 2 mod 4) and must have
        consecutive labels.
        """
        if free_loops < 0:
            raise DiagramError("negative free loop count")
        two_n = 2 * len(quads)
        head: Dict[int, Tuple[int, int]] = {}
        tail: Dict[int, Tuple[int, int]] = {}
        for k, (q, s) in enumerate(zip(quads, signs)):
            oi, oo = _over_in_port(s), _over_out_port(s)
            for ends, p, verb in ((head, 0, "enters"), (tail, 2, "leaves"),
                                  (head, oi, "enters"), (tail, oo, "leaves")):
                e = q[p]
                if not (1 <= e <= two_n):
                    raise DiagramError(f"edge label {e} outside 1..{two_n}")
                if e in ends:
                    raise DiagramError(f"edge {e} {verb} two different crossings")
                ends[e] = (k, p)
        comps: List[Tuple[int, ...]] = []
        comp_of: Dict[int, int] = {}
        for m in range(1, two_n + 1):
            if m in comp_of:
                continue
            cur = m
            while True:
                comp_of[cur] = len(comps)
                k, p = head[cur]
                nxt = quads[k][(p + 2) % 4]
                if nxt == m:
                    break
                if nxt != cur + 1:
                    raise DiagramError(
                        f"edge labels not consecutive along a component (succ({cur}) = {nxt})"
                    )
                cur = nxt
            comps.append(tuple(range(m, cur + 1)))
        object.__setattr__(self, "crossings", quads)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "free_loops", free_loops)
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "_comp_of", comp_of)
        object.__setattr__(self, "_head", head)
        object.__setattr__(self, "_tail", tail)

    def __setattr__(self, *args):
        raise AttributeError("Diagram is immutable")

    # -- structure ----------------------------------------------------

    @property
    def num_crossings(self) -> int:
        return len(self.crossings)

    @property
    def num_edges(self) -> int:
        return 2 * len(self.crossings)

    @property
    def num_components(self) -> int:
        return len(self.components) + self.free_loops

    def incoming_at(self, edge: int) -> Tuple[int, int]:
        """(crossing index, port) where the edge terminates."""
        return self._head[edge]

    def is_knot(self) -> bool:
        return self.num_components == 1

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
        """Oriented smoothing of crossing k."""
        if not (0 <= k < len(self.crossings)):
            raise IndexError("crossing index out of range")
        b = _Builder.from_diagram(self)
        b.smooth(k)
        return b.to_diagram()

    def connected_sum(self, other: "Diagram") -> "Diagram":
        """Connected sum of two knots, joined along their lowest-label edges."""
        if not self.is_knot() or not other.is_knot():
            raise DiagramError("connected sum is defined for knots only")
        if self.num_crossings == 0:
            return other
        if other.num_crossings == 0:
            return self
        b = _Builder.from_diagram(self.disjoint_union(other))
        b.cross_join(1, self.num_edges + 1)
        return b.to_diagram()

    def disjoint_union(self, other: "Diagram") -> "Diagram":
        """Distant union (no band): components of both, nothing joined.

        Other's labels are shifted past self's, so self keeps its labels.
        """
        shift = self.num_edges
        quads = self.crossings + tuple(tuple(e + shift for e in q) for q in other.crossings)
        return _by_under_in(quads, self.signs + other.signs, self.free_loops + other.free_loops)

    def simplify(self) -> "Diagram":
        """Exhaustively apply crossing-decreasing Reidemeister I/II moves.

        Each round makes the move ``_find_move`` picks.  A diagram with no
        move keeps its labels, and its crossings come back sorted by
        under-in label (the diagram itself when they already are), which is
        the form every ``simplify`` result has.
        """
        move = _find_move(self._tail, self._head)
        if move is None:
            quads = self.crossings
            if all(p[0] < q[0] for p, q in zip(quads, quads[1:])):
                return self
            return _by_under_in(quads, self.signs, self.free_loops)
        b = _Builder.from_diagram(self)
        while move is not None:
            b.remove(*move)
            move = _find_move(b.tail, b.head)
        return b.to_diagram()

    # -- canonical form -------------------------------------------------

    def canonical_code(self) -> str:
        """Label-renumbering-invariant code string (a traversal canonical form).

        Two diagrams get equal strings exactly when one becomes the other by
        reordering components and rotating the labels within each.  The
        edge components split into connected pieces (components that share
        a crossing).  For a start edge of a piece, its component is
        labelled from that edge, and further components are labelled
        first-in-first-out in the order the walk meets them: scanning the
        labelled edges in label order, the other strand leaving the
        crossing where an edge ends starts the next unlabelled component.
        A piece's code is the least sorted signed crossing list over its
        candidate start edges; the piece codes are joined in sorted order,
        after Weinberg's planar-graph traversal code.

        The candidates are chosen without labels.  Each edge has a letter,
        under or over by the strand it enters its crossing on and that
        crossing's sign; a start edge is a candidate when the letters of
        its component, read cyclically from it, form the least rotation
        over all components of the piece.  That rotation starts on an
        under-in edge.  As the candidate set is a relabeling invariant, the
        least code over it is one too.  Generic pieces have one candidate
        and cost one O(n) walk for n crossings; symmetric ones (torus links
        such as T(3,3), unions of equal links) tie on up to every under-in
        edge, O(n^2) at worst (each list comes out sorted, so the
        O(n log n) sort is not needed), with no bound on the number of
        components.
        """
        if not self.crossings:
            return f"|U{self.free_loops}"
        comps = self.components
        comp_of = self._comp_of
        size = 2 * len(self.crossings) + 1
        other = [0] * size  # outgoing edge of the other strand where e ends
        under = [None] * size  # crossing whose under strand e enters
        letter = [""] * size
        piece = list(range(len(comps)))  # union-find over components

        def root(ci: int) -> int:
            while piece[ci] != ci:
                ci = piece[ci]
            return ci

        for (a, b, c, d), s in zip(self.crossings, self.signs):
            oi, oo = (b, d) if s > 0 else (d, b)
            other[a] = oo
            other[oi] = c
            under[a] = (a, b, c, d, s)
            letter[a], letter[oi] = ("b", "d") if s > 0 else ("a", "c")
            i, j = root(comp_of[a]), root(comp_of[oi])
            piece[max(i, j)] = min(i, j)

        def walk(start: int) -> List[int]:
            """Edges in label order for the labelling that starts at ``start``."""
            order: List[int] = []
            placed = [False] * len(comps)
            e, pos = start, 0
            while True:
                ci = comp_of[e]
                if not placed[ci]:
                    placed[ci] = True
                    base, length = comps[ci][0], len(comps[ci])
                    order.extend(base + (e - base + t) % length for t in range(length))
                if pos == len(order):
                    return order
                e = other[order[pos]]
                pos += 1

        # Each piece's least rotation and the start edges that attain it.
        least: Dict[int, Tuple[str, List[int]]] = {}
        for ci, cyc in enumerate(comps):
            word = "".join(letter[e] for e in cyc)
            twice, length, first = word + word, len(word), min(word)
            for i, ch in enumerate(word):
                if ch == first:
                    rot = twice[i:i + length]
                    cur = least.get(root(ci))
                    if cur is None or rot < cur[0]:
                        least[root(ci)] = (rot, [cyc[i]])
                    elif rot == cur[0]:
                        cur[1].append(cyc[i])

        pieces = []
        label = [0] * size
        for _, starts in least.values():
            best = None
            for start in starts:
                order = walk(start)
                for i, e in enumerate(order, 1):
                    label[e] = i
                # An edge enters at most one crossing as its under strand,
                # so emitting in label order gives the sorted list.
                code = [
                    (label[a], label[b], label[c], label[d], s)
                    for a, b, c, d, s in (under[e] for e in order if under[e])
                ]
                if best is None or code < best:
                    best = code
            pieces.append(";".join(
                "X[%d,%d,%d,%d]%s" % (a, b, c, d, "+" if s > 0 else "-")
                for a, b, c, d, s in best
            ))
        return "/".join(sorted(pieces)) + f"|U{self.free_loops}"

    # -- text -----------------------------------------------------------

    def pd_text(self) -> str:
        parts = ["X[%d,%d,%d,%d]" % q for q in self.crossings]
        parts.extend("U" for _ in range(self.free_loops))
        return "PD[" + ",".join(parts) + "]"

    def __repr__(self) -> str:
        return f"Diagram({self.pd_text()})"

    def __eq__(self, other) -> bool:
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

def _by_under_in(quads: Sequence[Quad], signs: Sequence[int], free_loops: int) -> Diagram:
    """The diagram with its crossings sorted by under-in label."""
    order = sorted(range(len(quads)), key=lambda i: quads[i][0])
    return Diagram._trusted([quads[i] for i in order], [signs[i] for i in order], free_loops)


def _find_move(tail, head):
    """The first Reidemeister I/II move of a diagram, in one pass over its arcs.

    ``tail`` and ``head`` map each arc to the ``(crossing, port)`` it leaves
    and enters: a diagram's arc table, or a ``_Builder``'s.  The move is the
    one a scan over the crossings takes first: R1 at the least crossing with
    a kink (an arc joining two adjacent ports of one crossing), the kink
    entering its under-in port before one entering its over-in port;
    otherwise R2 at the first crossing pair ``(j, k)``, ``j < k``, joined by
    two arcs of which one runs over and the other under both crossings,
    trying the joining arcs in the order of their ports at ``j``.  Returns the ``(crossings, arcs)`` that
    ``_Builder.remove`` takes, the R2 under arc first, or ``None``.
    """
    kinks = []
    joins: Dict[Tuple[int, int], list] = {}
    for a, (hk, hp) in head.items():
        tk, tp = tail[a]
        if tk == hk:
            if (tp - hp) % 2:
                kinks.append((hk, hp > 0, a))
        elif not kinks:
            if tk < hk:
                joins.setdefault((tk, hk), []).append((tp, hp, a))
            else:
                joins.setdefault((hk, tk), []).append((hp, tp, a))
    if kinks:
        k, _, a = min(kinks)
        return (k,), (a,)
    for jk in sorted(jk for jk, arcs in joins.items() if len(arcs) > 1):
        arcs = sorted(joins[jk])
        for i, (ej, ek, e) in enumerate(arcs):
            for fj, fk, f in arcs[i + 1:]:
                # Ports 1 and 3 are over, 0 and 2 under.
                if ej % 2 == ek % 2 != fj % 2 == fk % 2:
                    return jk, ((f, e) if ej % 2 else (e, f))
    return None


class _Builder:
    """Mutable crossing/arc graph used for smoothing, sums and simplification.

    Arcs are directed: ``tail`` and ``head`` map each live arc to the
    ``(crossing, port)`` it leaves and enters (copies of the diagram's
    ``_tail`` and ``_head`` at the start), and ``cr`` maps a crossing to
    its port list and sign.  A splice keeps the smaller of the two arc ids
    and aliases the other to it (union-find), so captured arc ids and port
    lists stay valid, and an arc's id is the least edge label merged into
    it.
    """

    def __init__(self):
        self.cr: Dict[int, Tuple[List[int], int]] = {}
        self.tail: Dict[int, Tuple[int, int]] = {}
        self.head: Dict[int, Tuple[int, int]] = {}
        self.alias: Dict[int, int] = {}
        self.free_loops = 0

    @classmethod
    def from_diagram(cls, d: Diagram) -> "_Builder":
        b = cls()
        b.free_loops = d.free_loops
        b.cr = {k: (list(q), s) for k, (q, s) in enumerate(zip(d.crossings, d.signs))}
        b.tail = dict(d._tail)
        b.head = dict(d._head)
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
        keep = min(x, y)
        self.tail[keep], self.head[keep] = tail, head
        self.alias[x + y - keep] = keep

    def smooth(self, k: int):
        q, s = self.cr.pop(k)
        self.splice(q[0], q[_over_out_port(s)])
        self.splice(q[_over_in_port(s)], q[2])

    def remove(self, crossings, arcs):
        """Reidemeister move: delete the crossings and the arcs between them.

        Each deleted arc's strand is rejoined: the arc entering the strand
        at its tail is spliced to the arc leaving the strand at its head
        (port p's strand partner is port p + 2 mod 4).
        """
        joins = []
        for a in arcs:
            (tk, tp), (hk, hp) = self.tail.pop(a), self.head.pop(a)
            joins.append((self.cr[tk][0][(tp + 2) % 4], self.cr[hk][0][(hp + 2) % 4]))
        for k in crossings:
            del self.cr[k]
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
        order of those ids, and sort the crossings by under-in label."""
        label: Dict[int, int] = {}
        nxt = 1
        for start in sorted(self.head):
            if start in label:
                continue
            cur = start
            while True:
                label[cur] = nxt
                nxt += 1
                k, p = self.head[cur]
                cur = self.find(self.cr[k][0][(p + 2) % 4])
                if cur == start:
                    break
        quads = []
        signs = []
        for ports, s in self.cr.values():
            quads.append(tuple(label[self.find(p)] for p in ports))
            signs.append(s)
        return _by_under_in(quads, signs, self.free_loops)
