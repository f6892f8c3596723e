"""Oriented link diagrams as PD codes.

A diagram is a list of crossings ``X[a,b,c,d]``: *a* is the incoming
under-strand edge and *b, c, d* follow counterclockwise around the
crossing.  Edge labels run 1..2n and are consecutive (cyclically) along
each component, so orientation is induced by increasing labels.  The
crossing is positive when the over strand runs b -> d, negative when it
runs d -> b; for knots this is the classical ``d = b+1 (mod 2n)`` rule,
and for links the wrap-around at component boundaries is resolved
structurally (the successor map of edges must be a permutation whose
cycles are consecutive label runs).

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


class Diagram:
    """An oriented link diagram (PD code plus free loop counter)."""

    __slots__ = ("crossings", "signs", "free_loops", "components", "_comp_of", "_head")

    def __init__(self, crossings: Sequence[Sequence[int]], free_loops: int = 0):
        quads = tuple(tuple(int(x) for x in q) for q in crossings)
        for q in quads:
            if len(q) != 4:
                raise DiagramError(f"crossing {q} does not have four edge labels")
        signs = _infer_signs(quads)
        self._finish(quads, signs, int(free_loops))

    @classmethod
    def _trusted(cls, quads: Sequence[Quad], signs: Sequence[int], free_loops: int) -> "Diagram":
        """Construct from surgery output where crossing signs are already known."""
        self = object.__new__(cls)
        self._finish(tuple(quads), tuple(signs), free_loops)
        return self

    def _finish(self, quads: Tuple[Quad, ...], signs: Tuple[int, ...], free_loops: int):
        if free_loops < 0:
            raise DiagramError("negative free loop count")
        _check_edge_multiplicity(quads)
        succ = _successor_map(quads, signs)
        comps = _components_from_succ(succ, 2 * len(quads))
        object.__setattr__(self, "crossings", quads)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "free_loops", free_loops)
        object.__setattr__(self, "components", comps)
        comp_of: Dict[int, int] = {}
        for ci, cyc in enumerate(comps):
            for e in cyc:
                comp_of[e] = ci
        object.__setattr__(self, "_comp_of", comp_of)
        head: Dict[int, Tuple[int, int]] = {}
        for k, (q, s) in enumerate(zip(quads, signs)):
            head[q[0]] = (k, 0)
            head[q[_over_in_port(s)]] = (k, _over_in_port(s))
        object.__setattr__(self, "_head", head)

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

    def component_of(self, edge: int) -> int:
        return self._comp_of[edge]

    def incoming_at(self, edge: int) -> Tuple[int, int]:
        """(crossing index, port) where the edge terminates."""
        return self._head[edge]

    def writhe(self) -> int:
        return sum(self.signs)

    def is_knot(self) -> bool:
        return self.num_components == 1

    def linking_number(self, i: int, j: int) -> int:
        """Half the signed count of crossings between components i and j."""
        n = self.num_components
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError("component index out of range")
        if i == j:
            raise ValueError("linking number needs two distinct components")
        k_edge = len(self.components)
        if i >= k_edge or j >= k_edge:
            return 0  # free loops link nothing
        total = 0
        for q, s in zip(self.crossings, self.signs):
            cu = self._comp_of[q[0]]
            co = self._comp_of[q[1]]
            if (cu, co) in ((i, j), (j, i)):
                total += s
        if total % 2:
            raise DiagramError("odd inter-component crossing count")
        return total // 2

    # -- moves ---------------------------------------------------------

    def switch_crossing(self, k: int) -> "Diagram":
        """Swap over/under at crossing k (sign flips, labels unchanged)."""
        if not (0 <= k < len(self.crossings)):
            raise IndexError("crossing index out of range")
        quads = list(self.crossings)
        signs = list(self.signs)
        a, b, c, d = quads[k]
        # The new under-in is the old over-in; counterclockwise order is kept.
        quads[k] = (b, c, d, a) if signs[k] > 0 else (d, a, b, c)
        signs[k] = -signs[k]
        return Diagram._trusted(quads, signs, self.free_loops)

    def mirror(self) -> "Diagram":
        """Swap over/under at every crossing."""
        quads = []
        signs = []
        for (a, b, c, d), s in zip(self.crossings, self.signs):
            quads.append((b, c, d, a) if s > 0 else (d, a, b, c))
            signs.append(-s)
        return Diagram._trusted(quads, signs, self.free_loops)

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
        b = _Builder.from_diagram(self)
        arc_offset, _ = b.absorb(other)
        b.cross_join(1, arc_offset + 1)
        return b.to_diagram()

    def reverse_components(self, which) -> "Diagram":
        """Reverse the orientation of the given edge components (by index).

        Labels inside each reversed component's block run backward; a
        crossing's quadruple rotates by two when its under strand is
        reversed, and its sign flips when exactly one of its two strands
        is reversed.
        """
        which = set(which)
        k_edge = len(self.components)
        if any(not (0 <= i < k_edge) for i in which):
            raise IndexError("component index out of range")
        relabel = {}
        for ci, cyc in enumerate(self.components):
            if ci in which:
                base, k = cyc[0], len(cyc)
                for i, e in enumerate(cyc):
                    relabel[e] = base + (k - 1 - i)
            else:
                for e in cyc:
                    relabel[e] = e
        quads = []
        signs = []
        for (a, b, c, d), s in zip(self.crossings, self.signs):
            under_rev = self._comp_of[a] in which
            over_rev = self._comp_of[b] in which
            q = (a, b, c, d) if not under_rev else (c, d, a, b)
            quads.append(tuple(relabel[e] for e in q))
            signs.append(s if under_rev == over_rev else -s)
        order = sorted(range(len(quads)), key=lambda i: quads[i][0])
        return Diagram._trusted(
            [quads[i] for i in order], [signs[i] for i in order], self.free_loops
        )

    def delete_components(self, which) -> "Diagram":
        """Remove the given edge components (a sublink of the rest remains)."""
        which = set(which)
        k_edge = len(self.components)
        if any(not (0 <= i < k_edge) for i in which):
            raise IndexError("component index out of range")
        b = _Builder.from_diagram(self)
        for k, (q, s) in enumerate(zip(self.crossings, self.signs)):
            cu = self._comp_of[q[0]]
            co = self._comp_of[q[1]]
            if cu in which and co in which:
                del b.cr[k]
            elif co in which:
                del b.cr[k]
                b.splice(q[0], q[2])  # under strand passes straight through
            elif cu in which:
                del b.cr[k]
                oi, oo = _over_in_port(s), _over_out_port(s)
                b.splice(q[oi], q[oo])
        for ci in which:
            for e in self.components[ci]:
                aid = b.find(e)
                if aid in b.arcs:
                    del b.arcs[aid]
        return b.to_diagram()

    def disjoint_union(self, other: "Diagram") -> "Diagram":
        """Distant union (no band): components of both, nothing joined."""
        b = _Builder.from_diagram(self)
        b.absorb(other)
        return b.to_diagram()

    def simplify(self) -> "Diagram":
        """Exhaustively apply crossing-decreasing Reidemeister I/II moves."""
        b = _Builder.from_diagram(self)
        while b.reduce_r1() or b.reduce_r2():
            pass
        return b.to_diagram()

    # -- canonical form -------------------------------------------------

    def canonical_code(self) -> str:
        """Label-renumbering-invariant code string (a traversal canonical form).

        Two diagrams get equal strings exactly when one becomes the other by
        reordering components and rotating the labels within each.  The
        edge components split into connected pieces (components that share
        a crossing).  For each start edge of a piece, its component is
        labelled from that edge, and further components are labelled
        first-in-first-out in the order the walk meets them: scanning the
        labelled edges in label order, the other strand leaving the
        crossing where an edge ends starts the next unlabelled component.
        A piece's code is the least sorted signed crossing list over its
        start edges; the piece codes are joined in sorted order, after
        Weinberg's planar-graph traversal code.  It costs O(n^2) for n
        crossings, one O(n) walk per start edge (each list comes out
        sorted, so the O(n log n) sort is not needed), with no bound on the
        number of components.
        """
        if not self.crossings:
            return f"|U{self.free_loops}"
        comps = self.components
        comp_of = self._comp_of
        size = 2 * len(self.crossings) + 1
        other = [0] * size  # outgoing edge of the other strand where e ends
        under = [None] * size  # crossing whose under strand e enters
        for (a, b, c, d), s in zip(self.crossings, self.signs):
            oi, oo = (b, d) if s > 0 else (d, b)
            other[a] = oo
            other[oi] = c
            under[a] = (a, b, c, d, s)

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

        pieces = []
        seen = set()
        label = [0] * size
        for cyc in comps:
            if cyc[0] in seen:
                continue
            edges = walk(cyc[0])
            seen.update(edges)
            best = None
            # The least code starts with label 1 on an under-in edge, so
            # only those start edges can attain it.
            for start in edges:
                if under[start] is None:
                    continue
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

    @classmethod
    def unlink(cls, n: int) -> "Diagram":
        return cls((), free_loops=n)


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
    while pos < len(body):
        tok = _PD_TOKEN.match(body, pos)
        if not tok:
            raise DiagramError(f"bad PD token at {body[pos:pos+20]!r}")
        if tok.group(0) == "U":
            loops += 1
        else:
            quads.append(tuple(int(g) for g in tok.groups()))
        pos = tok.end()
        if pos < len(body):
            if body[pos] != ",":
                raise DiagramError(f"expected ',' at {body[pos:pos+20]!r}")
            pos += 1
    return Diagram(quads, free_loops=loops)


# -- validation helpers ----------------------------------------------------

def _check_edge_multiplicity(quads: Tuple[Quad, ...]):
    two_n = 2 * len(quads)
    count = [0] * (two_n + 1)
    for q in quads:
        for e in q:
            if not (1 <= e <= two_n):
                raise DiagramError(f"edge label {e} outside 1..{two_n}")
            count[e] += 1
    bad = [e for e in range(1, two_n + 1) if count[e] != 2]
    if bad:
        raise DiagramError(f"edge labels {bad} do not appear exactly twice")


def _successor_map(quads: Tuple[Quad, ...], signs: Tuple[int, ...]) -> Dict[int, int]:
    succ: Dict[int, int] = {}
    dst = set()
    for (a, b, c, d), s in zip(quads, signs):
        pairs = ((a, c), (b, d)) if s > 0 else ((a, c), (d, b))
        for x, y in pairs:
            if x in succ:
                raise DiagramError(f"edge {x} leaves two different crossings")
            if y in dst:
                raise DiagramError(f"edge {y} enters two different crossings")
            succ[x] = y
            dst.add(y)
    return succ


def _components_from_succ(succ: Dict[int, int], two_n: int) -> Tuple[Tuple[int, ...], ...]:
    comps: List[Tuple[int, ...]] = []
    seen = [False] * (two_n + 1)
    for m in range(1, two_n + 1):
        if seen[m]:
            continue
        cyc = [m]
        seen[m] = True
        cur = m
        while True:
            nxt = succ.get(cur)
            if nxt is None:
                raise DiagramError(f"edge {cur} has no successor")
            if nxt == m:
                break
            if nxt != cur + 1:
                raise DiagramError(
                    f"edge labels not consecutive along a component (succ({cur}) = {nxt})"
                )
            cyc.append(nxt)
            seen[nxt] = True
            cur = nxt
        comps.append(tuple(cyc))
    return tuple(comps)


def _infer_signs(quads: Tuple[Quad, ...]) -> Tuple[int, ...]:
    """Resolve over-strand directions for each crossing.

    Tries the mod-2n arithmetic rule first at every crossing and falls
    back to a structural backtracking search; raises DiagramError when no
    globally consistent direction assignment exists, or when two distinct
    sign vectors are consistent (ambiguous code).
    """
    _check_edge_multiplicity(quads)
    n = len(quads)
    if n == 0:
        return ()
    two_n = 2 * n

    succ: Dict[int, int] = {}
    dst = set()
    for (a, _, c, _) in quads:
        if a in succ:
            raise DiagramError(f"edge {a} is the incoming under-strand twice")
        if c in dst:
            raise DiagramError(f"edge {c} is the outgoing under-strand twice")
        succ[a] = c
        dst.add(c)

    options: List[List[int]] = []
    for (a, b, c, d) in quads:
        # Arithmetic preference: positive iff d == b+1 (mod 2n).
        pos_first = (d - b) % two_n == 1
        options.append([1, -1] if pos_first else [-1, 1])

    solutions: List[Tuple[int, ...]] = []

    def assign(i: int):
        if len(solutions) > 1:
            return
        if i == n:
            try:
                _components_from_succ(dict(succ), two_n)
            except DiagramError:
                return
            solutions.append(tuple(chosen))
            return
        a, b, c, d = quads[i]
        for s in options[i]:
            x, y = (b, d) if s > 0 else (d, b)
            if x in succ or y in dst:
                continue
            succ[x] = y
            dst.add(y)
            chosen.append(s)
            assign(i + 1)
            chosen.pop()
            del succ[x]
            dst.discard(y)

    chosen: List[int] = []
    assign(0)
    if not solutions:
        raise DiagramError("no consistent over-strand orientation (invalid PD code)")
    if len(solutions) > 1:
        raise DiagramError("ambiguous over-strand orientation")
    return solutions[0]


# -- surgery ----------------------------------------------------------------

class _Builder:
    """Mutable crossing/arc graph used for smoothing, sums and simplification.

    Arcs are directed (tail -> head); endpoints are (crossing, port) pairs.
    Merged arcs are tracked through a union-find alias map, so captured arc
    ids stay valid across splices.
    """

    def __init__(self):
        self.cr: Dict[int, dict] = {}
        self.arcs: Dict[int, dict] = {}
        self.alias: Dict[int, int] = {}
        self.key: Dict[int, int] = {}
        self.free_loops = 0

    @classmethod
    def from_diagram(cls, d: Diagram) -> "_Builder":
        b = cls()
        b.free_loops = d.free_loops
        for k, (q, s) in enumerate(zip(d.crossings, d.signs)):
            b.cr[k] = {"ports": list(q), "sign": s}
        for e in range(1, d.num_edges + 1):
            b.arcs[e] = {"tail": None, "head": None}
            b.key[e] = e
        for k, (q, s) in enumerate(zip(d.crossings, d.signs)):
            b.arcs[q[0]]["head"] = (k, 0)
            b.arcs[q[2]]["tail"] = (k, 2)
            oi, oo = _over_in_port(s), _over_out_port(s)
            b.arcs[q[oi]]["head"] = (k, oi)
            b.arcs[q[oo]]["tail"] = (k, oo)
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
            del self.arcs[x]
            return
        self.arcs[x]["head"] = self.arcs[y]["head"]
        self.alias[y] = x
        self.key[x] = min(self.key[x], self.key[y])
        del self.arcs[y]

    def smooth(self, k: int):
        c = self.cr.pop(k)
        q, s = c["ports"], c["sign"]
        if s > 0:
            self.splice(q[0], q[3])
            self.splice(q[1], q[2])
        else:
            self.splice(q[0], q[1])
            self.splice(q[3], q[2])

    def absorb(self, d: Diagram) -> Tuple[int, int]:
        """Add a disjoint copy of d; returns (arc id offset, crossing offset)."""
        arc_off = max(self.key.values(), default=0)
        cr_off = max(self.cr.keys(), default=-1) + 1
        other = _Builder.from_diagram(d)
        for k, c in other.cr.items():
            self.cr[cr_off + k] = {
                "ports": [p + arc_off for p in c["ports"]],
                "sign": c["sign"],
            }
        for aid, arc in other.arcs.items():
            na = aid + arc_off
            self.arcs[na] = {
                "tail": (arc["tail"][0] + cr_off, arc["tail"][1]) if arc["tail"] else None,
                "head": (arc["head"][0] + cr_off, arc["head"][1]) if arc["head"] else None,
            }
            self.key[na] = na
        self.free_loops += other.free_loops
        return arc_off, cr_off

    def cross_join(self, a: int, b: int):
        """Cut arcs a and b and cross-rejoin (tail_a -> head_b, tail_b -> head_a)."""
        a, b = self.find(a), self.find(b)
        ha, hb = self.arcs[a]["head"], self.arcs[b]["head"]
        self.arcs[a]["head"] = hb
        self.arcs[b]["head"] = ha
        self.cr[hb[0]]["ports"][hb[1]] = a
        self.cr[ha[0]]["ports"][ha[1]] = b

    # -- Reidemeister reductions ------------------------------------

    def _in_ports(self, k: int) -> Tuple[int, int]:
        return (0, _over_in_port(self.cr[k]["sign"]))

    def _out_ports(self, k: int) -> Tuple[int, int]:
        return (2, _over_out_port(self.cr[k]["sign"]))

    def arc_at(self, k: int, p: int) -> int:
        return self.find(self.cr[k]["ports"][p])

    def reduce_r1(self) -> bool:
        for k in sorted(self.cr):
            for ip in self._in_ports(k):
                a = self.arc_at(k, ip)
                tail = self.arcs[a]["tail"]
                if tail is None or tail[0] != k:
                    continue
                if (tail[1] - ip) % 4 not in (1, 3):
                    continue
                # Kink: remove the crossing, join the two remaining ports.
                other_in = [p for p in self._in_ports(k) if p != ip][0]
                other_out = [p for p in self._out_ports(k) if p != tail[1]][0]
                x = self.arc_at(k, other_in)
                y = self.arc_at(k, other_out)
                del self.cr[k]
                del self.arcs[a]
                self.splice(x, y)
                return True
        return False

    def reduce_r2(self) -> bool:
        # A bigon (j, k) shares an arc, so k lies at a far end of one of
        # j's arcs; pairs are tried in the order of a full (j, k) scan.
        for j in sorted(self.cr):
            ends = set()
            for p in range(4):
                arc = self.arcs[self.arc_at(j, p)]
                if arc["tail"] and arc["head"]:
                    ends.update((arc["tail"][0], arc["head"][0]))
            for k in sorted(x for x in ends if x > j):
                between = []
                for p in range(4):
                    a = self.arc_at(j, p)
                    arc = self.arcs[a]
                    ends = {arc["tail"][0], arc["head"][0]} if arc["tail"] and arc["head"] else set()
                    if ends == {j, k} and a not in [x[0] for x in between]:
                        between.append((a, arc))
                for i1 in range(len(between)):
                    for i2 in range(i1 + 1, len(between)):
                        if self._try_r2(j, k, between[i1][0], between[i2][0]):
                            return True
        return False

    def _port_at(self, arc_id: int, k: int) -> int:
        arc = self.arcs[arc_id]
        if arc["tail"][0] == k:
            return arc["tail"][1]
        return arc["head"][1]

    def _try_r2(self, j: int, k: int, e: int, f: int) -> bool:
        pe_j, pf_j = self._port_at(e, j), self._port_at(f, j)
        pe_k, pf_k = self._port_at(e, k), self._port_at(f, k)
        if (pe_j - pf_j) % 4 not in (1, 3) or (pe_k - pf_k) % 4 not in (1, 3):
            return False
        over = lambda p: p in (1, 3)
        if over(pe_j) and over(pe_k) and not over(pf_j) and not over(pf_k):
            pass
        elif over(pf_j) and over(pf_k) and not over(pe_j) and not over(pe_k):
            e, f = f, e
            pe_j, pf_j, pe_k, pf_k = pf_j, pe_j, pf_k, pe_k
        else:
            return False
        # e runs over both crossings, f under both: the bigon lifts off.
        joins = []
        for strand_ports, bigonic in ((self._strand_ports_under, f), (self._strand_ports_over, e)):
            pj = strand_ports(j)
            pk = strand_ports(k)
            bj = self._port_at(bigonic, j)
            bk = self._port_at(bigonic, k)
            ext_j = [p for p in pj if p != bj][0]
            ext_k = [p for p in pk if p != bk][0]
            ins, outs = [], []
            for c, p in ((j, ext_j), (k, ext_k)):
                if p in self._in_ports(c):
                    ins.append((c, p))
                else:
                    outs.append((c, p))
            if len(ins) != 1 or len(outs) != 1:
                return False
            joins.append((self.arc_at(*ins[0]), self.arc_at(*outs[0])))
        e, f = self.find(e), self.find(f)
        del self.cr[j]
        del self.cr[k]
        del self.arcs[e]
        del self.arcs[f]
        for x, y in joins:
            self.splice(x, y)
        return True

    def _strand_ports_under(self, k: int) -> Tuple[int, int]:
        return (0, 2)

    def _strand_ports_over(self, k: int) -> Tuple[int, int]:
        s = self.cr[k]["sign"]
        return (_over_in_port(s), _over_out_port(s))

    # -- emission -----------------------------------------------------

    def _next_arc(self, aid: int) -> int:
        k, p = self.arcs[aid]["head"]
        c = self.cr[k]
        if p == 0:
            return self.find(c["ports"][2])
        return self.find(c["ports"][_over_out_port(c["sign"])])

    def to_diagram(self) -> Diagram:
        live = sorted(self.arcs, key=lambda a: self.key[a])
        label: Dict[int, int] = {}
        comps: List[List[int]] = []
        for start in live:
            if start in label:
                continue
            cyc = []
            cur = start
            while True:
                cyc.append(cur)
                label[cur] = 0  # placeholder; assigned after ordering
                cur = self._next_arc(cur)
                if cur == start:
                    break
            comps.append(cyc)
        comps.sort(key=lambda cyc: min(self.key[a] for a in cyc))
        nxt = 1
        for cyc in comps:
            # Start each cycle at its smallest-key arc for determinism.
            i0 = min(range(len(cyc)), key=lambda i: self.key[cyc[i]])
            for t in range(len(cyc)):
                label[cyc[(i0 + t) % len(cyc)]] = nxt + t
            nxt += len(cyc)
        quads = []
        signs = []
        for k in self.cr:
            c = self.cr[k]
            quads.append(tuple(label[self.find(p)] for p in c["ports"]))
            signs.append(c["sign"])
        order = sorted(range(len(quads)), key=lambda i: quads[i][0])
        quads = [quads[i] for i in order]
        signs = [signs[i] for i in order]
        return Diagram._trusted(quads, signs, self.free_loops)
