"""Memoized skein-recursion engine for the HOMFLY polynomial, and the
Conway and zeroth coefficient polynomials read off it.

The strategy rewrites toward a descending diagram: components are
processed in index order, each traversed from its lowest edge label, and
the first crossing met on its under strand is the skein site.  Switching
it moves the violation strictly later; smoothing drops a crossing; a
descending diagram is an unlink.  Diagrams are R1/R2-simplified at every
node and results are memoized by canonical code.  Three rules cut the
nodes (Conway's skein calculus): components that come before the site's
one lie descending over the rest, a split unlink, and are lifted off for
a factor each; a site in a parallel twist of m >= 3 crossings takes the
whole twist in one step, P(D) = a_m P(D_1) + b_m P(D_0) with D_j keeping
j of its crossings; and a core that is one closed twist, T(2, m), is a
leaf, as is a descending core.  Every step has that one shape: a lone
crossing is the step at m = 2, with D_1 its smoothing and D_0 its switch.

There is one recursion, and each ``SkeinEngine`` has one memo table; the
module keeps no engine of its own, so every caller makes the engine its
queries run on.  What the module does keep, computed once per process, are
three tables of constants of the skein relation keyed by ints alone: the
twist coefficients (a_m, b_m), the closed twists P(T(2, m)) and the powers
of delta; they hold no diagram and no answer.  The Conway polynomial is
the HOMFLY polynomial at v = 1, and the zeroth coefficient polynomial is
its ``extract_p_i`` coefficient 0 (Lickorish-Millett), so both cost one
memo hit once the HOMFLY polynomial of a diagram is known.  The CLI
reads Conway and p0 off the one HOMFLY polynomial of each diagram itself,
so an ``invariants`` or ``montesinos`` call is one query.  Agreement of
all three with an independent brute-force evaluation is part of the test
suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .diagram import Diagram, _Builder, _over_in_port, _over_out_port
from .laurent import LaurentPoly, UNLINK_FACTOR, extract_p_i

# Memo entries an engine keeps; past this the oldest insertion is dropped.
_MEMO_CAP = 1 << 20
# Default skein nodes per query, for ``SkeinEngine`` and ``--node-budget``.
_MAX_NODES = 10_000_000


class BudgetExceededError(RuntimeError):
    """The skein recursion exceeded its configured node budget."""


class SkeinEngine:
    """Shared-memo invariant calculator.

    ``max_nodes`` bounds the skein nodes of each query, one top-level
    ``homfly`` call, and below 0 raises ValueError; ``nodes_used`` counts
    every node the engine visited.  Nothing is locked, so an engine
    belongs to one thread.
    """

    def __init__(self, max_nodes: int = _MAX_NODES):
        if max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {max_nodes}")
        self.max_nodes = max_nodes
        self.nodes_used = 0
        self._memo: Dict[str, LaurentPoly] = {}

    # -- public API ----------------------------------------------------

    def homfly(self, d: Diagram) -> LaurentPoly:
        """HOMFLY polynomial under v^-1 P+ - v P- = z P0, P(unknot) = 1."""
        if d.num_crossings:
            return self._homfly(d)
        if d.num_components == 0:
            raise ValueError("empty diagram has no invariants")
        return _unlink_power(d.num_components - 1)

    def conway(self, d: Diagram) -> LaurentPoly:
        """Conway polynomial, the HOMFLY polynomial at v = 1; 0 for split links."""
        return self.homfly(d).substitute_v(1)

    def p0(self, d: Diagram) -> LaurentPoly:
        """Zeroth coefficient polynomial of the HOMFLY polynomial."""
        return extract_p_i(self.homfly(d), d.num_components, 0)

    def conway_coefficients(self, d: Diagram) -> Tuple[int, int]:
        """(a2, a4) of a knot's Conway polynomial."""
        if d.num_components != 1:
            raise ValueError("conway_coefficients is defined for knots")
        nabla = self.conway(d)
        return nabla.coefficient(0, 2), nabla.coefficient(0, 4)

    # -- internals ------------------------------------------------------

    def _remember(self, key: str, val: LaurentPoly):
        if len(self._memo) >= _MEMO_CAP:
            del self._memo[next(iter(self._memo))]
        self._memo[key] = val

    def _homfly(self, d: Diagram) -> LaurentPoly:
        """The skein recursion, depth-first on an explicit stack.

        A task is a diagram to evaluate or a step ``(key, a, b, loops)``
        that combines the two child values on top of ``values`` as
        a P(D_1) + b P(D_0).  The second child is pushed after the first,
        so nodes are visited, counted and memoized in plain recursive order.
        """
        limit = self.nodes_used + self.max_nodes  # the budget is per query
        values: List[LaurentPoly] = []
        tasks: list = [d]
        while tasks:
            task = tasks.pop()
            if isinstance(task, Diagram):
                self.nodes_used += 1
                if self.nodes_used > limit:
                    raise BudgetExceededError(
                        f"skein recursion exceeded {self.max_nodes} nodes"
                    )
                core, loops, k = _core(task)
                if k is None:  # a descending core: an unlink
                    values.append(_unlink_power(len(core.components) + loops - 1))
                    continue
                chain, closed = _twist(core, k)
                m, sign = len(chain), core.signs[k]
                if closed and m == core.num_crossings:  # T(2, m)
                    cached = _closed_twist(sign, m)
                else:
                    key = core.canonical_code()
                    cached = self._memo.get(key)
                    if cached is None:
                        if m < 3:  # a lone crossing: the twist step at m = 2
                            m, d1, d0 = 2, core.smooth_crossing(k), core.switch_crossing(k)
                        else:
                            d1, d0 = _untwist(core, chain, 1 - m % 2), _untwist(core, chain, m % 2)
                        tasks += ((key, *_twist_coefficients(sign, m), loops), d1, d0)
                        continue
            else:
                key, a, b, loops = task
                d1 = values.pop()
                cached = a * d1 + b * values.pop()
                self._remember(key, cached)
            values.append(cached * _unlink_power(loops) if loops else cached)
        return values.pop()


def _core(d: Diagram) -> Tuple[Diagram, int, Optional[int]]:
    """(core, loops, k): d simplified less its free loops and less its
    leading components while they lie descending over the rest (a split
    unlink), all counted in ``loops``, and the core's first descending
    violation k, None when it is descending."""
    loops = 0
    while True:
        d = d.simplify()
        if d.free_loops:
            loops += d.free_loops
            d = d._without_loops()
        i, k = _descending_violation(d)
        if not i:
            return d, loops, k
        b = _Builder.from_diagram(d)
        b.lift(d.components[i - 1][-1])
        d, loops = b.to_diagram(), loops + i


def _descending_violation(d: Diagram) -> Tuple[int, Optional[int]]:
    """(i, k): the first crossing k met on its under strand, walking edges
    in label order, and its component i; (0, None) when there is none."""
    seen = set()
    for i, comp in enumerate(d.components):
        for e in comp:
            k, port = d._head[e]
            if k not in seen:
                if port == 0:
                    return i, k
                seen.add(k)
    return 0, None


def _twist(d: Diagram, k: int) -> Tuple[List[int], bool]:
    """The parallel twist through crossing k in strand order, and whether it
    closes up: the longest chain of crossings of k's sign in which both
    strands leaving one crossing (ports 2 and over-out) enter the next."""
    quads, signs, s = d.crossings, d.signs, d.signs[k]
    oi = _over_in_port(s)

    def step(j, ends, p):  # the crossing at the far ends of ports p and p + oi
        q = quads[j]
        a = ends[q[p]][0]
        return a if a == ends[q[(p + oi) % 4]][0] and signs[a] == s else None

    chain, j = [k], step(k, d._head, 2)
    while j not in (None, k):
        chain.append(j)
        j = step(j, d._head, 2)
    if j == k:
        return chain, True
    j = step(k, d._tail, 0)
    while j is not None:
        chain.insert(0, j)
        j = step(j, d._tail, 0)
    return chain, False


@lru_cache(maxsize=None)
def _twist_coefficients(sign: int, m: int) -> Tuple[LaurentPoly, LaurentPoly]:
    """(a_m, b_m): the switch/smooth step P_j = v^2s P_j-2 + s v^s z P_j-1
    of a twist of sign s unrolled from (a_0, b_0) = (0, 1), (a_1, b_1) = (1, 0)."""
    a, b, a1, b1 = LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.one(), LaurentPoly.zero()
    for _ in range(m - 1):
        a, b, a1, b1 = (a1, b1, a.shift(2 * sign, 0) + a1.shift(sign, 1, sign),
                        b.shift(2 * sign, 0) + b1.shift(sign, 1, sign))
    return a1, b1


@lru_cache(maxsize=None)
def _closed_twist(sign: int, m: int) -> LaurentPoly:
    """P(T(2, m)) of sign s, the closure of a twist: a_m + b_m delta."""
    a, b = _twist_coefficients(sign, m)
    return a + b * UNLINK_FACTOR


@lru_cache(maxsize=None)
def _unlink_power(n: int) -> LaurentPoly:
    """delta^n, the factor of n split unknots."""
    return UNLINK_FACTOR ** n


def _untwist(d: Diagram, chain: List[int], smooth: int) -> Diagram:
    """d with the twist's first crossing smoothed when ``smooth``, then the
    rest removed in adjacent pairs: D_j, j = (len(chain) - smooth) mod 2."""
    b = _Builder.from_diagram(d)
    if smooth:
        b.smooth(chain[0])
    oo = _over_out_port(d.signs[chain[0]])
    for j, k in zip(chain[smooth::2], chain[smooth + 1::2]):
        b.remove((j, k), (d.crossings[j][2], d.crossings[j][oo]))
    return b.to_diagram()
