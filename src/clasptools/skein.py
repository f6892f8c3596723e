"""Memoized skein-recursion engine for the HOMFLY polynomial, and the
Conway and zeroth coefficient polynomials read off it.

The strategy rewrites toward a descending diagram: components are
processed in index order, each traversed from its lowest edge label, and
the first crossing met on its under strand is the skein site.  Switching
it moves the violation strictly later; smoothing drops a crossing; a
descending diagram is an unlink.  Diagrams are R1/R2-simplified at every
node and results are memoized by canonical code.

There is one recursion, and each ``SkeinEngine`` has one memo table; the
module keeps no engine of its own, so every caller makes the engine its
queries run on.  The Conway polynomial is the HOMFLY polynomial at v = 1,
and the zeroth coefficient polynomial is its ``extract_p_i`` coefficient 0
(Lickorish-Millett), so both cost one memo hit once the HOMFLY polynomial
of a diagram is known.  The CLI reads Conway and p0 off the one HOMFLY
polynomial of each diagram itself, so an ``invariants`` or ``montesinos``
call is one query.  Agreement of all three with an independent brute-force
evaluation is part of the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .diagram import Diagram
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
        return UNLINK_FACTOR ** (d.num_components - 1)

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

        A task is a diagram to evaluate or a ``(key, sign, loops)`` step
        that combines the two child values on top of ``values``.  The
        smoothed child is pushed before the switched one, so nodes are
        visited, counted and memoized in plain recursive order.
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
                core, loops = _strip_loops(task.simplify())
                if core.num_crossings == 0:
                    values.append(UNLINK_FACTOR ** (loops - 1))
                    continue
                key = core.canonical_code()
                cached = self._memo.get(key)
                if cached is None:
                    k = _descending_violation(core)
                    if k is not None:
                        tasks.append((key, core.signs[k], loops))
                        tasks.append(core.smooth_crossing(k))
                        tasks.append(core.switch_crossing(k))
                        continue
                    cached = UNLINK_FACTOR ** (core.num_components - 1)
                    self._remember(key, cached)
            else:
                key, sign, loops = task
                sm = values.pop()
                sw = values.pop()
                # v^±2 P(switched) + (±v^±1) z P(smoothed)
                cached = sw.shift(2 * sign, 0) + sm.shift(sign, 1, sign)
                self._remember(key, cached)
            values.append(cached * UNLINK_FACTOR ** loops if loops else cached)
        return values.pop()


def _strip_loops(d: Diagram) -> Tuple[Diagram, int]:
    if d.free_loops == 0:
        return d, 0
    return Diagram._trusted(d.crossings, d.signs, 0), d.free_loops


def _descending_violation(d: Diagram) -> Optional[int]:
    """First crossing met on its under strand, walking edges in label order."""
    seen = set()
    for e in range(1, d.num_edges + 1):
        k, port = d.incoming_at(e)
        if k in seen:
            continue
        seen.add(k)
        if port == 0:
            return k
    return None
