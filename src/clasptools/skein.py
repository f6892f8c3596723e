"""Memoized skein-recursion engine for the HOMFLY polynomial, and the
Conway and zeroth coefficient polynomials read off it.

The recursion rewrites toward a descending diagram by ``Diagram`` steps.
``descending_core`` simplifies a node, drops its free loops, lifts off
its leading components while they lie descending over the rest (a split
unlink, a factor each) and names the site, the first crossing met on its
under strand; a descending core is an unlink.  A core that is one closed
twist, T(2, m), is a leaf; otherwise the site's twist of m crossings
(``twist_region``) takes one step, P(D) = a_m P(D_1) + b_m P(D_0), where
``twist_child`` makes D_j keeping j of them, and m < 3 takes the step at
m = 2, with D_1 the smoothing and D_0 the switch.  ``canonical_code``
keys the memo; only ``diagram.py`` reads the PD arc table.

Each ``SkeinEngine`` has one memo table; the module keeps no engine of
its own, so every caller makes the engine its queries run on.  What it
keeps, once per process and keyed by ints alone, are the twist
coefficients (a_m, b_m), the closed twists P(T(2, m)) and the powers of
delta: constants, no diagram and no answer.  The Conway polynomial is the
HOMFLY polynomial at v = 1, and the zeroth coefficient polynomial is its
``extract_p_i`` coefficient 0 (Lickorish-Millett), so both cost one memo
hit once the HOMFLY polynomial of a diagram is known.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

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
                core, loops, k = task.descending_core()
                if k is None:  # a descending core: an unlink
                    values.append(_unlink_power(len(core.components) + loops - 1))
                    continue
                chain, closed = core.twist_region(k)
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
                            d1, d0 = core.twist_child(chain, 1), core.twist_child(chain, 0)
                        tasks += ((key, *_twist_coefficients(sign, m), loops), d1, d0)
                        continue
            else:
                key, a, b, loops = task
                d1 = values.pop()
                cached = a * d1 + b * values.pop()
                self._remember(key, cached)
            values.append(cached * _unlink_power(loops) if loops else cached)
        return values.pop()


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
