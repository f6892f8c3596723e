"""Independent brute-force skein oracle used to validate the memoized engine.

Deliberately different from the production engine: it recurses over the
full resolution tree with no memoization and no Reidemeister
simplification, and it rewrites toward an *ascending* diagram (first
visit to each crossing forced onto the under strand) instead of the
engine's descending strategy.  Exponential, but fine at oracle scale
(census diagrams up to 9 crossings).

It also keeps the brute-force canonical code, the minimum over every
relabeling, as the reference for the traversal code in ``Diagram``.
"""

from itertools import permutations, product

from clasptools.diagram import Diagram
from clasptools.laurent import LaurentPoly, UNLINK_FACTOR, extract_p_i

V2 = LaurentPoly.term(1, ev=2)
VINV2 = LaurentPoly.term(1, ev=-2)
VZ = LaurentPoly.term(1, ev=1, ez=1)
VINVZ = LaurentPoly.term(-1, ev=-1, ez=1)


def _first_over_violation(d: Diagram):
    """First crossing met on its over strand, walking edges in label order."""
    seen = set()
    for e in range(1, d.num_edges + 1):
        k, port = d.incoming_at(e)
        if k in seen:
            continue
        seen.add(k)
        if port != 0:
            return k
    return None


def homfly_bruteforce(d: Diagram) -> LaurentPoly:
    loops = d.free_loops
    core = Diagram._trusted(d.crossings, d.signs, 0)
    if core.num_crossings == 0:
        if loops == 0:
            raise ValueError("empty diagram has no HOMFLY polynomial")
        return UNLINK_FACTOR ** (loops - 1)
    p = _homfly_rec(core)
    return p * UNLINK_FACTOR ** loops


def _homfly_rec(d: Diagram) -> LaurentPoly:
    k = _first_over_violation(d)
    if k is None:
        # Ascending diagram: an unlink.
        return UNLINK_FACTOR ** (d.num_components - 1)
    switched = d.switch_crossing(k)
    smoothed = d.smooth_crossing(k)
    if d.signs[k] > 0:
        # v^-1 P+ - v P- = z P0 with this diagram as K+.
        return V2 * _homfly_rec(switched) + VZ * _homfly_rec(smoothed)
    return VINV2 * _homfly_rec(switched) + VINVZ * _homfly_rec(smoothed)


def conway_bruteforce(d: Diagram) -> LaurentPoly:
    return homfly_bruteforce(d).substitute_v(1)


def p0_bruteforce(d: Diagram) -> LaurentPoly:
    return extract_p_i(homfly_bruteforce(d), d.num_components, 0)


def canonical_code_bruteforce(d: Diagram) -> str:
    """Least sorted signed crossing list over every component order and
    every label rotation within each component (k! * prod L_i relabelings).

    Equal strings exactly when ``Diagram.canonical_code`` gives equal
    strings; the two encodings differ, so compare classes, not strings.
    """
    comps = d.components
    if not comps:
        return f"|U{d.free_loops}"
    best = None
    mapping = [0] * (d.num_edges + 1)
    for order in permutations(range(len(comps))):
        for rots in product(*(range(len(comps[ci])) for ci in order)):
            nxt = 1
            for ci, r in zip(order, rots):
                cyc = comps[ci]
                L = len(cyc)
                for t in range(L):
                    mapping[cyc[(r + t) % L]] = nxt + t
                nxt += L
            rel = sorted(
                (mapping[a], mapping[b], mapping[c], mapping[dd], s)
                for (a, b, c, dd), s in zip(d.crossings, d.signs)
            )
            if best is None or rel < best:
                best = rel
    body = ";".join(
        "X[%d,%d,%d,%d]%s" % (a, b, c, dd, "+" if s > 0 else "-")
        for a, b, c, dd, s in best
    )
    return body + f"|U{d.free_loops}"
