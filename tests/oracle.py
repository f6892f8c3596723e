"""Independent brute-force skein oracle used to validate the memoized engine.

Deliberately different from the production engine: it recurses over the
full resolution tree with no memoization and no Reidemeister
simplification, and it rewrites toward an *ascending* diagram (first
visit to each crossing forced onto the under strand) instead of the
engine's descending strategy.  Exponential, but fine at oracle scale
(census diagrams up to 9 crossings).

It also keeps the brute-force canonical code, the minimum over every
relabeling, as the reference for the traversal code in ``Diagram``, and
the restart scan (R1 scan, else R2 scan, from the lowest crossing after
every move) as the reference for the one-pass move finder of
``Diagram.simplify``, and the all-pairs S3-S5 search as the reference for
the open-book witness search, which tries one x image per cycle type.
Last, ``pd_code_is_valid`` checks a PD code by trying every orientation
of its over strands, as the reference for ``Diagram``'s one-pass sign
inference and its dart-table planarity check.  And ``homfly_hecke``
evaluates a closed braid's HOMFLY in the Hecke algebra H_n through the
Ocneanu trace (Jones 1987; Morton & Short 1990), which shares no code
with either skein recursion and reaches words far beyond their sizes.
And ``alexander_polynomial`` takes the determinant of a reduced Alexander
matrix, which checks the Conway polynomial of any diagram without a skein
relation: Delta(s^2) = +-s^k Nabla(s - 1/s).
And ``enumerate_params_scan`` scans every l1 in the bound, the reference
for ``clasp.enumerate_params``, which solves one conic instead.
Last, ``linking_number`` counts the signed crossings between two
components, the reference for the linking numbers of braid closures,
mirrors and switched crossings, and ``reverse_all_components`` reverses
every component, the reference for HOMFLY's invariance under that move;
the library itself needs neither.
"""

from functools import lru_cache
from itertools import permutations, product
from math import comb, isqrt

from clasptools.clasp import TYPE_II, TYPE_X, ClaspParams
from clasptools.diagram import Diagram, _Builder, _over_in_port, _over_out_port
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


def simplify_restart_scan(d: Diagram) -> Diagram:
    """``Diagram.simplify`` as a restart scan: after every move, scan the
    crossings from the lowest for an R1 kink, else for an R2 bigon."""
    b = _Builder.from_diagram(d)
    while _reduce_r1(b) or _reduce_r2(b):
        pass
    return b.to_diagram()


def _in_ports(b, k):
    return (0, _over_in_port(b.cr[k][1]))


def _out_ports(b, k):
    return (2, _over_out_port(b.cr[k][1]))


def _arc_at(b, k, p):
    return b.find(b.cr[k][0][p])


def _delete_arc(b, a):
    del b.tail[a], b.head[a]


def _reduce_r1(b) -> bool:
    for k in sorted(b.cr):
        for ip in _in_ports(b, k):
            a = _arc_at(b, k, ip)
            tail = b.tail[a]
            if tail[0] != k or (tail[1] - ip) % 4 not in (1, 3):
                continue
            # Kink: remove the crossing, join the two remaining ports.
            other_in = [p for p in _in_ports(b, k) if p != ip][0]
            other_out = [p for p in _out_ports(b, k) if p != tail[1]][0]
            x = _arc_at(b, k, other_in)
            y = _arc_at(b, k, other_out)
            del b.cr[k]
            _delete_arc(b, a)
            b.splice(x, y)
            return True
    return False


def _reduce_r2(b) -> bool:
    for j in sorted(b.cr):
        for k in sorted(b.cr):
            if k <= j:
                continue
            between = []
            for p in range(4):
                a = _arc_at(b, j, p)
                if {b.tail[a][0], b.head[a][0]} == {j, k} and a not in between:
                    between.append(a)
            for i1 in range(len(between)):
                for i2 in range(i1 + 1, len(between)):
                    if _try_r2(b, j, k, between[i1], between[i2]):
                        return True
    return False


def _port_at(b, a, k):
    return b.tail[a][1] if b.tail[a][0] == k else b.head[a][1]


def _try_r2(b, j, k, e, f) -> bool:
    pe_j, pf_j = _port_at(b, e, j), _port_at(b, f, j)
    pe_k, pf_k = _port_at(b, e, k), _port_at(b, f, k)
    if (pe_j - pf_j) % 4 not in (1, 3) or (pe_k - pf_k) % 4 not in (1, 3):
        return False
    over = lambda p: p in (1, 3)
    if over(pe_j) and over(pe_k) and not over(pf_j) and not over(pf_k):
        pass
    elif over(pf_j) and over(pf_k) and not over(pe_j) and not over(pe_k):
        e, f = f, e
    else:
        return False
    # e runs over both crossings, f under both: the bigon lifts off.
    joins = []
    for strand_ports, bigonic in (
        (lambda c: (0, 2), f),
        (lambda c: (_over_in_port(b.cr[c][1]), _over_out_port(b.cr[c][1])), e),
    ):
        ins, outs = [], []
        for c in (j, k):
            ext = [p for p in strand_ports(c) if p != _port_at(b, bigonic, c)][0]
            (ins if ext in _in_ports(b, c) else outs).append((c, ext))
        if len(ins) != 1 or len(outs) != 1:
            return False
        joins.append((_arc_at(b, *ins[0]), _arc_at(b, *outs[0])))
    del b.cr[j]
    del b.cr[k]
    _delete_arc(b, e)
    _delete_arc(b, f)
    for x, y in joins:
        b.splice(x, y)
    return True


# -- open-book witnesses: every pair of images ---------------------------------

def _perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))

def _perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _word_image(word, imgs):
    acc = tuple(range(len(imgs[1])))
    for g in word:
        acc = _perm_mul(acc, imgs[g])
    return acc


def nontriviality_witness_all_pairs(p):
    """A nontrivial map into S3, S4 or S5 as a certificate, or None.

    Tries every pair of images for x and y, S3 first, and returns the
    first pair that kills every relator and is not both the identity.
    """
    for deg in (3, 4, 5):
        elems = list(permutations(range(deg)))
        inv = {e: _perm_inv(e) for e in elems}
        ident = tuple(range(deg))
        for ix in elems:
            for iy in elems:
                if ix == ident and iy == ident:
                    continue
                imgs = {1: ix, -1: inv[ix], 2: iy, -2: inv[iy]}
                if all(_word_image(r, imgs) == ident for r in p.relators):
                    return {"method": "homomorphism", "target": f"S{deg}",
                            "image_x": ix, "image_y": iy}
    return None


# -- PD validity: every over-strand direction ------------------------------------

def _faces_per_piece_ok(quads):
    """V - E + F = 2 on every piece of crossings sharing an edge.

    Faces are walked clockwise: from port p of crossing k, follow the
    edge to its other end (j, r) and continue from port r - 1 of j.
    """
    n = len(quads)
    ends = {}
    for k, q in enumerate(quads):
        for p, e in enumerate(q):
            ends.setdefault(e, []).append((k, p))
    piece = {k: {k} for k in range(n)}
    for (j, _), (k, _) in ends.values():
        if piece[j] is not piece[k]:
            merged = piece[j] | piece[k]
            for m in merged:
                piece[m] = merged
    faces = {}
    seen = set()
    for k in range(n):
        for p in range(4):
            if (k, p) in seen:
                continue
            key = min(piece[k])
            faces[key] = faces.get(key, 0) + 1
            cur = (k, p)
            while cur not in seen:
                seen.add(cur)
                first, second = ends[quads[cur[0]][cur[1]]]
                j, r = second if first == cur else first
                cur = (j, (r - 1) % 4)
    return all(faces[key] - len(piece[key]) == 2 for key in faces)


def pd_code_is_valid(quads):
    """Every crossing sign tuple under which ``quads`` is a valid PD code.

    Empty when the code is invalid.  For each of the 2^n over-strand
    directions, every label 1..2n must enter exactly one port (0 or the
    over-in port) and leave exactly one (2 or the over-out port); each
    component, followed from its least label, must run through
    consecutive labels back to it; and the code must be planar.
    """
    n = len(quads)
    if any(len(q) != 4 for q in quads) or not _labels_twice(quads):
        return []
    if not _faces_per_piece_ok(quads):
        return []
    valid = []
    for signs in product((1, -1), repeat=n):
        head, tail = {}, {}
        for k, (q, s) in enumerate(zip(quads, signs)):
            oi, oo = (1, 3) if s > 0 else (3, 1)
            for ends, p in ((head, 0), (head, oi), (tail, 2), (tail, oo)):
                ends.setdefault(q[p], []).append((k, p))
        if any(len(head.get(e, ())) != 1 or len(tail.get(e, ())) != 1
               for e in range(1, 2 * n + 1)):
            continue
        if all(_consecutive_from(m, quads, head) for m in range(1, 2 * n + 1)):
            valid.append(signs)
    return valid


def _labels_twice(quads):
    labels = [e for q in quads for e in q]
    return sorted(labels) == sorted(list(range(1, 2 * len(quads) + 1)) * 2)


def _consecutive_from(m, quads, head):
    """The walk from edge m returns to the least label of its component
    through consecutive labels, or m is not that least label."""
    cycle = [m]
    while True:
        (k, p), = head[cycle[-1]]
        nxt = quads[k][(p + 2) % 4]
        if nxt == m:
            break
        cycle.append(nxt)
    if min(cycle) != m:
        return True
    return cycle == list(range(m, m + len(cycle)))


# -- HOMFLY of a closed braid in the Hecke algebra -------------------------------
#
# An element of H_n is a dict from a permutation w of range(n) to the
# coefficient of T_w; g_j is T of the transposition of positions j, j+1, and
# g_j - g_j^-1 = z.  Polynomial time in the word length for fixed n.

Z = LaurentPoly.term(1, ez=1)
VINV = LaurentPoly.term(1, ev=-1)


def _hecke_times(elem, j, inverse):
    """elem * g_j, or elem * g_j^-1 = elem * (g_j - z)."""
    out = {}
    zero = LaurentPoly.zero()
    for w, c in elem.items():
        ws = w[:j] + (w[j + 1], w[j]) + w[j + 2:]
        out[ws] = out.get(ws, zero) + c
        descent = w[j] > w[j + 1]
        if descent != inverse:
            # T_w g_j = z T_w + T_ws on a descent; T_w g_j^-1 = T_ws - z T_w otherwise.
            out[w] = out.get(w, zero) + (Z * c if descent else -(Z * c))
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _hecke_trace(w):
    """Phi_n(T_w): Phi_1(T_id) = 1, a strand that w fixes is a split unknot,
    and the Markov move takes a g_(n-2) out of H_n for a factor v^-1."""
    n = len(w)
    if n == 1:
        return LaurentPoly.one()
    k = w.index(n - 1)
    if k == n - 1:
        return UNLINK_FACTOR * _hecke_trace(w[:-1])
    # w = u s_(n-2) ... s_k with u fixing n-1, a reduced word, so
    # T_w = T_u g_(n-2) ... g_k and Phi_n(T_w) = v^-1 Phi_(n-1)(T_u g_(n-3) ... g_k).
    elem = {w[:k] + w[k + 1:]: LaurentPoly.one()}
    for j in range(n - 3, k - 1, -1):
        elem = _hecke_times(elem, j, False)
    return VINV * sum((c * _hecke_trace(u) for u, c in elem.items()), LaurentPoly.zero())


def homfly_hecke(word, n_strands):
    """HOMFLY of the closure of a braid word: letter +-i is sigma_i^(+-1),
    i in 1..n_strands-1.  P = v^(exponent sum) * Phi_n(word)."""
    elem = {tuple(range(n_strands)): LaurentPoly.one()}
    for letter in word:
        elem = _hecke_times(elem, abs(letter) - 1, letter < 0)
    phi = sum((c * _hecke_trace(w) for w, c in elem.items()), LaurentPoly.zero())
    return LaurentPoly.term(1, ev=sum(1 if x > 0 else -1 for x in word)) * phi


# -- Alexander polynomial by determinant ---------------------------------------
#
# A polynomial in t is a tuple of integer coefficients, lowest degree first,
# with no trailing zeros; () is zero.

def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _poly_add(a, b, sign=1):
    """a + b, or a - b with sign=-1."""
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0)
                 for i in range(n))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_div_exact(a, b):
    """a / b over Z[t]; raises ValueError unless b divides a exactly."""
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(a[k + len(b) - 1], b[-1])
        if r:
            raise ValueError("inexact division")
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] -= c * y
    if any(a):
        raise ValueError("inexact division")
    return _trim(q)


def _bareiss_det(m):
    """Determinant of a square matrix over Z[t] by fraction-free elimination:
    each step's 2 x 2 minors divide exactly by the previous pivot."""
    m = [list(row) for row in m]
    n, sign, prev = len(m), 1, (1,)
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return ()
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                minor = _poly_add(_poly_mul(m[i][j], m[k][k]), _poly_mul(m[i][k], m[k][j]), -1)
                m[i][j] = _poly_div_exact(minor, prev)
        prev = m[k][k]
    det = m[-1][-1] if n else (1,)
    return _poly_add((), det, sign)


def alexander_polynomial(d: Diagram):
    """Delta(t) of d, up to a factor +-t^k, from its Alexander matrix.

    One row per crossing and one column per arc (a strand running from one
    under-crossing to the next): 1 - t for the over-arc, and t for the
    incoming and -1 for the outgoing under-arc at a positive crossing, the
    two swapped at a negative one.  Every row sums to zero; delete one row
    and one column and take the determinant.  A component that never passes
    under, crossingless ones included, lifts off the rest: the link splits
    and Delta = 0.
    """
    if d.num_crossings == 0:
        return (1,) if d.num_components == 1 else ()
    arc = {e: e for e in range(1, d.num_edges + 1)}

    def find(e):
        while arc[e] != e:
            e = arc[e]
        return e

    for q in d.crossings:
        arc[find(q[1])] = find(q[3])  # the over strand runs straight through
    columns = {r: i for i, r in enumerate(sorted({find(e) for e in arc}))}
    if d.free_loops or len(columns) != d.num_crossings:
        return ()
    rows = []
    for q, sign in zip(d.crossings, d.signs):
        row = [()] * len(columns)
        ends = ((q[1], (1, -1)), (q[0], (0, 1) if sign > 0 else (-1,)),
                (q[2], (-1,) if sign > 0 else (0, 1)))
        for e, entry in ends:
            c = columns[find(e)]
            row[c] = _poly_add(row[c], entry)
        rows.append(row)
    return _bareiss_det([row[:-1] for row in rows[:-1]])


def _normal_form(coeffs):
    """A Laurent polynomial in s, {exponent: coefficient}, up to +-s^k."""
    terms = sorted((e, c) for e, c in coeffs.items() if c)
    if not terms:
        return ()
    low, sign = terms[0][0], (1 if terms[0][1] > 0 else -1)
    out = [0] * (terms[-1][0] - low + 1)
    for e, c in terms:
        out[e - low] = sign * c
    return tuple(out)


def conway_matches_alexander(nabla: LaurentPoly, delta) -> bool:
    """Whether Nabla(s - 1/s) = +-s^k Delta(s^2) for some k, where nabla is
    a z-only LaurentPoly and delta is what ``alexander_polynomial`` returns."""
    lhs = {}
    for (ev, ez), c in nabla.items():
        if ev:
            raise ValueError("nabla must be a z-only polynomial")
        for j in range(ez + 1):  # (s - 1/s)^ez
            lhs[ez - 2 * j] = lhs.get(ez - 2 * j, 0) + c * comb(ez, j) * (-1) ** j
    return _normal_form(lhs) == _normal_form({2 * i: c for i, c in enumerate(delta)})


def enumerate_params_scan(a2, a4, disk_type, bound):
    """``clasp.enumerate_params`` by a scan of l1 over [-bound, bound]: l2 is
    linear in l1 given the signs, and l comes from a perfect-square test."""
    out = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            for l1 in range(-bound, bound + 1):
                if disk_type == TYPE_X:
                    l2 = e2 * (a2 - e1 * e2 - e1 * l1)
                else:
                    l2 = e2 * (a2 - e1 * l1)
                if abs(l2) > bound:
                    continue
                m = l1 * l2 - e1 * e2 * a4  # l^2 (type II) or l(l+1) (type X)
                if disk_type == TYPE_II:
                    if m < 0:
                        continue
                    s = isqrt(m)
                    if s * s != m:
                        continue
                    ls = {s, -s}
                else:
                    disc = 1 + 4 * m
                    if disc < 0:
                        continue
                    s = isqrt(disc)
                    if s * s != disc:
                        continue
                    ls = {(-1 + s) // 2, (-1 - s) // 2} if (s % 2 == 1) else set()
                for l in sorted(ls):
                    if abs(l) <= bound:
                        out.append(ClaspParams(e1, e2, l1, l2, l, disk_type))
    return sorted(out)


def linking_number(d: Diagram, i: int, j: int) -> int:
    """Half the signed count of the crossings between edge components i and
    j != i of d; free loops, numbered after them, link nothing.  An odd count
    means a bad diagram and raises ValueError."""
    comp = {e: c for c, cyc in enumerate(d.components) for e in cyc}
    total = sum(s for q, s in zip(d.crossings, d.signs)
                if (comp[q[0]], comp[q[1]]) in ((i, j), (j, i)))
    if total % 2:
        raise ValueError("odd inter-component crossing count")
    return total // 2


def reverse_all_components(d: Diagram) -> Diagram:
    """d with every component reversed: labels run backward in each
    component's block and every quadruple starts at its new under-in edge,
    two ports on; a crossing's two strands both turn, so its sign stays."""
    new = {e: cyc[-1 - k] for cyc in d.components for k, e in enumerate(cyc)}
    quads = [tuple(new[e] for e in (c, dd, a, b)) for a, b, c, dd in d.crossings]
    return Diagram._trusted(quads, d.signs, d.free_loops)
