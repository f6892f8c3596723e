"""Reference checker for benchmark answers.

Runs in the benchmark's parent process, outside the timed region.  It
compares each answer with the frozen reference in ``bench/data`` and
re-verifies every certificate with arithmetic of its own (polynomials
as plain dicts, permutations as tuples), so the check does not lean on
the code under test.

Each ``check_*`` function returns a ``Verdict``:

* ``failed``: the query raised, exited nonzero, ran out of budget, or
  gave a wrong answer;
* ``mismatch``: the answer was wrong (a subset of ``failed``);
* ``decided``: the answer is certified, not ``inconclusive``;
* ``known_defect``: the failure is one the reference records as a
  known defect of the program.

An ``inconclusive`` reference that turns into a verified certificate is
accepted; a certified reference that turns ``inconclusive`` is a
mismatch.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

_TERM = re.compile(r"^([+-]?\d+)((?:\*[vz](?:\^-?\d+)?)*)$")


@dataclass(frozen=True)
class Verdict:
    failed: bool
    mismatch: bool
    decided: bool
    known_defect: bool = False
    reason: str = ""


OK = Verdict(False, False, True)


def _error(reason, known_defect=False):
    return Verdict(True, False, False, known_defect, reason)


def _mismatch(reason):
    return Verdict(True, True, False, False, reason)


# -- polynomials in v, z as {(ev, ez): coefficient} --------------------------

def parse_poly(text):
    """Read the package's polynomial text form (``2*v^2 + -1*v^4*z``)."""
    text = text.replace(" ", "")
    if text == "0":
        return {}
    out = {}
    for chunk in text.split("+"):
        m = _TERM.match(chunk)
        if not m:
            raise ValueError(f"bad polynomial term {chunk!r}")
        ev = ez = 0
        for var in m.group(2).split("*")[1:]:
            exp = int(var[2:]) if "^" in var else 1
            if var[0] == "v":
                ev += exp
            else:
                ez += exp
        key = (ev, ez)
        out[key] = out.get(key, 0) + int(m.group(1))
    return {k: c for k, c in out.items() if c}


def poly_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_mul(a, b):
    out = {}
    for (av, az), ac in a.items():
        for (bv, bz), bc in b.items():
            k = (av + bv, az + bz)
            out[k] = out.get(k, 0) + ac * bc
    return {k: c for k, c in out.items() if c}


def _v_only_at(p, v):
    """Value of a v-only polynomial at v = +1 or -1."""
    return sum(c * (v ** (ev % 2)) for (ev, _), c in p.items())


# -- braid_links: `clasptools invariants <PD>` ------------------------------

def check_invariants(ref, rc, out, err):
    """ref: the pool entry (``pd``, ``expect``, ``known_defect``)."""
    if rc != 0:
        defect = ref.get("known_defect")
        known = bool(defect) and defect in err
        return _error(f"exit {rc}: {err.strip()[:120]}", known_defect=known)
    try:
        got = json.loads(out)
    except ValueError:
        return _mismatch("stdout is not JSON")
    want = dict(ref["expect"], name=ref["pd"])
    if got != want:
        keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return _mismatch("fields differ: " + ",".join(keys))
    return OK


# -- openbook_scan: `clasptools openbook --triple=a,b,c` ---------------------

def _relators(a, b, c):
    """Relators (xy)^a x^b and (xy)^a y^c as signed generator words."""
    def pw(word, n):
        if n >= 0:
            return list(word) * n
        return [-g for g in reversed(word)] * (-n)

    return (pw((1, 2), a) + pw((1,), b), pw((1, 2), a) + pw((2,), c))


def _det_h1(a, b, c):
    rows = []
    for rel in _relators(a, b, c):
        rows.append([sum((g == 1) - (g == -1) for g in rel),
                     sum((g == 2) - (g == -2) for g in rel)])
    return abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])


def _perm_word(word, x, y):
    n = len(x)
    inv = {}
    for g, p in ((1, x), (2, y)):
        q = [0] * n
        for i, v in enumerate(p):
            q[v] = i
        inv[g] = tuple(q)
    acc = list(range(n))
    for g in word:
        p = (x if g == 1 else y) if g > 0 else inv[-g]
        acc = [acc[p[i]] for i in range(n)]
    return acc


def homomorphism_is_valid(triple, cert):
    """A nontrivial map of <x,y | relators> into a finite group."""
    x, y = cert.get("image_x"), cert.get("image_y")
    if not isinstance(x, list) or not isinstance(y, list) or len(x) != len(y):
        return False
    rels = _relators(*triple)
    if len(x) == 1:  # Z/n target: exponent sums vanish mod n
        m = re.fullmatch(r"Z/(\d+)", str(cert.get("target", "")))
        if not m:
            return False
        n = int(m.group(1))
        ux, uy = x[0] % n, y[0] % n
        if n < 2 or (ux == 0 and uy == 0):
            return False
        return all(
            sum((ux if abs(g) == 1 else uy) * (1 if g > 0 else -1) for g in r) % n == 0
            for r in rels
        )
    n = len(x)
    if sorted(x) != list(range(n)) or sorted(y) != list(range(n)):
        return False
    ident = list(range(n))
    if x == ident and y == ident:
        return False
    return all(_perm_word(r, x, y) == ident for r in rels)


def check_openbook(ref, rc, out):
    """ref: the pool entry (``triple``, ``expect``)."""
    if rc != 0:
        return _error(f"exit {rc}")
    try:
        got = json.loads(out)
    except ValueError:
        return _mismatch("stdout is not JSON")
    want = ref["expect"]
    triple = tuple(ref["triple"])
    if tuple(got.get("triple", ())) != triple or got.get("normalized") != want["normalized"]:
        return _mismatch("triple or normalization differs")
    verdict, cert = got.get("verdict"), got.get("certificate") or {}
    if verdict == "inconclusive":
        if want["verdict"] != "inconclusive":
            return _mismatch("certified reference turned inconclusive")
        return Verdict(False, False, False)
    if want["verdict"] != "inconclusive" and verdict != want["verdict"]:
        return _mismatch(f"verdict {verdict} != {want['verdict']}")
    norm = tuple(want["normalized"])
    method = cert.get("method")
    if method == "abelianization":
        h1 = cert.get("h1_order")
        if h1 != _det_h1(*norm) or h1 == 1 or verdict != "nontrivial-pi1":
            return _mismatch("abelianization certificate is wrong")
    elif "image_x" in cert:
        if verdict != "nontrivial-pi1" or not homomorphism_is_valid(norm, cert):
            return _mismatch("homomorphism certificate is wrong")
    elif method == "todd-coxeter":
        order = cert.get("group_order")
        want_order = want["certificate"].get("group_order")
        if want_order is None or order != want_order:
            return _mismatch("coset enumeration order differs from reference")
        if (order == 1) != (verdict == "trivial-pi1"):
            return _mismatch("verdict disagrees with group order")
    else:
        return _mismatch(f"unverifiable certificate {method!r}")
    return OK


# -- catalog_scan: skein + clasp analysis of one knot ------------------------

def sos_target(p0, eps1, eps2):
    """p0 - v^(2(eps1+eps2)), which must be (v^-2 - 1)(eps1 f1^2 + eps2 f2^2)."""
    return poly_add(p0, {(2 * (eps1 + eps2), 0): -1})


def square_pair_is_valid(p0, eps1, eps2, f1, f2):
    """(v^-2 - 1)(eps1 f1^2 + eps2 f2^2) + v^(2(eps1+eps2)) == p0."""
    s = poly_add({k: eps1 * c for k, c in poly_mul(f1, f1).items()},
                 {k: eps2 * c for k, c in poly_mul(f2, f2).items()})
    lhs = poly_add(poly_mul(s, {(-2, 0): 1, (0, 0): -1}), {(2 * (eps1 + eps2), 0): 1})
    return lhs == p0


def refutation_is_valid(p0, eps1, eps2):
    """The target is not (v^-2 - 1) times a polynomial in v^2.

    Divisibility by v^-2 - 1 means vanishing at v = 1 and v = -1; both
    factors are even in v, so an exact quotient has odd exponents exactly
    when the target does.
    """
    g = sos_target(p0, eps1, eps2)
    return bool(_v_only_at(g, 1) or _v_only_at(g, -1) or any(ev % 2 for ev, _ in g))


def _sos_entry_ok(p0, want, got):
    """(mismatch reason or '', decided) for one sign pair."""
    e1, e2 = want["eps1"], want["eps2"]
    if (got.get("eps1"), got.get("eps2")) != (e1, e2):
        return "sign pair order differs", False
    status = got.get("status")
    if status == "found":
        try:
            f1, f2 = parse_poly(got["f1"]), parse_poly(got["f2"])
        except (KeyError, TypeError, ValueError):
            return "found without a readable witness", False
        if not square_pair_is_valid(p0, e1, e2, f1, f2):
            return f"square pair for ({e1},{e2}) does not verify", False
        if want["status"] == "refuted":
            return f"found a witness where the reference refuted ({e1},{e2})", False
        return "", True
    if status == "refuted":
        if want["status"] == "found" or not refutation_is_valid(p0, e1, e2):
            return f"refutation for ({e1},{e2}) does not verify", False
        return "", True
    if status == "inconclusive":
        if want["status"] != "inconclusive":
            return f"certified search for ({e1},{e2}) turned inconclusive", False
        return "", False
    return f"unknown search status {status!r}", False


def check_knot(ref, got):
    """ref: pool entry with ``expect``; got: the worker's analysis dict."""
    if got is None:
        return _error("no answer")
    want = ref["expect"]
    for key in ("components", "conway", "p0", "a2", "a4", "params",
                "typeX_parity_obstruction", "kadokami_kawamura_excluded"):
        if got.get(key) != want[key]:
            return _mismatch(f"{key} differs")
    p0 = parse_poly(want["p0"])
    sos_got = got.get("sos") or []
    if len(sos_got) != len(want["sos"]):
        return _mismatch("wrong number of sign pairs")
    found = refuted = 0
    for w, g in zip(want["sos"], sos_got):
        reason, decided = _sos_entry_ok(p0, w, g)
        if reason:
            return _mismatch(reason)
        found += decided and g["status"] == "found"
        refuted += decided and g["status"] == "refuted"
    # The query asks whether some sign pair admits the decomposition:
    # one verified pair answers yes, four verified refutations answer no.
    return Verdict(False, False, found > 0 or refuted == len(sos_got))


def check_catalog_listing(ref, got):
    if got is None:
        return _error("no answer")
    if got.get("entries") != ref["expect"]["entries"]:
        return _mismatch("catalog entries differ")
    return OK
