import hashlib
import json
import time
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clasptools.openbook import (
    OpenBookTriple,
    abelianization_order,
    classify_triple,
    h1_order,
    nontriviality_witness,
    classified_trivial_set,
    s3_fibered_link_name,
    s3_openbook_report,
    todd_coxeter,
)

from clasptools import openbook
from oracle import free_reduce, nontriviality_witness_all_pairs, pi1_presentation, psl2_order


def test_pi1_presentation_examples():
    assert pi1_presentation(OpenBookTriple(0, 1, 1)) == ((1,), (2,))
    p = pi1_presentation(OpenBookTriple(-1, 2, 3))
    assert p == ((-2, 1), (-2, -1, 2, 2, 2))
    assert pi1_presentation(OpenBookTriple(0, 0, 0)) == ((), ())


def test_free_reduction():
    # The oracle's reduction behind pi1_presentation.
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 1)) == (1,)
    assert free_reduce((1, 2, -2, 1)) == (1, 1)


def test_abelianization_order():
    assert abelianization_order(pi1_presentation(OpenBookTriple(-1, 2, 3))) == 1
    assert abelianization_order(pi1_presentation(OpenBookTriple(0, 2, 1))) == 2
    assert abelianization_order(pi1_presentation(OpenBookTriple(0, 0, 1))) == 0


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=150, deadline=None)
def test_abelianization_is_determinant(a, b, c):
    # For these presentations H1 = Z^2 / [[a+b, a], [a, a+c]].
    order = abelianization_order(pi1_presentation(OpenBookTriple(a, b, c)))
    det = (a + b) * (a + c) - a * a
    assert order == abs(det)


def test_h1_closed_form_matches_the_presentation():
    count = 0
    for a, b, c in product(range(-12, 13), repeat=3):
        if abs(a) <= abs(b) <= abs(c):
            t = OpenBookTriple(a, b, c)
            assert h1_order(t) == abelianization_order(pi1_presentation(t)), t
            count += 1
    assert count == 3249


def test_h1_needs_no_presentation(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"ran a group algorithm on {args}")

    for name in ("todd_coxeter", "nontriviality_witness"):
        monkeypatch.setattr(openbook, name, refuse)
    v = classify_triple(OpenBookTriple(1, 1, 99999999))
    assert v.verdict == "nontrivial-pi1"
    assert v.certificate == {"method": "abelianization", "h1_order": 199999999}


def test_todd_coxeter_examples():
    assert todd_coxeter(((1,), (2,))) == 1
    assert todd_coxeter(pi1_presentation(OpenBookTriple(0, 1, 1))) == 1
    assert todd_coxeter(pi1_presentation(OpenBookTriple(-1, 1, 5))) == 1
    # Symmetric group S3 = <x,y | x^2, y^3, (xy)^2>.
    s3 = ((1, 1), (2, 2, 2), (1, 2, 1, 2))
    assert todd_coxeter(s3) == 6
    # Binary icosahedral group from the (2,-3,-5) triple.
    assert todd_coxeter(pi1_presentation(OpenBookTriple(2, -3, -5))) == 120
    # Infinite group: enumeration must exhaust, not loop.
    assert todd_coxeter(pi1_presentation(OpenBookTriple(0, 2, 2)), 3000) is None


def test_todd_coxeter_invariance():
    p = pi1_presentation(OpenBookTriple(-1, 2, 3))
    swapped = tuple(reversed(p))
    renamed = tuple(tuple((3 - abs(g)) * (1 if g > 0 else -1) for g in r) for r in p)
    assert todd_coxeter(p) == todd_coxeter(swapped) == todd_coxeter(renamed)


def test_abelianization_needs_two_relators():
    with pytest.raises(ValueError):
        abelianization_order(((1, 1), (2, 2, 2), (1, 2, 1, 2)))
    with pytest.raises(ValueError):
        abelianization_order(((1,),))


def _primes(bound):
    return [p for p in range(2, bound + 1) if all(p % q for q in range(2, p))]


def test_trace_orders_match_matrix_powers():
    # Every non-scalar matrix of SL(2, p), p <= 31, has the order in
    # PSL(2, p) that the table gives for its trace, by repeated products.
    count = 0
    for p in _primes(31):
        table = openbook._trace_orders(p)
        assert len(table) == p
        for a, b, c in product(range(p), repeat=3):
            if a:
                ds = [(1 + b * c) * pow(a, -1, p) % p]
            else:
                ds = range(p) if (b * c + 1) % p == 0 else []
            for d in ds:
                if b == c == 0 and a == d:
                    continue  # +-I
                assert psl2_order((a, b, c, d), p) == table[(a + d) % p], (p, a, b, c, d)
                count += 1
    assert count == sum(p * (p * p - 1) - (2 if p > 2 else 1) for p in _primes(31))


def _is_permutation(images):
    return sorted(images) == list(range(len(images)))


def test_nontriviality_witness():
    w = nontriviality_witness(OpenBookTriple(2, -3, -5))
    assert (w["method"], w["target"]) == ("homomorphism", "PSL(2,5)")
    assert len(w["image_x"]) == len(w["image_y"]) == 6  # the points of P^1(F_5)
    assert _is_permutation(w["image_x"]) and _is_permutation(w["image_y"])
    assert w["image_x"] != tuple(range(6))
    for word in _relator_words(2, -3, -5):
        assert _perm_value(word, w["image_x"], w["image_y"]) == list(range(6))
    # Past the prime cap there is no certificate.
    assert nontriviality_witness(OpenBookTriple(7, -11, -19)) is None


def _h1_trivial_triples(bound):
    return [
        (a, b, c)
        for c in range(-bound, bound + 1)
        for b in range(-abs(c), abs(c) + 1)
        for a in range(-abs(b), abs(b) + 1)
        if abelianization_order(pi1_presentation(OpenBookTriple(a, b, c))) == 1
    ]


# Every triple with |a| <= |b| <= |c| <= 30, H1 = 1 and |a| >= 2: the
# triples that reach the witness search.
_WITNESS_TRIPLES = [
    (a, b, c)
    for c in range(-30, 31)
    for b in range(-abs(c), abs(c) + 1)
    for a in range(-abs(b), abs(b) + 1)
    if abs(a) >= 2 and abs(a * b + b * c + c * a) == 1
]

# The ten that need a prime past the cap: every other one is certified.
_PAST_THE_CAP = [(s * a, s * b, s * c) for a, b, c in (
    (7, -11, -19), (8, -11, -29), (9, -17, -19), (11, -19, -26), (13, -23, -30))
    for s in (1, -1)]


def test_certificates_kill_the_unreduced_relators():
    assert len(_WITNESS_TRIPLES) == 64
    for t in _WITNESS_TRIPLES:
        if t in _PAST_THE_CAP:
            continue
        v = classify_triple(OpenBookTriple(*t))
        cert = v.certificate
        assert v.verdict == "nontrivial-pi1" and cert["method"] == "homomorphism", t
        x, y = cert["image_x"], cert["image_y"]
        p = int(cert["target"][len("PSL(2,"):-1])
        assert 5 <= p <= 239 and len(x) == len(y) == p + 1, t
        assert _is_permutation(x) and _is_permutation(y) and list(x) != list(range(p + 1)), t
        for word in _relator_words(*v.normalized):
            assert _perm_value(word, x, y) == list(range(p + 1)), t


@given(st.sampled_from(_WITNESS_TRIPLES))
@example((2, -3, -5))
@example((-2, 3, 5))
@example((3, -5, -8))
@example((-3, 5, 8))
@settings(max_examples=10, deadline=None)
def test_witness_finds_every_a5_map(t):
    # A5 = PSL(2, 5): the all-pairs search over S5, which shares no code
    # with the library, finds a map exactly when the PSL(2, p) search
    # certifies the triple at p = 5, the first prime it tries.
    w = nontriviality_witness_all_pairs(pi1_presentation(OpenBookTriple(*t)), degrees=(5,))
    cert = classify_triple(OpenBookTriple(*t)).certificate
    assert (w is not None) == (cert.get("target") == "PSL(2,5)"), t


def test_exhausted_past_the_prime_cap():
    # No prime p <= 400 has traces of the three orders for these triples;
    # the search ends, cold, well inside one second (0.1 ms measured on a
    # shared 2-core x86-64 VM: no prime passes the divisibility test, so
    # no table is built).
    openbook._trace_orders.cache_clear()
    start = time.perf_counter()
    classify_triple(OpenBookTriple(7, -11, -19))
    assert time.perf_counter() - start < 1.0
    for t in _PAST_THE_CAP:
        v = classify_triple(OpenBookTriple(*t))
        assert v.verdict == "inconclusive", t
        assert v.certificate == {"method": "exhausted", "max_prime": 400}, t
    assert sorted(_PAST_THE_CAP) == sorted(
        t for t in _WITNESS_TRIPLES
        if classify_triple(OpenBookTriple(*t)).verdict == "inconclusive")


def _can_serve(p, t):
    # Each exponent shares a factor with p(p^2 - 1)/4, the product of the
    # maximal element orders p, (p - 1)/2 and (p + 1)/2 of PSL(2, p).
    return all(gcd(n, p * (p * p - 1) // 4) != 1 for n in t)


def test_divisibility_test_is_exactly_a_nonempty_trace_list():
    # Some trace has an order dividing n exactly when n shares a factor
    # with p(p^2 - 1)/4, so a prime that fails the test has an empty list.
    primes = [p for p in _primes(400) if p >= 5]
    assert openbook._PRIMES == tuple(primes)
    for p in primes:
        orders = set(openbook._trace_orders(p))
        for n in range(-300, 1001):
            assert any(n % k == 0 for k in orders) == _can_serve(p, (n,)), (p, n)


def test_trace_tables_only_for_primes_that_can_serve(monkeypatch):
    built = []
    real = openbook._trace_orders

    def recording(p):
        built.append(p)
        return real(p)

    monkeypatch.setattr(openbook, "_trace_orders", recording)
    # Past the cap with no table built at all.
    for t in ((30, -31, -931), (3000, -3001, -9003001)):
        v = classify_triple(OpenBookTriple(*t))
        assert v.certificate == {"method": "exhausted", "max_prime": 400}, t
    assert built == []
    # Otherwise a table for exactly the primes that pass the test, up to
    # the one that certifies the triple, or up to the cap.
    for t in _WITNESS_TRIPLES:
        built.clear()
        cert = classify_triple(OpenBookTriple(*t)).certificate
        last = int(cert["target"][len("PSL(2,"):-1]) if "target" in cert else 400
        assert built == [p for p in openbook._PRIMES if p <= last and _can_serve(p, t)], t


def test_todd_coxeter_exhausts_exactly_on_infinite_von_dyck_quotients():
    # pi1 maps onto the von Dyck group D(|b|, |c|, |a|), which is infinite
    # when the orders sorted into p <= q <= r have p >= 2 and
    # 1/p + 1/q + 1/r <= 1, that is qr + pr + pq <= pqr.  Over every
    # |a| <= |b| <= |c| <= 12 triple with H1 = 1, the default coset budget
    # runs out exactly there.
    triples = _h1_trivial_triples(12)
    exhausted_count = 0
    for t in triples:
        norm = OpenBookTriple(*t).sorted_by_magnitude()
        p, q, r = sorted(abs(n) for n in t)
        infinite = p >= 2 and q * r + p * r + p * q <= p * q * r
        exhausted = todd_coxeter(pi1_presentation(norm)) is None
        assert infinite == exhausted, t
        exhausted_count += exhausted
    assert (len(triples), exhausted_count) == (70, 12)


def test_max_cosets_must_be_positive():
    p = pi1_presentation(OpenBookTriple(-3, 5, 7))
    for bad in (0, -5):
        with pytest.raises(ValueError, match="max_cosets must be >= 1"):
            todd_coxeter(p, bad)


def test_coset_budget_counts_labels():
    # A label is never reused after a merge, so the trivial group on
    # < x, y | x, y > needs three.
    p = ((1,), (2,))
    assert todd_coxeter(p, 2) is None
    assert todd_coxeter(p, 3) == 1


_SHORT_WORD_TRIPLES = ((1, -1, 10**8), (0, 1, -1), (-1, 1, 5000), (300, -301, -90301),
                       (3000, -3001, -9003001), (30, -31, -931), (-2, 3, 5), (2, -3, -7))


def test_classify_runs_todd_coxeter_only_on_the_cyclic_presentation(monkeypatch):
    # Todd-Coxeter only closes < x, y | x, y >, for |a| <= 1, and takes no
    # coset budget.  Every answer also agrees with the closed-form rule: a
    # triple is trivial exactly when H1 = 1 and min(|a|, |b|, |c|) <= 1.
    calls = []
    real = openbook.todd_coxeter

    def recording(p, *args, **kwargs):
        calls.append((p, args, kwargs))
        return real(p, *args, **kwargs)

    monkeypatch.setattr(openbook, "todd_coxeter", recording)
    bound = 12
    triples = [(a, b, c) for a in range(-bound, bound + 1)
               for b in range(-bound, bound + 1) for c in range(-bound, bound + 1)
               if abs(a) <= abs(b) <= abs(c)]
    assert len(triples) == 3249
    for t in triples + list(_SHORT_WORD_TRIPLES):
        v = classify_triple(OpenBookTriple(*t))
        a, b, c = t
        h1_trivial = abs(a * b + b * c + c * a) == 1
        small = min(map(abs, t)) <= 1
        assert (v.verdict == "trivial-pi1") == (h1_trivial and small), t
        if v.verdict == "inconclusive":
            assert h1_trivial and not small, t
        if v.certificate["method"] == "homomorphism":
            x, y = v.certificate["image_x"], v.certificate["image_y"]
            for word in _relator_words(*v.normalized):
                assert _perm_value(word, x, y) == list(range(len(x))), t
    assert all(args == () and kwargs == {} for _, args, kwargs in calls)
    assert {p for p, _, _ in calls} == {((1,), (2,))}


def test_classify_examples():
    assert classify_triple(OpenBookTriple(0, 1, -1)).verdict == "trivial-pi1"
    assert classify_triple(OpenBookTriple(1, -1, 12)).verdict == "trivial-pi1"
    assert classify_triple(OpenBookTriple(0, 2, 2)).verdict == "nontrivial-pi1"
    v = classify_triple(OpenBookTriple(-1, 2, 3))
    assert v.verdict == "trivial-pi1"
    assert v.certificate["method"] == "todd-coxeter"


@given(st.permutations([0, 1, 2]), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_classify_is_permutation_invariant(perm, a, b, c):
    t = (a, b, c)
    base = classify_triple(OpenBookTriple(*t)).verdict
    permuted = classify_triple(OpenBookTriple(*(t[i] for i in perm))).verdict
    assert base == permuted


def test_abelianization_necessary_for_triviality():
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                p = pi1_presentation(OpenBookTriple(a, b, c))
                if todd_coxeter(p, 5000) == 1:
                    assert abelianization_order(p) == 1


def test_s3_openbook_report():
    rows = s3_openbook_report(3)
    named = {r["triple"]: r.get("fibered_link") for r in rows if "fibered_link" in r}
    assert named[(0, 1, 1)] == "H+#H+"
    assert named[(1, -1, 2)] == "P(2,-4,-2)"
    assert named[(-1, 2, 3)] == "L^ex"
    assert named[(1, -2, -3)] == "mirror(L^ex)"
    for r in rows:
        assert (r["verdict"] == "trivial-pi1") == ("fibered_link" in r)


def test_proposition_set_predicate():
    assert classified_trivial_set((0, 1, 1))
    assert classified_trivial_set((1, 1, -1))  # multiset {-1,1,1} = (-1,1,n) at n=1
    assert classified_trivial_set((-1, 2, 3))
    assert not classified_trivial_set((0, 2, 2))
    assert not classified_trivial_set((2, 3, 5))
    with pytest.raises(ValueError):
        s3_fibered_link_name((2, 3, 5))


def _relator_words(a, b, c):
    """(xy)^a x^b and (xy)^a y^c as unreduced signed generator lists."""
    def pw(word, n):
        return list(word) * n if n >= 0 else [-g for g in reversed(word)] * -n

    return pw((1, 2), a) + pw((1,), b), pw((1, 2), a) + pw((2,), c)


def _perm_value(word, x, y):
    inverse = lambda p: [p.index(i) for i in range(len(p))]
    images = {1: list(x), -1: inverse(list(x)), 2: list(y), -2: inverse(list(y))}
    acc = list(range(len(x)))
    for g in word:
        acc = [acc[images[g][i]] for i in range(len(acc))]
    return acc


def test_scan8_certificates():
    rows = s3_openbook_report(8)
    for r in rows:
        a, b, c = r["triple"]
        norm = sorted(r["triple"], key=lambda t: (abs(t), t))
        cert = r["certificate"]
        # H1 = Z^2 / [[a+b, a], [a, a+c]] has order |ab + bc + ca|.
        det = abs(a * b + b * c + c * a)
        if cert["method"] == "abelianization":
            assert cert["h1_order"] == det != 1
            assert r["verdict"] == "nontrivial-pi1"
        elif cert["method"] == "todd-coxeter":
            assert det == 1 and cert["group_order"] == 1
            assert r["verdict"] == "trivial-pi1"
        elif cert["method"] == "homomorphism":
            x, y = cert["image_x"], cert["image_y"]
            ident = list(range(len(x)))
            assert sorted(x) == sorted(y) == ident
            assert not (list(x) == ident and list(y) == ident)
            for word in _relator_words(*norm):
                assert _perm_value(word, x, y) == ident
            assert r["verdict"] == "nontrivial-pi1"
        else:
            raise AssertionError(f"unexpected certificate {cert}")
    trivial = {r["triple"] for r in rows if r["verdict"] == "trivial-pi1"}
    assert trivial == {r["triple"] for r in rows if classified_trivial_set(r["triple"])}
    # The A5 search certified the four PSL(2,5) rows (target S5) and left
    # the other four inconclusive; no other row of the scan changed.
    targets = {r["triple"]: r["certificate"]["target"] for r in rows
               if r["certificate"]["method"] == "homomorphism"}
    assert targets == {(-3, 5, 7): "PSL(2,29)", (-3, 5, 8): "PSL(2,5)",
                       (-2, 3, 5): "PSL(2,5)", (-2, 3, 7): "PSL(2,7)",
                       (2, -3, -7): "PSL(2,7)", (2, -3, -5): "PSL(2,5)",
                       (3, -5, -8): "PSL(2,5)", (3, -5, -7): "PSL(2,29)"}
    for r in rows:
        if r["triple"] in ((-3, 5, 8), (3, -5, -8)):
            assert r["certificate"]["image_x"] == (2, 3, 1, 5, 4, 0)
            assert r["certificate"]["image_y"] == (1, 0, 4, 3, 2, 5)


def _sha256(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# The rows of the |c| <= 12 scan as the A5 search reported them, where they
# differ: the only rows with min(|a|, |b|, |c|) >= 2 and H1 = 1.
_A5_EXHAUSTED = ("inconclusive", {"method": "exhausted", "max_degree": 5})
_A5_ROWS = {
    **{t: _A5_EXHAUSTED for t in (
        (-5, 9, 11), (-4, 7, 9), (-3, 4, 11), (-3, 5, 7), (-2, 3, 7),
        (2, -3, -7), (3, -5, -7), (3, -4, -11), (4, -7, -9), (5, -9, -11))},
    **{t: ("nontrivial-pi1", {"method": "homomorphism", "target": "S5",
                              "image_x": (1, 2, 3, 4, 0), "image_y": (0, 2, 1, 4, 3)})
       for t in ((-3, 5, 8), (3, -5, -8))},
    **{t: ("nontrivial-pi1", {"method": "homomorphism", "target": "S5",
                              "image_x": (0, 1, 3, 4, 2), "image_y": (2, 3, 4, 0, 1)})
       for t in ((-2, 3, 5), (2, -3, -5))},
}


def test_pinned_scan12_certificates():
    # Every verdict and certificate of the |c| <= 12 scan, as JSON text.
    rows = s3_openbook_report(12)
    assert len(rows) == 3249
    assert _sha256(rows) == (
        "dbccc01524a9b17201053e5a9c370c1060f439663e5d3e22511566146252cdb6")
    assert not [r for r in rows if r["verdict"] == "inconclusive"]
    # Against the A5 search's report: putting back its 14 rows gives its
    # pinned text, so no other row changed.  Ten rows went from
    # inconclusive to nontrivial-pi1, four kept their verdict with a new
    # certificate.
    changed = {r["triple"] for r in rows
               if min(map(abs, r["triple"])) >= 2 and h1_order(OpenBookTriple(*r["triple"])) == 1}
    assert changed == set(_A5_ROWS)
    before = [dict(r, verdict=_A5_ROWS[r["triple"]][0], certificate=_A5_ROWS[r["triple"]][1])
              if r["triple"] in changed else r for r in rows]
    assert _sha256(before) == (
        "1939fa172d313c604c8b8c9aac61f510272535566c28ed28ac93f198dfd03f87")
    for r in rows:
        if r["triple"] in changed:
            assert r["verdict"] == "nontrivial-pi1"
            assert r["certificate"]["target"].startswith("PSL(2,")


def test_witness_search_on_large_exponents():
    # No exponent is reduced: the search only asks whether a trace's order
    # divides it.  The last three were certified in A5 before, and stay
    # certified; no prime up to the cap serves the first.
    for t in ((30, -31, -931), (21, -34, -55), (28, -55, -57), (-32, 63, 65)):
        v = classify_triple(OpenBookTriple(*t))
        if t == (30, -31, -931):
            assert v.certificate == {"method": "exhausted", "max_prime": 400}
            continue
        assert v.certificate["target"] == "PSL(2,5)", t
        for word in _relator_words(*v.normalized):
            assert _perm_value(word, v.certificate["image_x"], v.certificate["image_y"]) \
                == list(range(6)), t
    v = classify_triple(OpenBookTriple(300, -301, -90301))
    assert (v.verdict, v.certificate["target"]) == ("nontrivial-pi1", "PSL(2,293)")


def test_openbook_words_stay_short(monkeypatch):
    # The only words the classification builds are the one-letter relators
    # of < x, y | x, y >, at import: the witness search builds none.
    lengths = []

    def recording(relators, *args):
        lengths.extend(map(len, relators))
        return todd_coxeter(relators, *args)

    monkeypatch.setattr(openbook, "todd_coxeter", recording)
    # (1, -1, n) has |a| = 1, so pi1 is cyclic of order H1 = 1, decided
    # without the n-letter relator.
    v = classify_triple(OpenBookTriple(1, -1, 10**8))
    assert v.verdict == "trivial-pi1"
    assert v.certificate == {"method": "todd-coxeter", "group_order": 1}
    for t in _SHORT_WORD_TRIPLES[1:]:
        classify_triple(OpenBookTriple(*t))
    assert lengths and max(lengths) <= 1
