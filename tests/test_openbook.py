from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clasptools.openbook import (
    OpenBookTriple,
    Presentation,
    abelianization_order,
    classify_triple,
    free_reduce,
    h1_order,
    nontriviality_witness,
    pi1_presentation,
    classified_trivial_set,
    s3_fibered_link_name,
    s3_openbook_report,
    todd_coxeter,
)

from clasptools import openbook
from oracle import nontriviality_witness_all_pairs


def test_pi1_presentation_examples():
    assert pi1_presentation(OpenBookTriple(0, 1, 1)).relators == ((1,), (2,))
    p = pi1_presentation(OpenBookTriple(-1, 2, 3))
    assert p.relators == ((-2, 1), (-2, -1, 2, 2, 2))
    assert pi1_presentation(OpenBookTriple(0, 0, 0)).relators == ((), ())


def test_free_reduction():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 1)) == (1,)
    p = Presentation(((1, 2, -2, 1),))
    assert p.relators == ((1, 1),)


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
    def refuse(t):
        raise AssertionError(f"built the presentation of {t}")

    monkeypatch.setattr(openbook, "pi1_presentation", refuse)
    v = classify_triple(OpenBookTriple(1, 1, 99999999))
    assert v.verdict == "nontrivial-pi1"
    assert v.certificate == {"method": "abelianization", "h1_order": 199999999}


def test_todd_coxeter_examples():
    assert todd_coxeter(Presentation(((1,), (2,)))) == 1
    assert todd_coxeter(pi1_presentation(OpenBookTriple(0, 1, 1))) == 1
    assert todd_coxeter(pi1_presentation(OpenBookTriple(-1, 1, 5))) == 1
    # Symmetric group S3 = <x,y | x^2, y^3, (xy)^2>.
    s3 = Presentation(((1, 1), (2, 2, 2), (1, 2, 1, 2)))
    assert todd_coxeter(s3) == 6
    # Binary icosahedral group from the (2,-3,-5) triple.
    assert todd_coxeter(pi1_presentation(OpenBookTriple(2, -3, -5))) == 120
    # Infinite group: enumeration must exhaust, not loop.
    assert todd_coxeter(pi1_presentation(OpenBookTriple(0, 2, 2)), 3000) is None


def test_todd_coxeter_invariance():
    p = pi1_presentation(OpenBookTriple(-1, 2, 3))
    swapped = Presentation(tuple(reversed(p.relators)))
    renamed = Presentation(
        tuple(tuple((3 - abs(g)) * (1 if g > 0 else -1) for g in r) for r in p.relators)
    )
    assert todd_coxeter(p) == todd_coxeter(swapped) == todd_coxeter(renamed)


def test_abelianization_needs_two_relators():
    with pytest.raises(ValueError):
        abelianization_order(Presentation(((1, 1), (2, 2, 2), (1, 2, 1, 2))))
    with pytest.raises(ValueError):
        abelianization_order(Presentation(((1,),)))


def test_nontriviality_witness():
    w = nontriviality_witness(pi1_presentation(OpenBookTriple(0, 2, 2)))
    assert w is not None
    assert (w["method"], w["target"]) == ("homomorphism", "S3")
    assert sorted(w["image_x"]) == sorted(w["image_y"]) == [0, 1, 2]
    assert nontriviality_witness(Presentation(((1,), (2,)))) is None


def _h1_trivial_triples(bound):
    return [
        (a, b, c)
        for c in range(-bound, bound + 1)
        for b in range(-abs(c), abs(c) + 1)
        for a in range(-abs(b), abs(b) + 1)
        if abelianization_order(pi1_presentation(OpenBookTriple(a, b, c))) == 1
    ]


_WORDS = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=14)

# Every triple with |a| <= |b| <= |c| <= 8 and H1 = 1: trivial groups and
# those with no small witness run the whole search, the rest stop early.
_H1_TRIVIAL_TRIPLES = _h1_trivial_triples(8)


@given(st.one_of(
    st.tuples(_WORDS, _WORDS).map(Presentation),
    st.sampled_from(_H1_TRIVIAL_TRIPLES).map(
        lambda t: pi1_presentation(OpenBookTriple(*t))),
))
@settings(max_examples=50, deadline=None)
def test_witness_matches_all_pairs(p):
    assert nontriviality_witness(p) == nontriviality_witness_all_pairs(p)


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
    p = Presentation(((1,), (2,)))
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
    assert {p for p, _, _ in calls} == {Presentation(((1,), (2,)))}


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
    by_method = {}
    for r in rows:
        a, b, c = r["triple"]
        norm = sorted(r["triple"], key=lambda t: (abs(t), t))
        cert = r["certificate"]
        by_method.setdefault(cert["method"], []).append(r["triple"])
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
            assert cert == {"method": "exhausted", "max_degree": 5}
            assert r["verdict"] == "inconclusive"
    trivial = {r["triple"] for r in rows if r["verdict"] == "trivial-pi1"}
    assert trivial == {r["triple"] for r in rows if classified_trivial_set(r["triple"])}
    assert sorted(by_method["homomorphism"]) == [(-3, 5, 8), (-2, 3, 5), (2, -3, -5), (3, -5, -8)]
    # The first pair of the search, as the all-pairs search found it.
    for r in rows:
        if r["triple"] in ((-3, 5, 8), (3, -5, -8)):
            cert = r["certificate"]
            assert cert["target"] == "S5"
            assert cert["image_x"] == (1, 2, 3, 4, 0)
            assert cert["image_y"] == (0, 2, 1, 4, 3)
    assert sorted(by_method["exhausted"]) == [(-3, 5, 7), (-2, 3, 7), (2, -3, -7), (3, -5, -7)]


def test_witness_search_on_reduced_exponents():
    # Exponents reduced into [-29, 30] give the first pair of the
    # full-word search, found or not.
    for t in ((30, -31, -931), (21, -34, -55), (28, -55, -57), (-32, 63, 65)):
        norm = OpenBookTriple(*t).sorted_by_magnitude()
        full = nontriviality_witness(pi1_presentation(norm))
        expect = full or {"method": "exhausted", "max_degree": 5}
        assert classify_triple(OpenBookTriple(*t)).certificate == expect, t
    assert classify_triple(OpenBookTriple(21, -34, -55)).certificate["target"] == "S5"


def test_openbook_words_stay_short(monkeypatch):
    real_power = openbook.power
    lengths = []

    def short_power(word, n):
        assert len(word) * abs(n) <= 90, (word, n)
        return real_power(word, n)

    def recording(fn):
        def wrapped(p, *args):
            lengths.extend(map(len, p.relators))
            return fn(p, *args)
        return wrapped

    monkeypatch.setattr(openbook, "power", short_power)
    monkeypatch.setattr(openbook, "todd_coxeter", recording(openbook.todd_coxeter))
    monkeypatch.setattr(openbook, "nontriviality_witness", recording(openbook.nontriviality_witness))
    # (1, -1, n) has |a| = 1, so pi1 is cyclic of order H1 = 1, decided
    # without the n-letter relator.
    v = classify_triple(OpenBookTriple(1, -1, 10**8))
    assert v.verdict == "trivial-pi1"
    assert v.certificate == {"method": "todd-coxeter", "group_order": 1}
    for t in _SHORT_WORD_TRIPLES[1:]:
        classify_triple(OpenBookTriple(*t))
    assert lengths and max(lengths) <= 90
