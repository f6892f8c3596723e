"""Freeze the benchmark pools and their reference answers.

    python3 bench/freeze.py [braid_links] [catalog_scan] [openbook_scan]

Run at the commit whose answers become the reference; it rewrites
``bench/data/<workload>.json``.  Every reference answer is cross-checked
by a route independent of the one that produced it before it is frozen:

* braid closures: the brute-force oracle in ``tests/oracle.py`` up to
  ORACLE_MAX_CROSSINGS crossings, and beyond that Conway = HOMFLY at
  v = 1 and p0 = extract_p_i(HOMFLY);
* open books: H1 order = |det| of the exponent matrix, trivial verdicts
  match ``classified_trivial_set``, witness permutations satisfy both
  relators;
* catalog knots: Conway and p0 against a separate HOMFLY engine, every
  ``enumerate_params`` result reproduces (a2, a4) through
  ``conway_model``, and found square pairs satisfy
  eps1 f1^2 + eps2 f2^2 = r.

Each answer must also pass ``check.py``, the checker the runs use.  The
pool is cut into strata by the cost each query had here (see _strata),
and ``workloads.py`` draws one query from each stratum.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import check  # noqa: E402
from worker import SIGN_PAIRS, analyse_knot, cli_query  # noqa: E402

# braid_links: the closures of 3-4 strand braids with 9-15 letters, 85 %
# of them positive so that R2 moves do not erase them.
BRAID_SHAPE = {"strands": [3, 4], "letters": [9, 15], "positive": 0.85}
BRAID_POOL_SEED = 1
BRAID_POOL_SIZE = 640
BRAID_STRATUM = 6
BRAID_FIXED = {"T(3,7)": ([1, 2] * 7, 3), "T(4,5)": ([1, 2, 3] * 5, 4)}
ORACLE_MAX_CROSSINGS = 13

OPENBOOK_BOUND = 12
OPENBOOK_FIXED = [(-2, 3, 7), (2, -3, -7), (-3, 5, 7), (3, -5, -7)]
# Stratum size per certificate method.  Every triple that reaches the
# witness search (8 in the pool at bound 12, plus the 4 fixed ones) is a
# stratum of its own, so each pass holds all 12 of them among about 108
# queries: the tail percentile (p90, 10 beyond it) then lies in the
# witness search, which is where an open-book pass spends its time.
OPENBOOK_STRATUM = {"abelianization": 37, "todd-coxeter": 6, "homomorphism": 1, "exhausted": 1}

CATALOG_N_BOUND = 6
CATALOG_EXTRA_N = range(7, 13)
CATALOG_STRATUM = 6
# The sum-of-squares search runs at bounds that stay under its node cap.
CATALOG_PARAMS = {"enum_bound": 50, "sos_deg": 3, "sos_coeff": 4}


def _require(cond, what):
    if not cond:
        raise SystemExit(f"freeze: cross-check failed: {what}")


def _timed(fn, repeat=1):
    """(fastest of `repeat` timings, result)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _strata(pool, size, klass):
    """Number the strata: within each class, runs of `size` by falling cost.

    The class keeps answers of one kind together (a known defect, a
    certificate method), so each pass draws the same number of each kind.
    `size` is one number, or a number per class.
    """
    size_of = size.get if isinstance(size, dict) else lambda k: size
    pool.sort(key=lambda e: (klass(e), -e["cost_s"]))
    stratum, last, fill = -1, None, 0
    for e in pool:
        if klass(e) != last or fill == size_of(last):
            stratum, last, fill = stratum + 1, klass(e), 0
        e["stratum"] = stratum
        fill += 1
    return pool


def _write(name, header, fixed, pool):
    """One query per line, so a diff shows which references changed."""
    path = HERE / "data" / f"{name}.json"
    dump = lambda obj: json.dumps(obj, separators=(",", ":"))
    lines = ["{"] + [f" {dump(k)}: {dump(v)}," for k, v in header.items()]
    for key, entries in (("fixed", fixed), ("pool", pool)):
        body = ",\n  ".join(dump(e) for e in entries)
        lines.append(f' "{key}": [\n  {body}\n ]' + ("," if key == "fixed" else ""))
    path.write_text("\n".join(lines) + "\n}\n")
    print(f"wrote {path.relative_to(ROOT)}")


# -- braid_links --------------------------------------------------------------

def braid_word(rng):
    n = rng.choice(BRAID_SHAPE["strands"])
    length = rng.randint(*BRAID_SHAPE["letters"])
    word = []
    for _ in range(length):
        g = rng.randint(1, n - 1)
        word.append(g if rng.random() < BRAID_SHAPE["positive"] else -g)
    return word, n


def braid_entry(ident, word, n):
    from clasptools import DiagramError, SkeinEngine, closed_braid, parse_pd
    from clasptools.laurent import extract_p_i
    from oracle import conway_bruteforce, homfly_bruteforce, p0_bruteforce

    d = closed_braid(word, n)
    pd = d.pd_text()
    eng = SkeinEngine()
    P, C, p0 = eng.homfly(d), eng.conway(d), eng.p0(d)
    k = d.num_components
    if d.num_crossings <= ORACLE_MAX_CROSSINGS:
        _require(homfly_bruteforce(d) == P, f"{ident} HOMFLY vs oracle")
        _require(conway_bruteforce(d) == C, f"{ident} Conway vs oracle")
        _require(p0_bruteforce(d) == p0, f"{ident} p0 vs oracle")
    else:
        _require(P.substitute_v(1) == C, f"{ident} Conway = HOMFLY(v=1)")
        _require(extract_p_i(P, k, 0) == p0, f"{ident} p0 = extract_p_i(HOMFLY)")
    expect = {"components": k, "homfly": P.to_text(), "conway": C.to_text(), "p0": p0.to_text()}
    if k == 1:
        expect["a2"], expect["a4"] = C.coefficient(0, 2), C.coefficient(0, 4)
    try:
        parse_pd(pd)
        defect = None
    except DiagramError as e:
        defect = str(e)  # the PD round trip rejects this closure
    entry = {"id": ident, "word": word, "strands": n, "pd": pd,
             "expect": expect, "known_defect": defect}
    cost, (rc, out, err) = _timed(lambda: cli_query(["invariants", pd]), repeat=2)
    v = check.check_invariants(entry, rc, out, err)
    if defect:
        _require(v.failed and v.known_defect, f"{ident} fails as recorded")
    else:
        _require(v == check.OK, f"{ident} CLI answer: {v.reason}")
    entry["cost_s"] = round(cost, 4)
    return entry


def freeze_braid_links():
    rng = random.Random(f"braid-pool:{BRAID_POOL_SEED}")
    pool = []
    for i in range(BRAID_POOL_SIZE):
        pool.append(braid_entry(f"b{i:04d}", *braid_word(rng)))
        if i % 80 == 79:
            print(f"  braid pool {i + 1}/{BRAID_POOL_SIZE}", flush=True)
    fixed = [braid_entry(name, w, n) for name, (w, n) in BRAID_FIXED.items()]
    _strata(pool, BRAID_STRATUM, lambda e: bool(e["known_defect"]))
    _write("braid_links", {
        "shape": BRAID_SHAPE, "pool_seed": BRAID_POOL_SEED,
        "oracle_max_crossings": ORACLE_MAX_CROSSINGS,
        "known_defects": sorted(e["id"] for e in pool if e["known_defect"]),
    }, fixed, pool)


# -- openbook_scan ------------------------------------------------------------

def openbook_entry(triple):
    from clasptools.openbook import classified_trivial_set

    cost, (rc, out, err) = _timed(lambda: cli_query(["openbook", "--triple=%d,%d,%d" % triple]))
    _require(rc == 0, f"{triple} exit {rc}: {err}")
    got = json.loads(out)
    entry = {"triple": list(triple), "expect": {
        "normalized": got["normalized"], "verdict": got["verdict"],
        "certificate": got["certificate"]}}
    # The checker verifies H1 = |det| and the witness permutations.
    v = check.check_openbook(entry, rc, out)
    _require(not v.failed, f"{triple}: {v.reason}")
    if got["verdict"] != "inconclusive":
        _require((got["verdict"] == "trivial-pi1") == classified_trivial_set(triple),
                 f"{triple} trivial verdict vs classified_trivial_set")
    entry["cost_s"] = round(cost, 5)
    return entry


def freeze_openbook_scan():
    b = OPENBOOK_BOUND
    triples = [(x, y, z) for x in range(-b, b + 1) for y in range(-b, b + 1)
               for z in range(-b, b + 1) if abs(x) <= abs(y) <= abs(z)]
    fixed = [openbook_entry(t) for t in OPENBOOK_FIXED]
    _require(all(e["expect"]["verdict"] == "inconclusive" for e in fixed),
             "the four fixed triples are inconclusive")
    pool = [openbook_entry(t) for t in triples if t not in OPENBOOK_FIXED]
    _strata(pool, OPENBOOK_STRATUM, lambda e: e["expect"]["certificate"]["method"])
    _write("openbook_scan", {"bound": b}, fixed, pool)


# -- catalog_scan -------------------------------------------------------------

def extra_descs(n):
    """The six catalog families at twist parameter n (two with eps = +-1)."""
    out = []
    for eps in (1, -1):
        q = 4 * n + eps
        out += [("1/2", "-2/3", f"2/{q}"), ("1/2", "-2/5", f"2/{q}")]
    for r2, r3 in (("2/3", "-2/3"), ("2/3", "-2/5"), ("2/5", "-2/3"), ("2/5", "-2/5")):
        out.append((f"1/{2 * n}", r2, r3))
    return out


def cross_check_knot(name, d, analysis, hom_engine):
    from clasptools import ClaspParams, LaurentPoly, conway_model
    from clasptools.laurent import extract_p_i

    P = hom_engine.homfly(d)
    _require(P.substitute_v(1).to_text() == analysis["conway"], f"{name} Conway = HOMFLY(v=1)")
    _require(extract_p_i(P, 1, 0).to_text() == analysis["p0"], f"{name} p0 = extract_p_i")
    a2, a4 = analysis["a2"], analysis["a4"]
    nabla = check.parse_poly(analysis["conway"])
    _require((nabla.get((0, 2), 0), nabla.get((0, 4), 0)) == (a2, a4), f"{name} a2, a4")
    model = LaurentPoly({(0, 0): 1, (0, 2): a2, (0, 4): a4})
    for t, sols in analysis["params"].items():
        for s in sols:
            _require(conway_model(ClaspParams(*s, disk_type=t)) == model,
                     f"{name} params {s} reproduce (a2, a4)")
    p0 = check.parse_poly(analysis["p0"])
    for r in analysis["sos"]:
        _require("node cap" not in r["reason"], f"{name} search stays under its node cap")
        if r["status"] == "found":
            _require(check.square_pair_is_valid(
                p0, r["eps1"], r["eps2"], check.parse_poly(r["f1"]), check.parse_poly(r["f2"])),
                f"{name} square pair")
        if r["status"] == "refuted":
            _require(check.refutation_is_valid(p0, r["eps1"], r["eps2"]), f"{name} refutation")
    _require([(r["eps1"], r["eps2"]) for r in analysis["sos"]] == list(SIGN_PAIRS), "sign pairs")


def freeze_catalog_scan():
    import clasptools

    census = clasptools.load_census()
    entries = clasptools.theorem1_catalog(CATALOG_N_BOUND, census=census, exceptional=[])
    listing = [[e.name, e.diagram is not None] for e in entries]
    shared, hom_engine = clasptools.SkeinEngine(), clasptools.SkeinEngine()
    fixed = []
    for e in entries:
        if e.diagram is None:
            continue
        analysis = analyse_knot(e.diagram, shared, CATALOG_PARAMS)
        cross_check_knot(e.name, e.diagram, analysis, hom_engine)
        entry = {"name": e.name, "expect": analysis}
        _require(check.check_knot(entry, analysis).failed is False, f"{e.name} checker")
        fixed.append(entry)
    # Costs are taken as in a pass: in the engine that has analysed the
    # catalog and the smaller family members before.
    pool = []
    for n in CATALOG_EXTRA_N:
        for sign in (1, -1):
            for rs in extra_descs(sign * n):
                m = clasptools.MontesinosDesc.parse(",".join(rs))
                desc = ",".join(str(r) for r in m.entries)
                d = clasptools.montesinos_diagram(m)
                cost, analysis = _timed(lambda: analyse_knot(d, shared, CATALOG_PARAMS))
                cross_check_knot(desc, d, analysis, hom_engine)
                entry = {"desc": desc, "n": sign * n, "expect": analysis,
                         "cost_s": round(cost, 4)}
                _require(check.check_knot(entry, analysis).failed is False, f"{desc} checker")
                pool.append(entry)
    decided = lambda e: any(r["status"] != "inconclusive" for r in e["expect"]["sos"])
    _strata(pool, CATALOG_STRATUM, decided)
    _write("catalog_scan", {
        "params": CATALOG_PARAMS,
        "catalog": {"n_bound": CATALOG_N_BOUND, "expect": {"entries": listing}},
    }, fixed, pool)


FREEZERS = {
    "braid_links": freeze_braid_links,
    "catalog_scan": freeze_catalog_scan,
    "openbook_scan": freeze_openbook_scan,
}

if __name__ == "__main__":
    for name in sys.argv[1:] or list(FREEZERS):
        t0 = time.perf_counter()
        FREEZERS[name]()
        print(f"{name}: {time.perf_counter() - t0:.1f} s")
