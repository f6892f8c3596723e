"""Workload definitions and the seeded generator of each pass.

Every workload draws from a frozen pool in ``bench/data/<name>.json``
whose answers were computed and cross-checked by ``freeze.py``.  A pass
is the workload's fixed queries plus a seeded sample of the pool, in a
seeded order (``catalog_scan`` keeps a fixed one).  ``freeze.py`` cut the pool into strata of similar cost
and of one kind of answer, and the sample takes one query from each
stratum: every seed gets a different set of queries with the same
spread of costs, so runs with different seeds are comparable.  The
strata only steer the sampling; no query is ever left out of the pool
for what it does to the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Why each workload exists is in NOTES.md and BENCHMARK.json.
WORKLOADS = ("braid_links", "catalog_scan", "openbook_scan")


def load_pool(name):
    return json.loads((DATA / f"{name}.json").read_text())


def _stratified(entries, rng):
    strata = {}
    for e in entries:
        strata.setdefault(e["stratum"], []).append(e)
    return [rng.choice(strata[k]) for k in sorted(strata)]


def make_pass(name, seed, pool):
    """(queries for the worker, reference entries in the same order)."""
    rng = random.Random(f"{name}:{seed}")
    sample = _stratified(pool["pool"], rng)
    if name == "catalog_scan":
        # Like the `catalog` command: build the catalog, analyse its entries
        # in catalog order in one engine, then the larger family members by
        # growing |n|.  A fixed order keeps the memo's reuse the same from
        # seed to seed; only the sample changes.
        sample.sort(key=lambda e: (abs(e["n"]), e["n"], e["desc"]))
        chosen = [pool["catalog"]] + pool["fixed"] + sample
        queries = [{"kind": "catalog", "n_bound": pool["catalog"]["n_bound"]}]
        queries += [{"kind": "entry", "name": e["name"]} for e in pool["fixed"]]
        queries += [{"kind": "montesinos", "desc": e["desc"]} for e in sample]
        return queries, chosen
    chosen = pool["fixed"] + sample
    rng.shuffle(chosen)
    if name == "braid_links":
        return [{"pd": e["pd"]} for e in chosen], chosen
    if name == "openbook_scan":
        return [{"triple": e["triple"]} for e in chosen], chosen
    raise ValueError(f"unknown workload {name!r}")


def digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
