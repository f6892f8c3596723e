"""Command-line front end.

Subcommands: ``invariants``, ``clasp-obstruct``, ``montesinos``,
``catalog``, ``openbook``, ``corollary12``.  Machine-readable JSON goes
to stdout, diagnostics to stderr.  Exit codes: 0 success, 2 unknown
census name, 3 parse error, 4 node budget exceeded, 1 anything else
(usage errors and unreadable data files included).

A config file in ``key=value`` format can preload limits (node-budget,
memo-capacity, bound, census, exceptional); command-line flags override it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .census import COROLLARY12_NAMES, CensusError, load_census, load_exceptional
from .clasp import (
    TYPE_II,
    TYPE_X,
    enumerate_params,
    kadokami_kawamura_excluded,
    typeX_parity_obstruction,
)
from .diagram import DiagramError, parse_pd
from .laurent import extract_p_i
from .openbook import OpenBookTriple, classify_triple, s3_openbook_report
from .skein import BudgetExceededError, SkeinEngine
from .tangle import MontesinosDesc, montesinos_diagram, theorem1_catalog

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN_NAME = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4


class UnknownNameError(LookupError):
    """A knot argument is neither PD text nor a name in the census."""


DEFAULTS = {
    "node-budget": 10_000_000,
    "memo-capacity": 1 << 20,
    "bound": 50,
    "census": None,
    "exceptional": None,
}


def _load_config(path):
    cfg = dict(DEFAULTS)
    if path:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise ValueError(
                f"cannot read config {path}: {getattr(e, 'strerror', None) or e}"
            ) from None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in cfg:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in ("census", "exceptional"):
                cfg[key] = value
                continue
            try:
                cfg[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: {key} needs an integer, got {value!r}"
                ) from None
    return cfg


def _engine(cfg) -> SkeinEngine:
    return SkeinEngine(max_nodes=cfg["node-budget"], memo_capacity=cfg["memo-capacity"])


def _resolve_diagram(name_or_pd: str, cfg):
    if name_or_pd.strip().startswith("PD["):
        return parse_pd(name_or_pd)
    table = load_census(cfg["census"])
    if name_or_pd not in table:
        raise UnknownNameError(f"unknown census name {name_or_pd!r}")
    return table[name_or_pd]


def _homfly_conway_p0(eng, d):
    """HOMFLY, Conway and p0 of d from one skein query, by the definitions
    of ``SkeinEngine.conway`` and ``SkeinEngine.p0``."""
    P = eng.homfly(d)
    return P, P.substitute_v(1), extract_p_i(P, d.num_components, 0)


def _invariants_payload(name, d, eng):
    P, nabla, p0 = _homfly_conway_p0(eng, d)
    payload = {
        "name": name,
        "components": d.num_components,
        "homfly": P.to_text(),
        "conway": nabla.to_text(),
        "p0": p0.to_text(),
    }
    if d.num_components == 1:
        payload["a2"] = nabla.coefficient(0, 2)
        payload["a4"] = nabla.coefficient(0, 4)
    return payload


def cmd_invariants(args, cfg):
    eng = _engine(cfg)
    d = _resolve_diagram(args.knot, cfg)
    print(json.dumps(_invariants_payload(args.knot, d, eng), indent=2))
    return EXIT_OK


def cmd_clasp_obstruct(args, cfg):
    a2, a4 = args.a2, args.a4
    types = [args.type] if args.type else [TYPE_X, TYPE_II]
    bound = args.bound if args.bound is not None else cfg["bound"]
    payload = {
        "a2": a2,
        "a4": a4,
        "bound": bound,
        "typeX_parity_obstruction": typeX_parity_obstruction(a2, a4),
        "kadokami_kawamura_excluded": kadokami_kawamura_excluded(a2, a4),
        "solutions": {},
    }
    for t in types:
        sols = enumerate_params(a2, a4, t, bound)
        payload["solutions"][t] = [
            {"eps1": p.eps1, "eps2": p.eps2, "l1": p.l1, "l2": p.l2, "l": p.l}
            for p in sols
        ]
        payload[f"type{t}_solutions_within_bound"] = len(sols)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_montesinos(args, cfg):
    eng = _engine(cfg)
    m = MontesinosDesc.parse(args.desc)
    d = montesinos_diagram(m)
    payload = _invariants_payload(str(m), d, eng)
    payload["pd"] = d.pd_text()
    payload["is_knot"] = d.num_components == 1
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_catalog(args, cfg):
    eng = _engine(cfg)
    census = load_census(cfg["census"])
    exceptional = load_exceptional(cfg["exceptional"])
    entries = theorem1_catalog(args.n_bound, census=census, exceptional=exceptional)
    rows = []
    for e in entries:
        row = {"family": e.family, "name": e.name, "params": e.params}
        if e.note:
            row["note"] = e.note
        if e.diagram is not None:
            nabla = eng.conway(e.diagram)
            row["pd"] = e.diagram.pd_text()
            row["conway"] = nabla.to_text()
            row["a2"] = nabla.coefficient(0, 2)
            row["a4"] = nabla.coefficient(0, 4)
        rows.append(row)
    print(json.dumps(rows, indent=2))
    return EXIT_OK


def cmd_openbook(args, cfg):
    if args.triple:
        try:
            a, b, c = (int(x) for x in args.triple.split(","))
        except ValueError:
            raise ValueError("--triple takes three integers a,b,c") from None
        v = classify_triple(OpenBookTriple(a, b, c))
        print(json.dumps({
            "triple": v.triple,
            "normalized": v.normalized,
            "verdict": v.verdict,
            "certificate": v.certificate,
        }, indent=2))
        return EXIT_OK
    rows = s3_openbook_report(args.scan)
    print(json.dumps(rows, indent=2))
    return EXIT_OK


def cmd_corollary12(args, cfg):
    """Reproduce the clasp-number bound for the five census target knots.

    For each: even a2 and a4 = +-1, the type-X parity obstruction fires,
    and the (conway, p0) pair matches no catalog entry up to mirror; the
    verdict is then cl >= 3.  Catalog non-membership is certified only up
    to the invariants computed here.
    """
    eng = _engine(cfg)
    census = load_census(cfg["census"])
    missing = [n for n in COROLLARY12_NAMES if n not in census]
    if missing:
        raise CensusError(
            "census is missing required entries: " + ", ".join(missing)
        )
    exceptional = load_exceptional(cfg["exceptional"])
    entries = theorem1_catalog(6, census=census, exceptional=exceptional)
    catalog_pairs = []
    for e in entries:
        if e.diagram is None:
            continue
        _, nabla, p0 = _homfly_conway_p0(eng, e.diagram)
        catalog_pairs.append((e.name, (nabla, p0)))
    flagged = sum(1 for e in entries if e.diagram is None)
    report = {
        "certification_scope": (
            "catalog non-membership is certified by (conway, p0) up to mirror, "
            f"against {len(catalog_pairs)} catalog diagrams"
            + (f" ({flagged} exceptional entries lack diagrams)" if flagged else "")
        ),
        "knots": [],
    }
    for name in COROLLARY12_NAMES:
        _, nabla, p0 = _homfly_conway_p0(eng, census[name])
        a2, a4 = nabla.coefficient(0, 2), nabla.coefficient(0, 4)
        matches = [
            cname
            for cname, (cn, cp) in catalog_pairs
            if (cn == nabla and cp == p0) or (cn == nabla and cp == p0.invert_v())
        ]
        ok = a2 % 2 == 0 and a4 in (1, -1) and typeX_parity_obstruction(a2, a4) and not matches
        report["knots"].append({
            "name": name,
            "a2": a2,
            "a4": a4,
            "typeX_obstruction": typeX_parity_obstruction(a2, a4),
            "catalog_matches": matches,
            "verdict": "cl >= 3" if ok else "INCONSISTENT",
        })
    print(json.dumps(report, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="clasptools")
    ap.add_argument("--config", help="key=value config file")
    ap.add_argument("--census", help="census file override")
    ap.add_argument("--exceptional", help="exceptional-knot file override")
    ap.add_argument("--node-budget", type=int)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="HOMFLY/Conway/p0 of a census name or PD code")
    p.add_argument("knot")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("clasp-obstruct", help="two-clasp parameter solutions and obstructions")
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--a4", type=int, required=True)
    p.add_argument("--type", choices=[TYPE_X, TYPE_II])
    p.add_argument("--bound", type=int)
    p.set_defaults(func=cmd_clasp_obstruct)

    p = sub.add_parser("montesinos", help="build K(r1,r2,r3) and compute its invariants")
    p.add_argument("--desc", required=True, help='e.g. "-2/3,2,1/2"')
    p.set_defaults(func=cmd_montesinos)

    p = sub.add_parser("catalog", help="the genus-two clasp-two type-II knot list")
    p.add_argument("--n-bound", type=int, default=3)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("openbook", help="pants open book pi1 classification")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--triple", help="a,b,c twist exponents")
    g.add_argument("--scan", type=int, help="classify all |a|<=|b|<=|c|<=N")
    p.set_defaults(func=cmd_openbook)

    p = sub.add_parser("corollary12", help="reproduce the cl >= 3 verdicts")
    p.set_defaults(func=cmd_corollary12)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        if e.code:  # a usage error, already printed by argparse
            return EXIT_ERROR
        raise
    try:
        cfg = _load_config(args.config)
        if args.census:
            cfg["census"] = args.census
        if args.exceptional:
            cfg["exceptional"] = args.exceptional
        if args.node_budget is not None:
            cfg["node-budget"] = args.node_budget
        return args.func(args, cfg)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except UnknownNameError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    except DiagramError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (CensusError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
