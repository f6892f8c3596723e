"""Command-line front end.

Subcommands: ``invariants``, ``clasp-obstruct``, ``montesinos``,
``catalog``, ``openbook``, ``corollary12``.  Machine-readable JSON goes
to stdout, diagnostics to stderr.  Exit codes: 0 success, 2 unknown
census name, 3 parse error, 4 node budget exceeded, 1 anything else
(usage errors and unreadable data files included).  Each ``cmd_*``
returns a JSON-able payload; ``main`` alone writes stdout and maps
exceptions to exit codes.

Every setting is a flag: ``--node-budget`` (skein nodes per query),
``--census`` and ``--exceptional`` (data files), and ``clasp-obstruct
--bound``.

The ``openbook`` and ``tangle`` layers are imported inside the commands
that use them, so a call loads only the modules its command runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

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
from .skein import BudgetExceededError, SkeinEngine, _MAX_NODES

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN_NAME = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4


class UnknownNameError(LookupError):
    """A knot argument is neither PD text nor a name in the census."""


# Searched in order: DiagramError and CensusError (exit 1) are ValueErrors too.
_EXIT_CODES = ((BudgetExceededError, EXIT_BUDGET), (UnknownNameError, EXIT_UNKNOWN_NAME),
               (DiagramError, EXIT_PARSE), (ValueError, EXIT_ERROR))


def _resolve_diagram(name_or_pd: str, census_path):
    if name_or_pd.strip().startswith("PD["):
        return parse_pd(name_or_pd)
    table = load_census(census_path)
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


def cmd_invariants(args):
    eng = SkeinEngine(max_nodes=args.node_budget)
    d = _resolve_diagram(args.knot, args.census)
    return _invariants_payload(args.knot, d, eng)


def cmd_clasp_obstruct(args):
    a2, a4 = args.a2, args.a4
    types = [args.type] if args.type else [TYPE_X, TYPE_II]
    payload = {
        "a2": a2,
        "a4": a4,
        "bound": args.bound,
        "typeX_parity_obstruction": typeX_parity_obstruction(a2, a4),
        "kadokami_kawamura_excluded": kadokami_kawamura_excluded(a2, a4),
        "solutions": {},
    }
    for t in types:
        sols = enumerate_params(a2, a4, t, args.bound)
        payload["solutions"][t] = [
            {"eps1": p.eps1, "eps2": p.eps2, "l1": p.l1, "l2": p.l2, "l": p.l}
            for p in sols
        ]
        payload[f"type{t}_solutions_within_bound"] = len(sols)
    return payload


def cmd_montesinos(args):
    from .tangle import MontesinosDesc, montesinos_diagram

    eng = SkeinEngine(max_nodes=args.node_budget)
    m = MontesinosDesc.parse(args.desc)
    d = montesinos_diagram(m)
    payload = _invariants_payload(str(m), d, eng)
    payload["pd"] = d.pd_text()
    payload["is_knot"] = d.num_components == 1
    return payload


def cmd_catalog(args):
    from .tangle import theorem1_catalog

    eng = SkeinEngine(max_nodes=args.node_budget)
    census = load_census(args.census)
    exceptional = load_exceptional(args.exceptional)
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
    return rows


def cmd_openbook(args):
    from .openbook import OpenBookTriple, classify_triple, s3_openbook_report

    if args.triple:
        try:
            a, b, c = (int(x) for x in args.triple.split(","))
        except ValueError:
            raise ValueError("--triple takes three integers a,b,c") from None
        return classify_triple(OpenBookTriple(a, b, c))._asdict()
    return s3_openbook_report(args.scan)


def cmd_corollary12(args):
    """Reproduce the clasp-number bound for the five census target knots.

    For each: even a2 and a4 = +-1, the type-X parity obstruction fires,
    and the (conway, p0) pair matches no catalog entry up to mirror; the
    verdict is then cl >= 3.  Catalog non-membership is certified only up
    to the invariants computed here.
    """
    from .tangle import theorem1_catalog

    eng = SkeinEngine(max_nodes=args.node_budget)
    census = load_census(args.census)
    missing = [n for n in COROLLARY12_NAMES if n not in census]
    if missing:
        raise CensusError(
            "census is missing required entries: " + ", ".join(missing)
        )
    exceptional = load_exceptional(args.exceptional)
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
            if cn == nabla and cp in (p0, p0.invert_v())
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
    return report


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with '-' and a digit as a value, so that
    ``--desc -2/3,2,1/2`` and ``--triple -2,3,7`` work as their ``=`` forms
    do; no option of this parser looks like that."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="clasptools")
    ap.add_argument("--census", help="census file override")
    ap.add_argument("--exceptional", help="exceptional-knot file override")
    ap.add_argument("--node-budget", type=int, default=_MAX_NODES,
                    help="skein nodes per query; past it, exit 4 (default %(default)s)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="HOMFLY/Conway/p0 of a census name or PD code")
    p.add_argument("knot")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("clasp-obstruct", help="two-clasp parameter solutions and obstructions")
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--a4", type=int, required=True)
    p.add_argument("--type", choices=[TYPE_X, TYPE_II])
    p.add_argument("--bound", type=int, default=50)
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
        print(json.dumps(args.func(args), indent=2))
    except tuple(exc for exc, _ in _EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for exc, code in _EXIT_CODES if isinstance(e, exc))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
