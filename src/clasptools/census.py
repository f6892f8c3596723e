"""Census loading: named knot diagrams and the exceptional-knot data file.

Census files carry one `name<TAB>PD[...]` entry per line; the
exceptional-knot file carries `name<TAB>eps1<TAB>eps2<TAB>PD[...]`.
Lines starting with `#` are comments.  Loading validates every diagram
and checks that it is a knot, so a corrupted code or a link fails loudly
at load time rather than quietly skewing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional

from .diagram import Diagram, DiagramError, parse_pd


class CensusError(ValueError):
    pass


def _default_path(filename: str) -> Path:
    return Path(str(resources.files("clasptools").joinpath("data", filename)))


def _rows(p: Path, layout: str, kind: str):
    """Yield ``(where, fields, diagram)`` for each entry line of a TSV file.

    Blank and ``#`` lines are skipped.  Each entry must have the columns of
    ``layout`` and a name (its first field) not used before, and its last
    field must be the PD code of a knot.  ``where`` is the ``path:line``
    that every error names; a file that cannot be read or decoded is too.
    """
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise CensusError(f"cannot read {kind} file {p}: {getattr(e, 'strerror', None) or e}") from None
    columns = layout.count("<TAB>") + 1
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{p}:{lineno}"
        parts = line.split("\t")
        if len(parts) != columns:
            raise CensusError(f"{where}: expected `{layout}`")
        name = parts[0]
        if name in seen:
            raise CensusError(f"{where}: duplicate {kind} name {name!r}")
        seen.add(name)
        try:
            d = parse_pd(parts[-1])
        except DiagramError as e:
            raise CensusError(f"{where}: entry {name!r} is invalid: {e}") from e
        if d.num_components != 1:
            raise CensusError(f"{where}: {kind} entry {name!r} is not a knot")
        yield where, parts, d


def load_census(path: Optional[str] = None, engine=None) -> Dict[str, Diagram]:
    """Load and validate the named-knot table (``engine`` is unused; the
    benchmark worker's set-up still passes it)."""
    p = Path(path) if path else _default_path("census.tsv")
    if not p.exists():
        raise CensusError(f"census file not found: {p}")
    return {name: d for _, (name, _), d in _rows(p, "name<TAB>PD[...]", "census")}


@dataclass(frozen=True)
class ExceptionalKnot:
    name: str
    eps1: int
    eps2: int
    diagram: Diagram


def load_exceptional(path: Optional[str] = None) -> List[ExceptionalKnot]:
    """Load the exceptional-knot data file.

    An absent default file yields []; a path given explicitly must exist.
    """
    p = Path(path) if path else _default_path("exceptional.tsv")
    if not p.exists():
        if path:
            raise CensusError(f"exceptional file not found: {p}")
        return []
    out: List[ExceptionalKnot] = []
    layout = "name<TAB>eps1<TAB>eps2<TAB>PD[...]"
    for where, (name, e1, e2, _), d in _rows(p, layout, "exceptional"):
        try:
            eps1, eps2 = int(e1), int(e2)
            if eps1 not in (1, -1) or eps2 not in (1, -1):
                raise ValueError
        except ValueError:
            raise CensusError(f"{where}: clasp signs must be +1 or -1") from None
        out.append(ExceptionalKnot(name, eps1, eps2, d))
    return out


COROLLARY12_NAMES = ("11n74", "11n116", "11n142", "12n462", "12n838")
