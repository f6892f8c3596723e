"""Span recording around the package's public functions, from outside.

``Tracer.install`` replaces each traced function or method with a
wrapper at every name a caller looks it up by: the class attribute for
methods, and for functions every ``clasptools`` module attribute bound
to the original object (``clasptools.cli.classify_triple`` as well as
``clasptools.openbook.classify_triple``).  No source file changes.

A span is ``(span id, parent id, group, start ns, end ns, query id)``.
Aggregates are kept exactly for every span; the span list itself keeps
the first SPAN_CAP spans, which bounds memory on workloads that make
millions of polynomial operations.  ``dump`` writes both out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict

SPAN_CAP = 200_000

# group -> [(dotted owner, attribute), ...]; owners are modules or classes.
TARGETS = {
    "laurent.mul": [("clasptools.laurent.LaurentPoly", "__mul__")],
    "laurent.add": [("clasptools.laurent.LaurentPoly", "__add__")],
    "diagram.parse": [("clasptools.diagram", "parse_pd")],
    "diagram.simplify": [("clasptools.diagram.Diagram", "simplify")],
    "diagram.canonical_code": [("clasptools.diagram.Diagram", "canonical_code")],
    "diagram.surgery": [("clasptools.diagram.Diagram", "switch_crossing"),
                        ("clasptools.diagram.Diagram", "smooth_crossing")],
    "skein.query": [("clasptools.skein.SkeinEngine", "homfly"),
                    ("clasptools.skein.SkeinEngine", "conway"),
                    ("clasptools.skein.SkeinEngine", "p0")],
    "clasp.enumerate": [("clasptools.clasp", "enumerate_params")],
    "clasp.sos": [("clasptools.clasp", "typeX_sum_of_squares_search")],
    "tangle.build": [("clasptools.tangle", "closed_braid"),
                     ("clasptools.tangle", "montesinos_diagram"),
                     ("clasptools.tangle", "theorem1_catalog")],
    "openbook.classify": [("clasptools.openbook", "classify_triple")],
    "openbook.abelianization": [("clasptools.openbook", "abelianization_order")],
    "openbook.todd_coxeter": [("clasptools.openbook", "todd_coxeter")],
    "openbook.witness": [("clasptools.openbook", "nontriviality_witness")],
    "census.load": [("clasptools.census", "load_census")],
    "cli.main": [("clasptools.cli", "main")],
}


def _resolve(dotted):
    """The module or class named by a dotted path, importing its module."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


class Tracer:
    """Spans and per-layer counts of the calls made while installed."""

    def __init__(self):
        self.spans = []
        self.qid = -1
        self._next_id = 0
        self._stack = []  # [span id, group, start ns, child ns]
        self._patched = []
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)  # outermost spans of the group
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._keys = weakref.WeakKeyDictionary()  # engine -> invariant -> keys seen
        self._engine = []  # (engine, invariant) of the open skein spans
        self._budget_error = None

    # -- installation ---------------------------------------------------

    def install(self):
        owners = {g: [(_resolve(o), a) for o, a in t] for g, t in TARGETS.items()}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "clasptools" or n.startswith("clasptools."))]
        self._budget_error = _resolve("clasptools.skein.BudgetExceededError")
        for group, targets in owners.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                wrapper = self._wrap(group, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                else:
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, group, fn):
        observe = getattr(self, "_observe_" + group.replace(".", "_"), None)
        if group == "skein.query":
            observe = functools.partial(observe, invariant=fn.__name__)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, group, clock(), 0]
            stack.append(frame)
            before = observe(args, None, True) if observe else None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe:
                    observe(args, exc, False, before)
                self._close(frame)
                raise
            if observe:
                observe(args, result, False, before)
            self._close(frame)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        return wrapper

    def _close(self, frame):
        end = time.perf_counter_ns()
        self._stack.pop()
        sid, group, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        self.calls[group] += 1
        self.self_ns[group] += dur - child
        if parent is not None:
            parent[3] += dur
        # Nested calls of one group (theorem1_catalog -> montesinos_diagram)
        # count once in the group's busy time.
        if not any(f[1] == group for f in self._stack):
            self.busy_ns[group] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent[0] if parent else -1, group, start, end, self.qid))

    # -- per-group observations ----------------------------------------

    def _observe_laurent_mul(self, args, result, entering, before=None):
        if not entering and not isinstance(result, BaseException):
            self.maxima["laurent.max_terms"] = max(self.maxima["laurent.max_terms"], len(result))

    _observe_laurent_add = _observe_laurent_mul

    def _observe_diagram_simplify(self, args, result, entering, before=None):
        if not entering and not isinstance(result, BaseException):
            self.counts["diagram.crossings_removed"] += args[0].num_crossings - result.num_crossings

    def _observe_diagram_canonical_code(self, args, result, entering, before=None):
        if entering or isinstance(result, BaseException):
            return
        d = args[0]
        self.maxima["diagram.canonical_code_max_components"] = max(
            self.maxima["diagram.canonical_code_max_components"], len(d.components))
        if self._engine:
            # The engine keeps one memo table per invariant, so a key seen
            # before by the same engine and invariant is a memo hit.
            engine, invariant = self._engine[-1]
            seen = self._keys.setdefault(engine, {}).setdefault(invariant, set())
            if result in seen:
                self.counts["skein.repeated_keys"] += 1
            else:
                seen.add(result)
                self.counts["skein.distinct_keys"] += 1
            self.counts["skein.keyed_calls"] += 1

    def _observe_skein_query(self, args, result, entering, before=None, invariant=None):
        engine = args[0]
        if entering:
            self._engine.append((engine, invariant))
            return engine.nodes_used
        self._engine.pop()
        if self._engine:
            return  # an inner public call; the outer one counts the nodes
        self.counts["skein.queries"] += 1
        self.counts["skein.nodes"] += engine.nodes_used - before
        if isinstance(result, self._budget_error):
            self.counts["skein.budget_exceeded"] += 1

    def _observe_clasp_sos(self, args, result, entering, before=None):
        if entering or isinstance(result, BaseException):
            return
        if result.status in ("found", "refuted"):
            self.counts["clasp.sos_decided"] += 1
        if "node cap" in result.reason:
            self.counts["clasp.sos_cap_hits"] += 1

    def _observe_openbook_todd_coxeter(self, args, result, entering, before=None):
        if not entering and result is None:
            self.counts["openbook.todd_coxeter_exhausted"] += 1

    def _observe_openbook_witness(self, args, result, entering, before=None):
        if not entering and result is not None and not isinstance(result, BaseException):
            self.counts["openbook.witness_found"] += 1

    # -- results --------------------------------------------------------

    @property
    def spans_total(self):
        return self._next_id

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        s = lambda ns: ns / 1e9
        c, b, counts = self.calls, self.busy_ns, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "diagram.canonical_code_calls": (c["diagram.canonical_code"], "count"),
            "diagram.canonical_code_s": (s(b["diagram.canonical_code"]), "s"),
            "diagram.canonical_code_max_components": (
                self.maxima["diagram.canonical_code_max_components"], "count"),
            "diagram.simplify_calls": (c["diagram.simplify"], "count"),
            "diagram.simplify_s": (s(b["diagram.simplify"]), "s"),
            "diagram.crossings_removed": (counts["diagram.crossings_removed"], "count"),
            "diagram.surgery_calls": (c["diagram.surgery"], "count"),
            "diagram.surgery_s": (s(b["diagram.surgery"]), "s"),
            "diagram.parse_calls": (c["diagram.parse"], "count"),
            "diagram.parse_s": (s(b["diagram.parse"]), "s"),
            "skein.queries": (counts["skein.queries"], "count"),
            "skein.nodes": (counts["skein.nodes"], "count"),
            "skein.nodes_per_query": (ratio(counts["skein.nodes"], counts["skein.queries"]), "count"),
            "skein.self_s": (s(self.self_ns["skein.query"]), "s"),
            "skein.distinct_keys": (counts["skein.distinct_keys"], "count"),
            "skein.memo_hit_ratio": (
                ratio(counts["skein.repeated_keys"], counts["skein.keyed_calls"]), "ratio"),
            "skein.budget_exceeded": (counts["skein.budget_exceeded"], "count"),
            "laurent.mul_calls": (c["laurent.mul"], "count"),
            "laurent.mul_s": (s(b["laurent.mul"]), "s"),
            "laurent.add_calls": (c["laurent.add"], "count"),
            "laurent.add_s": (s(b["laurent.add"]), "s"),
            "laurent.max_terms": (self.maxima["laurent.max_terms"], "count"),
            "clasp.enumerate_calls": (c["clasp.enumerate"], "count"),
            "clasp.enumerate_s": (s(b["clasp.enumerate"]), "s"),
            "clasp.sos_calls": (c["clasp.sos"], "count"),
            "clasp.sos_s": (s(b["clasp.sos"]), "s"),
            "clasp.sos_decided_ratio": (ratio(counts["clasp.sos_decided"], c["clasp.sos"]), "ratio"),
            "clasp.sos_cap_hits": (counts["clasp.sos_cap_hits"], "count"),
            "tangle.build_calls": (c["tangle.build"], "count"),
            "tangle.build_s": (s(b["tangle.build"]), "s"),
            "openbook.abelianization_calls": (c["openbook.abelianization"], "count"),
            "openbook.abelianization_s": (s(b["openbook.abelianization"]), "s"),
            "openbook.todd_coxeter_calls": (c["openbook.todd_coxeter"], "count"),
            "openbook.todd_coxeter_s": (s(b["openbook.todd_coxeter"]), "s"),
            "openbook.todd_coxeter_exhausted": (counts["openbook.todd_coxeter_exhausted"], "count"),
            "openbook.witness_calls": (c["openbook.witness"], "count"),
            "openbook.witness_s": (s(b["openbook.witness"]), "s"),
            "openbook.witness_found_ratio": (
                ratio(counts["openbook.witness_found"], c["openbook.witness"]), "ratio"),
            "census.load_calls": (c["census.load"], "count"),
            "census.load_s": (s(b["census.load"]), "s"),
            "cli.main_calls": (c["cli.main"], "count"),
            "cli.main_self_s": (s(self.self_ns["cli.main"]), "s"),
        }
        return m

    def dump(self, directory):
        """Write the kept spans (gzip CSV) and the aggregates (JSON)."""
        with gzip.open(directory / "spans.csv.gz", "wt") as f:
            f.write("span,parent,group,start_ns,end_ns,query\n")
            for span in self.spans:
                f.write("%d,%d,%s,%d,%d,%d\n" % span)
        summary = {
            "spans_total": self.spans_total,
            "spans_kept": len(self.spans),
            "calls": dict(self.calls),
            "busy_ns": dict(self.busy_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
        (directory / "trace_summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
