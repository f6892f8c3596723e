"""Benchmark worker: runs one workload's queries in a fresh process.

    python3 bench/worker.py setup          # time the set-up once, print JSON
    python3 bench/worker.py run JOB.json   # run a job written by run.py

A job holds the generated queries of one pass.  The worker runs the
pass again and again, one query at a time (a closed loop with one
client), until ``seconds`` have elapsed, and writes every answer with
its latency to ``results.json`` in the job's directory.  With ``trace``
set it runs one plain pass and then one pass with span recording, so the
two passes measure the tracing overhead on identical inputs.

The worker only runs the program; run.py checks the answers afterwards.
"""

from __future__ import annotations

import gc
import io
import json
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SPEED_EVERY_S = 0.02


def speed_kernel():
    """Fixed interpreter work that never touches the package.

    Timing it between queries tracks how fast this machine runs Python at
    that moment; run.py uses the samples to take machine-speed swings out
    of the reported times (see NOTES.md, "Machine speed").
    """
    table = {}
    acc = 0
    for i in range(600):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc += k * k
    items = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return acc + len(",".join("%d:%d" % kv for kv in items[:80]))


class SpeedProbe:
    """Times speed_kernel between queries, at most every SPEED_EVERY_S."""

    def __init__(self):
        self.samples = []  # [perf_counter at start, kernel seconds]
        self.spent = 0.0  # seconds spent sampling, kept out of pass times
        self._last = float("-inf")

    def sample(self, force=False):
        now = time.perf_counter()
        if not force and now - self._last < SPEED_EVERY_S:
            return
        # With the collector off, the kernel never pays for collecting the
        # queries' garbage, so its time depends on the machine alone.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        speed_kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append([t0, t1 - t0])
        self._last = time.perf_counter()
        self.spent += self._last - now


class QueryBudgetExceeded(BaseException):
    """A single query ran past the job's per-query time budget."""


def _on_alarm(signum, frame):
    raise QueryBudgetExceeded


def set_up():
    """Import the package, build the engine, load and validate the census."""
    t0 = time.perf_counter()
    import clasptools

    engine = clasptools.SkeinEngine()
    census = clasptools.load_census(engine=engine)
    elapsed = time.perf_counter() - t0
    src = Path(clasptools.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise RuntimeError(f"imported clasptools from {src}, not from this checkout")
    return elapsed, census


def cli_query(argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    import clasptools.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = clasptools.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def analyse_knot(d, engine, params):
    """Skein invariants plus every clasp test of the catalog workload."""
    import clasptools
    from clasptools.clasp import TYPE_II, TYPE_X

    nabla = engine.conway(d)
    p0 = engine.p0(d)
    a2, a4 = nabla.coefficient(0, 2), nabla.coefficient(0, 4)
    sols = {}
    for t in (TYPE_X, TYPE_II):
        found = clasptools.enumerate_params(a2, a4, t, params["enum_bound"])
        sols[t] = [[p.eps1, p.eps2, p.l1, p.l2, p.l] for p in found]
    sos = []
    for e1, e2 in SIGN_PAIRS:
        r = clasptools.typeX_sum_of_squares_search(
            p0, e1, e2, deg_bound=params["sos_deg"], coeff_bound=params["sos_coeff"])
        sos.append({
            "eps1": e1, "eps2": e2, "status": r.status, "reason": r.reason,
            "f1": r.f1.to_text() if r.f1 is not None else None,
            "f2": r.f2.to_text() if r.f2 is not None else None,
        })
    return {
        "components": d.num_components,
        "conway": nabla.to_text(),
        "p0": p0.to_text(),
        "a2": a2,
        "a4": a4,
        "params": sols,
        "typeX_parity_obstruction": clasptools.typeX_parity_obstruction(a2, a4),
        "kadokami_kawamura_excluded": clasptools.kadokami_kawamura_excluded(a2, a4),
        "sos": sos,
    }


class CatalogPass:
    """catalog_scan: one engine shared by every query of a pass."""

    def __init__(self, census, params):
        import clasptools

        self.census = census
        self.params = params
        self.engine = clasptools.SkeinEngine()
        self.entries = {}

    def __call__(self, q):
        import clasptools

        if q["kind"] == "catalog":
            entries = clasptools.theorem1_catalog(q["n_bound"], census=self.census, exceptional=[])
            self.entries = {e.name: e.diagram for e in entries}
            listing = [[e.name, e.diagram is not None] for e in entries]
            return 0, json.dumps({"entries": listing}), ""
        if q["kind"] == "entry":
            d = self.entries[q["name"]]
        else:
            d = clasptools.montesinos_diagram(clasptools.MontesinosDesc.parse(q["desc"]))
        return 0, json.dumps(analyse_knot(d, self.engine, self.params)), ""


def query_runner(workload, census, params):
    """A callable that answers one query of the workload: (exit code, stdout, stderr)."""
    if workload == "braid_links":
        return lambda q: cli_query(["invariants", q["pd"]])
    if workload == "openbook_scan":
        return lambda q: cli_query(["openbook", "--triple=%d,%d,%d" % tuple(q["triple"])])
    if workload == "catalog_scan":
        return CatalogPass(census, params)
    raise ValueError(workload)


def run_pass(job, census, probe, tracer=None, pass_index=0):
    """Run every query once; returns (wall seconds, records)."""
    queries = job["queries"]
    budget = job["query_budget_s"]
    records = []
    t0, spent = time.perf_counter(), probe.spent
    run_query = query_runner(job["workload"], census, job["params"])
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.qid = pass_index * len(queries) + i
        probe.sample()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            rc, out, err = run_query(q)
        except QueryBudgetExceeded:
            rc, out, err = -2, "", f"query budget of {budget} s exceeded"
        except Exception:
            rc, out, err = -1, "", traceback.format_exc(limit=4)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        records.append([i, end - start, rc, out, err[-400:], start, end])
    wall = time.perf_counter() - t0 - (probe.spent - spent)
    probe.sample(force=True)
    return wall, records


def peak_rss_mb():
    """Peak resident memory of this process since it was started, in MB.

    Linux only.  Not ru_maxrss: Linux carries the parent's high-water mark
    into a child across fork and exec, so the worker would report run.py's
    memory whenever run.py had grown larger than the program.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_job(job_path):
    job = json.loads(Path(job_path).read_text())
    out_dir = Path(job_path).parent
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_s, census = set_up()
    probe = SpeedProbe()
    passes = []
    t0 = time.perf_counter()
    while True:
        wall, records = run_pass(job, census, probe, pass_index=len(passes))
        passes.append({"traced": False, "wall_s": wall, "records": records})
        if job["trace"] or time.perf_counter() - t0 >= job["seconds"]:
            break
    trace = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            import clasptools

            # Traced set-up: the census load the untraced set-up also did.
            clasptools.load_census(engine=clasptools.SkeinEngine())
            wall, records = run_pass(job, census, probe, tracer, pass_index=len(passes))
        finally:
            tracer.uninstall()
        passes.append({"traced": True, "wall_s": wall, "records": records})
        tracer.dump(out_dir)
        trace = {k: list(v) for k, v in tracer.metrics().items()}
        trace["trace.spans"] = [tracer.spans_total, "count"]
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb(),
        "speed_samples": probe.samples,
        "trace": trace,
    }
    (out_dir / "results.json").write_text(json.dumps(result))


def main(argv):
    if argv[:1] == ["setup"]:
        setup_s = set_up()[0]
        probe = SpeedProbe()
        for _ in range(9):
            probe.sample(force=True)
        print(json.dumps({"setup_s": setup_s, "speed_s": [d for _, d in probe.samples]}))
        return 0
    if len(argv) == 2 and argv[0] == "run":
        run_job(argv[1])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
