"""Benchmark of clasptools: three query workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from anywhere; the package is imported from ``src/`` next to this
directory, so nothing needs installing.  Workloads (see ``workloads.py``
and NOTES.md): braid_links, catalog_scan, openbook_scan.

One run:

1. generates the pass for the seed and checks that the generator is
   deterministic and that the checker rejects corrupted answers;
2. times the set-up (import, engine, census) in SETUP_PROBES fresh
   processes and takes the median;
3. runs the worker, a fresh process that repeats the pass one query at
   a time for ``--seconds`` (with ``--trace 1``: one plain pass, then one
   pass with span recording);
4. checks every answer against the frozen reference, outside the timed
   region, scales the times to a reference machine speed (see
   speed_factors and NOTES.md) and prints the metrics.

The metric names and units come from BENCHMARK.json.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones); with ``--workload all``, one such object per workload, keyed by
its name.  The environment, the input digests and every check result are
written to ``.bench_runs/<workload>-seed<N>-trace<T>/run.json``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 7
QUERY_BUDGET_S = 60
RUN_DEADLINE_S = 170  # the whole run, set-up probes included
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
# Time of worker.speed_kernel on the reference machine state; see NOTES.md.
SPEED_REF_S = 0.00026
SPEED_WINDOW_S = 0.2


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- metrics ------------------------------------------------------------------

def tail_latency(latencies):
    """(value, percentile): the highest ladder percentile with >= 10 samples beyond it."""
    n = len(latencies)
    usable = [p for p in TAIL_LADDER if n * (1 - p / 100) >= 10] or [TAIL_LADDER[0]]
    p = usable[-1]
    return sorted(latencies)[max(0, math.ceil(p / 100 * n) - 1)], p


def per_query_medians(timings):
    """One latency per distinct query: the median of its timings in the run.

    Repeated passes replay the same inputs, so the quantiles are taken
    over the distinct queries, and the tail percentile does not change
    with how many passes a faster or slower program fits in a run.
    """
    return [statistics.median(v) for v in timings.values()]


def speed_factors(samples, records):
    """Per query: SPEED_REF_S over the median kernel time around it.

    The worker times the kernel between queries; the samples within
    SPEED_WINDOW_S of a query's start and end describe the machine while
    it ran.  Machine speed drifts over seconds, and a query shorter than
    the window still gets a dozen samples or so.
    """
    times = [t for t, _ in samples]
    out = []
    for rec in records:
        lo = bisect.bisect_left(times, rec[5] - SPEED_WINDOW_S)
        hi = bisect.bisect_right(times, rec[6] + SPEED_WINDOW_S)
        if hi - lo < 3:  # fewer than three samples: widen to the nearest four
            lo = max(0, min(bisect.bisect_left(times, rec[5]) - 2, len(samples) - 4))
            hi = lo + 4
        out.append(SPEED_REF_S / statistics.median(d for _, d in samples[lo:hi]))
    return out


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def select(declared, values):
    out = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


# -- checking -----------------------------------------------------------------

def check_record(name, ref, rc, out, err):
    if name == "braid_links":
        return check.check_invariants(ref, rc, out, err)
    if name == "openbook_scan":
        return check.check_openbook(ref, rc, out)
    if rc != 0:
        return check.Verdict(True, False, False, reason=err.strip()[-200:])
    got = json.loads(out)
    if "entries" in ref["expect"]:
        return check.check_catalog_listing(ref, got)
    return check.check_knot(ref, got)


def _bump_first_coefficient(text):
    return re.sub(r"^-?\d+", lambda m: str(int(m.group(0)) + 1), text, count=1)


def self_check(name, seed, pool, refs):
    """Generator determinism and checker sensitivity; raises BenchError."""
    a = workloads.digest(workloads.make_pass(name, seed, pool)[0])
    b = workloads.digest(workloads.make_pass(name, seed, pool)[0])
    c = workloads.digest(workloads.make_pass(name, seed + 1, pool)[0])
    if a != b:
        raise BenchError("the generator is not deterministic for one seed")
    if a == c:
        raise BenchError("two seeds gave the same inputs")
    corrupt = []  # (reference, correct answer, corrupted answer)
    if name == "braid_links":
        ref = next(r for r in refs if not r["known_defect"])
        good = dict(ref["expect"], name=ref["pd"])
        bad = dict(good, homfly=_bump_first_coefficient(good["homfly"]))
        corrupt.append((ref, good, bad))
    elif name == "openbook_scan":
        ref = next(r for r in refs if r["expect"]["verdict"] == "nontrivial-pi1")
        good = dict(ref["expect"], triple=ref["triple"])
        corrupt.append((ref, good, dict(good, verdict="trivial-pi1")))
    else:
        ref = next(r for r in refs if "sos" in r["expect"])
        good = ref["expect"]
        corrupt.append((ref, good, dict(good, conway=_bump_first_coefficient(good["conway"]))))
        flipped = not good["typeX_parity_obstruction"]
        corrupt.append((ref, good, dict(good, typeX_parity_obstruction=flipped)))
    for ref, good, bad in corrupt:
        if check_record(name, ref, 0, json.dumps(good), "").failed:
            raise BenchError("the checker rejects a reference answer")
        if not check_record(name, ref, 0, json.dumps(bad), "").mismatch:
            raise BenchError("the checker accepts a corrupted answer")


# -- environment --------------------------------------------------------------

def _source_digest():
    h = hashlib.sha256()
    src = ROOT / "src" / "clasptools"
    for p in sorted(src.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".tsv"):
            h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def environment(name, seed, seconds, trace, pool, queries):
    header = {k: v for k, v in pool.items() if k not in ("fixed", "pool", "catalog")}
    if "catalog" in pool:
        header["catalog_n_bound"] = pool["catalog"]["n_bound"]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload_params": header,
        "pass_queries": len(queries),
        "pool_sha256": hashlib.sha256((workloads.DATA / f"{name}.json").read_bytes()).hexdigest(),
        "inputs_sha256": workloads.digest(queries),
    }


# -- one run ------------------------------------------------------------------

def _python(args, timeout):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)


def run_workload(name, seed, seconds, trace):
    started = time.monotonic()
    pool = workloads.load_pool(name)
    queries, refs = workloads.make_pass(name, seed, pool)
    self_check(name, seed, pool, refs)

    setups, setups_n = [], []
    for _ in range(SETUP_PROBES):
        r = _python([str(HERE / "worker.py"), "setup"], timeout=60)
        if r.returncode != 0:
            raise BenchError(f"set-up failed:\n{r.stderr.strip()}")
        probe = json.loads(r.stdout)
        setups.append(probe["setup_s"])
        setups_n.append(probe["setup_s"] * SPEED_REF_S / statistics.median(probe["speed_s"]))

    out_dir = RUNS / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    job = {"workload": name, "queries": queries, "seconds": seconds, "trace": bool(trace),
           "query_budget_s": QUERY_BUDGET_S, "params": pool.get("params", {})}
    (out_dir / "job.json").write_text(json.dumps(job))
    remaining = RUN_DEADLINE_S - (time.monotonic() - started)
    try:
        r = _python([str(HERE / "worker.py"), "run", str(out_dir / "job.json")], timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the worker ran past the {RUN_DEADLINE_S} s deadline") from None
    if r.returncode != 0:
        raise BenchError(f"the worker failed:\n{r.stderr.strip()[-2000:]}")
    res = json.loads((out_dir / "results.json").read_text())

    attempted = failed = mismatched = decided = unexplained = known = 0
    timings, timings_n = {}, {}  # query index -> latencies in untraced passes
    wall, wall_n, timed_queries, traced = 0.0, 0.0, 0, None
    checks = []
    for p in res["passes"]:
        for i, lat, rc, out, err, *_ in p["records"]:
            v = check_record(name, refs[i], rc, out, err)
            attempted += 1
            failed += v.failed
            mismatched += v.mismatch
            decided += v.decided
            known += v.known_defect
            unexplained += v.failed and not v.known_defect
            if v.failed:
                checks.append({"query": i, "traced": p["traced"], "reason": v.reason,
                               "known_defect": v.known_defect})
        lats = [rec[1] for rec in p["records"]]
        lats_n = [x * f for x, f in zip(lats, speed_factors(res["speed_samples"], p["records"]))]
        # The pass at reference speed: its time between queries scales
        # like the queries' own time.
        pass_wall_n = p["wall_s"] * sum(lats_n) / sum(lats)
        if p["traced"]:
            traced = len(p["records"]) / pass_wall_n
        else:
            for rec, x, x_n in zip(p["records"], lats, lats_n):
                timings.setdefault(rec[0], []).append(x)
                timings_n.setdefault(rec[0], []).append(x_n)
            wall += p["wall_s"]
            wall_n += pass_wall_n
            timed_queries += len(p["records"])

    latencies, latencies_n = per_query_medians(timings), per_query_medians(timings_n)
    tail, tail_p = tail_latency(latencies)
    raw = {
        "setup_s": statistics.median(setups),
        "queries_per_s": timed_queries / wall,
        "query_p50_s": statistics.median(latencies),
        "query_tail_s": tail,
    }
    e2e = {
        "setup_s": statistics.median(setups_n),
        "queries_per_s": timed_queries / wall_n,
        "query_p50_s": statistics.median(latencies_n),
        "query_tail_s": tail_latency(latencies_n)[0],
        "failed_frac": failed / attempted,
        "decided_frac": decided / attempted,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    units = {"setup_s": "s", "queries_per_s": "1/s", "query_p50_s": "s", "query_tail_s": "s",
             "failed_frac": "fraction", "decided_frac": "fraction", "peak_rss_mb": "MB"}
    env = environment(name, seed, seconds, trace, pool, queries)
    record = {
        "environment": env,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "raw_times": raw,
        "speed_kernel_median_s": statistics.median(d for _, d in res["speed_samples"]),
        "tail_percentile": tail_p,
        "distinct_queries": len(latencies),
        "timed_queries": timed_queries,
        "passes": len(res["passes"]),
        "setup_probes_s": setups,
        "worker_setup_s": res["setup_s"],
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "known_defect_failures": known,
        "failures": checks,
    }
    print(f"workload {name}  seed {seed}  trace {trace}  passes {len(res['passes'])}  "
          f"queries/pass {len(queries)}")
    for k, v in e2e.items():
        extra = ""
        if k == "query_tail_s":
            extra = f"  (p{tail_p} of {len(latencies)} distinct queries, {timed_queries} timed)"
        if k == "failed_frac":
            extra = f"  ({failed}/{attempted}; {known} known defect, {mismatched} wrong answers)"
        if k in raw:
            extra = f"  (raw {raw[k]:.6g}){extra}"
        print(f"  {k:<16} {v:.6g} {units[k]}{extra}")
    end_to_end, per_layer = declared_metrics()
    if trace:
        layer = {k: v[0] for k, v in res["trace"].items()}
        layer["trace.queries_per_s"] = traced
        layer["trace.untraced_queries_per_s"] = e2e["queries_per_s"]
        layer["trace.overhead_ratio"] = e2e["queries_per_s"] / traced
        record["per_layer"] = layer
        metrics = select(per_layer, layer)
        for k, v in metrics.items():
            print(f"  {k:<40} {v['value']:.6g} {v['unit']}")
    else:
        metrics = select(end_to_end, e2e)
    print("  environment " + json.dumps(env, sort_keys=True))
    (out_dir / "run.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": mismatched == 0 and unexplained == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "clasptools" / "__init__.py").is_file():
        print(f"error: no clasptools sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = {name: run_workload(name, args.seed, args.seconds, args.trace)
                      for name in workloads.WORKLOADS}
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
