"""One process of the benchmark: a single repetition of a workload, or the
quality evaluation of its answer.  bench/run.py starts it with one JSON job
argument, and it prints one JSON line.

A repetition loads the workload's edge list several times (the median of
those loads is setup_s), keeps the last fresh Graph, so per-graph caches
start cold as in every CLI run, and times the workload's library calls.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from centmax import graph  # noqa: E402

SETUP_LOADS = 10


def rep(wl, job, tr):
    setup = []
    for _ in range(SETUP_LOADS):
        g = None  # never hold two graphs at once
        t0 = time.perf_counter()
        g = graph.load_edge_list(job["graph_file"])
        setup.append(time.perf_counter() - t0)
    if tr is not None:
        tr.install(layers.REP_HOOKS)
    t0 = time.perf_counter()
    out = workloads.run(wl, g, job["seed"])
    run_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tr is not None:
        tr.uninstall()
    out.update(run_s=run_s, setup_s=setup, peak_rss_mb=peak_kb / 1024.0,
               n=g.n, m=g.m, budget=workloads.budget(wl, g.n),
               failures=workloads.check(wl, g.n, out))
    return out


def quality(wl, job, tr):
    g = graph.load_edge_list(job["graph_file"])
    if tr is not None:
        tr.install(layers.QUALITY_HOOKS)
    q = workloads.quality(wl, g, job["seed"], job["answer"])
    if tr is not None:
        tr.uninstall()
    return {"quality": q, "failures": workloads.check_quality(wl, q)}


def main(argv):
    job = json.loads(argv[1])
    wl = workloads.get(job["workload"], job["smoke"])
    tr = tracer.Tracer() if job["trace"] else None
    out = (rep if job["kind"] == "rep" else quality)(wl, job, tr)
    if tr is not None:
        out["trace"] = tr.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
