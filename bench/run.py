"""Benchmark of centmax: time to pick k nodes, peak memory and answer
quality on seeded workloads, with per-layer timings traced from outside the
package.

    python3 bench/run.py --workload rr-kron14 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

Every repetition runs in its own single-threaded process (bench/worker.py).
Repetitions start while they are expected to end within --seconds (at least
two, to check that the same seed gives the same answer); a traced run
alternates untraced and traced repetitions.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the run context.  README.md documents the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"

# Single-threaded numpy in this process and in every worker it starts;
# PYTHONHASHSEED pins set iteration order across worker processes.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
sys.path.insert(0, str(ROOT / "src"))

MIN_REPS = 2
# No repetition starts that would end after this many seconds of the run,
# so a run exits well within 180 s.
DEADLINE_S = 150.0
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "quality": "ratio"}


def _import_package():
    """Import centmax from this checkout's src/, or exit non-zero."""
    try:
        import centmax
    except ImportError as exc:
        sys.exit(f"bench/run.py: cannot import centmax from "
                 f"{ROOT / 'src'}: {exc}")
    if Path(centmax.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        sys.exit(f"bench/run.py: centmax imported from {centmax.__file__}, "
                 f"not from {ROOT / 'src'}")


def _git_sha():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child(job, deadline):
    """Run one worker; (its JSON output, None) or (None, error text)."""
    timeout = max(5.0, deadline + 20.0 - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"{job['kind']} timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"{job['kind']} exited {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), None


_ANSWER_KEYS = ("picks", "marginals", "scaled", "sample_count", "exg_picks",
                "exg_scores")


def _answer(out):
    return {k: out.get(k) for k in _ANSWER_KEYS}


def _run_reps(job, seconds, trace, start, deadline, errors):
    """Start repetitions while the next is expected to end within
    `seconds`; always run MIN_REPS and finish an open traced pair.
    Returns [(traced, worker output or None)]."""
    reps, spent = [], 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        now = time.monotonic()
        typical = spent / len(reps) if reps else 0.0
        if (len(reps) >= MIN_REPS and not traced
                and now - start + typical > seconds):
            break
        if reps and now + typical > deadline:
            break
        out, err = _child(dict(job, kind="rep", trace=traced), deadline)
        spent += time.monotonic() - now
        reps.append((traced, out))
        if err:
            errors.append(err)
        elif out["failures"]:
            errors.extend(out["failures"])
    return reps


def _passing(reps, errors):
    """Repetitions that passed every check and gave the first passing
    repetition's answer."""
    ok = [(t, o) for t, o in reps if o is not None and not o["failures"]]
    for i, (_t, o) in enumerate(ok[1:], 1):
        if _answer(o) != _answer(ok[0][1]):
            errors.append(f"repetition {i} gave another answer than "
                          f"repetition 0 with the same seed")
            o["failures"].append("nondeterministic")
    return [(t, o) for t, o in ok if not o["failures"]]


def _end_to_end(untraced, quality):
    return {
        "run_s": statistics.median(o["run_s"] for o in untraced),
        "setup_s": statistics.median(s for o in untraced
                                     for s in o["setup_s"]),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in untraced),
        "quality": quality["quality"],
    }


def _per_layer(untraced, traced, gen_summary, quality):
    """(metric -> median over the traced repetitions, absent metrics)."""
    import layers
    per_rep, absent = [], []
    for o in traced:
        summary = layers.merge([gen_summary, o["trace"], quality["trace"]])
        values, absent = layers.layer_metrics(summary)
        per_rep.append(values)
    metrics = {m: statistics.median(v[m] for v in per_rep) for m in per_rep[0]}
    metrics[layers.OVERHEAD] = (
        statistics.median(o["run_s"] for o in traced)
        / statistics.median(o["run_s"] for o in untraced) - 1.0)
    return metrics, absent


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (context dict, result dict)."""
    # These import centmax, so they load only after main() has checked it.
    import layers
    import numpy
    import tracer
    import workloads
    from centmax import graph

    wl = workloads.get(name, smoke)
    WORK.mkdir(exist_ok=True)
    graph_file = WORK / f"{name}-{seed}{'-smoke' if smoke else ''}.txt"
    job = {"workload": name, "seed": seed, "smoke": smoke,
           "graph_file": str(graph_file)}
    start = time.monotonic()
    deadline = start + DEADLINE_S
    gen_tracer = tracer.Tracer()
    if trace:
        gen_tracer.install(layers.GEN_HOOKS)
    try:
        g = workloads.generate(wl, seed)
    finally:
        gen_tracer.uninstall()
    graph.write_edge_list(g, graph_file)
    del g

    errors, quality = [], None
    try:
        reps = _run_reps(job, seconds, trace, start, deadline, errors)
        ok = _passing(reps, errors)
        if ok:
            quality, err = _child(dict(job, kind="quality", trace=trace,
                                       answer=_answer(ok[0][1])), deadline)
            if err:
                errors.append(err)
            elif quality["failures"]:
                errors.extend(quality["failures"])
    finally:
        graph_file.unlink(missing_ok=True)

    quality_ok = quality is not None and not quality["failures"]
    failed = len(reps) - len(ok) + (0 if quality_ok else 1)
    untraced = [o for t, o in ok if not t]
    traced = [o for t, o in ok if t]
    metrics, units, absent = {}, {}, []
    if quality_ok and untraced and (traced or not trace):
        if trace:
            metrics, absent = _per_layer(untraced, traced,
                                         gen_tracer.summary(), quality)
            units = layers.UNITS
            _write_spans(name, seed, traced)
        else:
            metrics, units = _end_to_end(untraced, quality), END_TO_END_UNITS
    elif not errors:
        errors.append("deadline reached before the needed repetitions ran")
        failed += 1
    result = {"correct": failed == 0 and not errors,
              "attempted": len(reps) + 1, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    first = next((o for _, o in reps if o), {})
    context = {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "seconds": seconds, "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "n": first.get("n"), "m": first.get("m"),
        "budget": first.get("budget"),
        "repetitions": len(reps),
        "run_s": [o["run_s"] for _, o in reps if o],
        "absent": absent, "errors": errors,
    }
    return context, result


def _write_spans(name, seed, traced_reps):
    """Span records (name, start, end, parent index) of the traced
    repetitions, one list per repetition."""
    path = WORK / f"spans-{name}-{seed}.json"
    path.write_text(json.dumps([o["trace"]["records"] for o in traced_reps]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes, untraced and "
                             "traced, and print one summary line")
    args = parser.parse_args(argv)
    _import_package()
    import workloads

    if args.smoke:
        runs, correct, attempted, failed = [], True, 0, 0
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                context, result = run_workload(name, args.seed, 0.0, trace,
                                               smoke=True)
                runs.append({"context": context, "result": result})
                correct &= result["correct"]
                attempted += result["attempted"]
                failed += result["failed"]
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "runs": runs}))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    context, result = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
