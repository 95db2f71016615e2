"""The benchmark's own test: smoke mode runs every workload at tiny sizes,
untraced and traced, and every answer check passes.

    python -m pytest bench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import tracer  # noqa: E402

END_TO_END = {"run_s", "setup_s", "peak_rss_mb", "quality"}


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170,
                          cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_check_passes(smoke):
    assert smoke["correct"], [r["context"]["errors"] for r in smoke["runs"]]
    assert smoke["failed"] == 0
    assert smoke["attempted"] >= 18


def test_untraced_runs_report_end_to_end_metrics(smoke):
    untraced = [r for r in smoke["runs"] if not r["context"]["trace"]]
    assert {r["context"]["workload"] for r in untraced} == {
        "bwc-ran5k", "rr-kron14", "exact-ran1k"}
    for run in untraced:
        metrics = run["result"]["metrics"]
        assert set(metrics) == END_TO_END
        assert all(m["value"] > 0 for m in metrics.values())


def test_traced_runs_report_every_layer_metric(smoke):
    traced = [r for r in smoke["runs"] if r["context"]["trace"]]
    assert len(traced) == 3
    for run in traced:
        assert set(run["result"]["metrics"]) == set(layers.UNITS)
        assert run["context"]["absent"] == []
    by_name = {r["context"]["workload"]: r["result"]["metrics"] for r in traced}
    # Each workload exercises the layer it was chosen for.
    assert by_name["bwc-ran5k"]["graph.bfs_dist_sigma_calls"]["value"] > 0
    assert by_name["rr-kron14"]["experiments.ic_spread_s"]["value"] > 0
    assert by_name["exact-ran1k"]["graph.bfs_dag_hit_ratio"]["value"] > 0
    assert by_name["exact-ran1k"]["exact.adaptive_bwc_all_calls"]["value"] == 3


def test_context_records_the_run(smoke):
    for run in smoke["runs"]:
        ctx = run["context"]
        assert ctx["nproc"] >= 1 and ctx["budget"] >= 1
        assert ctx["python"] and ctx["numpy"]
        assert ctx["repetitions"] >= 2


def test_missing_hook_target_is_reported_absent():
    # As after a change that deletes bfs_dist_sigma: the hook stays, its
    # target is gone.
    tr = tracer.Tracer()
    tr.install([tracer.Hook("graph.bfs_dist_sigma", "centmax.graph",
                            "no_such_function", tracer.AGG)])
    tr.uninstall()
    values, absent = layers.layer_metrics(tr.summary())
    assert absent == ["graph.bfs_dist_sigma_calls", "graph.bfs_dist_sigma_s"]
    assert values["graph.bfs_dist_sigma_s"] == 0.0


def test_observer_of_a_changed_result_is_reported_absent():
    # As after a change that gives the pool another layout: the call is
    # still timed, the counters read off its result are absent.
    from centmax import maximize
    hook = next(h for h in layers.REP_HOOKS if h.name == "maximize.from_edges")
    tr = tracer.Tracer()
    tr.install([tracer.Hook(hook.name, hook.module, hook.attr,
                            observe=lambda t, a, k, pool: pool.no_such_field)])
    try:
        maximize.HyperEdgePool.from_edges([frozenset({0, 1})], 3, 1.0)
    finally:
        tr.uninstall()
    values, absent = layers.layer_metrics(tr.summary())
    assert "maximize.pool_entries" in absent
    assert "maximize.index_s" not in absent
    assert values["maximize.index_s"] > 0.0
