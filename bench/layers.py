"""Which package functions the traced run wraps, and how the per-layer
metrics are derived from what the tracer recorded.

Layers are the package modules graph, generators, samplers, maximize, exact
and experiments; cli is left out because it only parses arguments and
formats JSON around the functions traced here.
"""
from __future__ import annotations

from tracer import AGG, OBSERVED, Hook


def _observe_bfs_dag(tr, args, kwargs, dag):
    g, s = args[0], args[1]
    reverse = kwargs.get("reverse", args[2] if len(args) > 2 else False)
    tr.distinct.setdefault("graph.bfs_dag_sources", set()).add(
        (id(g), s, bool(reverse)))


def _observe_pool(tr, args, kwargs, pool):
    # The sampler's output statistics are read off the pool it filled,
    # which keeps the per-sample wrapper as cheap as possible.
    sizes = [len(h) for h in pool.edges]
    tr.count("samplers.hyperedges", len(sizes))
    tr.count("samplers.empty", sizes.count(0))
    tr.maximum("samplers.max_h", max(sizes, default=0))
    tr.count("maximize.pool_entries", sum(sizes))
    tr.count("maximize.pool_nodes", len(pool.incidence))


def _observe_greedy(tr, args, kwargs, result):
    tr.count("maximize.sample_count", result.sample_count)


# Hooks active during the timed calls of one repetition.
REP_HOOKS = [
    Hook("maximize.hedge", "centmax.maximize", "hedge"),
    Hook("maximize.build_pool", "centmax.maximize", "build_pool"),
    Hook("maximize.from_edges", "centmax.maximize", "HyperEdgePool.from_edges",
         observe=_observe_pool),
    Hook("maximize.greedy_cover", "centmax.maximize", "greedy_cover",
         observe=_observe_greedy),
    Hook("samplers.sample", "centmax.samplers", "sample", AGG),
    Hook("graph.bfs_dag", "centmax.graph", "bfs_dag", AGG,
         observe=_observe_bfs_dag),
    Hook("graph.bfs_dist_sigma", "centmax.graph", "bfs_dist_sigma", AGG),
    Hook("exact.ex_greedy", "centmax.exact", "ex_greedy"),
    Hook("exact.adaptive_bwc_all", "centmax.exact", "adaptive_bwc_all"),
]

# Hooks active while the answer's quality is computed (outside the timed
# region).
QUALITY_HOOKS = [
    Hook("exact.set_bwc", "centmax.exact", "set_bwc"),
    Hook("experiments.ic_spread", "centmax.experiments", "ic_spread"),
]

# Hooks active while the workload graph is generated (outside the timed
# region).
GEN_HOOKS = [
    Hook("generators.gen_ran", "centmax.generators", "gen_ran"),
    Hook("generators.gen_kronecker", "centmax.generators", "gen_kronecker"),
]


def _span(s, name, field="total_s"):
    return s["spans"].get(name, {}).get(field, 0.0)


def _call(s, name, field):
    return s["calls"].get(name, {}).get(field, 0)


def _counter(s, name):
    return s["counters"].get(name, 0)


def _per_hyperedge(s, counter):
    count = _counter(s, "samplers.hyperedges")
    return _counter(s, counter) / count if count else 0.0


def _hit_ratio(s):
    calls = _call(s, "graph.bfs_dag", "count")
    return 1.0 - _counter(s, "graph.bfs_dag_sources") / calls if calls else 0.0


_SAMPLE = ("samplers.sample",)
_DAG = ("graph.bfs_dag",)
_SIGMA = ("graph.bfs_dist_sigma",)
_POOL_STATS = ("maximize.from_edges" + OBSERVED,)

# (name, unit, hooks it needs, function of the merged tracer summary).
METRICS = [
    ("samplers.calls", "count", _SAMPLE,
     lambda s: _call(s, "samplers.sample", "count")),
    ("samplers.busy_s", "s", _SAMPLE,
     lambda s: _call(s, "samplers.sample", "total_s")),
    ("samplers.sample_us_p50", "us", _SAMPLE,
     lambda s: 1e6 * _call(s, "samplers.sample", "p50_s")),
    ("samplers.sample_us_p99", "us", _SAMPLE,
     lambda s: 1e6 * _call(s, "samplers.sample", "p99_s")),
    ("samplers.empty_frac", "ratio", _POOL_STATS,
     lambda s: _per_hyperedge(s, "samplers.empty")),
    ("samplers.mean_h", "nodes", _POOL_STATS,
     lambda s: _per_hyperedge(s, "maximize.pool_entries")),
    ("samplers.max_h", "nodes", _POOL_STATS,
     lambda s: _counter(s, "samplers.max_h")),
    ("graph.bfs_dag_calls", "count", _DAG,
     lambda s: _call(s, "graph.bfs_dag", "count")),
    ("graph.bfs_dag_s", "s", _DAG,
     lambda s: _call(s, "graph.bfs_dag", "total_s")),
    ("graph.bfs_dag_hit_ratio", "ratio", ("graph.bfs_dag" + OBSERVED,),
     _hit_ratio),
    ("graph.bfs_dist_sigma_calls", "count", _SIGMA,
     lambda s: _call(s, "graph.bfs_dist_sigma", "count")),
    ("graph.bfs_dist_sigma_s", "s", _SIGMA,
     lambda s: _call(s, "graph.bfs_dist_sigma", "total_s")),
    ("maximize.build_pool_self_s", "s", ("maximize.build_pool",),
     lambda s: _span(s, "maximize.build_pool", "self_s")),
    ("maximize.index_s", "s", ("maximize.from_edges",),
     lambda s: _span(s, "maximize.from_edges")),
    ("maximize.greedy_s", "s", ("maximize.greedy_cover",),
     lambda s: _span(s, "maximize.greedy_cover")),
    ("maximize.sample_count", "count", ("maximize.greedy_cover" + OBSERVED,),
     lambda s: _counter(s, "maximize.sample_count")),
    ("maximize.pool_entries", "count", _POOL_STATS,
     lambda s: _counter(s, "maximize.pool_entries")),
    ("maximize.pool_nodes", "count", _POOL_STATS,
     lambda s: _counter(s, "maximize.pool_nodes")),
    ("exact.ex_greedy_s", "s", ("exact.ex_greedy",),
     lambda s: _span(s, "exact.ex_greedy")),
    ("exact.adaptive_bwc_all_calls", "count", ("exact.adaptive_bwc_all",),
     lambda s: _span(s, "exact.adaptive_bwc_all", "count")),
    ("exact.set_bwc_s", "s", ("exact.set_bwc",),
     lambda s: _span(s, "exact.set_bwc")),
    # Absent only when both generators are gone.
    ("generators.gen_s", "s", ("generators.gen_ran", "generators.gen_kronecker"),
     lambda s: _span(s, "generators.gen_ran")
     + _span(s, "generators.gen_kronecker")),
    ("experiments.ic_spread_s", "s", ("experiments.ic_spread",),
     lambda s: _span(s, "experiments.ic_spread")),
]

OVERHEAD = "trace.overhead_frac"
UNITS = {name: unit for name, unit, _needs, _fn in METRICS}
UNITS[OVERHEAD] = "ratio"


def merge(summaries):
    """Union of tracer summaries taken in different processes."""
    out = {"spans": {}, "calls": {}, "counters": {}, "absent": []}
    for s in summaries:
        for key in ("spans", "calls", "counters"):
            out[key].update(s[key])
        out["absent"].extend(a for a in s["absent"] if a not in out["absent"])
    return out


def layer_metrics(summary):
    """(metric name -> value, names of the metrics whose hooks are all
    absent; those read 0)."""
    values, absent = {}, []
    for name, _unit, needs, fn in METRICS:
        if all(h in summary["absent"] for h in needs):
            absent.append(name)
            values[name] = 0.0
        else:
            values[name] = float(fn(summary))
    return values, absent
