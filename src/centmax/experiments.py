"""Experiment drivers: centrality-ranked attack curves, influence spread,
influence-maximization baseline, and time-evolving snapshot series."""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from . import exact, maximize, samplers
from .graph import graph_from_labeled_edges

DEFAULT_ORDERING_EPS = 0.25


def ordering_budget(n, eps=DEFAULT_ORDERING_EPS):
    """The pool size of a centrality ordering: ceil(100 ln(n) / eps^2)."""
    maximize.check_budget_n(n)
    return maximize.pool_budget(100.0 * math.log(n), eps)


def centrality_ordering(g, spec, rng, eps=DEFAULT_ORDERING_EPS):
    """Full greedy pick order over all nodes, from a pool of the
    SamplerSpec's hyper-edges."""
    pool = maximize.build_pool(g, spec, ordering_budget(g.n, eps), rng)
    return maximize.greedy_cover(pool, g.n).selected


@dataclass
class AttackCurve:
    """largest-component size after removing each prefix of an ordering."""
    removed: list     # 0..cap
    lcc_size: list

    def rows(self):
        return list(zip(self.removed, self.lcc_size))


def attack_curve(g, ordering, cap):
    """Largest weakly connected component size for every removal prefix
    0..cap, via reverse insertion with union-find (near-linear total).
    ValueError unless the first cap entries of ordering are distinct
    integer ids in 0..n-1."""
    if not 0 <= cap <= g.n:
        raise ValueError(f"cap={cap} is outside 0..n={g.n}")
    try:
        prefix = [operator.index(v) for v in ordering[:cap]]
    except TypeError:
        prefix = []     # too short, so refused below
    removed = set(prefix)
    if len(removed) < cap or not all(0 <= v < g.n for v in removed):
        raise ValueError(f"the first cap={cap} entries of the ordering are "
                         f"not distinct ids in 0..{g.n - 1}")
    indptr, indices = g.weak_csr()
    bounds, flat = indptr.tolist(), indices.tolist()
    parent = list(range(g.n))
    size = [1] * g.n
    active = [False] * g.n
    best = 0

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return size[ra]
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        return size[ra]

    def insert(u):
        nonlocal best
        active[u] = True
        best = max(best, 1)
        for v in flat[bounds[u]:bounds[u + 1]]:
            if active[v]:
                best = max(best, union(u, v))

    for u in range(g.n):
        if u not in removed:
            insert(u)
    sizes = [best]
    for u in reversed(prefix):
        insert(u)
        sizes.append(best)
    return AttackCurve(list(range(cap + 1)), sizes[::-1])


def ic_spread(g, seeds, p, runs=10000, rng=None):
    """Monte Carlo mean cascade size from a seed set: each directed edge is
    live independently with probability p, re-flipped per cascade.  The
    cascades run forward through samplers._live_keys, in batches sized by
    the reached cells as RR sets are (samplers._batch), from one numpy
    generator that rng seeds; each level draws only its live arcs, and none
    at p = 0 or 1."""
    maximize.check_count(runs, "runs")
    samplers.check_p(p)
    seeds = np.array(sorted(exact._node_set(g, seeds)), dtype=np.int64)
    if seeds.size == 0:
        return 0.0
    rng = rng if rng is not None else random.Random(0)
    gen = np.random.default_rng(rng.getrandbits(64))
    reached = done = 0
    while done < runs:
        b = samplers._batch(done, reached, runs)
        keys = (np.arange(b, dtype=np.int64)[:, None] * g.n + seeds).ravel()
        reached += samplers._live_keys(g.csr(), keys, p, gen).size
        done += b
    return reached / runs


def ris_influence_max(g, k, num_rr, p, rng):
    """Influence-maximization baseline: greedy cover over reverse-reachable
    sets.  Returns the seed set in pick order."""
    spec = samplers.SamplerSpec("rr-influence", p=p)
    pool = maximize.build_pool(g, spec, num_rr, rng)
    return maximize.greedy_cover(pool, k).selected


@dataclass
class EvolutionRow:
    timestamp: int
    n: int
    m: int
    avg_degree: float
    k: int
    scaled_centrality: float


def evolve(temporal, snapshots, ks, spec, rng, eps=DEFAULT_ORDERING_EPS,
           mode="cumulative", directed=False):
    """Per-snapshot sampled centrality of the greedy top-k, for each k.

    Snapshot graphs are built from the temporal edge list in `mode`
    ("cumulative": all edges up to the timestamp; "exact": edges stamped
    exactly at it, for dump-style datasets with deletions).
    """
    if any(k < 1 for k in ks):
        raise ValueError("every k must be positive")
    maximize.check_eps(eps)
    rows = []
    for when in snapshots:
        g = graph_from_labeled_edges(temporal.snapshot_edges(when, mode=mode),
                                     directed=directed)
        if g.n < 2:
            rows.extend(EvolutionRow(when, g.n, g.m, 0.0, k, 0.0) for k in ks)
            continue
        avg_deg = (1 if directed else 2) * g.m / g.n
        kmax = min(max(ks), g.n)
        pool = maximize.build_pool(g, spec, ordering_budget(g.n, eps), rng)
        result = maximize.greedy_cover(pool, kmax)
        scaled = result.scaled_centrality()
        for k in ks:
            rows.append(EvolutionRow(when, g.n, g.m, avg_deg, k,
                                     scaled[min(k, kmax) - 1]))
    return rows


def snapshot_grid(temporal, count):
    """`count` equally spaced timestamp quantiles of the temporal data;
    count must be positive."""
    if count < 1:
        raise ValueError("the snapshot count must be positive")
    times = temporal.times
    if times.size == 0:
        return []
    # Past times.size positions the grid picks every index.
    count = min(count, times.size)
    if count == 1:
        return times[-1:].tolist()
    picks = [round(i * (times.size - 1) / (count - 1)) for i in range(count)]
    return sorted(set(times[picks].tolist()))
