"""Hyper-edge samplers.

Each sampler emits a random node set h with Pr(h intersects S) = C(S)/alpha
for every S, where C is the centrality being estimated and alpha its
normalizer.  Samplers are pure functions of (graph, parameters, rng) and are
exact: path choices use integer path-count ratios, never floats.  RR sets
are drawn in numpy batches sized by the cells they reach, from one generator
seeded by rng; each BFS level draws only its live arcs, as geometric gaps
between them.  A chunk of pair draws takes all its pairs from rng before it
walks any, so that their sources can be BFSed in numpy blocks first.

Many hyper-edges travel as one CSR pair (edge_ptr, edge_nodes): hyper-edge
i holds edge_nodes[edge_ptr[i]:edge_ptr[i + 1]].  On their way to a pool
they travel as Split chunks, which keep the one-node hyper-edges out of the
CSR pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .graph import bfs_dag, fill_dag_cache, _distinct

KINDS = ("betweenness", "coverage", "kpath", "rr-influence")

# It bounds the reached cells of one batch of live-edge runs, RR sets or
# ic_spread's cascades, at the mean reach of the runs before it (see
# _batch), and so the transient arrays of the batch.  The pair samplers
# draw _CHUNK pairs per chunk before they BFS any, and the kappa-path
# sampler packs _CHUNK draws per chunk.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SamplerSpec:
    """Which sampler to run, plus its parameters.  Every kind is held to
    check_params, whether it reads the parameter or not."""
    kind: str
    kappa: int = 2        # kpath only
    p: float = 0.01       # rr-influence only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        check_params(self.kappa, self.p)


def check_params(kappa, p):
    """Refuse a kappa that is not a positive integer or an edge
    probability p outside [0, 1] (ValueError)."""
    check_kappa(kappa)
    check_p(p)


def check_kappa(kappa):
    """Refuse a kappa that is not an integer of at least 1, NaN and 2.0 too
    (ValueError)."""
    if not (isinstance(kappa, (int, np.integer)) and kappa >= 1):
        raise ValueError(f"kappa must be a positive integer, got {kappa}")


def check_p(p):
    """Refuse an edge probability outside [0, 1] (ValueError)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability p must be in [0,1], got {p}")


def alpha(spec, g):
    """Normalizer: n(n-1) for pair-based samplers, n for the others."""
    if spec.kind in _PAIR_WALKS:
        return g.n * (g.n - 1)
    return g.n


def sample(g, spec, rng):
    """Draw one hyper-edge according to spec, as a frozenset: sample_many's
    batch of one.  Each call is a sampling run of its own, so for a pair
    kind on n <= 2048 it sweeps its source anew, keeping no row; a loop of
    draws should call sample_many, whose run sweeps each source once."""
    return frozenset(sample_many(g, spec, 1, rng)[1].tolist())


def split_chunks(g, spec, q, rng):
    """q independent hyper-edges drawn in order from rng, yielded as Split
    chunks of at most _CHUNK draws.  RR sets come from numpy batches, pair
    draws from _pair_chunks; kpath walks one draw at a time.  ValueError
    before any draw on a graph too small to draw from, where alpha is 0:
    n < 2 for the pair kinds, n < 1 for the others."""
    if not alpha(spec, g):
        raise ValueError(f"the {spec.kind} sampler needs "
                         f"n >= {2 if spec.kind in _PAIR_WALKS else 1}, "
                         f"got n={g.n}")
    if spec.kind == "rr-influence":
        yield from _rr_chunks(g, spec.p, q, rng)
        return
    if spec.kind in _PAIR_WALKS:
        yield from _pair_chunks(g, _PAIR_WALKS[spec.kind], q, rng)
        return
    for start in range(0, q, _CHUNK):
        yield split(*pack([_walk_kpath(g, spec.kappa, rng)
                           for _ in range(min(_CHUNK, q - start))]))


def sample_many(g, spec, q, rng):
    """q independent hyper-edges drawn in order from rng, as one CSR
    pair."""
    return concat(map(expand, split_chunks(g, spec, q, rng)))


def pack(edges):
    """The CSR pair of a sequence of node sets."""
    ptr = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum([len(h) for h in edges], out=ptr[1:])
    return ptr, np.fromiter(chain.from_iterable(edges), np.int64, ptr[-1])


def concat(pairs):
    """One CSR pair of the hyper-edges of the CSR pairs, in order."""
    sizes, nodes = [np.zeros(1, np.int64)], [np.zeros(0, np.int64)]
    for ptr, chunk in pairs:
        sizes.append(np.diff(ptr))
        nodes.append(chunk)
    return np.concatenate(sizes).cumsum(), np.concatenate(nodes)


class Split(NamedTuple):
    """Consecutive draws with the one-node hyper-edges kept out of the CSR
    pair: draw i is {single[i]} if single[i] >= 0; rows lists in increasing
    order the draws of two or more nodes, whose node sets are the CSR pair
    (ptr, nodes); every other draw is empty."""
    single: np.ndarray
    rows: np.ndarray
    ptr: np.ndarray
    nodes: np.ndarray

    def counts(self, n):
        """(number of one-node draws {v} for each node v < n, number of
        empty draws)."""
        one = self.single[self.single >= 0]
        return (np.bincount(one, minlength=n),
                self.single.size - one.size - self.rows.size)


def split(ptr, nodes):
    """The Split of the draws in a CSR pair; it shares `nodes` when every
    draw holds two or more."""
    sizes = np.diff(ptr)
    single = np.full(sizes.size, -1, dtype=np.int64)
    one = sizes == 1
    single[one] = nodes[ptr[:-1][one]]
    multi = sizes > 1
    rows = np.flatnonzero(multi)
    multi_ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(sizes[rows], out=multi_ptr[1:])
    if rows.size < sizes.size:
        nodes = nodes[np.repeat(multi, sizes)]
    return Split(single, rows, multi_ptr, nodes)


def expand(chunk):
    """The CSR pair of the draws of a Split, in draw order."""
    single, rows, ptr, nodes = chunk
    sizes = (single >= 0).astype(np.int64)
    sizes[rows] = np.diff(ptr)
    out_ptr = np.zeros(single.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=out_ptr[1:])
    out = np.repeat(single, sizes)
    out[np.repeat(out_ptr[rows] - ptr[:-1], np.diff(ptr))
        + np.arange(nodes.size)] = nodes
    return out_ptr, out


def _random_ordered_pair(n, rng):
    s = rng.randrange(n)
    t = rng.randrange(n - 1)
    if t >= s:
        t += 1
    return s, t


def _pair_chunks(g, walk, q, rng):
    """q pair draws as Split chunks of at most _CHUNK draws.  A chunk draws
    all its pairs from rng first; it then fills the run's row store for
    the sources of its linked pairs in numpy blocks (fill_dag_cache, a
    no-op on graphs too large to keep rows), and last walks each pair, in
    draw order.  A pair's draw is empty if t is unreachable from s or
    adjacent to it; otherwise it is walk(g, dist, sigma, t, rng) over
    bfs_dag's row from s, whose dist and sigma are exact for every node v
    with dist[v] <= dist[t].  bfs_dag runs once per linked pair.  The
    store is this call's own: each source is swept at most once per run,
    and the rows die with the run."""
    rows = {}
    for start in range(0, q, _CHUNK):
        pairs = [_random_ordered_pair(g.n, rng)
                 for _ in range(min(_CHUNK, q - start))]
        # t is surely unreachable from s if s has no out-arc or t no
        # in-arc; such a pair needs no BFS.
        adj, radj = g.adj, g.radj
        linked = [i for i, (s, t) in enumerate(pairs) if adj[s] and radj[t]]
        fill_dag_cache(g, [pairs[i][0] for i in linked], rows)
        edges = [()] * len(pairs)
        for i in linked:
            s, t = pairs[i]
            dist, sigma = bfs_dag(g, s, stop_at=t, rows=rows)
            if dist[t] > 1:
                edges[i] = walk(g, dist, sigma, t, rng)
        yield split(*pack(edges))


def _walk_bwc(g, dist, sigma, t, rng):
    """The internal nodes of a uniformly random shortest path to t in the
    shortest-path DAG of the row (dist, sigma), as a list from t's side;
    dist[t] must be at least 2."""
    # Walk backward from t, picking each predecessor u with probability
    # sigma(u)/sigma(v); exact uniformity over all shortest paths.
    # The predecessors are scanned in id order, as radj lists them.
    radj = g.radj
    internal = []
    v = t
    while dist[v] > 1:
        r = rng.randrange(sigma[v])
        dvm1 = dist[v] - 1
        for u in radj[v]:
            if dist[u] == dvm1:
                r -= sigma[u]
                if r < 0:
                    v = u
                    break
        internal.append(v)
    return internal


def _walk_coverage(g, dist, sigma, t, rng):
    """All internal nodes lying on any shortest path to t in the
    shortest-path DAG of the row dist (the ancestors of t, less the
    source), as a sorted list; dist[t] must be at least 2.  Neither sigma
    nor rng is read."""
    radj = g.radj
    seen = set()
    stack = [t]
    while stack:
        v = stack.pop()
        # A node at distance 1 has only the source before it.
        dvm1 = dist[v] - 1
        if dvm1:
            for u in radj[v]:
                if dist[u] == dvm1 and u not in seen:
                    seen.add(u)
                    stack.append(u)
    return sorted(seen)


_PAIR_WALKS = {"betweenness": _walk_bwc, "coverage": _walk_coverage}


def _walk_kpath(g, kappa, rng):
    """Random simple walk, as a frozenset: uniform start, then uniform
    unvisited neighbors, stopping after kappa edges or when stuck.  The
    start node is included."""
    adj = g.adj
    v = rng.randrange(g.n)
    visited = {v}
    for _ in range(kappa):
        options = [w for w in adj[v] if w not in visited]
        if not options:
            break
        v = options[rng.randrange(len(options))]
        visited.add(v)
    return frozenset(visited)


def _batch(done, cells, q):
    """Size of the next batch of q live-edge runs, when `done` runs reached
    `cells` cells in all: as many runs as hold about _CHUNK cells at the
    mean reach so far, but at least one, at most `done` and at most the
    q - done left.  So batches ramp 1, 1, 2, 4, ... until the reach caps
    them, and no single early run sets the size."""
    if done == 0:
        return 1
    return max(1, min(done, q - done, _CHUNK * done // cells))


def _rr_chunks(g, p, q, rng):
    """q RR sets as Split chunks, one per batch of _batch's size (nodes in
    increasing order within a set), drawn from one numpy generator that
    rng seeds.  An RR set is the reverse-reachable set of a uniform target:
    the nodes reaching it through edges that are independently live with
    probability p, target included."""
    n = g.n
    rcsr = g.rcsr()
    gen = np.random.default_rng(rng.getrandbits(64))
    done = cells = 0
    while done < q:
        b = _batch(done, cells, q)
        target = gen.integers(n, size=b)
        # The first level of every set at once: a set whose target has no
        # live in-arc is the target alone, and only the others go on,
        # renumbered in order.  A Graph has no self-loops, so every head
        # found here is new.
        run, node = np.divmod(
            _live_step(rcsr, np.arange(b, dtype=np.int64), target, p, gen), n)
        rows = _distinct(run)
        frontier = np.searchsorted(rows, run) * n + node
        starts = np.arange(rows.size) * n + target[rows]
        reached = np.insert(frontier, np.searchsorted(frontier, starts),
                            starts)
        samp, nodes = np.divmod(_live_keys(rcsr, reached, p, gen, frontier),
                                n)
        single = target.copy()
        single[rows] = -1
        ptr = np.searchsorted(samp, np.arange(rows.size + 1))
        done += b
        cells += b - rows.size + nodes.size
        yield Split(single, rows, ptr, nodes)


def _live_positions(total, p, gen):
    """Sorted positions of the live arcs among `total` arcs, each live
    independently with probability p.  Only the live arcs are drawn, as
    geometric gaps (skip sampling), in blocks sized from the expected count
    still to come; gaps past the last arc are drawn and discarded.  How much
    of gen this consumes depends only on (total, p) and the draws; p = 0
    and p = 1 draw nothing."""
    if p == 0.0 or total == 0:
        return np.zeros(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(total, dtype=np.int64)
    blocks, last = [], -1
    while last < total - 1:
        expect = p * (total - 1 - last)
        gaps = gen.geometric(p, int(expect + 3 * math.sqrt(expect)) + 16)
        # Below p of about 1e-300 a gap reads 2**63 - 1; capped, the sum
        # cannot wrap.
        pos = last + np.cumsum(np.minimum(gaps, total + 1))
        blocks.append(pos[pos < total])
        last = int(pos[-1])
    return np.concatenate(blocks)


def _live_step(csr, run, node, p, gen):
    """Sorted distinct keys run * n + head of the heads of the live arcs of
    csr = (indptr, indices) on n nodes out of the frontier cells
    (run[i], node[i]), given in increasing key order.  Each arc is flipped
    once, live with probability p, in frontier then arc order; only the
    live ones are drawn (_live_positions)."""
    indptr, indices = csr
    stops = indptr[node + 1]
    ends = np.cumsum(stops - indptr[node])
    live = _live_positions(int(ends[-1]), p, gen)
    owner = np.searchsorted(ends, live, side="right")
    # Arc j of frontier cell i is indices[stops[i] - ends[i] + j].
    heads = indices[live + (stops - ends)[owner]]
    return _distinct(np.sort(run[owner] * (indptr.size - 1) + heads))


def _live_keys(csr, reached, p, gen, frontier=None):
    """Sorted keys run * n + node of the nodes that a batch of live-edge
    runs reaches from the sorted keys `reached`, by one level-synchronous
    BFS over the arcs of csr (see _live_step, which draws only the live
    arcs of a level).  The BFS expands `frontier` first, a subset of
    `reached` that defaults to all of it.

    Over the out-CSR a run is an independent cascade from its start nodes;
    over the in-CSR, with one start node, it is an RR set."""
    n = csr[0].size - 1
    frontier = reached if frontier is None else frontier
    while frontier.size:
        keys = _live_step(csr, *np.divmod(frontier, n), p, gen)
        pos = np.searchsorted(reached, keys)
        fresh = reached[np.minimum(pos, reached.size - 1)] != keys
        frontier = keys[fresh]
        reached = np.insert(reached, pos[fresh], frontier)
    return reached


def dump_hyperedges(chunks, fh, labels=None):
    """Write one line per hyper-edge of the CSR pairs in chunks: its ids,
    or their labels, in increasing order and space-separated; an empty line
    is an empty set."""
    for ptr, nodes in chunks:
        ptr, nodes = ptr.tolist(), nodes.tolist()
        if labels is not None:
            nodes = [labels[v] for v in nodes]
        fh.writelines(" ".join(map(str, sorted(nodes[a:b]))) + "\n"
                      for a, b in zip(ptr, ptr[1:]))
