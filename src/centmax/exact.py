"""Exact centrality oracles and exhaustive greedy/brute-force baselines.

All pair sums use the ordered-pair convention and count only internal path
nodes.  The betweenness and coverage oracles read one numpy BFS sweep over
blocks of graph.block_sources(n) sources: the DAG levels of
graph.bfs_levels, the level loop that the pair samplers' BFS runs too,
with float64 path counts sigma (held as int32 where that is exact) and
set-avoiding counts tau.  set_bwc,
exact_coverage and brute_force_max refuse counts above 2^53 (SizeError),
so theirs are exact integers, and set_bwc sums the correctly rounded
per-pair ratios with math.fsum, so results do not depend on accumulation
order.  ex_greedy holds the BFS blocks across its rounds and narrows them
each round to the DAG arcs that a path avoiding the chosen set can still
use, so a round skips the pairs earlier picks cover.
"""
from __future__ import annotations

import math
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .errors import SizeError
from .graph import (all_triangles, bfs_levels, block_sources,
                    counts_fit_int32, _check_id)
from .maximize import HyperEdgePool, check_k, greedy_cover
from .samplers import check_kappa

_BRUTE_FORCE_GUARD = 10 ** 7

# ex_greedy holds the BFS blocks (path counts and DAG arcs) of its graph
# up to this many bytes, so every round reuses them; blocks past it are
# swept again each round.  ran:1000 takes about 10 MB before the first
# pick, 3.8 MB of it int32 path counts; each round narrows the held arcs,
# so the held bytes only shrink.
_HELD_BYTES = 2 ** 25


def brandes(g):
    """Exact per-node betweenness (ordered pairs): the marginal gains over
    the empty set.  Summing over every source without halving gives the
    ordered-pair convention for both directed and undirected graphs."""
    return adaptive_bwc_all(g, ())


def _node_set(g, nodes):
    """The distinct ids of `nodes` as ints; ValueError if one is not an
    integer in 0..n-1."""
    return frozenset(_check_id(g, v, "node") for v in nodes)


def set_bwc(g, nodes, blocks=None):
    """Exact betweenness of a node set: ordered pairs (s,t), fraction of
    shortest paths with an internal node in the set.  `blocks` holds the
    BFS blocks of the first sources, as in adaptive_bwc_all."""
    return math.fsum(chain.from_iterable(_hit_fractions(g, nodes, blocks)))


def exact_coverage(g, nodes):
    """Ordered pairs (s,t) with some shortest path internally hitting the
    set: the pairs whose avoiding paths are fewer than all their paths."""
    return float(sum(map(len, _hit_fractions(g, nodes))))


def _hit_fractions(g, nodes, blocks=None):
    """Per source block, the list of 1 - tau/sigma over the reached cells
    with tau < sigma: the fraction of the pair's shortest paths that have
    an internal node in `nodes`.  SizeError if a path count exceeds 2^53."""
    blocked = list(_node_set(g, nodes))
    held = blocks or ()
    # _check_exact recounts paths over every arc, so no held block may
    # have been narrowed.
    _check_held(held, frozenset())
    if not blocked:
        return
    unblocked = np.ones(g.n)
    unblocked[blocked] = 0.0
    for block in _blocks(g, held):
        _check_exact(block)
        sigma = block.sigma
        tau, _ = _avoiding(block, np.tile(unblocked, len(block.origin)))
        hit = tau < sigma
        yield (1.0 - tau[hit] / sigma[hit]).tolist()


def _check_exact(block):
    """SizeError unless every path count of the block is at most 2^53, so
    that float64 holds it, and every avoidance count below it, exactly.  A
    float count of exactly 2^53 may be a rounded 2^53 + 1, so such a block
    is counted again in int64."""
    top = block.sigma.max()
    if top == 2 ** 53:
        counts = np.zeros(block.sigma.size, dtype=np.int64)
        counts[block.origin] = 1
        for parent, child in block.levels:
            np.add.at(counts, child, counts[parent])
        top = counts.max()
    if top > 2 ** 53:
        raise SizeError("shortest-path counts exceed 2^53")


def adaptive_bwc_all(g, nodes, blocks=None):
    """Marginal betweenness of every node on top of `nodes`, in one
    Brandes-style sweep per source (O(n(n+m)) total).

    For each source, tau counts paths avoiding the set; the backward pass
    accumulates, for each candidate u, the fraction of pairs whose avoiding
    paths route through u.  Sources go through the sweep in blocks of
    graph.block_sources(n), as flat (source, node) cells; path counts are
    float64, and a count that overflows raises SizeError.

    `blocks` is a list of the BFS blocks of the first sources, as
    `_held_blocks` returns it; the sources past them are swept afresh.
    Without it every block is swept and dropped in turn.  Each held block
    is replaced in the list by its narrowing for `nodes`: only the arcs
    that a path avoiding `nodes` still uses.  That is valid only while the
    set grows, as in ex_greedy, so ValueError if a held block was narrowed
    for a set that `nodes` does not contain.
    """
    nodes = _node_set(g, nodes)
    held = [] if blocks is None else blocks
    _check_held(held, nodes)
    unblocked = np.ones(g.n)
    unblocked[list(nodes)] = 0.0
    marg = np.zeros(g.n)
    for i, block in enumerate(_blocks(g, held)):
        tau = block.sigma
        if nodes:
            tau, levels = _avoiding(block, np.tile(unblocked,
                                                   len(block.origin)))
            block = block._replace(levels=levels, narrowed=nodes)
            if i < len(held):
                held[i] = block
        marg += _dependency(block, tau)
    return (marg * unblocked).tolist()


def _check_held(held, nodes):
    """ValueError unless every held block was narrowed for a subset of
    `nodes`: an arc dropped for a set may carry paths avoiding a smaller
    one."""
    for block in held:
        if not block.narrowed <= nodes:
            raise ValueError(f"held blocks were narrowed for the set "
                             f"{sorted(block.narrowed)}; only "
                             f"adaptive_bwc_all for a superset may read "
                             f"them")


def _blocks(g, held=()):
    """The source blocks of g in source order: the `held` ones, then a
    fresh `_bfs_block` for each block of sources past them."""
    yield from held
    n = g.n
    step = block_sources(n)
    for lo in range(sum(len(b.origin) for b in held), n, step):
        yield _bfs_block(g, np.arange(lo, min(lo + step, n)))


def _held_blocks(g):
    """The leading source blocks of g whose arrays fit in _HELD_BYTES.
    Their cells are stored as int16 where they fit, as int32 otherwise,
    and their path counts as int32 where the block's largest count is
    below 2^31 (graph.counts_fit_int32, the row stores' test), as float64
    otherwise: either way exact, and read as float64."""
    held, total = [], 0
    for block in _blocks(g):
        cell = np.int16 if block.sigma.size <= 2 ** 15 else np.int32
        sigma = block.sigma
        if counts_fit_int32(sigma):
            sigma = sigma.astype(np.int32)
        block = _Block(block.origin.astype(cell), sigma,
                       [(p.astype(cell), c.astype(cell))
                        for p, c in block.levels])
        total += block.nbytes()
        if total > _HELD_BYTES:
            break
        held.append(block)
    return held


class _Block(NamedTuple):
    """Pass 1 of the sweep for a block of sources.  Cells are (source,
    node) pairs numbered i * n + node.  `origin` holds the source cells,
    `sigma` the shortest-path count of every cell (0 if unreached), as
    float64 or, in a held block whose counts fit, int32, and levels[i]
    the DAG arcs (parent cells, child cells) into distance i + 1.  A
    block narrowed for the set `narrowed` keeps only the arcs that a
    shortest path avoiding it can use (see _avoiding)."""
    origin: np.ndarray
    sigma: np.ndarray
    levels: list
    narrowed: frozenset = frozenset()

    def nbytes(self):
        return (self.origin.nbytes + self.sigma.nbytes
                + sum(p.nbytes + c.nbytes for p, c in self.levels))


def _bfs_block(g, sources):
    """The _Block of bfs_levels over every source in `sources`, with
    float64 path counts summed level by level."""
    origin = np.arange(len(sources)) * g.n + sources
    sigma = np.zeros(len(sources) * g.n)
    sigma[origin] = 1.0
    levels = list(bfs_levels(g, sources))
    # A path count that overflows to inf raises SizeError below.
    with np.errstate(over="ignore"):
        for parent, child in levels:
            np.add.at(sigma, child, sigma[parent])
    if not np.isfinite(sigma).all():
        raise SizeError("shortest-path counts overflow float64")
    return _Block(origin, sigma, levels)


def _dependency(block, tau):
    """Pass 3 of the sweep: the sum over the block's sources of
    tau(u) * delta(u) per node u, where tau (pass 2) counts the
    source-to-u shortest paths whose internal nodes are open and delta(u)
    sums, over targets t beyond u, the open continuations from u to t
    divided by sigma(t).  Endpoints are exempt from the set.

    The block must be narrowed for the set (see _avoiding): then no arc
    past the first level leaves a blocked cell, so a blocked child's
    delta is 0 and it adds only itself as a target."""
    origin, sigma = block.origin, block.sigma
    # 1 / sigma is read only at child cells, all of them reached.  The
    # dtype matters: on int32 counts np.reciprocal divides as integers.
    with np.errstate(divide="ignore"):
        inv = np.reciprocal(sigma, dtype=np.float64)
    delta = np.zeros(sigma.size)
    for parent, child in reversed(block.levels):
        child = child.astype(np.intp, copy=False)
        contrib = inv[child] + delta[child]
        np.add.at(delta, parent.astype(np.intp, copy=False), contrib)
    dep = tau * delta
    dep[origin] = 0.0
    return dep.reshape(len(origin), -1).sum(axis=0)


def _avoiding(block, cell_open):
    """Pass 2 of the sweep: per cell, tau, the count of the source-to-node
    shortest paths whose internal nodes are open (`cell_open` 1.0, blocked
    0.0).  A blocked parent passes nothing on, except the source itself.

    Also returns the levels narrowed to the arcs that pass something on:
    those out of the source or out of an open cell with tau > 0, up to the
    first level that keeps none.  As the set grows tau can only fall, so a
    dropped arc passes nothing on for any larger set either; it changes
    delta only at cells where tau * delta is 0 or that are blocked."""
    origin, sigma = block.origin, block.sigma
    tau = np.zeros(sigma.size)
    tau[origin] = 1.0
    levels = []
    for i, (parent, child) in enumerate(block.levels):
        # numpy casts an index array that is not intp, as the int16 cells
        # of a held level are, on every gather: cast once instead.
        cells = parent.astype(np.intp, copy=False)
        weight = tau[cells] if i == 0 else tau[cells] * cell_open[cells]
        live = (weight > 0).nonzero()[0]
        if not live.size:
            break
        if live.size < weight.size:
            parent, child, weight = parent[live], child[live], weight[live]
        np.add.at(tau, child.astype(np.intp, copy=False), weight)
        levels.append((parent, child))
    return tau, levels


def ex_greedy(g, k):
    """Exhaustive greedy: k rounds of exact best-marginal picks (ties to the
    smaller id).  Returns (selected, per-round exact set betweenness).
    The BFS pass runs once: every round reuses the blocks held within
    _HELD_BYTES, which adaptive_bwc_all narrows for the growing set."""
    check_k(k, g.n)
    held = _held_blocks(g)
    chosen = []
    scores = []
    total = 0.0
    for _ in range(k):
        marg = adaptive_bwc_all(g, chosen, held)
        best = None
        for v in range(g.n):
            if v in chosen:
                continue
            if best is None or marg[v] > marg[best] + 1e-12:
                best = v
        chosen.append(best)
        total += marg[best]
        scores.append(total)
    return chosen, scores


def brute_force_max(g, k):
    """Exact optimum over all size-k subsets.  Guarded: refuses above
    10^7 candidate subsets.  As in ex_greedy, every subset reuses the BFS
    blocks held within _HELD_BYTES."""
    check_k(k, g.n)
    if math.comb(g.n, k) > _BRUTE_FORCE_GUARD:
        raise SizeError(f"C({g.n},{k}) subsets exceed the enumeration guard")
    held = _held_blocks(g)
    best_set, best_val = None, -1.0
    for subset in combinations(range(g.n), k):
        val = set_bwc(g, subset, held)
        if val > best_val:
            best_set, best_val = set(subset), val
    return best_set, best_val


def exact_kpath(g, nodes, kappa):
    """Exact expected number of start nodes whose random simple walk of
    length kappa touches the set.  Exponential in kappa; small graphs only."""
    check_kappa(kappa)
    hit = _node_set(g, nodes)
    if g.n > 12:
        raise SizeError("exact walk enumeration is limited to n <= 12")
    indptr, indices = g.csr()

    def walk_prob(v, visited, steps):
        # Probability the remaining walk hits the set, given it has not yet.
        if v in hit:
            return 1.0
        if steps == 0:
            return 0.0
        options = [w for w in indices[indptr[v]:indptr[v + 1]].tolist()
                   if w not in visited]
        if not options:
            return 0.0
        share = 1.0 / len(options)
        return share * sum(walk_prob(w, visited | {w}, steps - 1)
                           for w in options)

    return math.fsum(walk_prob(s, {s}, kappa) for s in range(g.n))


def triangle_greedy(g, k):
    """Greedy cover over triangles: each round picks the node incident to
    the most not-yet-covered triangles (ties to the smaller id); min(k, n)
    picks."""
    k = min(k, g.n)
    if k < 1:
        return []
    pool = HyperEdgePool.from_edges(all_triangles(g), g.n, 1.0)
    return greedy_cover(pool, k).selected
