"""Sample-then-greedy centrality maximization.

Draw a pool of hyper-edges, then run lazy greedy maximum coverage over the
pool.  The covered fraction, scaled by the sampler's normalizer, estimates
the centrality of the selected set.
"""
from __future__ import annotations

import heapq
import math
import operator
import random
import sys
import time
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import samplers
from .errors import SizeError

# Largest pool build_pool draws, in hyper-edges; drawing 10^7 of them takes
# minutes.  The pool only counts its one-node and empty hyper-edges, in 8
# bytes per node; every other one costs 8 bytes of edge_ptr plus 16 bytes
# per node it holds (edge_nodes and node_edges).
_POOL_GUARD = 10 ** 7
# Most nodes build_pool stores in the hyper-edges of two or more nodes;
# an RR set at p = 0.3 on kron:14 holds about 750.  The pool keeps 16
# bytes per stored node, and building it peaks at about 24: the drawn
# chunks and their concatenation, then the concatenated nodes, the key of
# the index sort and the owner array it is built from.  So 10^8 nodes
# keep 1.6 GB and peak near 2.4 GB.
_NODE_GUARD = 10 ** 8


@dataclass(eq=False)
class HyperEdgePool:
    """A pool of sampled hyper-edges, as counts and read-only arrays.

    A one-node hyper-edge is covered exactly when its node is picked, so
    node v's one-node hyper-edges are only counted, in singles[v], and the
    empty ones in empties.  The hyper-edges of two or more nodes are two CSR
    pairs: hyper-edge i holds edge_nodes[edge_ptr[i]:edge_ptr[i + 1]], and
    node v lies in hyper-edges node_edges[node_ptr[v]:node_ptr[v + 1]], in
    increasing order.  Draw order is not kept.
    """
    edge_ptr: np.ndarray
    edge_nodes: np.ndarray
    node_ptr: np.ndarray
    node_edges: np.ndarray
    singles: np.ndarray
    empties: int
    n: int                      # node-id space of the source graph
    alpha: float                # normalizer of the sampler that built it

    @classmethod
    def from_edges(cls, edges, n, alpha_value, singles=None, empties=0):
        """Index a pool given as a CSR pair (edge_ptr, edge_nodes) of numpy
        arrays or as a sequence of node sets, plus singles[v] more
        hyper-edges {v} for each node v and `empties` more empty ones.
        ValueError if a node is not an integer in 0..n-1."""
        if (isinstance(edges, tuple) and len(edges) == 2
                and all(isinstance(a, np.ndarray) for a in edges)):
            ptr, nodes = edges
        else:
            try:
                ptr, nodes = samplers.pack(
                    [list(map(operator.index, h)) for h in edges])
            except TypeError:
                raise ValueError("node sets must hold integer ids") from None
        bad = nodes[(nodes < 0) | (nodes >= n)]
        if bad.size:
            raise ValueError(f"node {bad[0]} out of range")
        split = samplers.split(ptr, nodes)
        edge_ptr, edge_nodes = split.ptr, split.nodes
        counts, more = split.counts(n)
        if singles is not None:
            counts += singles
        empties += more
        # Sorting the distinct keys node * |pool| + edge groups the edges by
        # node, each group in increasing order.  The key is built and
        # sorted in place, so the index holds at most three arrays the
        # size of edge_nodes at once.
        size = max(edge_ptr.size - 1, 1)
        node_edges = edge_nodes * size
        node_edges += np.repeat(np.arange(edge_ptr.size - 1),
                                np.diff(edge_ptr))
        node_edges.sort()
        node_edges %= size
        node_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_nodes, minlength=n), out=node_ptr[1:])
        arrays = (edge_ptr, edge_nodes, node_ptr, node_edges, counts)
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays, empties, n, alpha_value)

    def __len__(self):
        return self.edge_ptr.size - 1 + int(self.singles.sum()) + self.empties

    @property
    def edges(self):
        """Each hyper-edge as an array of its nodes: the CSR ones in draw
        order, then the one-node ones by node, then the empty ones (derived;
        the greedy reads the arrays)."""
        ones = np.repeat(np.arange(self.n), self.singles)
        nodes = np.concatenate((self.edge_nodes, ones))
        ptr = np.concatenate((self.edge_ptr,
                              self.edge_ptr[-1] + np.arange(1, ones.size + 1),
                              np.full(self.empties, nodes.size))).tolist()
        return [nodes[a:b] for a, b in zip(ptr, ptr[1:])]

    @property
    def incidence(self):
        """node -> array of the hyper-edges that hold it, numbered as in
        edges, for every node in at least one (derived; the greedy reads the
        arrays)."""
        ptr, edges = self.node_ptr.tolist(), self.node_edges
        first = self.edge_ptr.size - 1 + np.cumsum(self.singles) - self.singles
        return {v: np.concatenate((edges[a:b],
                                   np.arange(first[v], first[v] + c)))
                for v, (a, b, c) in enumerate(zip(ptr, ptr[1:],
                                                  self.singles.tolist()))
                if a < b or c}


@dataclass
class RunResult:
    """Outcome of one greedy maximization run."""
    selected: list                    # pick order, dense ids
    marginal_degrees: list            # newly covered edges per round
    estimated_centrality: list        # alpha * covered/|pool| per prefix
    sample_count: int
    wall_time: float = 0.0
    alpha: float = 0.0

    def scaled_centrality(self):
        """Per-round estimate divided by alpha (in [0,1])."""
        return [c / self.alpha for c in self.estimated_centrality]


def sample_budget(n, k, eps, ell=1, maxk_scaled=1.0):
    """Pool size guaranteeing uniform concentration of the estimates:
    ceil(3(ell+k) ln(n) / (eps^2 * maxk_scaled)).

    maxk_scaled is the (estimated) optimum divided by alpha; the default 1
    is the optimistic dense-optimum assumption.
    """
    check_budget_n(n)
    check_k(k, n)
    check_theory_params(ell, maxk_scaled)
    if ell > sys.float_info.max:
        raise SizeError(f"ell={ell} is past the float range of the budget")
    return pool_budget(3.0 * (ell + k) * math.log(n), eps, maxk_scaled)


def experiment_budget(n, k, eps):
    """The empirical preset: ceil(k ln(n) / eps^2)."""
    check_budget_n(n)
    check_k(k, n)
    return pool_budget(k * math.log(n), eps)


def equal_budget(n, eps):
    """The equal-footing comparison preset: ceil(2 ln(2 n^3) / eps^2)."""
    check_budget_n(n)
    return pool_budget(2.0 * math.log(2.0 * n ** 3), eps)


def check_budget_n(n):
    """Refuse a graph of fewer than two nodes, whose ln(n) is not positive."""
    if n < 2:
        raise ValueError(f"a pool budget needs n >= 2 nodes, got n={n}")


def check_theory_params(ell, maxk_scaled):
    """Refuse an ell below 1 or a maxk_scaled outside (0, 1] (ValueError)."""
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    if not 0.0 < maxk_scaled <= 1.0:
        raise ValueError(f"maxk_scaled must be in (0, 1], got {maxk_scaled}")


def check_eps(eps):
    """Refuse an eps that is not a finite positive number (ValueError)."""
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")


def pool_budget(count, eps, scale=1.0):
    """ceil(count / (eps^2 * scale)), the form of every budget preset.
    ValueError unless eps is finite and positive.  SizeError past
    _POOL_GUARD, judged on the float before rounding, so that a budget
    past the float range, or an eps whose square underflows to 0, is
    refused as any oversized pool is."""
    check_eps(eps)
    denominator = eps * eps * scale
    q = count / denominator if denominator else math.inf
    if q > _POOL_GUARD:
        raise SizeError(f"pool size {q:.4g} exceeds the guard {_POOL_GUARD}")
    return math.ceil(q)


def check_count(count, name):
    """Refuse a count of draws, the one named `name`, below 1 (ValueError)
    or past _POOL_GUARD (SizeError), before anything is drawn."""
    if count < 1:
        raise ValueError(f"{name} must be positive")
    if count > _POOL_GUARD:
        raise SizeError(f"{name}={count} exceeds the guard {_POOL_GUARD}")


def check_k(k, n):
    """Refuse a pick count outside 1..n (ValueError)."""
    if k < 1:
        raise ValueError(f"k must be positive, got k={k}")
    if k > n:
        raise ValueError(f"k={k} exceeds node count {n}")


def build_pool(g, spec, q, rng):
    """The pool of q independent hyper-edges drawn in order from rng.  The
    one-node and empty ones are counted chunk by chunk, as they are drawn;
    SizeError once the others hold more than _NODE_GUARD nodes, before the
    next chunk is drawn."""
    check_count(q, "pool size")
    singles = np.zeros(g.n, dtype=np.int64)
    empties = stored = 0
    multi = []
    for chunk in samplers.split_chunks(g, spec, q, rng):
        stored += chunk.nodes.size
        if stored > _NODE_GUARD:
            raise SizeError(f"the pool's hyper-edges hold over {_NODE_GUARD}"
                            " nodes, which exceeds the guard")
        ones, none = chunk.counts(g.n)
        singles += ones
        empties += none
        multi.append((chunk.ptr, chunk.nodes))
    edges = samplers.concat(multi)
    del multi
    return HyperEdgePool.from_edges(edges, g.n, samplers.alpha(spec, g),
                                    singles, empties)


def greedy_cover(pool, k):
    """Pick k nodes by repeated max alive-degree (lazy evaluation), killing
    covered edges.  Ties break to the smaller id; once degrees hit zero the
    remaining picks are the smallest unused ids."""
    check_k(k, pool.n)
    ptr, node_edges, singles = pool.node_ptr, pool.node_edges, pool.singles
    alive = np.ones(pool.edge_ptr.size - 1, dtype=bool)
    selected, marginals = [], []
    # (-degree, node), one entry per unpicked node of positive degree;
    # stale entries are re-scored on pop, and dropped once at zero.  A
    # node's degree is its one-node hyper-edges plus its alive CSR ones.
    degree = np.diff(ptr) + singles
    nodes = np.flatnonzero(degree)
    heap = list(zip((-degree[nodes]).tolist(), nodes.tolist()))
    heapq.heapify(heap)
    while heap and len(selected) < k:
        negd, v = heapq.heappop(heap)
        hit = node_edges[ptr[v]:ptr[v + 1]]
        gained = int(singles[v] + np.count_nonzero(alive[hit]))
        if gained != -negd:
            if gained:
                heapq.heappush(heap, (-gained, v))
            continue
        alive[hit] = False
        selected.append(v)
        marginals.append(gained)
    missing = k - len(selected)
    if missing:
        unused = np.ones(pool.n, dtype=bool)
        unused[selected] = False
        selected += np.flatnonzero(unused)[:missing].tolist()
        marginals += [0] * missing
    total = len(pool)
    estimates = [pool.alpha * covered / total if total else 0.0
                 for covered in accumulate(marginals)]
    return RunResult(selected, marginals, estimates, total, alpha=pool.alpha)


def hedge(g, spec, k, eps, ell=1, maxk_scaled=1.0, rng=None, budget=None):
    """Full pipeline: budget (halved eps unless given explicitly), pool,
    greedy.  Returns a RunResult with wall time.  A k, eps, ell or
    maxk_scaled out of range is refused before anything is drawn, whatever
    the budget."""
    check_k(k, g.n)
    check_eps(eps)
    check_theory_params(ell, maxk_scaled)
    rng = rng if rng is not None else random.Random(0)
    if budget is None:
        budget = sample_budget(g.n, k, eps / 2.0, ell, maxk_scaled)
    t0 = time.perf_counter()
    pool = build_pool(g, spec, budget, rng)
    result = greedy_cover(pool, k)
    result.wall_time = time.perf_counter() - t0
    return result
