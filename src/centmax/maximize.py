"""Sample-then-greedy centrality maximization.

Draw a pool of hyper-edges, then run lazy greedy maximum coverage over the
pool.  The covered fraction, scaled by the sampler's normalizer, estimates
the centrality of the selected set.
"""
from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass, field

from . import samplers
from .errors import SizeError

# Largest pool build_pool draws: 10^7 frozensets already take gigabytes.
_POOL_GUARD = 10 ** 7


@dataclass
class HyperEdgePool:
    """A pool of sampled hyper-edges with a node -> edge-index incidence map."""
    edges: list                 # list of frozensets
    incidence: dict             # node -> list of edge indices
    n: int                      # node-id space of the source graph
    alpha: float                # normalizer of the sampler that built it

    @classmethod
    def from_edges(cls, edges, n, alpha_value):
        incidence = {}
        for i, h in enumerate(edges):
            for v in h:
                incidence.setdefault(v, []).append(i)
        return cls(list(edges), incidence, n, alpha_value)

    def __len__(self):
        return len(self.edges)


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
    if n < 2:
        raise ValueError("need n >= 2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if k < 1 or ell < 1:
        raise ValueError("k and ell must be positive integers")
    if not 0.0 < maxk_scaled <= 1.0:
        raise ValueError("maxk_scaled must be in (0, 1]")
    return math.ceil(3.0 * (ell + k) * math.log(n) / (eps * eps * maxk_scaled))


def experiment_budget(n, k, eps):
    """The empirical preset: ceil(k ln(n) / eps^2)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return math.ceil(k * math.log(n) / (eps * eps))


def equal_budget(n, eps):
    """The equal-footing comparison preset: ceil(2 ln(2 n^3) / eps^2)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return math.ceil(2.0 * math.log(2.0 * n ** 3) / (eps * eps))


def check_pool_size(q):
    """Refuse a pool size below 1 (ValueError) or above the guard
    (SizeError) before anything is drawn."""
    if q < 1:
        raise ValueError("pool size must be positive")
    if q > _POOL_GUARD:
        raise SizeError(f"pool size {q} exceeds the guard {_POOL_GUARD}")


def build_pool(g, spec, q, rng):
    """q independent hyper-edges, drawn in order from rng."""
    check_pool_size(q)
    edges = samplers.sample_many(g, spec, q, rng)
    return HyperEdgePool.from_edges(edges, g.n, samplers.alpha(spec, g))


def greedy_cover(pool, k):
    """Pick k nodes by repeated max alive-degree (lazy evaluation), killing
    covered edges.  Ties break to the smaller id; once degrees hit zero the
    remaining picks are the smallest unused ids."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > pool.n:
        raise ValueError(f"k={k} exceeds node count {pool.n}")
    alive = [True] * len(pool.edges)
    covered = 0
    selected = []
    chosen = set()
    marginals = []
    estimates = []
    # (-degree, node); stale entries are re-scored on pop.
    heap = [(-len(idxs), v) for v, idxs in pool.incidence.items()]
    heapq.heapify(heap)
    total = len(pool.edges)
    for _ in range(k):
        pick = None
        while heap:
            negd, v = heapq.heappop(heap)
            if v in chosen:
                continue
            if negd == 0:
                break  # max degree is zero; fall through to id-order picks
            fresh = sum(1 for i in pool.incidence[v] if alive[i])
            if fresh != -negd:
                heapq.heappush(heap, (-fresh, v))
                continue
            pick = v
            break
        if pick is None:
            # All degrees zero: take the smallest unused id.
            pick = next(v for v in range(pool.n) if v not in chosen)
        gained = 0
        for i in pool.incidence.get(pick, ()):
            if alive[i]:
                alive[i] = False
                gained += 1
        covered += gained
        chosen.add(pick)
        selected.append(pick)
        marginals.append(gained)
        estimates.append(pool.alpha * covered / total if total else 0.0)
    return RunResult(selected, marginals, estimates, total, alpha=pool.alpha)


def estimate_centrality(pool, nodes, alpha_value=None):
    """alpha * (fraction of pool edges hit by the node set)."""
    if not len(pool.edges):
        raise ValueError("empty pool")
    a = pool.alpha if alpha_value is None else alpha_value
    nodes = set(nodes)
    hit = set()
    for v in nodes:
        hit.update(pool.incidence.get(v, ()))
    return a * len(hit) / len(pool.edges)


def hedge(g, spec, k, eps, ell=1, maxk_scaled=1.0, rng=None, budget=None):
    """Full pipeline: budget (halved eps unless given explicitly), pool,
    greedy.  Returns a RunResult with wall time."""
    rng = rng if rng is not None else random.Random(0)
    if budget is None:
        budget = sample_budget(g.n, k, eps / 2.0, ell, maxk_scaled)
    t0 = time.perf_counter()
    pool = build_pool(g, spec, budget, rng)
    result = greedy_cover(pool, k)
    result.wall_time = time.perf_counter() - t0
    return result
