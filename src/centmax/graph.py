"""Immutable sparse graphs, edge-list I/O, BFS shortest-path DAGs, and
connectivity primitives.

Node ids are dense integers 0..n-1 after ingestion; the original labels are
kept on the Graph for output translation.  Graphs are simple: self-loops and
parallel edges are dropped at construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParseError

INF = math.inf

# Per-source BFS results are cached on the graph below this size; samplers
# draw many hyper-edges from the same small graph.
_CACHE_MAX_N = 2048


class Graph:
    """Simple graph over dense integer ids with sorted adjacency lists."""

    __slots__ = ("n", "directed", "adj", "radj", "labels", "meta",
                 "_csr", "_rcsr", "_dag_cache")

    def __init__(self, n, edges, directed=False, labels=None, meta=None):
        self.n = n
        self.directed = directed
        self.labels = list(labels) if labels is not None else list(range(n))
        self.meta = dict(meta) if meta else {}
        out = [set() for _ in range(n)]
        rin = [set() for _ in range(n)] if directed else out
        for u, v in edges:
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            out[u].add(v)
            rin[v].add(u)
            if not directed:
                out[v].add(u)
        self.adj = [sorted(s) for s in out]
        self.radj = self.adj if not directed else [sorted(s) for s in rin]
        self._csr = self._rcsr = None
        self._dag_cache = {}

    @property
    def m(self):
        """Edge count: directed arcs, or undirected edges counted once."""
        total = sum(len(a) for a in self.adj)
        return total if self.directed else total // 2

    def degree(self, v):
        return len(self.adj[v])

    def edges(self):
        """Iterate edges as (u, v); u < v for undirected graphs."""
        for u in range(self.n):
            for v in self.adj[u]:
                if self.directed or u < v:
                    yield u, v

    def csr(self):
        """(indptr, indices) arrays for the out-adjacency."""
        if self._csr is None:
            self._csr = _build_csr(self.adj)
        return self._csr

    def rcsr(self):
        """(indptr, indices) arrays for the in-adjacency."""
        if not self.directed:
            return self.csr()
        if self._rcsr is None:
            self._rcsr = _build_csr(self.radj)
        return self._rcsr

    def weak_neighbors(self, v):
        """Neighbors ignoring direction (deduplicated, sorted)."""
        if not self.directed:
            return self.adj[v]
        return sorted(set(self.adj[v]) | set(self.radj[v]))


def _build_csr(adj):
    indptr = np.zeros(len(adj) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adj), np.int64, len(adj)), out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(adj), np.int64, int(indptr[-1]))
    return indptr, indices


@dataclass
class ShortestPathDAG:
    """Per-source BFS result: hop distances, exact path counts, and the
    nodes in BFS order."""
    source: int
    dist: list            # hop distance, math.inf if unreachable
    sigma: list           # shortest-path counts (Python ints, never overflow)
    order: list           # reached nodes in nondecreasing distance


def bfs_dag(g, s):
    """Level-synchronous BFS shortest-path DAG from s along out-edges.

    Cached on the graph for small n; treat the result as immutable.
    """
    if not (0 <= s < g.n):
        raise ValueError(f"source {s} out of range for n={g.n}")
    if g.n <= _CACHE_MAX_N and s in g._dag_cache:
        return g._dag_cache[s]
    adj = g.adj
    dist = [INF] * g.n
    sigma = [0] * g.n
    dist[s] = 0
    sigma[s] = 1
    order = [s]
    frontier = [s]
    level = 0
    while frontier:
        level += 1
        fresh = []
        for v in frontier:
            sv = sigma[v]
            for w in adj[v]:
                dw = dist[w]
                if dw is INF:
                    dist[w] = level
                    sigma[w] = sv
                    fresh.append(w)
                elif dw == level:
                    sigma[w] += sv
        order += fresh
        frontier = fresh
    dag = ShortestPathDAG(s, dist, sigma, order)
    if g.n <= _CACHE_MAX_N:
        g._dag_cache[s] = dag
    return dag


def bfs_dist_sigma(g, s, stop_at=None):
    """Level-synchronous numpy BFS returning (dist, sigma) arrays.

    dist is int64 with -1 for unreachable.  sigma is int64; if counts risk
    overflowing, falls back to the exact big-int DAG.  If stop_at is given,
    levels beyond dist[stop_at] are not expanded (sigma is then only valid
    for nodes at distance <= dist[stop_at]).
    """
    indptr, indices = g.csr()
    n = g.n
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.int64)
    dist[s] = 0
    sigma[s] = 1
    frontier = np.array([s], dtype=np.int64)
    level = 0
    limit = (2 ** 62) // max(n, 2)
    while frontier.size:
        if stop_at is not None and dist[stop_at] == level:
            break
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        flat = np.repeat(indptr[frontier], counts) + _ranges(counts)
        nbrs = indices[flat]
        src = np.repeat(frontier, counts)
        fresh = dist[nbrs] == -1
        if fresh.any():
            dist[nbrs[fresh]] = level + 1
        sel = dist[nbrs] == level + 1
        if int(sigma[frontier].max()) > limit:
            dag = bfs_dag(g, s)
            d = np.array([-1 if x is INF else int(x) for x in dag.dist],
                         dtype=np.int64)
            return d, dag.sigma
        np.add.at(sigma, nbrs[sel], sigma[src[sel]])
        frontier = np.unique(nbrs[fresh])
        level += 1
    return dist, sigma


def _ranges(counts):
    """Concatenated arange(c) for each c in counts, as one flat array."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


@dataclass
class TemporalEdgeList:
    """Edges with integer timestamps, sorted by time (stable)."""
    records: list  # (u, v, t) with original labels

    def __len__(self):
        return len(self.records)

    def snapshot_edges(self, when, mode="cumulative"):
        """Edge set at time `when`.

        cumulative: every edge with t <= when (dedup).
        exact:      edges timestamped exactly `when` (dump-per-snapshot data).
        """
        if mode == "cumulative":
            pairs = [(u, v) for u, v, t in self.records if t <= when]
        elif mode == "exact":
            pairs = [(u, v) for u, v, t in self.records if t == when]
        else:
            raise ValueError(f"unknown snapshot mode {mode!r}")
        seen = set()
        out = []
        for u, v in pairs:
            key = (u, v)
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out


def _parse_int(token, path, lineno):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: bad integer token {token!r}") from None


def load_edge_list(path, directed=False):
    """Read "u v" lines ('#' comments skipped), remap ids densely, simplify."""
    raw = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) < 2:
                raise ParseError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            u = _parse_int(tokens[0], path, lineno)
            v = _parse_int(tokens[1], path, lineno)
            raw.append((u, v))
    return graph_from_labeled_edges(raw, directed=directed)


def graph_from_labeled_edges(raw, directed=False, extra_nodes=()):
    """Build a Graph from arbitrarily-labeled edges, remapping densely."""
    labels = sorted({x for e in raw for x in e} | set(extra_nodes))
    index = {lab: i for i, lab in enumerate(labels)}
    edges = [(index[u], index[v]) for u, v in raw]
    return Graph(len(labels), edges, directed=directed, labels=labels)


def load_temporal_edge_list(path):
    """Read "u v t" lines; returns records sorted by t (stable)."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) < 3:
                raise ParseError(f"{path}:{lineno}: expected 'u v t', got {line!r}")
            u = _parse_int(tokens[0], path, lineno)
            v = _parse_int(tokens[1], path, lineno)
            t = _parse_int(tokens[2], path, lineno)
            records.append((u, v, t))
    records.sort(key=lambda r: r[2])
    return TemporalEdgeList(records)


def write_edge_list(g, path, header=None):
    """Write the graph as "u v" lines using original labels."""
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for u, v in g.edges():
            fh.write(f"{g.labels[u]} {g.labels[v]}\n")


def all_triangles(g):
    """All triangles as (a, b, c) with a < b < c, direction ignored."""
    out = []
    for u in range(g.n):
        nu = [w for w in g.weak_neighbors(u) if w > u]
        nu_set = set(nu)
        for v in nu:
            for w in g.weak_neighbors(v):
                if w > v and w in nu_set:
                    out.append((u, v, w))
    return out
