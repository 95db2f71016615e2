import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import strategies as st

from centmax import graph
from centmax.errors import ParseError
from centmax.graph import Graph, all_triangles
from centmax.samplers import _live_positions


def reference_adjacency(n, edges, directed=False):
    """Set-based (adj, radj) of a simple graph: sorted lists, self-loops
    and repeats dropped; ValueError names the first other edge outside
    0..n-1."""
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
    adj = [sorted(s) for s in out]
    return adj, [sorted(s) for s in rin] if directed else adj


def reference_rows(path, form="u v"):
    """Line-loop reader: the first len(form.split()) int() tokens of each
    line that is neither blank nor a '#' comment; ParseError names the
    first bad line."""
    width = len(form.split())
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) < width:
                raise ParseError(f"{path}:{lineno}: expected {form!r}, "
                                 f"got {line!r}")
            row = []
            for tok in tokens[:width]:
                try:
                    row.append(int(tok))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad integer token "
                                     f"{tok!r}") from None
            rows.append(tuple(row))
    return rows


def reference_relabel(rows, directed=False):
    """(labels, adj, radj) of labeled (u, v) rows by a dict relabel: labels
    sorted, ids dense in label order."""
    labels = sorted({x for row in rows for x in row})
    index = {lab: i for i, lab in enumerate(labels)}
    edges = [(index[u], index[v]) for u, v in rows]
    return (labels, *reference_adjacency(len(labels), edges, directed))


def reference_load(path, directed=False):
    """reference_relabel of an edge-list file read by the line loop."""
    return reference_relabel(reference_rows(path), directed)


def path_graph(n, directed=False):
    return Graph(n, [(i, i + 1) for i in range(n - 1)], directed=directed)


def ladder_graph(rungs):
    """Two paths of `rungs` nodes, node i of one joined to node i of the
    other."""
    return Graph(2 * rungs, [(i, i + 1) for i in range(rungs - 1)]
                 + [(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
                 + [(i, rungs + i) for i in range(rungs)])


def grid_graph(side):
    """The side x side grid, node r * side + c at row r and column c."""
    return Graph(side * side,
                 [(v, v + 1) for v in range(side * side) if (v + 1) % side]
                 + [(v, v + side) for v in range(side * (side - 1))])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(n, p, rng, directed=False):
    if directed:
        edges = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < p]
    else:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
    return Graph(n, edges, directed=directed)


@st.composite
def small_graphs(draw, max_n=12):
    """A directed or undirected Graph on 0..max_n nodes with up to 3n
    random edges: isolated nodes, self-loops and repeats included."""
    n = draw(st.integers(0, max_n))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return Graph(n, edges, directed=draw(st.booleans()))


def diamond_chain_edges(count, sides=2):
    """Edges of `count` diamonds chained top to bottom, each with `sides`
    side nodes: with w = sides + 1, node w*i is the top of diamond i,
    w*i+1 .. w*i+sides its sides, and w*(i+1) its bottom, so node w*i has
    sides^i shortest paths from node 0."""
    w = sides + 1
    edges = []
    for i in range(count):
        top, bottom = w * i, w * (i + 1)
        for side in range(top + 1, bottom):
            edges += [(top, side), (side, bottom)]
    return edges


def eager_bfs_dag(g, s):
    """Queue BFS that appends each predecessor as it is dequeued, so every
    predecessor list is in BFS order: (dist, sigma, preds), with dist -1
    for unreachable nodes."""
    dist, sigma = [-1] * g.n, [0] * g.n
    preds = [[] for _ in range(g.n)]
    dist[s], sigma[s] = 0, 1
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return dist, sigma, [tuple(p) for p in preds]


@pytest.fixture
def bfs_calls(monkeypatch):
    """Log of the BFS back ends of graph as the test runs them:
    ("swept", sources) or ("gave up", sources) per bfs_dist_sigma call,
    by whether the kernel returned rows, and ("listed", s) per run of the
    list BFS."""
    calls = []

    def kernel(g, sources, stop_at=None, real=graph.bfs_dist_sigma):
        rows = real(g, sources, stop_at)
        calls.append(("swept" if rows else "gave up", sources.tolist()))
        return rows

    def listed(g, s, stop_at=None, real=graph._list_bfs):
        calls.append(("listed", s))
        return real(g, s, stop_at)
    monkeypatch.setattr(graph, "bfs_dist_sigma", kernel)
    monkeypatch.setattr(graph, "_list_bfs", listed)
    return calls


def reference_pair_many(g, kind, q, rng, chunk):
    """CSR pair of q draws of the pair sampler `kind` ("betweenness" or
    "coverage"), in chunks of `chunk` draws.  Each chunk draws its ordered
    pairs (s, t) from rng first, then walks them in draw order over the
    DAG of eager_bfs_dag(g, s).  A pair with t unreachable or adjacent is
    empty.  Otherwise betweenness lists, from t's side, the interior of a
    path that steps from v to its predecessor u with probability
    sigma(u)/sigma(v): r = rng.randrange(sigma(v)), and the first u in id
    order whose running sigma sum passes r.  Coverage lists, sorted, every
    interior node of a shortest s-t path, and reads no more of rng."""
    edges = []
    for start in range(0, q, chunk):
        pairs = []
        for _ in range(min(chunk, q - start)):
            s, t = rng.randrange(g.n), rng.randrange(g.n - 1)
            pairs.append((s, t + 1 if t >= s else t))
        for s, t in pairs:
            dist, sigma, preds = eager_bfs_dag(g, s)
            if dist[t] <= 1:
                edges.append([])
            elif kind == "coverage":
                seen, stack = set(), [t]
                while stack:
                    for u in preds[stack.pop()]:
                        if u != s and u not in seen:
                            seen.add(u)
                            stack.append(u)
                edges.append(sorted(seen))
            else:
                path, v = [], t
                while dist[v] > 1:
                    r = rng.randrange(sigma[v])
                    for u in sorted(preds[v]):
                        r -= sigma[u]
                        if r < 0:
                            break
                    path.append(u)
                    v = u
                edges.append(path)
    ptr = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum([len(h) for h in edges], out=ptr[1:])
    return ptr, np.array([v for h in edges for v in h], dtype=np.int64)


def expected_kronecker_edges(seed, i):
    """(mean, std) of the simple undirected edge count for a 2^i-node
    stochastic Kronecker graph."""
    p = np.asarray(seed, dtype=np.float64)
    total = p.sum() ** i
    diag = (p[0, 0] + p[1, 1]) ** i
    total_sq = (p ** 2).sum() ** i
    diag_sq = (p[0, 0] ** 2 + p[1, 1] ** 2) ** i
    mean = (total - diag) / 2.0
    var = ((total - total_sq) - (diag - diag_sq)) / 2.0
    return mean, math.sqrt(max(var, 0.0))


def largest_component_size(g, removed=()):
    """Size of the largest weakly connected component after deleting nodes."""
    removed = set(removed)
    seen = [False] * g.n
    best = 0
    for start in range(g.n):
        if seen[start] or start in removed:
            continue
        size = 0
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            size += 1
            for w in set(g.adj[v]) | set(g.radj[v]):
                if not seen[w] and w not in removed:
                    seen[w] = True
                    stack.append(w)
        best = max(best, size)
    return best


def seeded(x=0):
    return random.Random(x)


def edge_sets(pool):
    """The hyper-edges of a CSR pair (edge_ptr, edge_nodes), in order, or
    of a HyperEdgePool, in the order of its derived view pool.edges (the
    pool keeps no draw order), as a list of frozensets."""
    if not isinstance(pool, tuple):
        return [frozenset(h.tolist()) for h in pool.edges]
    ptr, nodes = pool[0].tolist(), pool[1].tolist()
    return [frozenset(nodes[a:b]) for a, b in zip(ptr, ptr[1:])]


def naive_cover(edges, n, k, alpha_value=1.0):
    """(selected, marginals, estimates) of eager greedy cover over a list of
    node sets: each round picks the unchosen node in the most uncovered
    sets, ties to the smaller id; estimates are alpha * covered/|edges|."""
    alive = [set(h) for h in edges]
    selected, marginals, estimates = [], [], []
    covered = 0
    for _ in range(k):
        best, best_deg = None, -1
        for v in range(n):
            if v in selected:
                continue
            deg = sum(1 for h in alive if v in h)
            if deg > best_deg:
                best, best_deg = v, deg
        alive = [h for h in alive if best not in h]
        covered += best_deg
        selected.append(best)
        marginals.append(best_deg)
        estimates.append(alpha_value * covered / len(edges) if edges else 0.0)
    return selected, marginals, estimates


def reference_rr_many(g, p, q, rng, chunk):
    """(CSR pair, batch sizes) of q RR sets drawn in draw order, in batches
    that ramp 1, 1, 2, 4, ...: after `done` sets that reached `cells` nodes
    in all, the next batch takes chunk * done // cells sets, at least one,
    at most `done` and at most the sets left.  Every target's key enters
    one level-synchronous BFS over the in-CSR, arcs flipped in key then arc
    order by samplers._live_positions from one numpy generator that rng
    seeds."""
    gen = np.random.default_rng(rng.getrandbits(64))
    sizes, nodes, batches = [], [], []
    done = cells = 0
    while done < q:
        b = (max(1, min(done, q - done, chunk * done // cells)) if done
             else 1)
        targets = (np.arange(b, dtype=np.int64) * g.n
                   + gen.integers(g.n, size=b))
        samp, node = np.divmod(reference_live_keys(g.rcsr(), targets, p, gen),
                               g.n)
        sizes.append(np.diff(np.searchsorted(samp, np.arange(b + 1))))
        nodes.append(node)
        batches.append(b)
        done += b
        cells += node.size
    return ((np.concatenate(([0], np.concatenate(sizes).cumsum())),
             np.concatenate(nodes)), batches)


def reference_live_keys(csr, start, p, gen):
    """Sorted keys run * n + node reached from the sorted start keys by a
    level-synchronous live-edge BFS over csr = (indptr, indices): each
    level's live arcs are samplers._live_positions of its arcs, in key then
    arc order, and its heads are deduped by np.unique."""
    indptr, indices = csr
    n = indptr.size - 1
    frontier = reached = start
    while frontier.size:
        run, node = np.divmod(frontier, n)
        stops = indptr[node + 1]
        ends = np.cumsum(stops - indptr[node])
        total = int(ends[-1])
        if total == 0:
            break
        live = _live_positions(total, p, gen)
        owner = np.searchsorted(ends, live, side="right")
        keys = np.unique(run[owner] * n
                         + indices[live + (stops - ends)[owner]])
        pos = np.searchsorted(reached, keys)
        fresh = reached[np.minimum(pos, reached.size - 1)] != keys
        frontier = keys[fresh]
        reached = np.insert(reached, pos[fresh], frontier)
    return reached


def load_hyperedges(path):
    """Inverse of samplers.dump_hyperedges (ids taken as written)."""
    with open(path) as fh:
        return [frozenset(int(tok) for tok in line.split()) for line in fh]


def exact_influence(g, seeds, p):
    """Expected independent-cascade spread of seeds, summed exactly over
    every live-edge world: each arc (both directions of an undirected
    edge) is live independently with probability p."""
    arcs = [(u, v) for u in range(g.n) for v in g.adj[u]]
    assert len(arcs) <= 16, "world enumeration is exponential in arcs"
    total = 0.0
    for mask in range(1 << len(arcs)):
        live = [[] for _ in range(g.n)]
        k = 0
        for i, (u, v) in enumerate(arcs):
            if mask >> i & 1:
                live[u].append(v)
                k += 1
        reached = set(seeds)
        stack = list(reached)
        while stack:
            for v in live[stack.pop()]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        total += p ** k * (1 - p) ** (len(arcs) - k) * len(reached)
    return total


def reference_triangle_greedy(g, k):
    """Eager greedy cover over all_triangles: each of min(k, n) rounds scans
    every unchosen node for the most not-yet-covered triangles (ties to the
    smaller id)."""
    triangles = all_triangles(g)
    incidence = {}
    for i, tri in enumerate(triangles):
        for v in tri:
            incidence.setdefault(v, []).append(i)
    alive = [True] * len(triangles)
    chosen = []
    chosen_set = set()
    for _ in range(min(k, g.n)):
        best, best_gain = None, -1
        for v in range(g.n):
            if v in chosen_set:
                continue
            gain = sum(1 for i in incidence.get(v, ()) if alive[i])
            if gain > best_gain:
                best, best_gain = v, gain
        for i in incidence.get(best, ()):
            alive[i] = False
        chosen.append(best)
        chosen_set.add(best)
    return chosen
