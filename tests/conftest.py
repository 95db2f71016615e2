import random
from collections import deque

from centmax.graph import INF, Graph


def path_graph(n, directed=False):
    return Graph(n, [(i, i + 1) for i in range(n - 1)], directed=directed)


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


def diamond_chain_edges(count):
    """Edges of `count` diamonds chained top to bottom: node 3i is the top
    of diamond i, 3i+1 and 3i+2 its sides, and 3(i+1) its bottom, so node
    3i has 2^i shortest paths from node 0."""
    edges = []
    for i in range(count):
        top, bottom = 3 * i, 3 * (i + 1)
        for side in (top + 1, top + 2):
            edges += [(top, side), (side, bottom)]
    return edges


def eager_bfs_dag(g, s):
    """Queue BFS that appends each predecessor as it is dequeued, so every
    predecessor list is in BFS order: (dist, sigma, order, preds)."""
    dist, sigma = [INF] * g.n, [0] * g.n
    preds = [[] for _ in range(g.n)]
    dist[s], sigma[s] = 0, 1
    order, queue = [], deque([s])
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in g.adj[v]:
            if dist[w] is INF:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return dist, sigma, order, [tuple(p) for p in preds]


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
            for w in g.weak_neighbors(v):
                if not seen[w] and w not in removed:
                    seen[w] = True
                    stack.append(w)
        best = max(best, size)
    return best


def seeded(x=0):
    return random.Random(x)


def edge_sets(pool):
    """The hyper-edges of a HyperEdgePool, or of a CSR pair (edge_ptr,
    edge_nodes), as a list of frozensets."""
    ptr, nodes = (pool if isinstance(pool, tuple)
                  else (pool.edge_ptr, pool.edge_nodes))
    ptr, nodes = ptr.tolist(), nodes.tolist()
    return [frozenset(nodes[a:b]) for a, b in zip(ptr, ptr[1:])]


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
