import math
from collections import deque

import pytest

from centmax import samplers
from centmax.errors import ParseError
from centmax.graph import (INF, Graph, bfs_dag, bfs_dist_sigma,
                           load_edge_list, load_temporal_edge_list)
from conftest import complete_graph, cycle_graph, eager_bfs_dag, \
    largest_component_size, path_graph, random_graph, seeded, star_graph


def write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadEdgeList:
    def test_p3(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n"))
        assert g.n == 3 and g.m == 2

    def test_duplicates_and_self_loops_dropped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n0 1\n1 1\n"))
        assert g.n == 2 and g.m == 1

    def test_dense_remap(self, tmp_path):
        g = load_edge_list(write(tmp_path, "7 9\n9 20\n"))
        assert g.n == 3
        assert g.labels == [7, 9, 20]

    def test_comments_and_third_token(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# header\n0 1 77\n"))
        assert g.n == 2 and g.m == 1

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ParseError, match=":2"):
            load_edge_list(write(tmp_path, "0 1\n0\n"))

    def test_empty_file(self, tmp_path):
        g = load_edge_list(write(tmp_path, ""))
        assert g.n == 0

    def test_undirected_symmetry(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n2 0\n"))
        for u in range(g.n):
            for v in g.adj[u]:
                assert u in g.adj[v]


class TestLoadTemporal:
    def test_sorted_by_time(self, tmp_path):
        t = load_temporal_edge_list(write(tmp_path, "0 1 -5\n1 2 3\n"))
        assert [r[2] for r in t.records] == [-5, 3]

    def test_empty(self, tmp_path):
        assert len(load_temporal_edge_list(write(tmp_path, ""))) == 0

    def test_stable_for_equal_timestamps(self, tmp_path):
        t = load_temporal_edge_list(write(tmp_path, "0 1 3\n2 3 3\n"))
        assert t.records == [(0, 1, 3), (2, 3, 3)]

    def test_missing_timestamp(self, tmp_path):
        with pytest.raises(ParseError):
            load_temporal_edge_list(write(tmp_path, "0 1\n"))


def naive_bfs_dist(g, s):
    dist = [INF] * g.n
    dist[s] = 0
    q = deque([s])
    while q:
        v = q.popleft()
        for w in g.adj[v]:
            if dist[w] is INF:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


class TestBfsDag:
    def test_path_graph(self):
        dag = bfs_dag(path_graph(4), 0)
        assert dag.dist == [0, 1, 2, 3]
        assert dag.sigma == [1, 1, 1, 1]

    def test_cycle_antipodal_sigma(self):
        dag = bfs_dag(cycle_graph(4), 0)
        assert dag.sigma[2] == 2

    def test_disconnected(self):
        g = Graph(2, [])
        dag = bfs_dag(g, 0)
        assert dag.dist[1] is INF and dag.sigma[1] == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_dag(path_graph(3), 5)

    def test_sigma_pred_identity(self):
        # The id-order predecessor rule the pair samplers walk.
        rng = seeded(11)
        for i in range(20):
            g = random_graph(rng.randrange(2, 40), 0.15, rng,
                             directed=i % 2 == 1)
            dag = bfs_dag(g, 0)
            for v in range(g.n):
                if v == 0 or dag.dist[v] is INF:
                    continue
                preds = samplers._preds(g, dag.dist, v)
                assert dag.sigma[v] == sum(dag.sigma[u] for u in preds)
                for u in preds:
                    assert dag.dist[u] + 1 == dag.dist[v]

    def test_matches_naive_bfs(self):
        rng = seeded(5)
        for _ in range(20):
            g = random_graph(rng.randrange(2, 100), 0.08, rng)
            dag = bfs_dag(g, 0)
            assert dag.dist == naive_bfs_dist(g, 0)

    def test_vectorized_matches(self):
        rng = seeded(9)
        for directed in (False, True):
            g = random_graph(60, 0.08, rng, directed=directed)
            dag = bfs_dag(g, 3)
            dist, sigma = bfs_dist_sigma(g, 3)
            for v in range(g.n):
                ref = -1 if dag.dist[v] is INF else dag.dist[v]
                assert dist[v] == ref
                if ref >= 0:
                    assert int(sigma[v]) == dag.sigma[v]

    def test_vectorized_matches_with_sinks(self):
        # Sparse directed graphs put out-degree-0 nodes inside BFS frontiers.
        rng = seeded(3)
        for _ in range(30):
            g = random_graph(30, 0.05, rng, directed=True)
            for s in range(g.n):
                dag = bfs_dag(g, s)
                dist, sigma = bfs_dist_sigma(g, s)
                assert dist.tolist() == [-1 if d is INF else d
                                         for d in dag.dist]
                assert sigma.tolist() == dag.sigma


class TestLazyPreds:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_the_eager_bfs(self, directed):
        rng = seeded(21 + directed)
        for _ in range(15):
            g = random_graph(rng.randrange(2, 50), rng.choice((0.04, 0.1,
                                                               0.3)),
                             rng, directed=directed)
            for s in range(g.n):
                dag = bfs_dag(g, s)
                dist, sigma, order, _ = eager_bfs_dag(g, s)
                assert (dag.dist, dag.sigma, dag.order) == (dist, sigma,
                                                            order)


def naive_component_count(g, removed=()):
    removed = set(removed)
    seen = set(removed)
    best = 0
    for s in range(g.n):
        if s in seen:
            continue
        comp = 0
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp += 1
            for w in g.weak_neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        best = max(best, comp)
    return best


class TestComponents:
    def test_p4_remove_inner(self):
        assert largest_component_size(path_graph(4), {1}) == 2

    def test_k4_intact(self):
        assert largest_component_size(complete_graph(4)) == 4

    def test_star_remove_center(self):
        assert largest_component_size(star_graph(3), {0}) == 1

    def test_all_removed(self):
        assert largest_component_size(path_graph(3), {0, 1, 2}) == 0

    def test_matches_naive(self):
        rng = seeded(2)
        for _ in range(10):
            g = random_graph(40, 0.05, rng)
            assert largest_component_size(g) == naive_component_count(g)




def test_sigma_huge_counts_exact():
    # Hypercube path counts are factorials; Python ints keep them exact.
    from centmax.generators import gen_hypercube
    g = gen_hypercube(10)
    dag = bfs_dag(g, 0)
    assert dag.sigma[g.n - 1] == math.factorial(10)
