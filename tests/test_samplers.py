import math
import random
from collections import Counter
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centmax import exact, graph, samplers
from centmax.graph import Graph, bfs_dag, fill_dag_cache
from centmax.maximize import build_pool
from centmax.samplers import (KINDS, SamplerSpec, _live_positions, alpha,
                              dump_hyperedges, expand, pack, sample,
                              sample_many, split_chunks)
from conftest import complete_graph, cycle_graph, diamond_chain_edges, \
    eager_bfs_dag, edge_sets, exact_influence, load_hyperedges, path_graph, \
    random_graph, reference_pair_many, reference_rr_many, seeded

BWC, COV = SamplerSpec("betweenness"), SamplerSpec("coverage")


class TestSpecAndAlpha:
    def test_alpha_values(self):
        g100 = Graph(100, [])
        g5 = Graph(5, [])
        assert alpha(SamplerSpec("betweenness"), g100) == 9900
        assert alpha(SamplerSpec("kpath"), g100) == 100
        assert alpha(SamplerSpec("coverage"), g5) == 20
        assert alpha(SamplerSpec("rr-influence"), g100) == 100

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SamplerSpec("pagerank")

    def test_bad_params(self):
        with pytest.raises(ValueError):
            SamplerSpec("kpath", kappa=0)
        with pytest.raises(ValueError):
            SamplerSpec("rr-influence", p=1.5)
        # Every kind is held to both rules, whether it reads the field or
        # not.
        with pytest.raises(ValueError, match="kappa must be"):
            SamplerSpec("betweenness", kappa=0)
        with pytest.raises(ValueError, match=r"p must be in \[0,1\]"):
            SamplerSpec("coverage", p=1.5)
        with pytest.raises(ValueError, match=r"p must be in \[0,1\]"):
            SamplerSpec("kpath", p=float("nan"))
        # A kappa of 2.5 would fail only at the first draw, in range().
        for kappa in (2.5, 2.0):
            with pytest.raises(ValueError, match="kappa must be a positive "
                                                 f"integer, got {kappa}"):
                SamplerSpec("kpath", kappa=kappa)


class TestBwcSampler:
    def test_unique_path(self):
        g = path_graph(3)
        rng = seeded(1)
        seen = {sample(g, BWC, rng) for _ in range(50)}
        assert seen <= {frozenset(), frozenset({1})}
        assert frozenset({1}) in seen

    def test_cycle_antipodal_split(self):
        g = cycle_graph(4)
        rng = seeded(2)
        counts = Counter(min(h) for h in
                         edge_sets(sample_many(g, BWC, 20000, rng)) if h)
        # Antipodal pairs pick each of the two internal nodes equally.
        total = sum(counts.values())
        for v, c in counts.items():
            assert abs(c / total - 0.25) < 0.02

    def test_isolated_pair_empty(self):
        g = Graph(2, [])
        assert sample(g, BWC, seeded(0)) == frozenset()

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            sample(Graph(1, []), BWC, seeded(0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)),
                             max_size=2 * n))),
        st.integers(0, 3), st.booleans(), st.integers(0, 2 ** 32))
    def test_never_contains_endpoints_and_valid_ids(self, drawn, isolated,
                                                    directed, seed):
        # Both pair samplers on both BFS back ends (the numpy one first,
        # while the cache shows that bfs_dag cached nothing); each pair is
        # replayed from a copy of the rng and checked against a queue BFS.
        n, edges = drawn
        g = Graph(n + isolated, edges, directed=directed)
        for limit in (0, graph._CACHE_MAX_N):
            for sampler in (BWC, COV):
                rng = seeded(seed)
                with mock.patch.object(graph, "_CACHE_MAX_N", limit):
                    for _ in range(10):
                        s, t = samplers._random_ordered_pair(g.n, clone(rng))
                        h = sample(g, sampler, rng)
                        assert all(0 <= v < g.n for v in h)
                        assert s not in h and t not in h
                        if eager_bfs_dag(g, s)[0][t] <= 1:
                            assert h == frozenset()
            assert limit or not g._dag_cache

    def test_deterministic_given_seed(self):
        g = random_graph(25, 0.15, seeded(4))
        a = [sample(g, BWC, seeded(99)) for _ in range(200)]
        b = [sample(g, BWC, seeded(99)) for _ in range(200)]
        assert a == b

    def test_uniform_over_shortest_paths(self):
        # Conditioned on the pair, each shortest path has probability
        # exactly 1/sigma: compare per-path frequencies with enumeration.
        g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5),
                      (0, 4)])
        rng = seeded(6)
        for s in range(g.n):
            dist, sigma = bfs_dag(g, s)
            preds = eager_bfs_dag(g, s)[2]
            for t in range(g.n):
                if t == s or dist[t] <= 1 or sigma[t] < 2:
                    continue
                paths = enumerate_paths(preds, s, t)
                assert len(paths) == sigma[t]
        draws = 60000
        counts = Counter(edge_sets(sample_many(g, BWC, draws, rng)))
        # Pair (1,2) has two paths: via 0 and via 3, each prob 1/2 given
        # the pair; pair prob 2/(6*5).
        two_path = counts[frozenset({0})] + counts[frozenset({3})]
        if two_path:
            frac = counts[frozenset({0})] / two_path
            assert 0.4 < frac < 0.6

    def test_large_graph_path_uses_numpy(self):
        from centmax.generators import gen_lower_bound
        g = gen_lower_bound(5000, 0.5)
        rng = seeded(10)
        draws = [sample(g, BWC, rng) for _ in range(300)]
        nonempty = [h for h in draws if h]
        assert nonempty
        rows, cols = g.meta["rows"], g.meta["cols"]
        for h in nonempty:
            assert len(h) == 1  # rook pairs have exactly one internal node
            (v,) = h
            assert v < rows * cols


class TestUnreachablePairs:
    @pytest.mark.parametrize("n", [10, 2100])  # cached-DAG and numpy sizes
    @pytest.mark.parametrize("sampler", [BWC, COV])
    def test_edgeless_graph_skips_bfs(self, n, sampler, monkeypatch):
        def no_bfs(*args, **kwargs):
            raise AssertionError("BFS ran for an unreachable pair")
        monkeypatch.setattr(samplers, "bfs_dag", no_bfs)
        monkeypatch.setattr(graph, "bfs_dist_sigma", no_bfs)
        g = Graph(n, [])
        rng, ref = seeded(4), seeded(4)
        for _ in range(200):
            assert sample(g, sampler, rng) == frozenset()
            samplers._random_ordered_pair(n, ref)
        # Only the pair is drawn, as on the path that runs the BFS.
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", [10, 2100])
    @pytest.mark.parametrize("sampler", [BWC, COV])
    def test_bfs_runs_only_if_t_may_be_reachable(self, n, sampler,
                                                 monkeypatch):
        # Every node but 0 has an out-edge; only node 0 has in-edges.
        g = Graph(n, [(v, 0) for v in range(1, n)], directed=True)
        calls = []
        for module, name in ((samplers, "bfs_dag"),
                             (graph, "bfs_dist_sigma")):
            def counted(*args, real=getattr(module, name), **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        rng, ref = seeded(5), seeded(5)
        for _ in range(300):
            before = len(calls)
            assert sample(g, sampler, rng) == frozenset()
            _, t = samplers._random_ordered_pair(n, ref)
            assert (len(calls) > before) == (t == 0)


def enumerate_paths(preds, s, t):
    """Every shortest s-t path, given the predecessor lists of a BFS
    from s."""
    if t == s:
        return [[t]]
    out = []
    for u in preds[t]:
        for p in enumerate_paths(preds, s, u):
            out.append(p + [t])
    return out


class TestCoverageSampler:
    def test_cycle_both_internals(self):
        g = cycle_graph(4)
        rng = seeded(1)
        seen = set()
        for _ in range(200):
            h = sample(g, COV, rng)
            if h:
                seen.add(h)
        assert seen == {frozenset({1, 3}), frozenset({0, 2})}

    def test_p3(self):
        g = path_graph(3)
        rng = seeded(2)
        nonempty = {h for h in (sample(g, COV, rng) for _ in range(100)) if h}
        assert nonempty == {frozenset({1})}

    def test_adjacent_pair_empty(self):
        g = complete_graph(4)
        for i in range(50):
            assert sample(g, COV, seeded(i)) == frozenset()

    def test_directed_uses_reverse_bfs(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], directed=True)
        rng = seeded(3)
        seen = {h for h in (sample(g, COV, rng) for _ in range(300)) if h}
        assert frozenset({1, 2}) not in seen  # d(0,3)=1 kills the long route
        assert frozenset({1}) in seen  # pair (0,2)
        assert frozenset({2}) in seen  # pair (1,3)


def sparse_graph(n, degree, rng, directed):
    return Graph(n, [(rng.randrange(n), rng.randrange(n))
                     for _ in range(n * degree)], directed=directed)


def reversed_graph(g):
    return Graph(g.n, [(v, u) for u, v in g.edges()], directed=g.directed)


def on_shortest_paths(g, rg, s, t):
    """d(s,t) and {v not in {s,t} : d(s,v) + d(v,t) = d(s,t)} from one BFS
    on g and one on its reverse rg, plus the distances from s."""
    dist_s, dist_t = bfs_dag(g, s)[0], bfs_dag(rg, t)[0]
    d = dist_s[t]
    cover = frozenset(v for v in range(g.n) if v != s and v != t
                      and dist_s[v] >= 0 and dist_t[v] >= 0
                      and dist_s[v] + dist_t[v] == d)
    return d, cover, dist_s


def clone(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def check_pair_samplers(g, rg, rng):
    """Both samplers against the definitions, on the pair rng draws next;
    rg is g reversed.  Returns the coverage sample."""
    ref, walk = clone(rng), clone(rng)
    s, t = samplers._random_ordered_pair(g.n, ref)
    d, cover, dist_s = on_shortest_paths(g, rg, s, t)
    h = sample(g, COV, rng)
    # Coverage draws the pair and nothing else.
    assert rng.getstate() == ref.getstate()
    unlinked = d <= 1
    assert h == (frozenset() if unlinked else cover)
    path = sample(g, BWC, walk)
    if unlinked:
        assert path == frozenset()
        return h
    # The walk is the interior of one shortest s-t path.
    nodes = [s] + sorted(path, key=dist_s.__getitem__) + [t]
    assert [dist_s[v] for v in nodes] == list(range(d + 1))
    assert all(b in g.adj[a] for a, b in zip(nodes, nodes[1:]))
    return h


class TestPairCore:
    """Both pair samplers read one forward shortest-path DAG per pair."""

    @pytest.mark.parametrize("n", [60, 2200])  # cached-DAG and numpy sizes
    @pytest.mark.parametrize("directed", [False, True])
    def test_samples_match_the_definitions(self, n, directed):
        rng = seeded(n + directed)
        g = sparse_graph(n, 2, rng, directed)
        rg = reversed_graph(g)
        sizes = [len(check_pair_samplers(g, rg, rng))
                 for _ in range(150 if n < 2048 else 40)]
        assert max(sizes) >= 2  # some pair has several interior nodes

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)),
                             max_size=3 * n))),
        st.integers(0, 2 ** 32))
    def test_small_directed_graphs(self, graph, seed):
        n, edges = graph
        g = Graph(n, edges, directed=True)
        rg, rng = reversed_graph(g), seeded(seed)
        for _ in range(10):
            check_pair_samplers(g, rg, rng)

    @pytest.mark.parametrize("kind", ["betweenness", "coverage"])
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("case", range(20))
    def test_both_bfs_back_ends_give_the_same_pool(self, case, directed,
                                                   kind, monkeypatch):
        # Sparse graphs: across the cases the pools hold unreachable and
        # adjacent pairs as well as pairs with several shortest paths.
        rng = seeded(case)
        g = sparse_graph(rng.randrange(4, 40), rng.choice((1, 2, 3)), rng,
                         directed)
        spec = SamplerSpec(kind)
        cached = sample_many(g, spec, 300, seeded(case))
        assert g._dag_cache
        calls = []

        def counted(*args, real=graph.bfs_dist_sigma, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(graph, "bfs_dist_sigma", counted)
        monkeypatch.setattr(graph, "_CACHE_MAX_N", 0)
        numpy = sample_many(g, spec, 300, seeded(case))
        assert calls
        assert [a.tobytes() for a in cached] == [a.tobytes() for a in numpy]


def graph_with_gaps(seed, directed):
    """A sparse random graph on 30 nodes plus 3 isolated ones, so that
    draws hit unreachable and adjacent pairs as well as longer ones."""
    rng = seeded(seed)
    core = sparse_graph(30, 2, rng, directed)
    return Graph(33, list(core.edges()), directed=directed)


def pair_kinds(g, q, rng):
    """Counter of the pairs of q coverage draws from rng, by kind:
    "unreachable", "adjacent" or "linked".  A coverage walk reads nothing
    from rng, so the draws take their pairs one after another."""
    kinds = Counter()
    for _ in range(q):
        s, t = samplers._random_ordered_pair(g.n, rng)
        d = eager_bfs_dag(g, s)[0][t]
        kinds["unreachable" if d < 0 else "adjacent" if d == 1
              else "linked"] += 1
    return kinds


class TestPairChunks:
    """A chunk of pair draws: all its pairs first, then the cache fill for
    their sources, then the walks in draw order."""

    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize("kind", ["betweenness", "coverage"])
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("chunk, q", [(40, 39), (40, 40), (40, 41),
                                          (17, 3 * 17 + 2), (64, 200)])
    def test_same_arrays_as_the_reference(self, chunk, q, directed, kind,
                                          cached, monkeypatch):
        g = graph_with_gaps(q + directed, directed)
        monkeypatch.setattr(samplers, "_CHUNK", chunk)
        if not cached:
            monkeypatch.setattr(graph, "_CACHE_MAX_N", 0)
        want = reference_pair_many(g, kind, q, seeded(q), chunk)
        got = sample_many(g, SamplerSpec(kind), q, seeded(q))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert bool(g._dag_cache) == cached
        if kind == "coverage":
            assert set(pair_kinds(g, q, seeded(q))) == {
                "unreachable", "adjacent", "linked"}

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_single_draw_keeps_its_stream(self, kind):
        # A batch of one draws as sample() does: a pair, then its walk; a
        # kpath walk; an RR batch of one.
        g = graph_with_gaps(5, False)
        spec = SamplerSpec(kind, kappa=3, p=0.3)
        for seed in range(40):
            one = edge_sets(sample_many(g, spec, 1, seeded(seed)))
            assert one == [sample(g, spec, seeded(seed))]

    @pytest.mark.parametrize("directed", [False, True])
    def test_walks_read_only_filled_rows(self, directed, monkeypatch):
        # Every source a walk BFSes is in the cache before the walk reads
        # it, and the fill BFSes each linked drawn source once.
        g = graph_with_gaps(7 + directed, directed)
        chunk, q = 50, 170
        monkeypatch.setattr(samplers, "_CHUNK", chunk)
        filled, walked = [], []

        def cells(g, sources, *args, real=graph.bfs_dist_sigma, **kwargs):
            filled.extend(sources.tolist())
            return real(g, sources, *args, **kwargs)

        def dag(g, s, stop_at=None, real=samplers.bfs_dag):
            assert s in g._dag_cache, "a walk read an unfilled source"
            walked.append(s)
            return real(g, s, stop_at=stop_at)
        monkeypatch.setattr(graph, "bfs_dist_sigma", cells)
        monkeypatch.setattr(samplers, "bfs_dag", dag)
        rng = seeded(3)
        pairs = [samplers._random_ordered_pair(g.n, rng) for _ in range(q)]
        linked = {s for s, t in pairs if g.adj[s] and g.radj[t]}
        sample_many(g, SamplerSpec("betweenness"), q, seeded(3))
        assert sorted(filled) == sorted(linked)
        assert set(walked) == linked

    @pytest.mark.parametrize("cells", [1, 100, graph._BLOCK_CELLS])
    @pytest.mark.parametrize("directed", [False, True])
    def test_fill_equals_the_list_bfs(self, directed, cells, monkeypatch):
        # No block gives up as thin, so that the sweep fills every row.
        monkeypatch.setattr(graph, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(graph, "_THIN_LEVEL_ARCS", 0)
        rng = seeded(11 + directed)
        for _ in range(6):
            n = rng.randrange(2, 45)
            g = random_graph(n, rng.choice((0.03, 0.1, 0.3)), rng, directed)
            fill_dag_cache(g, range(n))
            assert sorted(g._dag_cache) == list(range(n))
            for s in range(n):
                dist, sigma = g._dag_cache[s]
                assert (dist, sigma) == eager_bfs_dag(g, s)[:2]
                assert all(type(x) is int for x in dist + sigma)

    def test_fill_counts_stay_exact_past_2_53(self, monkeypatch):
        # 34 chained diamonds of three sides: node 4 * 34 has 3^34 paths
        # from node 0, an odd count past 2^53 that float64 rounds, yet
        # below the int64 guard of 2^62 // n.  The chain is thin, so the
        # thin rule is off: the sweep, not the list BFS, fills the rows.
        monkeypatch.setattr(graph, "_THIN_LEVEL_ARCS", 0)
        gave_up, swept, listed = self.watch_fill(monkeypatch)
        count = 34
        g = Graph(4 * count + 1, diamond_chain_edges(count, sides=3))
        assert 2 ** 53 < 3 ** count <= 2 ** 62 // g.n
        fill_dag_cache(g, [0, 4, 5, g.n - 1])
        assert swept == [[0, 4, 5, g.n - 1]] and not (gave_up or listed)
        for s in (0, 4, 5, g.n - 1):
            dist, sigma = g._dag_cache[s]
            assert (dist, sigma) == eager_bfs_dag(g, s)[:2]
            assert all(type(x) is int for x in sigma)
        assert g._dag_cache[0][1][-1] == 3 ** count

    def test_overflowing_block_is_swept_once(self, monkeypatch):
        # 62 diamonds chained downward give 2^62 paths from node 0, past
        # the int64 guard; the last node is isolated.  The first block of
        # sources, which holds node 0, overflows: the numpy BFS sweeps it
        # once, and the list BFS then runs once per source, of that block
        # and of every later one.  The thin rule, which would give up the
        # chain's first block before it overflows, is off.
        monkeypatch.setattr(graph, "_THIN_LEVEL_ARCS", 0)
        g = Graph(3 * 62 + 2, diamond_chain_edges(62), directed=True)
        blocks, listed = [], []

        def cells(g, sources, *args, real=graph.bfs_dist_sigma, **kwargs):
            blocks.append(sources.tolist())
            return real(g, sources, *args, **kwargs)

        def dag(g, s, real=graph.bfs_dag):
            listed.append(s)
            return real(g, s)
        monkeypatch.setattr(graph, "bfs_dist_sigma", cells)
        monkeypatch.setattr(graph, "bfs_dag", dag)
        fill_dag_cache(g, reversed(range(g.n)))
        assert blocks == [list(range(graph._BLOCK_CELLS // g.n))]
        assert listed == list(range(g.n))
        fill_dag_cache(g, range(g.n))
        assert len(blocks) == 1 and len(listed) == g.n
        for s in range(g.n):
            dist, sigma = g._dag_cache[s]
            assert (dist, sigma) == eager_bfs_dag(g, s)[:2]
            assert all(type(x) is int for x in sigma)
        assert g._dag_cache[0][1][-2] == 2 ** 62

    @staticmethod
    def watch_fill(monkeypatch):
        """Lists of the blocks bfs_dist_sigma gave up (None) and swept, and
        of the sources bfs_dag's list BFS ran for, during a fill."""
        gave_up, swept, listed = [], [], []

        def cells(g, sources, stop_at=None, real=graph.bfs_dist_sigma):
            rows = real(g, sources, stop_at)
            (swept if rows else gave_up).append(sources.tolist())
            return rows

        def dag(g, s, real=graph.bfs_dag):
            listed.append(s)
            return real(g, s)
        monkeypatch.setattr(graph, "bfs_dist_sigma", cells)
        monkeypatch.setattr(graph, "bfs_dag", dag)
        return gave_up, swept, listed

    @pytest.mark.parametrize("directed", [False, True])
    def test_thin_blocks_go_to_the_list_bfs(self, directed, monkeypatch):
        # A path's BFS scans two arcs per level and source, so the first
        # block gives up at level _THIN_LEVELS, and the fill lists every
        # source once, in id order.
        n = 300
        g = Graph(n, [(v, v + 1) for v in range(n - 1)], directed=directed)
        gave_up, swept, listed = self.watch_fill(monkeypatch)
        fill_dag_cache(g, reversed(range(n)))
        assert gave_up == [list(range(graph._BLOCK_CELLS // n))]
        assert not swept and listed == list(range(n))
        for s in range(n):
            assert g._dag_cache[s] == eager_bfs_dag(g, s)[:2]

    def test_wide_blocks_are_swept(self, monkeypatch):
        # In a 32 x 32 grid, one block of 16 sources from the middle row
        # scans over a thousand arcs per level.  Its BFS runs past 40
        # levels, yet the sweep keeps it.
        side = 32
        g = Graph(side * side,
                  [(v, v + 1) for v in range(side * side) if (v + 1) % side]
                  + [(v, v + side) for v in range(side * (side - 1))])
        middle = list(range(side * side // 2, side * (side + 2) // 2, 2))
        gave_up, swept, listed = self.watch_fill(monkeypatch)
        fill_dag_cache(g, middle)
        assert swept == [middle] and not (gave_up or listed)
        for s in middle:
            assert g._dag_cache[s] == eager_bfs_dag(g, s)[:2]
        assert max(g._dag_cache[middle[0]][0]) > 40

    def test_no_fill_past_the_cache_size(self, monkeypatch):
        monkeypatch.setattr(graph, "_CACHE_MAX_N", 9)
        gave_up, swept, listed = self.watch_fill(monkeypatch)
        g = Graph(10, [(v, v + 1) for v in range(9)])
        fill_dag_cache(g, range(10))
        assert not (g._dag_cache or gave_up or swept or listed)

    @pytest.mark.parametrize("cached", [True, False])
    def test_one_node_refused_before_any_draw(self, cached, monkeypatch):
        if not cached:
            monkeypatch.setattr(graph, "_CACHE_MAX_N", 0)
        rng = seeded(1)
        state = rng.getstate()
        for kind in ("betweenness", "coverage"):
            with pytest.raises(ValueError, match="pair samplers need n >= 2"):
                sample_many(Graph(1, []), SamplerSpec(kind), 5, rng)
        assert rng.getstate() == state


class TestDeepPairs:
    """Past the cache size, a pair's BFS whose levels stay thin gives the
    numpy sweep up and lists its row instead, cut at t's level."""

    n = 3000

    @pytest.mark.parametrize("kind", ["betweenness", "coverage"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_same_arrays_as_the_reference(self, directed, kind, bfs_calls):
        g = path_graph(self.n, directed)
        assert g.n > graph._CACHE_MAX_N
        q = 80
        want = reference_pair_many(g, kind, q, seeded(q), samplers._CHUNK)
        got = sample_many(g, SamplerSpec(kind), q, seeded(q))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert "listed" in {call for call, _ in bfs_calls}
        assert not g._dag_cache

    @pytest.mark.parametrize("directed", [False, True])
    def test_rows_are_cut_at_t_swept_or_listed(self, directed, bfs_calls):
        # From the middle of the path, a t fewer than _THIN_LEVELS steps
        # away is reached by the sweep; a farther or unreachable t makes
        # the kernel give up at level _THIN_LEVELS, and the list BFS runs.
        g = path_graph(self.n, directed)
        s = self.n // 2
        full_dist, full_sigma = eager_bfs_dag(g, s)[:2]
        thin = graph._THIN_LEVELS
        for t in (s, s + 1, s + thin - 1, s + thin, s + thin + 1, s + 500,
                  self.n - 1, s - thin, 0):
            del bfs_calls[:]
            dist, sigma = bfs_dag(g, s, stop_at=t)
            if 0 <= full_dist[t] < thin:
                assert bfs_calls == [("swept", [s])]
            else:
                assert bfs_calls == [("gave up", [s]), ("listed", s)]
            cut = full_dist[t] if full_dist[t] >= 0 else g.n
            for v in range(g.n):
                if 0 <= full_dist[v] <= cut:
                    assert dist[v] == full_dist[v]
                    assert sigma[v] == full_sigma[v]
                else:
                    assert dist[v] == -1
        assert not g._dag_cache


class TestKPathSampler:
    def test_isolated_start(self):
        g = Graph(3, [(1, 2)])
        for i in range(20):
            h = sample(g, SamplerSpec("kpath", kappa=3), seeded(i))
            if 0 in h:
                assert h == frozenset({0})

    def test_forced_step(self):
        g = path_graph(2)
        spec = SamplerSpec("kpath", kappa=1)
        for i in range(10):
            assert sample(g, spec, seeded(i)) == frozenset({0, 1})

    def test_k3_two_steps_visits_all(self):
        g = complete_graph(3)
        spec = SamplerSpec("kpath", kappa=2)
        for i in range(30):
            assert len(sample(g, spec, seeded(i))) == 3

    def test_walk_is_simple_and_bounded(self):
        rng = seeded(4)
        g = random_graph(20, 0.2, rng)
        for _ in range(200):
            h = sample(g, SamplerSpec("kpath", kappa=4), rng)
            assert 1 <= len(h) <= 5


class TestRRSampler:
    def test_p_zero(self):
        g = complete_graph(5)
        spec = SamplerSpec("rr-influence", p=0.0)
        for i in range(10):
            assert len(sample(g, spec, seeded(i))) == 1

    def test_p_one_full_reverse_reachability(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        rng = seeded(1)
        spec = SamplerSpec("rr-influence", p=1.0)
        draws = {sample(g, spec, rng) for _ in range(100)}
        assert draws == {frozenset({0}), frozenset({0, 1}),
                         frozenset({0, 1, 2})}

    def test_single_edge(self):
        g = Graph(2, [(0, 1)], directed=True)
        rng = seeded(2)
        for _ in range(50):
            h = sample(g, SamplerSpec("rr-influence", p=1.0), rng)
            if 1 in h:
                assert h == frozenset({0, 1})

    def test_bad_p(self):
        with pytest.raises(ValueError):
            SamplerSpec("rr-influence", p=-0.1)


# Small graphs whose live-edge worlds can all be enumerated: 10 directed
# arcs, and 6 undirected edges (12 arcs).
RR_GRAPHS = {
    "directed": Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                          (5, 3), (1, 4), (0, 5), (3, 1)], directed=True),
    "undirected": Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4),
                            (4, 5)]),
}


def reverse_reach(g, t):
    """Every node with a directed path to t, t included."""
    seen = {t}
    stack = [t]
    while stack:
        for u in g.radj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return frozenset(seen)


class TestRRBatch:
    """RR sets drawn as numpy batches against the live-edge definition."""

    @pytest.mark.parametrize("kind", sorted(RR_GRAPHS))
    @pytest.mark.parametrize("batched", [True, False])
    def test_unbiased_against_exact_influence(self, kind, batched):
        g, p = RR_GRAPHS[kind], 0.4
        spec = SamplerSpec("rr-influence", p=p)
        rng = seeded(31)
        if batched:
            draws = 60000
            pool = edge_sets(build_pool(g, spec, draws, rng))
        else:
            draws = 15000
            pool = [sample(g, spec, rng) for _ in range(draws)]
        pick = seeded(32)
        for size in (1, 1, 2, 2, 3):
            S = set(pick.sample(range(g.n), size))
            want = exact_influence(g, S, p) / g.n
            emp = sum(1 for h in pool if h & S) / draws
            bound = 4 * math.sqrt(want * (1 - want) / draws) + 1e-9
            assert abs(emp - want) <= bound, (S, emp, want)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_every_set_holds_a_valid_node(self, p):
        g = random_graph(40, 0.08, seeded(5), directed=True)
        pool = edge_sets(sample_many(g, SamplerSpec("rr-influence", p=p),
                                     3000, seeded(6)))
        assert len(pool) == 3000
        assert all(h and all(0 <= v < g.n for v in h) for h in pool)
        if p == 0.0:
            assert {len(h) for h in pool} == {1}
            assert len(set(pool)) == g.n  # every target is drawn

    def test_p_one_gives_full_reverse_reachable_sets(self):
        g = random_graph(40, 0.05, seeded(7), directed=True)
        rr = [reverse_reach(g, t) for t in range(g.n)]
        pool = edge_sets(sample_many(g, SamplerSpec("rr-influence", p=1.0),
                                     2000, seeded(8)))
        assert all(any(h == rr[t] for t in h) for h in pool)
        assert max(map(len, pool)) > 1

    def test_same_seed_same_pool(self):
        g = RR_GRAPHS["undirected"]
        spec = SamplerSpec("rr-influence", p=0.5)
        a = edge_sets(build_pool(g, spec, 5000, seeded(9)))
        b = edge_sets(build_pool(g, spec, 5000, seeded(9)))
        assert a == b
        assert [sample(g, spec, seeded(i)) for i in range(50)] == \
            [sample(g, spec, seeded(i)) for i in range(50)]

    def test_tiny_p_gives_only_the_targets(self):
        g = random_graph(40, 0.2, seeded(10), directed=True)
        ptr, nodes = sample_many(g, SamplerSpec("rr-influence", p=5e-324),
                                 3000, seeded(11))
        assert np.diff(ptr).tolist() == [1] * 3000
        assert len(set(nodes.tolist())) == g.n

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.3, 1.0])
    @pytest.mark.parametrize("case", range(4))
    def test_same_arrays_as_the_reference_batch(self, case, p, directed,
                                                monkeypatch):
        # The reference BFS carries every set's target as a key; the
        # sampler sets a target with no live in-arc aside at the first
        # level.  The coin flips and the arrays must not change.
        rng = seeded(40 + case)
        g = random_graph(rng.randrange(1, 40), rng.choice((0.02, 0.1, 0.3)),
                         rng, directed)
        chunk = rng.choice((3, 7, 50))
        q = rng.randrange(1, 4 * chunk)
        monkeypatch.setattr(samplers, "_CHUNK", chunk)
        want, batches = reference_rr_many(g, p, q, seeded(case), chunk)
        spec = SamplerSpec("rr-influence", p=p)
        got = sample_many(g, spec, q, seeded(case))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [len(edge_sets(c)) for c in
                map(expand, split_chunks(g, spec, q, seeded(case)))] == batches
        pool = build_pool(g, spec, q, seeded(case))
        assert len(pool) == q
        assert Counter(edge_sets(pool)) == Counter(edge_sets(got))

    @pytest.mark.parametrize("p, chunk, batches", [
        # Every set is its target alone: 5 cells hold 5 sets.
        (0.0, 5, [1, 1, 2, 4, 5, 5, 5, 5, 2]),
        # Every set is the whole cycle: 3n cells hold 3 sets.
        (1.0, 3 * 9, [1, 1, 2, 3, 3, 3, 3, 3, 1])])
    def test_batches_ramp_up_to_chunk_cells(self, p, chunk, batches,
                                            monkeypatch):
        monkeypatch.setattr(samplers, "_CHUNK", chunk)
        g = Graph(9, [(i, (i + 1) % 9) for i in range(9)], directed=True)
        chunks = list(map(expand, split_chunks(
            g, SamplerSpec("rr-influence", p=p), sum(batches), seeded(12))))
        assert [len(edge_sets(c)) for c in chunks] == batches

    @pytest.mark.parametrize("seed", [1, 3, 4, 5, 10])
    def test_batch_cells_bounded_when_the_first_set_is_small(self, seed,
                                                             monkeypatch):
        # A directed 20-cycle plus 5 isolated nodes at p = 1: a set is one
        # node or 20.  Every seed here draws an isolated target first, so a
        # batch sized by the first set alone would take _CHUNK sets.
        monkeypatch.setattr(samplers, "_CHUNK", 40)
        g = Graph(25, [(i, (i + 1) % 20) for i in range(20)], directed=True)
        chunks = list(samplers.split_chunks(
            g, SamplerSpec("rr-influence", p=1.0), 2000, seeded(seed)))
        cells = [int((c.single >= 0).sum()) + c.nodes.size for c in chunks]
        assert sum(c.single.size for c in chunks) == 2000
        assert max(cells) <= 2 * 40 + g.n
        assert cells[0] == 1


class GapSpy:
    """A numpy generator whose geometric draws are recorded: the size of
    each call, and the gaps it returned.  With `dense`, the gaps are drawn
    at min(1, p * dense), so a block runs out of gaps before the last
    arc.  A draw that asks for more than 100 blocks fails."""

    def __init__(self, seed, dense=1):
        self.gen, self.dense = np.random.default_rng(seed), dense
        self.sizes, self.gaps = [], []

    def geometric(self, p, size):
        self.sizes.append(size)
        assert len(self.sizes) <= 100, "the draw does not end"
        self.gaps.append(self.gen.geometric(min(1.0, p * self.dense), size))
        return self.gaps[-1]


class TestLivePositions:
    """samplers._live_positions: the live arcs among `total`, drawn as
    geometric gaps."""

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("total", [0, 1, 10 ** 5])
    def test_p_zero_and_one_draw_nothing(self, total, p):
        gen = np.random.default_rng(1)
        state = gen.bit_generator.state
        live = _live_positions(total, p, gen)
        assert gen.bit_generator.state == state
        assert live.tolist() == (list(range(total)) if p == 1.0 else [])

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.7])
    @pytest.mark.parametrize("total", [1, 5, 1000])
    def test_strictly_increasing_within_range(self, total, p):
        gen = np.random.default_rng(2)
        for _ in range(300):
            live = _live_positions(total, p, gen)
            assert live.dtype == np.int64
            assert np.all(np.diff(live) > 0)
            assert np.all((live >= 0) & (live < total))

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.7])
    def test_each_arc_live_with_probability_p(self, p):
        total, draws = 200, 4000
        gen = np.random.default_rng(3)
        hits = np.zeros(total)
        for _ in range(draws):
            hits[_live_positions(total, p, gen)] += 1
        sigma = math.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(hits / draws - p) <= 4 * sigma)
        # One long draw: its count is Binomial(10^6, p).
        count = _live_positions(10 ** 6, p, gen).size
        assert abs(count - p * 10 ** 6) <= 4 * math.sqrt(p * (1 - p) * 10 ** 6)

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.7])
    def test_same_seed_same_positions(self, p):
        a = [_live_positions(t, p, np.random.default_rng(5))
             for t in (10, 10 ** 4)]
        b = [_live_positions(t, p, np.random.default_rng(5))
             for t in (10, 10 ** 4)]
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]

    @pytest.mark.parametrize("dense", [1, 3])
    @pytest.mark.parametrize("p", [0.01, 0.3, 0.7])
    @pytest.mark.parametrize("total", [1, 50, 10 ** 5])
    def test_positions_are_the_running_sum_of_the_gaps(self, total, p, dense):
        # Gaps drawn at 3p fall short of the last arc, so the draw goes on
        # in further blocks from where the last one stopped.
        spy = GapSpy(6, dense)
        live = _live_positions(total, p, spy)
        pos = np.cumsum(np.concatenate(spy.gaps)) - 1
        assert live.tobytes() == pos[pos < total].tobytes()
        # Every block but the last stops short of the last arc.
        ends = np.cumsum([g.sum() for g in spy.gaps]) - 1
        assert np.all(ends[:-1] < total - 1) and ends[-1] >= total - 1
        if dense == 1:
            assert len(spy.sizes) == 1
        elif total == 10 ** 5:
            assert len(spy.sizes) > 1

    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.3, 0.7, 1 - 1e-9])
    @pytest.mark.parametrize("total", [1, 1000, 10 ** 6])
    def test_largest_draw_is_about_the_expected_count(self, total, p):
        # Each block asks for its expected count of gaps plus a margin of
        # three standard deviations and 16.
        spy = GapSpy(7)
        _live_positions(total, p, spy)
        expect = p * total
        assert 1 <= max(spy.sizes) <= expect + 3 * math.sqrt(expect) + 16

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-18])
    def test_tiny_p_is_sorted_and_nearly_empty(self, p):
        # numpy gives a gap of 2**63 - 1 at p of about 1e-300 or less, and
        # gaps near 10^18 at p = 1e-18: summed uncapped, they wrap.
        for seed in range(20):
            spy = GapSpy(seed)
            live = _live_positions(10 ** 6, p, spy)
            assert live.size <= 1
            assert np.all((live >= 0) & (live < 10 ** 6))
            assert len(spy.sizes) == 1


class TestDispatchAndDump:
    @pytest.mark.parametrize("kind", KINDS)
    def test_no_draws_is_the_empty_csr_pair(self, kind):
        ptr, nodes = sample_many(complete_graph(4), SamplerSpec(kind), 0,
                                 seeded(0))
        assert ptr.tolist() == [0] and nodes.size == 0
        assert list(split_chunks(complete_graph(4), SamplerSpec(kind), 0,
                                 seeded(0))) == []

    def test_dispatch(self):
        g = complete_graph(4)
        rng = seeded(0)
        for kind in ("betweenness", "coverage", "kpath", "rr-influence"):
            h = sample(g, SamplerSpec(kind), rng)
            assert isinstance(h, frozenset)

    def test_dump_roundtrip(self, tmp_path):
        edges = [frozenset({1, 2}), frozenset(), frozenset({0})]
        path = tmp_path / "pool.txt"
        with open(path, "w") as fh:
            dump_hyperedges([pack(edges)], fh)
        assert load_hyperedges(str(path)) == edges


class TestUnbiasedness:
    # Small-scale version of the acceptance protocol; seeds are fixed.
    def test_bwc_and_coverage(self):
        rng = seeded(77)
        g = random_graph(20, 0.15, rng)
        n = g.n
        draws = 50000
        r = seeded(78)
        pool_b = edge_sets(sample_many(g, BWC, draws, r))
        pool_c = edge_sets(sample_many(g, COV, draws, r))
        for _ in range(5):
            S = set(rng.sample(range(n), 2))
            for pool, oracle in ((pool_b, exact.set_bwc),
                                 (pool_c, exact.exact_coverage)):
                p = oracle(g, S) / (n * (n - 1))
                emp = sum(1 for h in pool if h & S) / draws
                bound = 4 * math.sqrt(max(p * (1 - p), 1e-12) / draws) + 1e-9
                assert abs(emp - p) <= bound

    @pytest.mark.parametrize("directed", [False, True])
    def test_bwc_and_coverage_pools(self, directed):
        # The pools of sample_many, whose chunks draw their pairs first.
        rng = seeded(81 + directed)
        g = random_graph(20, 0.15 if directed else 0.12, rng, directed)
        n = g.n
        draws = 50000
        for kind, oracle in (("betweenness", exact.set_bwc),
                             ("coverage", exact.exact_coverage)):
            pool = edge_sets(sample_many(g, SamplerSpec(kind), draws,
                                         seeded(83)))
            for _ in range(5):
                S = set(rng.sample(range(n), 2))
                p = oracle(g, S) / (n * (n - 1))
                emp = sum(1 for h in pool if h & S) / draws
                bound = 4 * math.sqrt(max(p * (1 - p), 1e-12) / draws) + 1e-9
                assert abs(emp - p) <= bound, (kind, S, emp, p)

    def test_kpath(self):
        rng = seeded(79)
        g = random_graph(10, 0.3, rng)
        draws = 50000
        r = seeded(80)
        spec = SamplerSpec("kpath", kappa=3)
        pool = edge_sets(sample_many(g, spec, draws, r))
        for _ in range(5):
            S = set(rng.sample(range(g.n), 2))
            p = exact.exact_kpath(g, S, 3) / g.n
            emp = sum(1 for h in pool if h & S) / draws
            bound = 4 * math.sqrt(max(p * (1 - p), 1e-12) / draws) + 1e-9
            assert abs(emp - p) <= bound
