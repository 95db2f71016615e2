import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centmax import exact, experiments, generators, graph, maximize, \
    samplers
from centmax.errors import SizeError
from centmax.graph import Graph
from centmax.maximize import (HyperEdgePool, build_pool, equal_budget,
                              experiment_budget, greedy_cover, hedge,
                              sample_budget)
from centmax.samplers import SamplerSpec
from conftest import complete_graph, edge_sets, naive_cover, path_graph, \
    random_graph, seeded


def pool_of(edge_sets, n, alpha_value=1.0):
    return HyperEdgePool.from_edges([frozenset(h) for h in edge_sets], n,
                                    alpha_value)


def estimate_centrality(pool, nodes, alpha_value=None):
    """alpha * (fraction of pool edges hit by the node set)."""
    if not len(pool):
        raise ValueError("empty pool")
    a = pool.alpha if alpha_value is None else alpha_value
    hit = np.zeros(len(pool), dtype=bool)
    incidence = pool.incidence
    for v in set(nodes):
        hit[incidence.get(v, [])] = True
    return a * int(np.count_nonzero(hit)) / len(pool)


class TestSampleBudget:
    def test_formula_value(self):
        assert sample_budget(100, 5, 0.1, ell=1, maxk_scaled=1.0) == 8290

    def test_scales_with_k_log_n(self):
        base = sample_budget(100, 5, 0.1)
        assert sample_budget(100, 11, 0.1) == pytest.approx(2 * base, rel=0.01)

    def test_experiment_preset_matches_published_count(self):
        assert experiment_budget(5242, 10, 0.1) == 8565

    def test_equal_preset_matches_published_count(self):
        assert equal_budget(5242, 0.1) == 5278

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample_budget(100, 5, 0.0)
        with pytest.raises(ValueError):
            sample_budget(100, 5, 0.1, maxk_scaled=0.0)
        with pytest.raises(ValueError):
            sample_budget(100, 5, 0.1, maxk_scaled=1.5)

    def test_numbers_past_the_float_range_are_refused(self):
        # k and ell are Python ints; each is checked before it would
        # overflow the float of the budget formula.
        for budget in (lambda: sample_budget(20, 10 ** 400, 0.1),
                       lambda: experiment_budget(20, 10 ** 400, 0.1)):
            with pytest.raises(ValueError, match=r"^k=10+ exceeds node "
                               r"count 20$"):
                budget()
        with pytest.raises(SizeError, match="past the float range"):
            sample_budget(20, 2, 0.1, ell=10 ** 400)

    @pytest.mark.parametrize("n", [0, 1])
    def test_presets_refuse_fewer_than_two_nodes(self, n):
        for budget in (lambda: sample_budget(n, 1, 0.1),
                       lambda: experiment_budget(n, 1, 0.1),
                       lambda: equal_budget(n, 0.1),
                       lambda: experiments.ordering_budget(n)):
            with pytest.raises(ValueError, match=rf"^a pool budget needs "
                               rf"n >= 2 nodes, got n={n}$"):
                budget()


class TestBuildPool:
    def test_size(self):
        g = path_graph(5)
        pool = build_pool(g, SamplerSpec("betweenness"), 3, seeded(0))
        assert len(pool) == 3

    def test_isolated_all_empty(self):
        g = Graph(2, [])
        pool = build_pool(g, SamplerSpec("betweenness"), 10, seeded(0))
        assert all(h == frozenset() for h in edge_sets(pool))

    def test_deterministic(self):
        g = random_graph(20, 0.2, seeded(1))
        a = edge_sets(build_pool(g, SamplerSpec("betweenness"), 50, seeded(7)))
        b = edge_sets(build_pool(g, SamplerSpec("betweenness"), 50, seeded(7)))
        assert a == b

    def test_oversized_pool_is_size_error(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the pool-size guard")
        monkeypatch.setattr(samplers, "split_chunks", no_sampling)
        with pytest.raises(SizeError):
            build_pool(path_graph(5), SamplerSpec("betweenness"), 10 ** 7 + 1,
                       seeded(0))

    @pytest.mark.parametrize("call, stubbed, name", [
        (lambda q: build_pool(path_graph(5), SamplerSpec("betweenness"), q,
                              seeded(0)), "split_chunks", "pool size"),
        (lambda q: experiments.ic_spread(path_graph(5), [0], 0.5, q,
                                         seeded(0)), "_live_keys", "runs")],
        ids=["build_pool", "ic_spread"])
    def test_the_count_rule_accepts_the_guard_and_refuses_one_more(
            self, call, stubbed, name, monkeypatch):
        class Drew(Exception):
            """Raised in place of a draw: the count passed the rule."""

        def draw(*args, **kwargs):
            raise Drew
        monkeypatch.setattr(samplers, stubbed, draw)
        guard = maximize._POOL_GUARD
        with pytest.raises(Drew):
            call(guard)
        with pytest.raises(SizeError, match=f"^{name}={guard + 1} exceeds "
                                            f"the guard {guard}$"):
            call(guard + 1)

    @pytest.mark.parametrize("share", [0.5, 1.0])
    def test_stored_nodes_over_the_guard_is_size_error(self, share,
                                                       monkeypatch):
        g = random_graph(30, 0.2, seeded(4), directed=True)
        spec = SamplerSpec("rr-influence", p=0.3)
        stored = build_pool(g, spec, 300, seeded(5)).edge_nodes.size
        drawn, split_chunks = [], samplers.split_chunks

        def spy(*args):
            for chunk in split_chunks(*args):
                drawn.append(chunk.nodes.size)
                yield chunk
        monkeypatch.setattr(samplers, "split_chunks", spy)
        monkeypatch.setattr(maximize, "_NODE_GUARD", stored)
        assert build_pool(g, spec, 300, seeded(5)).edge_nodes.size == stored
        guard = int(share * stored) - 1
        monkeypatch.setattr(maximize, "_NODE_GUARD", guard)
        drawn.clear()
        with pytest.raises(SizeError, match="exceeds the guard"):
            build_pool(g, spec, 300, seeded(5))
        # Refused at the chunk that passed the guard, before the next one.
        assert len(drawn) > 1
        assert sum(drawn[:-1]) <= guard < sum(drawn)

    def test_peak_memory_per_stored_node(self):
        # The pool keeps 16 bytes per stored node; building it must not hold
        # the drawn chunks, their concatenation and a split copy at once.
        g = generators.gen_kronecker([[0.9, 0.5], [0.5, 0.2]], 12,
                                     seeded(1))
        g.rcsr()
        tracemalloc.start()
        try:
            pool = build_pool(g, SamplerSpec("rr-influence", p=0.3), 4000,
                              seeded(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = pool.edge_nodes.size
        assert stored > 10 ** 5
        assert peak <= 36 * stored

    def test_a_run_leaves_only_its_pool(self):
        # The pair sampler's BFS rows live for one run: on ran:1000 they
        # take about 6 MB while it runs, and none is left once the pool
        # is built.
        g = generators.gen_ran(1000, seeded(1))
        assert g.n <= graph._CACHE_MAX_N
        g.adj  # built on first read, and kept by the graph
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pool = build_pool(g, SamplerSpec("betweenness"), 6908,
                              seeded(5))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (pool.edge_ptr, pool.edge_nodes,
                                      pool.node_ptr, pool.node_edges,
                                      pool.singles))
        assert kept - held < 2 ** 20

    def test_incidence_inverse_of_membership(self):
        g = random_graph(15, 0.25, seeded(2))
        pool = build_pool(g, SamplerSpec("coverage"), 40, seeded(3))
        for v, idxs in pool.incidence.items():
            for i in idxs:
                assert v in pool.edges[i]
        for i, h in enumerate(pool.edges):
            for v in h:
                assert i in pool.incidence[v]

    @pytest.mark.parametrize("spec", [SamplerSpec("rr-influence", p=0.3),
                                      SamplerSpec("coverage")])
    def test_views_the_benchmark_reads(self, monkeypatch, spec):
        # bench/layers.py times HyperEdgePool.from_edges as the index step
        # and reads pool.edges and pool.incidence off its result.
        calls = []
        index = HyperEdgePool.from_edges.__func__

        def counted(cls, *args):
            calls.append(args)
            return index(cls, *args)
        monkeypatch.setattr(HyperEdgePool, "from_edges", classmethod(counted))
        g = random_graph(30, 0.1, seeded(4), directed=True)
        pool = build_pool(g, spec, 300, seeded(5))
        drawn = edge_sets(samplers.sample_many(g, spec, 300, seeded(5)))
        assert len(calls) == 1
        assert Counter(len(h) for h in pool.edges) == \
            Counter(len(h) for h in drawn)
        assert Counter(edge_sets(pool)) == Counter(drawn)
        assert len(pool.incidence) == len(frozenset().union(*drawn))
        small = HyperEdgePool.from_edges([frozenset({0, 1})], 3, 1.0)
        assert [len(h) for h in small.edges] == [2]
        assert len(small.incidence) == 2

    @pytest.mark.parametrize("kind", ["rr-influence", "kpath", "betweenness"])
    def test_only_sets_of_two_or_more_nodes_are_stored(self, kind):
        g = random_graph(30, 0.1, seeded(4), directed=True)
        spec = SamplerSpec(kind, p=0.05)
        pool = build_pool(g, spec, 400, seeded(6))
        drawn = edge_sets(samplers.sample_many(g, spec, 400, seeded(6)))
        assert len(pool) == 400
        assert np.diff(pool.edge_ptr).min(initial=2) >= 2
        assert pool.edge_ptr.size - 1 == sum(1 for h in drawn if len(h) > 1)
        assert pool.singles.tolist() == np.bincount(
            [v for h in drawn if len(h) == 1 for v in h],
            minlength=g.n).tolist()
        assert pool.empties == drawn.count(frozenset())


class TestFromEdges:
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_node_out_of_range(self, bad):
        with pytest.raises(ValueError, match=f"node {bad} out of range"):
            HyperEdgePool.from_edges([{bad}], 3, 1.0)
        with pytest.raises(ValueError, match=f"node {bad} out of range"):
            HyperEdgePool.from_edges([{0, 1}, {bad, 0}], 3, 1.0)
        csr = (np.array([0, 2, 3]), np.array([0, 1, bad]))
        with pytest.raises(ValueError, match=f"node {bad} out of range"):
            HyperEdgePool.from_edges(csr, 3, 1.0)

    def test_names_the_node(self):
        with pytest.raises(ValueError, match="node 5 out of range"):
            HyperEdgePool.from_edges([{5}], 3, 1.0)

    @pytest.mark.parametrize("edges", [((0, 1), (1, 2)), ((0, 1, 2),),
                                       ((0, 1), (1, 2), (2,)),
                                       [frozenset({0, 1})]])
    def test_tuples_and_frozensets_are_node_sets(self, edges):
        # Only a pair of numpy arrays is a CSR pair.
        pool = HyperEdgePool.from_edges(edges, 3, 1.0)
        assert edge_sets(pool) == [frozenset(h) for h in edges]

    @pytest.mark.parametrize("edges", [[[0.5, 1]], [{0, 1}, {1.0}],
                                       [[0, "1"]]])
    def test_non_integer_ids_are_refused(self, edges):
        # Read as int64, 0.5 would index node 0.
        with pytest.raises(ValueError, match="integer ids"):
            HyperEdgePool.from_edges(edges, 3, 1.0)


def naive_greedy(pool, k):
    edges = edge_sets(pool)
    alive = [True] * len(edges)
    chosen = []
    for _ in range(k):
        best, best_deg = None, -1
        for v in range(pool.n):
            if v in chosen:
                continue
            deg = sum(1 for i, h in enumerate(edges) if alive[i] and v in h)
            if deg > best_deg:
                best, best_deg = v, deg
        if best_deg == 0:
            best = next(v for v in range(pool.n) if v not in chosen)
        for i, h in enumerate(edges):
            if best in h:
                alive[i] = False
        chosen.append(best)
    return chosen


@st.composite
def pools_and_k(draw):
    """Node sets over n ids, drawn from a few distinct ones (so repeats and
    tied degrees are common; the empty set may be among them), and k."""
    n = draw(st.integers(1, 10))
    distinct = draw(st.lists(st.frozensets(st.integers(0, n - 1)),
                             min_size=1, max_size=6))
    edges = draw(st.lists(st.sampled_from(distinct), max_size=25))
    return edges, n, draw(st.integers(1, n))


@st.composite
def compact_pools(draw):
    """Draws over n ids from a few distinct node sets, mixing empty,
    one-node and larger sets (so every kind repeats), a k, and a cut."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    kinds = [st.just(frozenset()), node.map(lambda v: frozenset({v}))]
    if n > 1:
        kinds.append(st.frozensets(node, min_size=2, max_size=6))
    distinct = draw(st.lists(st.one_of(kinds), min_size=1, max_size=8))
    edges = draw(st.lists(st.sampled_from(distinct), max_size=40))
    return edges, n, draw(st.integers(1, n)), draw(
        st.integers(0, len(edges)))


class TestGreedyCover:
    def test_hand_example(self):
        pool = pool_of([{1, 2}, {2, 3}, {3}], 4)
        res = greedy_cover(pool, 1)
        assert res.selected == [2]
        assert res.marginal_degrees == [2]

    def test_single_covering_node(self):
        pool = pool_of([{1}, {1}, {1}], 3)
        res = greedy_cover(pool, 2)
        assert res.selected == [1, 0]
        assert res.marginal_degrees == [3, 0]

    def test_all_empty(self):
        pool = pool_of([set(), set()], 3)
        res = greedy_cover(pool, 1)
        assert res.selected == [0]
        assert res.estimated_centrality == [0.0]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            greedy_cover(pool_of([{0}], 2), 3)

    def test_matches_naive_greedy(self):
        rng = seeded(5)
        for _ in range(30):
            n = rng.randrange(3, 12)
            edges = [set(rng.sample(range(n), rng.randrange(0, n)))
                     for _ in range(rng.randrange(1, 25))]
            pool = pool_of(edges, n)
            k = rng.randrange(1, n + 1)
            assert greedy_cover(pool, k).selected == naive_greedy(pool, k)

    @settings(max_examples=400, deadline=None)
    @given(pools_and_k())
    def test_matches_naive_greedy_property(self, case):
        edges, n, k = case
        res = greedy_cover(pool_of(edges, n, alpha_value=2.0), k)
        assert res.selected == naive_greedy(pool_of(edges, n), k)
        left, marginals = list(edges), []
        for v in res.selected:
            marginals.append(sum(1 for h in left if v in h))
            left = [h for h in left if v not in h]
        assert res.marginal_degrees == marginals
        covered = len(edges) - len(left)
        assert res.estimated_centrality[-1] == (2.0 * covered / len(edges)
                                                if edges else 0.0)

    @settings(max_examples=300, deadline=None)
    @given(compact_pools())
    def test_compact_pool_matches_naive_cover(self, case):
        # Draws [:cut] reach from_edges as node sets; the rest as one-node
        # counts and an empty count, as build_pool passes them.
        edges, n, k, cut = case
        counted = edges[cut:]
        singles = np.bincount([v for h in counted if len(h) == 1 for v in h],
                              minlength=n)
        pool = HyperEdgePool.from_edges(
            edges[:cut] + [h for h in counted if len(h) > 1], n, 3.0,
            singles, counted.count(frozenset()))
        assert len(pool) == len(edges)
        assert Counter(edge_sets(pool)) == Counter(edges)
        res = greedy_cover(pool, k)
        assert (res.selected, res.marginal_degrees,
                res.estimated_centrality) == naive_cover(edges, n, k, 3.0)
        assert res.sample_count == len(edges)

    def test_zero_degree_tail_is_linear(self):
        # Once every degree is zero the picks are the unused ids in order;
        # finding each must not rescan the ids already passed.
        n = 40000
        res = greedy_cover(pool_of([{1, 2}] * 10, n), n)
        assert res.selected == [1, 0] + list(range(2, n))
        assert res.marginal_degrees == [10] + [0] * (n - 1)

    def test_zero_rescore_leaves_the_heap_before_the_tail(self):
        # Node 5 re-scores to zero after 4 is picked, while 0, 1 and 2
        # have no hyper-edge at all; node 3 still covers one.  The tail of
        # unused ids comes only after the heap is drained.
        edges = [{4, 5}, {4, 5}, {3}]
        res = greedy_cover(pool_of(edges, 6), 6)
        assert res.selected == [4, 3, 0, 1, 2, 5]
        assert res.marginal_degrees == [2, 1, 0, 0, 0, 0]
        assert (res.selected, res.marginal_degrees,
                res.estimated_centrality) == naive_cover(edges, 6, 6)

    def test_peak_memory_at_small_k_is_a_few_arrays_of_n(self):
        # A 10^6-node pool of 14 000 hyper-edges on 6 * 10^4 nodes: the
        # greedy reads a node's counts only when it pops the node, so ten
        # picks hold no per-node Python list of all n nodes.
        n = 10 ** 6
        touched = np.random.default_rng(3).choice(n, 60000, replace=False)
        pool = HyperEdgePool.from_edges(
            (np.arange(0, 70001, 5), touched[np.arange(70000) % 60000]), n,
            1.0)
        tracemalloc.start()
        try:
            result = greedy_cover(pool, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.marginal_degrees == [2] * 10
        assert peak <= 24 * n

    def test_marginals_nonincreasing(self):
        rng = seeded(6)
        for _ in range(20):
            n = rng.randrange(3, 10)
            edges = [set(rng.sample(range(n), rng.randrange(0, n)))
                     for _ in range(15)]
            res = greedy_cover(pool_of(edges, n), n)
            assert all(a >= b for a, b in
                       zip(res.marginal_degrees, res.marginal_degrees[1:]))

    def test_approximation_vs_brute_force(self):
        rng = seeded(7)
        for _ in range(15):
            n = rng.randrange(4, 12)
            edges = [set(rng.sample(range(n), rng.randrange(1, 4)))
                     for _ in range(12)]
            pool = pool_of(edges, n)
            k = rng.randrange(1, 4)
            res = greedy_cover(pool, k)
            greedy_cov = sum(res.marginal_degrees)
            best = 0
            for subset in combinations(range(n), k):
                hit = set()
                for v in subset:
                    hit.update(pool.incidence.get(v, ()))
                best = max(best, len(hit))
            assert greedy_cov >= (1 - 1 / math.e) * best - 1e-9


class TestEstimate:
    def test_empty_set(self):
        pool = pool_of([{1}, {2}], 3, alpha_value=6.0)
        assert estimate_centrality(pool, set()) == 0.0

    def test_full_set(self):
        pool = pool_of([{1}, set(), {2}], 3, alpha_value=6.0)
        assert estimate_centrality(pool, {0, 1, 2}) == pytest.approx(4.0)

    def test_half(self):
        pool = pool_of([{1}, {2}], 3, alpha_value=6.0)
        assert estimate_centrality(pool, {1}) == pytest.approx(3.0)

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            estimate_centrality(pool_of([], 3), {1})

    def test_monotone_submodular_on_chains(self):
        rng = seeded(8)
        for _ in range(20):
            n = 10
            edges = [set(rng.sample(range(n), rng.randrange(1, 5)))
                     for _ in range(20)]
            pool = pool_of(edges, n, alpha_value=1.0)
            ids = rng.sample(range(n), 6)
            s1 = set(ids[:2])
            s2 = set(ids[:4])
            u = ids[5]
            f = lambda S: estimate_centrality(pool, S)
            assert f(s1) <= f(s2) + 1e-12
            assert f(s2 | {u}) - f(s2) <= f(s1 | {u}) - f(s1) + 1e-12


class TestHedge:
    @pytest.mark.parametrize("k,budget", [(0, 50), (-2, None), (6, 50),
                                          (5000, None)])
    def test_k_out_of_range_is_refused_before_sampling(self, k, budget,
                                                        monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the k check")
        monkeypatch.setattr(samplers, "split_chunks", no_sampling)
        with pytest.raises(ValueError, match="k must be positive|exceeds"):
            hedge(path_graph(5), SamplerSpec("betweenness"), k, 0.3,
                  rng=seeded(0), budget=budget)

    @pytest.mark.parametrize("kind", ["betweenness", "coverage"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_a_second_run_equals_one_on_a_fresh_graph(self, directed, kind):
        # A run keeps no BFS row on the graph, so the second run on one
        # Graph sweeps its sources anew and picks as a first run would.
        def ran1000():
            g = generators.gen_ran(1000, seeded(1))
            if not directed:
                return g
            return Graph(g.n, [(v, u) if i % 3 == 0 else (u, v)
                               for i, (u, v) in enumerate(g.edges())],
                         directed=True)

        def run(g):
            res = hedge(g, SamplerSpec(kind), 10, 0.1, rng=seeded(4),
                        budget=3000)
            return (res.selected, res.marginal_degrees,
                    res.estimated_centrality, res.sample_count, res.alpha)
        g = ran1000()
        hedge(g, SamplerSpec(kind), 10, 0.1, rng=seeded(3), budget=3000)
        assert run(g) == run(ran1000())

    def test_complete_graph_zero(self):
        g = complete_graph(5)
        res = hedge(g, SamplerSpec("betweenness"), 2, 0.3, rng=seeded(0))
        assert res.estimated_centrality[-1] == 0.0

    def test_p3_picks_center(self):
        g = path_graph(3)
        res = hedge(g, SamplerSpec("betweenness"), 1, 0.1, rng=seeded(1),
                    budget=10000)
        assert res.selected == [1]
        assert res.scaled_centrality()[0] == pytest.approx(2 / 6, abs=0.02)

    def test_concentration_against_exact(self):
        # Estimate of a fixed set is close to its exact value at the
        # theory budget.
        rng = seeded(9)
        g = random_graph(24, 0.15, rng)
        n = g.n
        _, maxk = exact.brute_force_max(g, 2)
        if maxk == 0:
            pytest.skip("degenerate random draw")
        alpha_v = n * (n - 1)
        scaled = maxk / alpha_v
        eps = 0.3
        q = sample_budget(n, 2, eps, ell=1, maxk_scaled=scaled)
        failures = 0
        reps = 40
        S = exact.ex_greedy(g, 2)[0]
        exact_val = exact.set_bwc(g, S)
        for i in range(reps):
            pool = build_pool(g, SamplerSpec("betweenness"), q, seeded(100 + i))
            est = estimate_centrality(pool, S)
            if abs(est - exact_val) > eps * maxk:
                failures += 1
        assert failures <= max(1, reps // n)
