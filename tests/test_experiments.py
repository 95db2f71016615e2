import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centmax import exact, samplers
from centmax.errors import SizeError
from centmax.experiments import (attack_curve, centrality_ordering, evolve,
                                 ic_spread, ordering_budget,
                                 ris_influence_max, snapshot_grid)
from centmax.graph import Graph, TemporalEdgeList, bfs_dag
from centmax.samplers import SamplerSpec
from conftest import complete_graph, exact_influence, \
    largest_component_size, path_graph, random_graph, seeded, small_graphs, \
    star_graph


def temporal(records):
    """The TemporalEdgeList of time-sorted (u, v, t) records."""
    cols = np.array(records, dtype=np.int64).reshape(-1, 3)
    return TemporalEdgeList(cols[:, :2], cols[:, 2])


class TestOrdering:
    def test_p3_center_first(self):
        order = centrality_ordering(path_graph(3), SamplerSpec("betweenness"),
                                    seeded(0))
        assert order[0] == 1

    def test_complete_graph_id_order(self):
        order = centrality_ordering(complete_graph(5),
                                    SamplerSpec("betweenness"), seeded(1))
        assert order == [0, 1, 2, 3, 4]

    def test_budget_formula(self):
        assert ordering_budget(5242, 0.25) == math.ceil(
            100 * math.log(5242) / 0.0625)

    def test_triangle_method(self):
        order = exact.triangle_greedy(complete_graph(4), 4)
        assert order[0] == 0

    def test_full_permutation(self):
        g = random_graph(12, 0.3, seeded(2))
        order = centrality_ordering(g, SamplerSpec("coverage"), seeded(3))
        assert sorted(order) == list(range(12))


def naive_curve(g, ordering, cap):
    return [largest_component_size(g, set(ordering[:i]))
            for i in range(cap + 1)]


class TestAttackCurve:
    def test_p4(self):
        curve = attack_curve(path_graph(4), [1, 0, 2, 3], 2)
        assert curve.lcc_size[0] == 4
        assert curve.lcc_size[1] == 2

    def test_star_center_first(self):
        curve = attack_curve(star_graph(3), [0, 1, 2, 3], 1)
        assert curve.lcc_size == [4, 1]

    @pytest.mark.parametrize("ordering", [[1, 2], [1, 4, 2], [1, -1, 2],
                                          [1, 1, 2]])
    def test_bad_ordering_prefix_is_refused(self, ordering):
        # Too short, an id out of range, a repeated id.
        with pytest.raises(ValueError, match=r"not distinct ids in 0\.\.3"):
            attack_curve(path_graph(4), ordering, 3)

    def test_entries_past_cap_are_not_read(self):
        curve = attack_curve(path_graph(4), [1, 0, 0, 9], 2)
        assert curve.lcc_size == [4, 2, 2]

    def test_empty_prefix_is_intact_lcc(self):
        g = random_graph(30, 0.1, seeded(1))
        curve = attack_curve(g, list(range(g.n)), 0)
        assert curve.lcc_size == [largest_component_size(g)]

    def test_matches_naive_recomputation(self):
        rng = seeded(2)
        for trial in range(10):
            n = rng.randrange(5, 60)
            g = random_graph(n, 0.08, rng, directed=(trial % 3 == 0))
            order = list(range(n))
            rng.shuffle(order)
            curve = attack_curve(g, order, n)
            assert curve.lcc_size == naive_curve(g, order, n)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_naive_recomputation_on_any_graph(self, data):
        g = data.draw(small_graphs())
        order = data.draw(st.permutations(range(g.n)))
        cap = data.draw(st.integers(0, g.n))
        assert (attack_curve(g, order, cap).lcc_size
                == naive_curve(g, order, cap))

    def test_nonincreasing(self):
        g = random_graph(40, 0.1, seeded(3))
        order = centrality_ordering(g, SamplerSpec("betweenness"), seeded(4))
        curve = attack_curve(g, order, g.n)
        assert all(a >= b for a, b in zip(curve.lcc_size, curve.lcc_size[1:]))


class TestIcSpread:
    def test_p_zero(self):
        g = complete_graph(6)
        assert ic_spread(g, {0, 3}, 0.0, runs=50, rng=seeded(0)) == 2.0

    def test_p_one(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)], directed=True)
        assert ic_spread(g, {0}, 1.0, runs=20, rng=seeded(1)) == 3.0

    def test_single_edge_expectation(self):
        g = Graph(2, [(0, 1)], directed=True)
        runs = 20000
        est = ic_spread(g, {0}, 0.5, runs=runs, rng=seeded(2))
        assert abs(est - 1.5) <= 3 * math.sqrt(0.25 / runs)

    def test_seed_dedup(self):
        g = complete_graph(3)
        assert ic_spread(g, [1, 1], 0.0, runs=10, rng=seeded(3)) == 1.0


def live_edge_cases():
    """(graph, seeds) with at most 16 arcs, so exact_influence can
    enumerate every live-edge world; directed and undirected."""
    rng = seeded(41)
    cases = []
    while len(cases) < 8:
        directed = len(cases) % 2 == 1
        n = rng.randrange(4, 8)
        g = random_graph(n, 0.5 if directed else 0.6, rng, directed=directed)
        arcs = sum(len(a) for a in g.adj)
        if 6 <= arcs <= 16:
            cases.append((g, rng.sample(range(n), 1 + len(cases) % 3)))
    return cases


class TestLiveEdgeCascades:
    """ic_spread runs samplers._live_keys forward over the out-CSR."""

    @pytest.mark.parametrize("p", [0.3, 0.7])
    @pytest.mark.parametrize("case", live_edge_cases())
    def test_mean_within_4_sigma_of_the_exact_spread(self, case, p):
        g, seeds = case
        runs = 20000
        est = ic_spread(g, seeds, p, runs=runs, rng=seeded(7))
        # A cascade size lies in [|seeds|, n], so its variance is at most
        # (n - |seeds|)^2 / 4.
        sigma = (g.n - len(seeds)) / 2 / math.sqrt(runs)
        assert abs(est - exact_influence(g, seeds, p)) <= 4 * sigma

    def test_same_seed_same_spread(self):
        g = random_graph(40, 0.08, seeded(5), directed=True)
        a = ic_spread(g, [0, 7, 9], 0.4, runs=3000, rng=seeded(8))
        assert a == ic_spread(g, [0, 7, 9], 0.4, runs=3000, rng=seeded(8))
        assert a != ic_spread(g, [0, 7, 9], 0.4, runs=3000, rng=seeded(9))

    @pytest.mark.parametrize("per, batches", [(1, [1] * 7),
                                              (2, [1, 1, 2, 2, 1]),
                                              (None, [1, 1, 2, 3])])
    @pytest.mark.parametrize("directed", [False, True])
    def test_p_zero_and_one_exact_at_every_batch_size(
            self, per, batches, directed, monkeypatch):
        g = random_graph(30, 0.06, seeded(6), directed=directed)
        seeds = [2, 11, 23]
        reach = set()
        for s in seeds:
            dist, _ = bfs_dag(g, s)
            reach |= {v for v in range(g.n) if dist[v] >= 0}
        live_keys, runs_per_batch = samplers._live_keys, []

        def spy(csr, start, p, gen):
            runs_per_batch.append(start.size // len(seeds))
            return live_keys(csr, start, p, gen)
        monkeypatch.setattr(samplers, "_live_keys", spy)
        for p, cells in ((0.0, len(seeds)), (1.0, len(reach))):
            if per is not None:
                # A batch holds _CHUNK // cells runs, once the ramp
                # 1, 1, 2, 4, ... of at most the runs done reaches that.
                monkeypatch.setattr(samplers, "_CHUNK", per * cells)
            runs_per_batch.clear()
            assert ic_spread(g, seeds, p, runs=7, rng=seeded(1)) == cells
            assert runs_per_batch == batches

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-18])
    def test_tiny_p_spreads_only_the_seeds(self, p):
        g = random_graph(40, 0.1, seeded(4))
        assert ic_spread(g, [1, 5], p, runs=500, rng=seeded(3)) == 2.0

    def test_empty_seeds_spread_nothing(self):
        assert ic_spread(complete_graph(4), [], 0.5, rng=seeded(0)) == 0.0

    @pytest.mark.parametrize("seeds", [[-3], [3], [0, 5]])
    def test_seed_out_of_range_is_refused(self, seeds):
        with pytest.raises(ValueError, match=f"node {seeds[-1]} out of range"):
            ic_spread(path_graph(3), seeds, 1.0, runs=5, rng=seeded(0))

    @pytest.mark.parametrize("p", [-0.5, 1.5, math.nan])
    def test_p_outside_0_to_1_is_refused(self, p):
        with pytest.raises(ValueError, match=r"p must be in \[0,1\]"):
            ic_spread(path_graph(3), [0], p, runs=5, rng=seeded(0))

    def test_nonpositive_runs_is_refused(self):
        with pytest.raises(ValueError, match="runs must be positive"):
            ic_spread(path_graph(3), [0], 0.5, runs=0, rng=seeded(0))

    @pytest.mark.parametrize("runs", [10 ** 7 + 1, 2 ** 63])
    def test_runs_past_the_pool_guard_are_refused(self, runs):
        with pytest.raises(SizeError, match=f"runs={runs} exceeds the guard"):
            ic_spread(path_graph(3), [0], 0.5, runs=runs, rng=seeded(0))


class TestRisInfluenceMax:
    def test_star_p_one_selects_center(self):
        g = star_graph(5)
        picks = ris_influence_max(g, 1, 500, 1.0, seeded(0))
        assert picks == [0]

    def test_p_zero_most_frequent_targets(self):
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        picks = ris_influence_max(g, 2, 300, 0.0, seeded(1))
        assert len(picks) == 2

    def test_directed_universal_reacher(self):
        # 0 reaches everyone; with p=1 every RR set contains 0.
        g = Graph(4, [(0, 1), (0, 2), (1, 3)], directed=True)
        picks = ris_influence_max(g, 1, 200, 1.0, seeded(2))
        assert picks == [0]


class TestEvolve:
    def test_single_snapshot_matches_static(self):
        records = [(0, 1, 5), (1, 2, 5), (2, 3, 5)]
        spec = SamplerSpec("betweenness")
        rows = evolve(temporal(records), [5], [1], spec, seeded(0))
        assert len(rows) == 1
        row = rows[0]
        assert (row.n, row.m) == (4, 3)
        assert row.avg_degree == pytest.approx(1.5)
        # Static pipeline with the same seed gives the same estimate.
        from centmax import maximize
        from centmax.experiments import ordering_budget
        from centmax.graph import graph_from_labeled_edges
        g = graph_from_labeled_edges(np.array([(0, 1), (1, 2), (2, 3)]))
        pool = maximize.build_pool(g, spec, ordering_budget(4), seeded(0))
        res = maximize.greedy_cover(pool, 1)
        assert row.scaled_centrality == pytest.approx(
            res.scaled_centrality()[0])

    def test_snapshot_before_first_timestamp(self):
        rows = evolve(temporal([(0, 1, 10)]), [3], [1],
                      SamplerSpec("betweenness"), seeded(0))
        assert rows[0].n == 0 and rows[0].scaled_centrality == 0.0

    def test_self_loop_only_snapshot(self):
        rows = evolve(temporal([(0, 0, 5), (0, 1, 10)]), [5], [1, 2],
                      SamplerSpec("betweenness"), seeded(0))
        assert [(r.timestamp, r.n, r.m, r.avg_degree, r.k,
                 r.scaled_centrality) for r in rows] == [
            (5, 1, 0, 0.0, 1, 0.0), (5, 1, 0, 0.0, 2, 0.0)]

    def test_cumulative_growth(self):
        records = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]
        rows = evolve(temporal(records), [1, 4], [1],
                      SamplerSpec("betweenness"), seeded(1))
        assert rows[0].m == 1 and rows[1].m == 4

    def test_exact_mode_deletes(self):
        records = [(0, 1, 1), (1, 2, 1), (5, 6, 2)]
        rows = evolve(temporal(records), [2], [1],
                      SamplerSpec("betweenness"), seeded(2), mode="exact")
        assert rows[0].n == 2 and rows[0].m == 1

    def test_snapshot_grid(self):
        grid = snapshot_grid(temporal([(0, 1, t) for t in range(100)]), 5)
        assert grid[0] == 0 and grid[-1] == 99 and len(grid) == 5

    @pytest.mark.parametrize("stamps", [[7], [3, 3, 3], [0, 2, 2, 5, 9, 9, 9],
                                        list(range(40))])
    def test_snapshot_grid_past_the_stamp_count(self, stamps):
        # Past times.size positions the grid picks every index, so a huge
        # count costs no more than times.size.
        t = temporal([(0, 1, s) for s in stamps])
        every = sorted(set(stamps))
        assert snapshot_grid(t, 10 ** 18) == every
        for count in range(t.times.size, 3 * t.times.size + 2):
            assert snapshot_grid(t, count) == every

    @pytest.mark.parametrize("count", [0, -3])
    def test_snapshot_grid_needs_a_positive_count(self, count):
        with pytest.raises(ValueError, match="snapshot count"):
            snapshot_grid(temporal([(0, 1, t) for t in range(10)]), count)
