import math
import tracemalloc

import numpy as np
import pytest

from centmax import generators
from centmax.errors import SizeError
from centmax.exact import brandes
from centmax.generators import (RanState, expected_kronecker_edges,
                                gen_hypercube, gen_kronecker,
                                gen_lower_bound, gen_ran,
                                kronecker_probability_matrix)
from centmax.graph import bfs_dag
from conftest import largest_component_size, seeded

CORE_PERIPHERY = [[0.9, 0.5], [0.5, 0.2]]


class TestKronecker:
    def test_all_ones_gives_complete(self):
        g = gen_kronecker([[1, 1], [1, 1]], 2, seeded(0))
        assert g.n == 4 and g.m == 6

    def test_all_zeros_gives_empty(self):
        g = gen_kronecker([[0, 0], [0, 0]], 3, seeded(0))
        assert g.m == 0

    def test_probability_matrix(self):
        p = kronecker_probability_matrix(CORE_PERIPHERY, 2)
        assert p.shape == (4, 4)
        assert p[0, 0] == pytest.approx(0.81)
        assert p[3, 3] == pytest.approx(0.04)
        assert p[0, 3] == pytest.approx(0.25)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gen_kronecker(CORE_PERIPHERY, 0, seeded(0))
        with pytest.raises(ValueError):
            gen_kronecker([[2, 0], [0, 0]], 3, seeded(0))

    def test_edge_count_concentrates(self):
        i = 6
        mean, std = expected_kronecker_edges(CORE_PERIPHERY, i)
        counts = [gen_kronecker(CORE_PERIPHERY, i, seeded(s)).m
                  for s in range(50)]
        assert abs(np.mean(counts) - mean) <= 5 * std / math.sqrt(50)

    def test_ball_dropping_is_close(self):
        i = 13
        mean, _ = expected_kronecker_edges(CORE_PERIPHERY, i)
        g = gen_kronecker(CORE_PERIPHERY, i, seeded(3))
        assert g.n == 2 ** i and g.meta["method"] == "ball"
        # Ball dropping Poissonizes and collides; allow a loose band.
        assert 0.5 * mean < g.m <= 1.1 * mean

    @pytest.mark.parametrize("levels", [0, 2, 8])
    def test_row_blocks_match_dense_draw(self, levels, monkeypatch):
        # One (n, n) uniform draw against the full probability matrix,
        # upper triangle: the exact path must give the same edges for any
        # block height.
        monkeypatch.setattr(generators, "_KRON_BLOCK_LEVELS", levels)
        for seed in ([[0.9, 0.5], [0.5, 0.2]], [[0.99, 0.45], [0.3, 0.25]]):
            for i in range(1, 9):
                for s in range(3):
                    nrng = np.random.default_rng(seeded(s).getrandbits(64))
                    n = 2 ** i
                    dense = nrng.random((n, n)) < \
                        kronecker_probability_matrix(seed, i)
                    us, vs = np.nonzero(np.triu(dense, k=1))
                    g = gen_kronecker(seed, i, seeded(s))
                    assert g.meta["method"] == "exact"
                    assert sorted(g.edges()) == list(zip(us.tolist(),
                                                         vs.tolist()))

    @pytest.mark.parametrize("seed", [CORE_PERIPHERY,
                                      [[0.99, 0.45], [0.3, 0.25]],
                                      [[0, 0], [0, 0]]])
    @pytest.mark.parametrize("block", [1000, 4096])
    def test_ball_blocks_match_one_draw(self, seed, block, monkeypatch):
        # One (count, i) draw of cells, as the balls were dropped before
        # they came in blocks: blocks of any size give the same edges.
        monkeypatch.setattr(generators, "_KRON_BALL_BLOCK", block)
        p = np.asarray(seed, dtype=np.float64)
        mass = p.sum()
        for i in (13, 14, 16):
            for s in range(3):
                nrng = np.random.default_rng(seeded(s).getrandbits(64))
                count = int(nrng.poisson(mass ** i / 2.0))
                cells = nrng.choice(4, size=(count, i),
                                    p=(p / mass).ravel() if count else None)
                weights = 1 << np.arange(i - 1, -1, -1)
                us = ((cells // 2) * weights).sum(axis=1).tolist()
                vs = ((cells % 2) * weights).sum(axis=1).tolist()
                g = gen_kronecker(seed, i, seeded(s))
                assert g.meta["method"] == "ball"
                assert sorted(g.edges()) == sorted(
                    {(min(u, v), max(u, v)) for u, v in zip(us, vs)
                     if u != v})

    def test_ball_cells_are_held_one_block_at_a_time(self, monkeypatch):
        # kron:18 drops about 315k balls; held at once, their cell arrays
        # and weighted products peaked near 190 MB.
        monkeypatch.setattr(generators, "Graph",
                            lambda n, edges, **kwargs: edges)
        tracemalloc.start()
        try:
            edges = gen_kronecker(CORE_PERIPHERY, 18, seeded(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(edges) > 300_000
        assert peak < 48e6

    def test_seed_checked_on_both_paths(self):
        for i in (4, 13):
            with pytest.raises(ValueError):
                gen_kronecker([[2, 0], [0, 0]], i, seeded(0))
            assert gen_kronecker([[0, 0], [0, 0]], i, seeded(0)).m == 0

    def test_deterministic(self):
        a = gen_kronecker(CORE_PERIPHERY, 5, seeded(7))
        b = gen_kronecker(CORE_PERIPHERY, 5, seeded(7))
        assert a.adj == b.adj


class TestRan:
    def test_base_triangle(self):
        g = gen_ran(3, seeded(0))
        assert g.n == 3 and g.m == 3

    def test_n4_is_k4(self):
        g = gen_ran(4, seeded(0))
        assert g.n == 4 and g.m == 6

    def test_edge_count_formula(self):
        g = gen_ran(100, seeded(1))
        assert g.m == 3 * 100 - 6

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_ran(2, seeded(0))

    def test_structural_invariants_every_step(self):
        for seed in range(20):
            rng = seeded(seed)
            state = RanState()
            while state.t < 60:
                state.step(rng)
                t = state.t
                assert len(state.edges) == 3 * t - 6
                assert len(state.faces) == 2 * t - 5

    def test_insertion_degree_three(self):
        rng = seeded(5)
        state = RanState()
        degrees = {0: 2, 1: 2, 2: 2}
        while state.t < 40:
            before = len(state.edges)
            new = state.step(rng)
            added = state.edges[before:]
            assert len(added) == 3
            assert all(new in e for e in added)

    def test_connected(self):
        g = gen_ran(50, seeded(9))
        assert largest_component_size(g) == 50


class TestHypercube:
    def test_r2_is_cycle(self):
        g = gen_hypercube(2)
        assert g.n == 4 and g.m == 4
        assert np.diff(g.csr()[0]).tolist() == [2] * 4

    def test_r3_counts(self):
        g = gen_hypercube(3)
        assert g.n == 8 and g.m == 12

    def test_bad_r(self):
        with pytest.raises(ValueError):
            gen_hypercube(0)

    def test_origin_pair_assignments(self):
        # Ordered pairs (a, b) with a & b == 0 number exactly 3^r.
        for r in range(1, 8):
            n = 2 ** r
            count = 0
            for a in range(n):
                free = (~a) & (n - 1)
                # iterate submasks of the complement
                b = free
                while True:
                    count += 1
                    if b == 0:
                        break
                    b = (b - 1) & free
            assert count == 3 ** r

    def test_vertex_transitive_betweenness(self):
        for r in (2, 3, 4):
            g = gen_hypercube(r)
            b = brandes(g)
            assert max(b) - min(b) < 1e-9


class TestLowerBound:
    def test_dimensions(self):
        g = gen_lower_bound(400, 0.5)
        assert g.meta["rows"] == 10 and g.meta["cols"] == 20
        assert g.meta["isolated"] == 200
        assert g.n == 400

    def test_component_diameter_two(self):
        g = gen_lower_bound(400, 0.5)
        size = g.meta["rows"] * g.meta["cols"]
        dist, _ = bfs_dag(g, 0)
        assert all(0 <= dist[v] <= 2 for v in range(size))

    def test_two_shortest_paths_max(self):
        g = gen_lower_bound(256, 0.5)
        size = g.meta["rows"] * g.meta["cols"]
        _, sigma = bfs_dag(g, 0)
        assert all(sigma[v] <= 2 for v in range(size))

    def test_degenerate(self):
        with pytest.raises(ValueError):
            gen_lower_bound(16, 0.1)


class Built(Exception):
    """Raised in place of the first loop or allocation of a generator."""


class TestEdgeGuard:
    """Every generator counts its edges in closed form and refuses more
    than 10^7 before it loops or allocates; no refused size is built."""

    @pytest.fixture(autouse=True)
    def unbuilt(self, monkeypatch):
        def built(*args, **kwargs):
            raise Built
        for name in ("Graph", "RanState", "_np_rng"):
            monkeypatch.setattr(generators, name, built)

    @pytest.mark.parametrize("make, edges", [
        (lambda: gen_ran(3_333_336, seeded(0)), 10_000_002),
        (lambda: gen_ran(2 ** 63, seeded(0)), 3 * 2 ** 63 - 6),
        # The expected count (a + b + c + d)^i: 2.1^22 for the default seed.
        (lambda: gen_kronecker(CORE_PERIPHERY, 22, seeded(0)),
         round(2.1 ** 22)),
        (lambda: gen_kronecker([[1, 1], [1, 1]], 12, seeded(0)), 4 ** 12),
        # rows * C(cols, 2) + cols * C(rows, 2) for 316 x 316227.
        (lambda: gen_lower_bound(10 ** 11, 0.001),
         316 * math.comb(316227, 2) + 316227 * math.comb(316, 2))])
    def test_refused_by_count(self, make, edges):
        with pytest.raises(SizeError,
                           match=f"would have {edges} edges, past the "
                                 f"generator guard 10000000$"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: gen_ran(3_333_335, seeded(0)),
        lambda: gen_kronecker(CORE_PERIPHERY, 21, seeded(0)),
        lambda: gen_lower_bound(400, 0.5),
        lambda: gen_hypercube(16)])
    def test_sizes_within_the_guard_go_on(self, make):
        with pytest.raises(Built):
            make()
