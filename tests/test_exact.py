import hashlib
import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centmax import exact, generators, graph
from centmax.errors import SizeError
from centmax.exact import (adaptive_bwc_all, brandes, brute_force_max,
                           ex_greedy, exact_coverage, exact_kpath, set_bwc,
                           triangle_greedy)
from centmax.graph import Graph, all_triangles, bfs_dag
from conftest import complete_graph, diamond_chain_edges, eager_bfs_dag, \
    grid_graph, ladder_graph, path_graph, random_graph, \
    reference_triangle_greedy, seeded, star_graph


def adaptive_bwc(g, u, nodes):
    """Marginal betweenness of u on top of an existing set, from two
    exact-integer set_bwc calls."""
    nodes = set(nodes)
    if u in nodes:
        raise ValueError(f"node {u} already in the set")
    return set_bwc(g, nodes | {u}) - set_bwc(g, nodes)


def reference_ex_greedy(g, k):
    """ex_greedy with nothing held: each round sweeps every source block
    afresh for the chosen set, so no narrowed block is ever read."""
    chosen, scores, total = [], [], 0.0
    for _ in range(k):
        marg = adaptive_bwc_all(g, chosen)
        best = None
        for v in range(g.n):
            if v not in chosen and (best is None
                                    or marg[v] > marg[best] + 1e-12):
                best = v
        chosen.append(best)
        total += marg[best]
        scores.append(total)
    return chosen, scores


def triangle_count(g, nodes):
    """Number of triangles intersecting the node set."""
    nodes = set(nodes)
    return sum(1 for tri in all_triangles(g) if nodes.intersection(tri))


def all_shortest_paths(g, s, t):
    """Explicit enumeration oracle over a test-side BFS, independent of
    the tau recursion."""
    dist, _, preds = eager_bfs_dag(g, s)
    if dist[t] < 0:
        return []
    paths = []

    def extend(v, acc):
        if v == s:
            paths.append([s] + acc)
            return
        for u in preds[v]:
            extend(u, [v] + acc)

    extend(t, [])
    return paths


def enumeration_set_bwc(g, nodes):
    """Per-pair path enumeration; same fsum arithmetic as the fast path."""
    nodes = set(nodes)
    terms = []
    for s in range(g.n):
        for t in range(g.n):
            if t == s:
                continue
            paths = all_shortest_paths(g, s, t)
            if not paths or len(paths[0]) <= 2:
                continue
            hit = sum(1 for p in paths if nodes.intersection(p[1:-1]))
            terms.append(1.0 - (len(paths) - hit) / len(paths))
    return math.fsum(terms)


@st.composite
def graphs_with_sets(draw, min_n, max_n):
    """A random graph on `linked` nodes plus isolated ones, with the node
    ids shuffled so that linked nodes fall in every source block, and a
    node set."""
    n = draw(st.integers(min_n, max_n))
    directed = draw(st.booleans())
    linked = draw(st.integers(1, n))
    pairs = [(u, v) for u in range(linked) for v in range(linked)
             if u != v and (directed or u < v)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=linked,
                          max_size=3 * linked) if pairs else st.just([]))
    ids = draw(st.permutations(range(n)))
    nodes = draw(st.sets(st.integers(0, n - 1), max_size=3))
    return Graph(n, [(ids[u], ids[v]) for u, v in edges],
                 directed=directed), nodes


@contextmanager
def patched(**values):
    """Set module constants for the duration: the block budget
    _BLOCK_CELLS of centmax.graph, the others of centmax.exact."""
    homes = {name: graph if name == "_BLOCK_CELLS" else exact
             for name in values}
    saved = {name: getattr(homes[name], name) for name in values}
    for name, value in values.items():
        setattr(homes[name], name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(homes[name], name, value)


def sweep_with_block_cells(g, nodes, block_cells):
    with patched(_BLOCK_CELLS=block_cells):
        return adaptive_bwc_all(g, nodes)


def held_bytes(blocks):
    return sum(block.nbytes() for block in blocks)


class TestSweep:
    """The numpy source-block sweep against the exact-integer oracles."""

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_sets(1, 16), st.integers(1, 300))
    def test_matches_per_node_marginals(self, case, block_cells):
        g, nodes = case
        # A small cell budget splits the sources over several blocks.
        marg = sweep_with_block_cells(g, nodes, block_cells)
        for u in range(g.n):
            want = 0.0 if u in nodes else adaptive_bwc(g, u, nodes)
            assert marg[u] == pytest.approx(want, abs=1e-9)

    @settings(max_examples=5, deadline=None)
    @given(graphs_with_sets(91, 120), st.randoms(use_true_random=False))
    def test_several_default_blocks(self, case, rnd):
        # n > 90 spans at least two blocks of the default cell budget.  The
        # exact oracle is slow at this size, so it checks a sample of nodes;
        # one-source blocks check every node.
        g, nodes = case
        marg = adaptive_bwc_all(g, nodes)
        assert marg == pytest.approx(sweep_with_block_cells(g, nodes, 1),
                                     abs=1e-9)
        for u in rnd.sample(range(g.n), 8):
            want = 0.0 if u in nodes else adaptive_bwc(g, u, nodes)
            assert marg[u] == pytest.approx(want, abs=1e-9)

    def test_path_brandes_across_several_default_blocks(self):
        # A deep graph whose sources span three default blocks: node i of
        # an n-node path lies inside 2 i (n - 1 - i) ordered pairs' paths.
        n = 300
        assert graph.block_sources(n) < n / 2
        assert brandes(path_graph(n)) == [2.0 * i * (n - 1 - i)
                                          for i in range(n)]

    @pytest.mark.parametrize("g", [ladder_graph(100), grid_graph(15)],
                             ids=["ladder", "grid"])
    def test_deep_brandes_matches_the_exact_oracle(self, g):
        assert graph.block_sources(g.n) < g.n
        marg = brandes(g)
        for u in seeded(g.n).sample(range(g.n), 8):
            assert marg[u] == pytest.approx(adaptive_bwc(g, u, ()),
                                            abs=1e-9)

    @pytest.mark.parametrize("g", [path_graph(300), ladder_graph(100)],
                             ids=["path", "ladder"])
    def test_deep_ex_greedy_held_or_swept_afresh(self, g):
        # Picks and scores are the same with every block held as with
        # every block swept afresh each round.
        held = ex_greedy(g, 3)
        with patched(_HELD_BYTES=0):
            assert ex_greedy(g, 3) == held

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_sets(1, 16), st.integers(1, 300))
    def test_held_blocks_match_the_stream(self, case, block_cells):
        # Every leading part of the held blocks gives the same floats as
        # the streamed sweep, call after call with other sets.
        g, nodes = case
        with patched(_BLOCK_CELLS=block_cells):
            blocks = exact._held_blocks(g)
            for keep in range(len(blocks) + 1):
                for S in (nodes, set(), nodes | {g.n - 1}, nodes):
                    assert (adaptive_bwc_all(g, S, blocks[:keep])
                            == adaptive_bwc_all(g, S))

    @settings(max_examples=40, deadline=None)
    @given(graphs_with_sets(2, 16), st.integers(1, 300))
    def test_ex_greedy_on_both_sides_of_the_held_bound(self, case,
                                                       block_cells):
        # Nothing held, the blocks split by the bound, and all held; every
        # node is picked, so the held blocks serve n rounds.
        g, _ = case
        k = g.n
        with patched(_BLOCK_CELLS=block_cells):
            blocks = exact._held_blocks(g)
            assert len(blocks) == len(list(exact._blocks(g)))
            split = held_bytes(blocks[:len(blocks) // 2])
            runs = []
            for bound, count in ((0, 0), (split, len(blocks) // 2),
                                 (exact._HELD_BYTES, len(blocks))):
                with patched(_HELD_BYTES=bound):
                    assert len(exact._held_blocks(g)) == count
                    runs.append(ex_greedy(g, k))
        assert runs[0] == runs[1] == runs[2]
        picks, scores = runs[0]
        for i in range(k):
            assert scores[i] == pytest.approx(set_bwc(g, picks[:i + 1]),
                                              abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(graphs_with_sets(2, 12), st.integers(1, 300))
    def test_set_oracles_on_both_sides_of_the_held_bound(self, case,
                                                         block_cells):
        # set_bwc with held blocks and brute_force_max give the same bits
        # with nothing held, the blocks split by the bound, and all held.
        g, nodes = case
        with patched(_BLOCK_CELLS=block_cells):
            blocks = exact._held_blocks(g)
            split = held_bytes(blocks[:len(blocks) // 2])
            runs = []
            for bound in (0, split, exact._HELD_BYTES):
                with patched(_HELD_BYTES=bound):
                    held = exact._held_blocks(g)
                    runs.append((set_bwc(g, nodes, held).hex(),
                                 set_bwc(g, nodes, blocks).hex(),
                                 brute_force_max(g, 1),
                                 brute_force_max(g, min(2, g.n))))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == set_bwc(g, nodes).hex()

    def test_held_bound_holds_ran1000_whole(self):
        g = generators.gen_ran(1000, seeded(3))
        held = exact._held_blocks(g)
        assert sum(len(b.origin) for b in held) == g.n
        assert held_bytes(held) <= exact._HELD_BYTES

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = seeded(14)
        for trial in range(12):
            directed = trial % 2 == 1
            g = random_graph(rng.randrange(2, 60), 0.08, rng,
                             directed=directed)
            h = nx.DiGraph() if directed else nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            ref = nx.betweenness_centrality(h, normalized=False)
            # networkx counts each unordered pair once on undirected graphs.
            scale = 1.0 if directed else 2.0
            assert brandes(g) == pytest.approx(
                [scale * ref[v] for v in range(g.n)], abs=1e-9)

    def test_path_count_overflow(self):
        g = Graph(3 * 1100 + 1, diamond_chain_edges(1100))
        with pytest.raises(SizeError):
            brandes(g)


class TestHeldCounts:
    """A held block stores its path counts as int32 only while the block's
    largest count is below 2^31, so that int32 holds each exactly, and as
    float64 past that; the oracles read both as float64."""

    @pytest.mark.parametrize("count, dtype", [(30, np.int32),
                                              (31, np.float64),
                                              (32, np.float64)])
    def test_int32_only_below_2_31(self, count, dtype):
        # Node 3 * count has 2^count paths from node 0, the largest count
        # of the one block of every source.
        g = Graph(3 * count + 1, diamond_chain_edges(count))
        (held,) = exact._held_blocks(g)
        (fresh,) = exact._blocks(g)
        assert held.sigma.dtype == dtype
        assert held.sigma.max() == 2 ** count
        assert np.array_equal(held.sigma, fresh.sigma)

    def test_int32_counts_give_the_float64_bits(self):
        # The dependency pass reads 1 / sigma as float64 whatever the
        # dtype of the counts; an integer reciprocal would floor it to 0.
        g = generators.gen_ran(300, seeded(1))
        held = exact._held_blocks(g)
        assert len(held) > 1
        for block, fresh in zip(held, exact._blocks(g)):
            assert block.sigma.dtype == np.int32
            assert block.nbytes() < fresh.nbytes()
            assert (exact._dependency(block, block.sigma).tobytes()
                    == exact._dependency(fresh, fresh.sigma).tobytes())
            nodes = set(range(0, g.n, 7))
            cell_open = np.tile([float(v not in nodes) for v in range(g.n)],
                                len(fresh.origin))
            tau, _ = exact._avoiding(fresh, cell_open)
            hit = tau < fresh.sigma
            assert np.array_equal(tau < block.sigma, hit)
            assert ((tau[hit] / block.sigma[hit]).tobytes()
                    == (tau[hit] / fresh.sigma[hit]).tobytes())


class TestNarrowing:
    """adaptive_bwc_all narrows the held blocks it is given to the arcs
    that a path avoiding the set still uses; ex_greedy's later rounds
    read only those."""

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_sets(1, 16), st.integers(1, 300))
    def test_ex_greedy_matches_the_unheld_reference(self, case,
                                                    block_cells):
        g, _ = case
        with patched(_BLOCK_CELLS=block_cells):
            picks, scores = ex_greedy(g, g.n)
            want, want_scores = reference_ex_greedy(g, g.n)
        assert picks == want
        assert [s.hex() for s in scores] == [s.hex() for s in want_scores]

    @pytest.mark.parametrize("block_cells", [1, graph._BLOCK_CELLS])
    @pytest.mark.parametrize("g, centre", [(star_graph(5), 0),
                                           (path_graph(3), 1),
                                           (path_graph(3, directed=True), 1)])
    def test_a_picked_centre_leaves_the_level_0_arcs(self, g, centre,
                                                     block_cells,
                                                     monkeypatch):
        # Every path of two or more arcs runs through the centre, so once
        # it is picked only the arcs out of each source are held.
        lists, held_blocks = [], exact._held_blocks

        def spy(graph):
            lists.append(held_blocks(graph))
            return lists[-1]
        monkeypatch.setattr(graph, "_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(exact, "_held_blocks", spy)
        blocks = held_blocks(g)
        assert any(len(b.levels) > 1 for b in blocks)
        first = [b.levels[:1] for b in blocks]
        assert ex_greedy(g, 2)[0][0] == centre
        held, = lists
        assert len(held) == len(first)
        for block, want in zip(held, first):
            assert block.narrowed == {centre}
            assert len(block.levels) == len(want)
            for (parent, child), (p, c) in zip(block.levels, want):
                assert parent.tolist() == p.tolist()
                assert child.tolist() == c.tolist()

    def test_a_set_without_the_narrowed_one_raises(self):
        g = path_graph(5)
        held = exact._held_blocks(g)
        adaptive_bwc_all(g, {2}, held)
        for call in (lambda: adaptive_bwc_all(g, (), held),
                     lambda: adaptive_bwc_all(g, {1}, held),
                     lambda: set_bwc(g, {2}, held),
                     lambda: set_bwc(g, {1, 2}, held)):
            with pytest.raises(ValueError, match="narrowed for"):
                call()
        # A larger set may read them, and gets the floats of a fresh sweep.
        assert (adaptive_bwc_all(g, {1, 2}, held)
                == adaptive_bwc_all(g, {1, 2}))


def directed_kron8():
    """kron:8 as a directed graph, every third edge reversed."""
    k = generators.gen_kronecker([[0.9, 0.5], [0.5, 0.2]], 8, seeded(8))
    return Graph(k.n, [(v, u) if i % 3 == 2 else (u, v)
                       for i, (u, v) in enumerate(k.edges())],
                 directed=True)


def sinks_and_sources():
    """A directed graph with sinks 3 and 6 and sources 0 and 5; its fourth
    ex_greedy pick is the source 0."""
    return Graph(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (5, 1),
                     (2, 6)], directed=True)


PINNED_GRAPHS = {"ran300": lambda: generators.gen_ran(300, seeded(300)),
                 "kron8-directed": directed_kron8,
                 "sinks": sinks_and_sources}


def hexes(values):
    return " ".join(float(x).hex() for x in values)


class TestPinnedBits:
    """The exact oracles' floats, bit for bit: ex_greedy(g, 5) picks and
    scores, brandes (as the sha1 of its hex list) and set_bwc of the
    picks.  A faster kernel or pass must leave every bit as it is."""

    WANT = {
        "ran300": (
            [7, 0, 3, 8, 10],
            "0x1.363f3af9c8610p+15 0x1.fc2792a4a670ep+15 "
            "0x1.26214e42272cep+16 0x1.371a3371baa1fp+16 "
            "0x1.3dbf901d24f21p+16",
            "b34d9b9f7e5b5d97a26b30610b26f446b10945d1",
            "0x1.3dbf901d24f20p+16"),
        "kron8-directed": (
            [1, 0, 2, 16, 160],
            "0x1.9e00000000000p+9 0x1.02c0000000000p+10 "
            "0x1.2b40000000000p+10 0x1.3c00000000000p+10 "
            "0x1.47a0000000000p+10",
            "e62d4bfff8112ee3b5467abd8d61725ce263a8e8",
            "0x1.47a0000000000p+10"),
        "sinks": (
            [1, 2, 4, 0, 3],
            "0x1.4000000000000p+2 0x1.c000000000000p+2 "
            "0x1.0000000000000p+3 0x1.0000000000000p+3 "
            "0x1.0000000000000p+3",
            "df242eb90c4efa0438fc28d96c302479f49de905",
            "0x1.0000000000000p+3"),
    }

    @pytest.mark.parametrize("name", sorted(WANT))
    def test_bits(self, name):
        g = PINNED_GRAPHS[name]()
        picks, scores, brandes_sha1, set_hex = self.WANT[name]
        got_picks, got_scores = ex_greedy(g, 5)
        assert got_picks == picks
        assert hexes(got_scores) == scores
        assert hashlib.sha1(hexes(brandes(g)).encode()).hexdigest() \
            == brandes_sha1
        assert set_bwc(g, picks).hex() == set_hex

    def test_sinks_graph_brandes(self):
        assert brandes(sinks_and_sources()) == [0.0, 5.0, 5.0, 0.0, 1.0,
                                                0.0, 0.0]


class TestHeldInvariant:
    """What lets _dependency read delta without an open mask: once
    adaptive_bwc_all has narrowed the held blocks for the chosen set, no
    arc past the first level leaves a chosen node."""

    @pytest.mark.parametrize("block_cells", [7, 100, graph._BLOCK_CELLS])
    @pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
    def test_no_held_arc_leaves_a_chosen_node(self, name, block_cells,
                                              monkeypatch):
        g = PINNED_GRAPHS[name]()
        rounds = []
        sweep = exact.adaptive_bwc_all

        def checked(graph_, nodes, blocks=None):
            marg = sweep(graph_, nodes, blocks)
            chosen = np.array(sorted(nodes), dtype=np.int64)
            assert blocks
            for block in blocks:
                for parent, _ in block.levels[1:]:
                    assert not np.isin(parent.astype(np.int64) % g.n,
                                       chosen).any()
            rounds.append(len(nodes))
            return marg

        monkeypatch.setattr(graph, "_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(exact, "adaptive_bwc_all", checked)
        ex_greedy(g, 5)
        assert rounds == [0, 1, 2, 3, 4]


class TestBrandes:
    def test_p3(self):
        assert brandes(path_graph(3)) == [0.0, 2.0, 0.0]

    def test_star_center(self):
        g = star_graph(3)
        b = brandes(g)
        assert b[0] == pytest.approx(6.0)
        assert b[1:] == [0.0, 0.0, 0.0]

    def test_complete_graph_all_zero(self):
        assert brandes(complete_graph(6)) == [0.0] * 6

    def test_leaves_are_zero(self):
        rng = seeded(1)
        g = random_graph(30, 0.1, rng)
        b = brandes(g)
        for v, degree in enumerate(np.diff(g.csr()[0])):
            if degree <= 1:
                assert b[v] == 0.0

    def test_equals_singleton_set_bwc(self):
        rng = seeded(2)
        for _ in range(10):
            g = random_graph(rng.randrange(5, 40), 0.12, rng)
            b = brandes(g)
            for v in range(g.n):
                assert abs(b[v] - set_bwc(g, {v})) < 1e-9

    def test_directed(self):
        from centmax.graph import Graph
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        assert brandes(g) == [0.0, 1.0, 0.0]


class TestSetBwc:
    def test_p4_examples(self):
        g = path_graph(4)
        assert set_bwc(g, {1}) == pytest.approx(4.0)
        assert set_bwc(g, {1, 2}) == pytest.approx(6.0)

    def test_empty_set(self):
        assert set_bwc(path_graph(4), set()) == 0.0

    def test_bad_id(self):
        with pytest.raises(ValueError):
            set_bwc(path_graph(3), {9})

    @pytest.mark.parametrize("node", [1.0, 0.5])
    def test_non_integer_id(self, node):
        with pytest.raises(ValueError,
                           match=f"node {node} is not an integer id"):
            set_bwc(path_graph(3), {node})

    def test_integer_like_ids(self):
        g = path_graph(3)
        assert set_bwc(g, {True}) == set_bwc(g, {np.int64(1)}) \
            == set_bwc(g, {1}) == 2.0

    def test_matches_enumeration_oracle(self):
        # Dense undirected graphs, then directed ones, then sparse ones
        # with unreachable pairs.
        rng = seeded(3)
        for directed, p in ((False, 0.35), (True, 0.35), (False, 0.12),
                            (True, 0.12)):
            for _ in range(30):
                n = rng.randrange(3, 10)
                g = random_graph(n, p, rng, directed=directed)
                S = set(rng.sample(range(n), rng.randrange(1, n)))
                assert set_bwc(g, S) == enumeration_set_bwc(g, S)

    def test_monotone_and_submodular(self):
        rng = seeded(4)
        for _ in range(15):
            n = rng.randrange(6, 20)
            g = random_graph(n, 0.2, rng)
            ids = rng.sample(range(n), 5)
            s1, s2, u = set(ids[:2]), set(ids[:4]), ids[4]
            assert set_bwc(g, s1) <= set_bwc(g, s2) + 1e-9
            gain2 = set_bwc(g, s2 | {u}) - set_bwc(g, s2)
            gain1 = set_bwc(g, s1 | {u}) - set_bwc(g, s1)
            assert gain2 <= gain1 + 1e-9


class TestAdaptive:
    def test_empty_set_equals_brandes(self):
        rng = seeded(5)
        g = random_graph(15, 0.25, rng)
        b = brandes(g)
        for v in range(g.n):
            assert adaptive_bwc(g, v, set()) == pytest.approx(b[v], abs=1e-9)

    def test_p4_marginal(self):
        assert adaptive_bwc(path_graph(4), 2, {1}) == pytest.approx(2.0)

    def test_dominated_node(self):
        # Every path through a leaf's neighbor set is already covered by
        # the star center, so the leaf's marginal is zero.
        g = star_graph(4)
        assert adaptive_bwc(g, 1, {0}) == 0.0

    def test_u_in_set_rejected(self):
        with pytest.raises(ValueError):
            adaptive_bwc(path_graph(3), 1, {1})

    def test_all_matches_pairwise(self):
        rng = seeded(6)
        for trial in range(10):
            n = rng.randrange(5, 14)
            g = random_graph(n, 0.3, rng, directed=(trial % 2 == 0))
            S = set(rng.sample(range(n), rng.randrange(0, 3)))
            marg = adaptive_bwc_all(g, S)
            for u in range(n):
                if u in S:
                    continue
                assert marg[u] == pytest.approx(adaptive_bwc(g, u, S),
                                                abs=1e-9)


class TestExGreedy:
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError):
            ex_greedy(path_graph(5), k)

    def test_p5_first_pick(self):
        picks, _ = ex_greedy(path_graph(5), 1)
        assert picks == [2]

    def test_full_pick_covers_everything(self):
        rng = seeded(7)
        g = random_graph(10, 0.3, rng)
        picks, scores = ex_greedy(g, g.n)
        # With all nodes chosen, every ordered pair at distance >= 2 counts.
        pairs = 0
        for s in range(g.n):
            dist, _ = bfs_dag(g, s)
            pairs += sum(1 for t in range(g.n) if dist[t] >= 2)
        assert scores[-1] == pytest.approx(pairs)

    def test_near_optimal(self):
        rng = seeded(8)
        for _ in range(8):
            n = rng.randrange(6, 14)
            g = random_graph(n, 0.25, rng)
            k = rng.randrange(1, 4)
            _, scores = ex_greedy(g, k)
            _, opt = brute_force_max(g, k)
            assert scores[-1] >= (1 - 1 / math.e) * opt - 1e-9


class TestBruteForce:
    def test_p4(self):
        best_set, val = brute_force_max(path_graph(4), 1)
        assert val == pytest.approx(4.0)
        assert best_set in ({1}, {2})

    def test_complete(self):
        _, val = brute_force_max(complete_graph(5), 2)
        assert val == 0.0

    def test_max1_le_maxk(self):
        rng = seeded(9)
        g = random_graph(10, 0.3, rng)
        _, m1 = brute_force_max(g, 1)
        _, m3 = brute_force_max(g, 3)
        assert m1 <= m3 + 1e-12

    def test_guard(self):
        with pytest.raises(SizeError):
            brute_force_max(random_graph(60, 0.1, seeded(0)), 10)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError):
            brute_force_max(path_graph(4), k)


def triple_loop_coverage(g, nodes):
    nodes = set(nodes)
    dist = [bfs_dag(g, s)[0] for s in range(g.n)]
    count = 0
    for s in range(g.n):
        for t in range(g.n):
            if s == t or dist[s][t] < 0:
                continue
            if any(v not in (s, t) and dist[s][v] >= 0 and dist[v][t] >= 0
                   and dist[s][v] + dist[v][t] == dist[s][t] for v in nodes):
                count += 1
    return float(count)


class TestCoverage:
    def test_p3(self):
        assert exact_coverage(path_graph(3), {1}) == 2.0

    def test_matches_triple_loop(self):
        rng = seeded(10)
        for _ in range(10):
            n = rng.randrange(4, 16)
            g = random_graph(n, 0.25, rng)
            S = set(rng.sample(range(n), rng.randrange(1, 4)))
            assert exact_coverage(g, S) == triple_loop_coverage(g, S)

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_sets(1, 10))
    def test_match_the_references(self, case):
        # Directed and undirected graphs, sparse ones with unreachable
        # pairs among them: both set oracles equal their references.
        g, nodes = case
        bwc, cov = set_bwc(g, nodes), exact_coverage(g, nodes)
        assert bwc == enumeration_set_bwc(g, nodes)
        assert cov == triple_loop_coverage(g, nodes)
        assert bwc <= cov

    def test_at_least_betweenness(self):
        rng = seeded(11)
        for _ in range(10):
            n = rng.randrange(4, 16)
            g = random_graph(n, 0.25, rng)
            S = set(rng.sample(range(n), rng.randrange(1, 4)))
            assert exact_coverage(g, S) >= set_bwc(g, S) - 1e-9

    def test_directed(self):
        from centmax.graph import Graph
        g = Graph(3, [(0, 1), (1, 2)], directed=True)
        assert exact_coverage(g, {1}) == 1.0

    @pytest.mark.parametrize("node", [-1, 9])
    def test_out_of_range_node(self, node):
        with pytest.raises(ValueError, match=f"node {node} out of range"):
            exact_coverage(path_graph(4), {node})


class TestExactCountBound:
    """set_bwc, exact_coverage and brute_force_max keep float64 path
    counts only while they are exact: up to 2^53."""

    @staticmethod
    def diamonds(count, extra_path=False):
        # Node 3 * count is the bottom of the last diamond, with 2^count
        # shortest paths from node 0.  The extra path adds one more of the
        # same length, 2 * count, through nodes of its own.
        n, edges = 3 * count + 1, diamond_chain_edges(count)
        if extra_path:
            inner = list(range(n, n + 2 * count - 1))
            hops = [0] + inner + [3 * count]
            edges += list(zip(hops, hops[1:]))
            n += len(inner)
        return Graph(n, edges)

    def test_2_to_the_53_paths_are_exact(self):
        g = self.diamonds(53)
        assert set_bwc(g, {1}).hex() == "0x1.3a00000000000p+7"
        assert exact_coverage(g, {1}) == 314.0
        assert brute_force_max(g, 1) == ({78}, 12638.0)

    def test_2_to_the_54_paths_raise(self):
        g = self.diamonds(54)
        for oracle in (lambda: set_bwc(g, {1}),
                       lambda: exact_coverage(g, {1}),
                       lambda: brute_force_max(g, 1)):
            with pytest.raises(SizeError, match=r"2\^53"):
                oracle()

    def test_count_rounded_down_to_2_to_the_53_raises(self):
        # 2^53 + 1 paths reach the last bottom; float64 rounds the count to
        # 2^53, and no other count is larger, so only the int64 recount
        # can catch it.
        g = self.diamonds(53, extra_path=True)
        assert max(b.sigma.max() for b in exact._blocks(g)) == 2.0 ** 53
        with pytest.raises(SizeError, match=r"2\^53"):
            set_bwc(g, {1})


class TestKPath:
    @pytest.mark.parametrize("node", [-1, 4])
    def test_out_of_range_node(self, node):
        with pytest.raises(ValueError, match=f"node {node} out of range"):
            exact_kpath(path_graph(4), {node}, 2)

    def test_non_integer_node(self):
        with pytest.raises(ValueError, match="node 1.5 is not an integer id"):
            exact_kpath(path_graph(3), {1.5}, 2)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            exact_kpath(path_graph(4), {1}, 0)

    @pytest.mark.parametrize("kappa", [0, math.nan, 2.5, 2.0])
    def test_kappa_takes_the_samplers_rule(self, kappa):
        # A fractional kappa never counts down to 0 steps, so the walks
        # would run until they are stuck.
        with pytest.raises(ValueError, match="^kappa must be a positive "
                                             f"integer, got {kappa}$"):
            exact_kpath(path_graph(4), {3}, kappa)

    def test_all_nodes(self):
        g = complete_graph(4)
        assert exact_kpath(g, set(range(4)), 2) == pytest.approx(4.0)

    def test_isolated_node(self):
        from centmax.graph import Graph
        g = Graph(3, [(1, 2)])
        assert exact_kpath(g, {0}, 3) == pytest.approx(1.0)

    def test_k3_every_walk_visits_all(self):
        g = complete_graph(3)
        assert exact_kpath(g, {1}, 2) == pytest.approx(3.0)

    def test_size_guard(self):
        with pytest.raises(SizeError):
            exact_kpath(complete_graph(13), {0}, 2)

    def test_brute_walk_enumeration(self):
        # Independent check: enumerate every walk explicitly with Fractions.
        rng = seeded(12)
        g = random_graph(6, 0.4, rng)
        S = {2, 4}
        kappa = 3

        def walks(v, visited, prob):
            opts = [w for w in g.adj[v] if w not in visited]
            if len(visited) - 1 == kappa or not opts:
                yield visited, prob
                return
            for w in opts:
                yield from walks(w, visited + [w], prob * Fraction(1, len(opts)))

        total = Fraction(0)
        for s in range(g.n):
            total += sum(p for walk, p in walks(s, [s], Fraction(1))
                         if S.intersection(walk))
        assert exact_kpath(g, S, kappa) == pytest.approx(float(total))


class TestTriangleGreedy:
    def test_k4(self):
        assert triangle_greedy(complete_graph(4), 1) == [0]

    def test_triangle_free(self):
        assert triangle_greedy(star_graph(3), 2) == [0, 1]

    def test_k3(self):
        g = complete_graph(3)
        assert triangle_count(g, {triangle_greedy(g, 1)[0]}) == 1

    def test_greedy_marginals(self):
        rng = seeded(13)
        g = random_graph(12, 0.4, rng)
        picks = triangle_greedy(g, 3)
        covered = [triangle_count(g, set(picks[:i + 1])) for i in range(3)]
        gains = [covered[0], covered[1] - covered[0], covered[2] - covered[1]]
        assert all(a >= b for a, b in zip(gains, gains[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 29), st.floats(0.0, 0.8), st.booleans(),
           st.randoms(use_true_random=False))
    def test_matches_the_eager_reference(self, n, density, directed, rnd):
        g = random_graph(n, density, rnd, directed=directed)
        for k in (-1, 0, 1, n // 2, n, n + 3):
            assert triangle_greedy(g, k) == reference_triangle_greedy(g, k)
