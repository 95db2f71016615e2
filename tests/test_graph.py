import math
import operator
from collections import deque
from contextlib import suppress
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centmax import exact, experiments, graph, maximize, samplers
from centmax.errors import ParseError
from centmax.graph import (Graph, all_triangles, bfs_dag,
                           graph_from_labeled_edges, load_edge_list,
                           load_temporal_edge_list, write_edge_list)
from conftest import complete_graph, cycle_graph, diamond_chain_edges, \
    eager_bfs_dag, largest_component_size, path_graph, random_graph, \
    reference_adjacency, reference_load, reference_relabel, reference_rows, \
    seeded, small_graphs, star_graph


def write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text, newline="")  # line endings as given
    return str(p)


def records(temporal):
    """The (u, v, t) records of a TemporalEdgeList, in its order."""
    return list(map(tuple, np.column_stack((temporal.edges,
                                            temporal.times)).tolist()))


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
        assert t.times.tolist() == [-5, 3]

    def test_empty(self, tmp_path):
        assert len(load_temporal_edge_list(write(tmp_path, ""))) == 0

    def test_stable_for_equal_timestamps(self, tmp_path):
        t = load_temporal_edge_list(write(tmp_path, "0 1 3\n2 3 3\n"))
        assert records(t) == [(0, 1, 3), (2, 3, 3)]
        # Past 16 records numpy's default sort is no longer stable.
        rows = [(i, i + 1, i % 2) for i in range(100)]
        t = load_temporal_edge_list(write(tmp_path, "".join(
            f"{u} {v} {w}\n" for u, v, w in rows)))
        assert records(t) == sorted(rows, key=lambda r: r[2])

    def test_missing_timestamp(self, tmp_path):
        with pytest.raises(ParseError):
            load_temporal_edge_list(write(tmp_path, "0 1\n"))

    def test_bad_timestamp_after_comments_names_its_line(self, tmp_path):
        path = write(tmp_path, "# a\n\n# b\n0 1 5\n1 2 x\n")
        with pytest.raises(ParseError, match=r"g\.txt:5: bad integer token 'x'"):
            load_temporal_edge_list(path)


# Tokens for the loader's parity test.  int() takes every one of the
# accepted ones; np.loadtxt refuses 1_000, non-ASCII digits and ids
# outside int64, which then go through the line loop.
_SMALL = st.integers(-3, 12)
_TOKEN = st.one_of(
    _SMALL.map(str), _SMALL.map(str), _SMALL.map(str),
    st.integers(0, 12).map(lambda x: f"+{x}"),
    st.integers(0, 12).map(lambda x: f"00{x}"),
    st.sampled_from(["1_000", "\u0663", "\uff17", str(2 ** 63 - 1),
                     str(-2 ** 63), str(2 ** 63), str(-2 ** 63 - 1),
                     str(2 ** 70), "#", "1#x", "x", "1.0", "0x1", "-"]))
_DATA = st.tuples(
    st.sampled_from(["", " ", "\t"]),
    st.lists(_TOKEN, min_size=1, max_size=4),
    st.sampled_from([" ", "\t", "  ", " \t"]),
    st.sampled_from(["", "", " ", "#x", " #x", " # 1 2"]),
).map(lambda p: p[0] + p[2].join(p[1]) + p[3])
_LINE = st.one_of(_DATA, _DATA, _DATA,
                  st.sampled_from(["#", "# header", "#1 2", "  # 3 4"]),
                  st.sampled_from(["", "  ", "\t"]))
_EDGE_FILE = st.tuples(st.lists(_LINE, max_size=12),
                       st.sampled_from(["\n", "\r\n"]), st.booleans()).map(
    lambda p: p[1].join(p[0]) + (p[1] if p[2] and p[0] else ""))


class TestLoaderParity:
    """The C-level parse gives the line loop's Graph, records or
    ParseError on every file."""

    @settings(max_examples=400, deadline=None)
    @given(_EDGE_FILE, st.booleans())
    def test_matches_the_line_loop(self, tmp_path_factory, text, directed):
        path = write(tmp_path_factory.getbasetemp(), text, "parity.txt")
        try:
            labels, adj, radj = reference_load(path, directed)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                load_edge_list(path, directed)
            assert str(info.value) == str(exc)
        else:
            g = load_edge_list(path, directed)
            assert (g.n, g.labels, g.adj, g.radj) == (len(labels), labels,
                                                      adj, radj)
            assert all(type(x) is int for x in g.labels)
        try:
            rows = reference_rows(path, "u v t")
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                load_temporal_edge_list(path)
            assert str(info.value) == str(exc)
        else:
            got = records(load_temporal_edge_list(path))
            assert got == sorted(rows, key=lambda r: r[2])
            assert all(type(x) is int for r in got for x in r)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(st.integers(-20, 20),
                                          st.integers(-2 ** 80, 2 ** 80))] * 2),
                    max_size=25),
           st.booleans())
    def test_write_then_load_round_trips(self, tmp_path_factory, raw,
                                         directed):
        path = str(tmp_path_factory.getbasetemp() / "round.txt")
        cols = np.array(raw, dtype=object).reshape(-1, 2)
        write_edge_list(graph_from_labeled_edges(cols, directed), path,
                        header="written by a test\nsecond line")
        g = load_edge_list(path, directed)
        # Isolated nodes are not written: only self-loops make them here.
        assert (g.labels, g.adj, g.radj) == reference_relabel(
            [e for e in raw if e[0] != e[1]], directed)

    @pytest.mark.parametrize("text, labels", [
        ("# head\n\n0 1 7\r\n1\t2\n+5 007\n  3 4 # tail\n",
         [0, 1, 2, 3, 4, 5, 7]),
        ("0 1\n   \n2 3\n", [0, 1, 2, 3])])
    def test_plain_files_take_the_c_parse(self, tmp_path, monkeypatch,
                                          text, labels):
        def line_loop(path, form):
            raise AssertionError("the line loop ran")
        monkeypatch.setattr(graph, "_int_rows", line_loop)
        path = write(tmp_path, text)
        assert load_edge_list(path).labels == labels

    @pytest.mark.parametrize("text", [
        "0 1#x\n", "0 1\n# later\n2 3\n", "1_000 2\n", "0 1\n0\n",
        f"{2 ** 63} 1\n"])
    def test_refused_input_goes_to_the_line_loop(self, tmp_path, monkeypatch,
                                                 text):
        line_loop, ran = graph._int_rows, []

        def spy(path, form):
            ran.append(form)
            return line_loop(path, form)
        monkeypatch.setattr(graph, "_int_rows", spy)
        path = write(tmp_path, text)
        with suppress(ParseError):
            graph._int_columns(path, "u v")
        assert ran == ["u v"]


# Labels and stamps of the snapshot property: mostly small, so stamps
# repeat, and sometimes at or past the ends of int64.
_EDGE64 = [2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1, 2 ** 70]
_LABEL = st.one_of(st.integers(0, 6), st.integers(0, 6),
                   st.sampled_from(_EDGE64))
_STAMP = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                   st.sampled_from(_EDGE64))


class TestSnapshots:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_LABEL, _LABEL, _STAMP), max_size=20),
           st.booleans())
    def test_match_the_filtered_records(self, tmp_path_factory, rows,
                                        directed):
        path = write(tmp_path_factory.getbasetemp(),
                     "".join(f"{u} {v} {t}\n" for u, v, t in rows),
                     "temporal.txt")
        temporal = load_temporal_edge_list(path)
        ordered = sorted(rows, key=lambda r: r[2])
        stamps = [t for _, _, t in ordered]
        whens = {t + d for t in stamps for d in (-1, 0, 1)}
        whens |= {min(stamps, default=0) - 1, max(stamps, default=0) + 1,
                  2 ** 64, -2 ** 64}
        for when in sorted(whens):
            for mode, keep in (("cumulative", operator.le),
                               ("exact", operator.eq)):
                g = graph_from_labeled_edges(
                    temporal.snapshot_edges(when, mode), directed)
                want = reference_relabel(
                    [(u, v) for u, v, t in ordered if keep(t, when)],
                    directed)
                assert (g.labels, g.adj, g.radj) == want, (when, mode)


@st.composite
def graph_inputs(draw):
    n = draw(st.integers(0, 10))
    wild = st.one_of(st.integers(-2, n + 2),
                     st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 70]))
    node = st.integers(0, n - 1) if n else wild
    ident = draw(st.sampled_from([node, st.one_of(node, node, node, wild)]))
    edges = draw(st.lists(st.tuples(ident, ident), max_size=30))
    return n, edges, draw(st.booleans())


class TestGraphBuild:
    @settings(max_examples=300, deadline=None)
    @given(graph_inputs())
    def test_matches_the_set_builder(self, case):
        n, edges, directed = case
        try:
            adj, radj = reference_adjacency(n, edges, directed)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                Graph(n, edges, directed=directed)
            assert str(info.value) == str(exc)
            return
        g = Graph(n, edges, directed=directed)
        assert (g.adj, g.radj) == (adj, radj)
        assert g.m == sum(map(len, adj)) // (1 if directed else 2)
        assert list(g.edges()) == [(u, v) for u in range(n) for v in adj[u]
                                   if directed or u < v]
        weak = [sorted(set(a) | set(b)) for a, b in zip(adj, radj)]
        for (indptr, indices), lists in ((g.csr(), adj), (g.rcsr(), radj),
                                         (g.weak_csr(), weak)):
            assert indptr.tolist() == [0, *accumulate(map(len, lists))]
            assert indices.tolist() == [w for ws in lists for w in ws]

    def test_out_of_range_self_loop_is_dropped(self):
        g = Graph(3, [(2 ** 70, 2 ** 70), (-1, -1), (0, 1)])
        assert g.adj == [[1], [0], []]

    def test_first_bad_edge_in_input_order(self):
        with pytest.raises(ValueError, match=r"^edge \(0,9\) out of range"):
            Graph(3, [(0, 1), (0, 9), (-1, 2)])


def no_lists(*args):
    raise AssertionError("adjacency lists built")


class TestAdjacencyLists:
    @pytest.mark.parametrize("directed", [False, True])
    def test_csr_readers_build_none(self, tmp_path, monkeypatch, directed):
        monkeypatch.setattr(graph, "_lists", no_lists)
        path = str(tmp_path / "g.txt")
        write_edge_list(random_graph(40, 0.15, seeded(1), directed), path)
        g = load_edge_list(path, directed=directed)
        write_edge_list(g, str(tmp_path / "again.txt"))
        maximize.hedge(g, samplers.SamplerSpec("rr-influence", p=0.2), 3,
                       0.2, rng=seeded(2), budget=2000)
        experiments.ic_spread(g, [0, 1], 0.2, runs=100, rng=seeded(3))
        order = list(range(g.n))
        seeded(4).shuffle(order)
        experiments.attack_curve(g, order, g.n)
        assert all_triangles(g)
        exact.triangle_greedy(g, 3)
        exact.brandes(g)
        exact.set_bwc(g, {0, 1})
        exact.ex_greedy(g, 2)
        small = random_graph(10, 0.3, seeded(5), directed)
        exact.exact_kpath(small, {0}, 3)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("spec", [samplers.SamplerSpec("betweenness"),
                                      samplers.SamplerSpec("coverage"),
                                      samplers.SamplerSpec("kpath", kappa=3)])
    def test_per_draw_samplers_build_them_once(self, monkeypatch, directed,
                                               spec):
        calls, lists = [], graph._lists

        def counted(*args):
            calls.append(args)
            return lists(*args)

        monkeypatch.setattr(graph, "_lists", counted)
        g = random_graph(40, 0.15, seeded(6), directed)
        samplers.sample_many(g, spec, 2000, seeded(7))
        assert len(calls) == (2 if directed and spec.kind != "kpath" else 1)


def naive_bfs_dist(g, s):
    dist = [-1] * g.n
    dist[s] = 0
    q = deque([s])
    while q:
        v = q.popleft()
        for w in g.adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


class TestBfsDag:
    def test_path_graph(self):
        dist, sigma = bfs_dag(path_graph(4), 0)
        assert dist == [0, 1, 2, 3]
        assert sigma == [1, 1, 1, 1]

    def test_cycle_antipodal_sigma(self):
        _, sigma = bfs_dag(cycle_graph(4), 0)
        assert sigma[2] == 2

    def test_disconnected(self):
        g = Graph(2, [])
        dist, sigma = bfs_dag(g, 0)
        assert dist[1] == -1 and sigma[1] == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_dag(path_graph(3), 5)

    def test_sigma_pred_identity(self):
        # The id-order predecessor rule the pair samplers walk.
        rng = seeded(11)
        for i in range(20):
            g = random_graph(rng.randrange(2, 40), 0.15, rng,
                             directed=i % 2 == 1)
            dist, sigma = bfs_dag(g, 0)
            for v in range(g.n):
                if v == 0 or dist[v] < 0:
                    continue
                preds = samplers._preds(g, dist, v)
                assert sigma[v] == sum(sigma[u] for u in preds)
                for u in preds:
                    assert dist[u] + 1 == dist[v]

    def test_matches_naive_bfs(self):
        rng = seeded(5)
        for _ in range(20):
            g = random_graph(rng.randrange(2, 100), 0.08, rng)
            dist, _ = bfs_dag(g, 0)
            assert dist == naive_bfs_dist(g, 0)

    @pytest.fixture
    def uncached(self, monkeypatch, bfs_calls):
        """bfs_dag past the cache size: bfs_dist_sigma's row, or the list
        BFS's once the kernel gives up; each call to either is logged."""
        monkeypatch.setattr(graph, "_CACHE_MAX_N", 0)
        return bfs_calls

    def test_vectorized_matches(self, uncached):
        rng = seeded(9)
        for directed in (False, True):
            g = random_graph(60, 0.08, rng, directed=directed)
            ref_dist, ref_sigma = eager_bfs_dag(g, 3)[:2]
            dist, sigma = bfs_dag(g, 3)
            for v in range(g.n):
                assert dist[v] == ref_dist[v]
                if ref_dist[v] >= 0:
                    assert int(sigma[v]) == ref_sigma[v]
        assert {call for call, _ in uncached} == {"swept"}

    def test_vectorized_matches_with_sinks(self, uncached):
        # Sparse directed graphs put out-degree-0 nodes inside BFS frontiers.
        rng = seeded(3)
        for _ in range(30):
            g = random_graph(30, 0.05, rng, directed=True)
            for s in range(g.n):
                ref_dist, ref_sigma = eager_bfs_dag(g, s)[:2]
                dist, sigma = bfs_dag(g, s)
                assert dist.tolist() == ref_dist
                assert sigma.tolist() == ref_sigma
        assert {call for call, _ in uncached} == {"swept"}

    def test_vectorized_overflow_falls_back_to_exact_counts(
            self, uncached, monkeypatch):
        # 62 chained diamonds give 2^62 paths, past the int64 guard; the
        # last node is isolated.  The thin rule is off, so that the kernel
        # gives the BFS up for its counts alone.
        monkeypatch.setattr(graph, "_THIN_LEVEL_ARCS", 0)
        g = Graph(3 * 62 + 2, diamond_chain_edges(62))
        dist, sigma = bfs_dag(g, 0)
        assert uncached == [("gave up", [0]), ("listed", 0)]
        assert (dist, sigma) == eager_bfs_dag(g, 0)[:2]
        assert all(type(x) is int for x in dist + sigma)
        assert dist[-1] == -1 and sigma[-2] == 2 ** 62

    @pytest.mark.parametrize("directed", [False, True])
    def test_stop_at_cuts_past_its_level(self, directed, uncached):
        # Every node up to stop_at's distance matches the full BFS, and
        # every node farther away is left unreached; stop_at == s expands
        # nothing, and an unreachable stop_at cuts nothing.
        rng = seeded(31 + directed)
        for _ in range(8):
            g = random_graph(rng.randrange(2, 30), rng.choice((0.05, 0.15)),
                             rng, directed)
            s = rng.randrange(g.n)
            full_dist, full_sigma = eager_bfs_dag(g, s)[:2]
            for t in range(g.n):
                cut = full_dist[t] if full_dist[t] >= 0 else g.n
                dist, sigma = bfs_dag(g, s, stop_at=t)
                for v in range(g.n):
                    if 0 <= full_dist[v] <= cut:
                        assert dist[v] == full_dist[v]
                        assert sigma[v] == full_sigma[v]
                    else:
                        assert dist[v] == -1
        assert {call for call, _ in uncached} == {"swept"}

    @pytest.mark.parametrize("s, stop_at, message", [
        (-1, None, "source -1"), (3, None, "source 3"),
        (0, -1, "stop_at -1"), (0, 3, "stop_at 3")])
    def test_vectorized_refuses_ids_out_of_range(self, s, stop_at, message,
                                                 uncached):
        # A flat-cell BFS would index a negative id from the end.
        with pytest.raises(ValueError,
                           match=f"^{message} out of range for n=3$"):
            bfs_dag(path_graph(3), s, stop_at=stop_at)
        assert not uncached

    @pytest.mark.parametrize("s", [-1, 3])
    def test_fill_refuses_sources_out_of_range(self, s):
        g = path_graph(3)
        with pytest.raises(ValueError,
                           match=f"^source {s} out of range for n=3$"):
            graph.fill_dag_cache(g, [1, s])
        assert not g._dag_cache


class TestBfsLevels:
    """graph.bfs_levels, the one level loop of bfs_dist_sigma (the kernel
    of the fill and of bfs_dag) and of the exact sweep."""

    @pytest.mark.parametrize("cells", [1, 100, graph._BLOCK_CELLS])
    @pytest.mark.parametrize("directed", [False, True])
    def test_levels_are_the_dag_arcs(self, directed, cells, monkeypatch):
        # Level d holds exactly the arcs u -> v with dist[v] = dist[u] + 1
        # = d, in parent then arc order; its children are the cells at
        # distance d, the next level's frontier.
        monkeypatch.setattr(graph, "_BLOCK_CELLS", cells)
        rng = seeded(21 + directed)
        for _ in range(8):
            n = rng.randrange(1, 40)
            g = random_graph(n, rng.choice((0.03, 0.1, 0.3)), rng, directed)
            step = graph.block_sources(n)
            for lo in range(0, n, step):
                sources = range(lo, min(lo + step, n))
                levels = list(graph.bfs_levels(g, np.array(sources)))
                dists = [eager_bfs_dag(g, s)[0] for s in sources]
                assert len(levels) == max(max(dist) for dist in dists)
                for d, (parent, child) in enumerate(levels, 1):
                    want = [(i * n + u, i * n + v)
                            for i, dist in enumerate(dists)
                            for u in range(n) if dist[u] == d - 1
                            for v in g.adj[u] if dist[v] == d]
                    assert list(zip(parent.tolist(), child.tolist())) == want
                    assert set(child.tolist()) == {
                        i * n + v for i, dist in enumerate(dists)
                        for v in range(n) if dist[v] == d}
                    if d < len(levels):
                        assert set(levels[d][0].tolist()) <= set(
                            child.tolist())

    @staticmethod
    def eager_levels(g, sources):
        """The DAG arcs of eager_bfs_dag from every source, as bfs_levels
        yields them: per distance, (parent cell, child cell) in parent then
        arc order."""
        n, levels = g.n, []
        for i, s in enumerate(sources):
            dist, _, preds = eager_bfs_dag(g, s)
            for v in range(n):
                for u in preds[v]:
                    while len(levels) < dist[v]:
                        levels.append([])
                    levels[dist[v] - 1].append((i * n + u, i * n + v))
        return [sorted(arcs) for arcs in levels]

    @pytest.mark.parametrize("sink", [1, 2, 3], ids=["first", "middle",
                                                      "last"])
    @pytest.mark.parametrize("sources", [[0], [0, 6], [6, 0, 3]])
    def test_frontier_cells_without_out_arcs(self, sink, sources):
        # Node 0 reaches 1, 2 and 3; the sink among them has no out-arc,
        # so the arc positions of level 2 skip its cell first, in the
        # middle or last.  Node 6 reaches 0 and the sink directly.
        arcs = [(0, 1), (0, 2), (0, 3), (6, 0), (6, sink)]
        arcs += [(v, w) for v in (1, 2, 3) if v != sink for w in (4, 5)]
        g = Graph(7, arcs + [(4, 5)], directed=True)
        levels = list(graph.bfs_levels(g, np.array(sources)))
        assert [list(zip(p.tolist(), c.tolist())) for p, c in levels] \
            == self.eager_levels(g, sources)

    @pytest.mark.parametrize("g", [path_graph(40), star_graph(30),
                                   path_graph(40, directed=True)],
                             ids=["path", "star", "directed-path"])
    def test_sorted_and_marked_frontiers(self, g):
        # A path level has one child per source, so its next frontier is
        # sorted; a star's second level reaches most of the block, so its
        # frontier is read off the marked cells.
        sources = list(range(g.n))
        levels = list(graph.bfs_levels(g, np.array(sources)))
        assert [list(zip(p.tolist(), c.tolist())) for p, c in levels] \
            == self.eager_levels(g, sources)

    @pytest.mark.parametrize("n, edges, sources", [
        (5, [(0, 1)], [2, 3, 4]), (2, [], [0, 1]), (2, [], [1]),
        (1, [], [0])])
    def test_isolated_sources_yield_nothing(self, n, edges, sources):
        assert list(graph.bfs_levels(Graph(n, edges),
                                     np.array(sources))) == []

    @pytest.mark.parametrize("directed", [False, True])
    def test_two_nodes(self, directed):
        g = Graph(2, [(0, 1)], directed=directed)
        levels = [(p.tolist(), c.tolist())
                  for p, c in graph.bfs_levels(g, np.array([0, 1]))]
        # Cells: source 0 at 0 and 1, source 1 at 2 and 3.
        assert levels == ([([0], [1])] if directed
                          else [([0, 3], [1, 2])])


class TestDistinct:
    @pytest.mark.parametrize("values, want", [
        ([], []), ([7], [7]), ([3, 3, 3], [3]),
        ([-2, -2, 0, 5, 5], [-2, 0, 5])])
    def test_distinct_values_of_sorted_arrays(self, values, want):
        got = graph._distinct(np.array(values, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == want


class TestLazyPreds:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_the_eager_bfs(self, directed):
        rng = seeded(21 + directed)
        for _ in range(15):
            g = random_graph(rng.randrange(2, 50), rng.choice((0.04, 0.1,
                                                               0.3)),
                             rng, directed=directed)
            for s in range(g.n):
                dist, sigma, _ = eager_bfs_dag(g, s)
                assert bfs_dag(g, s) == (dist, sigma)


class TestTriangles:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_match_every_linked_triple(self, g):
        def linked(a, b):
            return b in g.adj[a] or a in g.adj[b]

        assert all_triangles(g) == [
            (a, b, c) for a, b, c in combinations(range(g.n), 3)
            if linked(a, b) and linked(a, c) and linked(b, c)]


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
            for w in set(g.adj[v]) | set(g.radj[v]):
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
    _, sigma = bfs_dag(g, 0)
    assert sigma[g.n - 1] == math.factorial(10)
