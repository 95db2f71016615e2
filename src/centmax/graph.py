"""Immutable sparse graphs, edge-list I/O, BFS distances and path counts,
and connectivity primitives.

Node ids are dense integers 0..n-1 after ingestion; the original labels are
kept on the Graph for output translation.  Graphs are simple: self-loops and
parallel edges are dropped at construction.
"""
from __future__ import annotations

import operator
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

# Below this size a sampling run keeps the BFS row of every source it
# sweeps, in a row store of its own (fill_dag_cache), since it draws many
# pairs from the same small graph; the rows die with the run.
_CACHE_MAX_N = 2048

# A BFS block holds _BLOCK_CELLS // n sources, so its (source, node)
# arrays hold about this many cells; the fill and the exact sweep both
# block their sources so.  Larger blocks save little on small-world
# graphs, and past 2**15 cells exact's held blocks store their cells as
# int32 instead of int16: at 2**16 cells ex_greedy(g, 10) on ran:1000
# peaks 8.5 MB higher in-process (45.7 -> 54.2 MB), for no gain in time.
_BLOCK_CELLS = 2 ** 15

# A block sweep pays 15-30 us of numpy calls per BFS level, so on a deep,
# thin graph, where a level has few arcs, the list BFS is faster: 3.3x on
# a path and 1.9x on a ladder, while the sweep is 1.6-1.9x faster on grids
# and sparse random graphs (blocks of 2**15 cells).  So bfs_dist_sigma
# gives up a block, of one source or many, that has run _THIN_LEVELS
# levels yet found fewer DAG arcs per level than _THIN_LEVEL_ARCS per
# _BLOCK_CELLS cells of the block.
# Counted per cell, the rule also gives up the blocks of grids past about
# 41 x 41, whose sweeps overflow int64 at the far corners anyway: a fixed
# count let a 16-source block of a 45 x 45 grid sweep about 50 levels
# before it overflowed.
_THIN_LEVELS = 8
_THIN_LEVEL_ARCS = 512


class Graph:
    """Simple graph over dense integer ids, held as two CSR pairs with
    sorted rows, plus the adjacency lists built from them on first read.
    It holds no BFS row: a sampling run keeps its own."""

    __slots__ = ("n", "directed", "labels", "meta", "_csr", "_rcsr",
                 "_adj", "_radj")

    def __init__(self, n, edges, directed=False, labels=None, meta=None):
        self.n = n
        self.directed = directed
        self.labels = list(labels) if labels is not None else list(range(n))
        self.meta = dict(meta) if meta else {}
        u, v = _edge_columns(edges, n)
        self._csr = _csr_from_keys(u * n + v if directed else
                                   np.concatenate((u * n + v, v * n + u)), n)
        self._rcsr = _csr_from_keys(v * n + u, n) if directed else self._csr
        self._adj = self._radj = None

    @property
    def m(self):
        """Edge count: directed arcs, or undirected edges counted once."""
        arcs = int(self._csr[0][-1])
        return arcs if self.directed else arcs // 2

    @property
    def adj(self):
        """Out-neighbour lists, built on first read; only the per-draw
        Python samplers read them, all else reads the CSR pairs."""
        if self._adj is None:
            self._adj = _lists(*self._csr)
        return self._adj

    @property
    def radj(self):
        """In-neighbour lists (adj if undirected), built on first read."""
        if not self.directed:
            return self.adj
        if self._radj is None:
            self._radj = _lists(*self._rcsr)
        return self._radj

    def edges(self):
        """Iterate edges as (u, v) in (u, v) order; u < v for undirected
        graphs."""
        indptr, v = self._csr
        u = np.repeat(np.arange(self.n), np.diff(indptr))
        if not self.directed:
            keep = u < v
            u, v = u[keep], v[keep]
        return zip(u.tolist(), v.tolist())

    def csr(self):
        """(indptr, indices) arrays for the out-adjacency."""
        return self._csr

    def rcsr(self):
        """(indptr, indices) arrays for the in-adjacency."""
        return self._rcsr

    def weak_csr(self):
        """(indptr, indices) arrays for the adjacency with direction
        ignored: csr() if undirected, else the union of both arc
        directions, each row sorted and free of repeats."""
        if not self.directed:
            return self._csr
        n = self.n
        indptr, v = self._csr
        u = np.repeat(np.arange(n), np.diff(indptr))
        return _csr_from_keys(np.concatenate((u * n + v, v * n + u)), n)


def _edge_columns(edges, n):
    """The (u, v) id columns of `edges` as int64 arrays, self-loops
    dropped; ValueError names the first other edge outside 0..n-1."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        arr = _pairs(edges)
    except OverflowError:
        # An id past int64 is out of range, unless its edge is a self-loop.
        edges = [(u, v) for u, v in edges if u != v]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}") \
                    from None
        arr = _pairs(edges)
    u, v = arr[:, 0], arr[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"edge ({u[i]},{v[i]}) out of range for n={n}")
    return u, v


def _pairs(edges):
    """`edges` as an (m, 2) int64 array; OverflowError past int64."""
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.shape[1:] != (2,):
        raise ValueError("edges must be (u, v) pairs")
    return arr


def _distinct(values):
    """The distinct values of a sorted array (np.unique is far slower)."""
    if values.size == 0:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _csr_from_keys(keys, n):
    """(indptr, indices) of the arcs with keys u * n + v, each arc once."""
    keys = _distinct(np.sort(keys))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


def _lists(indptr, indices):
    """Per-node adjacency lists of a CSR pair."""
    flat, bounds = indices.tolist(), indptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def bfs_dag(g, s, *, stop_at=None, rows=None):
    """Level-synchronous BFS from s along out-edges: (dist, sigma) by node,
    hop distances with -1 for unreachable and exact shortest-path counts.
    For n <= _CACHE_MAX_N, the full row in the form _cache_rows gives
    fill_dag_cache's rows: typed arrays, or the list BFS's lists if a
    count passes int64; treat it as immutable.  With `rows`, a row store
    (a dict, source -> row), the row is read from it, or BFSed and added
    to it; without, it is BFSed anew.  Above, neither read nor stored:
    bfs_dist_sigma's int64 row, or the list BFS's lists once the kernel
    gives up, with the levels past dist[stop_at] unexpanded (-1)."""
    s = _check_id(g, s, "source")
    if stop_at is not None:
        stop_at = _check_id(g, stop_at, "stop_at")
    if g.n <= _CACHE_MAX_N:
        if rows is None:
            rows = {}
        if s not in rows:
            row = dist, sigma = _list_bfs(g, s)
            if max(sigma) < 2 ** 63:
                (row,) = _cache_rows(np.array([dist], dtype=np.int64),
                                     np.array([sigma], dtype=np.int64))
            rows[s] = row
        return rows[s]
    block = bfs_dist_sigma(g, np.array([s], dtype=np.int64), stop_at)
    if block is None:
        return _list_bfs(g, s, stop_at)
    return block[0][0], block[1][0]


def _list_bfs(g, s, stop_at=None):
    """bfs_dag's row from s as lists, with Python-int counts that never
    overflow; with stop_at, levels past dist[stop_at] are not expanded."""
    adj = g.adj
    dist = [-1] * g.n
    sigma = [0] * g.n
    dist[s] = 0
    sigma[s] = 1
    frontier = [s]
    level = 0
    while frontier and (stop_at is None or dist[stop_at] < 0):
        level += 1
        fresh = []
        for v in frontier:
            sv = sigma[v]
            for w in adj[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = level
                    sigma[w] = sv
                    fresh.append(w)
                elif dw == level:
                    sigma[w] += sv
        frontier = fresh
    return dist, sigma


def _check_id(g, v, what):
    """The id v as an int (operator.index); ValueError unless it is an
    integer in 0..n-1."""
    try:
        i = operator.index(v)
    except TypeError:
        raise ValueError(f"{what} {v!r} is not an integer id") from None
    if not 0 <= i < g.n:
        raise ValueError(f"{what} {v} out of range for n={g.n}")
    return i


def fill_dag_cache(g, sources, rows):
    """Put bfs_dag(g, s) into the row store `rows` (a dict, source -> row)
    for every s in `sources` not yet in it; nothing for n > _CACHE_MAX_N,
    whose rows are not kept.  The sources not in it are BFSed
    block_sources(n) at a time, in id order, by bfs_dist_sigma.  Once it
    gives up a block, whose counts could overflow int64 or whose BFS runs
    deep and thin, that block and every later source go through bfs_dag's
    list BFS instead, once per source: both are mostly properties of the
    graph, which the later blocks share."""
    if g.n > _CACHE_MAX_N:
        return
    todo = sorted({_check_id(g, s, "source")
                   for s in sources}.difference(rows))
    step = block_sources(g.n)
    for lo in range(0, len(todo), step):
        block = todo[lo:lo + step]
        swept = bfs_dist_sigma(g, np.array(block, dtype=np.int64))
        if swept is None:
            for s in todo[lo:]:
                bfs_dag(g, s, rows=rows)
            return
        rows.update(zip(block, _cache_rows(*swept)))


def _cache_rows(dist, sigma):
    """The stored rows of a block's int64 (dist, sigma) arrays, each row
    a pair of array.array: dist as int16 ("h"), which holds every
    distance below _CACHE_MAX_N, and sigma as int32 ("i") if the block's
    counts fit it, int64 ("q") otherwise.  Indexing either gives Python
    ints, as the lists of the list BFS do, in under half their bytes."""
    code = "i" if counts_fit_int32(sigma) else "q"
    return [(array("h", d.tobytes()), array(code, c.tobytes()))
            for d, c in zip(dist.astype("h"), sigma.astype(code))]


def counts_fit_int32(sigma):
    """Whether every path count of the array `sigma`, int64 or integral
    float64, is below 2**31, so that int32 holds it exactly."""
    return int(sigma.max()) < 2 ** 31


def bfs_dist_sigma(g, sources, stop_at=None):
    """bfs_levels of every source in `sources`, summed into (dist, sigma)
    as int64 arrays of shape (len(sources), n), with exact path counts.
    None once a level's count exceeds 2**62 // n, past which the next
    level's sums could overflow int64, or once the BFS runs deep and thin
    (_THIN_LEVEL_ARCS).  With stop_at (one source only), levels beyond
    dist[stop_at] are not expanded."""
    n = g.n
    level_arcs = _THIN_LEVEL_ARCS * sources.size * n // _BLOCK_CELLS
    origin = np.arange(sources.size) * n + sources
    dist = np.full(origin.size * n, -1, dtype=np.int64)
    sigma = np.zeros(origin.size * n, dtype=np.int64)
    dist[origin] = 0
    sigma[origin] = 1
    limit = 2 ** 62 // max(n, 2)
    levels = bfs_levels(g, sources)
    level = arcs = 0
    while stop_at is None or dist[stop_at] < 0:
        parent, child = next(levels, (None, None))
        if child is None:
            break
        level += 1
        arcs += child.size
        if level >= _THIN_LEVELS and arcs < level * level_arcs:
            return None
        dist[child] = level
        # int64 sums: exact below the guard, unlike a float64 bincount.
        np.add.at(sigma, child, sigma[parent])
        if int(sigma[child].max()) > limit:
            return None
    return dist.reshape(-1, n), sigma.reshape(-1, n)


def block_sources(n):
    """How many sources one BFS block holds on n nodes."""
    return max(1, _BLOCK_CELLS // max(n, 1))


def bfs_levels(g, sources):
    """Level-synchronous BFS of every source in `sources` at once, along
    out-arcs, over flat cells i * n + v for source i and node v.  Yields,
    for d = 1, 2, ... until a level finds no new cell, the shortest-path
    DAG arcs (parent cells, child cells) into the cells at distance d, in
    parent then arc order, parents ascending.  Those children, deduped,
    are the next level's frontier, so a level costs its own arcs, not the
    block.

    One source's cells are its nodes, so a child cell is the head w of
    its arc v -> w.  In a block of sources, arc j adds hop[j] = w - v to
    the parent cell; hop costs O(m) per call, which a one-source BFS cut
    at a target need not pay."""
    n = g.n
    indptr, indices = g.csr()
    block = len(sources) > 1
    hop = (indices - np.repeat(np.arange(n), np.diff(indptr)) if block
           else indices)
    frontier = np.arange(len(sources)) * n + sources
    seen = np.zeros(frontier.size * n, dtype=bool)
    seen[frontier] = True
    marks = np.zeros(seen.size, dtype=bool)
    while True:
        nodes = frontier % n
        starts, stops = indptr[nodes], indptr[nodes + 1]
        counts = stops - starts
        # 1-d nonzero()[0] is flatnonzero without its wrapper, which costs
        # 0.7 us a call: as much as a level of a deep graph's small block.
        some = counts.nonzero()[0]
        if not some.size:
            return
        if some.size < counts.size:
            frontier, starts, stops, counts = (
                frontier[some], starts[some], stops[some], counts[some])
        # The arc positions, frontier cell by cell: a cumsum over ones
        # that jumps at the first arc of each cell to its start.
        ends = np.cumsum(counts)
        pos = np.ones(ends[-1], dtype=np.intp)
        pos[0] = starts[0]
        pos[ends[:-1]] = starts[1:] - stops[:-1] + 1
        np.cumsum(pos, out=pos)
        child = hop[pos]
        # Two arrays of the level's arcs at a time, not three.
        del pos
        parent = np.repeat(frontier, counts)
        if block:
            child += parent
        fresh = (~seen[child]).nonzero()[0]
        if not fresh.size:
            return
        parent = parent[fresh]
        child = child[fresh]
        # The next frontier, the distinct children in order.  Marking
        # them and reading the marks off the block's cells scans the whole
        # block, yet beats the sort past about a sixteenth of its cells:
        # 2x at a third, 7-8x at one to five times the cells.
        if child.size * 16 > marks.size:
            marks[child] = True
            frontier = marks.nonzero()[0]
            marks[frontier] = False
        else:
            frontier = _distinct(np.sort(child))
        seen[frontier] = True
        yield parent, child


@dataclass
class TemporalEdgeList:
    """Labeled edges (m, 2) and their stamps (m,) as columns, stably sorted
    by time; int64, or dtype object if a file value falls outside int64."""
    edges: np.ndarray
    times: np.ndarray

    def __len__(self):
        return len(self.times)

    def snapshot_edges(self, when, mode="cumulative"):
        """Rows of `edges` at time `when`, repeats kept (Graph drops them).

        cumulative: every edge with t <= when.
        exact:      edges timestamped exactly `when` (dump-per-snapshot data).
        """
        try:
            key = np.array(when, dtype=self.times.dtype)
        except OverflowError:
            # numpy would round an int64 search key past int64 to a float.
            key = np.array(when, dtype=object)
        end = np.searchsorted(self.times, key, "right")
        if mode == "cumulative":
            return self.edges[:end]
        if mode == "exact":
            return self.edges[np.searchsorted(self.times, key, "left"):end]
        raise ValueError(f"unknown snapshot mode {mode!r}")


def _parse_int(token, path, lineno):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: bad integer token {token!r}") from None


def _int_columns(path, form):
    """The first len(form.split()) integer columns of every data line, as
    one (m, width) array: int64, or dtype object if a value falls outside
    int64.

    Blank lines and '#' comment lines before the first data line are
    skipped; any other '#' stays part of its line.  One C-level pass
    (np.loadtxt) reads the file; input it refuses (a malformed line, a
    comment after the first data line, or a token that int() takes and it
    does not, such as 1_000, non-ASCII digits or ids outside int64) goes
    through `_int_rows`, which gives the exact result or ParseError.
    """
    width = len(form.split())
    with open(path) as fh:
        skip = 0
        for line in fh:
            text = line.strip()
            if text and not text.startswith("#"):
                break
            skip += 1
        else:
            return np.empty((0, width), dtype=np.int64)
        fh.seek(0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return np.loadtxt(fh, dtype=np.int64, comments=None,
                                  skiprows=skip, usecols=range(width),
                                  ndmin=2)
        except (ValueError, Warning):
            pass
    return _int_rows(path, form)


def _int_rows(path, form):
    """The line loop: `_int_columns`'s array, read token by token with
    int(); ParseError names the first bad line."""
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
            rows.append(tuple(_parse_int(tok, path, lineno)
                              for tok in tokens[:width]))
    # The dtype is given: numpy would infer float64 for a value past int64.
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, width)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(-1, width)


def load_edge_list(path, directed=False):
    """Read "u v" lines ('#' comments skipped), remap ids densely, simplify.

    One C-level parse reads the file; only input it refuses goes through
    the line loop, which gives the same graph or the exact ParseError."""
    return graph_from_labeled_edges(_int_columns(path, "u v"),
                                    directed=directed)


def graph_from_labeled_edges(cols, directed=False):
    """Build a Graph from an (m, 2) array of integer labels (int64 or
    dtype object), ids dense in sorted label order."""
    labels = _distinct(np.sort(cols, axis=None))
    return Graph(labels.size, np.searchsorted(labels, cols),
                 directed=directed, labels=labels.tolist())


def load_temporal_edge_list(path):
    """Read "u v t" lines; returns the edges sorted by t (stable)."""
    cols = _int_columns(path, "u v t")
    cols = cols[np.argsort(cols[:, 2], kind="stable")]
    return TemporalEdgeList(cols[:, :2], cols[:, 2])


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
    indptr, indices = g.weak_csr()
    bounds, flat = indptr.tolist(), indices.tolist()
    out = []
    for u in range(g.n):
        nu = [w for w in flat[bounds[u]:bounds[u + 1]] if w > u]
        nu_set = set(nu)
        for v in nu:
            for w in flat[bounds[v]:bounds[v + 1]]:
                if w > v and w in nu_set:
                    out.append((u, v, w))
    return out
