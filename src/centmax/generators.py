"""Synthetic graph generators: stochastic Kronecker graphs, random
Apollonian networks, hypercubes, and the rook-plus-isolated-nodes family
used to stress pair-sampling estimators."""
from __future__ import annotations

import math
import random
import sys

import numpy as np

from .errors import SizeError
from .graph import Graph

# Exact per-pair Bernoulli sampling is quadratic in n; above this many
# levels we switch to ball dropping.
_KRON_EXACT_MAX_I = 12
# The exact path draws blocks of 2^_KRON_BLOCK_LEVELS rows of the matrix.
_KRON_BLOCK_LEVELS = 8
# The ball path drops its balls in blocks of this many, so that only one
# block's (balls, i) cell arrays are held at a time.
_KRON_BALL_BLOCK = 1 << 16
# No generator builds a graph of more edges than this, counted in closed
# form before any loop or allocation: ran:10^6 takes 3.2 s and 640 MB and
# kron:20 1.6 s and 907 MB, while ran:2^63 would run until killed.
_EDGE_GUARD = 10 ** 7


def _check_edges(count, what):
    """SizeError if `count` edges, what the generator spec `what` builds,
    exceed _EDGE_GUARD."""
    if count > _EDGE_GUARD:
        raise SizeError(f"{what} would have {count} edges, past the "
                        f"generator guard {_EDGE_GUARD}")


def _np_rng(rng):
    return np.random.default_rng(rng.getrandbits(64))


def _seed_array(seed):
    p = np.asarray(seed, dtype=np.float64)
    if p.shape != (2, 2) or not ((p >= 0) & (p <= 1)).all():
        raise ValueError("seed must be a 2x2 matrix of probabilities")
    return p


def kronecker_probability_matrix(seed, i):
    """Full n x n edge-probability matrix (n = 2^i) as the i-fold Kronecker
    power of the 2x2 seed."""
    p = _seed_array(seed)
    out = np.array([[1.0]])
    for _ in range(i):
        out = np.kron(out, p)
    return out


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


def gen_kronecker(seed, i, rng):
    """Undirected simple stochastic Kronecker graph on 2^i nodes.

    Up to i = 12 every pair is sampled Bernoulli, one block of rows of the
    probability matrix at a time (meta method "exact"); above that a
    Poisson number of edges is dropped cell-by-cell down the seed recursion
    (method "ball").
    """
    if not 1 <= i <= 24:
        raise ValueError("i must be in 1..24")
    p = _seed_array(seed)
    _check_edges(round(float(p.sum()) ** i), f"kron:{i}")
    n = 2 ** i
    nrng = _np_rng(rng)
    method = "exact" if i <= _KRON_EXACT_MAX_I else "ball"
    if method == "exact":
        # Rows r0..r0 + 2^b - 1 are row r0 >> b of the level-(i - b) matrix
        # kron'd b more times: the products and the random stream of one
        # (n, n) draw, in O(n 2^b) memory.
        b = min(i, _KRON_BLOCK_LEVELS)
        blocks = []
        for block, prob in enumerate(kronecker_probability_matrix(p, i - b)):
            prob = prob[None, :]
            for _ in range(b):
                prob = np.kron(prob, p)
            r0 = block << b
            us, vs = np.nonzero(np.triu(nrng.random(prob.shape) < prob,
                                        k=r0 + 1))
            blocks.append(np.column_stack((us + r0, vs)))
        edges = np.concatenate(blocks)
    else:
        mass = p.sum()
        # Each undirected edge can arrive through either ordered cell, so
        # half the ordered-cell mass keeps expected edge counts aligned
        # with the per-pair Bernoulli model.
        count = int(nrng.poisson(mass ** i / 2.0))
        # count > 0 implies mass > 0; an all-zero seed drops no balls.
        # With p given, choice reads one double per cell in C order, so the
        # blocks draw the stream of one (count, i) draw.
        cell_p = (p / mass).ravel() if count else None
        weights = (1 << np.arange(i - 1, -1, -1, dtype=np.int64))
        blocks = [np.zeros((0, 2), dtype=np.int64)]
        for start in range(0, count, _KRON_BALL_BLOCK):
            cells = nrng.choice(4, p=cell_p, size=(
                min(_KRON_BALL_BLOCK, count - start), i))
            blocks.append(np.column_stack(((cells // 2) @ weights,
                                           (cells % 2) @ weights)))
        edges = np.concatenate(blocks)
    meta = {"generator": "kronecker", "i": i, "method": method,
            "seed_matrix": [float(x) for row in p for x in row]}
    return Graph(n, edges, directed=False, meta=meta)


class RanState:
    """Growing planar triangulation: each step splits a uniformly random
    active face with a fresh degree-3 node.

    After t steps (t nodes) the invariants are e = 3t-6 edges and
    f = 2t-5 active faces.
    """

    def __init__(self):
        self.t = 3
        self.faces = [(0, 1, 2)]          # active faces, order irrelevant
        self.edges = [(0, 1), (0, 2), (1, 2)]

    def step(self, rng):
        idx = rng.randrange(len(self.faces))
        # Swap-remove keeps face sampling O(1).
        self.faces[idx], self.faces[-1] = self.faces[-1], self.faces[idx]
        a, b, c = self.faces.pop()
        new = self.t
        self.t += 1
        self.edges.extend([(a, new), (b, new), (c, new)])
        self.faces.extend([(a, b, new), (a, c, new), (b, c, new)])
        return new


def gen_ran(n, rng):
    """Random Apollonian network on n >= 3 nodes."""
    if n < 3:
        raise ValueError("need n >= 3")
    _check_edges(3 * n - 6, f"ran:{n}")
    state = RanState()
    while state.t < n:
        state.step(rng)
    meta = {"generator": "ran", "n": n}
    return Graph(n, state.edges, directed=False, meta=meta)


def gen_hypercube(r):
    """The r-dimensional hypercube: 2^r bitstring nodes, Hamming-1 edges."""
    if not 1 <= r <= 16:
        raise ValueError("r must be in 1..16")
    _check_edges(r * 2 ** (r - 1), f"hypercube:{r}")
    n = 2 ** r
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(r)
             if v < v ^ (1 << b)]
    return Graph(n, edges, directed=False, meta={"generator": "hypercube", "r": r})


def gen_lower_bound(n, eps):
    """A rook's-graph component (rows x cols, rows = floor(eps*sqrt(n)),
    cols = floor(sqrt(n))) padded with isolated nodes up to n total.

    The component has diameter 2 and at most 2 shortest paths per pair, so
    only pair samples landing inside it are informative.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    # With rows >= 2 the component has at least cols^2 edges, about n; an
    # n past the float range is refused before math.sqrt overflows on it.
    if n > sys.float_info.max:
        raise SizeError(f"lowerbound:{n},{eps} would have over 1e308 edges, "
                        f"past the generator guard {_EDGE_GUARD}")
    root = math.sqrt(n)
    rows = int(eps * root)
    cols = int(root)
    if rows < 2 or cols < 2:
        raise ValueError("degenerate rook dimensions; increase n or eps")
    if rows * cols > n:
        raise ValueError("rook component larger than n")
    _check_edges(rows * math.comb(cols, 2) + cols * math.comb(rows, 2),
                 f"lowerbound:{n},{eps}")
    edges = []
    node = lambda i, j: i * cols + j
    for i in range(rows):
        for j in range(cols):
            for jj in range(j + 1, cols):
                edges.append((node(i, j), node(i, jj)))
    for j in range(cols):
        for i in range(rows):
            for ii in range(i + 1, rows):
                edges.append((node(i, j), node(ii, j)))
    meta = {"generator": "lower-bound", "rows": rows, "cols": cols,
            "component_nodes": rows * cols, "isolated": n - rows * cols}
    return Graph(n, edges, directed=False, meta=meta)
