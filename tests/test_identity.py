"""Bit-identity pins of the draw-and-cover path and of the exact oracles.

Each test hashes, with sha1, every output of one stage over a fixed set of
seeded cases and compares the digest with the one the code gave before the
pair walks became functions of a BFS row and the lazy greedy took its
zero-degree tail after the heap; the exact oracles' digest is the one they
gave while the BFS rows and the held path counts were still stored 8 bytes
per count.  A change that moves any pick, marginal, estimate bit, score
bit or pool byte fails here; a deliberate change of output must record new
digests and say why.
"""
import hashlib
import random

import numpy as np

from centmax import exact, experiments, generators
from centmax.graph import Graph
from centmax.maximize import HyperEdgePool, build_pool, greedy_cover
from centmax.samplers import SamplerSpec, sample, sample_many
from conftest import diamond_chain_edges, path_graph, seeded

KRON_SEED = [[0.9, 0.5], [0.5, 0.2]]


def digest(parts):
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def run_parts(res):
    """Every output of a greedy run, estimates as exact float hex."""
    return (res.selected, res.marginal_degrees,
            [e.hex() for e in res.estimated_centrality], res.sample_count)


def random_pool(seed):
    """(pool, k) of seed: empty pools, one-node and empty hyper-edges,
    nodes of no hyper-edge and k = n all come up among the seeds."""
    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    edges = []
    for _ in range(rng.choice((0, rng.randrange(1, 8), rng.randrange(1, 80)))):
        size = rng.choice((0, 1, 1, 2, rng.randrange(n + 1)))
        edges.append(rng.sample(range(n), min(size, n)))
    k = rng.choice((1, n, rng.randrange(1, n + 1)))
    alpha_value = rng.choice((1.0, float(n * (n - 1)), 0.3))
    return HyperEdgePool.from_edges(edges, n, alpha_value), k


def kron10():
    return generators.gen_kronecker(KRON_SEED, 10, seeded(7))


def pair_graphs():
    kron = kron10()
    flipped = [(v, u) if i % 3 == 0 else (u, v)
               for i, (u, v) in enumerate(kron.edges())]
    return {"ran:300": generators.gen_ran(300, seeded(1)),
            "kron:10": kron,
            "kron:10 directed": Graph(kron.n, flipped, directed=True),
            "path:3000": path_graph(3000),
            "ran:2100": generators.gen_ran(2100, seeded(1))}


def exact_graphs():
    """Graphs whose held path counts fit 4 bytes, and a chain of 32
    diamonds whose 2^32 counts do not."""
    graphs = pair_graphs()
    return {"ran:300": graphs["ran:300"],
            "kron:10 directed": graphs["kron:10 directed"],
            "path:1000": path_graph(1000),
            "diamonds:32": Graph(3 * 32 + 1, diamond_chain_edges(32))}


def test_greedy_on_random_pools():
    parts = []
    for seed in range(400):
        pool, k = random_pool(seed)
        parts.append(run_parts(greedy_cover(pool, k)))
    assert digest(parts) == GREEDY_DIGEST


def test_greedy_on_every_sampler_kind_at_k_n():
    g = kron10()
    parts = []
    for kind, q in (("betweenness", 3000), ("coverage", 3000),
                    ("kpath", 3000), ("rr-influence", 20000)):
        pool = build_pool(g, SamplerSpec(kind), q, seeded(3))
        parts.append(run_parts(greedy_cover(pool, g.n)))
    assert digest(parts) == KINDS_DIGEST


def test_orderings():
    lower = generators.gen_lower_bound(2000, 0.3)
    parts = [exact.triangle_greedy(kron10(), 1024),
             experiments.centrality_ordering(lower, SamplerSpec("betweenness"),
                                             seeded(5))]
    assert digest(parts) == ORDERING_DIGEST


def test_pair_pools_and_single_draws():
    parts = []
    for name, g in pair_graphs().items():
        for kind in ("betweenness", "coverage"):
            spec = SamplerSpec(kind)
            ptr, nodes = sample_many(g, spec, 3000, seeded(11))
            rng = seeded(12)
            parts += [name, kind, np.asarray(ptr, np.int64).tobytes(),
                      np.asarray(nodes, np.int64).tobytes(),
                      [sorted(sample(g, spec, rng)) for _ in range(200)]]
    assert digest(parts) == PAIR_DIGEST


def test_exact_oracles():
    parts = []
    for name, g in exact_graphs().items():
        picks, scores = exact.ex_greedy(g, 5)
        parts += [name, picks, [x.hex() for x in scores],
                  exact.set_bwc(g, picks[:3]).hex(),
                  [x.hex() for x in exact.brandes(g)]]
        if g.n <= 300:
            best, value = exact.brute_force_max(g, 1)
            parts += [sorted(best), value.hex()]
    assert digest(parts) == EXACT_DIGEST


GREEDY_DIGEST = "6a6fc215a2b4464cdf448197ce4a038f8ed7dd58"
KINDS_DIGEST = "ec8f4695efb25b0cbf87a51461d910d6ec1f3f05"
ORDERING_DIGEST = "eaeb6ac0af45f97ae9da6d1c8f1b506187029b5a"
PAIR_DIGEST = "5feaccf3746a003f79104dba5af62ab975bffc9b"
EXACT_DIGEST = "749309f3d91d4cf7f3a7d81e0db106d176d7a8f8"
