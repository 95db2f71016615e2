"""The benchmark's workloads: inputs, timed calls, answer checks and quality.

Each timed call is the library function that the matching CLI subcommand
calls (`maximize` -> maximize.hedge, `exact --mode exgreedy` ->
exact.ex_greedy).  README.md says why each workload was chosen.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace

from centmax import exact, experiments, generators, maximize, samplers

# The seed matrix the CLI uses for `--gen kron:<i>`.
KRON_SEED = [[0.9, 0.5], [0.5, 0.2]]


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str                # "ran" or "kron"
    size: int                 # ran: node count; kron: levels (2^size nodes)
    sampler: str              # SamplerSpec kind
    k: int
    eps: float = 0.1
    p: float = 0.01           # rr-influence edge probability
    budget: int | None = None  # None: paper-exp budget ceil(k ln n / eps^2)
    exgreedy: bool = False    # also run ex_greedy(g, k) on the same graph
    heldout: int = 0          # held-out betweenness samples scoring quality
    spread_runs: int = 10000  # cascades of ic_spread scoring quality


WORKLOADS = {w.name: w for w in [
    Workload("bwc-ran5k", "ran", 5000, "betweenness", k=10, heldout=1000),
    # p stays at 0.01: at p=0.3 this pool needs several GB of memory.
    Workload("rr-kron14", "kron", 14, "rr-influence", k=50, budget=10 ** 6),
    Workload("exact-ran1k", "ran", 1000, "betweenness", k=10, exgreedy=True),
]}

# Sizes of the smoke mode.  ran:2100 keeps bwc-ran5k above the n > 2048
# switch to the numpy pair-BFS path.
SMOKE = {
    "bwc-ran5k": dict(size=2100, budget=150, heldout=100),
    "rr-kron14": dict(size=8, k=5, budget=5000, spread_runs=200),
    "exact-ran1k": dict(size=100, k=3),
}


def get(name, smoke=False):
    wl = WORKLOADS[name]
    return replace(wl, **SMOKE[name]) if smoke else wl


def generate(wl, seed):
    rng = random.Random(f"graph:{seed}")
    if wl.graph == "ran":
        return generators.gen_ran(wl.size, rng)
    return generators.gen_kronecker(KRON_SEED, wl.size, rng)


def budget(wl, n):
    if wl.budget is not None:
        return wl.budget
    return maximize.experiment_budget(n, wl.k, wl.eps)


def run(wl, g, seed):
    """The timed calls of one repetition; returns the answer as JSON-ready
    lists."""
    spec = samplers.SamplerSpec(wl.sampler, p=wl.p)
    result = maximize.hedge(g, spec, wl.k, wl.eps,
                            rng=random.Random(f"hedge:{seed}"),
                            budget=budget(wl, g.n))
    out = {"picks": result.selected,
           "marginals": result.marginal_degrees,
           "scaled": result.scaled_centrality(),
           "sample_count": result.sample_count}
    if wl.exgreedy:
        out["exg_picks"], out["exg_scores"] = exact.ex_greedy(g, wl.k)
    return out


def _check_picks(what, picks, k, n):
    if len(picks) != k or len(set(picks)) != k:
        return [f"{what}: {len(set(picks))} distinct of {len(picks)}, want {k}"]
    if not all(0 <= v < n for v in picks):
        return [f"{what}: id out of range 0..{n - 1}"]
    return []


def _increases(xs):
    return any(a < b for a, b in zip(xs, xs[1:]))


def check(wl, n, out):
    """Failed checks of one repetition's answer; empty when all pass."""
    bad = _check_picks("hedge picks", out["picks"], wl.k, n)
    if _increases(out["marginals"]):
        bad.append("marginal degrees increase")
    if out["sample_count"] != budget(wl, n):
        bad.append(f"sample_count {out['sample_count']} != budget "
                   f"{budget(wl, n)}")
    scaled = out["scaled"]
    if not all(0.0 <= x <= 1.0 for x in scaled):
        bad.append("scaled estimates outside [0,1]")
    if _increases(scaled[::-1]):
        bad.append("scaled estimates decrease")
    covered = itertools.accumulate(out["marginals"])
    if any(abs(x - c / out["sample_count"]) > 1e-9
           for x, c in zip(scaled, covered)):
        bad.append("scaled estimates disagree with the covered share")
    if wl.exgreedy:
        bad += _check_picks("ex_greedy picks", out["exg_picks"], wl.k, n)
        if _increases(out["exg_scores"][::-1]):
            bad.append("ex_greedy scores decrease")
    return bad


def quality(wl, g, seed, out):
    """Exact quality of an answer, computed outside the timed region.

    exgreedy workloads: set_bwc(picks) / final ex_greedy score.
    rr-influence: independent-cascade spread of the picks / n.
    otherwise: share of an independent held-out pool that the picks hit
    (exact set_bwc is too slow at this size).
    """
    if wl.exgreedy:
        return exact.set_bwc(g, out["picks"]) / out["exg_scores"][-1]
    if wl.sampler == "rr-influence":
        spread = experiments.ic_spread(g, out["picks"], wl.p,
                                       runs=wl.spread_runs,
                                       rng=random.Random(f"spread:{seed}"))
        return spread / g.n
    spec = samplers.SamplerSpec(wl.sampler, p=wl.p)
    rng = random.Random(f"heldout:{seed}")
    chosen = set(out["picks"])
    hits = sum(1 for _ in range(wl.heldout)
               if not chosen.isdisjoint(samplers.sample(g, spec, rng)))
    return hits / wl.heldout


def check_quality(wl, q):
    """Failed quality checks; exgreedy workloads must meet the
    (1 - 1/e - eps) guarantee against exact greedy."""
    if wl.exgreedy:
        floor = 1.0 - 1.0 / math.e - wl.eps
        return [] if q >= floor else [f"quality {q} < 1 - 1/e - eps = {floor}"]
    return [] if 0.0 < q <= 1.0 else [f"quality {q} outside (0,1]"]
