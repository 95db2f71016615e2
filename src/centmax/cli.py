"""Command-line entry point.

Every subcommand is seeded and reproducible: the same flags (including
--seed) produce byte-identical output apart from wall times, and each output
embeds the configuration that made it, except the exact CSVs and the
sample-dump lines, which hold only their rows.

Exit codes: 0 success, 2 usage error, 3 size-guard refusal or path-count
overflow, 4 I/O error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import random
import re
import sys
import time
import zlib
from itertools import chain

from . import exact, experiments, generators, maximize, samplers
from .errors import SizeError
from .graph import load_edge_list, load_temporal_edge_list, write_edge_list

DEFAULT_SEED = 20100501

_BRANDES_GUARD_N = 20000
_EXGREEDY_GUARD_N = 10000


def _fmt(x):
    if isinstance(x, float):
        return float(f"{x:.9g}")
    return x


def _json_dump(obj, stream):
    def clean(o):
        if isinstance(o, float):
            return _fmt(o)
        if isinstance(o, dict):
            return {k: clean(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [clean(v) for v in o]
        return o
    json.dump(clean(obj), stream, indent=2)
    stream.write("\n")


def _open_out(path):
    """The output file, or standard output (left open) for "-"."""
    if path and path != "-":
        return open(path, "w")
    return contextlib.nullcontext(sys.stdout)


def _load_graph(args):
    spec, path = getattr(args, "gen", None), getattr(args, "input", None)
    if spec and path:
        raise UsageError("give --input or --gen, not both")
    if spec:
        return _generate_from_spec(spec, random.Random(args.seed ^ 0x9E3779B9))
    if not path:
        raise UsageError("need --input or --gen")
    return load_edge_list(path, directed=args.directed)


class UsageError(ValueError):
    pass


# kind -> (form, allowed counts of float parameters after the integer size)
_GENERATORS = {"ran": ("ran:N", (0,)), "hypercube": ("hypercube:R", (0,)),
               "kron": ("kron:I[,a,b,c,d]", (0, 4)),
               "lowerbound": ("lowerbound:N,EPS", (1,))}


def _generate_from_spec(spec, rng):
    """The graph a generator spec names: ran:N, hypercube:R, lowerbound:N,EPS
    or kron:I[,a,b,c,d] (row-major 2x2 seed, default 0.9,0.5,0.5,0.2)."""
    kind, _, rest = spec.partition(":")
    if kind not in _GENERATORS:
        raise UsageError(f"unknown generator spec {spec!r}; use one of "
                         + ", ".join(f for f, _ in _GENERATORS.values()))
    form, counts = _GENERATORS[kind]
    size, *vals = rest.split(",")
    try:
        size, vals = int(size), [float(x) for x in vals]
    except ValueError:
        vals = None
    if vals is None or len(vals) not in counts:
        raise UsageError(f"generator spec {spec!r} is not of the form {form}")
    if kind == "ran":
        return generators.gen_ran(size, rng)
    if kind == "hypercube":
        return generators.gen_hypercube(size)
    if kind == "kron":
        m = vals or [0.9, 0.5, 0.5, 0.2]
        return generators.gen_kronecker([m[:2], m[2:]], size, rng)
    return generators.gen_lower_bound(size, vals[0])


def _sampler_spec(args):
    kind = args.sampler
    if kind == "rr":
        kind = "rr-influence"
    return samplers.SamplerSpec(kind, kappa=args.kappa, p=args.p)


def _resolve_budget(args, n):
    """The pool size a --budget preset names; None for theory, which
    maximize.hedge computes itself."""
    b = args.budget
    if b.startswith("explicit:"):
        return int(b.split(":", 1)[1])
    if b == "theory":
        return None
    if b == "paper-exp":
        return maximize.experiment_budget(n, args.k, args.eps)
    if b == "equal-yalg":
        return maximize.equal_budget(n, args.eps)
    raise UsageError(f"unknown budget preset {b!r}")


def _config_dict(args, skip=("func",)):
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def cmd_maximize(args):
    g = _load_graph(args)
    spec = _sampler_spec(args)
    budget = _resolve_budget(args, g.n)
    rng = random.Random(args.seed)
    result = maximize.hedge(g, spec, args.k, args.eps, args.ell,
                            args.maxk_scaled, rng=rng, budget=budget)
    out = {
        "config": _config_dict(args),
        "selected": [g.labels[v] for v in result.selected],
        "marginal_degrees": result.marginal_degrees,
        "scaled_centrality": result.scaled_centrality(),
        "estimated_centrality": result.estimated_centrality,
        "sample_count": result.sample_count,
        "alpha": result.alpha,
        "wall_time": result.wall_time,
    }
    with _open_out(args.output) as fh:
        _json_dump(out, fh)


def cmd_exact(args):
    g = _load_graph(args)
    denom = g.n * (g.n - 1) if g.n > 1 else 1
    # Every row is computed before the output opens, so a refused run
    # leaves no file behind and an existing one untouched.
    if args.mode == "brandes":
        if g.n > _BRANDES_GUARD_N:
            raise SizeError(f"n={g.n} exceeds the exact guard "
                            f"{_BRANDES_GUARD_N}")
        rows = ["node,score,scaled_score"]
        rows += [f"{g.labels[v]},{_fmt(score)},{_fmt(score / denom)}"
                 for v, score in enumerate(exact.brandes(g))]
    elif args.mode == "exgreedy":
        if g.n > _EXGREEDY_GUARD_N:
            raise SizeError(f"n={g.n} exceeds the exhaustive-greedy "
                            f"guard {_EXGREEDY_GUARD_N}")
        t0 = time.perf_counter()
        picks, scores = exact.ex_greedy(g, args.k)
        elapsed = time.perf_counter() - t0
        rows = ["round,node,set_centrality,scaled_centrality"]
        rows += [f"{i},{g.labels[v]},{_fmt(s)},{_fmt(s / denom)}"
                 for i, (v, s) in enumerate(zip(picks, scores), 1)]
        rows.append(f"# wall_time {_fmt(elapsed)}")
    elif args.mode == "brute":
        best_set, best_val = exact.brute_force_max(g, args.k)
        label_str = " ".join(str(g.labels[v]) for v in sorted(best_set))
        rows = ["nodes,set_centrality,scaled_centrality",
                f"{label_str},{_fmt(best_val)},{_fmt(best_val / denom)}"]
    else:
        raise UsageError(f"unknown exact mode {args.mode!r}")
    with _open_out(args.output) as fh:
        fh.writelines(row + "\n" for row in rows)


def cmd_generate(args):
    g = _generate_from_spec(args.spec, random.Random(args.seed))
    params = " ".join(f"{k}={v}" for k, v in g.meta.items())
    header = f"{params} seed={args.seed}"
    write_edge_list(g, args.output, header=header)


def cmd_attack(args):
    if args.cap < 0:
        raise UsageError(f"cap={args.cap} must be non-negative")
    maximize.check_eps(args.eps)
    samplers.check_params(args.kappa, args.p)
    g = _load_graph(args)
    if args.sampler == "triangle":
        ordering = exact.triangle_greedy(g, g.n)
    else:
        ordering = experiments.centrality_ordering(
            g, _sampler_spec(args), random.Random(args.seed), eps=args.eps)
    cap = min(args.cap, g.n)
    curve = experiments.attack_curve(g, ordering, cap)
    with _open_out(args.output) as fh:
        fh.write(f"# config {json.dumps(_config_dict(args))}\n")
        fh.write("removed,lcc_size\n")
        for r, s in curve.rows():
            fh.write(f"{r},{s}\n")


# influence method -> sampler kind of its centrality ordering
_ORDERING_METHODS = {"betw": "betweenness", "cov": "coverage",
                     "kpath": "kpath"}


def cmd_influence(args):
    methods = args.methods.split(",")
    for method in methods:
        if method not in ("im", "tri", *_ORDERING_METHODS):
            raise UsageError(f"unknown influence method {method!r}")
    g = _load_graph(args)
    maximize.check_k(args.k, g.n)
    samplers.check_params(args.kappa, args.p)
    maximize.check_eps(args.eps)
    maximize.check_count(args.runs, "--runs")
    if "im" in methods:
        maximize.check_count(args.num_rr, "--num-rr")
    if not _ORDERING_METHODS.keys().isdisjoint(methods):
        # Refuses an oversized ordering pool before any method runs.
        experiments.ordering_budget(g.n, args.eps)
    seed_sets = {}
    for method in methods:
        mrng = random.Random(args.seed ^ zlib.crc32(method.encode()))
        if method == "im":
            seed_sets[method] = experiments.ris_influence_max(
                g, args.k, args.num_rr, args.p, mrng)
        elif method == "tri":
            seed_sets[method] = exact.triangle_greedy(g, args.k)
        else:
            spec = samplers.SamplerSpec(_ORDERING_METHODS[method],
                                        kappa=args.kappa)
            ordering = experiments.centrality_ordering(g, spec, mrng,
                                                       eps=args.eps)
            seed_sets[method] = ordering[:args.k]
    with _open_out(args.output) as fh:
        fh.write(f"# config {json.dumps(_config_dict(args))}\n")
        fh.write("method,k,spread\n")
        for method in methods:
            spread = experiments.ic_spread(g, seed_sets[method], args.p,
                                           runs=args.runs,
                                           rng=random.Random(args.seed))
            fh.write(f"{method},{args.k},{_fmt(spread)}\n")


def cmd_evolve(args):
    temporal = load_temporal_edge_list(args.input)
    if args.snapshots:
        snaps = [int(t) for t in args.snapshots.split(",")]
    else:
        snaps = experiments.snapshot_grid(temporal, args.num_snapshots)
    ks = [int(k) for k in args.k_values.split(",")]
    spec = _sampler_spec(args)
    rng = random.Random(args.seed)
    rows = experiments.evolve(temporal, snaps, ks, spec, rng, eps=args.eps,
                              mode=args.mode, directed=args.directed)
    with _open_out(args.output) as fh:
        fh.write(f"# config {json.dumps(_config_dict(args))}\n")
        fh.write("t,n,m,avg_deg,k,scaled_centrality\n")
        for r in rows:
            fh.write(f"{r.timestamp},{r.n},{r.m},{_fmt(r.avg_degree)},"
                     f"{r.k},{_fmt(r.scaled_centrality)}\n")


def cmd_sample_dump(args):
    maximize.check_count(args.count, "--count")
    g = _load_graph(args)
    spec = _sampler_spec(args)
    chunks = map(samplers.expand,
                 samplers.split_chunks(g, spec, args.count,
                                       random.Random(args.seed)))
    # The first chunk is drawn before the output opens, so a refused draw
    # leaves no file behind; the rest are written as they are drawn.
    first = next(chunks)
    with _open_out(args.output) as fh:
        samplers.dump_hyperedges(chain([first], chunks), fh, labels=g.labels)


def _add_common(p, gen=True):
    p.add_argument("--input", required=not gen, help="edge-list file")
    if gen:
        p.add_argument("--gen", help="generator spec, as for generate")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", default="-")


_SAMPLER_KINDS = ("betweenness", "coverage", "kpath", "rr")


def _add_sampler(p, kinds=_SAMPLER_KINDS):
    """--kappa and --p, and --sampler if `kinds` offers any choice."""
    if kinds:
        p.add_argument("--sampler", default="betweenness", choices=kinds)
    p.add_argument("--kappa", type=int, default=2)
    p.add_argument("--p", type=float, default=0.01)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="centmax",
        description="Centrality maximization via hyper-edge sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maximize", help="sample-and-greedy maximization")
    _add_common(p)
    _add_sampler(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--maxk-scaled", type=float, default=1.0)
    p.add_argument("--budget", default="paper-exp",
                   help="theory | paper-exp | equal-yalg | explicit:N")
    p.set_defaults(func=cmd_maximize)

    p = sub.add_parser("exact", help="exact oracles and exhaustive greedy")
    _add_common(p)
    p.add_argument("--mode", required=True,
                   choices=["brandes", "exgreedy", "brute"])
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("generate", help="write a synthetic graph")
    p.add_argument("spec", help=" | ".join(f for f, _ in _GENERATORS.values()))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("attack", help="removal curve of the largest component")
    _add_common(p)
    _add_sampler(p, _SAMPLER_KINDS + ("triangle",))
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--cap", type=int, default=1000)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("influence", help="cascade spread of seed sets")
    _add_common(p)
    _add_sampler(p, ())
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--num-rr", type=int, default=10 ** 6)
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--methods", default="im,betw")
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("evolve", help="per-snapshot centrality series")
    _add_common(p, gen=False)
    _add_sampler(p)
    p.add_argument("--snapshots", help="comma-separated timestamps")
    # argparse takes only a lone negative number for a value, so that
    # "--snapshots -5,0,3" would read "-5,0,3" as an option; a comma list
    # of integers is taken as a value too.
    p._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")
    p.add_argument("--num-snapshots", type=int, default=10)
    p.add_argument("--k-values", default="1,50")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--mode", default="cumulative",
                   choices=["cumulative", "exact"])
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sample-dump", help="dump raw hyper-edges")
    _add_common(p)
    _add_sampler(p)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_sample_dump)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
