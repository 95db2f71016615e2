"""Centrality maximization toolkit: hyper-edge sampling, greedy coverage,
exact oracles, graph generators, and experiment drivers."""

from .errors import ParseError, SizeError
from .graph import (Graph, TemporalEdgeList, bfs_dag, load_edge_list,
                    load_temporal_edge_list, write_edge_list)
from .samplers import SamplerSpec, alpha, sample, sample_many
from .maximize import (HyperEdgePool, RunResult, build_pool, equal_budget,
                       experiment_budget, greedy_cover, hedge, sample_budget)
from .exact import (brandes, brute_force_max, ex_greedy, exact_coverage,
                    exact_kpath, set_bwc, triangle_greedy)
from .generators import (gen_hypercube, gen_kronecker, gen_lower_bound,
                         gen_ran)
from .experiments import (attack_curve, centrality_ordering, evolve,
                          ic_spread, ris_influence_max)

__version__ = "0.1.0"
