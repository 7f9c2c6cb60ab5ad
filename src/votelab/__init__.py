"""votelab: a rank-aggregation and smoothed-runtime laboratory.

Value types for rankings, profiles, and majority graphs; Mallows and
Plackett-Luce models with exact closed forms and samplers; the
cycle/co-cycle algebra of majority graphs; exact Kemeny/Slater solvers
(one dynamic program over placed-candidate sets, optionally restricted to
a distance-parameterized position window); permutation-orbit gadgets
reducing feedback-arc-set questions to winner determination; and a seeded
experiment harness for the associated probabilistic bounds.
"""

from .core import (
    Digraph,
    Permutation,
    Profile,
    Ranking,
    WeightedMajorityGraph,
    all_rankings,
    avg_kt,
    kemeny_score,
    kt_distance,
    kt_to_digraph,
    pairwise_tally,
    permute,
    slater_score,
    umg,
    wmg,
)
from .graph_algebra import (
    cocycle,
    cycle_basis_coeffs,
    cycle_to_triangles,
    dot,
    edge_gadget_graphs,
    eulerian_cycle_decomposition,
    orthogonal_decompose,
    three_cycle,
)
from .models import (
    MallowsParam,
    ParameterProfile,
    PlackettLuceParam,
    expected_kt_bound,
    expected_wmg,
    mallows_pairwise,
    mallows_pmf,
    mallows_sample,
    mallows_z,
    mean_expected_kt_bound,
    pl_pmf,
    pl_sample,
    sample_profile,
)
from .solvers import (
    SolveResult,
    TimedOut,
    kemeny_brute,
    kemeny_dp,
    slater_brute,
    solve_with_budget,
)
from .gadgets import (
    FasInstance,
    ReductionConfig,
    build_eulerian_profile,
    build_tournament_profile,
    build_triangle_profile,
    orbit_3cycle,
    orbit_cocycle,
    round_to_integral,
    run_reduction,
    verify_witness,
)

__version__ = "0.1.0"
