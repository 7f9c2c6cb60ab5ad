"""Exact consensus solvers: the full placed-set lattice vs the distance window.

Every solver sweeps placed-candidate sets, one position at a time.  Over
the full lattice that is 2^m sets; the window DP restricts each position
to candidates whose average ballot position is within d (the ceiling of
the average pairwise distance), so its cost is governed by 16^d instead.
"""

import numpy as np

from votelab import (
    MallowsParam,
    ParameterProfile,
    Profile,
    Ranking,
    kemeny_brute,
    kemeny_dp,
    sample_profile,
    slater_brute,
    solve_with_budget,
)
from votelab.harness import DP_ENVELOPE_C, dp_runtime_envelope
from votelab.solvers import TimedOut

cyclic = Profile.from_rankings([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
rb = kemeny_brute(cyclic)
rd = kemeny_dp(cyclic)
print(f"cyclic profile: full lattice gives {rb.ranking} at score {rb.score};"
      f" window DP gives {rd.ranking} at score {rd.score}")
print(f"DP diagnostics: {rd.diagnostics}")
print(f"Slater consensus: {slater_brute(cyclic).ranking} at score {slater_brute(cyclic).score}")

# Low-dispersion electorates: tiny distance parameter, tiny state space.
rng = np.random.default_rng(12)
center = Ranking(tuple(range(6)))
for phi in (0.1, 0.5, 0.9):
    pp = ParameterProfile.from_entries(6, [(MallowsParam(center, phi), 30)])
    prof = sample_profile(pp, rng)
    res = kemeny_dp(prof)
    check = kemeny_brute(prof)
    env = DP_ENVELOPE_C * dp_runtime_envelope(res.diagnostics.d, 30, 6)
    print(f"phi={phi}: d={res.diagnostics.d}, states={res.diagnostics.max_states},"
          f" ops={res.op_count} (envelope {env:.0f}), scores agree: {res.score == check.score}")

# Budgeted execution counts ops, not seconds: a budget of the solve's own
# op count returns the result, one op less reports a timeout, and a
# starved solve is abandoned at the engine's next poll instead of blocking.
fast = solve_with_budget(kemeny_brute, cyclic, budget=rb.op_count)
print(f"\nbudget of {rb.op_count} ops returns:", fast.ranking, fast.score)
print(f"budget of {rb.op_count - 1} ops:",
      type(solve_with_budget(kemeny_brute, cyclic, budget=rb.op_count - 1)).__name__)
big = Profile.from_rankings([tuple(range(9))])
starved = solve_with_budget(kemeny_brute, big, budget=100)
print("budget of 100 ops on the m=9 full lattice:", type(starved).__name__,
      isinstance(starved, TimedOut))
