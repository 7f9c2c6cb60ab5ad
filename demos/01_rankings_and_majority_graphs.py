"""Rankings, profiles, and majority graphs.

Builds a small election, measures disagreement, and shows how every
operation commutes with relabeling the alternatives.
"""

import numpy as np

from votelab import (
    Permutation,
    Profile,
    Ranking,
    avg_kt,
    kemeny_score,
    kt_distance,
    permute,
    slater_score,
    umg,
    wmg,
)
from votelab.formats import format_profile

# Three voters, three alternatives, maximally cyclic: a Condorcet cycle.
votes = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
profile = Profile.from_rankings(votes)
print("profile:")
print(format_profile(profile))

a, b = Ranking((0, 1, 2)), Ranking((2, 1, 0))
print(f"KT({a}, {b}) = {kt_distance(a, b)}   (full reversal = m(m-1)/2)")
print(f"Kemeny score of {a}: {kemeny_score(a, profile)}")
print(f"Slater score of {a}: {slater_score(a, profile)}")
print(f"average pairwise KT distance: {avg_kt(profile)}")

g = wmg(profile)
print("\npairwise margins (w[a][b] = margin of a over b):")
print(g.matrix)
print("majority edges:", sorted(umg(profile).edges))

# Relabeling commutes with everything above.
sigma = Permutation.cycle([0, 1, 2], 3)
left = wmg(permute(sigma, profile))
right = permute(sigma, g)
print("\nrelabeling first or last gives the same majority graph:",
      left.equals(right))

# Mixing in the reversed electorate cancels every margin.
balanced = profile.union(profile.reversed())
print("profile + reversed profile has zero margins:",
      bool(np.all(wmg(balanced).matrix == 0)))
