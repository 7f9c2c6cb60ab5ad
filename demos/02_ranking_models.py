"""Mallows and Plackett-Luce models: densities, marginals, samplers.

Everything has a closed form here; sampling exists to generate elections,
not to estimate quantities we can compute exactly.
"""

from fractions import Fraction

import numpy as np

from votelab import (
    MallowsParam,
    ParameterProfile,
    PlackettLuceParam,
    Ranking,
    all_rankings,
    expected_kt_bound,
    expected_wmg,
    mallows_pairwise,
    mallows_pmf,
    mallows_sample,
    mallows_z,
    mean_expected_kt_bound,
    pl_pmf,
    sample_profile,
    wmg,
)
from votelab.models import expected_kt

m = 3
center = Ranking(tuple(range(m)))
theta = MallowsParam(center, Fraction(1, 2))

print(f"normalization constant at dispersion 1/2, m={m}: {mallows_z(theta.phi, m)}")
print(f"probability of the central ranking: {mallows_pmf(theta, center)}")
print("density sums to", float(sum(mallows_pmf(theta, w) for w in all_rankings(m))))

print("\npairwise marginals by central gap (dispersion 1/2):")
for gap in (1, 2, 3):
    p = mallows_pairwise(Fraction(1, 2), gap)
    print(f"  gap {gap}: Pr[earlier beats later] = {p} = {float(p):.5f}")
print("at dispersion 1 every marginal is", mallows_pairwise(Fraction(1), 5))

print(f"\nexact expected distance to the center: {expected_kt(theta)}"
      f" = {float(expected_kt(theta)):.5f}")
print(f"dispersion-only bound: {expected_kt_bound(theta)}")
print("mean bound over dispersions (0.5, 1.0):",
      mean_expected_kt_bound([0.5, 1.0], m))

# The expected majority graph is exact, never sampled.
print("\nexpected margins:")
print(expected_wmg(theta).matrix)

# Sampling: 2000 voters around the center, empirical margins track the
# expectation at the sqrt(n) scale.
pp = ParameterProfile.from_entries(m, [(theta, 2000)])
prof = sample_profile(pp, np.random.default_rng(7))
print("\nempirical margins over 2000 sampled voters:")
print(wmg(prof).matrix)
print("expectation times 2000:")
print((expected_wmg(theta) * 2000).matrix.astype(np.float64).round(1))

# A Plackett-Luce electorate with one strong alternative.
pl = PlackettLuceParam.from_utilities([Fraction(2), Fraction(3, 2), 1])
print("\nsequential-choice probabilities:")
for r in all_rankings(3):
    print(f"  {r}: {pl_pmf(pl, r)}")
print("head-to-head margins (theta ratios):")
print(expected_wmg(pl).matrix)

draws = [mallows_sample(MallowsParam(center, 1e-9), np.random.default_rng(s)) for s in range(5)]
print("\nnear-zero dispersion collapses onto the center:", all(d == center for d in draws))
