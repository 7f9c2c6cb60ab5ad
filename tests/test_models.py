"""Model exactness: densities, marginals, samplers, expected graphs, bounds."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sp_stats

from votelab.core import Permutation, Profile, Ranking, Tally, all_rankings, kt_distance, permute
from votelab.formats import format_parameter_profile, parse_parameter_profile
from votelab.models import (
    MallowsParam,
    ParameterProfile,
    PlackettLuceParam,
    expected_kt,
    expected_kt_bound,
    expected_wmg,
    kt_bound,
    mallows_pairwise,
    mallows_parameter_profile,
    mallows_pmf,
    mallows_sample,
    mallows_z,
    mean_expected_kt_bound,
    pl_pairwise,
    pl_pmf,
    pl_sample,
    sample_profile,
    sample_tally,
)

HALF = Fraction(1, 2)


def ladder(m):
    return Ranking(tuple(range(m)))


def _pmf(param, r):
    """The exact density of a parameter of either family at ranking ``r``."""
    return (mallows_pmf if isinstance(param, MallowsParam) else pl_pmf)(param, r)


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------


def test_z_uniform_is_factorial():
    assert mallows_z(Fraction(1), 3) == 6
    assert mallows_z(Fraction(1), 5) == 120


def test_z_values():
    assert mallows_z(0.5, 3) == pytest.approx(2.625)
    assert mallows_z(0.4, 3) == pytest.approx(2.184)
    assert mallows_z(0.8, 3) == pytest.approx(4.392)
    assert mallows_z(HALF, 3) == Fraction(21, 8)


def test_z_domain():
    with pytest.raises(ValueError):
        mallows_z(0.0, 3)
    with pytest.raises(ValueError):
        mallows_z(1.5, 3)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_pmf_central_value():
    p = MallowsParam(ladder(3), 0.5)
    assert mallows_pmf(p, ladder(3)) == pytest.approx(1 / 2.625)


def test_pmf_uniform():
    p = MallowsParam(ladder(4), Fraction(1))
    for w in all_rankings(4):
        assert mallows_pmf(p, w) == Fraction(1, 24)


def test_two_agent_profile_probability():
    # independent agents, distinct parameters: product of the two densities
    p1 = MallowsParam(Ranking((0, 1, 2)), 0.4)
    p2 = MallowsParam(Ranking((2, 1, 0)), 0.8)
    v1, v2 = Ranking((1, 0, 2)), Ranking((0, 2, 1))
    prob = mallows_pmf(p1, v1) * mallows_pmf(p2, v2)
    assert mallows_pmf(p1, v1) == pytest.approx(0.4 / 2.184)
    assert mallows_pmf(p2, v2) == pytest.approx(0.8**2 / 4.392)
    assert prob == pytest.approx(0.0266886, abs=1e-6)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("phi", [0.1, 0.5, 0.9, 1.0])
def test_pmf_normalization(m, phi):
    p = MallowsParam(ladder(m), phi)
    total = sum(mallows_pmf(p, w) for w in all_rankings(m))
    assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# pairwise marginal
# ---------------------------------------------------------------------------


def test_pairwise_closed_values():
    assert mallows_pairwise(0.5, 1) == pytest.approx(2 / 3)
    assert mallows_pairwise(0.5, 2) == pytest.approx(2 / 2.625)
    assert mallows_pairwise(HALF, 2) == Fraction(16, 21)
    for gap in (1, 2, 3, 5):
        assert mallows_pairwise(Fraction(1), gap) == Fraction(1, 2)


def test_pairwise_matches_quotient_form():
    # same function, the textbook quotient, away from phi = 1
    for phi in (0.15, 0.5, 0.85):
        for gap in range(1, 6):
            quotient = (gap + 1) / (1 - phi ** (gap + 1)) - gap / (1 - phi**gap)
            assert mallows_pairwise(phi, gap) == pytest.approx(quotient, abs=1e-12)


def test_pairwise_enumeration_oracle():
    # sum the density over rankings placing a above b, m <= 5
    for m in (3, 4, 5):
        for phi in (Fraction(3, 10), HALF, Fraction(9, 10)):
            p = MallowsParam(ladder(m), phi)
            for i in range(m):
                for j in range(i + 1, m):
                    marginal = sum(
                        mallows_pmf(p, w) for w in all_rankings(m) if w.prefers(i, j)
                    )
                    assert abs(marginal - mallows_pairwise(phi, j - i)) < Fraction(1, 10**10)


def test_pairwise_domain():
    with pytest.raises(ValueError):
        mallows_pairwise(0.5, 0)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_mallows_sample_concentrates_at_small_phi():
    p = MallowsParam(ladder(5), 1e-12)
    rng = np.random.default_rng(0)
    draws = [mallows_sample(p, rng) for _ in range(200)]
    assert all(d == ladder(5) for d in draws)


@pytest.mark.parametrize("m,phi", [(3, 0.5), (4, 0.5), (4, 1.0), (3, 0.2)])
def test_mallows_sampler_chi_square(m, phi):
    p = MallowsParam(ladder(m), phi)
    rankings = all_rankings(m)
    index = {r: i for i, r in enumerate(rankings)}
    probs = np.array([float(mallows_pmf(p, r)) for r in rankings])
    rng = np.random.default_rng(12345)
    draws = 100_000
    counts = np.zeros(len(rankings))
    for _ in range(draws):
        counts[index[mallows_sample(p, rng)]] += 1
    stat, pval = sp_stats.chisquare(counts, f_exp=probs * draws)
    assert pval > 0.001


def test_pl_sampler_chi_square():
    for theta in [(0.5, 0.3, 0.2), (0.25, 0.25, 0.25, 0.25)]:
        p = PlackettLuceParam(theta)
        rankings = all_rankings(p.m)
        index = {r: i for i, r in enumerate(rankings)}
        probs = np.array([float(pl_pmf(p, r)) for r in rankings])
        rng = np.random.default_rng(999)
        draws = 100_000
        counts = np.zeros(len(rankings))
        for _ in range(draws):
            counts[index[pl_sample(p, rng)]] += 1
        stat, pval = sp_stats.chisquare(counts, f_exp=probs * draws)
        assert pval > 0.001


def test_sample_determinism():
    p = MallowsParam(ladder(4), 0.7)
    a = [mallows_sample(p, np.random.default_rng(5)) for _ in range(10)]
    b = [mallows_sample(p, np.random.default_rng(5)) for _ in range(10)]
    assert a == b


# ---------------------------------------------------------------------------
# Plackett-Luce closed forms
# ---------------------------------------------------------------------------


def test_pl_pmf_uniform_and_single_choice():
    uni = PlackettLuceParam((Fraction(1, 3),) * 3)
    for r in all_rankings(3):
        assert pl_pmf(uni, r) == Fraction(1, 6)
    two = PlackettLuceParam((0.75, 0.25))
    assert pl_pmf(two, Ranking((0, 1))) == pytest.approx(0.75)


@pytest.mark.parametrize("theta", [(0.5, 0.3, 0.2), (0.7, 0.2, 0.1), (0.4, 0.3, 0.2, 0.1)])
def test_pl_pmf_normalization(theta):
    p = PlackettLuceParam(theta)
    assert sum(pl_pmf(p, r) for r in all_rankings(p.m)) == pytest.approx(1.0, abs=1e-12)


def test_pl_pairwise_enumeration_oracle():
    # choice-axiom marginal against full enumeration, m <= 5
    cases = [
        PlackettLuceParam.from_utilities([Fraction(2), Fraction(3, 2), 1]),
        PlackettLuceParam.from_utilities([Fraction(2), Fraction(3, 2), 1, 1]),
        PlackettLuceParam.from_utilities([Fraction(2), Fraction(3, 2), 1, 1, 1]),
        PlackettLuceParam.from_utilities([Fraction(1), Fraction(5), Fraction(2), 3, 4]),
    ]
    for p in cases:
        for a in range(p.m):
            for b in range(p.m):
                if a == b:
                    continue
                marginal = sum(
                    pl_pmf(p, w) for w in all_rankings(p.m) if w.prefers(a, b)
                )
                assert abs(marginal - pl_pairwise(p, a, b)) < Fraction(1, 10**10)


def test_pl_validation():
    with pytest.raises(ValueError):
        PlackettLuceParam((0.5, 0.6))
    with pytest.raises(ValueError):
        PlackettLuceParam((1.5, -0.5))


# ---------------------------------------------------------------------------
# expected majority graphs
# ---------------------------------------------------------------------------


def test_expected_wmg_mallows_values():
    w = expected_wmg(MallowsParam(ladder(3), HALF))
    assert w.weight(0, 1) == Fraction(1, 3)
    assert w.weight(0, 2) == 2 * Fraction(16, 21) - 1  # 11/21


def test_expected_wmg_uniform_is_zero():
    w = expected_wmg(MallowsParam(ladder(4), Fraction(1)))
    assert all(x == 0 for x in w.matrix.ravel().tolist())


def test_expected_wmg_pl_values():
    p = PlackettLuceParam.from_utilities([2, Fraction(3, 2), 1, 1, 1])
    w = expected_wmg(p)
    assert w.weight(0, 1) == Fraction(1, 7)
    assert w.weight(1, 2) == Fraction(1, 5)
    assert w.weight(0, 2) == Fraction(1, 3)


def test_expected_wmg_enumeration_oracle_m3():
    # margins from the enumerated density match the closed forms
    for param in [
        MallowsParam(ladder(3), HALF),
        MallowsParam(Ranking((2, 0, 1)), Fraction(3, 10)),
        PlackettLuceParam.from_utilities([2, Fraction(3, 2), 1]),
    ]:
        w = expected_wmg(param)
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                margin = sum(
                    (1 if r.prefers(a, b) else -1) * _pmf(param, r)
                    for r in all_rankings(3)
                )
                assert margin == w.weight(a, b)


def test_expected_wmg_profile_linearity():
    p1 = MallowsParam(ladder(3), HALF)
    p2 = MallowsParam(Ranking((2, 1, 0)), HALF)
    pp = ParameterProfile.from_entries(3, [(p1, Fraction(2)), (p2, Fraction(1))])
    w = expected_wmg(pp)
    manual = expected_wmg(p1) * Fraction(2) + expected_wmg(p2) * Fraction(1)
    assert w.equals(manual)


def _per_type_wmg(pp):
    """Reference: the left-to-right sum of per-type graphs times weights."""
    from votelab.core import WeightedMajorityGraph

    exact = all(isinstance(w, (Fraction, int)) for _, w in pp.entries) and all(
        expected_wmg(p).is_exact for p, _ in pp.entries)
    total = WeightedMajorityGraph.zero(pp.m, exact=exact)
    for p, w in pp.entries:
        total = total + expected_wmg(p) * w
    return total


@pytest.mark.parametrize("m", [3, 5, 7])
def test_expected_wmg_profile_is_the_per_type_sum_bit_for_bit(m):
    # float and exact dispersions, utilities and weights, alone and mixed
    rng = np.random.default_rng(m)
    profiles = []
    for ws in [(0.3, 1.7, 2.25, 0.1), (1, 3, 2, 7), (HALF, Fraction(7, 3), 1, 2),
               (0.3, Fraction(7, 3), 1, 2)]:
        for phis in [(0.5, 0.3), (HALF, Fraction(1, 3)), (0.5, HALF)]:
            profiles.append(ParameterProfile.from_entries(m, [
                (MallowsParam(Ranking(tuple(rng.permutation(m).tolist())), phis[i % 2]), w)
                for i, w in enumerate(ws)]))
        utilities = [(rng.random(m) + 0.1).tolist(), [Fraction(k + 1) for k in range(m)]]
        profiles.append(ParameterProfile.from_entries(m, [
            (PlackettLuceParam.from_utilities(utilities[i % 2]), w) for i, w in enumerate(ws)]))
    if m == 3:
        # equal utilities, one exact and one float: two bases, kept apart by type
        profiles.append(ParameterProfile.from_entries(3, [
            (PlackettLuceParam((HALF, Fraction(1, 4), Fraction(1, 4))), 1),
            (PlackettLuceParam((0.25, 0.5, 0.25)), 1)]))
        from votelab.models import _alias_table, _types

        bases = _types(profiles[-1])[1]
        assert len(bases) == 2 and bases[0].values == bases[1].values
        assert _alias_table(3, bases[0]) is not _alias_table(3, bases[1])
    for pp in profiles:
        got, want = expected_wmg(pp).matrix, _per_type_wmg(pp).matrix
        assert got.dtype == want.dtype
        if got.dtype == object:
            assert repr(got.tolist()) == repr(want.tolist())
        else:
            assert got.tobytes() == want.tobytes()


def test_expected_wmg_sampling_cross_check():
    # Monte Carlo within 4 sigma of the closed form
    param = MallowsParam(ladder(3), 0.5)
    pp = ParameterProfile.from_entries(3, [(param, 10_000)])
    rng = np.random.default_rng(77)
    prof = sample_profile(pp, rng)
    from votelab.core import wmg

    g = wmg(prof)
    exact = expected_wmg(param)
    n = 10_000
    for a in range(3):
        for b in range(a + 1, 3):
            se = math.sqrt(n)  # margin increments are +-1 per vote
            assert abs(g.weight(a, b) - n * float(exact.weight(a, b))) <= 4 * se


# ---------------------------------------------------------------------------
# neutrality
# ---------------------------------------------------------------------------


def test_model_neutrality():
    rng = np.random.default_rng(13)
    for param in [MallowsParam(Ranking((1, 0, 2, 3)), 0.6),
                  PlackettLuceParam.from_utilities([4, 3, 2, 1])]:
        for _ in range(10):
            sigma = Permutation(tuple(rng.permutation(4).tolist()))
            moved = ParameterProfile.from_entries(4, [(param, 1)]).permuted(sigma).entries[0][0]
            for r in all_rankings(4):
                assert _pmf(param, r) == pytest.approx(
                    float(_pmf(moved, permute(sigma, r))), abs=1e-12
                )


def test_permuted_keeps_type_order_and_weights():
    # a relabeling maps distinct types to distinct types: type t of the
    # result is type t relabeled, at the same weight, with nothing re-sorted
    sigma = Permutation((3, 0, 4, 1, 2))
    third = Fraction(1, 3)
    mallows = ParameterProfile.from_entries(5, [
        (MallowsParam(Ranking(order), phi), w)
        for order, phi, w in [((0, 1, 2, 3, 4), 0.5, 3), ((0, 1, 2, 3, 4), third, 1),
                              ((4, 3, 2, 1, 0), 0.5, 2), ((1, 0, 2, 4, 3), third, 5),
                              ((2, 4, 0, 1, 3), 0.5, 4)]])
    moved = mallows.permuted(sigma)
    assert [(p.central.order, p.phi) for p, _ in moved.entries] == [
        (tuple(sigma(a) for a in p.central.order), p.phi) for p, _ in mallows.entries]
    assert [type(p.phi) for p, _ in moved.entries] == [type(p.phi) for p, _ in mallows.entries]
    pl = ParameterProfile.from_entries(5, [
        (PlackettLuceParam.from_utilities(u), w)
        for u, w in [((5, 4, 3, 2, 1), Fraction(1, 2)), ((1, 2, 3, 4, 5), Fraction(3)),
                     ((2, 2, 1, 1, 4), Fraction(2, 7))]])
    moved_pl = pl.permuted(sigma)
    # alternative sigma(a) takes a's utility
    assert [[row[sigma.inverse()(b)] for b in range(5)] for row in pl.thetas.tolist()] == (
        moved_pl.thetas.tolist())
    for before, after in ((mallows, moved), (pl, moved_pl)):
        assert after.weights.tolist() == before.weights.tolist()
        assert after.weights.dtype == before.weights.dtype


def test_negative_weights_rejected_where_weights_enter(monkeypatch):
    # the constructor, from_entries and with_weights check signs; permuted
    # shares the checked weights and runs no check
    central = np.array([[2, 0, 1]], dtype=np.int16)
    param = MallowsParam(ladder(3), HALF)
    pp = ParameterProfile.from_entries(3, [(param, Fraction(2))])
    for build in (lambda: ParameterProfile(3, [Fraction(-1)], central, (HALF,), [0]),
                  lambda: ParameterProfile(3, [-1.0], thetas=np.full((1, 3), 1 / 3)),
                  lambda: ParameterProfile.from_entries(3, [(param, -1)]),
                  lambda: pp.with_weights([Fraction(-2)])):
        with pytest.raises(ValueError, match="nonnegative"):
            build()

    def refuse(self):
        raise AssertionError("permuted re-checked the profile")

    pl = ParameterProfile.from_entries(3, [(PlackettLuceParam((0.5, 0.3, 0.2)), 4)])
    monkeypatch.setattr(ParameterProfile, "__post_init__", refuse)
    sigma = Permutation((1, 2, 0))
    for before in (pp, pl):
        after = before.permuted(sigma)
        assert after.weights is before.weights
        assert not (after.thetas if after.family == "pl" else after.centrals).flags.writeable


# ---------------------------------------------------------------------------
# expected-distance bounds
# ---------------------------------------------------------------------------


def test_kt_bound_values():
    assert kt_bound(0.5, 3) == pytest.approx(4.5)  # min(4.5, 8)
    assert kt_bound(1.0, 3) == 9.0
    # at tiny phi the second branch wins and approaches m * phi
    assert kt_bound(1e-9, 4) == pytest.approx(4e-9, rel=1e-3)


def test_expected_kt_exact_value_and_bound():
    p = MallowsParam(ladder(3), HALF)
    assert expected_kt(p) == Fraction(19, 21)
    assert float(expected_kt(p)) == pytest.approx(0.90476, abs=1e-5)
    assert float(expected_kt(p)) <= expected_kt_bound(p)


def test_expected_kt_enumeration_oracle():
    for m in (3, 4, 5):
        for phi in (0.2, 0.6, 1.0):
            p = MallowsParam(ladder(m), phi)
            enum = sum(
                kt_distance(ladder(m), w) * mallows_pmf(p, w) for w in all_rankings(m)
            )
            assert enum == pytest.approx(float(expected_kt(p)), abs=1e-10)
            assert enum <= expected_kt_bound(p) + 1e-12


def test_bound_holds_across_grid():
    for m in (3, 4, 5, 6):
        for phi10 in range(1, 10):
            p = MallowsParam(ladder(m), phi10 / 10)
            enum = sum(
                kt_distance(ladder(m), w) * mallows_pmf(p, w) for w in all_rankings(m)
            )
            assert enum <= expected_kt_bound(p) + 1e-12


def test_mean_expected_kt_bound():
    assert mean_expected_kt_bound((1.0, 1.0), 3) == 9.0
    assert mean_expected_kt_bound([0.5], 3) == pytest.approx(4.5)
    assert mean_expected_kt_bound([0.5, 1.0], 3) == pytest.approx(6.75)


def test_mean_expected_kt_bound_sums_per_voter_bounds_left_to_right():
    # Fraction(0.2) == 0.2 would share an untyped key, but their bounds round apart
    for values in ([0.2, Fraction(0.2)], [Fraction(0.2), 0.2],
                   [0.2, Fraction(0.2), 0.3, 0.2, Fraction(2, 3), 1, 0.3] * 5):
        for m in (3, 8):
            want = float(sum(kt_bound(p, m) for p in values)) / len(values)
            assert mean_expected_kt_bound(values, m).hex() == want.hex()
    assert mean_expected_kt_bound([0.2, Fraction(0.2)], 8) != mean_expected_kt_bound([0.2] * 2, 8)


@pytest.mark.parametrize("n", [2, 2_000, 100_000])
@pytest.mark.parametrize("m", [3, 8])
def test_mean_expected_kt_bound_is_the_per_voter_sum_bit_for_bit(n, m):
    # each vector picks its dispersions from a palette by index, so the
    # per-voter bounds of the reference sum are looked up, not recomputed
    palette = [0.1, Fraction(0.1), 0.37, Fraction(1, 3), 0.3, 0.2, 0.7, Fraction(2, 3), 1]
    half = n // 2
    vectors = [
        [0] * n,
        [2] * n,
        [3] * n,
        [1] * n,
        [0, 1] * half,
        [4] * half + [1] * (n - half),
        [(5, 6, 7, 8, 6)[i % 5] for i in range(n)],
    ]
    bound = [kt_bound(p, m) for p in palette]
    for picks in vectors:
        want = float(sum([bound[i] for i in picks])) / n
        assert mean_expected_kt_bound(tuple(palette[i] for i in picks), m).hex() == want.hex()


# ---------------------------------------------------------------------------
# profile sampling
# ---------------------------------------------------------------------------


def test_sample_profile_counts_and_determinism():
    p = MallowsParam(ladder(3), 0.5)
    pp = ParameterProfile.from_entries(3, [(p, 3)])
    prof = sample_profile(pp, np.random.default_rng(3))
    assert int(prof.n) == 3
    again = sample_profile(pp, np.random.default_rng(3))
    assert np.array_equal(prof.votes, again.votes)
    assert np.array_equal(prof.weights, again.weights)


def test_sample_profile_rejects_fractional():
    p = MallowsParam(ladder(3), 0.5)
    pp = ParameterProfile.from_entries(3, [(p, Fraction(1, 2))])
    for sample in (sample_profile, sample_tally):
        with pytest.raises(ValueError):
            sample(pp, np.random.default_rng(0))


def test_sample_profile_large_m_path():
    # per-draw fallback above the enumeration threshold
    p = MallowsParam(ladder(8), 0.3)
    pp = ParameterProfile.from_entries(8, [(p, 5)])
    prof = sample_profile(pp, np.random.default_rng(0))
    assert int(prof.n) == 5 and prof.m == 8


@pytest.mark.parametrize("m", [3, 6, 7, 8, 9])
@pytest.mark.parametrize("family", ["mallows", "pl", "empty"])
def test_sample_tally_is_the_tally_of_sample_profile(m, family):
    # light and heavy types (weights on both sides of m! at m = 3), four
    # types at each of two dispersions; both generators start from the same seed
    rng = np.random.default_rng(m)
    weights = (2, 5, 9, 40, 1, 3, 17, 6)
    if family == "mallows":
        entries = [(MallowsParam(Ranking(tuple(rng.permutation(m).tolist())), phi), w)
                   for w, phi in zip(weights, (0.3, HALF) * 4)]
    elif family == "pl":
        entries = [(PlackettLuceParam.from_utilities((rng.random(m) + 0.1).tolist()), w)
                   for w in weights]
    else:
        entries = []
    pp = ParameterProfile.from_entries(m, entries)
    rng_tally, rng_profile = np.random.default_rng(17), np.random.default_rng(17)
    got = sample_tally(pp, rng_tally)
    want = Tally.of(sample_profile(pp, rng_profile))
    assert (got.m, got.n, type(got.n), got.vote) == (want.m, want.n, type(want.n), want.vote)
    for a, b in ((got.matrix, want.matrix), (got.position_sums, want.position_sums)):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    _assert_same_tally(got, want)
    assert got.n == sum(w for _, w in entries)
    assert rng_tally.bit_generator.state == rng_profile.bit_generator.state


@pytest.mark.parametrize("m", range(3, 8))
def test_counts_tally_is_the_tally_of_counted_profile(m):
    # counts over all m! rankings, about half of them zero, the first one
    # zero so the first vote is not ranking 0
    from votelab.models import _counts_tally, _tallied_profile

    rng = np.random.default_rng(m)
    counts = rng.integers(0, 50, size=math.factorial(m)) * rng.integers(0, 2, size=math.factorial(m))
    counts[0] = 0
    _assert_same_tally(_counts_tally(m, counts), Tally.of(_tallied_profile(m, counts)))


@pytest.mark.parametrize("voters", [0, 1])
def test_m8_tally_of_zero_and_one_voter(voters):
    entries = [(MallowsParam(Ranking((3, 1, 4, 0, 5, 2, 7, 6)), 0.5), voters)] if voters else []
    pp = ParameterProfile.from_entries(8, entries)
    got = sample_tally(pp, np.random.default_rng(5))
    want = Tally.of(sample_profile(pp, np.random.default_rng(5)))
    _assert_same_tally(got, want)
    assert got.n == voters and (got.vote is None) == (voters == 0)
    if voters:
        iu, ju = np.triu_indices(8, k=1)
        pos = np.asarray(got.vote.positions)
        assert np.array_equal(got.matrix[iu, ju], pos[iu] < pos[ju])
        assert np.array_equal(got.position_sums, pos)


def test_sample_tally_builds_m8_arrays_once_per_profile(monkeypatch):
    # the profile holds its types as read-only arrays; m = 8 draws read
    # them as they are, never through the (parameter, weight) view
    rng = np.random.default_rng(8)
    entries = [(MallowsParam(Ranking(tuple(rng.permutation(8).tolist())), phi), w)
               for w, phi in zip((3, 1, 12, 5, 2, 7), (0.3, HALF) * 3)]
    pp = ParameterProfile.from_entries(8, entries)
    assert not any(a.flags.writeable for a in (pp.centrals, pp.phi_index, pp.weights))
    assert pp.centrals.dtype == np.int16 and len(pp.phis) == 2
    want = [sample_tally(pp, np.random.default_rng(seed)) for seed in range(4)]

    def refuse(self):
        raise AssertionError("sampling read the parameter objects")

    monkeypatch.setattr(ParameterProfile, "entries", property(refuse))
    for seed in range(4):
        _assert_same_tally(sample_tally(pp, np.random.default_rng(seed)), want[seed])


@pytest.mark.parametrize("family", ["mallows", "pl"])
def test_sample_tally_builds_no_profile_above_enumeration(monkeypatch, family):
    # m = 8 draws per voter; the tally, its first vote included, comes
    # straight from the drawn positions
    rng = np.random.default_rng(8)
    if family == "mallows":
        entries = [(MallowsParam(Ranking(tuple(rng.permutation(8).tolist())), phi), w)
                   for w, phi in zip((300, 1, 40, 7), (0.3, HALF, 0.9, HALF))]
    else:
        entries = [(PlackettLuceParam.from_utilities((rng.random(8) + 0.1).tolist()), w)
                   for w in (30, 1, 4)]
    pp = ParameterProfile.from_entries(8, entries)
    want = Tally.of(sample_profile(pp, np.random.default_rng(5)))

    def refuse(self):
        raise AssertionError("sample_tally built a Profile")

    monkeypatch.setattr(Profile, "__post_init__", refuse)
    got = sample_tally(pp, np.random.default_rng(5))
    assert got.vote == want.vote and got.n == want.n
    assert np.array_equal(got.matrix, want.matrix)
    assert np.array_equal(got.position_sums, want.position_sums)


def _reduce_m6_profile() -> ParameterProfile:
    """The rounded gadget profile of the reduce-m6 benchmark workload: two
    disjoint triangles, m = 6, t = 2, K = 6 (648 types, 46,008 voters)."""
    from votelab import gadgets
    from votelab.core import Digraph

    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    inst = gadgets.FasInstance(Digraph.from_edges(6, edges), 2, "eulerian")
    cfg = gadgets.ReductionConfig(K=6)
    return gadgets.round_to_integral(gadgets.build_instance_profile(inst, cfg), cfg.K, cfg.max_n)


def _light_and_heavy_profile() -> ParameterProfile:
    """Every central at m = 5 at two dispersions: 13,116 light voters (three
    full DRAW_BLOCKs and a partial one) and ten heavy types."""
    from itertools import permutations

    entries = []
    for k, r in enumerate(permutations(range(5))):
        for j, phi in enumerate((0.3, HALF)):
            w = 150 + 400 * j if k % 29 == 0 else 1 + (37 * k + 11 * j) % 113
            entries.append((MallowsParam(Ranking(r), phi), w))
    return ParameterProfile.from_entries(5, entries)


def _m7_light_and_heavy_profile() -> ParameterProfile:
    """Every 90th central at m = 7 at two dispersions: 112 types, six of
    them heavy (weight at least 7! = 5,040), and 14,669 voters of light
    types (three full DRAW_BLOCKs and a partial one)."""
    from itertools import islice, permutations

    entries = []
    for k, r in enumerate(islice(permutations(range(7)), 0, None, 90)):
        for j, phi in enumerate((0.3, HALF)):
            w = 5040 + 700 * j if k % 19 == 0 else 1 + (53 * k + 29 * j) % 271
            entries.append((MallowsParam(Ranking(r), phi), w))
    return ParameterProfile.from_entries(7, entries)


def _draw_digest(pp, rng) -> str:
    import hashlib
    import json

    tally = sample_tally(pp, rng)
    h = hashlib.sha256()
    h.update(tally.matrix.tobytes())
    h.update(tally.position_sums.tobytes())
    h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return h.hexdigest()


def test_enumerated_draw_stream_is_pinned():
    # digests of the pairwise tally, the position sums and the generator
    # state after each draw, recorded before the flat-table kernel replaced
    # the per-block 2-D gathers; any change of counts or of the uniforms
    # consumed shows here
    from votelab.harness import trial_rng
    from votelab.models import DRAW_BLOCK

    pp = _reduce_m6_profile()
    assert (int(pp.total_weight), pp.type_count) == (46008, 648)
    assert [_draw_digest(pp, trial_rng(1, i)) for i in range(5)] == [
        "8f18fd0093c8a08508a72eaa541983f18d90ac4035e3ab1d715a76e745d916a7",
        "ce6fad7ba1e44754f63369174ccb90e1b996c123302f782bb09d2e017440f2ea",
        "763cc9f7f18558adbeafe008e25c62af980aadbf2760714a5e0247251218269e",
        "1509647764b9696832c09588c547a9ba970eaf97d98a55fe65e9365648d243e9",
        "5b21b79f40e49ea5f3747f4125f02f6861874b2c2204067adc466092390bb8c7",
    ]
    pp = _light_and_heavy_profile()
    weights = [int(w) for _, w in pp.entries]
    light = sum(w for w in weights if w < 120)
    assert light // DRAW_BLOCK == 3 and light % DRAW_BLOCK
    assert sum(w >= 120 for w in weights) == 10
    assert [_draw_digest(pp, np.random.default_rng(seed)) for seed in (0, 1)] == [
        "15b59b3f8af9f517b1d5207a249c64a3b054d638831eac7014dd958e96687075",
        "602eedbd65aa160c2db995791939dccd5b8042a5956385aa5ea10645952f5073",
    ]


def test_enumerated_m7_draw_stream_is_pinned():
    # m = 7 puts the flat relabel offsets of all but the first few light
    # types past 2**15, which the m = 5 and m = 6 cases never reach
    from math import factorial

    from votelab.models import DRAW_BLOCK

    pp = _m7_light_and_heavy_profile()
    weights = [int(w) for _, w in pp.entries]
    size = factorial(7)
    light = [w for w in weights if w < size]
    assert len(weights) - len(light) == 6
    assert sum(light) == 14669 > 3 * DRAW_BLOCK and (len(weights) - 1) * size > 1 << 15
    assert sorted({float(p.phi) for p, _ in pp.entries}) == [0.3, 0.5]
    assert [_draw_digest(pp, np.random.default_rng(seed)) for seed in (0, 1)] == [
        "672afc2e463ee17936784d46c9d04b60379139683fa97690cf9bb77872af1c98",
        "3cedb0f99b501b456724d11d0afa90cc5512733389a7a4d5b6a745a47de9126f",
    ]


def _pl_gadget_profile() -> ParameterProfile:
    """The rounded two-triangle Plackett-Luce gadget profile, m = 6, K = 6."""
    from votelab import gadgets
    from votelab.core import Digraph

    g = Digraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    return gadgets.round_to_integral(gadgets.build_eulerian_profile(g, gadgets.pl_witness(6)), 6)


def _m7_pl_light_and_heavy_profile() -> ParameterProfile:
    """Every 97th relabeling of the utilities 1..7, exact and float in
    turn (two bases of equal values): 52 types, four of them heavy (weight
    at least 7!), and 6,843 voters of light types."""
    from itertools import islice, permutations

    entries = []
    for k, sigma in enumerate(islice(permutations(range(7)), 0, None, 97)):
        utilities = [Fraction(sigma[a] + 1) if k % 2 else sigma[a] + 1.0 for a in range(7)]
        w = 5040 + 300 * k if k % 13 == 0 else 1 + (53 * k) % 271
        entries.append((PlackettLuceParam.from_utilities(utilities), w))
    return ParameterProfile.from_entries(7, entries)


def test_enumerated_pl_draw_stream_is_pinned():
    # Plackett-Luce types are relabeled bases too: light voters take the
    # alias draw and heavy types one multinomial, as Mallows types do
    from votelab.models import _types

    pp = _pl_gadget_profile()
    assert (int(pp.total_weight), pp.type_count, len(_types(pp)[1])) == (46656, 30, 1)
    assert [_draw_digest(pp, np.random.default_rng(seed)) for seed in (0, 1)] == [
        "2e902ebf573708e46c0ec38dc37fd00292e3518b240a3890c0fd8e82aa2b4d8d",
        "6eec43d483a73596343f3519e20b45c0c886912f2c749149f418824c07bac76c",
    ]
    pp = _m7_pl_light_and_heavy_profile()
    weights = pp.weights.tolist()
    assert (len(weights), sum(w >= 5040 for w in weights), len(_types(pp)[1])) == (52, 4, 2)
    assert sum(w for w in weights if w < 5040) == 6843
    assert [_draw_digest(pp, np.random.default_rng(seed)) for seed in (0, 1)] == [
        "c9158d659f458c26a65ec7fc4a102137c50b51f3b439e6f3ee742415de0ef64b",
        "8e11a8e68b617e0115ccdb38637840d87c7ec3d39c1e97a2f5e33e9ca9d877bb",
    ]


def test_enumerated_draw_memory_stays_per_block():
    # a warm draw of 46,008 voters allocates per DRAW_BLOCK, not per voter
    import tracemalloc

    pp = _reduce_m6_profile()
    sample_tally(pp, np.random.default_rng(0))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sample_tally(pp, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# parameter profile plumbing and serialization
# ---------------------------------------------------------------------------


def test_parameter_profile_aggregation_and_scale():
    p = MallowsParam(ladder(3), HALF)
    pp = ParameterProfile.from_entries(3, [(p, 1), (p, 2)])
    assert pp.type_count == 1 and pp.total_weight == 3
    assert pp.scale(Fraction(1, 3)).total_weight == 1


def test_parameter_profile_family_mix_rejected():
    with pytest.raises(ValueError):
        ParameterProfile.from_entries(
            3,
            [
                (MallowsParam(ladder(3), HALF), 1),
                (PlackettLuceParam.from_utilities([2, 1, 1]), 1),
            ],
        )


def _reference_sort_key(param):
    if isinstance(param, MallowsParam):
        return (0, param.central.order, float(param.phi), str(param.phi))
    return (1, tuple(float(t) for t in param.theta), str(param.theta))


def _reference_from_entries(pairs):
    """Reference: the dict-and-sort aggregation of one parameter object per
    type.  Equal parameters merge under the first one seen, weights add in
    order from 0, zero weights drop, and the rest sort by
    ``_reference_sort_key``."""
    acc = {}
    for p, w in pairs:
        acc[p] = acc.get(p, 0) + w
    items = [(p, w) for p, w in acc.items() if w != 0]
    items.sort(key=lambda pw: _reference_sort_key(pw[0]))
    return items


# equal values of different types (0.5 and 1/2, 1 and 1.0, 1/3 as a float and
# as that float's Fraction) and unequal ones with the same float (1/3 and 1 / 3)
_ORACLE_PHIS = [0.5, HALF, 0.25, Fraction(1, 3), 1 / 3, Fraction(1 / 3), 1, 1.0]
_ORACLE_WEIGHTS = [0, 0.0, 1, 2, 0.5, HALF, Fraction(3, 4), 1.5]
# (2, 1, 1) and (2.0, 1, 1) normalize to equal Fraction and float utilities
_ORACLE_UTILITIES = [(1, 1, 1), (2, 1, 1), (2.0, 1, 1), (3, 2, 1), (3.0, 2.0, 1.0)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_entries_matches_dict_and_sort_reference(data):
    from votelab.core import weight_array

    if data.draw(st.booleans(), label="mallows"):
        param = st.builds(lambda r, phi: MallowsParam(Ranking(tuple(r)), phi),
                          st.permutations(range(3)), st.sampled_from(_ORACLE_PHIS))
    else:
        param = st.builds(lambda u, r: PlackettLuceParam.from_utilities([u[i] for i in r]),
                          st.sampled_from(_ORACLE_UTILITIES), st.permutations(range(3)))
    pairs = data.draw(st.lists(st.tuples(param, st.sampled_from(_ORACLE_WEIGHTS)), max_size=14))
    got = ParameterProfile.from_entries(3, pairs)
    want = _reference_from_entries(pairs)
    assert repr([p for p, _ in got.entries]) == repr([p for p, _ in want])
    packed = weight_array([w for _, w in want])
    assert got.weights.dtype == packed.dtype
    assert repr(got.weights.tolist()) == repr(packed.tolist())


def test_parameter_profile_round_trip_mallows():
    pp = ParameterProfile.from_entries(
        4,
        [
            (MallowsParam(ladder(4), HALF), Fraction(3, 2)),
            (MallowsParam(Ranking((3, 2, 1, 0)), Fraction(4, 5)), 2),
        ],
    )
    back = parse_parameter_profile(format_parameter_profile(pp))
    assert back.entries == pp.entries


def test_parameter_profile_round_trip_pl():
    pp = ParameterProfile.from_entries(
        3, [(PlackettLuceParam.from_utilities([2, Fraction(3, 2), 1]), 4)]
    )
    back = parse_parameter_profile(format_parameter_profile(pp))
    assert back.entries == pp.entries


def test_pl_sample_concentrated_head():
    theta = (1 - 1e-9, *([1e-9 / 2] * 2))
    p = PlackettLuceParam(tuple(theta))
    rng = np.random.default_rng(6)
    draws = [pl_sample(p, rng) for _ in range(200)]
    assert all(d.order[0] == 0 for d in draws)


# ---------------------------------------------------------------------------
# vectorized paths against the per-ranking and per-draw references
# ---------------------------------------------------------------------------


def _per_ranking_pmf(param):
    """Reference: one float density per enumerated ranking, then normalized."""
    dens = np.array([float(_pmf(param, r)) for r in all_rankings(param.m)],
                    dtype=np.float64)
    return dens / dens.sum()


def _base(param):
    """The one base of ``_types`` that the profile of ``param`` has."""
    from votelab.models import _types

    rows, bases, index = _types(ParameterProfile.from_entries(param.m, [(param, 1)]))
    return bases[index[0]]


def test_pmf_vector_bit_identical_to_per_ranking_density():
    from votelab.models import _alias_table, _mallows_density

    rng = np.random.default_rng(29)
    for m in range(2, 8):
        for phi in (HALF, Fraction(1), Fraction(2, 7), 0.3, 1.0, 0.77):
            param = MallowsParam(Ranking(tuple(rng.permutation(m).tolist())), phi)
            want = _per_ranking_pmf(param).tobytes()
            assert _mallows_density(param.central.order, phi).tobytes() == want
        pl = PlackettLuceParam.from_utilities((rng.random(m) + 0.1).tolist())
        base = _base(pl)
        assert list(base.values) == sorted(pl.theta, reverse=True)
        assert _alias_table(m, base)[0].tobytes() == _per_ranking_pmf(
            PlackettLuceParam(base.values)).tobytes()


def test_pmf_vector_rounds_fraction_and_float_phi_as_the_density_does():
    # Fraction(0.1) == 0.1, but the exact density rounds once, the float one per step
    from votelab.models import _alias_table, _mallows_density

    exact = _mallows_density(ladder(6).order, Fraction(0.1))
    approx = _mallows_density(ladder(6).order, 0.1)
    assert exact.tobytes() == _per_ranking_pmf(MallowsParam(ladder(6), Fraction(0.1))).tobytes()
    assert approx.tobytes() == _per_ranking_pmf(MallowsParam(ladder(6), 0.1)).tobytes()
    assert exact.tobytes() != approx.tobytes()
    assert _alias_table(6, Fraction(0.1))[0].tobytes() == exact.tobytes()
    assert _alias_table(6, 0.1)[0].tobytes() == approx.tobytes()


def test_resampled_mallows_profile_rebuilds_no_table():
    # 1,440 types (two dispersions, every central at m=6): sampling the
    # profile again builds no alias or relabel table
    from itertools import permutations

    from votelab.models import _alias_table, _relabel_table

    pp = ParameterProfile.from_entries(6, [
        (MallowsParam(Ranking(r), phi), 1)
        for r in permutations(range(6)) for phi in (Fraction(1, 3), Fraction(2, 3))
    ])
    rng = np.random.default_rng(41)
    sample_profile(pp, rng)
    caches = (_alias_table, _relabel_table)
    before = [c.cache_info() for c in caches]
    sample_profile(pp, rng)
    after = [c.cache_info() for c in caches]
    assert [a.misses - b.misses for a, b in zip(after, before)] == [0, 0]


def test_pairwise_cache_is_bounded_and_typed():
    assert mallows_pairwise.cache_info().maxsize is not None
    # equal keys, different types: each is cached with its own exactness
    assert isinstance(mallows_pairwise(HALF, 3), Fraction)
    assert isinstance(mallows_pairwise(0.5, 3), float)


def _aggregated_rows(rows):
    """Reference aggregation of scalar draws: (row, count) pairs in row order."""
    tally: dict[tuple, int] = {}
    for row in rows:
        tally[row] = tally.get(row, 0) + 1
    return sorted(tally.items())


def _unmerged(m, entries):
    """The Mallows profile of ``entries`` as given: in this order, with
    duplicates and zero weights kept."""
    from votelab.models import _typed_index

    phis, index = _typed_index(p.phi for p, _ in entries)
    centrals = np.array([p.central.order for p, _ in entries], dtype=np.int16).reshape(-1, m)
    return ParameterProfile(m, [w for _, w in entries], centrals, phis, index)


@pytest.mark.parametrize("m", [8, 9])
def test_batched_sampler_matches_scalar_draws(m):
    # weights 0, 1 and > 1; two distinct float dispersions, one given as a Fraction
    rng = np.random.default_rng(m)
    phis = (0.5, Fraction(1, 3), 0.9, 0.5, Fraction(1, 2), 0.9)
    weights = (0, 1, 5, 17, 2, 40)
    entries = tuple(
        (MallowsParam(Ranking(tuple(rng.permutation(m).tolist())), phi), w)
        for phi, w in zip(phis, weights)
    )
    pp = _unmerged(m, entries)
    fast_rng, slow_rng = np.random.default_rng(11), np.random.default_rng(11)
    prof = sample_profile(pp, fast_rng)
    rows = [mallows_sample(p, slow_rng).order for p, w in entries for _ in range(w)]
    expected = _aggregated_rows(rows)
    assert [tuple(r) for r in prof.votes.tolist()] == [r for r, _ in expected]
    assert prof.weights.dtype == np.int64
    assert prof.weights.tolist() == [w for _, w in expected]
    # the same number of uniforms was consumed
    assert fast_rng.random() == slow_rng.random()


def test_batched_sampler_empty_profile():
    pp = _unmerged(8, [(MallowsParam(ladder(8), 0.5), 0)])
    rng = np.random.default_rng(4)
    prof = sample_profile(pp, rng)
    assert len(prof) == 0 and prof.m == 8
    assert rng.random() == np.random.default_rng(4).random()


class _ScriptedUniforms:
    """Stand-in generator replaying a fixed cycle of uniforms, scalar or batched."""

    def __init__(self, values):
        self.values = values
        self.i = 0

    def random(self, size=None):
        count = 1 if size is None else int(np.prod(size))
        out = [self.values[(self.i + k) % len(self.values)] for k in range(count)]
        self.i += count
        return out[0] if size is None else np.array(out, dtype=np.float64).reshape(size)


def test_batched_sampler_breaks_exact_ties_like_scalar_loop():
    # at phi = 1 and phi = 1/2 these uniforms make u * total land exactly on a
    # cumulative weight, where the scalar loop moves on to the next slot
    uniforms = [0.5, 0.25, 0.75, 0.0, 0.125, 0.5]
    entries = ((MallowsParam(ladder(8), 1.0), 7), (MallowsParam(ladder(8).reversed(), 0.5), 7))
    pp = _unmerged(8, entries)
    prof = sample_profile(pp, _ScriptedUniforms(uniforms))
    scalar = _ScriptedUniforms(uniforms)
    rows = [mallows_sample(p, scalar).order for p, w in entries for _ in range(w)]
    expected = _aggregated_rows(rows)
    assert [tuple(r) for r in prof.votes.tolist()] == [r for r, _ in expected]
    assert prof.weights.tolist() == [w for _, w in expected]


# ---------------------------------------------------------------------------
# Mallows noise around a central profile
# ---------------------------------------------------------------------------


def _unaggregated_central(m, rng):
    """Duplicate rows out of order, with weights 0, 1 and > 1."""
    base = [tuple(rng.permutation(m).tolist()) for _ in range(6)]
    rows = base + [base[2], base[0], base[5], base[0]]
    return Profile.from_rankings(rows, [1, 3, 0, 2, 1, 7, 1, 2, 4, 1], m=m)


def _assert_same_tally(got, want):
    assert isinstance(got, Tally)
    assert (got.m, got.n, type(got.n), got.vote) == (want.m, want.n, type(want.n), want.vote)
    for a, b in ((got.matrix, want.matrix), (got.position_sums, want.position_sums)):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


def _noise_from_entries(central, phi):
    """Reference: one Mallows parameter per vote row, merged by ``from_entries``."""
    return ParameterProfile.from_entries(
        central.m, [(MallowsParam(r, phi), w) for r, w in central.entries()])


def _assert_same_noise(central, phi, seed=7):
    # the array build equals the object-level build, type for type, and
    # draws the same tally from the same stream (sample_tally is tied to
    # sample_profile by test_sample_tally_is_the_tally_of_sample_profile)
    got, want = mallows_parameter_profile(central, phi), _noise_from_entries(central, phi)
    assert np.array_equal(got.centrals, want.centrals) and got.centrals.dtype == np.int16
    assert repr(got.phis) == repr(want.phis)
    assert np.array_equal(got.phi_index, want.phi_index)
    assert got.weights.dtype == want.weights.dtype
    assert repr(got.weights.tolist()) == repr(want.weights.tolist())
    assert repr(got.entries) == repr(want.entries)
    new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    _assert_same_tally(sample_tally(got, new_rng), sample_tally(want, ref_rng))
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("m", range(3, 10))
@pytest.mark.parametrize("phi", [0.5, Fraction(1, 3), 1, 1.0, 0.05])
def test_mallows_parameter_profile_matches_from_entries(m, phi):
    _assert_same_noise(_unaggregated_central(m, np.random.default_rng(100 + m)), phi)


@pytest.mark.parametrize("m", [5, 8])
def test_mallows_parameter_profile_edge_centrals(m):
    # an aggregated random electorate, exact integral Fraction weights (two
    # halves of one row add up to a whole voter), an all-zero and an empty profile
    rng = np.random.default_rng(m)
    votes = rng.permuted(np.tile(np.arange(m, dtype=np.int16), (300, 1)), axis=1)
    _assert_same_noise(Profile(m, votes, np.ones(300, dtype=np.int64)).aggregated(), 0.4)
    rows = [tuple(rng.permutation(m).tolist()) for _ in range(2)]
    halves = Profile.from_rankings([rows[0], rows[1], rows[0]], [HALF, Fraction(3), HALF], m=m)
    assert halves.weights.dtype == object
    _assert_same_noise(halves, HALF)
    _assert_same_noise(Profile.from_rankings(rows, [0, 0], m=m), 0.4)
    _assert_same_noise(Profile.empty(m), 0.4)


@pytest.mark.parametrize("m", [5, 8])
def test_mallows_parameter_profile_rejects_what_from_entries_rejects(m):
    rng = np.random.default_rng(m)
    rows = [tuple(rng.permutation(m).tolist()) for _ in range(2)]
    for weights in ([1, HALF], [1.0, 2.0]):
        central = Profile.from_rankings(rows, weights, m=m)
        with pytest.raises(ValueError) as want:
            sample_tally(_noise_from_entries(central, 0.5), np.random.default_rng(0))
        with pytest.raises(ValueError) as got:
            sample_tally(mallows_parameter_profile(central, 0.5), np.random.default_rng(0))
        assert str(got.value) == str(want.value)
    central = Profile.from_rankings(rows, m=m)
    for phi in (0, 1.5, -1):
        with pytest.raises(ValueError) as want:
            _noise_from_entries(central, phi)
        with pytest.raises(ValueError) as got:
            mallows_parameter_profile(central, phi)
        assert str(got.value) == str(want.value)


def test_mallows_parameter_profile_builds_tables_once_per_profile(monkeypatch):
    from votelab import models
    from votelab.models import _alias_table, _profile_sampler, _relabel_table

    central = _unaggregated_central(6, np.random.default_rng(3))
    noise = mallows_parameter_profile(central, 0.1)
    rng = np.random.default_rng(0)
    sample_tally(noise, rng)
    before = [c.cache_info() for c in (_alias_table, _relabel_table, _profile_sampler)]
    sample_tally(noise, rng)
    sample_tally(noise, rng)
    mid = [c.cache_info() for c in (_alias_table, _relabel_table, _profile_sampler)]
    # the sampler of one profile is built once, so later draws look up no table
    assert [(a.hits - b.hits, a.misses - b.misses) for a, b in zip(mid, before)] == [
        (0, 0), (0, 0), (2, 0)]
    # a new profile around the same central finds both tables
    sample_tally(mallows_parameter_profile(central, 0.1), rng)
    after = [c.cache_info() for c in (_alias_table, _relabel_table)]
    assert [(a.hits - b.hits, a.misses - b.misses) for a, b in zip(after, mid)] == [(1, 0)] * 2
    assert after[1].maxsize == 1
    # Fraction(0.1) == 0.1, but its draws keep their own exactness
    _assert_same_noise(central, Fraction(0.1))
    exact, approx = _alias_table(6, Fraction(0.1)), _alias_table(6, 0.1)
    assert exact[0].tobytes() != approx[0].tobytes()
    looked_up = []
    monkeypatch.setattr(models, "_alias_table",
                        lambda m, phi: looked_up.append(phi) or _alias_table(m, phi))
    sample_tally(mallows_parameter_profile(central, Fraction(0.1)), rng)
    sample_tally(mallows_parameter_profile(central, 0.1), rng)
    assert [type(phi) for phi in looked_up] == [Fraction, float]


# ---------------------------------------------------------------------------
# the alias-table kernel of m <= 7 Mallows sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 4, 6])
@pytest.mark.parametrize("phi", [0.4, Fraction(2, 3), Fraction(1)])
def test_alias_table_reproduces_base_density(m, phi):
    from votelab.models import _alias_table

    pmf, prob, alias = _alias_table(m, phi)
    assert pmf.tobytes() == _per_ranking_pmf(MallowsParam(ladder(m), phi)).tobytes()
    size = len(pmf)
    mass = prob.copy()
    np.add.at(mass, alias.astype(np.intp), 1.0 - prob)
    assert np.allclose(mass / size, pmf, rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [2, 4, 6, 7])
def test_alias_draw_matches_per_voter_loop(m):
    from votelab.models import _alias_draw, _alias_table

    tables = [_alias_table(m, phi) for phi in (0.4, Fraction(5, 6))]
    prob = np.array([t[1] for t in tables])
    alias = np.array([t[2] for t in tables])
    size = prob.shape[1]
    rng = np.random.default_rng(m)
    u = rng.random(5000)
    table = rng.integers(0, 2, size=len(u))
    u[:4] = [0.0, 0.5, np.nextafter(1.0, 0.0), 1.0 / size]
    # uniforms whose coin lands exactly on prob[col], where the column is not kept
    edges = [(c + p) / size for c, p in enumerate(prob[0].tolist()) if p < 1.0]
    edges = [v for v in edges if v * size - int(v * size) == prob[0, int(v * size)]]
    u[4 : 4 + len(edges)] = edges
    table[4 : 4 + len(edges)] = 0
    want = []
    for v, g in zip(u.tolist(), table.tolist()):
        x = v * size
        col = min(int(x), size - 1)
        want.append(col if x - col < prob[g, col] else int(alias[g, col]))
    at = (table * size).astype(np.int32)  # offsets into the flat tables
    assert _alias_draw(prob.ravel(), alias.ravel(), at, u, size).tolist() == want


@pytest.mark.parametrize("m", range(2, 8))
def test_relabel_table_is_ranking_composition(m):
    from votelab.models import _rankings_table, _relabel_table

    orders = _rankings_table(m)[0]
    rng = np.random.default_rng(m)
    # more centrals than one block of the table holds at m = 7
    centrals = np.array([np.arange(m)] + [rng.permutation(m) for _ in range(19)], dtype=np.int16)
    table = _relabel_table(m, centrals.tobytes())
    assert table.dtype == np.int16 and table.shape == (20, math.factorial(m))
    for t, central in enumerate(centrals):
        assert np.array_equal(orders[table[t]], central[orders])
    rankings = all_rankings(m)
    sigma = Permutation(tuple(centrals[-1].tolist()))
    for b in rng.choice(len(rankings), size=min(10, len(rankings)), replace=False).tolist():
        assert rankings[table[-1, b]] == permute(sigma, rankings[b])


def _pooled_p_value(pp, reps, seed):
    """Chi-square p-value of ``reps`` pooled samples against sum_t w_t pmf_t."""
    index = {r.order: i for i, r in enumerate(all_rankings(pp.m))}
    counts = np.zeros(len(index))
    rng = np.random.default_rng(seed)
    for _ in range(reps):
        prof = sample_profile(pp, rng)
        for row, w in zip(prof.votes.tolist(), prof.weights.tolist()):
            counts[index[tuple(row)]] += w
    expected = reps * sum(int(w) * _per_ranking_pmf(p) for p, w in pp.entries)
    return sp_stats.chisquare(counts, f_exp=expected)[1]


def _random_central(m, rng):
    return Ranking(tuple(rng.permutation(m).tolist()))


def _random_param(family, m, rng):
    if family == "mallows":
        return MallowsParam(_random_central(m, rng), 0.6)
    return PlackettLuceParam.from_utilities((rng.random(m) + 0.1).tolist())


def test_sample_profile_chi_square_light_type():
    for family in ("mallows", "pl"):
        rng = np.random.default_rng(51)
        pp = ParameterProfile.from_entries(4, [(_random_param(family, 4, rng), 20)])
        assert _pooled_p_value(pp, 4000, 52) > 0.001


def test_sample_profile_chi_square_heavy_type():
    for family in ("mallows", "pl"):
        rng = np.random.default_rng(53)
        pp = ParameterProfile.from_entries(4, [(_random_param(family, 4, rng), 1000)])
        assert _pooled_p_value(pp, 100, 54) > 0.001


def test_sample_profile_chi_square_two_dispersions():
    # light and heavy types at a float and an exact dispersion
    rng = np.random.default_rng(55)
    entries = [(0.3, 7), (Fraction(2, 3), 20), (0.3, 500), (Fraction(2, 3), 23), (0.3, 23),
               (Fraction(2, 3), 100)]
    pp = ParameterProfile.from_entries(4, [
        (MallowsParam(_random_central(4, rng), phi), w) for phi, w in entries
    ])
    assert pp.type_count == len(entries)
    assert _pooled_p_value(pp, 200, 56) > 0.001


def test_sample_profile_chi_square_gadget_profile():
    from votelab.gadgets import build_triangle_profile, mallows_witness, pl_witness, round_to_integral

    for witness in (mallows_witness(4, HALF), pl_witness(4)):
        pp = round_to_integral(build_triangle_profile(witness), 4)
        assert pp.type_count > 1
        assert _pooled_p_value(pp, 400, 57) > 0.001


def test_sampling_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma lazily, about 1 MB of memory
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from votelab.core import Ranking\n"
        "from votelab.models import MallowsParam, ParameterProfile, sample_profile\n"
        "for m in (6, 8):\n"
        "    pp = ParameterProfile.from_entries(m, [\n"
        "        (MallowsParam(Ranking(tuple(range(m))), 0.5), 30),\n"
        "        (MallowsParam(Ranking(tuple(range(m))[::-1]), 0.25), 800)])\n"
        "    sample_profile(pp, np.random.default_rng(m))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
