"""Solver correctness: the full lattice, the window DP, budgets, tie-breaking."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from votelab.core import (
    Permutation,
    Profile,
    Ranking,
    Tally,
    all_rankings,
    kemeny_score,
    permute,
    slater_score,
    umg,
)
from votelab import solvers
from votelab.models import MallowsParam, ParameterProfile, _counts_tally, sample_profile, sample_tally
from votelab.solvers import (
    SolveResult,
    TimedOut,
    kemeny_brute,
    kemeny_dp,
    result_record,
    slater_brute,
    solve_with_budget,
)

R123 = Ranking((0, 1, 2))
CYCLIC3 = Profile.from_rankings([(0, 1, 2), (1, 2, 0), (2, 0, 1)])


def random_mallows_profile(m, n, phi, seed, draw=sample_profile):
    rng = np.random.default_rng(seed)
    central = Ranking(tuple(rng.permutation(m).tolist()))
    pp = ParameterProfile.from_entries(m, [(MallowsParam(central, phi), n)])
    return draw(pp, rng)


def same_result(a, b):
    """Results equal in every deterministic field, score types included."""
    return (a.ranking, a.score, type(a.score), a.op_count, a.solver, a.diagnostics) == (
        b.ranking, b.score, type(b.score), b.op_count, b.solver, b.diagnostics)


def solve_both_ways(solver, prof):
    """``solver(prof)``, checked identical to the solve of the profile's tally."""
    res = solver(prof)
    assert same_result(res, solver(Tally.of(prof)))
    return res


# ---------------------------------------------------------------------------
# full lattice
# ---------------------------------------------------------------------------


def test_brute_unanimous():
    prof = Profile.from_rankings([R123] * 3)
    res = kemeny_brute(prof)
    assert res.ranking == R123 and res.score == 0


def test_brute_cyclic_scores_and_tiebreak():
    # scores over the six rankings are {4,4,4,5,5,5}; the three rotations
    # tie at 4 and the lexicographically smallest wins
    scores = sorted(kemeny_score(r, CYCLIC3) for r in all_rankings(3))
    assert scores == [4, 4, 4, 5, 5, 5]
    res = kemeny_brute(CYCLIC3)
    assert res.score == 4
    assert res.ranking == R123


def test_brute_reversal_pair():
    prof = Profile.from_rankings([(0, 1, 2), (2, 1, 0)])
    res = kemeny_brute(prof)
    assert res.score == 3  # every ranking scores exactly 3
    assert res.ranking == R123  # lexicographic among all six


def random_profile(rng, m, n, weights=None):
    return Profile.from_rankings(
        [tuple(rng.permutation(m).tolist()) for _ in range(n)], weights=weights, m=m
    )


def random_fraction_weights(rng, n):
    return [Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 5))) for _ in range(n)]


def test_brute_matches_exhaustive_oracle():
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(25):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        cases.append(random_profile(rng, m, n))
    for _ in range(10):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 6))
        cases.append(random_profile(rng, m, n, random_fraction_weights(rng, n)))
    for m in (6, 7):
        cases.append(random_profile(rng, m, 4))
        cases.append(random_profile(rng, m, 3, random_fraction_weights(rng, 3)))
    for prof in cases:
        res = solve_both_ways(kemeny_brute, prof)
        # all_rankings is lexicographic, so min() picks the lexicographically first optimum
        best = min(all_rankings(prof.m), key=lambda r: kemeny_score(r, prof))
        assert res.ranking == best
        assert res.score == kemeny_score(best, prof)


def test_brute_m_cap(monkeypatch):
    # past DP_STATE_CAP the full lattice is refused before the tally is built
    def no_tally(election):
        raise AssertionError("tally built for an over-cap m")

    monkeypatch.setattr(Tally, "of", staticmethod(no_tally))
    with pytest.raises(ValueError):
        kemeny_brute(Profile.empty(21))
    with pytest.raises(ValueError):
        slater_brute(Profile.empty(21))
    monkeypatch.undo()
    # m = 12 is past the old enumeration cap and now solves
    prof = random_mallows_profile(12, 9, 0.7, 5)
    res = kemeny_brute(prof)
    assert kemeny_score(res.ranking, prof) == res.score
    assert res.score == kemeny_dp(prof).score
    res = slater_brute(prof)
    assert slater_score(res.ranking, prof) == res.score


def test_brute_exact_weights():
    prof = Profile.from_rankings(
        [(0, 1, 2), (2, 1, 0)], weights=[Fraction(2, 3), Fraction(1, 3)]
    )
    res = kemeny_brute(prof)
    assert res.score == Fraction(0 * 2 + 3 * 1, 3)
    assert res.ranking == R123


def test_brute_score_consistency_invariant():
    rng = np.random.default_rng(22)
    for _ in range(10):
        prof = random_mallows_profile(5, 7, 0.6, int(rng.integers(1 << 30)))
        res = kemeny_brute(prof)
        assert kemeny_score(res.ranking, prof) == res.score


# ---------------------------------------------------------------------------
# window DP
# ---------------------------------------------------------------------------


def test_dp_unanimous_short_circuit():
    prof = Profile.from_rankings([R123] * 4)
    res = kemeny_dp(prof)
    assert res.score == 0 and res.ranking == R123
    assert res.diagnostics.d == 0


def test_dp_single_vote():
    prof = Profile.from_rankings([(2, 0, 1)])
    res = kemeny_dp(prof)
    assert res.ranking == Ranking((2, 0, 1)) and res.score == 0


def test_dp_exhaustive_multisets_m3():
    # every vote multiset of sizes 2 and 3 over the six rankings
    # (the 56 size-3 multisets plus the 21 size-2 ones)
    rankings = all_rankings(3)
    cases = list(itertools.combinations_with_replacement(rankings, 3))
    assert len(cases) == 56
    cases += list(itertools.combinations_with_replacement(rankings, 2))
    for votes in cases:
        prof = Profile.from_rankings(votes, m=3)
        # the same election as counts over the six rankings
        counts = np.bincount([rankings.index(v) for v in votes], minlength=6)
        tally = _counts_tally(3, counts.astype(np.int64))
        rb = kemeny_brute(prof)
        rd = kemeny_dp(prof)
        assert same_result(rb, kemeny_brute(tally))
        assert same_result(rd, kemeny_dp(tally))
        assert same_result(slater_brute(prof), slater_brute(tally))
        assert rd.score == rb.score
        assert rd.ranking == rb.ranking  # identical tie-breaking


@pytest.mark.parametrize("phi", [0.2, 0.5, 0.9])
def test_dp_matches_brute_on_random_mallows(phi):
    rng = np.random.default_rng(int(phi * 1000))
    for trial in range(67):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(2, 9))
        seed = int(rng.integers(1 << 30))
        prof = random_mallows_profile(m, n, phi, seed)
        # the same election, drawn as a tally from the same stream
        tally = random_mallows_profile(m, n, phi, seed, draw=sample_tally)
        rb = kemeny_brute(prof)
        rd = kemeny_dp(prof)
        assert same_result(rb, kemeny_brute(tally))
        assert same_result(rd, kemeny_dp(tally))
        assert rd.score == rb.score, (m, n, phi, trial)
        assert rd.ranking == rb.ranking


def test_dp_score_invariant_under_relabeling():
    rng = np.random.default_rng(23)
    for _ in range(15):
        prof = random_mallows_profile(5, 6, 0.5, int(rng.integers(1 << 30)))
        sigma = Permutation(tuple(rng.permutation(5).tolist()))
        a = kemeny_dp(prof)
        b = kemeny_dp(permute(sigma, prof))
        assert a.score == b.score


def test_dp_diagnostics_populated():
    prof = CYCLIC3
    res = kemeny_dp(prof)
    assert res.diagnostics.d == 2
    assert res.diagnostics.max_states >= 1
    assert res.op_count > 0


def test_dp_rejects_fractional():
    prof = Profile.from_rankings([(0, 1, 2)], weights=[Fraction(1, 2)])
    with pytest.raises(ValueError):
        kemeny_dp(prof)


def test_dp_state_cap_fallback(monkeypatch):
    prof = random_mallows_profile(6, 6, 0.9, 99)
    monkeypatch.setattr(solvers, "DP_STATE_CAP", 2)
    with pytest.raises(ValueError):
        kemeny_dp(prof)


# ---------------------------------------------------------------------------
# slater
# ---------------------------------------------------------------------------


def test_slater_unanimous_and_cyclic():
    prof = Profile.from_rankings([R123] * 2)
    assert slater_brute(prof).score == 0
    res = slater_brute(CYCLIC3)
    assert res.score == 1  # the majority triangle forces one back-edge


def test_slater_transitive_topological():
    prof = Profile.from_rankings([(2, 0, 1), (2, 0, 1), (2, 1, 0)])
    res = slater_brute(prof)
    assert res.score == 0
    assert res.ranking == Ranking((2, 0, 1))


def test_slater_depends_only_on_umg():
    a = Profile.from_rankings([(0, 1, 2)] * 3)
    b = Profile.from_rankings([(0, 1, 2)] * 5 + [(2, 1, 0)] * 2)
    assert umg(a).edges == umg(b).edges
    ra, rb = slater_brute(a), slater_brute(b)
    assert ra.ranking == rb.ranking and ra.score == rb.score


def test_slater_matches_exhaustive_oracle():
    rng = np.random.default_rng(31)
    cases = [random_mallows_profile(5, 5, 0.7, int(rng.integers(1 << 30))) for _ in range(20)]
    for _ in range(10):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 6))
        cases.append(random_profile(rng, m, n, random_fraction_weights(rng, n)))
    for m in (6, 7):
        cases.append(random_mallows_profile(m, 5, 0.8, int(rng.integers(1 << 30))))
        cases.append(random_profile(rng, m, 4, random_fraction_weights(rng, 4)))
    # even electorates, whose tied pairs are no majority edge either way
    cases.append(Profile.from_rankings([(0, 1, 2), (2, 1, 0)]))
    cases += [random_profile(rng, 4, 2) for _ in range(5)]
    for prof in cases:
        res = solve_both_ways(slater_brute, prof)
        # all_rankings is lexicographic, so min() picks the lexicographically first optimum
        best = min(all_rankings(prof.m), key=lambda r: slater_score(r, prof))
        assert res.ranking == best
        assert res.score == slater_score(best, prof)


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


def test_budget_generous_matches_direct():
    direct = kemeny_brute(CYCLIC3)
    budgeted = solve_with_budget(kemeny_brute, CYCLIC3, budget=10**9)
    assert isinstance(budgeted, SolveResult)
    assert budgeted.ranking == direct.ranking and budgeted.score == direct.score


@pytest.mark.parametrize("solver", [kemeny_brute, kemeny_dp, slater_brute])
@pytest.mark.parametrize("prof", [
    CYCLIC3,
    # enough transitions that the engine polls its op cap: at m = 9 the DP
    # window spans the full lattice, at m = 12 it is narrow (d = 4)
    random_mallows_profile(9, 7, 0.7, 21),
    random_mallows_profile(12, 7, 0.2, 24),
])
def test_budget_boundary_is_the_op_count(solver, prof):
    # a budget of exactly op_count ops finishes, one op less times out
    direct = solver(prof)
    at = solve_with_budget(solver, prof, budget=direct.op_count)
    assert isinstance(at, SolveResult) and same_result(at, direct)
    below = solve_with_budget(solver, prof, budget=direct.op_count - 1)
    assert below == TimedOut(direct.op_count - 1)


def test_budget_tiny_times_out_on_m9():
    prof = Profile.from_rankings([tuple(range(9))])
    res = solve_with_budget(kemeny_brute, prof, budget=100)
    assert res == TimedOut(100)
    # the engine abandons the solve itself, at its first poll past the cap
    with pytest.raises(solvers._OverOpCap):
        kemeny_brute(prof, op_cap=100)


def test_budget_zero_admits_zero_op_solves():
    one_vote = Profile.from_rankings([(2, 0, 1)])
    res = solve_with_budget(kemeny_dp, one_vote, budget=0)
    assert isinstance(res, SolveResult) and res.op_count == 0
    assert res.ranking == Ranking((2, 0, 1))


def test_budget_rejects_negative_and_seconds():
    for bad in (-1, 0.5):
        with pytest.raises(ValueError, match="budget"):
            solve_with_budget(kemeny_brute, CYCLIC3, budget=bad)


def test_answer_determinism_across_runs():
    prof = random_mallows_profile(5, 6, 0.5, 11)
    a = kemeny_dp(prof)
    b = kemeny_dp(prof)
    assert a.ranking == b.ranking and a.score == b.score and a.op_count == b.op_count


def test_result_record_shape():
    rec = result_record(kemeny_dp(CYCLIC3))
    assert set(rec) == {"ranking", "score", "elapsed_ms", "op_count", "d", "solver"}
    assert rec["ranking"] == [0, 1, 2]
    rec2 = result_record(kemeny_brute(CYCLIC3))
    assert rec2["d"] is None
