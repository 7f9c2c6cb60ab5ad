"""Core value types: distances, scores, majority graphs, permutation action."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from votelab import core
from votelab.core import (
    Digraph,
    Permutation,
    Profile,
    Ranking,
    all_rankings,
    avg_kt,
    kemeny_score,
    kt_distance,
    kt_matrix,
    kt_to_digraph,
    pairwise_tally,
    permute,
    slater_score,
    umg,
    wmg,
)
from votelab.formats import format_profile, parse_profile, parse_soc

R123 = Ranking((0, 1, 2))
R321 = Ranking((2, 1, 0))
R231 = Ranking((1, 2, 0))
R312 = Ranking((2, 0, 1))
CYCLIC3 = Profile.from_rankings([R123, R231, R312])


def rankings_strategy(m):
    return st.permutations(list(range(m))).map(lambda p: Ranking(tuple(p)))


def profiles_strategy(m, max_n=6):
    return st.lists(st.permutations(list(range(m))), min_size=1, max_size=max_n).map(
        lambda rows: Profile.from_rankings([tuple(r) for r in rows], m=m)
    )


# ---------------------------------------------------------------------------
# kt_distance
# ---------------------------------------------------------------------------


def test_kt_identity_and_reversal():
    assert kt_distance(R123, R123) == 0
    assert kt_distance(R123, R321) == 3  # m(m-1)/2


def test_kt_example_enumerated_pairs():
    # pairs (0,1): agree? R123 has 0>1, R231 has 1 before 0 -> disagree
    # (0,2): disagree; (1,2): agree -> 2
    assert kt_distance(R123, R231) == 2


def test_kt_mismatched_m():
    with pytest.raises(ValueError):
        kt_distance(R123, Ranking((0, 1, 2, 3)))


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 7).flatmap(lambda m: st.tuples(*[rankings_strategy(m)] * 3)))
def test_kt_is_a_metric(triple):
    a, b, c = triple
    assert kt_distance(a, b) == kt_distance(b, a)
    assert (kt_distance(a, b) == 0) == (a == b)
    assert kt_distance(a, c) <= kt_distance(a, b) + kt_distance(b, c)


def test_kt_brute_force_oracle():
    # independent pair-by-pair count on random instances
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(2, 8))
        a = Ranking(tuple(rng.permutation(m).tolist()))
        b = Ranking(tuple(rng.permutation(m).tolist()))
        expected = sum(
            1
            for x in range(m)
            for y in range(x + 1, m)
            if a.prefers(x, y) != b.prefers(x, y)
        )
        assert kt_distance(a, b) == expected


# ---------------------------------------------------------------------------
# kemeny_score / pairwise_tally
# ---------------------------------------------------------------------------


def test_kemeny_score_unanimous_and_single():
    prof = Profile.from_rankings([R123, R123, R123])
    assert kemeny_score(R123, prof) == 0
    single = Profile.from_rankings([R231])
    assert kemeny_score(R123, single) == kt_distance(R123, R231)


def test_kemeny_score_cyclic():
    assert kemeny_score(R123, CYCLIC3) == 4  # 0 + 2 + 2


def test_pairwise_tally_values():
    prof = Profile.from_rankings([(0, 1)] * 5, m=2)
    n = pairwise_tally(prof)
    assert n[0, 1] == 5 and n[1, 0] == 0
    assert pairwise_tally(CYCLIC3)[0, 1] == 2


def test_tally_weight_partition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(1, 7))
        prof = Profile.from_rankings([tuple(rng.permutation(m).tolist()) for _ in range(k)], m=m)
        n = pairwise_tally(prof)
        for a in range(m):
            for b in range(a + 1, m):
                assert n[a, b] + n[b, a] == k


def test_pairwise_tally_blocks_match_one_tensordot(monkeypatch):
    # integer weights are summed in fixed-size row blocks; across block
    # boundaries the result equals the unblocked formula bit for bit
    rng = np.random.default_rng(3)
    m, k = 6, 23
    votes = np.array([rng.permutation(m) for _ in range(k)], dtype=np.int16)
    weights = rng.integers(1, 2**40, size=k, dtype=np.int64)
    prof = Profile(m, votes, weights)
    pos = prof.positions.astype(np.int64)
    before = pos[:, :, None] < pos[:, None, :]
    expected = np.tensordot(weights, before.astype(np.int64), axes=(0, 0))
    for chunk in (1, 4, 22, 23, 24):
        monkeypatch.setattr(core, "TALLY_BLOCK", chunk)
        got = pairwise_tally(prof)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("m", [2, 8, 12])
def test_tally_rows_blocks_match_one_tensordot(monkeypatch, m):
    # weighted rows and rows of one vote each, across block boundaries: the
    # tally equals one tensordot over all rows and the position sums one
    # weighted sum, both in int64
    rng = np.random.default_rng(m)
    k = 23
    votes = np.array([rng.permutation(m) for _ in range(k)], dtype=np.int16)
    pos = Profile(m, votes, np.ones(k, dtype=np.int64)).positions
    before = (pos[:, :, None] < pos[:, None, :]).astype(np.int64)
    for weights in (rng.integers(1, 2**40, size=k, dtype=np.int64), None):
        w = np.ones(k, dtype=np.int64) if weights is None else weights
        expected = np.tensordot(w, before, axes=(0, 0))
        for chunk in (1, 4, 22, 23, 24):
            monkeypatch.setattr(core, "TALLY_BLOCK", chunk)
            n_tally, sums = core._tally_rows(pos, weights)
            assert n_tally.dtype == sums.dtype == np.int64
            assert np.array_equal(n_tally, expected)
            assert np.array_equal(sums, w @ pos.astype(np.int64))


def test_integer_tally_memory_stays_per_block():
    # with positions cached, tallying 100,000 rows at m = 8 allocates per
    # TALLY_BLOCK, not an int64 copy of every position (6.4 MB)
    import tracemalloc

    rng = np.random.default_rng(0)
    votes = rng.permuted(np.tile(np.arange(8, dtype=np.int16), (100_000, 1)), axis=1)
    prof = Profile(8, votes, np.ones(len(votes), dtype=np.int64))
    agg = prof.aggregated()
    prof.positions, agg.positions
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        n_tally = pairwise_tally(prof)
        tally = core.Tally.of(agg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert np.array_equal(tally.matrix, n_tally) and n_tally[0, 1] + n_tally[1, 0] == 100_000
    assert np.array_equal(tally.position_sums, votes.argsort(axis=1).sum(axis=0))


def test_narrow_integer_and_bool_weights_tally_as_int64():
    # 270 of 300 unit votes rank 0 over 1, which wraps to 14 in uint8
    votes = np.tile(np.array([0, 1, 2], dtype=np.int16), (300, 1))
    votes[::10] = [2, 1, 0]
    unit = Profile(3, votes, np.ones(300, dtype=np.int64))
    for weights in (np.ones(300, dtype=np.uint8), np.ones(300, dtype=np.int8),
                    np.ones(300, dtype=np.uint64), np.ones(300, dtype=bool)):
        prof = Profile(3, votes, weights)
        n_tally = pairwise_tally(prof)
        assert n_tally[0, 1] == 270 and n_tally[1, 0] == 30
        assert n_tally.dtype == np.int64 and np.array_equal(n_tally, pairwise_tally(unit))
        assert avg_kt(prof) == avg_kt(unit) == 2 * 3 * 270 * 30 / (300 * 299)
        assert prof.weights.dtype == np.int64
        tally, want = core.Tally.of(prof), core.Tally.of(unit)
        assert (tally.n, type(tally.n)) == (300, int)
        assert np.array_equal(tally.matrix, want.matrix)
        assert np.array_equal(tally.position_sums, want.position_sums)
    # False weights are zero weights
    mixed = Profile(3, votes, np.arange(300) % 2 == 0)
    assert pairwise_tally(mixed)[0, 1] + pairwise_tally(mixed)[1, 0] == 150
    with pytest.raises(ValueError):
        Profile(3, votes[:1], np.array([2**63], dtype=np.uint64))


def test_kemeny_score_dual_path_oracle():
    # direct sum of KT distances vs the tally route, 100 random instances
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 8))
        prof = Profile.from_rankings([tuple(rng.permutation(m).tolist()) for _ in range(k)], m=m)
        r = Ranking(tuple(rng.permutation(m).tolist()))
        direct = sum(kt_distance(r, v) * w for v, w in prof.entries())
        assert kemeny_score(r, prof) == direct


def test_kemeny_score_fractional_weights_exact():
    prof = Profile.from_rankings([R123, R321], weights=[Fraction(1, 3), Fraction(2, 3)])
    assert kemeny_score(R123, prof) == Fraction(2, 3) * 3


# ---------------------------------------------------------------------------
# wmg / umg
# ---------------------------------------------------------------------------


def test_wmg_single_ranking():
    g = wmg(Profile.from_rankings([R123]))
    assert g.weight(0, 1) == g.weight(1, 2) == g.weight(0, 2) == 1


def test_wmg_profile_plus_reverse_is_zero():
    rng = np.random.default_rng(3)
    rows = [tuple(rng.permutation(4).tolist()) for _ in range(5)]
    prof = Profile.from_rankings(rows, m=4)
    both = prof.union(prof.reversed())
    assert np.all(wmg(both).matrix == 0)


def test_wmg_cyclic():
    g = wmg(CYCLIC3)
    assert g.weight(0, 1) == g.weight(1, 2) == g.weight(2, 0) == 1


def test_wmg_empty_profile_is_zero():
    g = wmg(Profile.empty(4))
    assert np.all(g.matrix == 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda m: profiles_strategy(m)))
def test_wmg_antisymmetry_and_parity(prof):
    g = wmg(prof)
    n = int(prof.n)
    assert (g.matrix == -g.matrix.T).all()
    for a in range(prof.m):
        for b in range(a + 1, prof.m):
            w = int(g.weight(a, b))
            assert abs(w) <= n
            assert (w - n) % 2 == 0


def test_umg_drops_ties_and_nonpositive():
    g = wmg(Profile.from_rankings([R123, R321]))  # all margins zero
    assert umg(g).edges == frozenset()
    assert sorted(umg(CYCLIC3).edges) == [(0, 1), (1, 2), (2, 0)]
    tt = umg(wmg(Profile.from_rankings([R123])))
    assert sorted(tt.edges) == [(0, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# kt_to_digraph / slater_score
# ---------------------------------------------------------------------------


def test_kt_to_digraph_topological_zero():
    g = Digraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert kt_to_digraph(Ranking((0, 1, 2, 3)), g) == 0
    assert kt_to_digraph(Ranking((0, 2, 1, 3)), g) == 0


def test_kt_to_digraph_triangle():
    # enumeration: rankings following the cycle break one edge, reversed
    # rankings break two; no order achieves zero
    tri = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    counts = sorted(kt_to_digraph(r, tri) for r in all_rankings(3))
    assert counts == [1, 1, 1, 2, 2, 2]
    for rot in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        assert kt_to_digraph(Ranking(rot), tri) == 1


def test_kt_to_digraph_reversed_tournament():
    g = umg(wmg(Profile.from_rankings([R123])))
    assert kt_to_digraph(R321, g) == len(g.edges)


def test_slater_score_examples():
    unambiguous = Profile.from_rankings([R123, R123])
    assert slater_score(R123, unambiguous) == 0
    assert slater_score(R123, CYCLIC3) == 1
    assert slater_score(R321, Profile.from_rankings([R123])) == 3


# ---------------------------------------------------------------------------
# avg_kt
# ---------------------------------------------------------------------------


def test_avg_kt_examples():
    assert avg_kt(Profile.from_rankings([R123] * 4)) == 0
    assert avg_kt(Profile.from_rankings([R123, R321])) == 3
    assert avg_kt(CYCLIC3) == 2


def test_avg_kt_needs_two_votes():
    with pytest.raises(ValueError):
        avg_kt(Profile.from_rankings([R123]))


def test_avg_kt_ordered_pair_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        rows = [tuple(rng.permutation(m).tolist()) for _ in range(n)]
        prof = Profile.from_rankings(rows, m=m)
        ordered = sum(
            kt_distance(rows[i], rows[j]) for i in range(n) for j in range(n) if i != j
        )
        assert float(avg_kt(prof)) == pytest.approx(ordered / (n * (n - 1)))


# ---------------------------------------------------------------------------
# permutation action
# ---------------------------------------------------------------------------


def test_permute_identity_and_swap():
    ident = Permutation.identity(3)
    assert permute(ident, R123) == R123
    swap = Permutation.transposition(0, 1, 3)
    assert permute(swap, R123) == Ranking((1, 0, 2))


def test_permutation_algebra():
    c = Permutation.cycle([0, 1, 2], 5)
    assert c**3 == Permutation.identity(5)
    assert (c ** (-1)).compose(c) == Permutation.identity(5)
    s = Permutation.sending([0, 1, 2], [3, 1, 4], 5)
    assert s.map[0] == 3 and s.map[1] == 1 and s.map[2] == 4


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 6).flatmap(
        lambda m: st.tuples(
            profiles_strategy(m),
            st.permutations(list(range(m))).map(lambda p: Permutation(tuple(p))),
        )
    )
)
def test_neutrality_commutation(profile_and_sigma):
    prof, sigma = profile_and_sigma
    left = wmg(permute(sigma, prof))
    right = permute(sigma, wmg(prof))
    assert left.equals(right)
    # KT distance is invariant under simultaneous relabeling
    rows = [v for v, _ in prof.entries()]
    if len(rows) >= 2:
        a, b = rows[0], rows[1]
        assert kt_distance(a, b) == kt_distance(permute(sigma, a), permute(sigma, b))
    # umg commutes as well
    assert umg(permute(sigma, prof)).edges == permute(sigma, umg(prof)).edges


def test_ranking_validation():
    with pytest.raises(ValueError):
        Ranking((0, 0, 1))
    with pytest.raises(ValueError):
        Ranking((1, 2, 3))


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile.from_rankings([(0, 1, 2), (0, 1)], m=3)
    with pytest.raises(ValueError):
        Profile.from_rankings([(0, 1, 2)], weights=[-1], m=3)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def test_profile_round_trip():
    prof = Profile.from_rankings([R123, R123, R231], m=3).aggregated()
    text = format_profile(prof)
    back = parse_profile(text)
    assert back.m == prof.m and int(back.n) == int(prof.n)
    assert dict(back.entries()) == dict(prof.entries())


def test_parse_profile_features():
    text = """
    # leading comment
    m=3
    n=4
    2: 0,1,2
    1: 2 1 0   # trailing comment
    1: 1,2,0
    """
    prof = parse_profile(text)
    assert int(prof.n) == 4
    assert prof.m == 3


def test_parse_profile_declared_n_mismatch():
    with pytest.raises(ValueError):
        parse_profile("m=3\nn=5\n1: 0,1,2\n")


def test_parse_soc_one_based():
    text = "# 3 alternatives\n2: 1,2,3\n1: 3,2,1\n"
    prof = parse_soc(text)
    assert prof.m == 3 and int(prof.n) == 3
    assert dict(prof.entries())[Ranking((0, 1, 2))] == 2


def test_kt_matrix_consistency():
    mat = kt_matrix(CYCLIC3)
    assert mat.shape == (3, 3)
    assert mat[0, 1] == 2 and np.all(np.diag(mat) == 0)


def test_parse_profile_fractional_weights():
    prof = parse_profile("m=3\n1/2: 0,1,2\n1/4: 2,1,0\n")
    weights = dict(prof.entries())
    assert weights[Ranking((0, 1, 2))] == Fraction(1, 2)
    assert not prof.is_integral
    text = format_profile(prof)
    assert dict(parse_profile(text).entries()) == weights


# ---------------------------------------------------------------------------
# tally-based average distance and vectorized aggregation against references
# ---------------------------------------------------------------------------


def _kt_matrix_avg(profile):
    """Reference: the ordered-pair total from the (k, k) distance matrix."""
    n = int(profile.n)
    w = np.array([int(x) for x in profile.weights.tolist()], dtype=np.int64)
    total = int(w @ kt_matrix(profile) @ w)
    if total % (n * (n - 1)) == 0:
        return total // (n * (n - 1))
    return total / (n * (n - 1))


def test_avg_kt_tally_matches_kt_matrix_oracle():
    rng = np.random.default_rng(41)
    cases = [Profile.from_rankings([R123, R321]), CYCLIC3]
    for m in (2, 3, 5, 7):
        for k in (1, 2, 9, 40):
            rows = [tuple(rng.permutation(m).tolist()) for _ in range(k)]
            counts = rng.integers(0, 6, size=k).tolist()
            counts[0] += 2
            cases.append(Profile.from_rankings(rows, counts, m=m))
            cases.append(Profile.from_rankings(rows, [Fraction(c) for c in counts], m=m))
    divisible = 0
    for prof in cases:
        got, want = avg_kt(prof), _kt_matrix_avg(prof)
        assert type(got) is type(want)
        assert got == want
        divisible += isinstance(got, int)
    assert 0 < divisible < len(cases)


def _dict_loop_aggregated(profile):
    """Reference: the per-row dict merge."""
    seen = {}
    for row, w in zip(profile.votes, profile.weights.tolist()):
        key = tuple(int(a) for a in row)
        seen[key] = seen.get(key, 0) + w
    items = sorted((k, w) for k, w in seen.items() if w != 0)
    if not items:
        return Profile.empty(profile.m)
    return Profile.from_rankings([k for k, _ in items], [w for _, w in items], m=profile.m)


def _same_profile(a, b):
    return (
        a.votes.tobytes() == b.votes.tobytes()
        and a.votes.shape == b.votes.shape
        and a.weights.dtype == b.weights.dtype
        and [(type(x), x) for x in a.weights.tolist()]
        == [(type(x), x) for x in b.weights.tolist()]
    )


def test_aggregated_matches_dict_loop():
    rng = np.random.default_rng(43)
    m, k = 5, 400
    votes = np.tile(rng.permuted(np.tile(np.arange(m), (30, 1)), axis=1), (k // 30 + 1, 1))[:k]
    rng.shuffle(votes)
    int_w = rng.integers(0, 4, size=k)
    float_w = rng.random(k) * rng.choice([0.0, 1e-3, 1.0, 1e9], size=k)
    mixed = [Fraction(int(i), 3) if i % 2 else float(f) for i, f in zip(int_w, float_w)]
    fracs = [Fraction(int(i), 7) for i in int_w]
    profiles = [
        Profile(m, votes, int_w),
        Profile(m, votes, float_w),
        Profile(m, votes, np.asarray(float_w, dtype=np.float32)),
        Profile(m, votes, fracs),
        Profile(m, votes, mixed),
        Profile(m, votes, np.zeros(k, dtype=np.int64)),
        Profile(m, votes, np.zeros(k)),
        Profile(m, votes[:0], np.zeros(0)),
        Profile.empty(m),
        Profile.from_rankings([R321, R123, R321, R231], [1, 0, 2, 0]),
    ]
    for prof in profiles:
        agg = prof.aggregated()
        assert agg is not prof
        assert _same_profile(agg, _dict_loop_aggregated(prof))
        # an aggregated profile is canonical, so aggregating it again is free
        assert agg.aggregated() is agg
        # equal rows built directly are merged as any other input
        rebuilt = Profile(agg.m, agg.votes, agg.weights)
        again = rebuilt.aggregated()
        assert again is not rebuilt and _same_profile(again, agg)


def test_negative_weights_rejected_for_every_dtype():
    for weights in ([-1], np.array([-0.5]), [Fraction(-1, 2)]):
        with pytest.raises(ValueError):
            Profile.from_rankings([R123], weights=weights)
    assert int(Profile.from_rankings([R123], weights=np.array([-0.0])).n) == 0


def test_hot_paths_never_build_kt_matrix(monkeypatch):
    """An m=8 profile with ~2,000 distinct votes would need a 2000 x 2000 x 28
    distance array; every average-distance consumer must read the tally."""
    import sys

    from votelab.harness import ExperimentConfig, avg_kt_concentration_check
    from votelab.solvers import kemeny_dp

    def boom(profile):
        raise AssertionError("kt_matrix called on a hot path")

    for name, mod in list(sys.modules.items()):
        if name.startswith("votelab") and hasattr(mod, "kt_matrix"):
            monkeypatch.setattr(mod, "kt_matrix", boom)
    m, n = 8, 2000
    rng = np.random.default_rng(47)
    votes = rng.permuted(np.tile(np.arange(m, dtype=np.int16), (n, 1)), axis=1)
    central = Profile(m, votes, np.ones(n, dtype=np.int64)).aggregated()
    assert len(central) > 1900
    assert avg_kt(central) > 0
    assert kemeny_dp(central).diagnostics.d > 0
    cfg = ExperimentConfig(experiment="concentration", m=m, n=n, phi=0.5, t=2.0, trials=1, seed=3)
    report, _ = avg_kt_concentration_check(cfg, central=central)
    assert report.passed
