"""Orbit gadgets: structural identities, rounding, witnesses, reduction runs."""

import math
from fractions import Fraction

import numpy as np
import pytest

from votelab import gadgets
from votelab.core import (
    Digraph,
    Ranking,
    all_rankings,
    kt_to_digraph,
    umg,
    wmg,
)
from votelab.gadgets import (
    FasInstance,
    ReductionConfig,
    block_cross_sum,
    build_eulerian_profile,
    build_instance_profile,
    build_tournament_profile,
    build_triangle_profile,
    center_margin_sum,
    check_gadget_identities,
    cocycle_orbit,
    fas_optimum,
    mallows_witness,
    orbit_3cycle,
    orbit_cocycle,
    pl_witness,
    round_to_integral,
    run_reduction,
    triangle_margin_sum,
    triangle_orbit,
    verify_witness,
)
from votelab.formats import format_fas, parse_fas
from votelab.graph_algebra import three_cycle
from votelab.harness import reduction_trials
from votelab.models import (
    MallowsParam,
    ParameterProfile,
    PlackettLuceParam,
    expected_wmg,
    mallows_pairwise,
    mallows_pmf,
    sample_profile,
    sample_tally,
)
from votelab.solvers import kemeny_dp

HALF = Fraction(1, 2)
PHIS_EXACT = [Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)]


def unit_triangle(m):
    return three_cycle(0, 1, 2, m, exact=True)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def test_triangle_orbit_sizes():
    assert len(triangle_orbit(3)) == 3
    for m in (4, 5, 6, 8):
        assert len(triangle_orbit(m)) == 6 * (m - 3)
    assert len(cocycle_orbit(0, 5)) == 8  # 2(m-1)


def test_orbit_3cycle_entry_count_m5():
    q = orbit_3cycle(mallows_witness(5, HALF))
    assert q.total_weight == 12


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("phi", PHIS_EXACT)
def test_triangle_orbit_structure_exact(m, phi):
    theta = mallows_witness(m, phi)
    w = expected_wmg(theta)
    alpha = triangle_margin_sum(w)
    beta = block_cross_sum(w)
    wq = expected_wmg(orbit_3cycle(theta))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        assert wq.matrix[a, b] == 2 * (m - 3) * alpha
    for d1 in range(3):
        for d2 in range(3, m):
            assert wq.matrix[d1, d2] == beta
    for d1 in range(3, m):
        for d2 in range(3, m):
            if d1 != d2:
                assert wq.matrix[d1, d2] == 0  # opposite block powers cancel


def test_triangle_orbit_m3():
    theta = mallows_witness(3, HALF)
    wq = expected_wmg(orbit_3cycle(theta))
    alpha = triangle_margin_sum(expected_wmg(theta))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        assert wq.matrix[a, b] == alpha


def test_triangle_orbit_enumeration_cross_check_m5():
    # margins of the closed-form expected graph against full enumeration
    theta = mallows_witness(5, HALF)
    w = expected_wmg(theta)
    for a in range(5):
        for b in range(a + 1, 5):
            margin = sum(
                (1 if r.prefers(a, b) else -1) * mallows_pmf(theta, r)
                for r in all_rankings(5)
            )
            assert margin == w.matrix[a, b]


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("phi", PHIS_EXACT)
def test_cocycle_orbit_structure_exact(m, phi):
    theta = mallows_witness(m, phi)
    gamma = center_margin_sum(expected_wmg(theta), 0)
    ws = expected_wmg(orbit_cocycle(0, theta))
    for b in range(1, m):
        assert ws.matrix[0, b] == 2 * gamma
    for a in range(1, m):
        for b in range(1, m):
            if a != b:
                assert ws.matrix[a, b] == 0


def test_cocycle_orbit_of_triangle_orbit_amplifies_crossings():
    for m in (4, 5, 6):
        theta = mallows_witness(m, HALF)
        beta = block_cross_sum(expected_wmg(theta))
        q = orbit_3cycle(theta)
        wsq = expected_wmg(orbit_cocycle(0, q))
        for b in range(1, m):
            assert wsq.matrix[0, b] == 2 * (m - 3) * beta


def test_cocycle_orbit_zero_input_gives_zero_star():
    theta = mallows_witness(4, Fraction(1))  # uniform: zero margins
    ws = expected_wmg(orbit_cocycle(0, theta))
    assert all(x == 0 for x in ws.matrix.ravel().tolist())


def test_orbit_linearity():
    # orbits commute with weighted unions of parameter profiles
    t1 = mallows_witness(4, HALF)
    t2 = MallowsParam(Ranking((3, 2, 1, 0)), Fraction(3, 10))
    mix = ParameterProfile.from_entries(4, [(t1, Fraction(2)), (t2, Fraction(3))])
    left = expected_wmg(orbit_cocycle(0, mix))
    right = expected_wmg(orbit_cocycle(0, t1)) * Fraction(2) + expected_wmg(
        orbit_cocycle(0, t2)
    ) * Fraction(3)
    assert left.equals(right)


# ---------------------------------------------------------------------------
# unit triangle profile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("phi", PHIS_EXACT)
def test_unit_triangle_exact_mallows(m, phi):
    pp = build_triangle_profile(mallows_witness(m, phi))
    assert expected_wmg(pp).equals(unit_triangle(m))


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_unit_triangle_exact_pl(m):
    pp = build_triangle_profile(pl_witness(m))
    assert expected_wmg(pp).equals(unit_triangle(m))


def test_unit_triangle_type_count_cubic():
    for m in range(5, 10):
        pp = build_triangle_profile(mallows_witness(m, HALF))
        assert pp.type_count <= 12 * m**3


def test_unit_triangle_beta_zero_branch():
    # head/tail utilities around the block mean cancel the crossing sum
    theta = PlackettLuceParam.from_utilities(
        [Fraction(2), Fraction(1), Fraction(1, 2), 1, 1]
    )
    w = expected_wmg(theta)
    assert block_cross_sum(w) == 0
    assert triangle_margin_sum(w) == Fraction(1, 15)
    pp = build_triangle_profile(theta)
    # no star corrections: exactly the scaled orbit
    q = orbit_3cycle(theta)
    assert pp.type_count == q.type_count
    assert expected_wmg(pp).equals(unit_triangle(5))


def test_unit_triangle_requires_positive_alpha():
    with pytest.raises(ValueError):
        build_triangle_profile(mallows_witness(4, Fraction(1)))  # alpha = 0


# ---------------------------------------------------------------------------
# graph profiles
# ---------------------------------------------------------------------------


def test_eulerian_profile_single_triangle():
    g = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    pp = build_eulerian_profile(g, mallows_witness(3, HALF))
    assert expected_wmg(pp).equals(g.to_wmg(exact=True))


def test_eulerian_profile_two_disjoint_triangles():
    g = Digraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    pp = build_eulerian_profile(g, mallows_witness(6, HALF))
    assert expected_wmg(pp).equals(g.to_wmg(exact=True))


def test_eulerian_profile_four_cycle_with_chords():
    g = Digraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 4), (4, 0)])
    assert g.is_eulerian()
    pp = build_eulerian_profile(g, mallows_witness(5, Fraction(3, 10)))
    assert expected_wmg(pp).equals(g.to_wmg(exact=True))


def test_eulerian_profile_rejects_unbalanced():
    g = Digraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        build_eulerian_profile(g, mallows_witness(3, HALF))


def test_tournament_profile_m3_cyclic():
    g = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    th = mallows_witness(3, HALF)
    pp = build_tournament_profile(g, th, th)
    assert expected_wmg(pp).equals(g.to_wmg(exact=True) * Fraction(3))


def test_tournament_profile_m4_transitive():
    g = Digraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    th = mallows_witness(4, HALF)
    pp = build_tournament_profile(g, th, th)
    w = expected_wmg(pp)
    assert w.equals(g.to_wmg(exact=True) * Fraction(4))
    assert umg(w).edges == g.edges


def test_tournament_profile_random_m5_sign_oracle():
    rng = np.random.default_rng(17)
    th = mallows_witness(5, HALF)
    for _ in range(10):
        edges = []
        for a in range(5):
            for b in range(a + 1, 5):
                edges.append((a, b) if rng.random() < 0.5 else (b, a))
        g = Digraph.from_edges(5, edges)
        pp = build_tournament_profile(g, th, th)
        assert umg(expected_wmg(pp)).edges == g.edges


def test_tournament_profile_pl_witness():
    g = Digraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    th = pl_witness(3)
    pp = build_tournament_profile(g, th, th)
    assert expected_wmg(pp).equals(g.to_wmg(exact=True) * Fraction(3))


def test_check_gadget_identities_all_pass():
    for m in (4, 6):
        for phi in PHIS_EXACT:
            checks = check_gadget_identities(m, mallows_witness(m, phi))
            assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    checks = check_gadget_identities(5, pl_witness(5))
    assert all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------


def test_round_single_type_exact_target():
    p = mallows_witness(3, HALF)
    pp = ParameterProfile.from_entries(3, [(p, Fraction(1))])
    rounded = round_to_integral(pp, 4, max_n=100)  # 3^4 = 81
    assert rounded.total_weight == 81


def test_round_weight_loss_bounded_by_types():
    for m, phi in [(4, HALF), (5, Fraction(3, 10))]:
        pp = build_triangle_profile(mallows_witness(m, phi))
        K = 7 if m == 4 else 6
        rounded = round_to_integral(pp, K, max_n=20_000)
        target = m**K
        assert target - pp.type_count <= rounded.total_weight <= target


def test_round_expected_wmg_deviation_bounded():
    pp = build_triangle_profile(mallows_witness(4, HALF))
    K = 7
    rounded = round_to_integral(pp, K, max_n=20_000)
    scale = Fraction(4**K) / pp.total_weight
    ideal = expected_wmg(pp) * scale
    actual = expected_wmg(rounded)
    types = pp.type_count
    diff = (actual - ideal).matrix
    assert all(abs(x) <= types for x in diff.ravel().tolist())


def test_round_cap_enforced():
    pp = ParameterProfile.from_entries(3, [(mallows_witness(3, HALF), Fraction(1))])
    with pytest.raises(ValueError):
        round_to_integral(pp, 20, max_n=1_000_000)


# sha256 of format_parameter_profile, and of expected_wmg(pp).matrix.tobytes()
# for float dispersions, recorded from the per-object gadget construction that
# built, hashed and sorted one parameter object per type; they pin the type
# order, every weight, and the order in which float margins are added; keyed
# by the text of the dispersion, since 0.5 == Fraction(1, 2)
GADGET_DIGESTS = {
    ("eulerian", "0.5", False): (
        "62e7e5667a7261eb0eb254d739dfe443f32f56f6f1cc30392241d16ab3a85bda",
        "36beea365ac64b124112252430988b2d5c0335feca2086139e72f71c26214c06"),
    ("eulerian", "0.5", True): (
        "acf236c4821ded36c6d4d459fdc7fe6408dbc540e59f7d7fdff99590dce2dd5e",
        "1558ded4e40b4e3ff95255cfd65b40bbe5e2de1485af41fa526e674a35222437"),
    ("eulerian", "1/2", False): (
        "02bc381a8848b62294235b2fb609cebec357b3e23d03d61de7cb650fb0147cde", None),
    ("eulerian", "1/2", True): (
        "3f00368c40cd3bb9658031b5b5c76c90294b9739a54066b3345542fa488f24b4", None),
    ("tournament", "0.5", False): (
        "944790b360958d8065a2e30188b2fc441d0067daa72776aa020c4750346821f8",
        "906c9948c7f6a78d94cdd928bfe7c1be4e03da68624f7da6f840856400d37f0e"),
    ("tournament", "0.5", True): (
        "d3d6816d4efcbe822b2cfb65d79da2c248760004f995e97ce8540a5ed8d9edbb",
        "06a185e8e6dc258367084d2bbfe17b431269e5d26cab0eaf82a59404c8622db0"),
    ("tournament", "1/2", False): (
        "e69b3a020c5c2c6a8b3f72a8bad2bd44ae5665d6c8f214d0c3b3da7ed473f416", None),
    ("tournament", "1/2", True): (
        "cddf15b532cd6dcf1771fdbffe021eb2cfa5e76323be9b64c3c79bfda9cdba85", None),
}


@pytest.mark.parametrize("kind", ["eulerian", "tournament"])
@pytest.mark.parametrize("phi", [0.5, HALF])
def test_gadget_profiles_are_pinned(kind, phi):
    # two disjoint triangles at m = 6; a seeded random tournament at m = 5
    import hashlib

    from votelab.formats import format_parameter_profile

    if kind == "eulerian":
        g = Digraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        pp = build_eulerian_profile(g, mallows_witness(6, phi))
    else:
        rng = np.random.default_rng(5)
        g = Digraph.from_edges(5, [(a, b) if rng.random() < 0.5 else (b, a)
                                   for a in range(5) for b in range(a + 1, 5)])
        pp = build_tournament_profile(g, mallows_witness(5, phi), mallows_witness(5, phi))
    for rounded in (False, True):
        q = round_to_integral(pp, 6) if rounded else pp
        text, matrix = GADGET_DIGESTS[kind, str(phi), rounded]
        assert hashlib.sha256(format_parameter_profile(q).encode()).hexdigest() == text
        w = expected_wmg(q)
        assert w.is_exact == isinstance(phi, Fraction)
        if matrix is not None:
            assert hashlib.sha256(w.matrix.tobytes()).hexdigest() == matrix


def _two_triangles():
    return Digraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


# sha256 of format_parameter_profile of the Plackett-Luce unit-triangle and
# two-triangle Eulerian profiles at m = 6, unrounded and round_to_integral(., 6),
# recorded from the construction that merged every relabeled part
PL_GADGET_DIGESTS = {
    ("triangle", True): (
        "9afe635c23165fe4123e8dcfeaa755df37e86aa7f4f657472e829a34afcc3041",
        "70a9df1b375d355e3e60252d556cbde46f3dd4cf45c8786a020c89c9668a9b4c"),
    ("triangle", False): (
        "8c29ea2c64ff1749700a0a1a25b6686fef7b4936c39c0a3e8a0adf3468182350",
        "8184fc9af88f7973718dd77107d992e527c97d443b3fa2f2773e42214c8509e3"),
    ("eulerian", True): (
        "b4e15bbb363f6c48b2fbe26309e6736a04ec3a5ba871e83893f554c6f0a6ce5b",
        "0f9e00db263ac970eeb6b9d7b774a6b6a7da3571ace46de62fca57c35bdfc763"),
    ("eulerian", False): (
        "fce457bca03f7653c8920a051bb56c4c9e57f4643a9f796188e5be0b2ccad228",
        "a3748369b6b55a09a81544600a44121b4e7e498647fb6767acb82058776ec750"),
}


@pytest.mark.parametrize("kind", ["triangle", "eulerian"])
@pytest.mark.parametrize("exact", [True, False])
def test_pl_gadget_profiles_are_pinned(kind, exact):
    import hashlib

    from votelab.formats import format_parameter_profile

    theta = pl_witness(6) if exact else pl_witness(6, 0.1, 0.2)
    if kind == "triangle":
        pp = build_triangle_profile(theta)
    else:
        pp = build_eulerian_profile(_two_triangles(), theta)
    digests = [hashlib.sha256(format_parameter_profile(q).encode()).hexdigest()
               for q in (pp, round_to_integral(pp, 6))]
    assert digests == list(PL_GADGET_DIGESTS[kind, exact])


def test_gadget_builds_merge_per_level(monkeypatch):
    # relabeled parts are unique already, so only from_entries, scale and
    # union merge; merging every relabeled part took 123 and 43 calls
    from votelab import models

    calls = []
    merge = models._merge_rows

    def counted(*args):
        calls.append(1)
        return merge(*args)

    monkeypatch.setattr(models, "_merge_rows", counted)
    rng = np.random.default_rng(5)
    g = Digraph.from_edges(5, [(a, b) if rng.random() < 0.5 else (b, a)
                               for a in range(5) for b in range(a + 1, 5)])
    build_tournament_profile(g, mallows_witness(5, 0.5), mallows_witness(5, 0.5))
    assert len(calls) <= 13
    calls.clear()
    build_eulerian_profile(_two_triangles(), mallows_witness(6, 0.5))
    assert len(calls) <= 10


# ---------------------------------------------------------------------------
# witness reports
# ---------------------------------------------------------------------------


def test_mallows_witness_alpha_closed_forms():
    for phi in (0.3, 0.5, 0.8):
        w = expected_wmg(mallows_witness(6, phi))
        alpha = triangle_margin_sum(w)
        form_a = (1 - phi) * (1 - phi + phi * phi) / ((1 + phi) * (1 + phi + phi * phi))
        form_b = (1 - 2 * phi + 2 * phi * phi - phi**3) / ((1 + phi) * (1 + phi + phi * phi))
        assert alpha == pytest.approx(form_a, abs=1e-12)
        assert alpha == pytest.approx(form_b, abs=1e-12)
    assert triangle_margin_sum(expected_wmg(mallows_witness(5, 0.5))) == pytest.approx(
        1 / 7
    )


def test_mallows_witness_gamma_positive_sum_of_margins():
    for m in (3, 5, 8):
        for phi in (0.2, 0.5, 0.9):
            gamma = center_margin_sum(expected_wmg(mallows_witness(m, phi)), 0)
            manual = sum(2 * mallows_pairwise(phi, k) - 1 for k in range(1, m))
            assert gamma == pytest.approx(manual, abs=1e-12)
            assert gamma > 0


def test_witness_report_mallows():
    rep = verify_witness("mallows", phi=0.5, m_range=range(3, 9))
    assert rep.ok_3cycle and rep.ok_cocycle
    assert rep.k == 0 and rep.k_star == 0
    assert rep.alpha == pytest.approx(1 / 7, abs=1e-12)
    # alpha is stable across m
    values = [a for _, a in rep.alphas_by_m]
    assert max(values) - min(values) < 1e-12
    for m, a in rep.alphas_by_m:
        assert a > rep.A / m**rep.k
    for m, g in rep.gammas_by_m:
        assert g > rep.B / m**rep.k_star
    # probability-form functional recorded alongside the margin form
    phi = 0.5
    expected_prob_form = (1 + 2 * phi * phi) / ((1 + phi) * (1 + phi + phi * phi))
    assert rep.alpha_prob_form == pytest.approx(expected_prob_form, abs=1e-12)


def test_witness_report_pl():
    rep = verify_witness("pl", m_range=range(3, 9))
    assert rep.ok_3cycle and rep.ok_cocycle
    assert rep.k == 0 and rep.k_star == 0
    assert rep.alpha == pytest.approx(1 / 105, abs=1e-12)


def test_witness_margin_form_vanishes_at_uniform():
    w = expected_wmg(mallows_witness(5, Fraction(1)))
    assert triangle_margin_sum(w) == 0


# ---------------------------------------------------------------------------
# sampled concentration around the rounded gadget
# ---------------------------------------------------------------------------


def test_sampled_wmg_concentration_envelope():
    # m=4 Eulerian gadget at K=7 (n about 16k): the sampled majority graph
    # stays within 6 sqrt(n) of its expectation in at least 99% of trials
    g = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 0)])
    assert g.is_eulerian()
    pp = build_eulerian_profile(g, mallows_witness(4, HALF))
    rounded = round_to_integral(pp, 7, max_n=20_000)
    n = int(rounded.total_weight)
    assert n >= 10_000
    mean = expected_wmg(rounded).matrix.astype(np.float64)
    trials = 1000
    radius = 6.0 * math.sqrt(n)
    exceed = 0
    for trial in range(trials):
        rng = np.random.default_rng([1234, trial])
        prof = sample_profile(rounded, rng)
        dev = np.abs(wmg(prof).matrix - mean).max()
        exceed += dev > radius
    assert exceed / trials < 0.01


# ---------------------------------------------------------------------------
# reduction driver
# ---------------------------------------------------------------------------

TRIANGLE = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


def test_reduction_triangle_t0_is_always_no():
    inst = FasInstance(TRIANGLE, 0, "eulerian")
    assert fas_optimum(TRIANGLE) == 1  # no order achieves zero back-edges
    cfg = ReductionConfig(K=6)
    pp = build_instance_profile(inst, cfg)
    for seed in range(8):
        out = run_reduction(inst, cfg, np.random.default_rng([50, seed]), prebuilt=pp)
        assert out.answer == "NO"


def test_reduction_triangle_t1_is_yes():
    inst = FasInstance(TRIANGLE, 1, "eulerian")
    cfg = ReductionConfig(K=9)
    pp = build_instance_profile(inst, cfg)
    answers = [
        run_reduction(inst, cfg, np.random.default_rng([51, seed]), prebuilt=pp).answer
        for seed in range(10)
    ]
    assert answers.count("YES") >= 7


def test_reduction_transitive_tournament_t0_yes():
    g = Digraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    inst = FasInstance(g, 0, "tournament")
    cfg = ReductionConfig(K=9)
    pp = build_instance_profile(inst, cfg)
    answers = [
        run_reduction(inst, cfg, np.random.default_rng([52, seed]), prebuilt=pp).answer
        for seed in range(10)
    ]
    assert answers.count("YES") >= 7


def test_reduction_soundness_exhaustive_m4_m5():
    # NO instances (verified by enumeration) must never answer YES
    g4 = Digraph.from_edges(
        4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
    )  # tournament with a 3-cycle
    assert fas_optimum(g4) == 1
    inst4 = FasInstance(g4, 0, "tournament")
    cfg4 = ReductionConfig(K=5)
    pp4 = build_instance_profile(inst4, cfg4)
    for seed in range(6):
        assert run_reduction(inst4, cfg4, np.random.default_rng([53, seed]), prebuilt=pp4).answer == "NO"

    rng = np.random.default_rng(54)
    edges = []
    for a in range(5):
        for b in range(a + 1, 5):
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
    g5 = Digraph.from_edges(5, edges)
    opt = fas_optimum(g5)
    assert opt >= 1  # this seeded tournament contains a cycle
    inst5 = FasInstance(g5, opt - 1, "tournament")
    cfg5 = ReductionConfig(K=4)
    pp5 = build_instance_profile(inst5, cfg5)
    for seed in range(6):
        assert run_reduction(inst5, cfg5, np.random.default_rng([55, seed]), prebuilt=pp5).answer == "NO"


def test_reduction_m4_eulerian_two_triangles_t2_yes():
    # needs both triangles cut: t=1 is NO, t=2 is YES; n just above one
    # million so the cap is raised for this case
    g = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 0)])
    assert fas_optimum(g) == 2
    cfg = ReductionConfig(K=10, max_n=2_000_000)
    inst_yes = FasInstance(g, 2, "eulerian")
    pp = build_instance_profile(inst_yes, cfg)
    answers = [
        run_reduction(inst_yes, cfg, np.random.default_rng([56, seed]), prebuilt=pp).answer
        for seed in range(5)
    ]
    assert answers.count("YES") >= 4
    inst_no = FasInstance(g, 1, "eulerian")
    for seed in range(3):
        assert run_reduction(inst_no, cfg, np.random.default_rng([57, seed]), prebuilt=pp).answer == "NO"


def test_reduction_empty_graph_trivial_yes():
    inst = FasInstance(Digraph.from_edges(3, []), 0, "eulerian")
    out = run_reduction(inst, ReductionConfig(K=3), np.random.default_rng(0))
    assert out.answer == "YES"


@pytest.mark.parametrize("kind, solver, label", [
    ("eulerian", "brute", "brute"),
    ("tournament", "dp", "slater-brute"),
])
def test_reduction_empty_graph_names_its_route_solver(kind, solver, label):
    # one alternative and no edges is both Eulerian and a tournament
    inst = FasInstance(Digraph.from_edges(1, []), 0, kind)
    out = run_reduction(inst, ReductionConfig(K=3, solver=solver), np.random.default_rng(0))
    assert (out.answer, out.solver) == ("YES", label)


def test_reduction_outcome_fields():
    inst = FasInstance(TRIANGLE, 1, "eulerian")
    cfg = ReductionConfig(K=6)
    out = run_reduction(inst, cfg, np.random.default_rng(1))
    assert out.n > 0 and out.finished and out.back_edges == 1
    # the budget is a multiple of the op count of the expected tally, in ops
    ppi = round_to_integral(build_instance_profile(inst, cfg), cfg.K)
    expected_ops = kemeny_dp(gadgets._expected_tally(ppi)).op_count
    assert expected_ops > 0 and out.budget == gadgets.BUDGET_MULTIPLIER * expected_ops
    assert out.op_count <= out.budget


def test_reduction_plan_draws_nothing(monkeypatch):
    # the budget belongs to the instance and comes from its expected tally,
    # so three trials on one prebuilt profile sample three elections
    calls = []

    def counting(pp, rng):
        calls.append(pp)
        return sample_tally(pp, rng)

    monkeypatch.setattr(gadgets, "sample_tally", counting)
    gadgets._instance_plan.cache_clear()
    inst = FasInstance(TRIANGLE, 1, "eulerian")
    cfg = ReductionConfig(K=6)
    pp = build_instance_profile(inst, cfg)
    budgets = {run_reduction(inst, cfg, np.random.default_rng([58, i]), prebuilt=pp).budget
               for i in range(3)}
    assert len(calls) == 3
    assert len(budgets) == 1


def _gadget_instances(m):
    """One or two triangles (Eulerian) and a seeded random tournament on m
    alternatives, each with t at its optimum."""
    edges = [(0, 1), (1, 2), (2, 0)] + ([(3, 4), (4, 5), (5, 3)] if m >= 6 else [])
    rng = np.random.default_rng(5)
    tour = Digraph.from_edges(m, [(a, b) if rng.random() < 0.5 else (b, a)
                                  for a in range(m) for b in range(a + 1, m)])
    return [FasInstance(Digraph.from_edges(m, edges), len(edges) // 3, "eulerian"),
            FasInstance(tour, fas_optimum(tour), "tournament")]


@pytest.mark.parametrize("m", [4, 5, 6])
def test_expected_tally_identities(m):
    for inst in _gadget_instances(m):
        cfg = ReductionConfig(K=6, phi=HALF)
        ppi = round_to_integral(build_instance_profile(inst, cfg), cfg.K)
        tally = gadgets._expected_tally(ppi)
        n, N = tally.n, tally.matrix
        assert n == ppi.total_weight and tally.is_integral and tally.vote is None
        off = ~np.eye(m, dtype=bool)
        assert ((N + N.T)[off] == n).all() and (np.diag(N) == 0).all()
        assert (tally.position_sums == N.sum(axis=0)).all()
        # float margins round to the same tally as exact ones, half to even
        exact = expected_wmg(ppi).matrix
        assert exact.dtype == object
        for a in range(m):
            for b in range(a + 1, m):
                assert N[a, b] == round((n + exact[a, b]) / 2)


# (answer, finished, back_edges, n, op_count) of three seeded trials,
# recorded while each budget came from the median of five extra sampled
# elections; budgets from the expected tally leave every one as it is
PINNED_TRIALS = {
    ("eulerian", 4, "0.5"): [
        ("YES", 1, 1, 4083, 94), ("YES", 1, 1, 4083, 93), ("YES", 1, 1, 4083, 98)],
    ("tournament", 4, "0.5"): [
        ("NO", 1, 4, 4083, 92), ("NO", 1, 1, 4083, 93), ("NO", 1, 3, 4083, 100)],
    ("eulerian", 5, "0.5"): [
        ("YES", 1, 1, 15600, 264), ("YES", 1, 1, 15600, 269), ("YES", 1, 1, 15600, 258)],
    ("tournament", 5, "0.5"): [
        ("NO", 1, 3, 15561, 260), ("NO", 1, 3, 15561, 266), ("NO", 1, 4, 15561, 257)],
    ("eulerian", 6, "0.5"): [
        ("YES", 1, 2, 46008, 704), ("YES", 1, 2, 46008, 713), ("YES", 1, 2, 46008, 717)],
    ("tournament", 6, "0.5"): [
        ("NO", 1, 8, 46340, 707), ("NO", 1, 7, 46340, 719), ("NO", 1, 4, 46340, 712)],
    ("eulerian", 4, "1/2"): [
        ("YES", 1, 1, 4083, 94), ("YES", 1, 1, 4083, 93), ("YES", 1, 1, 4083, 98)],
    ("tournament", 4, "1/2"): [
        ("NO", 1, 4, 4083, 92), ("NO", 1, 1, 4083, 93), ("NO", 1, 3, 4083, 100)],
    ("eulerian", 5, "1/2"): [
        ("YES", 1, 1, 15600, 264), ("YES", 1, 1, 15600, 269), ("YES", 1, 1, 15600, 258)],
    ("tournament", 5, "1/2"): [
        ("NO", 1, 3, 15561, 260), ("NO", 1, 3, 15561, 266), ("NO", 1, 4, 15561, 257)],
    ("eulerian", 6, "1/2"): [
        ("YES", 1, 2, 46656, 704), ("NO", 1, 3, 46656, 707), ("YES", 1, 2, 46656, 712)],
    ("tournament", 6, "1/2"): [
        ("NO", 1, 8, 46341, 707), ("NO", 1, 8, 46341, 719), ("NO", 1, 4, 46341, 712)],
}


@pytest.mark.parametrize("m", [4, 5, 6])
@pytest.mark.parametrize("phi", ["0.5", "1/2"])
def test_reduction_trial_outcomes_are_pinned(m, phi):
    cfg = ReductionConfig(K=6, phi=0.5 if phi == "0.5" else HALF)
    for inst in _gadget_instances(m):
        _, rows = reduction_trials(inst, cfg, trials=3, master_seed=21)
        got = [(r["answer"], r["finished"], r["back_edges"], r["n"], r["op_count"]) for r in rows]
        assert got == PINNED_TRIALS[inst.kind, m, phi]


def test_reduction_trial_depends_only_on_its_rng():
    # a trial gives the same outcome cold and after other trials and instances
    inst = FasInstance(TRIANGLE, 1, "eulerian")
    cfg = ReductionConfig(K=6)
    pp = build_instance_profile(inst, cfg)
    other = FasInstance(TRIANGLE, 1, "tournament")
    other_pp = build_instance_profile(other, cfg)

    def outcome(i):
        out = run_reduction(inst, cfg, np.random.default_rng([59, i]), prebuilt=pp)
        return out.answer, out.back_edges, out.op_count

    cold = []
    for i in range(3):
        gadgets._instance_plan.cache_clear()
        cold.append(outcome(i))
    warm = []
    for i in range(3):
        run_reduction(other, cfg, np.random.default_rng([60, i]), prebuilt=other_pp)
        warm.append(outcome(i))
    assert [outcome(i) for i in range(3)] == cold == warm


def test_reduction_trial_rng_feeds_one_sample():
    inst = FasInstance(TRIANGLE, 1, "eulerian")
    cfg = ReductionConfig(K=6)
    pp = build_instance_profile(inst, cfg)
    rng = np.random.default_rng([61, 0])
    fresh = np.random.default_rng([61, 0])
    run_reduction(inst, cfg, rng, prebuilt=pp)
    sample_profile(round_to_integral(pp, cfg.K), fresh)
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_reduction_plan_cache_keys():
    # the plan is keyed on the gadget profile, the instance kind and the config
    plan = gadgets._instance_plan
    cfg = ReductionConfig(K=4)
    eul = FasInstance(TRIANGLE, 1, "eulerian")
    pp = build_instance_profile(eul, cfg)
    variants = [
        (eul, cfg),
        (eul, ReductionConfig(K=5)),
        (FasInstance(TRIANGLE, 1, "tournament"), cfg),
        (eul, ReductionConfig(K=4, solver="brute")),
    ]
    plan.cache_clear()
    for i, (inst, rcfg) in enumerate(variants):
        run_reduction(inst, rcfg, np.random.default_rng([62, i]), prebuilt=pp)
        assert plan.cache_info().misses == i + 1
    # same profile, kind and config, other t: the plan is reused
    run_reduction(FasInstance(TRIANGLE, 2, "eulerian"), variants[-1][1],
                  np.random.default_rng([62, 9]), prebuilt=pp)
    assert plan.cache_info().hits == 1
    # an equal but rebuilt profile is another profile
    run_reduction(eul, variants[-1][1], np.random.default_rng([62, 10]),
                  prebuilt=build_instance_profile(eul, cfg))
    assert plan.cache_info().misses == len(variants) + 1


def test_instance_validation():
    with pytest.raises(ValueError):
        FasInstance(Digraph.from_edges(3, [(0, 1)]), 0, "eulerian")
    with pytest.raises(ValueError):
        FasInstance(TRIANGLE, -1, "eulerian")
    with pytest.raises(ValueError):
        FasInstance(TRIANGLE, 0, "other")
    with pytest.raises(ValueError):
        FasInstance(Digraph.from_edges(3, [(0, 1), (1, 0), (0, 2), (2, 1)]), 0, "tournament")


def test_fas_file_round_trip(tmp_path):
    inst = FasInstance(TRIANGLE, 1, "eulerian")
    text = format_fas(inst)
    back = parse_fas(text)
    assert back == inst
    # m header optional: inferred from edges
    assert parse_fas("kind=eulerian\nt=1\n0 -> 1\n1 -> 2\n2 -> 0\n") == inst


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("kind=eulerian\nt=x\n0 -> 1\n", 2),  # non-integer t=
        ("kind=eulerian\nt=1\nm=three\n", 3),  # non-integer m=
        ("kind=eulerian\nt=1\n\n0 -> 1 -> 2\n", 4),  # chained arrow
        ("# header\nkind=eulerian\nt=1\n0 -> b\n", 4),  # non-integer endpoint
        ("kind=eulerian\nt=1\n0 1\n", 3),  # no arrow
    ],
)
def test_parse_fas_errors_name_the_line(text, lineno):
    raw = text.splitlines()[lineno - 1]
    with pytest.raises(ValueError) as info:
        parse_fas(text)
    msg = str(info.value)
    assert f"line {lineno}" in msg
    assert repr(raw) in msg


def _random_digraph(rng, m, tournament):
    edges = []
    for a in range(m):
        for b in range(a + 1, m):
            if tournament:
                edges.append((a, b) if rng.random() < 0.5 else (b, a))
            else:
                edges += [e for e in ((a, b), (b, a)) if rng.random() < 0.35]
    return Digraph.from_edges(m, edges)


@pytest.mark.parametrize("tournament", [False, True])
def test_fas_optimum_matches_enumeration(tournament):
    rng = np.random.default_rng(57 + tournament)
    for m in range(3, 8):
        for _ in range(4 if m < 7 else 2):
            g = _random_digraph(rng, m, tournament)
            assert fas_optimum(g) == min(kt_to_digraph(r, g) for r in all_rankings(m))


def test_full_scale_exponent():
    from votelab.gadgets import full_scale_exponent

    assert full_scale_exponent(0) == 11
    assert full_scale_exponent(2) == 15
    with pytest.raises(ValueError):
        full_scale_exponent(-1)
