"""Permutation-orbit gadgets and the feedback-arc-set reduction driver.

The constructions here turn a single witness parameter into parameter
profiles with surgically controlled expected majority graphs:

* a triangle orbit averages a parameter over rotations of {a1, a2, a3}
  and of the remaining block, leaving a pure 3-cycle plus a uniform
  block-crossing margin;
* a co-cycle orbit averages over rotations and a reflection of the
  non-center alternatives, leaving a pure out-star;
* combining the two cancels the crossing margins and realizes an exact
  unit 3-cycle, which fans out to arbitrary Eulerian graphs and, with the
  single-edge gadget, to arbitrary tournaments.

Scaled profiles are rounded to integral copy counts, sampled, and handed
to a budgeted solver; the decision procedure answers YES only when the
solver finishes and its ranking certifies the edge-removal budget, so NO
instances can never be answered YES.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import (
    Digraph,
    Permutation,
    Ranking,
    Tally,
    Weight,
    WeightedMajorityGraph,
    kt_to_digraph,
)
from .graph_algebra import (
    cycle_to_triangles,
    edge_gadget_graphs,
    edge_gadget_wmg_sum,
    eulerian_cycle_decomposition,
    three_cycle,
)
from .models import (
    MallowsParam,
    ModelParam,
    ParameterProfile,
    PlackettLuceParam,
    _as_profile,
    expected_wmg,
    mallows_pairwise,
    sample_tally,
)
from .solvers import TimedOut, _adjacency, _full_lattice, get_solver, slater_brute, solve_with_budget

__all__ = [
    "FasInstance",
    "WitnessReport",
    "ReductionConfig",
    "ReductionOutcome",
    "CheckResult",
    "triangle_orbit",
    "cocycle_orbit",
    "orbit_3cycle",
    "orbit_cocycle",
    "triangle_margin_sum",
    "block_cross_sum",
    "center_margin_sum",
    "build_instance_profile",
    "build_triangle_profile",
    "build_eulerian_profile",
    "build_tournament_profile",
    "round_to_integral",
    "run_reduction",
    "full_scale_exponent",
    "fas_optimum",
    "mallows_witness",
    "pl_witness",
    "verify_witness",
    "check_gadget_identities",
]


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FasInstance:
    """A directed graph plus an edge-removal budget t.

    ``kind`` selects the pipeline: 'eulerian' instances go through the
    Kemeny route (and must have in-degree = out-degree everywhere),
    'tournament' instances through the Slater route (exactly one arc per
    pair).
    """

    graph: Digraph
    t: int
    kind: str

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        if self.kind not in ("eulerian", "tournament"):
            raise ValueError("kind must be 'eulerian' or 'tournament'")
        if self.kind == "eulerian" and not self.graph.is_eulerian():
            raise ValueError("graph is not Eulerian")
        if self.kind == "tournament" and not self.graph.is_tournament():
            raise ValueError("graph is not a tournament")


def fas_optimum(g: Digraph) -> int:
    """Minimum back-edge count over all rankings (full placed-set lattice, m <= 20)."""
    return _full_lattice(g.m, lambda: _adjacency(g), None)[1]


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def triangle_orbit(m: int) -> list[Permutation]:
    """Permutation multiset averaging a parameter into a pure 3-cycle.

    For m >= 4 these are the 6(m-3) maps composing a rotation of
    {a1, a2, a3} with a dihedral element of the remaining block: each
    block rotation taken once as-is and once composed with the block
    reversal.  Rotations preserve the cyclic index difference of a block
    pair while the reflected copies negate it, so block-internal margins
    cancel by antisymmetry for every parameter (backward rotation powers
    alone would re-cover the same coset and leave a residue once the
    block has three or more alternatives).  Each block element is hit
    twice per triangle rotation, giving crossing margins of twice the
    witness's block-crossing sum; the triangle edges collect the margin
    sum once per orbit element.  At m = 3 the block is empty and the
    three triangle rotations alone do the job.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    s1 = Permutation.cycle([0, 1, 2], m)
    if m == 3:
        return [s1**i for i in (1, 2, 3)]
    others = list(range(3, m))
    rot = Permutation.cycle(others, m)
    refl = Permutation.sending(others, others[::-1], m)
    orbit = []
    for i in (1, 2, 3):
        for t in range(1, m - 2):
            orbit.append((s1**i).compose(rot**t))
            orbit.append((s1**i).compose((rot**t).compose(refl)))
    return orbit


def cocycle_orbit(a: int, m: int) -> list[Permutation]:
    """The 2(m-1) maps averaging a parameter into an out-star centered at a.

    Powers of the rotation of the non-center alternatives (in increasing
    index order), each also composed with the reflection reversing that
    rotation; the reflected copies cancel every margin not incident to a.
    """
    if not 0 <= a < m:
        raise ValueError("center out of range")
    if m < 3:
        raise ValueError("need m >= 3")
    others = [x for x in range(m) if x != a]
    rot = Permutation.cycle(others, m)
    refl = Permutation.sending(others, others[::-1], m)
    orbit = []
    for i in range(1, m):
        orbit.append(rot**i)
        orbit.append((rot**i).compose(refl))
    return orbit


def _apply_orbit(orbit: Sequence[Permutation], x: ParameterProfile) -> ParameterProfile:
    images = [x.permuted(sigma) for sigma in orbit]
    return images[0].union(*images[1:])


def orbit_3cycle(theta: ModelParam) -> ParameterProfile:
    """Triangle-orbit image of a parameter.

    The expected majority graph carries the triangle a1 -> a2 -> a3 -> a1
    with equal edge weights, equal crossing margins from {a1, a2, a3} to
    the rest, and zero margins inside the rest.
    """
    return _apply_orbit(triangle_orbit(theta.m), _as_profile(theta))


def orbit_cocycle(a: int, x: ModelParam | ParameterProfile) -> ParameterProfile:
    """Co-cycle-orbit image of a parameter or parameter profile.

    The expected majority graph is an out-star at a whose common edge
    weight is twice the total margin of a over everything else under x.
    """
    prof = _as_profile(x)
    return _apply_orbit(cocycle_orbit(a, prof.m), prof)


# ---------------------------------------------------------------------------
# margin functionals of a witness
# ---------------------------------------------------------------------------


def triangle_margin_sum(w: WeightedMajorityGraph) -> Weight:
    """Margin sum around a1 -> a2 -> a3 -> a1 (dot with the unit triangle)."""
    return w.matrix[0, 1] + w.matrix[1, 2] + w.matrix[2, 0]


def block_cross_sum(w: WeightedMajorityGraph) -> Weight:
    """Twice the total margin from {a1, a2, a3} to the remaining block."""
    total = w.matrix[0, 0] * 0
    for d1 in range(3):
        for d2 in range(3, w.m):
            total = total + w.matrix[d1, d2]
    return 2 * total


def center_margin_sum(w: WeightedMajorityGraph, a: int = 0) -> Weight:
    """Total margin of a over everything else (dot with the unit out-star)."""
    return sum(w.matrix[a, b] for b in range(w.m) if b != a)


# ---------------------------------------------------------------------------
# gadget profiles
# ---------------------------------------------------------------------------


def build_triangle_profile(theta: ModelParam, tol: float = 1e-12) -> ParameterProfile:
    """Parameter profile whose expected majority graph is the unit triangle
    a1 -> a2 -> a3 -> a1, exactly.

    Scales the triangle orbit by its own triangle edge weight, then, when
    the crossing margin is nonzero, adds per-outside-alternative co-cycle
    orbits (the co-cycle orbit of the triangle orbit, re-centered by a
    transposition) scaled so the crossing margins cancel.
    """
    m = theta.m
    if m < 3:
        raise ValueError("need m >= 3")
    w = expected_wmg(theta)
    alpha = triangle_margin_sum(w)
    if not alpha > tol:
        raise ValueError(f"triangle margin sum {alpha} is not positive")
    q = orbit_3cycle(theta)
    edge_weight = alpha if m == 3 else 2 * (m - 3) * alpha
    one = Fraction(1) if isinstance(alpha, (Fraction, int)) else 1.0
    profile = q.scale(one / edge_weight)
    if m == 3:
        return profile
    beta = block_cross_sum(w)
    if (isinstance(beta, (Fraction, int)) and beta == 0) or (
        not isinstance(beta, (Fraction, int)) and abs(beta) <= tol
    ):
        return profile
    correction_scale = one / (4 * (m - 3) ** 2 * alpha)
    star = orbit_cocycle(0, q)
    parts = [profile]
    for d in range(3, m):
        swap = Permutation.transposition(0, d, m)
        parts.append(star.permuted(swap).scale(correction_scale))
    return parts[0].union(*parts[1:])


def build_eulerian_profile(g: Digraph, theta: ModelParam) -> ParameterProfile:
    """Parameter profile whose expected majority graph equals the Eulerian
    graph g with unit edge weights, exactly.

    Decomposes g into simple cycles, fans each cycle into triangles, and
    maps a relabeled unit-triangle profile onto every triangle.
    """
    if g.m != theta.m:
        raise ValueError("mismatched m")
    if not g.edges:
        raise ValueError("graph has no edges")
    base = build_triangle_profile(theta)
    triangles: list[tuple[int, int, int]] = []
    for cyc in eulerian_cycle_decomposition(g):
        triangles.extend(cycle_to_triangles(cyc))
    parts = []
    for x, y, z in triangles:
        sigma = Permutation.sending([0, 1, 2], [x, y, z], g.m)
        parts.append(base.permuted(sigma))
    return parts[0].union(*parts[1:])


def build_tournament_profile(
    g: Digraph, theta_3c: ModelParam, theta_co: ModelParam, tol: float = 1e-12
) -> ParameterProfile:
    """Parameter profile whose expected majority graph is m times the
    tournament g (weight m on every tournament arc), exactly.

    Realizes every arc through the single-edge gadget: its triangles come
    from relabeled unit-triangle profiles, its co-cycles from re-centered
    co-cycle orbits of the star witness scaled to unit weight.
    """
    m = g.m
    if theta_3c.m != m or theta_co.m != m:
        raise ValueError("mismatched m")
    if not g.is_tournament():
        raise ValueError("graph is not a tournament")
    w_co = expected_wmg(theta_co)
    gamma = center_margin_sum(w_co, 0)
    if not gamma > tol:
        raise ValueError(f"center margin sum {gamma} is not positive")
    one = Fraction(1) if isinstance(gamma, (Fraction, int)) else 1.0
    base_tri = build_triangle_profile(theta_3c, tol=tol)
    base_star = orbit_cocycle(0, theta_co).scale(one / (2 * gamma))
    parts = []
    for b, c in sorted(g.edges):
        triangles, centers = edge_gadget_graphs(b, c, m)
        for x, y, z in triangles:
            parts.append(base_tri.permuted(Permutation.sending([0, 1, 2], [x, y, z], m)))
        for a in centers:
            parts.append(base_star.permuted(Permutation.sending([0], [a], m)))
    return parts[0].union(*parts[1:])


def round_to_integral(
    pp: ParameterProfile, K: int, max_n: int = 1_000_000
) -> ParameterProfile:
    """Scale every type weight by m^K / total weight and floor to integers.

    The result has total weight m^K minus at most one unit per type, and
    its expected majority graph deviates from the scaled original by at
    most the type count on every edge.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    total = pp.total_weight
    if not total > 0:
        raise ValueError("cannot round an empty parameter profile")
    target = pp.m**K
    if target > max_n:
        raise ValueError(f"m^K = {target} exceeds the configured cap {max_n}")
    # the total is a Fraction or an int exactly when every weight is
    exact = isinstance(total, (Fraction, int))
    factor = Fraction(target) / Fraction(total) if exact else target / float(total)
    return pp.with_weights([math.floor(w * factor) for w in pp.weights.tolist()])


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def mallows_witness(m: int, phi) -> MallowsParam:
    """Ladder-central Mallows parameter a1 > a2 > ... > am at dispersion phi."""
    return MallowsParam(Ranking(tuple(range(m))), phi)


def pl_witness(m: int, lo=Fraction(1, 10), hi=Fraction(2, 10)) -> PlackettLuceParam:
    """Utilities (hi, (lo+hi)/2, lo, ..., lo), normalized.

    The leading three utilities are strictly decreasing, so the triangle
    margin sum is positive; the head exceeds everything else, so the
    out-star margin at a1 is positive too.
    """
    if not 0 < lo < hi <= 1:
        raise ValueError("need 0 < lo < hi <= 1")
    mid = (lo + hi) / 2
    utilities = [hi, mid] + [lo] * (m - 2)
    return PlackettLuceParam.from_utilities(utilities)


@dataclass(frozen=True)
class WitnessReport:
    """Margin-form witness quantities and their scaling across m.

    alpha is the triangle margin sum, gamma the out-star margin sum at a1,
    beta the block-crossing sum, all at the largest tested m.  k and
    k_star are fitted decay exponents over the tested m range (0 means the
    quantity stays bounded away from zero), with floors A, B such that
    alpha > A / m^k and gamma > B / m^k_star on every tested m.
    alpha_prob_form is the probability-weighted triangle sum
    2 Pr(a1 > a2) - Pr(a1 > a3), reported for reference alongside the
    margin form; the two differ but are positive together.
    """

    family: str
    m: int
    alpha: float
    beta: float
    gamma: float
    k: int
    k_star: int
    A: float
    B: float
    ok_3cycle: bool
    ok_cocycle: bool
    alpha_prob_form: Optional[float] = None
    alphas_by_m: tuple[tuple[int, float], ...] = ()
    gammas_by_m: tuple[tuple[int, float], ...] = ()


def _witness_param(family: str, m: int, phi, theta_lo, theta_hi) -> ModelParam:
    if family == "mallows":
        return mallows_witness(m, phi)
    if family == "pl":
        return pl_witness(m, theta_lo, theta_hi)
    raise ValueError(f"unknown model family {family!r}")


def _fit_decay_exponent(ms: Sequence[int], values: Sequence[float]) -> int:
    logs_m = np.log(np.asarray(ms, dtype=float))
    logs_v = np.log(np.asarray(values, dtype=float))
    slope = np.polyfit(logs_m, logs_v, 1)[0]
    return max(0, int(round(-slope)))


def verify_witness(
    family: str = "mallows",
    phi=0.5,
    theta_lo=Fraction(1, 10),
    theta_hi=Fraction(2, 10),
    m_range: Sequence[int] = tuple(range(3, 9)),
) -> WitnessReport:
    """Evaluate the witness margins across a range of m and fit their decay.

    Both functionals are computed on the closed-form expected majority
    graph (margin form).  The report's floors make the tested scaling
    statements directly checkable: alpha > A/m^k and gamma > B/m^k_star
    hold at every tested m.
    """
    ms = sorted(m_range)
    alphas, gammas = [], []
    for m in ms:
        param = _witness_param(family, m, phi, theta_lo, theta_hi)
        w = expected_wmg(param)
        alphas.append(float(triangle_margin_sum(w)))
        gammas.append(float(center_margin_sum(w, 0)))
    ok_3c = all(a > 0 for a in alphas)
    ok_co = all(g > 0 for g in gammas)
    k = _fit_decay_exponent(ms, alphas) if ok_3c else 0
    k_star = _fit_decay_exponent(ms, gammas) if ok_co else 0
    floor_a = 0.999 * min(a * m**k for a, m in zip(alphas, ms)) if ok_3c else 0.0
    floor_b = 0.999 * min(g * m**k_star for g, m in zip(gammas, ms)) if ok_co else 0.0
    prob_form = None
    if family == "mallows":
        prob_form = float(2 * mallows_pairwise(phi, 1) - mallows_pairwise(phi, 2))
    return WitnessReport(
        family=family,
        m=ms[-1],
        alpha=alphas[-1],
        beta=float(block_cross_sum(w)),
        gamma=gammas[-1],
        k=k,
        k_star=k_star,
        A=floor_a,
        B=floor_b,
        ok_3cycle=ok_3c,
        ok_cocycle=ok_co,
        alpha_prob_form=prob_form,
        alphas_by_m=tuple(zip(ms, alphas)),
        gammas_by_m=tuple(zip(ms, gammas)),
    )


# ---------------------------------------------------------------------------
# reduction driver
# ---------------------------------------------------------------------------


def full_scale_exponent(k: int) -> int:
    """Electorate exponent 11 + 2k at which the concentration error is
    asymptotically negligible against the per-edge score separation.

    k is the witness's fitted decay exponent (0 for the stock witnesses).
    Desk-scale runs use smaller K under the electorate cap; the YES-side
    success probability degrades gracefully, soundness never does.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return 11 + 2 * k


#: a trial's solve budget, in multiples of the op count of its expected tally
BUDGET_MULTIPLIER = 3


@dataclass(frozen=True)
class ReductionConfig:
    """Settings of one reduction run.

    K scales the sampled electorate to m^K voters (before rounding loss);
    ``full_scale_exponent`` gives the asymptotically sufficient choice,
    desk-scale runs pick K so m^K stays under ``max_n``.  ``solver`` names
    the Kemeny solver of the Eulerian route (tournaments always use
    ``slater_brute``), and the gadgets are built from the Mallows witness
    at dispersion ``phi``.
    """

    K: int
    solver: str = "dp"
    phi: float = 0.5
    max_n: int = 1_000_000

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")


@dataclass(frozen=True)
class ReductionOutcome:
    """One decision of the randomized reduction, with its evidence."""

    answer: str  # "YES" | "NO"
    finished: bool
    back_edges: Optional[int]
    n: int
    solver: str
    elapsed: float
    op_count: int
    budget: int  # the instance's, in ops: BUDGET_MULTIPLIER times its expected tally's ops


def build_instance_profile(inst: FasInstance, cfg: ReductionConfig) -> ParameterProfile:
    """Gadget profile for an instance, before rounding."""
    theta_3c = mallows_witness(inst.graph.m, cfg.phi)
    if inst.kind == "eulerian":
        return build_eulerian_profile(inst.graph, theta_3c)
    theta_co = theta_3c
    return build_tournament_profile(inst.graph, theta_3c, theta_co)


def _solver_for(kind: str, cfg: ReductionConfig):
    """(solver, label): Slater for tournaments, ``cfg.solver`` otherwise."""
    if kind == "tournament":
        return slater_brute, "slater-brute"
    return get_solver(cfg.solver), cfg.solver


def _expected_tally(ppi: ParameterProfile) -> Tally:
    """The tally of an integral profile's expected election, without a vote.

    N[a, b] = (n + margin[a, b]) / 2 rounded half to even for a < b, and
    N[b, a] = n - N[a, b]; a voter places a at the number of alternatives
    it ranks above a, so the position sums are N's column sums.  Margins
    are read in float64: exact ones cost more than the solve they budget.
    """
    n = int(ppi.total_weight)
    floats = replace(ppi, phis=tuple(map(float, ppi.phis)))
    margin = expected_wmg(floats).matrix.astype(np.float64)
    upper = np.triu(np.rint((n + margin) / 2).astype(np.int64), k=1)
    n_tally = upper + np.tril(n - upper.T, k=-1)
    return Tally(ppi.m, n, n_tally, n_tally.sum(axis=0), None)


@lru_cache(maxsize=1)
def _instance_plan(
    pp: ParameterProfile, kind: str, cfg: ReductionConfig
) -> tuple[ParameterProfile, int]:
    """The rounded profile and the solve budget in ops shared by an
    instance's trials.

    The budget is ``BUDGET_MULTIPLIER`` times the op count of one solve of
    the rounded profile's expected tally, which draws nothing, so a
    trial's outcome depends only on (instance, cfg, trial rng).
    ParameterProfile is immutable and hashes by identity, so trials on one
    prebuilt profile round it and set its budget once.
    """
    ppi = round_to_integral(pp, cfg.K, cfg.max_n)
    solver, _ = _solver_for(kind, cfg)
    return ppi, BUDGET_MULTIPLIER * solver(_expected_tally(ppi)).op_count


def run_reduction(
    inst: FasInstance,
    cfg: ReductionConfig,
    rng: np.random.Generator,
    prebuilt: Optional[ParameterProfile] = None,
) -> ReductionOutcome:
    """One randomized decision of the feedback-arc-set instance.

    Builds the gadget profile, rounds it to m^K voters, samples the tally
    of one election from ``rng``, solves Kemeny (Eulerian kind) or Slater
    (tournament kind) under a budget of ``BUDGET_MULTIPLIER`` times the
    op count of a solve of the rounded profile's expected tally (see
    ``_expected_tally``), and answers YES only
    when the solve finishes within that budget and its ranking breaks at
    most t edges of the instance graph.  The answer check is against the
    instance graph itself, so a NO instance can never be certified YES.
    The budget counts ops, not seconds, so the answer depends only on
    (instance, cfg, rng), never on machine load.

    ``prebuilt`` lets callers reuse the (deterministic) gadget profile
    across repeated trials; the rounding and the expected-tally solve that
    set the budget then run once for that profile, and each further trial
    samples and solves a single election.
    """
    g = inst.graph
    solver, solver_name = _solver_for(inst.kind, cfg)
    if not g.edges:
        # empty graph is acyclic; every ranking certifies t >= 0
        return ReductionOutcome("YES", True, 0, 0, solver_name, 0.0, 0, 0)
    pp = prebuilt if prebuilt is not None else build_instance_profile(inst, cfg)
    ppi, budget = _instance_plan(pp, inst.kind, cfg)

    tally = sample_tally(ppi, rng)
    n = tally.n
    start = time.perf_counter()
    res = solve_with_budget(solver, tally, budget)
    elapsed = time.perf_counter() - start
    if isinstance(res, TimedOut):
        return ReductionOutcome("NO", False, None, n, solver_name, elapsed, 0, budget)
    back = kt_to_digraph(res.ranking, g)
    answer = "YES" if back <= inst.t else "NO"
    return ReductionOutcome(answer, True, back, n, solver_name, res.elapsed, res.op_count, budget)


# ---------------------------------------------------------------------------
# identity checks (used by the command-line verifier and the test suite)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _wmg_equal(a: WeightedMajorityGraph, b: WeightedMajorityGraph, exact: bool, tol: float) -> bool:
    return a.equals(b) if exact else a.allclose(b, tol)


def check_gadget_identities(
    m: int,
    theta: ModelParam,
    theta_co: Optional[ModelParam] = None,
    tol: float = 1e-9,
) -> list[CheckResult]:
    """Verify every structural identity of the orbit gadgets for one witness.

    Uses exact comparison when the witness has rational parameters, a
    tolerance otherwise.  Covers: triangle-orbit edge structure, co-cycle
    orbit structure (both on the raw witness and on the triangle orbit),
    the unit-triangle profile, and the single-edge gadget sum.
    """
    if theta.m != m:
        raise ValueError("mismatched m")
    theta_co = theta_co if theta_co is not None else theta
    w = expected_wmg(theta)
    exact = w.is_exact and expected_wmg(theta_co).is_exact
    results = []
    alpha = triangle_margin_sum(w)
    beta = block_cross_sum(w) if m > 3 else 0

    def add(name: str, passed: bool, detail: str = "") -> None:
        results.append(CheckResult(name, bool(passed), detail))

    # triangle orbit: edge weights, crossing margins, silent block
    q = orbit_3cycle(theta)
    wq = expected_wmg(q)
    edge_target = alpha if m == 3 else 2 * (m - 3) * alpha
    tri_ok = all(
        _close(wq.matrix[a, b], edge_target, exact, tol)
        for a, b in ((0, 1), (1, 2), (2, 0))
    )
    add("triangle-orbit-edges", tri_ok, f"target {edge_target}")
    if m > 3:
        cross_ok = all(
            _close(wq.matrix[d1, d2], beta, exact, tol)
            for d1 in range(3)
            for d2 in range(3, m)
        )
        add("triangle-orbit-crossings", cross_ok, f"target {beta}")
        block_ok = all(
            _close(wq.matrix[d1, d2], 0, exact, tol)
            for d1 in range(3, m)
            for d2 in range(3, m)
            if d1 != d2
        )
        add("triangle-orbit-block-zero", block_ok)

    # co-cycle orbit on the raw witness
    star = orbit_cocycle(0, theta_co)
    ws = expected_wmg(star)
    gamma = center_margin_sum(expected_wmg(theta_co), 0)
    star_ok = all(_close(ws.matrix[0, b], 2 * gamma, exact, tol) for b in range(1, m)) and all(
        _close(ws.matrix[a, b], 0, exact, tol)
        for a in range(1, m)
        for b in range(1, m)
        if a != b
    )
    add("cocycle-orbit-star", star_ok, f"edge target {2 * gamma}")
    add("cocycle-orbit-size", star.total_weight == 2 * (m - 1) * 1, f"|orbit| {star.total_weight}")

    # co-cycle orbit of the triangle orbit: crossing margins amplified
    if m > 3:
        star_q = orbit_cocycle(0, q)
        wsq = expected_wmg(star_q)
        target = 2 * (m - 3) * beta
        amp_ok = all(_close(wsq.matrix[0, b], target, exact, tol) for b in range(1, m))
        add("cocycle-orbit-of-triangle-orbit", amp_ok, f"edge target {target}")

    # unit triangle profile
    unit = build_triangle_profile(theta)
    target_graph = three_cycle(0, 1, 2, m, exact=exact)
    add(
        "unit-triangle-profile",
        _wmg_equal(expected_wmg(unit), target_graph, exact, tol),
        f"{unit.type_count} types, total weight {float(unit.total_weight):.3f}",
    )

    # single-edge gadget: m-2 triangles + m out-stars sum to an m-weight edge
    target_edge = WeightedMajorityGraph.from_edges(
        m, [(1, 0, Fraction(m) if exact else float(m))], exact=exact
    )
    add(
        "edge-gadget-sum",
        _wmg_equal(edge_gadget_wmg_sum(1, 0, m, exact=exact), target_edge, exact, tol),
        f"m-2={m - 2} triangles, m={m} out-stars",
    )
    return results


def _close(x, target, exact: bool, tol: float) -> bool:
    return x == target if exact else abs(x - target) <= tol

