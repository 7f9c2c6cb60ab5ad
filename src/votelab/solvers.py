"""Exact winner determination for Kemeny and Slater.

One engine finds every optimum here.  Kemeny, Slater and feedback arc set
all ask for the order of the m candidates minimizing the sum of C[u, c]
over pairs with u placed after c, where C is the pairwise tally, the
majority-graph adjacency or the instance-graph adjacency.  The engine
sweeps positions 1..m over placed-candidate bitmasks: forward reachability
one popcount layer at a time, backward cheapest-completion values, then a
forward pass that takes the smallest candidate with an optimal completion
at every position, so score ties go to the lexicographically smallest
order and results are reproducible and directly comparable.

The solvers read an election only through its ``core.Tally``: the pairwise
tally N, the total weight n, the vote position sums (for the window) and
one vote (for n = 1).  They accept that tally, as ``models.sample_tally``
draws it, or a ``Profile``, which ``Tally.of`` aggregates and tallies
first, so both inputs take one solve path and give identical results.

Unrestricted, the engine walks the full lattice of 2^m placed sets
(``kemeny_brute``, ``slater_brute`` and ``gadgets.fas_optimum``).
``kemeny_dp`` restricts each position to the candidates whose average
vote position lies within d of it, where d is the ceiling of the
election's average pairwise KT distance.  That average comes from the
pairwise tally N: the KT distances over ordered voter pairs sum to the sum
over a < b of 2 N[a, b] N[b, a], so d takes O(m^2) exact integer work.
The window is provably safe: in any optimal ranking the position of a
candidate differs from its average vote position by less than the average
KT distance (a candidate moves at most one position per adjacent swap, and
the optimal total score is at most (n-1) times the average distance), so
the window never excludes an optimum.  The test suite cross-checks the
window against the full lattice and both against an enumeration oracle.

``DP_STATE_CAP`` bounds every solve: a full-lattice solve refuses m with
2^m above it before doing any work, and a windowed solve raises once its
stored states pass it.

Budgets count operations, not seconds, so whether a budgeted solve
finishes depends only on its input.  Every solver takes an ``op_cap``; the
engine compares the work done so far with it every fixed number of
transitions and abandons the solve by raising internally once it is
passed.  ``solve_with_budget`` turns that into a ``TimedOut`` value, and
returns a result only when its ``op_count`` is within the budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Digraph,
    Profile,
    Ranking,
    Tally,
    Weight,
    _kt_pair_total,
    _tally_score,
)

__all__ = [
    "DpDiagnostics",
    "SolveResult",
    "TimedOut",
    "kemeny_brute",
    "kemeny_dp",
    "slater_brute",
    "solve_with_budget",
    "get_solver",
    "result_record",
]

#: transitions between op-cap polls
_POLL_EVERY = 1024

#: cap on stored placed-set states; the full lattice fits up to m = 20
DP_STATE_CAP = 2_000_000


class _OverOpCap(Exception):
    """Raised inside the engine once its work passes the op cap."""


@dataclass(frozen=True)
class DpDiagnostics:
    """Window-DP shape: distance parameter d (also the window's radius in
    positions) and stored states."""

    d: int
    max_states: int


@dataclass(frozen=True)
class SolveResult:
    ranking: Ranking
    score: Weight
    elapsed: float
    op_count: int
    solver: str
    diagnostics: Optional[DpDiagnostics] = None


@dataclass(frozen=True)
class TimedOut:
    """Budgeted solve that did not finish within its budget of ops."""

    budget: int


# ---------------------------------------------------------------------------
# placed-set dynamic program
# ---------------------------------------------------------------------------


def _order_dp(
    cost: Sequence[Sequence[Weight]],
    allowed: Sequence[Sequence[int]],
    req_mask: Sequence[int],
    op_cap: Optional[int],
) -> tuple[list[int], Weight, int, int]:
    """Order minimizing the sum of cost[u][c] over u placed after c.

    ``cost`` is an m x m nested list of Python scalars (ints, Fractions or
    floats) with a zero diagonal.  ``allowed[i]`` lists, in ascending
    order, the candidates that may sit at 1-based position i, and
    ``req_mask[i]`` is the bitmask of candidates that must be placed by
    position i.  Appending c after the placed set S costs the sum of
    cost[u][c] over the unplaced u.  Returns the lexicographically
    smallest optimal order, its score, the op count (cost terms read plus
    one per transition evaluated) and the placed sets stored.  Raises ``ValueError`` once
    the stored sets pass ``DP_STATE_CAP``, and ``_OverOpCap`` at the first
    poll (every ``_POLL_EVERY`` transitions) that finds the work done over
    ``op_cap``: the transitions so far in the forward pass, ``ops`` in the
    backward pass.  A forward transition into a completable placed set is
    evaluated again backward for at least one op, so on the full lattice
    the forward count never exceeds the final op count.
    """
    cap = float("inf") if op_cap is None else op_cap
    m = len(cost)
    colsum = [sum(col) for col in zip(*cost)]
    full = (1 << m) - 1

    ops = 0
    # forward reachability, one layer of masks per depth
    layers: list[set[int]] = [set() for _ in range(m + 1)]
    layers[0].add(0)
    stored = 1
    transitions = 0
    for i in range(1, m + 1):
        prev, cur = layers[i - 1], layers[i]
        for mask in prev:
            for c in allowed[i]:
                bit = 1 << c
                if mask & bit:
                    continue
                new_mask = mask | bit
                if new_mask & req_mask[i] != req_mask[i]:
                    continue
                if new_mask not in cur:
                    cur.add(new_mask)
                    stored += 1
                transitions += 1
                if transitions % _POLL_EVERY == 0 and transitions > cap:
                    raise _OverOpCap
        if stored > DP_STATE_CAP:
            raise ValueError(f"placed-set DP stored {stored} states, over the cap {DP_STATE_CAP}")
    if not layers[m]:
        raise RuntimeError("placed-set DP frontier is empty")

    def append_cost(mask: int, c: int) -> Weight:
        """Cost charged by each still-unplaced candidate placed after c."""
        nonlocal ops
        placed_sum = 0
        rest = mask
        while rest:
            u = (rest & -rest).bit_length() - 1
            placed_sum += cost[u][c]
            rest &= rest - 1
            ops += 1
        ops += 1
        return colsum[c] - placed_sum - cost[c][c]

    # backward values: cheapest completion cost from each placed set
    h_layers: list[dict[int, Weight]] = [dict() for _ in range(m + 1)]
    h_layers[m] = {full: 0}
    for i in range(m, 0, -1):
        h_next = h_layers[i]
        h_cur = h_layers[i - 1]
        for mask in layers[i - 1]:
            best = None
            for c in allowed[i]:
                bit = 1 << c
                if mask & bit:
                    continue
                nxt = h_next.get(mask | bit)
                if nxt is None:
                    continue
                total = append_cost(mask, c) + nxt
                if best is None or total < best:
                    best = total
                transitions += 1
                if transitions % _POLL_EVERY == 0 and ops > cap:
                    raise _OverOpCap
            if best is not None:
                h_cur[mask] = best

    # forward reconstruction, smallest candidate first at every position
    order: list[int] = []
    mask = 0
    value = h_layers[0][0]
    for i in range(1, m + 1):
        for c in allowed[i]:
            bit = 1 << c
            if mask & bit:
                continue
            nxt = h_layers[i].get(mask | bit)
            if nxt is None:
                continue
            if append_cost(mask, c) + nxt == value:
                order.append(c)
                mask |= bit
                value = nxt
                break
        else:
            raise RuntimeError("placed-set DP reconstruction failed")
    return order, h_layers[0][0], ops, stored


def _full_lattice(
    m: int, cost_of: Callable[[], list], op_cap: Optional[int]
) -> tuple[list[int], Weight, int, int]:
    """``_order_dp`` with every candidate open at every position.

    Refuses m whose 2^m placed sets pass ``DP_STATE_CAP`` before building
    the cost matrix ``cost_of()``.
    """
    if 1 << m > DP_STATE_CAP:
        raise ValueError(f"m={m}: 2^{m} placed sets exceed the state cap {DP_STATE_CAP}")
    everyone = range(m)
    return _order_dp(cost_of(), [everyone] * (m + 1), [0] * (m + 2), op_cap)


def _adjacency(g: Digraph) -> list[list[int]]:
    """0/1 adjacency matrix of g as nested lists."""
    return [[int((u, c) in g.edges) for c in range(g.m)] for u in range(g.m)]


def kemeny_brute(election: Profile | Tally, op_cap: Optional[int] = None) -> SolveResult:
    """Exact Kemeny optimum over the full lattice of placed sets.

    Works for any weights (ints, Fractions or floats).  Ties go to the
    lexicographically smallest order sequence.  op_count is the number of
    transitions evaluated, a deterministic measure independent of wall
    clock.
    """
    start = time.perf_counter()
    order, score, ops, _ = _full_lattice(
        election.m, lambda: Tally.of(election).matrix.tolist(), op_cap
    )
    return SolveResult(Ranking(tuple(order)), score, time.perf_counter() - start, ops, "brute")


def slater_brute(election: Profile | Tally, op_cap: Optional[int] = None) -> SolveResult:
    """Minimize back-edges against the unweighted majority graph.

    Depends on the election only through its majority-graph signs, so
    elections with equal UMGs give identical results.
    """
    start = time.perf_counter()

    def majority_adjacency() -> list[list[int]]:
        n_tally = Tally.of(election).matrix
        return (n_tally > n_tally.T).astype(np.int64).tolist()

    order, score, ops, _ = _full_lattice(election.m, majority_adjacency, op_cap)
    return SolveResult(Ranking(tuple(order)), score, time.perf_counter() - start, ops,
                       "slater-brute")


def kemeny_dp(election: Profile | Tally, op_cap: Optional[int] = None) -> SolveResult:
    """Exact Kemeny optimum via the average-distance position window.

    A position may only host candidates whose average vote position is
    within the distance parameter d of it; the placed-set engine runs on
    the tally inside that window.  Raises ``ValueError`` if the stored
    states pass ``DP_STATE_CAP``.
    """
    start = time.perf_counter()
    tally = Tally.of(election)
    if not tally.is_integral:
        raise ValueError("the dynamic program requires an integral profile")
    m = tally.m
    n = tally.n
    if n == 0:
        return SolveResult(Ranking(tuple(range(m))), 0, time.perf_counter() - start, 0, "dp",
                           DpDiagnostics(0, 0))
    if n == 1:
        return SolveResult(tally.vote, 0, time.perf_counter() - start, 0, "dp",
                           DpDiagnostics(0, 0))
    n_tally = tally.matrix
    d = -(-_kt_pair_total(n_tally) // (n * (n - 1)))  # ceiling of the average KT distance
    if d == 0:
        return SolveResult(tally.vote, 0, time.perf_counter() - start, 0, "dp",
                           DpDiagnostics(0, 1))
    # average positions, kept exact: pbar_num[c] = n * (1-based average position)
    pbar_num = tally.position_sums + n

    # allowed[i]: candidates that may sit at 1-based position i
    allowed: list[list[int]] = [[] for _ in range(m + 1)]
    latest = [0] * m
    for c in range(m):
        for i in range(1, m + 1):
            if abs(pbar_num[c] - i * n) <= d * n:
                allowed[i].append(c)
                latest[c] = i
    # candidates that must be placed by position i (inclusive)
    req_mask = [0] * (m + 2)
    for i in range(1, m + 1):
        req_mask[i] = req_mask[i - 1]
        for c in range(m):
            if latest[c] == i:
                req_mask[i] |= 1 << c

    order, score, ops, stored = _order_dp(n_tally.tolist(), allowed, req_mask, op_cap)
    ranking = Ranking(tuple(order))
    # loud self-check: the DP score must match a direct re-evaluation
    reeval = _tally_score(ranking, n_tally)
    if int(reeval) != score:
        raise RuntimeError(
            f"window DP inconsistency: dp score {score} vs re-evaluated {reeval}"
        )
    return SolveResult(
        ranking=ranking,
        score=score,
        elapsed=time.perf_counter() - start,
        op_count=ops,
        solver="dp",
        diagnostics=DpDiagnostics(d, stored),
    )


# ---------------------------------------------------------------------------
# budgeted execution
# ---------------------------------------------------------------------------


def solve_with_budget(
    solver: Callable[..., SolveResult], election: Profile | Tally, budget: int
) -> SolveResult | TimedOut:
    """Run a solver under a budget of ``budget`` ops.

    Returns the solver's result only when its ``op_count`` is at most the
    budget, and a ``TimedOut`` value otherwise, so the outcome depends on
    the election alone.  The solver polls its op cap, so an abandoned solve
    runs at most one polling interval past the budget.
    """
    if not isinstance(budget, int) or budget < 0:
        raise ValueError(f"budget must be a nonnegative int count of ops, not {budget!r}")
    try:
        res = solver(election, op_cap=budget)
    except _OverOpCap:
        return TimedOut(budget)
    return res if res.op_count <= budget else TimedOut(budget)


_SOLVERS: dict[str, Callable[..., SolveResult]] = {
    "brute": kemeny_brute,
    "dp": kemeny_dp,
    "slater": slater_brute,
}


def get_solver(name: str) -> Callable[..., SolveResult]:
    try:
        return _SOLVERS[name]
    except KeyError:
        raise ValueError(f"unknown solver {name!r}; choose from {sorted(_SOLVERS)}") from None


def result_record(res: SolveResult) -> dict:
    """JSON-ready record of a solve."""
    return {
        "ranking": list(res.ranking.order),
        "score": res.score,
        "elapsed_ms": res.elapsed * 1000.0,
        "op_count": res.op_count,
        "d": res.diagnostics.d if res.diagnostics else None,
        "solver": res.solver,
    }
