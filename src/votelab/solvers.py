"""Exact winner determination for Kemeny and Slater.

Two routes to the Kemeny optimum: full enumeration over the m! rankings,
and a position-window dynamic program whose state count is governed by
the ceiling d of the profile's average pairwise KT distance.  That average
comes from the pairwise tally N: the KT distances over ordered voter pairs
sum to the sum over a < b of 2 N[a, b] N[b, a], so d takes O(m^2) exact
integer work on top of the tally and no (k, k) distance matrix over the k
distinct votes.  Both routes break score ties by the lexicographically
smallest order sequence, so results are reproducible and directly
comparable.

The window is provably safe: in any optimal ranking the position of a
candidate differs from its average vote position by less than the average
KT distance (a candidate moves at most one position per adjacent swap, and
the optimal total score is at most (n-1) times the average distance), so
restricting each position to candidates within d of their average position
never excludes an optimum.  The randomized test suite still cross-checks
the DP against enumeration on every instance it generates.

Deadline handling is cooperative: solvers poll a monotonic deadline every
fixed number of iterations and abandon the solve by raising internally;
``solve_with_budget`` converts that into a ``TimedOut`` value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice, permutations
from typing import Callable, Optional

import numpy as np

from .core import Profile, Ranking, Weight, _kt_pair_total, kemeny_score, pairwise_tally, umg

__all__ = [
    "DpDiagnostics",
    "SolveResult",
    "TimedOut",
    "DeadlineExceeded",
    "kemeny_brute",
    "kemeny_dp",
    "slater_brute",
    "solve_with_budget",
    "get_solver",
    "result_record",
]

#: iterations between deadline polls
_POLL_EVERY = 1024

#: default cap on alternatives for full enumeration
BRUTE_M_CAP = 10

#: default cap on stored DP states before falling back to enumeration
DP_STATE_CAP = 2_000_000


class DeadlineExceeded(Exception):
    """Raised inside solver loops when the cooperative deadline passes."""


@dataclass(frozen=True)
class DpDiagnostics:
    """Window-DP shape: distance parameter, window radius, stored states."""

    d: int
    window_radius: int
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
    """Budgeted solve that did not finish."""

    elapsed: float
    budget: float


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise DeadlineExceeded


def _chunked_permutations(m: int, chunk_size: int):
    it = permutations(range(m))
    while True:
        block = list(islice(it, chunk_size))
        if not block:
            return
        yield np.array(block, dtype=np.int16)


def _positions_of(perms: np.ndarray) -> np.ndarray:
    k, m = perms.shape
    pos = np.empty((k, m), dtype=np.int16)
    pos[np.arange(k)[:, None], perms] = np.arange(m, dtype=np.int16)[None, :]
    return pos


def kemeny_brute(
    profile: Profile,
    m_cap: int = BRUTE_M_CAP,
    deadline: Optional[float] = None,
    chunk_size: int = 20000,
) -> SolveResult:
    """Score all m! rankings and return the global minimum.

    Ties go to the lexicographically smallest order sequence.  op_count is
    the number of (ranking, pair) score contributions, a deterministic
    measure independent of wall clock.
    """
    m = profile.m
    if m > m_cap:
        raise ValueError(f"m={m} exceeds enumeration cap {m_cap}")
    start = time.perf_counter()
    n_tally = pairwise_tally(profile)
    pairs = m * (m - 1) // 2
    best_score = None
    best_perm = None
    ops = 0
    exact = n_tally.dtype == object
    for perms_block in _chunked_permutations(m, chunk_size):
        _check_deadline(deadline)
        k = perms_block.shape[0]
        ops += k * pairs
        pos = _positions_of(perms_block)
        if exact:
            for row_i in range(k):
                p = pos[row_i]
                score = sum(
                    n_tally[b, a] if p[a] < p[b] else n_tally[a, b]
                    for a in range(m)
                    for b in range(a + 1, m)
                )
                if best_score is None or score < best_score:
                    best_score = score
                    best_perm = tuple(int(x) for x in perms_block[row_i])
        else:
            scores = np.zeros(k, dtype=n_tally.dtype)
            for a in range(m):
                for b in range(a + 1, m):
                    scores += np.where(pos[:, a] < pos[:, b], n_tally[b, a], n_tally[a, b])
            i = int(np.argmin(scores))  # first minimum = lexicographically smallest
            if best_score is None or scores[i] < best_score:
                best_score = scores[i]
                best_perm = tuple(int(x) for x in perms_block[i])
    score = int(best_score) if isinstance(best_score, np.integer) else best_score
    return SolveResult(
        ranking=Ranking(best_perm),
        score=score,
        elapsed=time.perf_counter() - start,
        op_count=ops,
        solver="brute",
    )


def slater_brute(
    profile: Profile,
    m_cap: int = BRUTE_M_CAP,
    deadline: Optional[float] = None,
    chunk_size: int = 20000,
) -> SolveResult:
    """Minimize back-edges against the unweighted majority graph.

    Depends on the profile only through its majority-graph signs, so
    profiles with equal UMGs give identical results.
    """
    m = profile.m
    if m > m_cap:
        raise ValueError(f"m={m} exceeds enumeration cap {m_cap}")
    start = time.perf_counter()
    graph = umg(profile)
    edges = sorted(graph.edges)
    best_score = None
    best_perm = None
    ops = 0
    for perms_block in _chunked_permutations(m, chunk_size):
        _check_deadline(deadline)
        k = perms_block.shape[0]
        ops += k * max(len(edges), 1)
        pos = _positions_of(perms_block)
        scores = np.zeros(k, dtype=np.int64)
        for a, b in edges:
            scores += pos[:, b] < pos[:, a]
        i = int(np.argmin(scores))
        if best_score is None or scores[i] < best_score:
            best_score = int(scores[i])
            best_perm = tuple(int(x) for x in perms_block[i])
    return SolveResult(
        ranking=Ranking(best_perm),
        score=int(best_score),
        elapsed=time.perf_counter() - start,
        op_count=ops,
        solver="slater-brute",
    )


# ---------------------------------------------------------------------------
# window dynamic program
# ---------------------------------------------------------------------------


def kemeny_dp(
    profile: Profile,
    window_slack: float = 1.0,
    state_cap: int = DP_STATE_CAP,
    deadline: Optional[float] = None,
) -> SolveResult:
    """Exact Kemeny optimum via the average-distance position window.

    Sweeps positions 1..m appending one candidate at a time; a position may
    only host candidates whose average vote position is within the window
    radius (the distance parameter d times ``window_slack``).  States are
    placed-candidate bitmasks, values are computed bottom-up so the
    reconstruction can pick the lexicographically smallest optimal
    ranking.  Appending c with placed set S costs the tally of votes
    preferring each unplaced candidate over c.  If the stored state count
    exceeds ``state_cap`` the solve falls back to enumeration.
    """
    if not profile.is_integral:
        raise ValueError("the dynamic program requires an integral profile")
    if window_slack < 1.0:
        raise ValueError("window_slack below 1 would break exactness")
    m = profile.m
    start = time.perf_counter()
    agg = profile.aggregated()
    n = int(agg.n)
    if n == 0:
        return SolveResult(Ranking(tuple(range(m))), 0, time.perf_counter() - start, 0, "dp",
                           DpDiagnostics(0, 0, 0))
    first_vote = Ranking(tuple(int(a) for a in agg.votes[0]))
    if n == 1:
        return SolveResult(first_vote, 0, time.perf_counter() - start, 0, "dp",
                           DpDiagnostics(0, 0, 0))
    n_tally = pairwise_tally(agg).astype(np.int64)
    d = -(-_kt_pair_total(n_tally) // (n * (n - 1)))  # ceiling of the average KT distance
    if d == 0:
        return SolveResult(first_vote, 0, time.perf_counter() - start, 0, "dp",
                           DpDiagnostics(0, 0, 1))
    radius = int(np.ceil(window_slack * d))

    colsum = n_tally.sum(axis=0)

    # average positions, kept exact: pbar_num[c] = n * (1-based average position)
    w = agg.weights.astype(np.int64)
    pbar_num = (w[:, None] * (agg.positions.astype(np.int64) + 1)).sum(axis=0)

    # allowed[i]: candidates that may sit at 1-based position i
    allowed: list[list[int]] = [[] for _ in range(m + 1)]
    latest = [0] * m
    for c in range(m):
        for i in range(1, m + 1):
            if abs(pbar_num[c] - i * n) <= radius * n:
                allowed[i].append(c)
                latest[c] = i
    # candidates that must be placed by position i (inclusive)
    req_mask = [0] * (m + 2)
    for i in range(1, m + 1):
        req_mask[i] = req_mask[i - 1]
        for c in range(m):
            if latest[c] == i:
                req_mask[i] |= 1 << c
    full = (1 << m) - 1

    ops = 0
    # forward reachability, one layer of masks per depth
    layers: list[set[int]] = [set() for _ in range(m + 1)]
    layers[0].add(0)
    stored = 1
    poll = 0
    overflow = False
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
                poll += 1
                if poll >= _POLL_EVERY:
                    poll = 0
                    _check_deadline(deadline)
        if stored > state_cap:
            overflow = True
            break
    if overflow or not layers[m]:
        res = kemeny_brute(profile, m_cap=m, deadline=deadline)
        return SolveResult(res.ranking, res.score, time.perf_counter() - start,
                           ops + res.op_count, "dp-fallback-brute",
                           DpDiagnostics(d, radius, stored))

    def append_cost(mask: int, c: int) -> int:
        """Tally of votes preferring each still-unplaced candidate over c."""
        nonlocal ops
        placed_sum = 0
        rest = mask
        while rest:
            u = (rest & -rest).bit_length() - 1
            placed_sum += int(n_tally[u, c])
            rest &= rest - 1
            ops += 1
        ops += 1
        return int(colsum[c]) - placed_sum - int(n_tally[c, c])

    # backward values: cheapest completion cost from each placed set
    h_layers: list[dict[int, int]] = [dict() for _ in range(m + 1)]
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
                poll += 1
                if poll >= _POLL_EVERY:
                    poll = 0
                    _check_deadline(deadline)
            if best is not None:
                h_cur[mask] = best

    if 0 not in h_layers[0]:
        res = kemeny_brute(profile, m_cap=m, deadline=deadline)
        return SolveResult(res.ranking, res.score, time.perf_counter() - start,
                           ops + res.op_count, "dp-fallback-brute",
                           DpDiagnostics(d, radius, stored))

    # forward reconstruction, smallest candidate first at every position
    order: list[int] = []
    mask = 0
    value = h_layers[0][0]
    for i in range(1, m + 1):
        for c in sorted(allowed[i]):
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
            raise RuntimeError("window DP reconstruction failed")

    ranking = Ranking(tuple(order))
    score = h_layers[0][0]
    # loud self-check: the DP score must match a direct re-evaluation
    reeval = kemeny_score(ranking, agg)
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
        diagnostics=DpDiagnostics(d, radius, stored),
    )


# ---------------------------------------------------------------------------
# budgeted execution
# ---------------------------------------------------------------------------


def solve_with_budget(
    solver: Callable[..., SolveResult], profile: Profile, budget: float
) -> SolveResult | TimedOut:
    """Run a solver under a wall-clock budget in seconds.

    Returns the solver's result if it finishes in time, otherwise a
    ``TimedOut`` value.  Cancellation is cooperative (the solver polls the
    deadline), so overshoot is bounded by one polling interval.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    start = time.perf_counter()
    deadline = start + budget
    try:
        return solver(profile, deadline=deadline)
    except DeadlineExceeded:
        return TimedOut(elapsed=time.perf_counter() - start, budget=budget)


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
    rec = {
        "ranking": list(res.ranking.order),
        "score": res.score if not isinstance(res.score, float) else float(res.score),
        "elapsed_ms": res.elapsed * 1000.0,
        "op_count": res.op_count,
        "d": res.diagnostics.d if res.diagnostics else None,
        "window_radius": res.diagnostics.window_radius if res.diagnostics else None,
        "solver": res.solver,
    }
    if isinstance(rec["score"], np.integer):
        rec["score"] = int(rec["score"])
    return rec
