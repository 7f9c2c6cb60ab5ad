"""Cycle/co-cycle vector algebra on weighted majority graphs.

A majority graph is a vector in R^(m(m-1)/2) (its upper triangle).  The
span of unit 3-cycles through a fixed alternative and the span of
co-cycles (unit out-stars) are orthogonal complements of each other; this
module provides the dot product, the closed-form orthogonal projection,
bases and reconstructions, Eulerian cycle extraction, and the
triangle-plus-co-cycle construction of a single weighted edge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import Digraph, Weight, WeightedMajorityGraph

__all__ = [
    "dot",
    "three_cycle",
    "cocycle",
    "cocycle_coefficients",
    "orthogonal_decompose",
    "cycle_basis_coeffs",
    "cycle_to_triangles",
    "eulerian_cycle_decomposition",
    "edge_gadget_graphs",
    "edge_gadget_wmg_sum",
]


def dot(g1: WeightedMajorityGraph, g2: WeightedMajorityGraph) -> Weight:
    """Dot product of the upper-triangle vectors of two majority graphs."""
    if g1.m != g2.m:
        raise ValueError("mismatched m")
    vals = g1.upper() * g2.upper()
    return sum(vals.tolist()) if vals.dtype == object else vals.sum()


def three_cycle(i: int, j: int, k: int, m: int, exact: bool = False) -> WeightedMajorityGraph:
    """Unit-weight directed triangle i -> j -> k -> i; zero elsewhere."""
    if len({i, j, k}) != 3:
        raise ValueError("three distinct alternatives required")
    one = Fraction(1) if exact else 1.0
    return WeightedMajorityGraph.from_edges(m, [(i, j, one), (j, k, one), (k, i, one)], exact=exact)


def cocycle(a: int, m: int, exact: bool = False) -> WeightedMajorityGraph:
    """Unit out-star centered at a: weight 1 on a -> b for every b != a."""
    if not 0 <= a < m:
        raise ValueError("center out of range")
    one = Fraction(1) if exact else 1.0
    return WeightedMajorityGraph.from_edges(
        m, [(a, b, one) for b in range(m) if b != a], exact=exact
    )


def cocycle_coefficients(g: WeightedMajorityGraph) -> np.ndarray:
    """Coefficients c with sum_a c[a] * cocycle(a) = co-cycle part of g.

    Closed form c[a] = s(a)/m with s(a) the row sum of margins at a; the
    coefficients always sum to zero because the row sums do.
    """
    s = g.row_sums()
    if g.is_exact:
        out = np.empty(g.m, dtype=object)
        out[:] = [Fraction(x) / g.m for x in s.tolist()]
        return out
    return s / g.m


def orthogonal_decompose(
    g: WeightedMajorityGraph,
) -> tuple[WeightedMajorityGraph, WeightedMajorityGraph]:
    """Split g = g_cyc + g_co into its cycle-space and co-cycle-space parts.

    g_co is the projection onto the span of co-cycles; the residual g_cyc
    has all row sums zero, hence zero dot product with every co-cycle.
    The identity is exact in rational mode.
    """
    c = cocycle_coefficients(g)
    diff = c[:, None] - c[None, :]
    if g.is_exact:
        zero = Fraction(0)
        mat = np.empty((g.m, g.m), dtype=object)
        for a in range(g.m):
            for b in range(g.m):
                mat[a, b] = diff[a, b] if a != b else zero
        g_co = WeightedMajorityGraph(g.m, mat)
    else:
        mat = diff.astype(np.float64)
        np.fill_diagonal(mat, 0.0)
        g_co = WeightedMajorityGraph(g.m, mat)
    return g - g_co, g_co


def cycle_basis_coeffs(
    g_cyc: WeightedMajorityGraph, tol: float = 1e-9
) -> dict[tuple[int, int], Weight]:
    """Coefficients over the triangles 0 -> i -> j -> 0 (1 <= i < j < m).

    Requires a cycle-space input (all row sums zero within ``tol``); the
    coefficient on triangle (0, i, j) is simply the margin on edge i -> j,
    and summing coefficient-weighted triangles reconstructs the input
    exactly.
    """
    s = g_cyc.row_sums()
    if any(abs(x) > tol for x in s.tolist()):
        raise ValueError("input is not in the cycle space (nonzero row sums)")
    return {
        (i, j): g_cyc.matrix[i, j]
        for i in range(1, g_cyc.m)
        for j in range(i + 1, g_cyc.m)
    }


def cycle_to_triangles(cycle: Sequence[int]) -> list[tuple[int, int, int]]:
    """Fan a simple cycle v1..vT into T-2 triangles (v1, v_s, v_{s+1}).

    The majority-graph sum of the triangles equals the cycle's graph: the
    chord edges (v1, v_s) appear once in each direction and cancel.
    """
    verts = list(cycle)
    if len(verts) < 3 or len(set(verts)) != len(verts):
        raise ValueError("need at least 3 distinct vertices")
    return [(verts[0], verts[s], verts[s + 1]) for s in range(1, len(verts) - 1)]


def eulerian_cycle_decomposition(g: Digraph) -> list[list[int]]:
    """Split an Eulerian edge set into edge-disjoint simple cycles.

    Walks from any vertex with unused out-edges until a vertex repeats,
    extracts the enclosed simple cycle, and repeats until no edges remain.
    Removing a simple cycle preserves the in-degree = out-degree invariant,
    so the walk can never get stuck.
    """
    if not g.is_eulerian():
        raise ValueError("graph is not Eulerian (in-degree != out-degree somewhere)")
    succ: dict[int, list[int]] = {v: [] for v in range(g.m)}
    for a, b in sorted(g.edges):
        succ[a].append(b)
    for a in succ:
        succ[a].sort(reverse=True)  # pop() takes the smallest successor
    remaining = len(g.edges)
    cycles: list[list[int]] = []
    while remaining:
        start = min(v for v in range(g.m) if succ[v])
        walk = [start]
        seen_at = {start: 0}
        while True:
            nxt = succ[walk[-1]].pop()
            remaining -= 1
            if nxt in seen_at:
                i = seen_at[nxt]
                cycles.append(walk[i:])
                # put the unused prefix edges back
                for a, b in zip(walk[:i], walk[1 : i + 1]):
                    succ[a].append(b)
                    succ[a].sort(reverse=True)
                    remaining += 1
                break
            seen_at[nxt] = len(walk)
            walk.append(nxt)
    return cycles


def edge_gadget_graphs(
    b: int, c: int, m: int
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Triangles and co-cycle centers whose graphs sum to m copies of b -> c.

    Returns (triangles, centers): one triangle c -> x -> b -> c per
    alternative x outside {b, c}, plus one co-cycle centered at each such
    x and two centered at b.  Summing the m-2 triangles and m co-cycles
    leaves weight m on edge b -> c and zero everywhere else.
    """
    if b == c:
        raise ValueError("edge endpoints must differ")
    if m < 3:
        raise ValueError("need m >= 3")
    others = [x for x in range(m) if x not in (b, c)]
    triangles = [(c, x, b) for x in others]
    centers = others + [b, b]
    return triangles, centers


def edge_gadget_wmg_sum(b: int, c: int, m: int, exact: bool = False) -> WeightedMajorityGraph:
    """Majority-graph sum of the edge gadget (should be m on edge b -> c)."""
    triangles, centers = edge_gadget_graphs(b, c, m)
    total = WeightedMajorityGraph.zero(m, exact=exact)
    for i, j, k in triangles:
        total = total + three_cycle(i, j, k, m, exact=exact)
    for a in centers:
        total = total + cocycle(a, m, exact=exact)
    return total

