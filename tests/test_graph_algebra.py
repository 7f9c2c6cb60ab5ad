"""Cycle/co-cycle algebra: dot products, decomposition, bases, gadget sums."""

import numpy as np
import pytest
from fractions import Fraction

from votelab.core import Digraph, Profile, WeightedMajorityGraph, wmg
from votelab.graph_algebra import (
    cocycle,
    cocycle_coefficients,
    cycle_basis_coeffs,
    cycle_to_triangles,
    dot,
    edge_gadget_graphs,
    edge_gadget_wmg_sum,
    eulerian_cycle_decomposition,
    orthogonal_decompose,
    three_cycle,
)
from votelab.formats import format_digraph, format_wmg, parse_digraph, parse_wmg


def random_wmg(m, rng, exact=False):
    mat = rng.integers(-5, 6, size=(m, m))
    mat = np.triu(mat, k=1)
    mat = mat - mat.T
    if exact:
        out = np.empty((m, m), dtype=object)
        for a in range(m):
            for b in range(m):
                out[a, b] = Fraction(int(mat[a, b]))
        return WeightedMajorityGraph(m, out)
    return WeightedMajorityGraph(m, mat.astype(float))


# ---------------------------------------------------------------------------
# dot / basic graphs
# ---------------------------------------------------------------------------


def test_dot_with_zero():
    g = random_wmg(5, np.random.default_rng(0))
    assert dot(g, WeightedMajorityGraph.zero(5)) == 0


def test_cycle_cocycle_orthogonality():
    m = 6
    for (i, j, k) in [(0, 1, 2), (1, 3, 5), (2, 4, 0)]:
        tri = three_cycle(i, j, k, m)
        for a in range(m):
            assert dot(tri, cocycle(a, m)) == pytest.approx(0)


def test_cocycle_dots():
    m = 5
    assert dot(cocycle(0, m), cocycle(0, m)) == m - 1
    assert dot(cocycle(0, m), cocycle(3, m)) == -1  # shared pair, opposite roles


def test_three_cycle_self_dot_and_storage():
    t = three_cycle(0, 1, 2, 4)
    assert dot(t, t) == 3
    assert t.weight(1, 0) == -1  # antisymmetric storage round trip
    with pytest.raises(ValueError):
        three_cycle(0, 0, 1, 4)


def test_cocycle_row_sum_and_umg_star():
    from votelab.core import umg

    c = cocycle(2, 5)
    assert c.row_sums()[2] == 4
    star = umg(c)
    assert star.edges == frozenset((2, b) for b in range(5) if b != 2)


# ---------------------------------------------------------------------------
# orthogonal decomposition
# ---------------------------------------------------------------------------


def test_decompose_single_ranking_m3():
    # margins of one ranking: row sums (2, 0, -2) so the star part has
    # coefficients (2/3, 0, -2/3) and the residual is a 1/3-weight triangle
    g = wmg(Profile.from_rankings([(0, 1, 2)]))
    coeffs = cocycle_coefficients(g)
    assert np.allclose(coeffs, [2 / 3, 0, -2 / 3])
    g_cyc, g_co = orthogonal_decompose(g)
    assert g_cyc.matrix[0, 1] == pytest.approx(1 / 3)
    assert g_cyc.matrix[1, 2] == pytest.approx(1 / 3)
    assert g_cyc.matrix[2, 0] == pytest.approx(1 / 3)


def test_decompose_pure_triangle_has_no_star_part():
    g = three_cycle(0, 1, 2, 3)
    g_cyc, g_co = orthogonal_decompose(g)
    assert np.allclose(g_co.matrix, 0)
    assert g_cyc.allclose(g)


def test_decompose_reconstruction_orthogonality_idempotence():
    rng = np.random.default_rng(7)
    for m in range(3, 8):
        for _ in range(10):
            g = random_wmg(m, rng)
            g_cyc, g_co = orthogonal_decompose(g)
            assert (g_cyc + g_co).allclose(g, tol=1e-9)
            for a in range(m):
                assert abs(dot(g_cyc, cocycle(a, m))) <= 1e-9
            assert abs(dot(g_cyc, g_co)) <= 1e-9
            # idempotence
            again_cyc, again_co = orthogonal_decompose(g_cyc)
            assert again_cyc.allclose(g_cyc, tol=1e-9)
            assert np.allclose(again_co.matrix.astype(float), 0, atol=1e-9)


def test_decompose_exact_rational():
    rng = np.random.default_rng(8)
    for m in (3, 5, 7, 10):
        g = random_wmg(m, rng, exact=True)
        g_cyc, g_co = orthogonal_decompose(g)
        assert (g_cyc + g_co).equals(g)
        assert all(x == 0 for x in g_cyc.row_sums().tolist())
        assert dot(g_cyc, g_co) == 0


def test_decompose_least_squares_oracle():
    # independent oracle: project onto the co-cycle span by least squares
    rng = np.random.default_rng(9)
    for m in range(3, 7):
        g = random_wmg(m, rng)
        basis = np.stack([cocycle(a, m).upper() for a in range(m)], axis=1)
        coef, *_ = np.linalg.lstsq(basis, g.upper(), rcond=None)
        proj = basis @ coef
        _, g_co = orthogonal_decompose(g)
        assert np.allclose(g_co.upper(), proj, atol=1e-8)


def test_rank_of_spans():
    # triangles through a1 span C(m-1, 2) dims; co-cycles span m-1
    for m in range(3, 8):
        tri_vectors = [
            three_cycle(0, i, j, m).upper() for i in range(1, m) for j in range(i + 1, m)
        ]
        assert np.linalg.matrix_rank(np.stack(tri_vectors)) == (m - 1) * (m - 2) // 2
        co_vectors = [cocycle(a, m).upper() for a in range(m)]
        assert np.linalg.matrix_rank(np.stack(co_vectors)) == m - 1


# ---------------------------------------------------------------------------
# cycle basis coefficients
# ---------------------------------------------------------------------------


def test_cycle_basis_single_triangle_through_a1():
    g = three_cycle(0, 2, 3, 5)
    lam = cycle_basis_coeffs(g)
    nonzero = {k: v for k, v in lam.items() if v != 0}
    assert nonzero == {(2, 3): 1.0}


def test_cycle_basis_reconstruction_oracle():
    rng = np.random.default_rng(10)
    for m in range(3, 7):
        for _ in range(8):
            g = random_wmg(m, rng)
            g_cyc, _ = orthogonal_decompose(g)
            lam = cycle_basis_coeffs(g_cyc)
            recon = WeightedMajorityGraph.zero(m)
            for (i, j), w in lam.items():
                recon = recon + three_cycle(0, i, j, m) * w
            assert recon.allclose(g_cyc, tol=1e-9)


def test_cycle_basis_triangle_avoiding_a1():
    g = three_cycle(1, 2, 3, 4)
    lam = cycle_basis_coeffs(g)
    recon = WeightedMajorityGraph.zero(4)
    for (i, j), w in lam.items():
        recon = recon + three_cycle(0, i, j, 4) * w
    assert recon.allclose(g)


def test_cycle_basis_zero_graph():
    lam = cycle_basis_coeffs(WeightedMajorityGraph.zero(5))
    assert all(v == 0 for v in lam.values())


def test_cycle_basis_rejects_non_cyclic_input():
    with pytest.raises(ValueError):
        cycle_basis_coeffs(cocycle(0, 4))


# ---------------------------------------------------------------------------
# cycle fans
# ---------------------------------------------------------------------------


def test_cycle_to_triangles_identity_and_counts():
    assert cycle_to_triangles([0, 1, 2]) == [(0, 1, 2)]
    assert len(cycle_to_triangles([0, 1, 2, 3])) == 2
    assert len(cycle_to_triangles([0, 1, 2, 3, 4, 5])) == 4
    with pytest.raises(ValueError):
        cycle_to_triangles([0, 1])


@pytest.mark.parametrize("verts", [[0, 1, 2, 3], [2, 0, 3, 1, 4], [0, 1, 2, 3, 4, 5]])
def test_cycle_to_triangles_wmg_sum_oracle(verts):
    m = max(verts) + 1
    cyc_edges = [(verts[i], verts[(i + 1) % len(verts)], Fraction(1)) for i in range(len(verts))]
    target = WeightedMajorityGraph.from_edges(m, cyc_edges, exact=True)
    total = WeightedMajorityGraph.zero(m, exact=True)
    for i, j, k in cycle_to_triangles(verts):
        total = total + three_cycle(i, j, k, m, exact=True)
    assert total.equals(target)


# ---------------------------------------------------------------------------
# eulerian decomposition
# ---------------------------------------------------------------------------


def edge_multiset(cycles):
    edges = []
    for cyc in cycles:
        for i in range(len(cyc)):
            edges.append((cyc[i], cyc[(i + 1) % len(cyc)]))
    return sorted(edges)


def test_eulerian_single_triangle():
    g = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    cycles = eulerian_cycle_decomposition(g)
    assert len(cycles) == 1
    assert edge_multiset(cycles) == sorted(g.edges)


def test_eulerian_two_disjoint_triangles():
    g = Digraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    cycles = eulerian_cycle_decomposition(g)
    assert len(cycles) == 2
    assert edge_multiset(cycles) == sorted(g.edges)


def test_eulerian_figure_eight():
    g = Digraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    cycles = eulerian_cycle_decomposition(g)
    assert len(cycles) == 2
    assert edge_multiset(cycles) == sorted(g.edges)
    for cyc in cycles:
        assert len(set(cyc)) == len(cyc)  # simple


def test_eulerian_rejects_unbalanced():
    g = Digraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        eulerian_cycle_decomposition(g)


def test_eulerian_random_balanced_graphs():
    # union of random cycles is Eulerian; the decomposition must cover it
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(4, 8))
        edges = set()
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(3, m + 1))
            verts = rng.permutation(m)[:size].tolist()
            for i in range(size):
                e = (verts[i], verts[(i + 1) % size])
                if (e[1], e[0]) in edges or e in edges:
                    break
            else:
                edges.update(
                    (verts[i], verts[(i + 1) % size]) for i in range(size)
                )
        if not edges:
            continue
        g = Digraph.from_edges(m, edges)
        if not g.is_eulerian():
            continue
        cycles = eulerian_cycle_decomposition(g)
        assert edge_multiset(cycles) == sorted(g.edges)


# ---------------------------------------------------------------------------
# single-edge gadget
# ---------------------------------------------------------------------------


def test_edge_gadget_counts():
    triangles, centers = edge_gadget_graphs(1, 0, 4)
    assert len(triangles) == 2 and len(centers) == 4
    assert centers.count(1) == 2  # two stars at the edge source


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_edge_gadget_sum_m_copies(m):
    total = edge_gadget_wmg_sum(1, 0, m, exact=True)
    target = WeightedMajorityGraph.from_edges(m, [(1, 0, Fraction(m))], exact=True)
    assert total.equals(target)


def test_edge_gadget_relabeled():
    total = edge_gadget_wmg_sum(2, 4, 6, exact=True)
    target = WeightedMajorityGraph.from_edges(6, [(2, 4, Fraction(6))], exact=True)
    assert total.equals(target)


def test_edge_gadget_rejects_degenerate():
    with pytest.raises(ValueError):
        edge_gadget_graphs(1, 1, 4)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_digraph_round_trip():
    g = Digraph.from_edges(4, [(0, 1), (2, 3), (3, 0)])
    assert parse_digraph(format_digraph(g)) == g


def test_wmg_round_trip_exact_and_float():
    g = WeightedMajorityGraph.from_edges(
        3, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(-2, 5))], exact=True
    )
    back = parse_wmg(format_wmg(g))
    assert back.equals(g)
    gf = WeightedMajorityGraph.from_edges(3, [(0, 1, 0.25)])
    backf = parse_wmg(format_wmg(gf))
    assert backf.allclose(gf)
