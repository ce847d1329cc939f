"""Family generators, their algebra, and the explicit witness maps."""

import itertools

import pytest

from condgraph.classify import conduction_isomorphism, is_conduction_isomorphic
from condgraph.conduction import conduction_graph
from condgraph.families import (FAMILIES, appendix_family_graph,
                                appendix_witness, build_family,
                                canonical_double_cover, cdc_witness, comb,
                                corona, corona_spectrum, corona_witness,
                                cyclic_permutation_matrix, f_matrix,
                                large_min_deg_graph, large_min_deg_witness,
                                min_deg2_graph, min_deg2_witness, radialene,
                                witness_isomorphism)
from condgraph.fixtures import fixture
from condgraph.graphs import (Graph, adjacency_matrix, complete_graph,
                              cycle_graph, degree_sequence, is_bipartite,
                              is_chemical, is_connected, path_graph)
from condgraph.isomorphism import are_isomorphic, verify_witness
from condgraph.linalg import float_spectrum

from conftest import fraction_inverse


def check_witness(g, witness):
    """The map must send the graph onto its conduction graph edge-for-edge."""
    cg = conduction_graph(g).graph
    assert cg.loops == 0
    assert verify_witness(g, cg, witness)


# ---------------------------------------------------------------------------
# corona
# ---------------------------------------------------------------------------

def test_corona_examples():
    assert are_isomorphic(corona(path_graph(3)), comb(3))
    assert corona(cycle_graph(3)) == fixture("radialene3")
    k1 = Graph.from_edges(1, [])
    assert corona(k1) == path_graph(2)
    assert is_conduction_isomorphic(corona(k1))
    # iterating from K1 gives K2 then P4
    assert are_isomorphic(corona(k1, 2), path_graph(4))


def test_corona_block_order_and_witness():
    g = comb(3)
    # base path on 0..2, pendant j+3 attached to j
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5)]
    check_witness(g, corona_witness(6))


def test_corona_overflow_and_bad_permutation():
    with pytest.raises(ValueError):
        corona(path_graph(5), 4)  # 80 vertices
    with pytest.raises(ValueError):
        corona(path_graph(3), permutation=[1, 0, 2])  # not an automorphism
    # reversal is an automorphism of the path, so it is accepted
    g = corona(path_graph(3), permutation=[2, 1, 0])
    assert g.n == 6 and is_conduction_isomorphic(g)


def test_corona_spectrum_formula():
    assert corona_spectrum([0]) == pytest.approx([1.0, -1.0])
    spec = corona_spectrum(float_spectrum(adjacency_matrix(path_graph(3))))
    direct = float_spectrum(adjacency_matrix(comb(3)))
    assert spec == pytest.approx(direct, abs=1e-9)
    # paired values multiply to -1
    for lam in (0.0, 1.5, -2.0):
        a, b = corona_spectrum([lam])
        assert a * b == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# f-matrix algebra
# ---------------------------------------------------------------------------

def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def test_f_matrix_identities():
    for k in range(1, 7):
        n = 2 * k
        assert f_matrix(n, 0) == [[int(i == j) for j in range(n)] for i in range(n)]
        for a in range(-4, 5):
            ft = [list(col) for col in zip(*f_matrix(n, a))]
            expected = f_matrix(n, a) if a % 2 else f_matrix(n, -a)
            assert ft == expected
            for b in range(-4, 5):
                prod = _mat_mul(f_matrix(n, a), f_matrix(n, b))
                expected = f_matrix(n, a - b) if a % 2 else f_matrix(n, a + b)
                assert prod == expected


def test_orthogonal_01_matrices_are_permutations():
    # exhaustive over all 0-1 matrices up to 4x4
    for n in range(1, 4):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        for bits in range(1 << (n * n)):
            m = [[bits >> (i * n + j) & 1 for j in range(n)] for i in range(n)]
            mt = [list(col) for col in zip(*m)]
            if _mat_mul(m, mt) == ident:
                assert all(sum(row) == 1 for row in m)
                assert all(sum(col) == 1 for col in zip(*m))


# ---------------------------------------------------------------------------
# min degree 2 family
# ---------------------------------------------------------------------------

def test_min_deg2_shape_and_inverse_form():
    for k in (2, 3, 4):
        g = min_deg2_graph(k)
        assert g.n == 4 * k
        assert is_chemical(g)
        assert sorted(set(g.degree(v) for v in range(g.n))) == [2, 3]
        # the exact inverse equals the stated block form
        n = 2 * k
        inv = fraction_inverse(adjacency_matrix(g))
        top = [row[:n] for row in inv[:n]]
        tr = [row[n:] for row in inv[:n]]
        bl = [row[:n] for row in inv[n:]]
        br = [row[n:] for row in inv[n:]]
        assert top == f_matrix(n, -1)
        assert tr == [[-x for x in row] for row in f_matrix(n, -2)]
        assert bl == [[-x for x in row] for row in f_matrix(n, 2)]
        f13 = [[a + b for a, b in zip(r1, r2)]
               for r1, r2 in zip(f_matrix(n, 1), f_matrix(n, 3))]
        assert br == f13


def test_min_deg2_witness_values():
    h = min_deg2_witness(2)
    assert h[0] == 4 and h[1] == 7 and h[4] == 2 and h[5] == 1
    for k in (2, 3, 4, 5):
        check_witness(min_deg2_graph(k), min_deg2_witness(k))


def test_fig4_graph_is_min_deg2_k4():
    assert fixture("fig4_k4_base") == min_deg2_graph(4)


def test_min_deg2_bounds():
    with pytest.raises(ValueError):
        min_deg2_graph(1)
    with pytest.raises(ValueError):
        min_deg2_graph(17)


# ---------------------------------------------------------------------------
# large minimum degree family
# ---------------------------------------------------------------------------

def test_large_min_deg_shape():
    for k in (3, 4, 5, 6):
        g = large_min_deg_graph(k)
        assert g.n == 2 * k
        degs = degree_sequence(g)
        assert degs == [2 * k - 5] * k + [2 * k - 3] * k
        assert not is_bipartite(g)
    assert min(large_min_deg_graph(4).degree(v) for v in range(8)) == 3


def test_large_min_deg_witness_values():
    h = large_min_deg_witness(3)
    assert h[0] == 5
    for k in (3, 4, 5, 6):
        check_witness(large_min_deg_graph(k), large_min_deg_witness(k))


def test_large_min_deg_k3_is_radialene3():
    assert are_isomorphic(large_min_deg_graph(3), fixture("radialene3"))


# ---------------------------------------------------------------------------
# canonical double cover
# ---------------------------------------------------------------------------

def test_cdc_shape_and_observations():
    rad = fixture("radialene3")
    cover = canonical_double_cover(rad)
    assert cover.n == 12
    assert is_bipartite(cover)
    assert is_connected(cover)
    # bipartite base -> disconnected cover
    assert not is_connected(canonical_double_cover(cycle_graph(4)))
    # degree multiset doubles
    assert degree_sequence(cover) == sorted(degree_sequence(rad) * 2)


def test_cdc_of_radialene3_is_radialene6():
    assert are_isomorphic(canonical_double_cover(fixture("radialene3")),
                          radialene(6))


def test_cdc_witness():
    rad = fixture("radialene3")
    base_witness = conduction_isomorphism(rad)
    check_witness(canonical_double_cover(rad), cdc_witness(base_witness))
    big = large_min_deg_graph(4)
    check_witness(canonical_double_cover(big),
                  cdc_witness(conduction_isomorphism(big)))


# ---------------------------------------------------------------------------
# the 4k-4 family
# ---------------------------------------------------------------------------

def test_appendix_family_shape():
    g = appendix_family_graph(4)
    assert g.n == 12
    # a 2k-path with a matched top row: frozen edge list for k=4
    assert g == Graph.from_edges(12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                      (5, 6), (6, 7), (3, 8), (4, 9), (5, 10),
                                      (6, 11), (8, 9), (10, 11)])
    for k in (3, 4, 5):
        g = appendix_family_graph(k)
        assert g.n == 4 * k - 4
        assert is_chemical(g)
        assert min(g.degree(v) for v in range(g.n)) == 1
        # and it is never a corona: corona graphs have n/2 pendants
        pendants = sum(1 for v in range(g.n) if g.degree(v) == 1)
        assert pendants < g.n // 2


def test_appendix_inverse_block_form():
    # Inverse blocks match the sparse f-matrix forms with single-entry
    # corrections: E_{0,1} plus the B and C diagonals in the off-diagonal
    # block, and a symmetric pair at (1, n2-2) in the bottom block.  The
    # corrections are pinned by the exact inverse itself (A * inv = I).
    for k in (3, 4, 5, 6):
        g = appendix_family_graph(k)
        n1, n2 = 2 * k, 2 * k - 4
        inv = fraction_inverse(adjacency_matrix(g))
        tl = [[int(x) for x in row[:n1]] for row in inv[:n1]]
        expected_tl = f_matrix(n1, 1)
        expected_tl[0][3] -= 1
        expected_tl[3][0] -= 1
        assert tl == expected_tl
        tr = [[int(x) for x in row[n1:]] for row in inv[:n1]]
        expected_tr = [[0] * n2 for _ in range(n1)]
        expected_tr[0][1] = 1
        for r in range(2, n1 - 3, 2):       # B: rows 2,4,..,2k-4
            expected_tr[r][r - 1] = -1
        for r in range(5, n1, 2):           # C: rows 5,7,..,2k-1
            expected_tr[r][r - 5] = -1
        assert tr == expected_tr
        br = [[int(x) for x in row[n1:]] for row in inv[n1:]]
        expected_br = [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(f_matrix(n2, 1), f_matrix(n2, 3))]
        expected_br[1][n2 - 2] -= 1
        expected_br[n2 - 2][1] -= 1
        assert br == expected_br


def test_appendix_witness_values():
    assert appendix_witness(3)[0] == 4
    for k in (3, 4, 5, 6):
        check_witness(appendix_family_graph(k), appendix_witness(k))


def test_appendix_bounds():
    with pytest.raises(ValueError):
        appendix_family_graph(2)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_build_family_and_witness_dispatch():
    assert build_family("min_deg2", k=2) == min_deg2_graph(2)
    assert witness_isomorphism("min_deg2", k=2) == min_deg2_witness(2)
    assert build_family("corona", k=1, base=cycle_graph(3)) == fixture("radialene3")
    assert witness_isomorphism("corona", k=1, base=cycle_graph(3)) == corona_witness(6)
    g = build_family("cdc", base=fixture("radialene3"))
    assert g.n == 12
    check_witness(g, witness_isomorphism("cdc", base=fixture("radialene3")))
    assert build_family("comb", k=4) == comb(4)
    check_witness(comb(4), witness_isomorphism("comb", k=4))
    assert build_family("radialene", k=5) == radialene(5)
    check_witness(radialene(5), witness_isomorphism("radialene", k=5))
    # one entry per command-line name, each with a checked witness
    assert list(FAMILIES) == ["corona", "comb", "radialene", "min_deg2",
                              "large_min_deg", "cdc", "appendix"]
    for name, family in FAMILIES.items():
        k, base = (3, None) if family.needs == "k" else (None, fixture("radialene3"))
        check_witness(build_family(name, k, base), witness_isomorphism(name, k, base))
        # a k-family's table entry gives its members' order
        assert (family.order is None) == (family.needs == "base")
        for k in (3, 4, 5) if family.order else ():
            assert build_family(name, k).n == family.order(k)
    with pytest.raises(ValueError):
        build_family("corona")
    with pytest.raises(ValueError):
        build_family("corona", k=0, base=path_graph(2))
    with pytest.raises(ValueError):
        witness_isomorphism("corona", k=0, base=path_graph(2))
    with pytest.raises(ValueError):
        build_family("comb")
    with pytest.raises(ValueError, match="unknown family"):
        witness_isomorphism("nosuch", k=2)
    with pytest.raises(ValueError):
        witness_isomorphism("cdc", base=cycle_graph(4))


def test_family_members_are_conduction_isomorphic_small():
    for base_n in range(1, 4):
        from condgraph.census import enumerate_connected
        for base in enumerate_connected(base_n):
            assert is_conduction_isomorphic(corona(base))
    for k in (2, 3):
        assert is_conduction_isomorphic(min_deg2_graph(k))
    for k in (3, 4):
        assert is_conduction_isomorphic(large_min_deg_graph(k))
        assert is_conduction_isomorphic(appendix_family_graph(k))
