"""Exact linear algebra against brute-force and floating oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgraph import linalg
from condgraph.census import enumerate_chemical, enumerate_connected
from condgraph.families import min_deg2_graph
from condgraph.fixtures import fixture
from condgraph.graphs import adjacency_matrix, cycle_graph, path_graph
from condgraph.linalg import (MODULUS, IntPolynomial, SingularMatrixError,
                              adjugate, char_poly, char_poly_and_adjugate, det,
                              float_spectrum, inverse, kernel_basis, nullity,
                              rank, scaled_inverse, zero_root_multiplicity)

from conftest import cofactor_adjugate, rational_rref_rank


def A(g):
    return adjacency_matrix(g)


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


small_int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n))


# ---------------------------------------------------------------------------
# rank / nullity / determinant
# ---------------------------------------------------------------------------

def test_nullity_examples():
    assert nullity(A(path_graph(2))) == 0
    assert det(A(path_graph(2))) == -1
    assert nullity(A(path_graph(3))) == 1
    assert nullity(A(cycle_graph(4))) == 2
    assert nullity(A(cycle_graph(6))) == 0


def test_smallest_nut_order_is_seven(connected_upto_7):
    # some 7-vertex graph has nullity 1 with a nowhere-zero kernel vector,
    # and no smaller graph beyond K1 does
    def is_nut_like(g):
        basis = kernel_basis(A(g))
        return len(basis) == 1 and all(x != 0 for x in basis[0])

    assert any(is_nut_like(g) for g in connected_upto_7[7])
    for n in range(2, 7):
        assert not any(is_nut_like(g) for g in connected_upto_7[n])


@settings(max_examples=150, deadline=None)
@given(small_int_matrices)
def test_rank_matches_rational_elimination(m):
    assert rank(m) == rational_rref_rank(m)


@settings(max_examples=100, deadline=None)
@given(small_int_matrices)
def test_det_matches_numpy_sign_and_smallness(m):
    d = det(m)
    ref = round(float(np.linalg.det(np.array(m, dtype=float))))
    assert d == ref


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_examples():
    assert kernel_basis(A(path_graph(3))) == [[1, 0, -1]]
    assert len(kernel_basis(A(cycle_graph(4)))) == 2
    assert kernel_basis(A(cycle_graph(6))) == []


def test_kernel_vectors_satisfy_ax_zero(connected_upto_7):
    for n in range(1, 7):
        for g in connected_upto_7[n]:
            a = A(g)
            basis = kernel_basis(a)
            assert len(basis) == nullity(a)
            for vec in basis:
                assert all(sum(a[i][j] * vec[j] for j in range(g.n)) == 0
                           for i in range(g.n))


# ---------------------------------------------------------------------------
# inverse / adjugate
# ---------------------------------------------------------------------------

def test_inverse_examples():
    assert inverse(A(path_graph(2))) == [[0, 1], [1, 0]]
    # frozen 4x4 rational elimination; all nonzero entries sit on
    # odd-distance pairs of the path
    p4 = inverse(A(path_graph(4)))
    assert p4 == [[0, 1, 0, -1], [1, 0, 0, 0], [0, 0, 0, 1], [-1, 0, 1, 0]]
    dist_odd = {(0, 1), (1, 0), (0, 3), (3, 0), (2, 3), (3, 2), (1, 2), (2, 1)}
    assert all(p4[i][i] == 0 for i in range(4))
    assert all((i, j) in dist_odd for i in range(4) for j in range(4) if p4[i][j])
    with pytest.raises(SingularMatrixError) as err:
        inverse(A(cycle_graph(4)))
    assert err.value.nullity == 2


def test_inverse_times_matrix_is_identity(connected_upto_7):
    for g in connected_upto_7[5] + connected_upto_7[6][:40]:
        a = A(g)
        if det(a) == 0:
            continue
        prod = mat_mul(a, inverse(a))
        assert prod == [[Fraction(i == j) for j in range(g.n)] for i in range(g.n)]


def test_adjugate_examples():
    assert adjugate(A(path_graph(2))) == [[0, -1], [-1, 0]]
    adj = adjugate(A(path_graph(3)))
    # rank one, proportional to the outer product of the kernel vector
    x = [1, 0, -1]
    alpha = adj[0][0] // (x[0] * x[0])
    assert adj == [[alpha * x[i] * x[j] for j in range(3)] for i in range(3)]


@settings(max_examples=60, deadline=None)
@given(small_int_matrices)
def test_adjugate_matches_cofactor_oracle(m):
    assert adjugate(m) == cofactor_adjugate(m)


def test_adjugate_identity_and_inverse_relation(connected_upto_7, rng):
    for n in range(2, 7):
        for g in rng.sample(connected_upto_7[n], min(25, len(connected_upto_7[n]))):
            a = A(g)
            adj = adjugate(a)
            d = det(a)
            assert mat_mul(a, adj) == [[d * (i == j) for j in range(g.n)]
                                       for i in range(g.n)]
            if d != 0:
                inv = inverse(a)
                assert all(Fraction(adj[i][j], d) == inv[i][j]
                           for i in range(g.n) for j in range(g.n))


# ---------------------------------------------------------------------------
# scaled inverse modulo one prime
# ---------------------------------------------------------------------------

def _assert_is_adjugate(a):
    d, x = scaled_inverse(a)
    assert x.tolist() == adjugate(a)
    assert d == det(a)


def test_scaled_inverse_is_the_adjugate_on_connected_graphs(connected_upto_7):
    # every nonsingular connected graph with n <= 8; production asks for it
    # only from conduction.MODULAR_MIN_ORDER on
    checked = 0
    graphs = [g for n in range(1, 8) for g in connected_upto_7[n]]
    for g in graphs + list(enumerate_connected(8)):
        a = A(g)
        if rank(a) < g.n:
            assert scaled_inverse(a) is None
            continue
        _assert_is_adjugate(a)
        checked += 1
    assert checked == 0 + 1 + 1 + 3 + 8 + 52 + 342 + 5724  # n = 1..8


def test_scaled_inverse_is_the_adjugate_on_chemical_graphs():
    checked = 0
    for g in enumerate_chemical(10):
        a = A(g)
        if rank(a) == g.n:
            _assert_is_adjugate(a)
            checked += 1
    assert checked == 917


def _bordered(a):
    z = kernel_basis(a)
    m = [row + [vec[i] for vec in z] for i, row in enumerate(a)]
    return m + [vec + [0] * len(z) for vec in z]


def test_scaled_inverse_is_the_adjugate_on_large_graphs():
    # the benchmark's large inputs (C40 and P41 through the bordered matrix
    # that production inverts) and the minimum-degree-2 family up to n = 64
    for g in (cycle_graph(40), path_graph(41)):
        assert scaled_inverse(A(g)) is None
        _assert_is_adjugate(_bordered(A(g)))
    _assert_is_adjugate(A(fixture("fig6reg24")))
    for k in range(2, 17):
        _assert_is_adjugate(A(min_deg2_graph(k)))


def test_scaled_inverse_refuses_what_the_prime_cannot_decide():
    # det = p: singular modulo p
    a = [[MODULUS, 0], [0, 1]]
    assert det(a) == MODULUS and scaled_inverse(a) is None
    a = [[1 << 16, 1], [1, 1 << 15]]
    assert det(a) == MODULUS and scaled_inverse(a) is None
    # det = 3 * 2**30 lifts to a wrong residue, and the cofactor 3 * 2**30
    # exceeds p/2; the integer check refuses the lifted pair
    a = [[1 << 30, 0, 0], [0, 3, 0], [0, 0, 1]]
    assert max(max(map(abs, row)) for row in adjugate(a)) > MODULUS // 2
    assert scaled_inverse(a) is None
    # a scaled result that does pass is exactly d A^-1, though not adj(A)
    d, x = scaled_inverse([[2, 0], [0, 2]])
    assert mat_mul([[2, 0], [0, 2]], x.tolist()) == [[d, 0], [0, d]]


def test_scaled_inverse_keeps_overflowing_input_from_numpy(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} reached")

    monkeypatch.setattr(linalg, "np", NoNumpy())
    assert scaled_inverse([[1 << 63]]) is None
    assert scaled_inverse([[-(1 << 64), 1], [1, 0]]) is None
    # entries that fit int64, row sums that would not stay exact
    row = [1 << 29] * 5
    assert scaled_inverse([row[:] for _ in range(5)]) is None
    assert scaled_inverse([]) is None


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def test_char_poly_examples():
    assert char_poly(A(path_graph(2))) == IntPolynomial([-1, 0, 1])
    assert char_poly(A(cycle_graph(3))) == IntPolynomial([-2, -3, 0, 1])
    assert char_poly([]) == IntPolynomial([1])


def test_char_poly_monic_and_consistent(connected_upto_7):
    for n in range(1, 8):
        for g in connected_upto_7[n]:
            a = A(g)
            p, adj = char_poly_and_adjugate(a)
            assert p.degree == g.n and p.coeffs[-1] == 1
            # multiplicity of the zero root equals the nullity
            if p(0) == 0:
                assert zero_root_multiplicity(p) == nullity(a)
            else:
                assert nullity(a) == 0
            # det from the constant coefficient
            assert p(0) == (-1) ** g.n * det(a)


def test_interlacing_on_vertex_deletion(connected_upto_7):
    for n in range(2, 8):
        for g in connected_upto_7[n]:
            eta = nullity(A(g))
            for v in range(g.n):
                sub = nullity(A(g.delete_vertices([v]))) if g.n > 1 else 0
                assert abs(eta - sub) <= 1


def test_nullity1_adjugate_sign_matches_char_poly(connected_upto_7):
    # adj(A) = alpha x x^T with alpha = (-1)^(n-1) * (coefficient of E^1)
    for n in range(3, 8):
        for g in connected_upto_7[n]:
            a = A(g)
            p = char_poly(a)
            if p.is_zero() or p(0) != 0 or zero_root_multiplicity(p) != 1:
                continue
            x = kernel_basis(a)[0]
            adj = adjugate(a)
            alpha = (-1) ** (g.n - 1) * p.coeffs[1]
            xx = sum(xi * xi for xi in x)
            assert all(adj[i][j] * xx == alpha * x[i] * x[j]
                       for i in range(g.n) for j in range(g.n))


def test_zero_root_multiplicity_examples():
    assert zero_root_multiplicity(IntPolynomial([0, -3, 0, 1])) == 1  # E^3 - 3E
    sq = IntPolynomial([0, 1]) * IntPolynomial([-1, 1])
    assert zero_root_multiplicity(sq * sq) == 2
    assert zero_root_multiplicity(IntPolynomial([5])) == 0
    with pytest.raises(ValueError):
        zero_root_multiplicity(IntPolynomial([]))


# ---------------------------------------------------------------------------
# integer polynomial arithmetic
# ---------------------------------------------------------------------------

def test_polynomial_arithmetic():
    p = IntPolynomial([1, 2])       # 1 + 2E
    q = IntPolynomial([0, 0, 3])    # 3E^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p - p).is_zero()
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (2 * p).coeffs == (2, 4)
    assert p(2) == 5 and q(Fraction(1, 3)) == Fraction(1, 3)
    assert p.shift(2).coeffs == (0, 0, 1, 2)
    assert q.shift(-2).coeffs == (3,)
    with pytest.raises(ValueError):
        p.shift(-1)


def test_polynomial_sqrt():
    root = IntPolynomial([1, -2, 3])
    assert (root * root).sqrt() == root
    shifted = (root * root).shift(4)
    assert shifted.sqrt() == root.shift(2)
    assert IntPolynomial([2]).sqrt() is None
    assert IntPolynomial([0, 1]).sqrt() is None       # odd zero multiplicity
    assert IntPolynomial([-1, 0, 1]).sqrt() is None   # E^2 - 1
    assert IntPolynomial([]).sqrt() == IntPolynomial([])
    assert IntPolynomial([4]).sqrt() == IntPolynomial([2])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_polynomial_sqrt_round_trip(coeffs):
    p = IntPolynomial(coeffs)
    sq = p * p
    root = sq.sqrt()
    assert root is not None
    assert root * root == sq


# ---------------------------------------------------------------------------
# floating spectrum bridge
# ---------------------------------------------------------------------------

def test_float_spectrum_examples():
    assert float_spectrum(A(path_graph(2))) == pytest.approx([1.0, -1.0], abs=1e-9)
    assert float_spectrum(A(cycle_graph(6))) == pytest.approx(
        [2.0, 1.0, 1.0, -1.0, -1.0, -2.0], abs=1e-9)


def _assert_spectrum_matches_poly(a):
    """Bridge check between the exact and floating paths.

    Every floating eigenvalue must be a root of the exact characteristic
    polynomial (checked by scaled evaluation, which stays honest at repeated
    roots where independent root-finding only achieves ~eps^(1/multiplicity));
    when the roots are well separated the two root lists are also compared
    head-on at 1e-6.
    """
    p = char_poly(a)
    eigs = float_spectrum(a)
    assert len(eigs) == p.degree
    for lam in eigs:
        scale = sum(abs(c) * max(1.0, abs(lam)) ** k
                    for k, c in enumerate(p.coeffs))
        assert abs(p(lam)) <= 1e-6 * scale
    roots = sorted(np.roots(list(p.coeffs)[::-1]).real, reverse=True)
    separated = all(roots[i] - roots[i + 1] > 1e-3 for i in range(len(roots) - 1))
    if separated:
        assert eigs == pytest.approx(list(roots), abs=1e-6)


def test_float_spectrum_matches_char_poly_roots(connected_upto_7):
    for n in range(1, 7):
        for g in connected_upto_7[n]:
            _assert_spectrum_matches_poly(A(g))


def test_float_spectrum_matches_char_poly_roots_larger():
    from condgraph.fixtures import fixture
    for name in ("ipso15", "ladder5_partial", "e8", "fig4_k4_base"):
        _assert_spectrum_matches_poly(A(fixture(name)))
