"""Exact linear algebra against brute-force and floating oracles."""

from fractions import Fraction
from math import gcd, lcm

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

from conftest import (cofactor_adjugate, cubic_with_twins, prism,
                      rational_rref_rank)


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


def _fraction_kernel_basis(a):
    """Kernel basis by back-substitution in Fractions from the Bareiss
    echelon, then scaled to primitive integer vectors with the first nonzero
    entry positive: the reference for the integer back-substitution."""
    n = len(a)
    m, pivots, _ = linalg._echelon(a)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, col in reversed(pivots):
            if col > free:
                continue
            acc = Fraction(m[row][free])
            for _, c2 in pivots:
                if col < c2 <= free:
                    acc += m[row][c2] * vec[c2]
            vec[col] = -acc / m[row][col]
        denom = lcm(*(x.denominator for x in vec))
        ints = [int(x * denom) for x in vec]
        g = gcd(*ints)
        lead = next(x for x in ints if x)
        basis.append([x // (g if lead > 0 else -g) for x in ints])
    return basis


def test_kernel_basis_matches_fraction_back_substitution():
    graphs = [g for n in range(1, 9) for g in enumerate_connected(n)]
    graphs += list(enumerate_chemical(10)) + [cycle_graph(40), path_graph(41)]
    for g in graphs:
        a = A(g)
        assert kernel_basis(a) == _fraction_kernel_basis(a), g


@settings(max_examples=150, deadline=None)
@given(small_int_matrices)
def test_kernel_basis_matches_fraction_back_substitution_on_matrices(m):
    assert kernel_basis(m) == _fraction_kernel_basis(m)


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
    assert err.value.kernel == kernel_basis(A(cycle_graph(4)))
    with pytest.raises(SingularMatrixError) as err:
        inverse([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert err.value.kernel == [[2, -3]]


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
# scaled inverse: the modular half and the exact half
# ---------------------------------------------------------------------------

def _both_halves(monkeypatch):
    """Send every order to one half of scaled_inverse, then to the other,
    and log the modular attempts: a crossover of 65 keeps orders <= 64
    exact, 1 tries the prime first."""
    attempts = []
    real = linalg._modular_inverse

    def recorded(a):
        out = real(a)
        attempts.append(out is not None)
        return out

    monkeypatch.setattr(linalg, "_modular_inverse", recorded)
    for cut in (65, 1):
        monkeypatch.setattr(linalg, "MODULAR_MIN_ORDER", cut)
        yield cut, attempts


def _assert_is_adjugate(a, half):
    cut, attempts = half
    attempts.clear()
    assert scaled_inverse(a) == (det(a), adjugate(a))
    # the half under test decided: no modular attempt below the crossover,
    # and one that passed its check above it
    assert attempts == ([True] if len(a) >= cut else [])


def _assert_singular(a):
    with pytest.raises(SingularMatrixError) as err:
        scaled_inverse(a)
    assert err.value.nullity == nullity(a)
    assert err.value.kernel == kernel_basis(a)


def test_scaled_inverse_is_the_adjugate_on_connected_graphs(connected_upto_7,
                                                            monkeypatch):
    # every connected graph with n <= 8: the adjugate when nonsingular, the
    # kernel basis in the error otherwise
    graphs = [g for n in range(1, 8) for g in connected_upto_7[n]]
    graphs += list(enumerate_connected(8))
    for half in _both_halves(monkeypatch):
        checked = 0
        for g in graphs:
            a = A(g)
            if rank(a) < g.n:
                _assert_singular(a)
                continue
            _assert_is_adjugate(a, half)
            checked += 1
        assert checked == 0 + 1 + 1 + 3 + 8 + 52 + 342 + 5724  # n = 1..8


def test_scaled_inverse_is_the_adjugate_on_chemical_graphs(monkeypatch):
    # the 917 nonsingular chemical graphs with n = 10, and the bordered
    # matrix that conduction_graph inverts for each of the 816 singular ones
    graphs = list(enumerate_chemical(10))
    for half in _both_halves(monkeypatch):
        for g in graphs:
            a = A(g)
            if rank(a) < g.n:
                _assert_singular(a)
                a = _bordered(a)
            _assert_is_adjugate(a, half)
    assert len(graphs) == 1733


def _bordered(a):
    z = kernel_basis(a)
    m = [row + [vec[i] for vec in z] for i, row in enumerate(a)]
    return m + [vec + [0] * len(z) for vec in z]


def test_scaled_inverse_is_the_adjugate_on_large_graphs(monkeypatch):
    # the benchmark's large inputs (C40 and P41 through the bordered matrix
    # that production inverts) and the minimum-degree-2 family
    for half in _both_halves(monkeypatch):
        for g in (cycle_graph(40), path_graph(41)):
            _assert_singular(A(g))
            _assert_is_adjugate(_bordered(A(g)), half)
        _assert_is_adjugate(A(fixture("fig6reg24")), half)
        for k in range(2, 17):
            _assert_is_adjugate(A(min_deg2_graph(k)), half)


@settings(max_examples=100, deadline=None)
@given(small_int_matrices)
def test_scaled_inverse_matches_det_adjugate_and_kernel(m):
    # the exact half on small integer matrices, singular or not
    if rank(m) < len(m):
        _assert_singular(m)
    else:
        assert scaled_inverse(m) == (det(m), adjugate(m))


@settings(max_examples=100, deadline=None)
@given(small_int_matrices)
def test_modular_inverse_is_the_adjugate_on_small_matrices(m):
    # the modular half: every cofactor of these matrices is far below p/2
    found = linalg._modular_inverse(m)
    if rank(m) < len(m):
        assert found is None
    else:
        d, x = found
        assert (d, x.tolist()) == (det(m), adjugate(m))


def test_scaled_inverse_refuses_what_the_prime_cannot_decide(monkeypatch):
    # the modular half refuses; the public call, with every order sent to
    # the modular half first, still returns the exact adjugate
    monkeypatch.setattr(linalg, "MODULAR_MIN_ORDER", 1)
    modular = linalg._modular_inverse
    # det = p: singular modulo p
    refused = [[[MODULUS, 0], [0, 1]], [[1 << 16, 1], [1, 1 << 15]]]
    assert all(det(a) == MODULUS for a in refused)
    # det = 3 * 2**30 lifts to a wrong residue, and the cofactor 3 * 2**30
    # exceeds p/2; the integer check refuses the lifted pair
    a = [[1 << 30, 0, 0], [0, 3, 0], [0, 0, 1]]
    assert max(max(map(abs, row)) for row in adjugate(a)) > MODULUS // 2
    refused.append(a)
    for a in refused:
        assert modular(a) is None
        assert scaled_inverse(a) == (det(a), adjugate(a))
    # a scaled result that does pass is exactly d A^-1, though not adj(A)
    d, x = modular([[2, 0], [0, 2]])
    assert mat_mul([[2, 0], [0, 2]], x.tolist()) == [[d, 0], [0, d]]


def test_scaled_inverse_keeps_overflowing_input_from_numpy(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} reached")

    monkeypatch.setattr(linalg, "np", NoNumpy())
    monkeypatch.setattr(linalg, "MODULAR_MIN_ORDER", 1)
    modular = linalg._modular_inverse
    # entries that fit int64, row sums that would not stay exact
    row = [1 << 29] * 5
    for a in ([[1 << 63]], [[-(1 << 64), 1], [1, 0]]):
        assert modular(a) is None
        assert scaled_inverse(a) == (det(a), adjugate(a))
    assert modular([row[:] for _ in range(5)]) is None
    _assert_singular([row[:] for _ in range(5)])
    assert modular([]) is None
    assert scaled_inverse([]) == (1, [])


def test_modular_adjugates_match_the_exact_route(connected_upto_7):
    # every connected graph with n <= 7 and chemical graph with n <= 10, one
    # stack per order: verified pairs are scaled_inverse's, and every
    # singular graph is certified (prod deg < p**2 for all of them)
    classes = [connected_upto_7[n] for n in range(1, 8)]
    classes += [list(enumerate_chemical(n)) for n in range(1, 11)]
    for graphs in classes:
        stack = np.array([A(g) for g in graphs], dtype=np.int64)
        status, d, x = linalg.modular_adjugates(stack)
        for k, g in enumerate(graphs):
            a = A(g)
            if rank(a) < g.n:
                assert status[k] == linalg.SINGULAR, g
            else:
                assert status[k] == linalg.ADJUGATE, g
                assert (int(d[k]), x[k].tolist()) == scaled_inverse(a), g


def test_hadamard_certificate_bounds_the_singular_verdict():
    # two singular cubic graphs either side of the certificate: the product
    # of the degrees is 3**38 < p**2 for one and 3**40 > p**2 for the other
    assert 3 ** 38 < MODULUS ** 2 < 3 ** 40
    for order, verdict in ((38, linalg.SINGULAR), (40, linalg.UNDECIDED)):
        a = A(cubic_with_twins(order))
        assert all(sum(row) == 3 for row in a) and rank(a) < order
        status, _, _ = linalg.modular_adjugates(np.array([a]))
        assert status.tolist() == [verdict]
    # their nonsingular prism neighbours are verified either way
    for k in (19, 20):
        a = A(prism(k))
        status, d, x = linalg.modular_adjugates(np.array([a]))
        assert status.tolist() == [linalg.ADJUGATE]
        assert (int(d[0]), x[0].tolist()) == scaled_inverse(a)


def test_modular_adjugates_leave_what_they_cannot_decide():
    # det = p and a cofactor beyond p/2 (see the single-matrix test above),
    # and a row too heavy for int64 products, in one stack with a good one
    stack = np.array([[[MODULUS, 0, 0], [0, 1, 0], [0, 0, 1]],
                      [[1 << 30, 0, 0], [0, 3, 0], [0, 0, 1]],
                      [[1 << 32, 0, 0], [0, 1, 0], [0, 0, 1]],
                      [[0, 1, 0], [1, 0, 1], [0, 1, 1]]])
    status, d, x = linalg.modular_adjugates(stack)
    assert status.tolist() == [linalg.UNDECIDED] * 3 + [linalg.ADJUGATE]
    assert (int(d[3]), x[3].tolist()) == (det(stack[3].tolist()),
                                          adjugate(stack[3].tolist()))


def test_small_modulus_keeps_the_modular_verdicts_exact(connected_upto_7,
                                                        monkeypatch):
    # with p = 3 or 5 most checks fail and most certificates do not hold;
    # what is still decided agrees with the exact route
    for p in (3, 5):
        monkeypatch.setattr(linalg, "MODULUS", p)
        seen = set()
        for n in range(1, 8):
            stack = np.array([A(g) for g in connected_upto_7[n]], dtype=np.int64)
            status, d, x = linalg.modular_adjugates(stack)
            for k, g in enumerate(connected_upto_7[n]):
                a = A(g)
                seen.add(int(status[k]))
                if status[k] == linalg.SINGULAR:
                    assert rank(a) < g.n
                elif status[k] == linalg.ADJUGATE:
                    dk, xk = int(d[k]), x[k].tolist()
                    assert dk and mat_mul(a, xk) == [[dk * (i == j) for j in range(n)]
                                                     for i in range(n)]
        assert seen == {linalg.ADJUGATE, linalg.SINGULAR, linalg.UNDECIDED}


def test_singular_matrix_of_modular_order_skips_the_augmented_echelon(monkeypatch):
    # from MODULAR_MIN_ORDER on, a matrix without a pivot modulo p gets its
    # kernel from the echelon of A alone, the kernel that the echelon of
    # [A | I] gave
    real = linalg._echelon
    widths = []
    monkeypatch.setattr(linalg, "_echelon",
                        lambda a: widths.append(len(a[0])) or real(a))
    for g in (cycle_graph(40), path_graph(41), cycle_graph(16), path_graph(17),
              cubic_with_twins(38), cubic_with_twins(40)):
        a = A(g)
        assert len(a) >= linalg.MODULAR_MIN_ORDER
        m, pivots, _ = real([row + [int(i == j) for j in range(len(a))]
                             for i, row in enumerate(a)])
        widths.clear()
        with pytest.raises(SingularMatrixError) as err:
            scaled_inverse(a)
        assert err.value.kernel == linalg._kernel(m, pivots, len(a))
        assert widths == [len(a)]


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
