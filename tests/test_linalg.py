"""Exact linear algebra against brute-force and floating oracles."""

import warnings
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgraph import linalg
from condgraph.census import enumerate_chemical, enumerate_connected
from condgraph.families import min_deg2_graph
from condgraph.fixtures import fixture
from condgraph.graphs import (adjacency_matrix, complete_bipartite_graph,
                              complete_graph, cycle_graph, path_graph)
from condgraph.linalg import (MODULUS, IntPolynomial, SingularMatrixError,
                              char_poly, char_poly_and_adjugate, det,
                              bordered_inverse, float_spectrum, kernel_basis,
                              nullity, rank)

from conftest import (cofactor_adjugate, count_linalg_calls, cubic_with_twins,
                      fraction_inverse, prism, rational_rref_rank)


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
    assert fraction_inverse(A(path_graph(2))) == [[0, 1], [1, 0]]
    # frozen 4x4 rational elimination; all nonzero entries sit on
    # odd-distance pairs of the path
    p4 = fraction_inverse(A(path_graph(4)))
    assert p4 == [[0, 1, 0, -1], [1, 0, 0, 0], [0, 0, 0, 1], [-1, 0, 1, 0]]
    dist_odd = {(0, 1), (1, 0), (0, 3), (3, 0), (2, 3), (3, 2), (1, 2), (2, 1)}
    assert all(p4[i][i] == 0 for i in range(4))
    assert all((i, j) in dist_odd for i in range(4) for j in range(4) if p4[i][j])
    with pytest.raises(SingularMatrixError) as err:
        fraction_inverse(A(cycle_graph(4)))
    assert err.value.nullity == 2
    assert err.value.kernel == kernel_basis(A(cycle_graph(4)))
    with pytest.raises(SingularMatrixError) as err:
        fraction_inverse([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert err.value.kernel == [[2, -3]]


def test_inverse_times_matrix_is_identity(connected_upto_7):
    for g in connected_upto_7[5] + connected_upto_7[6][:40]:
        a = A(g)
        if det(a) == 0:
            continue
        prod = mat_mul(a, fraction_inverse(a))
        assert prod == [[Fraction(i == j) for j in range(g.n)] for i in range(g.n)]


def test_adjugate_examples():
    assert char_poly_and_adjugate(A(path_graph(2)))[1] == [[0, -1], [-1, 0]]
    adj = char_poly_and_adjugate(A(path_graph(3)))[1]
    # rank one, proportional to the outer product of the kernel vector
    x = [1, 0, -1]
    alpha = adj[0][0] // (x[0] * x[0])
    assert adj == [[alpha * x[i] * x[j] for j in range(3)] for i in range(3)]


@settings(max_examples=60, deadline=None)
@given(small_int_matrices)
def test_adjugate_matches_cofactor_oracle(m):
    assert char_poly_and_adjugate(m)[1] == cofactor_adjugate(m)


def test_adjugate_identity_and_inverse_relation(connected_upto_7, rng):
    for n in range(2, 7):
        for g in rng.sample(connected_upto_7[n], min(25, len(connected_upto_7[n]))):
            a = A(g)
            adj = char_poly_and_adjugate(a)[1]
            d = det(a)
            assert mat_mul(a, adj) == [[d * (i == j) for j in range(g.n)]
                                       for i in range(g.n)]
            if d != 0:
                inv = fraction_inverse(a)
                assert all(Fraction(adj[i][j], d) == inv[i][j]
                           for i in range(g.n) for j in range(g.n))


# ---------------------------------------------------------------------------
# the bordered inverse: the modular half and the exact half
# ---------------------------------------------------------------------------

def _border(a, kernel):
    return [row + [vec[i] for vec in kernel] for i, row in enumerate(a)] \
        + [vec + [0] * len(kernel) for vec in kernel]


def _both_halves(monkeypatch):
    """Send every order to each route of bordered_inverse in turn, and log
    whether each modular attempt passed its check: a crossover of 65 keeps
    orders <= 64 exact; 1 tries the prime first, with LAPACK's proposal
    declined; 1 with the proposal on decides a nonsingular matrix before
    the prime is tried."""
    attempts = []
    real = linalg._modular_bordered
    proposal = linalg._lapack_inverse

    def recorded(*args):
        out = real(*args)
        attempts.append(out[1] is not None)
        return out

    monkeypatch.setattr(linalg, "_modular_bordered", recorded)
    for cut, proposes in ((65, False), (1, False), (1, True)):
        monkeypatch.setattr(linalg, "MODULAR_MIN_ORDER", cut)
        monkeypatch.setattr(linalg, "_lapack_inverse",
                            proposal if proposes else lambda ai: None)
        yield cut, proposes, attempts


def _assert_bordered_inverse(a, half):
    """bordered_inverse(a) is (Z, det(M), adj(M)) for Z = kernel_basis(a)
    and M = A bordered by Z (M = A when A is nonsingular), and the route
    under test decided: no modular attempt below the crossover, none for a
    nonsingular A when LAPACK proposes, and otherwise one that passed its
    check.  Returns Z."""
    cut, proposes, attempts = half
    attempts.clear()
    z = kernel_basis(a)
    m = _border(a, z)
    assert bordered_inverse(a) == (z, det(m), char_poly_and_adjugate(m)[1])
    modular = len(a) >= cut and not (proposes and not z)
    assert attempts == ([True] if modular else [])
    return z


def test_bordered_inverse_is_the_adjugate_on_connected_graphs(connected_upto_7,
                                                              monkeypatch):
    # every connected graph with n <= 8: the adjugate of A when nonsingular,
    # the kernel basis and the adjugate of the bordered matrix otherwise
    graphs = [g for n in range(1, 8) for g in connected_upto_7[n]]
    graphs += list(enumerate_connected(8))
    for half in _both_halves(monkeypatch):
        checked = sum(not _assert_bordered_inverse(A(g), half) for g in graphs)
        assert checked == 0 + 1 + 1 + 3 + 8 + 52 + 342 + 5724  # n = 1..8


def test_bordered_inverse_is_the_adjugate_on_chemical_graphs(monkeypatch):
    # the 917 nonsingular chemical graphs with n = 10 and the 816 singular
    # ones, whose bordered matrix conduction_graph inverts
    graphs = list(enumerate_chemical(10))
    for half in _both_halves(monkeypatch):
        singular = sum(bool(_assert_bordered_inverse(A(g), half))
                       for g in graphs)
        assert singular == 816
    assert len(graphs) == 1733


def test_bordered_inverse_is_the_adjugate_on_large_graphs(monkeypatch):
    # the benchmark's large inputs (C40 and P41 of nullity 2 and 1) and the
    # minimum-degree-2 family
    for half in _both_halves(monkeypatch):
        for g, eta in ((cycle_graph(40), 2), (path_graph(41), 1)):
            assert len(_assert_bordered_inverse(A(g), half)) == eta
        assert _assert_bordered_inverse(A(fixture("fig6reg24")), half) == []
        for k in range(2, 17):
            assert _assert_bordered_inverse(A(min_deg2_graph(k)), half) == []


def _assert_singular(a):
    """The echelon of [A | I] raises with the kernel basis of a singular A."""
    with pytest.raises(SingularMatrixError) as err:
        linalg._exact_inverse(a)
    assert err.value.nullity == nullity(a)
    assert err.value.kernel == kernel_basis(a)


@settings(max_examples=100, deadline=None)
@given(small_int_matrices)
def test_bordered_inverse_matches_det_adjugate_and_kernel(m):
    # the exact half on small integer matrices, symmetric or not: an empty
    # border and the adjugate when nonsingular; otherwise the kernel basis
    # from the echelon (M need not be invertible for a non-symmetric A)
    if rank(m) < len(m):
        _assert_singular(m)
    else:
        assert bordered_inverse(m) == ([], det(m), char_poly_and_adjugate(m)[1])


@settings(max_examples=100, deadline=None)
@given(small_int_matrices)
def test_modular_bordered_is_the_adjugate_on_small_matrices(m):
    # the modular half: every minor of these matrices is far below p/2, so a
    # nonsingular one gets its adjugate and a singular one its exact kernel
    kernel, found = linalg._modular_bordered(m)
    assert kernel == kernel_basis(m)
    if not kernel:
        d, x = found
        assert (d, x.tolist()) == (det(m), char_poly_and_adjugate(m)[1])


def test_bordered_inverse_refuses_what_the_prime_cannot_decide(monkeypatch):
    # the modular half refuses; the public call, with every order sent to
    # the modular half first, still returns the exact adjugate
    monkeypatch.setattr(linalg, "MODULAR_MIN_ORDER", 1)
    modular = linalg._modular_bordered
    # det = p: singular modulo p, and the lifted kernel fails its check
    refused = [[[MODULUS, 0], [0, 1]], [[1 << 16, 1], [1, 1 << 15]]]
    assert all(det(a) == MODULUS for a in refused)
    for a in refused:
        assert modular(a) == (None, None)
    # det = 3 * 2**30 lifts to a wrong residue, and the cofactor 3 * 2**30
    # exceeds p/2; the integer check refuses the lifted pair
    a = [[1 << 30, 0, 0], [0, 3, 0], [0, 0, 1]]
    adj = char_poly_and_adjugate(a)[1]
    assert max(max(map(abs, row)) for row in adj) > MODULUS // 2
    assert modular(a) == ([], None)
    refused.append(a)
    for a in refused:
        assert bordered_inverse(a) == ([], det(a), char_poly_and_adjugate(a)[1])
    # a result that passes its check is exactly d A^-1
    kernel, (d, x) = modular([[2, 0], [0, 2]])
    assert kernel == [] and mat_mul([[2, 0], [0, 2]], x.tolist()) == [[d, 0], [0, d]]


def test_bordered_inverse_keeps_overflowing_input_from_numpy(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} reached")

    monkeypatch.setattr(linalg, "np", NoNumpy())
    monkeypatch.setattr(linalg, "MODULAR_MIN_ORDER", 1)
    modular = linalg._modular_bordered
    # entries that fit int64, row sums that would not stay exact
    for a in ([[1 << 63]], [[-(1 << 64), 1], [1, 0]]):
        assert modular(a) == (None, None)
        assert bordered_inverse(a) == ([], det(a), char_poly_and_adjugate(a)[1])
    heavy = [[1 << 29] * 5 for _ in range(5)]
    assert modular(heavy) == (None, None)
    _assert_singular(heavy)
    z = kernel_basis(heavy)
    m = _border(heavy, z)
    assert bordered_inverse(heavy) == (z, det(m), char_poly_and_adjugate(m)[1])
    assert modular([]) == (None, None)
    assert bordered_inverse([]) == ([], 1, [])


def test_modular_adjugates_match_the_exact_route(connected_upto_7):
    # every connected graph with n <= 7 and chemical graph with n <= 10, one
    # stack per order: verified pairs are bordered_inverse's, and every
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
                assert bordered_inverse(a) == ([], int(d[k]), x[k].tolist()), g


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
        assert bordered_inverse(a) == ([], int(d[0]), x[0].tolist())
    # the connected worst case is K_n, whose degree product is (n-1)**n, so
    # every connected graph with n <= 15 is certified; K_n minus an edge is
    # singular (the ends of the edge have equal rows) on either side
    assert 14 ** 15 < MODULUS ** 2 < 15 ** 16
    for order, verdict in ((15, linalg.SINGULAR), (16, linalg.UNDECIDED)):
        a = A(complete_graph(order))
        a[0][1] = a[1][0] = 0
        assert rank(a) < order
        status, _, _ = linalg.modular_adjugates(np.array([a]))
        assert status.tolist() == [verdict]


def test_modular_adjugates_leave_what_they_cannot_decide():
    # det = p and a cofactor beyond p/2 (see the single-matrix test above),
    # and a row too heavy for int64 products, in one stack with a good one
    stack = np.array([[[MODULUS, 0, 0], [0, 1, 0], [0, 0, 1]],
                      [[1 << 30, 0, 0], [0, 3, 0], [0, 0, 1]],
                      [[1 << 32, 0, 0], [0, 1, 0], [0, 0, 1]],
                      [[0, 1, 0], [1, 0, 1], [0, 1, 1]]])
    status, d, x = linalg.modular_adjugates(stack)
    assert status.tolist() == [linalg.UNDECIDED] * 3 + [linalg.ADJUGATE]
    good = stack[3].tolist()
    assert (int(d[3]), x[3].tolist()) == (det(good),
                                          char_poly_and_adjugate(good)[1])


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


def _count_echelons(monkeypatch):
    widths = []
    real = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda a: widths.append(len(a[0])) or real(a))
    return widths


def test_singular_matrix_of_modular_order_skips_the_augmented_echelon(monkeypatch):
    # from MODULAR_MIN_ORDER on, a matrix without a pivot modulo p gets its
    # kernel from the modular elimination, lifted and checked, and the same
    # pass eliminates the bordered matrix, without any exact echelon; the
    # kernel is the basis of kernel_basis and of the echelon of [A | I]
    graphs = (cycle_graph(40), path_graph(41), cycle_graph(16), path_graph(17),
              cubic_with_twins(38), cubic_with_twins(40))
    expected = []
    for g in graphs:
        a = A(g)
        assert len(a) >= linalg.MODULAR_MIN_ORDER
        m, pivots, _ = linalg._echelon([row + [int(i == j) for j in range(len(a))]
                                        for i, row in enumerate(a)])
        assert linalg._kernel(m, pivots, len(a)) == kernel_basis(a)
        expected.append(kernel_basis(a))
    widths = _count_echelons(monkeypatch)
    for g, kernel in zip(graphs, expected):
        assert bordered_inverse(A(g))[0] == kernel
    assert widths == []


def test_rational_reconstruction():
    p = MODULUS
    bound = isqrt(p // 2)
    assert 2 * bound * bound < p
    for num, den in ((0, 1), (1, 1), (-1, 1), (3, 7), (-bound, bound - 1),
                     (bound, 1), (-5, bound - 1)):
        assert linalg._rational(num * pow(den, -1, p) % p, p, bound) == (num, den)
    # beyond the bound: 40000 has no representative within it
    assert linalg._rational(40000, p, bound) is None


def test_lifted_kernel_falls_back_to_the_echelon(monkeypatch):
    # order 16, and a lift that fails either way: a kernel entry 40000 beyond
    # isqrt(p/2), and a rank that drops modulo p, where the residue vector
    # lifts to small integers but is not in the kernel; each time the exact
    # echelon of A gives the basis
    n = 16
    big = [[int(i == j) for j in range(n)] for i in range(n)]
    big[0][1], big[1][1] = -40000, 0
    drop = [[int(i == j) for j in range(n)] for i in range(n)]
    drop[0][0], drop[0][1], drop[1][1] = MODULUS, 1, 0
    assert kernel_basis(big) == [[40000, 1] + [0] * (n - 2)]
    assert kernel_basis(drop) == [[1, -MODULUS] + [0] * (n - 2)]
    widths = _count_echelons(monkeypatch)
    for a, kernel in ((big, [40000, 1]), (drop, [1, -MODULUS])):
        assert linalg._modular_bordered(a) == (None, None)
        widths.clear()
        assert bordered_inverse(a)[0] == [kernel + [0] * (n - 2)]
        assert widths == [n, 2 * (n + 1)]


def test_nonsingular_matrix_that_fails_the_check_costs_one_echelon(monkeypatch):
    # order 16, A = diag(2**30, 3, 1, ...): the modular pass finds every
    # pivot, but the cofactor 3 * 2**30 exceeds p/2 and the check refuses
    # the lifted pair; the echelon of [A | I] then gives det(A) and adj(A),
    # with no echelon of A alone before it
    n = 16
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    a[0][0], a[1][1] = 1 << 30, 3
    expected = ([], det(a), char_poly_and_adjugate(a)[1])
    assert expected[1] == 3 << 30
    assert linalg._modular_bordered(a) == ([], None)
    widths = _count_echelons(monkeypatch)
    assert bordered_inverse(a) == expected
    assert widths == [2 * n]


# ---------------------------------------------------------------------------
# the bordered inverse: LAPACK proposes, the integers decide
# ---------------------------------------------------------------------------

def _modular_route(a):
    """(Z, d, X) as the modular pass gives it for a nonsingular A."""
    kernel, (d, x) = linalg._modular_bordered(a)
    return kernel, d, x.tolist()


def test_wrong_lapack_inverse_leaves_the_matrix_to_the_prime(monkeypatch):
    # one entry of LAPACK's inverse off by 1 puts an entry of X off by d, so
    # A X = d I fails; an entry that is not a number fails the bound on |X|
    # before any cast to int64 (which would warn).  Either way the modular
    # pass decides, as if LAPACK were absent.
    graphs = (min_deg2_graph(16), fixture("fig6reg24"))
    expected = [_modular_route(A(g)) for g in graphs]
    real = np.linalg.inv
    skew = {}

    def skewed(m):
        out = real(m)
        out[3, 5] = skew["entry"](out[3, 5])
        return out

    monkeypatch.setattr(np.linalg, "inv", skewed)
    attempts = count_linalg_calls(monkeypatch, "_modular_bordered")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (lambda x: x + 1, lambda x: np.nan):
            skew["entry"] = entry
            for g, route in zip(graphs, expected):
                attempts["_modular_bordered"] = 0
                assert bordered_inverse(A(g)) == route
                assert attempts["_modular_bordered"] == 1


def test_wrong_lapack_determinant_is_refused_or_still_exact(monkeypatch):
    # a determinant that rounds to 0, lies beyond p/2 or is not a number is
    # refused before any inverse; det(fig6reg24) + 1 = 11665 is coprime to
    # det = 11664, so 11665 A^-1 is not integral and the check refuses it.
    # Either way the modular pass decides.  min_deg2_graph(16) has det 1, so
    # A^-1 is integral and a wrong d = 2 passes the check with X = 2 A^-1:
    # a different pair, but still exactly d A^-1.
    real_det, real_inv = np.linalg.det, np.linalg.inv
    wrong = {}
    inverses = []
    monkeypatch.setattr(np.linalg, "det", lambda m: wrong["det"](real_det(m)))
    monkeypatch.setattr(np.linalg, "inv",
                        lambda m: inverses.append(m) or real_inv(m))
    for g, d in ((min_deg2_graph(16), 1), (fixture("fig6reg24"), 11664)):
        a = A(g)
        route = _modular_route(a)
        assert route[1] == d
        for refused in (0.4, float(MODULUS), float("nan"), -float("inf")):
            wrong["det"] = lambda x: refused
            assert bordered_inverse(a) == route
        assert inverses == []
        wrong["det"] = lambda x: x + 1
        if d == 1:
            assert bordered_inverse(a) == ([], 2, [[2 * v for v in row]
                                                   for row in route[2]])
        else:
            assert bordered_inverse(a) == route
        assert len(inverses) == 1
        inverses.clear()


def test_singular_matrix_pays_no_lapack_inverse(monkeypatch):
    # LAPACK's determinant of these singular graphs rounds to 0, so no
    # inverse is formed and the one modular pass finds the kernel
    graphs = (cycle_graph(40), path_graph(41), cubic_with_twins(40),
              complete_bipartite_graph(6, 20))
    expected = [kernel_basis(A(g)) for g in graphs]
    inverses = []
    real = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(m) or real(m))
    counts = count_linalg_calls(monkeypatch, "_modular_echelon")
    for g, kernel in zip(graphs, expected):
        assert kernel and bordered_inverse(A(g))[0] == kernel
    assert inverses == [] and counts["_modular_echelon"] == len(graphs)


# ---------------------------------------------------------------------------
# the bordered inverse: one modular pass for the kernel and the border
# ---------------------------------------------------------------------------

def test_mul_mod_matches_python_integers():
    # residues next to p in every limb, at an inner dimension of 64
    rng = np.random.default_rng(7)
    x = rng.integers(MODULUS - 4, MODULUS, (3, 64))
    x[0] = rng.integers(0, MODULUS, 64)
    y = rng.integers(MODULUS - (1 << 20), MODULUS, (64, 5))
    expected = [[sum(int(u) * int(v) for u, v in zip(row, col)) % MODULUS
                 for col in y.T] for row in x]
    assert linalg._mul_mod(x, y).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(small_int_matrices)
def test_modular_bordered_matches_the_exact_route_on_small_matrices(m):
    # symmetric matrices from the upper triangle: every kernel fraction is a
    # ratio of minors far below isqrt(p/2), so the kernel always lifts; the
    # bordered result, when its check passes, is d M^-1 for the exact
    # (det(M), adj(M)) that bordered_inverse returns below the crossover
    n = len(m)
    a = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    kernel, found = linalg._modular_bordered(a)
    assert kernel == kernel_basis(a)
    bordered = _border(a, kernel)
    det_m, adj = det(bordered), char_poly_and_adjugate(bordered)[1]
    assert bordered_inverse(a) == (kernel, det_m, adj)
    if found is not None:
        d, x = found
        assert d and [[det_m * v for v in row] for row in x.tolist()] \
            == [[d * v for v in row] for row in adj]


def test_bordered_inverse_keeps_heavy_border_rows_from_numpy():
    # order 16: A = [[0, C], [C^T, 0]] (+) I with C = [[d1, 0, -n1],
    # [0, d2, -n2]] has the one kernel vector (n1 d2, n2 d1, d1 d2) on the
    # C^T side; its fractions n1/d1 and n2/d2 lift, but its absolute sum
    # exceeds 2**31, so the border row must not reach int64 products and M
    # goes to the exact route
    d1, d2, n1, n2 = 32749, 32719, 32717, 32713
    n = 16
    a = [[int(i == j >= 5) for j in range(n)] for i in range(n)]
    for i, row in enumerate([[d1, 0, -n1], [0, d2, -n2]]):
        for j, x in enumerate(row):
            a[i][2 + j] = a[2 + j][i] = x
    kernel = [[0, 0, n1 * d2, n2 * d1, d1 * d2] + [0] * (n - 5)]
    assert kernel_basis(a) == kernel
    assert sum(kernel[0]) > linalg._MAX_ROW_SUM > max(kernel[0])
    assert linalg._modular_bordered(a) == (kernel, None)
    bordered = _border(a, kernel)
    z, d, x = bordered_inverse(a)
    assert (z, d) == (kernel, det(bordered))
    assert mat_mul(bordered, x) == [[d * (i == j) for j in range(n + 1)]
                                    for i in range(n + 1)]


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
                assert p.trailing_zero_count() == nullity(a)
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
            if p.is_zero() or p(0) != 0 or p.trailing_zero_count() != 1:
                continue
            x = kernel_basis(a)[0]
            adj = char_poly_and_adjugate(a)[1]
            alpha = (-1) ** (g.n - 1) * p.coeffs[1]
            xx = sum(xi * xi for xi in x)
            assert all(adj[i][j] * xx == alpha * x[i] * x[j]
                       for i in range(g.n) for j in range(g.n))


def test_zero_root_multiplicity_examples():
    assert IntPolynomial([0, -3, 0, 1]).trailing_zero_count() == 1  # E^3 - 3E
    sq = IntPolynomial([0, 1]) * IntPolynomial([-1, 1])
    assert (sq * sq).trailing_zero_count() == 2
    assert IntPolynomial([5]).trailing_zero_count() == 0
    with pytest.raises(ValueError):
        IntPolynomial([]).trailing_zero_count()


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
