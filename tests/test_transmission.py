"""Transmission curves and the Fermi-level bridge to device verdicts."""

import random
from fractions import Fraction

import pytest

from condgraph.conduction import device_verdict
from condgraph.fixtures import fixture
from condgraph.graphs import cycle_graph, path_graph
from condgraph.linalg import IntPolynomial
from condgraph.transmission import (DevicePolynomials, device_polynomials,
                                    evaluate_T, sweep)


def test_device_polynomials_k2():
    dp = device_polynomials(path_graph(2), 0, 1)
    assert dp.s == IntPolynomial([-1, 0, 1])
    assert dp.t == IntPolynomial([0, 1])
    assert dp.u == IntPolynomial([0, 1])
    assert dp.v == IntPolynomial([1])
    assert dp.jsq == IntPolynomial([1])


def test_device_polynomials_p3_crosscheck():
    # core-core device of the 3-path: the numerator square has no zero root,
    # yet the device conducts through the rank-drop rule; the T(0) bridge
    # still agrees because all four polynomials vanish to matching order
    dp = device_polynomials(path_graph(3), 0, 2)
    assert dp.jsq == IntPolynomial([1])
    assert device_verdict(path_graph(3), 0, 2).conducts
    assert evaluate_T(dp, 1.0, 0.0) == pytest.approx(1.0)


def test_device_polynomials_rejects_ipso():
    with pytest.raises(ValueError):
        device_polynomials(path_graph(3), 1, 1)


def test_device_polynomials_reject_contacts_outside_the_graph():
    # an index outside the graph would delete no vertex and silently give
    # another device's polynomials
    for left, right in ((0, 7), (7, 0), (-1, 2)):
        with pytest.raises(ValueError, match="out of range"):
            device_polynomials(path_graph(3), left, right)


def test_jsq_square_root_exists_small(connected_upto_7):
    for n in range(2, 6):
        for g in connected_upto_7[n]:
            for u in range(n):
                for v in range(u + 1, n):
                    assert device_polynomials(g, u, v).jsq.sqrt() is not None


def test_evaluate_T_k2_at_fermi():
    dp = device_polynomials(path_graph(2), 0, 1)
    assert evaluate_T(dp, 1.0, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        evaluate_T(dp, 0.0, 0.0)
    with pytest.raises(ValueError):
        evaluate_T(dp, -1.0, 0.0)


def test_transmission_physical_bound(connected_upto_7):
    # 10^4 random samples stay within [0, 1]
    rng = random.Random(4242)
    pool = [g for n in range(2, 8) for g in connected_upto_7[n]]
    for _ in range(10_000):
        g = rng.choice(pool)
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            v = (v + 1) % g.n
        dp = device_polynomials(g, u, v)
        beta_sq = rng.uniform(0.1, 10.0)
        e = rng.uniform(-3.0, 3.0)
        t = evaluate_T(dp, beta_sq, e)
        if t is not None:
            assert -1e-9 <= t <= 1 + 1e-9


def test_fermi_bridge_small(connected_upto_7):
    # T(0) vanishes exactly when the selection rules say insulate
    for n in range(2, 6):
        for g in connected_upto_7[n]:
            for u in range(n):
                for v in range(u + 1, n):
                    dp = device_polynomials(g, u, v)
                    t0 = evaluate_T(dp, 1.0, 0.0)
                    assert t0 is not None
                    conducts = device_verdict(g, u, v).conducts
                    assert (t0 != 0.0) == conducts


def test_sweep_k2():
    dp = device_polynomials(path_graph(2), 0, 1)
    curve = sweep(dp, 1.0, -2.0, 2.0, 5)
    assert len(curve.samples) == 5
    assert curve.excluded == ()
    mid = dict(curve.samples)[0.0]
    assert mid == pytest.approx(1.0)
    two = sweep(dp, 1.0, -1.0, 1.0, 2)
    assert [e for e, _ in two.samples] == [-1.0, 1.0]
    with pytest.raises(ValueError):
        sweep(dp, 1.0, 1.0, -1.0, 5)
    with pytest.raises(ValueError):
        sweep(dp, 1.0, -1.0, 1.0, 1)


def test_non_finite_numbers_are_named():
    dp = device_polynomials(path_graph(2), 0, 1)
    inf, nan = float("inf"), float("nan")
    for beta_sq in (inf, nan):
        with pytest.raises(ValueError, match="beta_sq"):
            sweep(dp, beta_sq, -1.0, 1.0, 5)
        with pytest.raises(ValueError, match="beta_sq"):
            evaluate_T(dp, beta_sq, 0.0)
    for e_min, e_max, name in ((-inf, 1.0, "e_min"), (nan, 1.0, "e_min"),
                               (-1.0, inf, "e_max"), (-1.0, nan, "e_max")):
        with pytest.raises(ValueError, match=name):
            sweep(dp, 1.0, e_min, e_max, 5)
    for energy in (inf, -inf, nan):
        with pytest.raises(ValueError, match="energy"):
            evaluate_T(dp, 1.0, energy)


def test_sweep_symmetric_for_bipartite_symmetric_device():
    # end-to-end device on the 4-path: T(E) = T(-E)
    dp = device_polynomials(path_graph(4), 0, 3)
    curve = sweep(dp, 1.0, -2.0, 2.0, 41)
    assert len(curve.samples) == 41
    for i in range(41):
        e, t = curve.samples[i]
        e_mirror, t_mirror = curve.samples[40 - i]
        assert e == pytest.approx(-e_mirror, abs=1e-12)
        assert t == pytest.approx(t_mirror, abs=1e-12)


def test_sweep_csv_format_and_exclusions():
    dp = device_polynomials(path_graph(2), 0, 1)
    text = sweep(dp, 1.0, -1.0, 1.0, 3).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "E,T"
    assert len(lines) == 4
    assert "# excluded" not in text
    # a degenerate polynomial set with an identically zero denominator
    # exercises the exclusion channel
    zero = IntPolynomial([])
    one = IntPolynomial([1])
    e_poly = IntPolynomial([0, 1])
    broken = DevicePolynomials(s=one, t=e_poly, u=-1 * e_poly, v=one,
                               jsq=zero)
    curve = sweep(broken, 1.0, -1.0, 1.0, 3)
    assert curve.samples == ()
    assert len(curve.excluded) == 3
    assert curve.to_csv().strip().splitlines()[-1].startswith("# excluded:")


def test_fermi_limit_strips_high_order_zeros():
    # C4 devices sit on a doubly singular graph: naive evaluation at 0 is
    # 0/0 but the stripped limit is finite and matches the verdict
    c4 = cycle_graph(4)
    dp = device_polynomials(c4, 0, 2)
    t0 = evaluate_T(dp, 1.0, 0.0)
    assert t0 is not None and t0 > 0
    assert device_verdict(c4, 0, 2).conducts
    dp = device_polynomials(c4, 0, 1)
    t0 = evaluate_T(dp, 1.0, 0.0)
    assert t0 == 0.0
    assert not device_verdict(c4, 0, 1).conducts


def test_large_cycle_matches_exact_rational_T():
    # C60 with adjacent contacts: the expanded polynomials cancel
    # catastrophically in floating point, so compare with T evaluated in
    # exact rationals from the same polynomials
    dp = device_polynomials(cycle_graph(60), 0, 1)
    b = Fraction(1)
    for energy in (-2.0, 1.7, 0.25):
        e = Fraction(energy)
        den = (dp.s(e) - dp.v(e) * b) ** 2 + (dp.t(e) + dp.u(e)) ** 2 * b
        exact = 4 * dp.jsq(e) * b / den
        assert evaluate_T(dp, 1.0, energy) == float(exact)
    assert evaluate_T(dp, 1.0, -2.0) == pytest.approx(0.80532, abs=1e-5)
    curve = sweep(dp, 1.0, -3.0, 3.0, 601)
    assert all(0.0 <= t <= 1.0 + 1e-12 for _, t in curve.samples)
