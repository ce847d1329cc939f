"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the per-criterion lines
with timings.  Everything is exact unless a tolerance is stated inline.
The heavyweight entries are criterion 5 (all nonsingular graphs on up to 8
vertices through the selection-rule walk and the inverse), criterion 9 (every graph on up to
9 vertices), and criterion 6 (cubic graphs on up to 14 vertices).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from condgraph.census import (enumerate_chemical, enumerate_connected,
                              run_census)
from condgraph.classify import conduction_isomorphism, is_conduction_isomorphic
from condgraph.conduction import Rule, booleanise, conduction_graph, device_verdict
from condgraph.families import (appendix_family_graph, appendix_witness,
                                canonical_double_cover, cdc_witness, corona,
                                corona_spectrum, corona_witness,
                                large_min_deg_graph, large_min_deg_witness,
                                min_deg2_graph, min_deg2_witness)
from condgraph.fixtures import fixture
from condgraph.graphs import (Graph, adjacency_matrix, connected_components,
                              cycle_graph, from_graph6, graph_from_adjacency,
                              is_bipartite, path_graph, star_graph)
from condgraph.isomorphism import are_isomorphic, verify_witness
from condgraph.linalg import (SingularMatrixError, char_poly_and_adjugate, det,
                              float_spectrum, kernel_basis, nullity)
from condgraph.transmission import device_polynomials, evaluate_T

from conftest import (conduction_by_rules, cubic_degree_theorem_check,
                      fraction_inverse, reference_device)


@contextmanager
def criterion(num, title):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2}] {title}: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"\n[criterion {num:2}] {title}: PASS ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="module")
def connected_census():
    """Census of all connected graphs with up to 8 vertices."""
    summaries = {}
    records = []
    for n in range(1, 9):
        summary, recs = run_census(enumerate_connected(n))
        summaries[n] = summary.row(n)
        records.extend(recs)
    return summaries, records


@pytest.fixture(scope="module")
def chemical_census():
    summaries = {}
    records = []
    for n in range(1, 13):
        summary, recs = run_census(enumerate_chemical(n))
        summaries[n] = summary.row(n)
        records.extend(recs)
    return summaries, records


TABLE_CONNECTED = {1: (1, 0, 0), 2: (1, 1, 0), 3: (2, 0, 0), 4: (6, 1, 0),
                   5: (21, 0, 0), 6: (112, 4, 2), 7: (853, 0, 0),
                   8: (11117, 33, 24)}

TABLE_CHEMICAL_TOTALS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 10, 6: 29, 7: 64, 8: 194,
                         9: 531, 10: 1733, 11: 5524, 12: 19430}
TABLE_CHEMICAL_CI = {1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 3, 7: 0, 8: 5, 9: 0,
                     10: 3, 11: 0, 12: 4}
TABLE_CHEMICAL_CI_NONBIP = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 0, 8: 0,
                            9: 0, 10: 1, 11: 0, 12: 0}


def test_criterion_01_connected_census(connected_census):
    with criterion(1, "connected census n=1..8"):
        summaries, _ = connected_census
        for n, expected in TABLE_CONNECTED.items():
            assert summaries[n] == expected, f"n={n}: {summaries[n]} != {expected}"


def test_criterion_02_chemical_census(chemical_census):
    with criterion(2, "chemical census n=1..12"):
        summaries, _ = chemical_census
        for n in range(1, 13):
            total, ci, nonbip = summaries[n]
            assert total == TABLE_CHEMICAL_TOTALS[n], f"n={n} total {total}"
            assert ci == TABLE_CHEMICAL_CI[n], f"n={n} cond-iso {ci}"
            assert nonbip == TABLE_CHEMICAL_CI_NONBIP[n], f"n={n} nonbip {nonbip}"


def test_criterion_03_small_conduction_graphs():
    with criterion(3, "conduction graphs on <= 4 vertices"):
        expected = [
            (Graph.from_edges(1, []), Graph.from_edges(1, [], loops=[0])),
            (path_graph(2), path_graph(2)),
            (path_graph(3), Graph.from_edges(3, [(0, 2)], loops=[0, 2])),
            (cycle_graph(3), Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)],
                                              loops=[0, 1, 2])),
            (path_graph(4), Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])),
            (star_graph(3), Graph.from_edges(4, [], loops=[1, 2, 3])),
            (fixture("paw"), Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)],
                                              loops=[2])),
            (cycle_graph(4), Graph.from_edges(4, [(0, 1), (2, 3)],
                                              loops=[0, 1, 2, 3])),
            (fixture("diamond"), Graph.from_edges(4, [(0, 1), (2, 3)],
                                                  loops=[0, 1, 2, 3])),
            (fixture("k4"), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2),
                                                 (1, 3), (2, 3)],
                                             loops=[0, 1, 2, 3])),
        ]
        for g, answer in expected:
            got = conduction_graph(g).graph
            assert are_isomorphic(got, answer), g
        # text highlights: C4 and the diamond share 2 K2-with-loops
        c4c = conduction_graph(cycle_graph(4)).graph
        diamondc = conduction_graph(fixture("diamond")).graph
        assert are_isomorphic(c4c, diamondc)
        assert is_conduction_isomorphic(path_graph(2))
        assert is_conduction_isomorphic(path_graph(4))


def test_criterion_04_odd_order_ipso_omni_insulator():
    with criterion(4, "order-15 ipso omni-insulator"):
        g = fixture("ipso15")
        a = adjacency_matrix(g)
        assert nullity(a) == 0
        inv = fraction_inverse(a)
        assert all(inv[i][i] == 0 for i in range(15))


def test_criterion_05_inverse_oracle_equivalence():
    with criterion(5, "selection rules == booleanised inverse, n<=8"):
        seen = 0
        checked = 0
        for n in range(2, 9):
            for g in enumerate_connected(n):
                seen += 1
                a = adjacency_matrix(g)
                if det(a) == 0:
                    continue
                by_rules = conduction_by_rules(g).graph
                by_inverse = graph_from_adjacency(
                    booleanise(fraction_inverse(a)))
                assert by_rules == by_inverse, g
                checked += 1
        assert seen == 12112  # all connected graphs on 2..8 vertices
        assert checked == 6131  # the nonsingular ones


def test_criterion_06_no_cubic_conduction_isomorphic():
    with criterion(6, "3-regular graphs n<=14: conduction degree >= 4"):
        seen = 0
        checked = 0
        for n in range(4, 15, 2):
            for g in enumerate_chemical(n, regular=3):
                seen += 1
                assert not is_conduction_isomorphic(g)
                try:
                    assert cubic_degree_theorem_check(g), \
                        f"theorem contradicted at n={n}: {g}"
                except SingularMatrixError:
                    continue  # theorem speaks about nullity 0 only
                checked += 1
        assert seen == 621     # connected cubic graphs on 4..14 vertices
        assert checked == 366  # the nonsingular ones


def _check_family_instance(g, witness):
    assert is_conduction_isomorphic(g)
    cg = conduction_graph(g).graph
    assert cg.loops == 0
    assert verify_witness(g, cg, witness)


def test_criterion_07_families(connected_census):
    with criterion(7, "family generators + witness maps"):
        for k in range(2, 9):
            _check_family_instance(min_deg2_graph(k), min_deg2_witness(k))
        for k in range(3, 11):
            _check_family_instance(large_min_deg_graph(k), large_min_deg_witness(k))
        for k in range(3, 9):
            _check_family_instance(appendix_family_graph(k), appendix_witness(k))
        for n in range(1, 5):
            for base in enumerate_connected(n):
                for reps in range(1, 4):
                    g = corona(base, reps)
                    _check_family_instance(g, corona_witness(g.n))
        # double covers over the non-bipartite census positives
        _, records = connected_census
        bases = [from_graph6(r.graph6) for r in records
                 if r.cond_iso and not r.bipartite]
        assert len(bases) == 2 + 24
        for base in bases:
            witness = cdc_witness(conduction_isomorphism(base))
            _check_family_instance(canonical_double_cover(base), witness)


def test_criterion_08_corona_spectrum():
    with criterion(8, "corona spectrum formula, bases n<=6 (1e-9)"):
        for n in range(1, 7):
            for base in enumerate_connected(n):
                predicted = corona_spectrum(float_spectrum(adjacency_matrix(base)))
                direct = float_spectrum(adjacency_matrix(corona(base)))
                assert len(predicted) == len(direct) == 2 * n
                assert all(abs(p - d) < 1e-9 for p, d in zip(predicted, direct))


def test_criterion_09_nut_characterisation():
    with criterion(9, "nut <=> connected conduction graph, n<=9"):
        nut_counts = {7: 0, 8: 0, 9: 0}
        checked = 0
        for n in range(2, 10):
            for g in enumerate_connected(n):
                a = adjacency_matrix(g)
                if det(a) != 0 or nullity(a) != 1:
                    continue
                checked += 1
                basis = kernel_basis(a)
                full_kernel = all(x != 0 for x in basis[0])
                # independent route: rank-one adjugate, nonzero diagonal
                adj = char_poly_and_adjugate(a)[1]
                adjugate_full = all(adj[i][i] != 0 for i in range(n))
                assert full_kernel == adjugate_full, g
                by_rules = conduction_graph(g).graph
                # the walk decides core pairs without a double deletion; the
                # rank-one adjugate, nonzero exactly on core x core, is an
                # independent oracle for the core rows
                walk = adjacency_matrix(by_rules)
                pattern = booleanise(adj)
                for i in range(n):
                    if adj[i][i]:
                        assert walk[i] == pattern[i], (g, i)
                connected = len(connected_components(by_rules)) == 1
                assert connected == full_kernel, g
                if full_kernel and n >= 7:
                    nut_counts[n] += 1
        assert nut_counts == {7: 3, 8: 13, 9: 560}
        assert checked > 40_000


def test_criterion_10_jacobi_and_fermi_bridge():
    with criterion(10, "Jacobi square + T(0) bridge, n<=7"):
        devices = 0
        for n in range(2, 8):
            for g in enumerate_connected(n):
                for u in range(n):
                    for v in range(u + 1, n):
                        dp = device_polynomials(g, u, v)
                        assert dp.jsq.sqrt() is not None, (g, u, v)
                        t0 = evaluate_T(dp, 1.0, 0.0)
                        assert t0 is not None
                        conducts = device_verdict(g, u, v).conducts
                        assert (t0 != 0.0) == conducts, (g, u, v)
                        devices += 1
        assert devices > 19_000


def test_criterion_11_six_regular_fixture():
    with criterion(11, "24-vertex 6-regular conduction degrees"):
        g = fixture("fig6reg24")
        cg = conduction_graph(g).graph
        degree_six = sum(1 for v in range(24) if cg.neighbor_count(v) == 6)
        assert degree_six == 18
        assert cg.loops == 0
        assert not is_conduction_isomorphic(g)


def test_supporting_jtest_exponent_against_floating_oracle():
    """Validation demanded by the design notes: the exact equal-nullity rule
    (zero-root count of u*t - s*v equals twice the nullity) must agree with
    the floating eigenvector sum j_a on every equal-nullity device, here for
    all connected graphs on up to 7 vertices.  Both the signature and the
    rule come from the tests' reference (direct deletions, the polynomial
    j-test), not from the bordered adjugate the library reads."""
    t0 = time.time()
    agree = 0
    for n in range(2, 8):
        for g in enumerate_connected(n):
            a = None
            pinv = None
            for u in range(n):
                for v in range(u + 1, n):
                    sig, ref = reference_device(g, u, v)
                    if len(set([sig.eta_g, sig.eta_gu, sig.eta_gv,
                                sig.eta_guv])) != 1:
                        continue
                    if pinv is None:
                        a = np.array(adjacency_matrix(g), dtype=float)
                        pinv = np.linalg.pinv(a, rcond=1e-10)
                    assert ref.rule is Rule.EQUAL_NULLITY_JTEST
                    exact = ref.conducts
                    floating = abs(pinv[u][v]) > 1e-8
                    assert exact == floating, (g, u, v)
                    agree += 1
    assert agree > 1000
    print(f"\n[supporting] j-test exponent vs floating j_a oracle: "
          f"{agree} equal-nullity devices agree ({time.time() - t0:.1f}s)")
