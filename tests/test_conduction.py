"""Device verdicts, booleanisation, and the two construction routes."""

from fractions import Fraction

import pytest

from condgraph import linalg
from condgraph.census import enumerate_connected
from condgraph.classify import is_uniform_core_graph
from condgraph.conduction import (BorderedAdjugate, ConductionGraph, DeviceVerdict,
                                  Rule, analyse, booleanise, conduction_graph,
                                  device_verdict, graph_nullity,
                                  inverse_conduction_pattern, nullity_signature)
from condgraph.families import min_deg2_graph
from condgraph.fixtures import fixture
from condgraph.graphs import (Graph, adjacency_matrix, complete_bipartite_graph,
                              complete_graph, cycle_graph, graph_from_adjacency,
                              path_graph, star_graph)
from condgraph.isomorphism import are_isomorphic, canonical_form
from condgraph.linalg import char_poly_and_adjugate, det, kernel_basis

from conftest import (conduction_by_rules, count_linalg_calls, cubic_with_twins,
                      fraction_inverse, reference_device, sub_nullity)


def test_booleanise_examples():
    assert booleanise([[Fraction(1, 2), 0], [0, -2]]) == [[2, 0], [0, 2]]
    assert booleanise(fraction_inverse(adjacency_matrix(path_graph(2)))) \
        == [[0, 1], [1, 0]]
    p4c = booleanise(fraction_inverse(adjacency_matrix(path_graph(4))))
    assert graph_from_adjacency(p4c) == Graph.from_edges(4, [(0, 1), (0, 3), (2, 3)])
    assert are_isomorphic(graph_from_adjacency(p4c), path_graph(4))
    with pytest.raises(ValueError):
        booleanise([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        booleanise([[0, 1]])


def test_nullity_signature_examples():
    sig = nullity_signature(path_graph(2), 0, 1)
    assert (sig.eta_g, sig.eta_gu, sig.eta_gv, sig.eta_guv) == (0, 1, 1, 0)
    sig = nullity_signature(path_graph(3), 0, 2)
    assert (sig.eta_g, sig.eta_gu, sig.eta_gv, sig.eta_guv) == (1, 0, 0, 1)
    sig = nullity_signature(cycle_graph(4), 0, 0)
    assert (sig.eta_g, sig.eta_gu, sig.eta_gv, sig.eta_guv) == (2, 1, 1, None)


def test_selection_rule_rows():
    # leaf pair of the star: both single deletions and the double deletion
    # drop the nullity -> insulates
    star = star_graph(3)
    sig = nullity_signature(star, 1, 2)
    assert sig.deltas() == (-1, -1, -2)
    verdict = device_verdict(star, 1, 2)
    assert not verdict.conducts and verdict.rule is Rule.D_DOWN_DOWN_DOWN2
    # ipso device on a middle vertex conducts
    diamond = fixture("diamond")
    verdict = device_verdict(diamond, 0, 0)
    assert verdict.conducts and verdict.rule is Rule.I_SAME
    # ipso on an upper vertex insulates
    verdict = device_verdict(path_graph(3), 1, 1)
    assert not verdict.conducts and verdict.rule is Rule.I_UP


def test_equal_nullity_device_uses_jtest():
    verdict = device_verdict(complete_graph(4), 0, 1)
    assert verdict.rule is Rule.EQUAL_NULLITY_JTEST
    assert verdict.conducts
    inv = fraction_inverse(adjacency_matrix(complete_graph(4)))
    assert inv[0][1] != 0


def test_c6_antipodal_pair_agrees_with_inverse():
    c6 = cycle_graph(6)
    verdict = device_verdict(c6, 0, 3)
    inv = fraction_inverse(adjacency_matrix(c6))
    assert verdict.conducts == (inv[0][3] != 0)


def test_verdict_symmetry(connected_upto_7, rng):
    for g in rng.sample(connected_upto_7[5], 10) + rng.sample(connected_upto_7[6], 10):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert device_verdict(g, u, v) == device_verdict(g, v, u)


def test_device_verdict_rejects_bad_input():
    with pytest.raises(ValueError):
        device_verdict(Graph.from_edges(4, [(0, 1), (2, 3)]), 0, 1)
    with pytest.raises(ValueError):
        device_verdict(Graph.from_edges(2, [(0, 1)], loops=[0]), 0, 1)
    # the signature and the uniform-core predicate take what the verdict and
    # conduction_graph take: a looped graph, a disconnected one (2K2 is
    # nonsingular, 2K1 all core) and contacts outside the graph are refused
    looped = Graph.from_edges(2, [(0, 1)], loops=[0])
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    two_k1 = Graph.from_edges(2, [])
    for g in (looped, two_k2, two_k1):
        for answer in (lambda g: nullity_signature(g, 0, 1),
                       lambda g: nullity_signature(g, 0, 0),
                       is_uniform_core_graph, conduction_graph):
            with pytest.raises(ValueError):
                answer(g)
    for u, v in ((0, 2), (-1, 0), (2, 2)):
        with pytest.raises(ValueError):
            nullity_signature(path_graph(2), u, v)
        with pytest.raises(ValueError):
            device_verdict(path_graph(2), u, v)


def test_device_answers_read_one_analysis(monkeypatch):
    # a device verdict reads the analysis conduction_graph reads: below
    # MODULAR_MIN_ORDER one echelon of A, and one of the bordered matrix when
    # A is singular; from that order on one modular Gauss-Jordan pass for
    # both; no deleted subgraph is eliminated and no polynomial is formed
    counts = count_linalg_calls(monkeypatch, "_echelon", "_modular_echelon",
                                "char_poly_and_adjugate")

    def eliminations(answer, *args):
        counts.update(dict.fromkeys(counts, 0))
        answer(*args)
        return counts["_echelon"] + counts["_modular_echelon"]

    assert eliminations(device_verdict, cycle_graph(8), 0, 4) <= 2
    assert eliminations(nullity_signature, cycle_graph(8), 0, 4) <= 2
    assert eliminations(device_verdict, complete_graph(4), 0, 1) == 1
    assert counts["char_poly_and_adjugate"] == 0
    k33 = complete_bipartite_graph(3, 3)
    assert eliminations(is_uniform_core_graph, k33) \
        == eliminations(conduction_graph, k33) == 2
    assert counts["char_poly_and_adjugate"] == 0
    for g in (cycle_graph(40), path_graph(41)):
        assert eliminations(conduction_graph, g) \
            == eliminations(device_verdict, g, 0, 1) \
            == counts["_modular_echelon"] == 1
    assert counts["char_poly_and_adjugate"] == 0


# ---------------------------------------------------------------------------
# whole conduction graphs: the 10 connected graphs on at most 4 vertices
# ---------------------------------------------------------------------------

def _expected_small_conduction():
    """Frozen answers, derived once from exact inverses / selection rules."""
    k1 = Graph.from_edges(1, [])
    return [
        (k1, Graph.from_edges(1, [], loops=[0])),
        (path_graph(2), path_graph(2)),
        (path_graph(3), Graph.from_edges(3, [(0, 2)], loops=[0, 2])),
        (cycle_graph(3), Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)],
                                          loops=[0, 1, 2])),
        (path_graph(4), Graph.from_edges(4, [(0, 1), (0, 3), (2, 3)])),
        (star_graph(3), Graph.from_edges(4, [], loops=[1, 2, 3])),
        (fixture("paw"), Graph.from_edges(4, [(0, 1), (0, 3), (1, 3), (2, 3)],
                                          loops=[3])),
        (cycle_graph(4), Graph.from_edges(4, [(0, 2), (1, 3)], loops=[0, 1, 2, 3])),
        (fixture("diamond"), Graph.from_edges(4, [(0, 1), (2, 3)],
                                              loops=[0, 1, 2, 3])),
        (complete_graph(4), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2),
                                                 (1, 3), (2, 3)],
                                             loops=[0, 1, 2, 3])),
    ]


def test_conduction_graphs_on_at_most_4_vertices():
    for g, expected in _expected_small_conduction():
        got = conduction_graph(g).graph
        assert got == expected, g
        # and the selection-rule walk agrees
        assert conduction_by_rules(g).graph == expected


def test_conduction_examples_from_text():
    two_k2_loop = Graph.from_edges(4, [(0, 1), (2, 3)], loops=[0, 1, 2, 3])
    assert are_isomorphic(conduction_graph(cycle_graph(4)).graph, two_k2_loop)
    assert are_isomorphic(conduction_graph(fixture("diamond")).graph, two_k2_loop)
    k2c = conduction_graph(path_graph(2)).graph
    assert k2c == path_graph(2) and k2c.loops == 0


def test_conduction_graph_verdict_consistency():
    cg = conduction_by_rules(fixture("paw"))
    assert isinstance(cg, ConductionGraph)
    for u in range(4):
        assert cg.verdict(u, u).conducts == cg.graph.has_loop(u)
        for v in range(u + 1, 4):
            assert cg.verdict(u, v).conducts == cg.graph.has_edge(u, v)
            assert cg.verdict(v, u) == cg.verdict(u, v)


def test_route_agreement_exhaustive_small(connected_upto_7):
    # every ipso and distinct device of every connected graph on 1..7
    # vertices against the reference, which eliminates all four deletions
    # and resolves equal nullities by the polynomial j-test: the conduction
    # graph's verdict, and device_verdict (rule included) and
    # nullity_signature exactly
    devices = 0
    for n in range(1, 8):
        for g in connected_upto_7[n]:
            cg = conduction_graph(g)
            for u in range(n):
                for v in range(u, n):
                    sig, ref = reference_device(g, u, v)
                    assert cg.verdict(u, v).conducts == ref.conducts, (g, u, v)
                    assert device_verdict(g, u, v) == ref, (g, u, v)
                    assert nullity_signature(g, u, v) == sig, (g, u, v)
                    devices += 1
    assert devices == 26_627


def test_conduction_graph_preconditions():
    with pytest.raises(ValueError):
        conduction_graph(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        conduction_graph(Graph.from_edges(2, [(0, 1)], loops=[0]))


# ---------------------------------------------------------------------------
# the bordered adjugate
# ---------------------------------------------------------------------------

def test_bordered_adjugate_deletion_nullities(connected_upto_7):
    # every eta(G-S), |S| <= 2, against direct elimination of G-S
    for n in range(1, 8):
        for g in connected_upto_7[n]:
            analysis = analyse(g)
            assert analysis.nullity() == graph_nullity(g)
            for u in range(n):
                assert analysis.nullity(u) == sub_nullity(g, 1 << u), (g, u)
                for v in range(u + 1, n):
                    expected = sub_nullity(g, 1 << u | 1 << v)
                    assert analysis.nullity(u, v) == expected, (g, u, v)
                    assert analysis.nullity(v, u) == expected, (g, v, u)


def test_bordered_adjugate_is_scaled_pseudo_inverse():
    # adj(M) / det(M) on A's block is the Moore-Penrose inverse
    # (A + P)^-1 - P, P the orthogonal projector onto the kernel
    for g in (cycle_graph(6), path_graph(5), complete_bipartite_graph(3, 3),
              star_graph(5)):
        a = adjacency_matrix(g)
        n = g.n
        z = kernel_basis(a)
        bordered = [row + [vec[i] for vec in z] for i, row in enumerate(a)]
        bordered += [vec + [0] * len(z) for vec in z]
        det_m = det(bordered)
        gram_inv = fraction_inverse([[sum(x * y for x, y in zip(zi, zj))
                                      for zj in z] for zi in z]) if z else []
        p = [[sum(z[k][i] * gram_inv[k][l] * z[l][j] for k in range(len(z))
                  for l in range(len(z))) for j in range(n)] for i in range(n)]
        shifted = fraction_inverse([[a[i][j] + p[i][j] for j in range(n)]
                                    for i in range(n)])
        pinv = [[shifted[i][j] - p[i][j] for j in range(n)] for i in range(n)]
        kernel, _, adj = linalg.bordered_inverse(a)
        assert kernel == z and len(adj) == n + len(z)
        assert [[Fraction(adj[i][j], det_m) for j in range(n)] for i in range(n)] \
            == pinv, g


def _singular_connected(max_n):
    for n in range(1, max_n + 1):
        for g in enumerate_connected(n):
            if graph_nullity(g):
                yield g


def _assert_matches_rules(g):
    # graph, nullity and every verdict of conduction_graph against the rule
    # table over direct deletions; the inverse route labels its verdicts by
    # the booleanised inverse instead of a table row
    cg, ref = conduction_graph(g), conduction_by_rules(g)
    assert (cg.graph, cg.nullity) == (ref.graph, ref.nullity), g
    if cg.nullity:
        assert cg.verdicts == ref.verdicts, g
    else:
        assert {k: (v.conducts, v.rule) for k, v in cg.verdicts.items()} \
            == {k: (v.conducts, Rule.INVERSE_PATTERN)
                for k, v in ref.verdicts.items()}, g


def test_conduction_graph_matches_the_rule_table(connected_upto_7):
    # every device of every connected graph with n <= 7
    for n in range(1, 8):
        for g in connected_upto_7[n]:
            _assert_matches_rules(g)


def test_conduction_graph_matches_the_rule_table_at_modular_orders():
    # singular graphs from MODULAR_MIN_ORDER on, whose kernel is lifted from
    # the modular elimination: nullity 2, 1, 2 and the twins' cubic graph
    graphs = (cycle_graph(16), path_graph(17), cycle_graph(20),
              cubic_with_twins(16))
    for g in graphs:
        assert g.n >= linalg.MODULAR_MIN_ORDER and graph_nullity(g)
        _assert_matches_rules(g)


def test_bordered_route_matches_rule_walk():
    # the production route against the rule table over direct deletions and
    # the polynomial j-test: every singular connected graph with n <= 8, plus
    # larger singular graphs of nullity 2, 1, 29 and 24
    checked = 0
    for g in _singular_connected(8):
        _assert_matches_rules(g)
        checked += 1
    assert checked == 5982
    for g in (cycle_graph(40), path_graph(41), star_graph(30),
              complete_bipartite_graph(6, 20)):
        _assert_matches_rules(g)


def _is_multiple(x, adj):
    """x is a nonzero rational multiple of the nonzero matrix adj."""
    i, j = next((i, j) for i, row in enumerate(adj)
                for j, value in enumerate(row) if value)
    return x[i][j] != 0 and all(
        xv * adj[i][j] == av * x[i][j]
        for x_row, a_row in zip(x, adj) for xv, av in zip(x_row, a_row))


def test_one_modular_pass_matches_the_exact_route(monkeypatch):
    # the modular pass that lifts the kernel and goes on to eliminate the
    # bordered matrix, tried at every order, against the exact two-echelon
    # route: the kernel is kernel_basis(A), X a nonzero multiple of adj(M),
    # and conduction_graph gives the same graph, nullity and verdicts (rules
    # included); every singular connected graph with n <= 8, plus larger
    # singular graphs of nullity 2, 1, 29, 24 and the twins' cubic graph
    graphs = list(_singular_connected(8))
    graphs += [cycle_graph(16), cycle_graph(20), cycle_graph(40),
               cycle_graph(64), path_graph(17), path_graph(41), path_graph(63),
               star_graph(30), complete_bipartite_graph(6, 20),
               cubic_with_twins(16)]
    results = _record_modular_passes(monkeypatch)
    for g in graphs:
        a = adjacency_matrix(g)
        monkeypatch.setattr(linalg, "MODULAR_MIN_ORDER", 65)
        kernel, det_m, adj = linalg.bordered_inverse(a)
        cg = conduction_graph(g)
        monkeypatch.setattr(linalg, "MODULAR_MIN_ORDER", 1)
        results.clear()
        one_pass = linalg.bordered_inverse(a)
        assert results == [True], g
        assert one_pass[0] == kernel == kernel_basis(a), g
        assert _is_multiple(one_pass[2], adj), g
        assert abs(det_m) > linalg.MODULUS // 2 or one_pass[1:] == (det_m, adj)
        got = conduction_graph(g)
        assert (got.graph, got.nullity, got.verdicts) \
            == (cg.graph, cg.nullity, cg.verdicts), g


def test_conduction_graph_eliminations_per_graph(monkeypatch):
    # C40 and P41 get their kernel basis lifted from the modular elimination
    # of A, which goes on to eliminate the bordered matrix and passes the
    # modular check: one pivot step per column of A, then one per free and
    # per border column, and no exact echelon at all.  (The rule table over
    # direct deletions eliminates once per vertex and per pair, 821 times
    # for C40.)  A nonsingular graph below the crossover gets its adjugate
    # from one echelon; a large one passes the modular check and eliminates
    # nothing.
    calls = []
    real = linalg._echelon

    def counted(a):
        calls.append(len(a))
        return real(a)

    steps = []
    real_step = linalg._pivot_step

    def stepped(m, r, c, d):
        steps.append(c)
        return real_step(m, r, c, d)

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(linalg, "_pivot_step", stepped)
    for g, eta in ((cycle_graph(40), 2), (path_graph(41), 1)):
        calls.clear()
        steps.clear()
        conduction_graph(g)
        assert calls == [], (g, calls)
        assert len(steps) == g.n + 2 * eta, g
    calls.clear()
    conduction_graph(cycle_graph(6))
    assert calls == [6]
    calls.clear()
    conduction_graph(min_deg2_graph(16))
    assert calls == []


def test_inverse_pattern_of_a_singular_graph_raises_its_kernel(monkeypatch):
    # the nullity-0 route reads the bordered inverse: a singular graph
    # raises with its kernel basis, from MODULAR_MIN_ORDER on out of the one
    # modular pass that also eliminates the bordered matrix (no exact
    # echelon, so the bordering adds no pass), below it out of the echelon
    # of [A | I]
    graphs = (cycle_graph(40), path_graph(41), cubic_with_twins(40),
              cycle_graph(4), path_graph(5))
    kernels = [kernel_basis(adjacency_matrix(g)) for g in graphs]
    counts = count_linalg_calls(monkeypatch, "_modular_echelon", "_echelon")
    for g, kernel in zip(graphs, kernels):
        counts.update(dict.fromkeys(counts, 0))
        with pytest.raises(linalg.SingularMatrixError) as err:
            inverse_conduction_pattern(g)
        assert kernel and err.value.kernel == kernel, g
        if g.n >= linalg.MODULAR_MIN_ORDER:
            assert counts == {"_modular_echelon": 1, "_echelon": 0}, g


# ---------------------------------------------------------------------------
# modular adjugates and their exact fallback
# ---------------------------------------------------------------------------

def _record_modular_passes(monkeypatch):
    """Try the modular half of linalg.bordered_inverse at every order, with
    LAPACK's proposal declined, and log whether each attempt passed its
    check."""
    results = []
    bordered = linalg._modular_bordered

    def recorded(*args):
        out = bordered(*args)
        results.append(out[1] is not None)
        return out

    monkeypatch.setattr(linalg, "MODULAR_MIN_ORDER", 1)
    monkeypatch.setattr(linalg, "_lapack_inverse", lambda ai: None)
    monkeypatch.setattr(linalg, "_modular_bordered", recorded)
    return results


def test_modular_routes_stay_exact_when_the_check_fails(monkeypatch,
                                                        connected_upto_7):
    # modulo 7 many determinants vanish and many cofactors exceed p/2, so
    # both checked modular results and the exact fallback (one echelon of
    # [A | I]) decide real graphs; every answer must equal the exact route
    cases = [g for n in range(1, 8) for g in connected_upto_7[n]]
    cases += [cycle_graph(12), path_graph(13), min_deg2_graph(4),
              fixture("fig6reg24")]
    expected = []
    monkeypatch.setattr(linalg, "MODULAR_MIN_ORDER", 65)  # exact only
    for g in cases:
        try:
            pattern = inverse_conduction_pattern(g)
        except linalg.SingularMatrixError as exc:
            pattern = exc.nullity
        expected.append((conduction_graph(g), pattern))
    monkeypatch.setattr(linalg, "MODULUS", 7)
    results = _record_modular_passes(monkeypatch)
    for g, (cg, pattern) in zip(cases, expected):
        got = conduction_graph(g)
        assert got.graph == cg.graph and got.verdicts == cg.verdicts, g
        assert got.nullity == cg.nullity, g
        try:
            rows, loops = inverse_conduction_pattern(g)
        except linalg.SingularMatrixError as exc:
            assert exc.nullity == pattern, g
        else:
            assert (list(rows), loops) == (list(pattern[0]), pattern[1]), g
    assert results.count(True) > 100 and results.count(False) > 100


def test_bordered_adjugate_stays_exact_when_the_check_fails(monkeypatch):
    # A = 0 (+) D of order 16, a modular order, with the kernel e0.  With
    # D = diag(2**30, 3, 1, ...) the kernel lifts, but the cofactors of
    # M = [[A, e0], [e0^T, 0]] reach 3 * 2**30 > p/2 and the check refuses
    # the modular M; with a 2 x 2 head of det(D) = p the rank drops modulo p
    # and the lift fails.  Either way the one modular pass is the only one:
    # the echelon of [M | I] (after that of A, for the failed lift) gives
    # the exact adjugate of M, which decides every nullity.
    counts = count_linalg_calls(monkeypatch, "_modular_echelon")
    widths = []
    real = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda a: widths.append(len(a[0])) or real(a))
    prime_block = [[1 << 16, 1], [1, 1 << 15]]  # det = 2**31 - 1
    n = 16
    assert n >= linalg.MODULAR_MIN_ORDER
    for head, echelons in (([[1 << 30, 0], [0, 3]], [2 * (n + 1)]),
                           (prime_block, [n, 2 * (n + 1)])):
        a = [[0] * n for _ in range(n)]
        for i in range(2):
            for j in range(2):
                a[1 + i][1 + j] = head[i][j]
        for i in range(3, n):
            a[i][i] = 1
        counts["_modular_echelon"] = 0
        widths.clear()
        kernel, d, adj = linalg.bordered_inverse(a)
        assert counts["_modular_echelon"] == 1 and widths == echelons
        assert kernel == [[1] + [0] * (n - 1)]
        bordered = [row + [int(i == 0)] for i, row in enumerate(a)]
        bordered.append([1] + [0] * n)
        assert (d, adj) == (det(bordered), char_poly_and_adjugate(bordered)[1])
        analysis = BorderedAdjugate(n, adj)
        for u in range(n):
            keep = [i for i in range(n) if i != u]
            sub = [[a[i][j] for j in keep] for i in keep]
            assert analysis.nullity(u) == len(keep) - linalg.rank(sub)
            for v in range(u + 1, n):
                keep = [i for i in range(n) if i not in (u, v)]
                sub = [[a[i][j] for j in keep] for i in keep]
                assert analysis.nullity(u, v) == len(keep) - linalg.rank(sub)


def test_bordered_adjugate_from_the_modular_pass(monkeypatch, connected_upto_7):
    # the modular route on every singular connected graph with n <= 7, and
    # every answer unchanged when adj is replaced by a multiple of it, as a
    # checked d M^-1 with d != det(M) would be
    results = _record_modular_passes(monkeypatch)
    for n in range(2, 8):
        for g in connected_upto_7[n]:
            if not graph_nullity(g):
                continue
            analysis = analyse(g)
            scaled = BorderedAdjugate(n, [[-3 * x for x in row]
                                          for row in analysis.adj])
            for u in range(n):
                assert analysis.nullity(u) == sub_nullity(g, 1 << u), (g, u)
                assert scaled.nullity(u) == analysis.nullity(u), (g, u)
                for v in range(u + 1, n):
                    expected = sub_nullity(g, 1 << u | 1 << v)
                    assert analysis.nullity(u, v) == expected, (g, u, v)
                    assert scaled.nullity(u, v) == expected, (g, u, v)
                    assert scaled.conducts(u, v) == analysis.conducts(u, v)
    assert len(results) == 0 + 1 + 3 + 13 + 60 + 511 and all(results)  # n = 2..7


# ---------------------------------------------------------------------------
# nullity-1 block structure
# ---------------------------------------------------------------------------

def _vertex_classes(cg):
    """Core, middle and upper vertices of a nullity-1 graph: those whose
    deletion drops, keeps or raises the nullity, read from the bordered
    adjugate that built the conduction graph."""
    assert cg.nullity == 1
    classes = ([], [], [])
    for v in range(cg.graph.n):
        classes[cg.analysis.nullity(v)].append(v)
    return classes


def test_nullity1_blocks_p3():
    cg = conduction_graph(path_graph(3))
    assert _vertex_classes(cg) == ([0, 2], [], [1])
    assert cg.graph == Graph.from_edges(3, [(0, 2)], loops=[0, 2])
    # the core pair is decided without a double deletion; each core/non-core
    # pair fits the single insulating row of its shifts
    assert cg.verdict(0, 2) == DeviceVerdict(True, Rule.NULLITY1_BLOCKS)
    assert cg.verdict(0, 1) == DeviceVerdict(False, Rule.D_UP_DOWN_SAME)
    assert cg.verdict(1, 2) == DeviceVerdict(False, Rule.D_UP_DOWN_SAME)


def test_nullity1_blocks_require_nullity_one(connected_upto_7):
    # the core/core shortcut of the walk applies to nullity-1 graphs only:
    # C4 is all core with nullity 2 and decides its pairs by the table
    assert conduction_graph(path_graph(2)).analysis is None
    c4 = conduction_graph(cycle_graph(4))
    assert c4.nullity == 2
    assert all(v.rule is not Rule.NULLITY1_BLOCKS for v in c4.verdicts.values())
    for n in range(2, 8):
        for g in connected_upto_7[n]:
            cg = conduction_graph(g)
            rules = {v.rule for v in cg.verdicts.values()}
            if Rule.NULLITY1_BLOCKS in rules:
                assert cg.nullity == 1, g


def test_order7_nut_graphs_have_complete_looped_conduction_graph(connected_upto_7):
    from condgraph.classify import is_nut
    nuts = [g for g in connected_upto_7[7] if is_nut(g)]
    assert nuts, "order 7 must contain nut graphs"
    full = (1 << 7) - 1
    for g in nuts:
        cg = conduction_graph(g)
        assert _vertex_classes(cg)[0] == list(range(7))
        assert cg.graph.loops == full
        assert cg.graph.edge_count() == 21  # complete graph


def test_adjugate_pattern_reveals_core_block(connected_upto_7):
    # booleanising the adjugate of a nullity-1 graph shows exactly the looped
    # core clique and nothing else
    for n in range(3, 7):
        for g in connected_upto_7[n]:
            if graph_nullity(g) != 1:
                continue
            core = set(_vertex_classes(conduction_graph(g))[0])
            pattern = booleanise(char_poly_and_adjugate(adjacency_matrix(g))[1])
            for i in range(n):
                assert pattern[i][i] == (2 if i in core else 0)
                for j in range(i + 1, n):
                    expect = 1 if (i in core and j in core) else 0
                    assert pattern[i][j] == expect


def test_nullity1_core_block_structure(connected_upto_7):
    # core vertices: looped clique, no edges towards the rest
    for n in range(3, 8):
        for g in connected_upto_7[n]:
            if graph_nullity(g) != 1:
                continue
            cg = conduction_graph(g)
            core = set(_vertex_classes(cg)[0])
            for u in core:
                assert cg.graph.has_loop(u)
                for v in range(g.n):
                    if v == u:
                        continue
                    assert cg.graph.has_edge(u, v) == (v in core)


def test_nut_iff_connected_conduction_graph(connected_upto_7):
    from condgraph.classify import is_nut
    from condgraph.graphs import connected_components
    for n in range(2, 8):
        for g in connected_upto_7[n]:
            if graph_nullity(g) != 1:
                continue
            cg = conduction_graph(g)
            connected = len(connected_components(cg.graph)) == 1
            assert connected == is_nut(g)


# ---------------------------------------------------------------------------
# jacobi square
# ---------------------------------------------------------------------------

def test_jsquared_is_perfect_square_small(connected_upto_7):
    from condgraph.transmission import device_polynomials
    for n in range(2, 7):
        for g in connected_upto_7[n]:
            for u in range(n):
                for v in range(u + 1, n):
                    assert device_polynomials(g, u, v).jsq.sqrt() is not None
