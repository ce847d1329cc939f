"""Conduction classes, codes and conduction-isomorphism."""

import os
import subprocess
import sys
from pathlib import Path

import random

import pytest

import condgraph
from condgraph import classify, linalg
from condgraph.census import enumerate_chemical
from condgraph.classify import (class_code, classification_report,
                                conduction_isomorphism, conduction_isomorphisms,
                                cubic_degree_theorem_check,
                                is_conduction_isomorphic, is_ipso_omni_insulator,
                                is_nut, is_uniform_core_graph)
from condgraph.conduction import conduction_graph, inverse_conduction_pattern
from condgraph.fixtures import fixture
from condgraph.graphs import (Graph, bipartition, complete_bipartite_graph,
                              complete_graph, cycle_graph, is_connected, path_graph)
from condgraph.isomorphism import are_isomorphic

from conftest import cubic_with_twins


def test_ipso_omni_insulator_examples():
    assert is_ipso_omni_insulator(fixture("ipso15"))
    assert not is_ipso_omni_insulator(cycle_graph(4))
    assert is_ipso_omni_insulator(path_graph(4))


def test_nut_examples(connected_upto_7):
    for n in range(2, 7):
        assert not any(is_nut(g) for g in connected_upto_7[n])
    k1 = Graph.from_edges(1, [])
    assert not is_nut(k1)
    assert is_nut(k1, include_trivial=True)
    # frozen against the public nut census: exactly 3 nut graphs of order 7
    assert sum(1 for g in connected_upto_7[7] if is_nut(g)) == 3


def test_nut_graphs_are_nonbipartite_leafless(connected_upto_7):
    from condgraph.graphs import is_bipartite
    for g in connected_upto_7[7]:
        if is_nut(g):
            assert not is_bipartite(g)
            assert min(g.degree(v) for v in range(g.n)) >= 2


def test_uniform_core_graph_examples():
    # C4 is all-core but its antipodal devices conduct, so it is not a UCG
    assert not is_uniform_core_graph(cycle_graph(4))
    assert is_uniform_core_graph(complete_bipartite_graph(3, 3))
    assert not is_uniform_core_graph(path_graph(2))
    k33c = conduction_graph(complete_bipartite_graph(3, 3)).graph
    assert k33c == Graph.from_edges(6, [], loops=range(6))


def test_class_code_examples(connected_upto_7):
    # a nut graph is CC1 in the two-letter scheme
    nut = next(g for g in connected_upto_7[7] if is_nut(g))
    assert class_code(nut).two_letter == "CC1"
    code = class_code(path_graph(2))
    assert code.three_letter == "CXI0"
    assert code.bipartite_interpretation
    assert code.empty_classes == ("even",)
    # the four uniquely realised bipartite codes
    assert class_code(Graph.from_edges(1, [])).three_letter == "XXC1"
    assert class_code(path_graph(3)).three_letter == "ICX1"
    assert class_code(complete_bipartite_graph(3, 3)).three_letter == "IIC2"
    # benzene ring: nonsingular catafused benzenoid, all odd-distance pairs
    # conduct, nothing else does
    assert class_code(cycle_graph(6)).three_letter == "CII0"


def test_cii_conduction_graph_is_complete_bipartite():
    c6 = cycle_graph(6)
    assert class_code(c6).three_letter == "CII0"
    cg = conduction_graph(c6).graph
    assert are_isomorphic(cg, complete_bipartite_graph(3, 3))
    # in bipartition order the adjacency is the all-ones off-diagonal form
    a, b = bipartition(c6)
    for u, v in cg.edges():
        assert (a >> u & 1) != (a >> v & 1)
    assert cg.edge_count() == 9


def test_conduction_isomorphic_examples():
    assert is_conduction_isomorphic(path_graph(4))
    assert not is_conduction_isomorphic(cycle_graph(4))
    assert is_conduction_isomorphic(fixture("radialene3"))
    witness = conduction_isomorphism(path_graph(4))
    cg = conduction_graph(path_graph(4)).graph
    for u, v in path_graph(4).edges():
        assert cg.has_edge(witness[u], witness[v])
    assert conduction_isomorphism(cycle_graph(4)) is None


def _exact_conduction_isomorphism(g):
    """The per-graph route: one exact scaled inverse, then the screens."""
    if not g.is_simple() or not is_connected(g):
        return None
    try:
        rows, loops = inverse_conduction_pattern(g)
    except linalg.SingularMatrixError:
        return None
    return classify._isomorphism_onto(g, rows, loops)


@pytest.fixture(scope="module")
def screened(connected_upto_7):
    """Chunks to screen with their per-graph verdicts: every connected graph
    with n <= 7 and chemical graph with n <= 10, one chunk per class, and
    one chunk of mixed orders in shuffled order with a disconnected and a
    looped graph among them."""
    chunks = [connected_upto_7[n] for n in range(1, 8)]
    chunks += [list(enumerate_chemical(n)) for n in range(1, 11)]
    mixed = [g for graphs in chunks for g in graphs[::9]]
    mixed += [Graph.from_edges(4, [(0, 1), (2, 3)]),
              Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], loops=[1])]
    random.Random(11).shuffle(mixed)
    chunks.append(mixed)
    return [(graphs, [_exact_conduction_isomorphism(g) for g in graphs])
            for graphs in chunks]


@pytest.mark.parametrize("modulus", [linalg.MODULUS, 5, 3])
def test_batched_screen_matches_the_exact_route(screened, modulus, monkeypatch):
    # verdicts and witnesses, also with a prime so small that most checks
    # and certificates fail and the exact route decides
    monkeypatch.setattr(linalg, "MODULUS", modulus)
    for graphs, expected in screened:
        assert conduction_isomorphisms(graphs) == expected
    # the census positives: 6 connected with n <= 7, 12 chemical with n <= 10
    assert [sum(w is not None for w in expected)
            for _, expected in screened[:-1]] == [0, 1, 0, 1, 0, 4, 0] \
        + [0, 1, 0, 1, 0, 3, 0, 5, 0, 3]


def test_batched_screen_leaves_an_uncertified_singular_graph_to_the_exact_route(
        monkeypatch):
    # singular cubic graphs of order 38 (3**38 < p**2) and 40 (3**40 > p**2);
    # only the second reaches the exact route
    calls = []
    real = classify.inverse_conduction_pattern
    monkeypatch.setattr(classify, "inverse_conduction_pattern",
                        lambda g: calls.append(g.n) or real(g))
    graphs = [cubic_with_twins(38), cubic_with_twins(40)]
    assert conduction_isomorphisms(graphs) == [None, None]
    assert calls == [40]


def test_conduction_isomorphic_implies_chain(connected_upto_7):
    for n in range(2, 7):
        for g in connected_upto_7[n]:
            if is_conduction_isomorphic(g):
                from condgraph.conduction import graph_nullity
                assert graph_nullity(g) == 0
                assert is_ipso_omni_insulator(g)


def test_cubic_degree_theorem():
    from condgraph.linalg import SingularMatrixError
    assert cubic_degree_theorem_check(complete_graph(4))
    with pytest.raises(ValueError):
        cubic_degree_theorem_check(path_graph(4))  # not 3-regular
    with pytest.raises(SingularMatrixError):
        cubic_degree_theorem_check(complete_bipartite_graph(3, 3))  # singular


def test_classification_report_fields():
    rep = classification_report(fixture("radialene3"))
    assert rep.nullity == 0
    assert rep.is_conduction_isomorphic
    assert rep.is_ipso_omni_insulator
    assert not rep.is_nut and not rep.is_ucg
    assert rep.loop_count == 0
    assert rep.component_count == 1
    rep = classification_report(cycle_graph(4))
    assert rep.nullity == 2
    assert rep.component_count == 2
    assert rep.loop_count == 4
    assert rep.code.two_letter.endswith("2")


def test_report_reads_the_analysis(connected_upto_7, monkeypatch):
    # nullity, nut, UCG and the nullity digit of the report come from the
    # bordered adjugate that built G^C; the public predicates eliminate anew
    from condgraph.conduction import graph_nullity
    ucgs = nuts = 0
    for n in range(1, 8):
        for g in connected_upto_7[n]:
            rep = classification_report(g)
            assert rep.nullity == graph_nullity(g), g
            assert rep.is_nut == is_nut(g), g
            assert rep.is_ucg == is_uniform_core_graph(g), g
            assert rep.code == class_code(g), g
            ucgs += rep.is_ucg
            nuts += rep.is_nut
    assert (ucgs, nuts) == (2, 3)
    # no elimination beyond those that build G^C: one echelon of [A | I],
    # and for a singular graph one of the bordered matrix
    from condgraph import linalg
    calls = []
    real = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda a: calls.append(a) or real(a))

    def eliminations(predicate, g):
        calls.clear()
        predicate(g)
        return len(calls)

    for g in (complete_bipartite_graph(3, 3), cycle_graph(12),
              next(g for g in connected_upto_7[7] if is_nut(g))):
        assert eliminations(classification_report, g) \
            == eliminations(conduction_graph, g) == 2, g
    # the omni-insulator predicate checks its theorem with the nullity that
    # built G^C, not with a further elimination
    for g in (complete_bipartite_graph(3, 3), cycle_graph(12), path_graph(4)):
        assert eliminations(is_ipso_omni_insulator, g) \
            == eliminations(conduction_graph, g), g


def test_theorem_check_survives_optimisation(tmp_path):
    # a bare assert vanishes under -O; the check must still stop the CLI with
    # exit code 3.  P4 is conduction-isomorphic, and a faked nullity of 1 on
    # its conduction graph contradicts the corollary chain in
    # classification_report.
    path = tmp_path / "in.g6"
    path.write_text("Ch\n")
    script = (
        "import dataclasses\n"
        "import sys\n"
        "import condgraph.classify as c\n"
        "from condgraph.cli import main\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(99)\n"
        "real = c.conduction_graph\n"
        "c.conduction_graph = lambda g: dataclasses.replace(real(g), nullity=1)\n"
        f"raise SystemExit(main(['classify', '--in', {str(path)!r}]))\n")
    src = str(Path(condgraph.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "verification failed" in proc.stderr
