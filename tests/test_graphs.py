"""Graph model, graph6 codec and structural predicates."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condgraph.graphs import (Graph, Graph6Error, adjacency_matrix, bfs_distances,
                              bipartition, complete_graph, cycle_graph,
                              degree_sequence, from_graph6, graph_from_adjacency,
                              connected_components, is_bipartite, is_chemical,
                              is_connected, path_graph, reach, read_graph6_lines,
                              star_graph, to_graph6)

from conftest import brute_force_bipartite, random_graph


def test_graph_construction_and_queries():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], loops=[2])
    assert g.n == 4
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.has_loop(2) and not g.has_loop(0)
    assert g.neighbors(1) == [0, 2]
    assert g.degree(2) == 4  # two neighbours plus the loop twice
    assert g.neighbor_count(2) == 2
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.loop_vertices() == [2]


def test_graph_is_immutable_value():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5
    assert g == path_graph(3)
    assert hash(g) == hash(path_graph(3))
    assert g != Graph.from_edges(3, [(0, 1), (1, 2)], loops=[0])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # diagonal bit
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(65, [0] * 65)
    with pytest.raises(ValueError):
        Graph(2, [-1, 0])  # not a bitmask
    with pytest.raises(ValueError):
        Graph(64, [1 << 64] + [0] * 63)  # beyond 64 bits


def test_graph_of_order_64_packs_its_rows():
    # vertex 63 uses the top bit of its neighbours' 64-bit rows
    edges = [(i, i + 1) for i in range(63)] + [(0, 63), (5, 63)]
    g = Graph.from_edges(64, edges, loops=[63])
    assert g.rows.typecode == "Q" and len(g.rows) == 64
    assert g.has_edge(0, 63) and g.has_edge(63, 5) and g.has_loop(63)
    assert g.rows[0] == 1 << 1 | 1 << 63
    assert g.neighbors(63) == [0, 5, 62]
    assert g.edge_count() == 65
    same = Graph.from_edges(64, list(reversed(edges)), loops=[63])
    assert g == same and hash(g) == hash(same)
    assert g != Graph.from_edges(64, edges)
    assert g.without_loops() != Graph.from_edges(64, edges[:-1])
    assert {g: 1}[same] == 1
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g and hash(clone) == hash(g) and clone.rows == g.rows
    simple = g.without_loops()
    assert from_graph6(to_graph6(simple)) == simple
    assert to_graph6(from_graph6(to_graph6(simple))) == to_graph6(simple)


def test_delete_and_relabel():
    g = cycle_graph(5)
    h = g.delete_vertices([0])
    assert h.n == 4 and sorted(h.edges()) == [(0, 1), (1, 2), (2, 3)]
    perm = [4, 3, 2, 1, 0]
    assert g.relabel(perm) == g  # C5 is symmetric under reversal
    p = path_graph(3).relabel([2, 1, 0])
    assert p == path_graph(3)


def test_adjacency_matrix_examples():
    assert adjacency_matrix(path_graph(2)) == [[0, 1], [1, 0]]
    k1_loop = Graph.from_edges(1, [], loops=[0])
    assert adjacency_matrix(k1_loop) == [[2]]
    c4 = adjacency_matrix(cycle_graph(4))
    assert c4 == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]


def test_graph_from_adjacency_round_trip():
    for g in (path_graph(4), cycle_graph(5),
              Graph.from_edges(3, [(0, 1)], loops=[2])):
        assert graph_from_adjacency(adjacency_matrix(g)) == g
    with pytest.raises(ValueError):
        graph_from_adjacency([[1]])
    with pytest.raises(ValueError):
        graph_from_adjacency([[0, 2], [2, 0]])


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def test_graph6_known_values():
    # frozen from the networkx reference implementation
    assert from_graph6("A_") == path_graph(2)
    assert to_graph6(path_graph(2)) == "A_"
    assert from_graph6("C~") == complete_graph(4)
    assert to_graph6(complete_graph(4)) == "C~"
    assert to_graph6(path_graph(4)) == "Ch"
    assert from_graph6("Ch") == path_graph(4)
    # "Cr" decodes to a relabelled 4-cycle: edges 01, 02, 13, 23
    assert from_graph6("Cr") == Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_graph6_accepts_bytes_header_and_newline():
    assert from_graph6(b">>graph6<<Ch\n") == path_graph(4)


def test_graph6_round_trip_small(connected_upto_7):
    for n in range(1, 7):
        for g in connected_upto_7[n]:
            assert from_graph6(to_graph6(g)) == g


def test_graph6_matches_networkx_reference(rng):
    nx = pytest.importorskip("networkx")
    for _ in range(200):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, p=rng.random())
        ours = to_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert sorted(map(tuple, map(sorted, back.edges()))) == g.edges()


def test_graph6_error_contract():
    with pytest.raises(Graph6Error):
        from_graph6("")
    with pytest.raises(Graph6Error) as err:
        from_graph6("C" + chr(40))  # out-of-range data byte
    assert err.value.offset == 1
    with pytest.raises(Graph6Error) as err:
        from_graph6("Chh")  # trailing garbage
    assert err.value.offset == 2
    with pytest.raises(Graph6Error):
        from_graph6("C")  # truncated
    with pytest.raises(Graph6Error):
        from_graph6("~??")  # truncated long-form size
    with pytest.raises(Graph6Error):
        from_graph6("~??~")  # n = 63 without its data bytes
    with pytest.raises(Graph6Error):
        from_graph6("~?@@" + "?" * 347)  # n = 65 exceeds the data model
    with pytest.raises(Graph6Error):
        to_graph6(Graph.from_edges(2, [(0, 1)], loops=[0]))


def test_graph6_long_form_round_trip(rng):
    nx = pytest.importorskip("networkx")
    for n in (62, 63, 64):
        g = random_graph(rng, n, p=0.3)
        text = to_graph6(g)
        assert text.startswith("~") == (n > 62)
        assert from_graph6(text) == g
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        assert nx.to_graph6_bytes(h, header=False).decode().strip() == text


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graph6_round_trip_property(data):
    n = data.draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    g = Graph.from_edges(n, sorted(edges))
    assert from_graph6(to_graph6(g)) == g


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_predicate_examples():
    c5 = cycle_graph(5)
    assert is_connected(c5) and not is_bipartite(c5) and is_chemical(c5)
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two_k2)
    assert degree_sequence(star_graph(3)) == [1, 1, 1, 3]
    assert not is_chemical(star_graph(4))  # degree 4 centre
    k1_loop = Graph.from_edges(1, [], loops=[0])
    assert not is_bipartite(k1_loop)


def test_radialene3_is_chemical_non_bipartite():
    from condgraph.fixtures import fixture
    g = fixture("radialene3")
    assert is_chemical(g) and not is_bipartite(g) and is_connected(g)


def test_bipartite_against_brute_force(connected_upto_7, rng):
    for n in range(1, 7):
        for g in connected_upto_7[n]:
            assert is_bipartite(g) == brute_force_bipartite(g)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 10), p=0.3)
        assert is_bipartite(g) == brute_force_bipartite(g)


def test_bipartition_masks():
    sides = bipartition(path_graph(4))
    assert sides is not None
    a, b = sides
    assert a | b == 0b1111 and a & b == 0
    assert bipartition(cycle_graph(5)) is None
    # each component's least vertex takes the first side
    assert bipartition(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])) == (
        0b10101, 0b01010)


def test_bfs_distances():
    g = path_graph(5)
    assert bfs_distances(g, 0) == [0, 1, 2, 3, 4]
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert bfs_distances(two, 0) == [0, 1, -1, -1]


def _nx_graph(g):
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_connectivity_against_networkx(rng):
    nx = pytest.importorskip("networkx")
    from conftest import connected_without as _connected_without
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, p=rng.choice([0.15, 0.3, 0.5]))
        h = _nx_graph(g)
        assert is_connected(g) == nx.is_connected(h), g
        assert sorted(connected_components(g)) == sorted(
            sorted(c) for c in nx.connected_components(h)), g
        for v in range(n):
            if n == 1:
                continue
            rest = h.copy()
            rest.remove_node(v)
            assert is_connected(g.delete_vertices([v])) == nx.is_connected(rest)
            assert _connected_without(list(g.rows), n, v) == \
                nx.is_connected(rest), (g, v)


def test_reach_stays_inside_alive():
    g = path_graph(5)
    assert reach(g.rows, 1, 0b11111) == 0b11111
    assert reach(g.rows, 1, 0b11011) == 0b00011  # vertex 2 is dead
    assert reach(g.rows, 1 << 4, 0b11011) == 0b11000


def test_read_graph6_lines_reports_bad_lines():
    errors = []
    lines = [b"Ch\n", b"\n", b"  \n", b"C!x\n", "DQw", b"Cl\r\n"]
    got = list(read_graph6_lines(lines, lambda *err: errors.append(err)))
    assert [(lineno, to_graph6(g)) for lineno, g in got] == [
        (1, "Ch"), (5, "DQw"), (6, "Cl")]
    assert [lineno for lineno, _ in errors] == [4]
    assert "trailing garbage" in errors[0][1]
    assert len(list(read_graph6_lines([b"C!x"], None))) == 0
