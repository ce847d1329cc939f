"""Canonical labelling validated against brute-force permutation search."""

import itertools

import pytest

from condgraph.conduction import conduction_graph
from condgraph.fixtures import fixture
from condgraph.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from condgraph import classify, isomorphism
from condgraph.isomorphism import (TheoremCheckError, are_isomorphic,
                                   automorphism_orbits, canonical_data,
                                   canonical_form, canonical_labeling,
                                   find_isomorphism)

from conftest import (brute_force_isomorphic, brute_force_orbits,
                      count_vector_refine, random_graph)


def test_canonical_form_invariant_under_relabeling(rng):
    for _ in range(300):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, p=rng.random(), with_loops=rng.random() < 0.4)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_canonical_form_relabeling_bulk(rng):
    # a larger cheap sweep: relabelled pairs must always collide
    for _ in range(10_000):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, p=0.4)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_complete_on_small_graphs(connected_upto_7):
    # enumeration emits one representative per class; forms must be distinct
    for n in range(1, 7):
        forms = {canonical_form(g) for g in connected_upto_7[n]}
        assert len(forms) == len(connected_upto_7[n])


def test_canonical_form_against_brute_force(rng):
    for _ in range(250):
        n = rng.randint(1, 6)
        g1 = random_graph(rng, n, p=0.5, with_loops=rng.random() < 0.3)
        g2 = random_graph(rng, n, p=0.5, with_loops=rng.random() < 0.3)
        same_form = canonical_form(g1) == canonical_form(g2)
        assert same_form == brute_force_isomorphic(g1, g2)


def test_loops_are_colors_not_degrees():
    bare = path_graph(2)
    looped = Graph.from_edges(2, [(0, 1)], loops=[0])
    assert canonical_form(bare) != canonical_form(looped)
    # K1 with loop vs K1
    assert canonical_form(Graph.from_edges(1, [], loops=[0])) != \
        canonical_form(Graph.from_edges(1, []))


def test_conduction_graphs_of_c4_and_diamond_collide():
    c4 = conduction_graph(fixture("c4")).graph
    diamond = conduction_graph(fixture("diamond")).graph
    assert canonical_form(c4) == canonical_form(diamond)
    two_k2_loop = Graph.from_edges(4, [(0, 1), (2, 3)], loops=[0, 1, 2, 3])
    assert canonical_form(c4) == canonical_form(two_k2_loop)


def test_find_isomorphism_examples():
    p4 = path_graph(4)
    p4c = conduction_graph(p4).graph
    witness = find_isomorphism(p4, p4c)
    assert witness is not None
    assert find_isomorphism(complete_graph(3), star_graph(2)) is None
    assert are_isomorphic(cycle_graph(4).relabel([2, 0, 3, 1]), cycle_graph(4))


def test_witness_maps_edges_and_loops(rng):
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, p=0.5, with_loops=True)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        witness = find_isomorphism(g, h)
        assert witness is not None
        for u, v in g.edges():
            assert h.has_edge(witness[u], witness[v])
        for v in g.loop_vertices():
            assert h.has_loop(witness[v])


def test_orbits_examples():
    assert len(set(automorphism_orbits(cycle_graph(4)))) == 1
    orb_p3 = automorphism_orbits(path_graph(3))
    assert orb_p3[0] == orb_p3[2] != orb_p3[1]
    orb_star = automorphism_orbits(star_graph(3))
    assert orb_star[1] == orb_star[2] == orb_star[3] != orb_star[0]


def test_orbits_against_brute_force(rng):
    def classes(ids):
        seen = {}
        out = []
        for x in ids:
            out.append(seen.setdefault(x, len(seen)))
        return out

    for _ in range(150):
        n = rng.randint(1, 5)
        g = random_graph(rng, n, p=0.5, with_loops=rng.random() < 0.3)
        assert classes(automorphism_orbits(g)) == classes(brute_force_orbits(g))
    for g in (cycle_graph(6), complete_graph(5), star_graph(4), path_graph(6)):
        assert classes(automorphism_orbits(g)) == classes(brute_force_orbits(g))


def test_canonical_labeling_is_permutation():
    for g in (path_graph(5), cycle_graph(6), fixture("paw")):
        lab = canonical_labeling(g)
        assert sorted(lab) == list(range(g.n))
        data = canonical_data(g)
        assert canonical_form(g.relabel(data.labeling)) == data.form


def test_generators_are_automorphisms(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 8), p=0.5)
        data = canonical_data(g)
        for gen in data.generators:
            assert g.relabel(gen) == g


def test_failed_witness_raises_theorem_check_error(monkeypatch):
    assert classify.TheoremCheckError is TheoremCheckError
    assert classify.check_theorem is isomorphism.check_theorem
    monkeypatch.setattr(isomorphism, "verify_witness", lambda g1, g2, h: False)
    with pytest.raises(TheoremCheckError, match="invalid witness"):
        find_isomorphism(path_graph(4), path_graph(4))


def _random_ordered_partition(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    return [order[i:j] for i, j in zip([0] + cuts, cuts + [n])]


def test_refine_matches_the_count_vector_reference(connected_upto_7, rng):
    # the neighbour-cell keys split and order cells as the count vectors do,
    # from the unit partition and from arbitrary ordered partitions
    for n in range(1, 8):
        for g in connected_upto_7[n]:
            rows = list(g.rows)
            nbrs = [g.neighbors(v) for v in range(n)]
            starts = [[list(range(n))]]
            starts += [_random_ordered_partition(rng, n) for _ in range(3)]
            for cells in starts:
                assert isomorphism._refine(nbrs, cells) \
                    == count_vector_refine(rows, cells), (g, cells)
            assert isomorphism.equitable_partition(nbrs) \
                == count_vector_refine(rows, [list(range(n))])


def test_search_from_the_equitable_partition_labels_as_from_scratch(connected_upto_7):
    for n in range(1, 8):
        for g in connected_upto_7[n]:
            cells = isomorphism.equitable_partition(
                [g.neighbors(v) for v in range(n)])
            assert canonical_data(g, cells) == canonical_data(g)
