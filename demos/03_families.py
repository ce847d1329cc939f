"""The constructive families of conduction-isomorphic graphs.

Four infinite families (plus doubling through the canonical double cover)
produce graphs isomorphic to their own conduction graphs, each with an
explicit witness map.  This script builds one member of each, verifies the
witness edge-by-edge, and shows the corona spectrum relation.
"""

from condgraph import (FAMILIES, adjacency_matrix, build_family,
                       conduction_graph, corona, corona_spectrum, cycle_graph,
                       float_spectrum, is_conduction_isomorphic, path_graph,
                       radialene, to_graph6, verify_witness, witness_isomorphism)

# one member per family: (name, k, base graph)
MEMBERS = [
    ("comb", 4, None),
    ("radialene", 5, None),
    ("corona", 2, path_graph(3)),  # two corona rounds over the 3-path
    ("min_deg2", 4, None),
    ("large_min_deg", 5, None),
    ("appendix", 4, None),
    ("cdc", None, radialene(3)),
]


def main():
    for name, k, base in MEMBERS:
        g = build_family(name, k, base)
        cg = conduction_graph(g).graph
        ok = verify_witness(g, cg, witness_isomorphism(name, k, base))
        print(f"{name:>14}: n={g.n:2}  {to_graph6(g):>12}  witness ok: {ok}")
        assert ok and is_conduction_isomorphic(g)
    assert {name for name, _, _ in MEMBERS} == set(FAMILIES)

    print()
    base = cycle_graph(5)
    predicted = corona_spectrum(float_spectrum(adjacency_matrix(base)))
    direct = float_spectrum(adjacency_matrix(corona(base)))
    worst = max(abs(p - d) for p, d in zip(predicted, direct))
    print("corona spectrum of C5 from the base spectrum, largest "
          f"deviation from direct diagonalisation: {worst:.2e}")


if __name__ == "__main__":
    main()
