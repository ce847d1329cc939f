"""Graph-level conduction classes.

Everything here is a view over the conduction graph: omni-insulator and nut
predicates, uniform core graphs, the two- and three-letter conduction class
codes, and conduction-isomorphism with an explicit witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .conduction import (ConductionGraph, _sub_nullity, conduction_graph,
                         graph_nullity, inverse_conduction_pattern)
from .graphs import Graph, adjacency_matrix, bfs_distances, is_bipartite, is_connected
# TheoremCheckError and check_theorem live in isomorphism, which verifies
# witnesses with them; they stay importable from here
from .isomorphism import TheoremCheckError, check_theorem, find_isomorphism  # noqa: F401


def is_ipso_omni_insulator(g: Graph) -> bool:
    """True when every ipso device insulates, i.e. the conduction graph is
    loopless.  Only nullity-0 graphs can qualify; that is checked."""
    cg = conduction_graph(g)
    if cg.graph.loops:
        return False
    check_theorem(cg.nullity == 0,
                  "loopless conduction graph on a singular graph")
    return True


def is_nut(g: Graph, include_trivial: bool = False) -> bool:
    """Nullity one with a nowhere-zero kernel vector (exact).

    K1 satisfies the letter of the definition; it is excluded unless
    ``include_trivial`` is set.
    """
    if not g.is_simple() or not is_connected(g):
        return False
    if g.n == 1:
        return include_trivial
    a = adjacency_matrix(g)
    basis = linalg.kernel_basis(a)
    if len(basis) != 1:
        return False
    return all(x != 0 for x in basis[0])


def is_uniform_core_graph(g: Graph) -> bool:
    """All vertices core and every distinct device drops both single-deletion
    nullities by one and the double deletion by two.

    Such graphs have a conduction graph of isolated looped vertices; that
    consequence is checked whenever the predicate holds.
    """
    eta = graph_nullity(g)
    if eta < 2:
        return False
    for v in range(g.n):
        if _sub_nullity(g, 1 << v) != eta - 1:
            return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if _sub_nullity(g, 1 << u | 1 << v) != eta - 2:
                return False
    _check_ucg_conduction(g, conduction_graph(g))
    return True


def _check_ucg_conduction(g: Graph, cg: ConductionGraph):
    check_theorem(cg.graph.loops == (1 << g.n) - 1 and cg.graph.edge_count() == 0,
                  "uniform core graph without the nK1-loop conduction graph")


# ---------------------------------------------------------------------------
# class codes
# ---------------------------------------------------------------------------

def _letter(any_yes: bool, any_no: bool) -> str:
    if not any_yes and not any_no:
        return "X"
    if any_yes and any_no:
        return "X"
    return "C" if any_yes else "I"


@dataclass(frozen=True)
class ClassCode:
    """Conduction class letters over {C, I, X} plus the nullity digit.

    ``distinct_odd``/``distinct_even`` split the distinct devices by the
    parity of the connection distance in the base graph; for connected
    bipartite graphs this coincides with the inter/intra partite reading,
    recorded by ``bipartite_interpretation``.  ``empty_classes`` tells which
    X letters stand for an empty class rather than mixed behaviour.
    """

    distinct_all: str
    distinct_odd: str
    distinct_even: str
    ipso: str
    nullity_digit: int
    bipartite_interpretation: bool
    empty_classes: tuple[str, ...]

    @property
    def two_letter(self) -> str:
        return f"{self.distinct_all}{self.ipso}{self.nullity_digit}"

    @property
    def three_letter(self) -> str:
        return f"{self.distinct_odd}{self.distinct_even}{self.ipso}{self.nullity_digit}"


def class_code(g: Graph, cg: ConductionGraph | None = None) -> ClassCode:
    """Two- and three-letter conduction class of a connected simple graph."""
    if cg is None:
        cg = conduction_graph(g)
    tallies = {"odd": [False, False], "even": [False, False],
               "ipso": [False, False]}
    for u in range(g.n):
        dist = bfs_distances(g, u)
        loop = cg.graph.has_loop(u)
        tallies["ipso"][0 if loop else 1] = True
        for v in range(u + 1, g.n):
            kind = "odd" if dist[v] % 2 else "even"
            tallies[kind][0 if cg.graph.has_edge(u, v) else 1] = True
    any_edge = any(tallies[k][0] for k in ("odd", "even"))
    any_gap = any(tallies[k][1] for k in ("odd", "even"))
    empty = tuple(k for k in ("odd", "even", "ipso")
                  if not tallies[k][0] and not tallies[k][1])
    return ClassCode(
        distinct_all=_letter(any_edge, any_gap),
        distinct_odd=_letter(*tallies["odd"]),
        distinct_even=_letter(*tallies["even"]),
        ipso=_letter(*tallies["ipso"]),
        nullity_digit=min(cg.nullity, 2),
        bipartite_interpretation=is_bipartite(g),
        empty_classes=empty,
    )


# ---------------------------------------------------------------------------
# conduction-isomorphism
# ---------------------------------------------------------------------------

def conduction_isomorphism(g: Graph) -> list[int] | None:
    """Witness bijection from g onto its conduction graph, or None; the
    screen of :func:`conduction_isomorphisms` on one graph."""
    return conduction_isomorphisms([g])[0]


def conduction_isomorphisms(graphs) -> list[list[int] | None]:
    """For each graph, in order, a witness bijection from it onto its
    conduction graph, or None.

    Cheap screens run first: a conduction-isomorphic graph must be simple
    and nonsingular, its conduction graph loopless and connected with the
    same degree sequence (the conduction graph of a disconnected graph is
    disconnected); only survivors pay for a canonical-form comparison.  The
    graphs of one order share one :func:`linalg.modular_adjugates` call, and
    the loop and degree screens read its verified patterns in numpy.  A
    graph that the modular kernel leaves undecided takes the exact route of
    :func:`inverse_conduction_pattern`.
    """
    out = [None] * len(graphs)
    by_order = {}
    for i, g in enumerate(graphs):
        if g.is_simple():
            by_order.setdefault(g.n, []).append(i)
    for n, where in by_order.items():
        a = _adjacency_stack([graphs[i] for i in where], n)
        status, _, x = linalg.modular_adjugates(a)
        pattern = x != 0
        survives = ((status == linalg.ADJUGATE)
                    & ~pattern.diagonal(axis1=1, axis2=2).any(axis=1)
                    & (np.sort(pattern.sum(axis=2), axis=1)
                       == np.sort(a.sum(axis=2), axis=1)).all(axis=1))
        bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
        for k in np.flatnonzero(survives):
            rows = (pattern[k] * bits).sum(axis=1).tolist()
            out[where[k]] = _isomorphism_onto(graphs[where[k]], rows, 0)
        for k in np.flatnonzero(status == linalg.UNDECIDED):
            g = graphs[where[k]]
            try:
                rows, loops = inverse_conduction_pattern(g)
            except linalg.SingularMatrixError:
                continue
            out[where[k]] = _isomorphism_onto(g, rows, loops)
    return out


def _adjacency_stack(graphs, n: int) -> np.ndarray:
    """(B, n, n) int64 adjacency matrices of simple graphs of order n."""
    rows = np.frombuffer(b"".join(g.rows.tobytes() for g in graphs),
                         dtype=np.uint64).reshape(len(graphs), n, 1)
    return (rows >> np.arange(n, dtype=np.uint64) & np.uint64(1)).astype(np.int64)


def _isomorphism_onto(g: Graph, rows, loops: int) -> list[int] | None:
    """Witness from g onto the conduction graph given by rows and loops,
    after the loop, degree-sequence and connectivity screens."""
    if loops:
        return None
    if sorted(r.bit_count() for r in rows) != sorted(r.bit_count() for r in g.rows):
        return None
    cg = Graph(g.n, rows)
    if not is_connected(cg):
        return None
    return find_isomorphism(g, cg)


def is_conduction_isomorphic(g: Graph) -> bool:
    return conduction_isomorphism(g) is not None


def cubic_degree_theorem_check(g: Graph) -> bool:
    """Every conduction-graph vertex of a nonsingular cubic graph should have
    at least 4 neighbours; False would contradict the theorem.

    A looped vertex counts as its own neighbour, matching the nonzero count
    of the inverse column the theorem argues about.
    """
    if not g.is_simple() or not is_connected(g):
        raise ValueError("expected a connected simple graph")
    if any(r.bit_count() != 3 for r in g.rows):
        raise ValueError("expected a 3-regular graph")
    rows, loops = inverse_conduction_pattern(g)  # raises if singular
    return all(r.bit_count() + (loops >> v & 1) >= 4
               for v, r in enumerate(rows))


# ---------------------------------------------------------------------------
# one-stop report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    nullity: int
    is_ipso_omni_insulator: bool
    is_nut: bool
    is_ucg: bool
    is_conduction_isomorphic: bool
    code: ClassCode
    component_count: int
    loop_count: int


def classification_report(g: Graph) -> ClassificationReport:
    """Every field from the conduction graph and, for a singular graph, the
    bordered adjugate that built it; no further elimination."""
    cg = conduction_graph(g)
    eta = cg.nullity
    loopless = cg.graph.loops == 0
    witness = _isomorphism_onto(g, cg.graph.rows, cg.graph.loops)
    if witness is not None:
        # Corollary chain: conduction-isomorphic forces nullity 0 and an
        # ipso omni-insulator, and the witness keeps every degree; a
        # violation here is a bug, not data.
        check_theorem(eta == 0 and loopless,
                      "conduction-isomorphic graph that is singular or looped")
        check_theorem(all(g.degree(v) == cg.graph.degree(witness[v])
                          for v in range(g.n)),
                      "conduction-isomorphism witness changes degrees")
    # all core: every single deletion drops the nullity (no zero border row)
    all_core = eta > 0 and all(cg.analysis.nullity(v) == eta - 1
                               for v in range(g.n))
    is_ucg = all_core and eta >= 2 and all(
        cg.analysis.nullity(u, v) == eta - 2
        for u in range(g.n) for v in range(u + 1, g.n))
    if is_ucg:
        _check_ucg_conduction(g, cg)
    return ClassificationReport(
        nullity=eta,
        is_ipso_omni_insulator=loopless,
        is_nut=all_core and eta == 1 and g.n > 1,
        is_ucg=is_ucg,
        is_conduction_isomorphic=witness is not None,
        code=class_code(g, cg),
        component_count=cg.component_count(),
        loop_count=cg.loop_count(),
    )
