"""Graph-level conduction classes.

Everything here is a view over the conduction graph: omni-insulator and nut
predicates, uniform core graphs, the two- and three-letter conduction class
codes, and conduction-isomorphism with an explicit witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .conduction import (BorderedAdjugate, ConductionGraph, analyse,
                         conduction_graph, inverse_conduction_pattern)
from .graphs import Graph, is_bipartite, is_connected
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
    """Nullity one with a nowhere-zero kernel vector (exact), read from the
    analysis as :func:`classification_report` reads it: eta = 1 and every
    vertex core (no zero border row).  A looped or disconnected graph is no
    nut.

    K1 satisfies the letter of the definition; it is excluded unless
    ``include_trivial`` is set.
    """
    if not g.is_simple() or not is_connected(g):
        return False
    if g.n == 1:
        return include_trivial
    analysis = analyse(g)
    return analysis.eta == 1 and all(analysis.nullity(v) == 0
                                     for v in range(g.n))


def is_uniform_core_graph(g: Graph) -> bool:
    """All vertices core and every distinct device drops both single-deletion
    nullities by one and the double deletion by two, read from the analysis
    that builds the conduction graph (a connected simple graph, as there).

    Such graphs have a conduction graph of isolated looped vertices; that
    consequence is checked whenever the predicate holds.
    """
    return _core(g, conduction_graph(g))[1]


def _core(g: Graph, cg: ConductionGraph) -> tuple[bool, bool]:
    """(all core, uniform core graph) from the bordered adjugate that built
    cg; all core means every single deletion drops the nullity (no zero
    border row)."""
    eta = cg.nullity
    all_core = eta > 0 and all(cg.analysis.nullity(v) == eta - 1
                               for v in range(g.n))
    is_ucg = all_core and eta >= 2 and all(
        cg.analysis.nullity(u, v) == eta - 2
        for u in range(g.n) for v in range(u + 1, g.n))
    if is_ucg:
        check_theorem(cg.graph.loops == (1 << g.n) - 1
                      and cg.graph.edge_count() == 0,
                      "uniform core graph without the nK1-loop conduction graph")
    return all_core, is_ucg


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
    """Two- and three-letter conduction class of a connected simple graph.

    Each device's distance parity is a bit test: one frontier walk per
    vertex u collects the vertices at even distance from u, and the devices
    (u, v) with v > u are read against u's row of the conduction graph as
    masks.  A vertex that u does not reach counts as odd."""
    if cg is None:
        cg = conduction_graph(g)
    n, rows = g.n, cg.graph.rows
    full = (1 << n) - 1
    odd_edge = odd_gap = even_edge = even_gap = False
    for u in range(n - 1):
        above = full >> (u + 1) << (u + 1)
        even = _even_layers(g.rows, u) & above
        odd = above & ~even
        row = rows[u]
        odd_edge = odd_edge or bool(odd & row)
        odd_gap = odd_gap or bool(odd & ~row)
        even_edge = even_edge or bool(even & row)
        even_gap = even_gap or bool(even & ~row)
    loops = cg.graph.loops
    tallies = {"odd": (odd_edge, odd_gap), "even": (even_edge, even_gap),
               "ipso": (loops != 0, loops != full)}
    empty = tuple(k for k, (yes, no) in tallies.items() if not yes and not no)
    return ClassCode(
        distinct_all=_letter(odd_edge or even_edge, odd_gap or even_gap),
        distinct_odd=_letter(*tallies["odd"]),
        distinct_even=_letter(*tallies["even"]),
        ipso=_letter(*tallies["ipso"]),
        nullity_digit=min(cg.nullity, 2),
        bipartite_interpretation=is_bipartite(g),
        empty_classes=empty,
    )


def _even_layers(rows, src: int) -> int:
    """Mask of the vertices at even distance from ``src``, layer by layer."""
    seen = even = frontier = 1 << src
    odd_layer = True
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= rows[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        seen |= frontier
        if not odd_layer:
            even |= frontier
        odd_layer = not odd_layer
    return even


# ---------------------------------------------------------------------------
# conduction-isomorphism
# ---------------------------------------------------------------------------

def conduction_isomorphism(g: Graph) -> list[int] | None:
    """Witness bijection from g onto its conduction graph, or None; the
    screen of :func:`conduction_isomorphisms` on one graph."""
    return conduction_isomorphisms([g])[0]


def conduction_isomorphisms(graphs, stacks=None) -> list[list[int] | None]:
    """For each graph, in order, a witness bijection from it onto its
    conduction graph, or None.

    Cheap screens run first: a conduction-isomorphic graph must be simple
    and nonsingular, its conduction graph loopless and connected with the
    same degree sequence (the conduction graph of a disconnected graph is
    disconnected); only survivors pay for a canonical-form comparison.  The
    graphs of one order share one :func:`linalg.modular_adjugates` call
    (``stacks``, :func:`stacked_adjugates` of ``graphs``, made here when not
    given), and the loop and degree screens read its verified patterns in
    numpy.  A graph that the modular kernel leaves undecided goes to
    :func:`inverse_conduction_pattern`, whose route
    :func:`linalg.bordered_inverse` chooses.
    """
    if stacks is None:
        stacks = stacked_adjugates(graphs)
    out = [None] * len(graphs)
    for n, (where, a, status, x) in stacks.items():
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


def stacked_adjugates(graphs) -> dict:
    """One :func:`linalg.modular_adjugates` call per order over the simple
    graphs of ``graphs``: order n -> (their positions in ``graphs``, their
    (B, n, n) adjacency stack, status, X)."""
    by_order = {}
    for i, g in enumerate(graphs):
        if g.is_simple():
            by_order.setdefault(g.n, []).append(i)
    stacks = {}
    for n, where in by_order.items():
        a = _adjacency_stack([graphs[i] for i in where], n)
        status, _, x = linalg.modular_adjugates(a)
        stacks[n] = where, a, status, x
    return stacks


def certified_inverses(stacks, count: int) -> list:
    """Per graph of the ``count`` graphs behind ``stacks``: its X = d A^-1
    (a view into the stack, used only after A X = d I held) where its status
    is ``ADJUGATE``, else None."""
    out = [None] * count
    for where, _, status, x in stacks.values():
        for k in np.flatnonzero(status == linalg.ADJUGATE).tolist():
            out[where[k]] = x[k]
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


def classification_report(g: Graph, analysis: BorderedAdjugate | None = None
                          ) -> ClassificationReport:
    """Every field from the conduction graph and, for a singular graph, the
    bordered adjugate that built it; no further elimination.  The conduction
    graph is read from ``analysis`` when one is given (g's, as
    :func:`conduction_graph` takes it), else ``conduction_graph(g)`` makes
    its own."""
    # g alone when there is no analysis: a stand-in for conduction_graph
    # (a tracer, a fault injection) may take that one argument
    cg = conduction_graph(g) if analysis is None else conduction_graph(g, analysis)
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
    all_core, is_ucg = _core(g, cg)
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
