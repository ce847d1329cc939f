"""Constructive generators for the conduction-isomorphic families.

Five constructions are provided, each shipping the explicit vertex bijection
onto its conduction graph from the corresponding existence proof:

* iterated corona graphs (pendant vertex on every vertex; combs, radialenes);
* chemical graphs of minimum degree two on 4k vertices;
* graphs of minimum degree 2k-5 on 2k vertices;
* the canonical double cover of a non-bipartite conduction-isomorphic graph;
* a second pendant family on 4k-4 vertices that is not a corona.

Vertex labels follow the block order of the defining matrices so the witness
maps apply verbatim.  All indices are 0-based and block-local arithmetic is
modular.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .graphs import (MAX_VERTICES, Graph, cycle_graph, graph_from_adjacency,
                     path_graph)


# ---------------------------------------------------------------------------
# corona graphs
# ---------------------------------------------------------------------------

def corona(base: Graph, iterations: int = 1, permutation=None) -> Graph:
    """Iterated corona: each round doubles the graph by attaching one pendant
    vertex to every vertex.

    ``permutation`` optionally rewires the pendant block through a permutation
    matrix commuting with the adjacency matrix (the proofs allow any such
    matrix; the identity is the default and the only chemical choice).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if base.n << iterations > MAX_VERTICES:
        raise ValueError(f"corona would exceed {MAX_VERTICES} vertices")
    g = base
    for _ in range(iterations):
        n = g.n
        perm = list(range(n)) if permutation is None else list(permutation)
        if sorted(perm) != list(range(n)):
            raise ValueError("permutation must act on the current vertex set")
        for u in range(n):
            for v in g.neighbors(u):
                # commuting with A means the permutation is a graph automorphism
                if not g.has_edge(perm[u], perm[v]):
                    raise ValueError("permutation does not commute with adjacency")
        edges = g.edges() + [(u, n + perm[u]) for u in range(n)]
        g = Graph.from_edges(2 * n, edges)
        permutation = None  # a supplied permutation applies to the first round only
    return g


def comb(teeth: int) -> Graph:
    """Corona of a path: the comb on 2*teeth vertices."""
    return corona(path_graph(teeth))


def radialene(spokes: int) -> Graph:
    """Corona of a cycle: the radialene on 2*spokes vertices."""
    return corona(cycle_graph(spokes))


def corona_spectrum(base_eigenvalues) -> list[float]:
    """Spectrum of the corona from the base spectrum: each base eigenvalue
    splits into (x +- sqrt(x^2 + 4)) / 2.  Paired values multiply to -1."""
    out = []
    for x in base_eigenvalues:
        root = math.sqrt(x * x + 4.0)
        out.append((x + root) / 2.0)
        out.append((x - root) / 2.0)
    return sorted(out, reverse=True)


def corona_witness(n_total: int) -> list[int]:
    """The proof's isomorphism onto the conduction graph: swap the two halves."""
    if n_total % 2:
        raise ValueError("corona graphs have even order")
    half = n_total // 2
    return [v + half if v < half else v - half for v in range(n_total)]


# ---------------------------------------------------------------------------
# structured 0-1 blocks
# ---------------------------------------------------------------------------

def f_matrix(n: int, a: int) -> list[list[int]]:
    """One 1 per row: at column i+a for even i, i-a for odd i, mod n."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + a) % n if i % 2 == 0 else (i - a) % n
        m[i][j] = 1
    return m


def cyclic_permutation_matrix(n: int, inverse: bool = False) -> list[list[int]]:
    """P with P[i][i-1] = 1 (or P^-1 with P[i][i+1] = 1), indices mod n."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][(i + 1) % n if inverse else (i - 1) % n] = 1
    return m


def _block(tl, tr, bl, br):
    return [r1 + r2 for r1, r2 in zip(tl, tr)] + [r1 + r2 for r1, r2 in zip(bl, br)]


def _madd(*ms):
    return [[sum(m[i][j] for m in ms) for j in range(len(ms[0][0]))]
            for i in range(len(ms[0]))]


def _transpose(m):
    return [list(col) for col in zip(*m)]


# ---------------------------------------------------------------------------
# minimum degree two, 4k vertices
# ---------------------------------------------------------------------------

def min_deg2_graph(k: int) -> Graph:
    """Chemical conduction-isomorphic graph with minimum degree 2 on 4k points:
    an inner 4k-cycle block structure of f-matrices."""
    if k < 2:
        raise ValueError("min_deg2 family needs k >= 2")
    if 4 * k > MAX_VERTICES:
        raise ValueError(f"4k = {4 * k} exceeds {MAX_VERTICES} vertices")
    n = 2 * k
    a = _block(_madd(f_matrix(n, 1), f_matrix(n, -1)), f_matrix(n, 0),
               f_matrix(n, 0), f_matrix(n, 1))
    return graph_from_adjacency(a)


def min_deg2_witness(k: int) -> list[int]:
    n = 2 * k
    h = []
    for u in range(4 * k):
        if u < n:
            h.append(u + n if u % 2 == 0 else (u + 2) % n + n)
        else:
            h.append((u + 2) % n if u % 2 == 0 else u - n)
    return h


# ---------------------------------------------------------------------------
# minimum degree 2k-5, 2k vertices
# ---------------------------------------------------------------------------

def large_min_deg_graph(k: int) -> Graph:
    """Conduction-isomorphic graph on 2k vertices, degrees 2k-3 and 2k-5."""
    if k < 3:
        raise ValueError("large_min_deg family needs k >= 3")
    if 2 * k > MAX_VERTICES:
        raise ValueError(f"2k = {2 * k} exceeds {MAX_VERTICES} vertices")
    j_i = [[int(i != j) for j in range(k)] for i in range(k)]
    p = cyclic_permutation_matrix(k)
    pi = cyclic_permutation_matrix(k, inverse=True)
    tr = [[j_i[i][j] - p[i][j] for j in range(k)] for i in range(k)]
    bl = [[j_i[i][j] - pi[i][j] for j in range(k)] for i in range(k)]
    br = [[j_i[i][j] - pi[i][j] - p[i][j] for j in range(k)] for i in range(k)]
    return graph_from_adjacency(_block(j_i, tr, bl, br))


def large_min_deg_witness(k: int) -> list[int]:
    return [k + (u - 1) % k if u < k else u - k for u in range(2 * k)]


# ---------------------------------------------------------------------------
# canonical double cover
# ---------------------------------------------------------------------------

def canonical_double_cover(base: Graph) -> Graph:
    """Bipartite double on V x {0,1}; vertex (u, j) gets index u + j*n.

    Always bipartite; connected exactly when the base is connected and
    non-bipartite.  Conduction-isomorphism transfers only from bases that are
    themselves connected, non-bipartite and conduction-isomorphic.
    """
    if 2 * base.n > MAX_VERTICES:
        raise ValueError(f"double cover would exceed {MAX_VERTICES} vertices")
    n = base.n
    edges = []
    for u, v in base.edges():
        edges.append((u, v + n))
        edges.append((v, u + n))
    return Graph.from_edges(2 * n, edges)


def cdc_witness(base_witness) -> list[int]:
    """Lift a base witness h to the double cover: (u, j) -> (h(u), j)."""
    n = len(base_witness)
    return [base_witness[u] for u in range(n)] + \
        [base_witness[u] + n for u in range(n)]


# ---------------------------------------------------------------------------
# the 4k-4 pendant family (not a corona)
# ---------------------------------------------------------------------------

def appendix_family_graph(k: int) -> Graph:
    """Chemical conduction-isomorphic graph with a pendant path on 4k-4
    vertices: a 2k-path with a matched row of 2k-4 extra vertices."""
    if k < 3:
        raise ValueError("this family needs k >= 3")
    if 4 * k - 4 > MAX_VERTICES:
        raise ValueError(f"4k-4 = {4 * k - 4} exceeds {MAX_VERTICES} vertices")
    n1, n2 = 2 * k, 2 * k - 4
    tl = _madd(f_matrix(n1, 1), f_matrix(n1, -1))
    tl[0][n1 - 1] -= 1
    tl[n1 - 1][0] -= 1
    tr = [[0] * n2 for _ in range(n1)]
    for j in range(n2):
        tr[3 + j][j] = 1  # rows 0..2 and 2k-1 stay zero
    return graph_from_adjacency(_block(tl, tr, _transpose(tr), f_matrix(n2, 1)))


def appendix_witness(k: int) -> list[int]:
    """Witness map of the 4k-4 family: vertices 0,1 trade places with
    2k-2, 2k-1 and everything else reflects through the path."""
    n = 4 * k - 4
    h = []
    for u in range(n):
        if u in (0, 1):
            h.append(2 * k - 2 + u)
        elif u in (2 * k - 2, 2 * k - 1):
            h.append(u - (2 * k - 2))
        elif u % 2 == 0:
            h.append((4 * k - 4 - u) % n)
        else:
            h.append((4 * k - 2 - u) % n)
    return h


# ---------------------------------------------------------------------------
# dispatch by name
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    needs: str  # the parameter that must be given: "k" or "base"
    build: Callable[[int | None, Graph | None], Graph]
    witness: Callable[[int | None, Graph | None], list[int]]
    order: Callable[[int], int] | None = None  # a k-family's order from k


def _rounds(k: int | None) -> int:
    """Corona rounds: one when ``k`` is not given."""
    if k is None:
        return 1
    if k < 1:
        raise ValueError("iterations must be >= 1")
    return k


def _cdc_witness_of(base: Graph) -> list[int]:
    from .classify import conduction_isomorphism
    base_witness = conduction_isomorphism(base)
    if base_witness is None:
        raise ValueError("cdc base graph is not conduction-isomorphic")
    return cdc_witness(base_witness)


# every family by its command-line name; ``k`` is the size parameter (the
# number of corona rounds, default 1, for ``corona``)
FAMILIES = {
    "corona": _Family("base", lambda k, base: corona(base, _rounds(k)),
                      lambda k, base: corona_witness(base.n << _rounds(k))),
    "comb": _Family("k", lambda k, base: comb(k),
                    lambda k, base: corona_witness(2 * k), lambda k: 2 * k),
    "radialene": _Family("k", lambda k, base: radialene(k),
                         lambda k, base: corona_witness(2 * k), lambda k: 2 * k),
    "min_deg2": _Family("k", lambda k, base: min_deg2_graph(k),
                        lambda k, base: min_deg2_witness(k), lambda k: 4 * k),
    "large_min_deg": _Family("k", lambda k, base: large_min_deg_graph(k),
                             lambda k, base: large_min_deg_witness(k),
                             lambda k: 2 * k),
    "cdc": _Family("base", lambda k, base: canonical_double_cover(base),
                   lambda k, base: _cdc_witness_of(base)),
    "appendix": _Family("k", lambda k, base: appendix_family_graph(k),
                        lambda k, base: appendix_witness(k), lambda k: 4 * k - 4),
}


def _family(name: str, k, base) -> _Family:
    family = FAMILIES.get(name)
    if family is None:
        raise ValueError(f"unknown family {name!r}; choose from "
                         f"{', '.join(FAMILIES)}")
    if (k if family.needs == "k" else base) is None:
        raise ValueError(f"family {name} needs {family.needs}")
    return family


def build_family(name: str, k: int | None = None,
                 base: Graph | None = None) -> Graph:
    """The member of the named family with size ``k`` or over ``base``."""
    return _family(name, k, base).build(k, base)


def witness_isomorphism(name: str, k: int | None = None,
                        base: Graph | None = None) -> list[int]:
    """The named family's explicit bijection onto the conduction graph."""
    return _family(name, k, base).witness(k, base)
