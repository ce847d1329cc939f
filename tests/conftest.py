"""Shared fixtures and brute-force oracles.

The oracles here are deliberately naive (permutation search, explicit
2-colourings, cofactor expansions, rational Gauss-Jordan, one elimination per
deleted subgraph): they are the independent references the fast
implementations are checked against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from condgraph import linalg
from condgraph.census import enumerate_connected
from condgraph.classify import ClassCode, _letter
from condgraph.conduction import (ConductionGraph, DeviceVerdict, NullitySignature,
                                  Rule, _sub_char_poly, _sub_matrix,
                                  _verdict_from_signature, inverse_conduction_pattern)
from condgraph.graphs import Graph, bfs_distances, is_bipartite, is_connected, reach
from condgraph.linalg import SingularMatrixError


@pytest.fixture(scope="session")
def connected_upto_7():
    """All connected graphs with 1..7 vertices, keyed by order."""
    return {n: list(enumerate_connected(n)) for n in range(1, 8)}


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Try every vertex bijection."""
    if g1.n != g2.n:
        return False
    for perm in itertools.permutations(range(g1.n)):
        ok = True
        for v in range(g1.n):
            if g1.loops >> v & 1 != g2.loops >> perm[v] & 1:
                ok = False
                break
            for u in range(v + 1, g1.n):
                if g1.has_edge(u, v) != g2.has_edge(perm[u], perm[v]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def brute_force_orbits(g: Graph) -> list[int]:
    """Vertex orbits from the full automorphism group by permutation search."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for perm in itertools.permutations(range(g.n)):
        is_auto = all(
            (g.loops >> v & 1) == (g.loops >> perm[v] & 1)
            and all(g.has_edge(u, v) == g.has_edge(perm[u], perm[v])
                    for u in range(v + 1, g.n))
            for v in range(g.n))
        if is_auto:
            for v in range(g.n):
                a, b = find(v), find(perm[v])
                if a != b:
                    parent[max(a, b)] = min(a, b)
    return [find(v) for v in range(g.n)]


def brute_force_bipartite(g: Graph) -> bool:
    """Search all 2-colourings."""
    if g.loops:
        return False
    for colors in itertools.product((0, 1), repeat=g.n):
        if all(colors[u] != colors[v] for u, v in g.edges()):
            return True
    return False


def cofactor_adjugate(a) -> list[list[int]]:
    """Adjugate by explicit cofactor expansion (Laplace determinants)."""
    n = len(a)

    def laplace_det(m):
        k = len(m)
        if k == 0:
            return 1
        if k == 1:
            return m[0][0]
        total = 0
        for j in range(k):
            if m[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = m[0][j] * laplace_det(minor)
            total += term if j % 2 == 0 else -term
        return total

    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i]
            cof = laplace_det(minor)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out


def rational_rref_rank(a) -> int:
    """Rank via plain rational row reduction."""
    m = [[Fraction(x) for x in row] for row in a]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def fraction_inverse(a) -> list[list[Fraction]]:
    """Exact inverse of a square integer or rational matrix by Gauss-Jordan
    over the rationals.

    A singular matrix raises :class:`SingularMatrixError` carrying its
    kernel basis.
    """
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = None
        for r in range(c, n):
            if m[r][c]:
                p = r
                break
        if p is None:
            # the kernel of a rational matrix is that of an integer multiple
            scale = lcm(*(Fraction(x).denominator for row in a for x in row))
            raise SingularMatrixError(
                linalg.kernel_basis([[int(x * scale) for x in row] for row in a]))
        if p != c:
            m[c], m[p] = m[p], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def count_linalg_calls(monkeypatch, *names) -> dict:
    """Count the calls of the named ``condgraph.linalg`` functions, by name,
    for the rest of the test."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(linalg, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(linalg, name, counted)
    return counts


def count_vector_refine(rows, cells):
    """Equitable refinement of an ordered partition of a graph given by
    adjacency bit rows: cells split by the vector of neighbour counts in
    every current cell, sub-cells ordered by that vector."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        out = []
        changed = False
        for cell in cells:
            buckets = {}
            for v in cell:
                key = tuple((rows[v] & m).bit_count() for m in masks)
                buckets.setdefault(key, []).append(v)
            changed |= len(buckets) > 1
            out += [buckets[key] for key in sorted(buckets)]
        if not changed:
            return out
        cells = out


def connected_without(rows, n, v):
    """Is the graph of adjacency bit rows ``rows`` on n vertices still
    connected without vertex v?  One walk over the rest; orders up to 2
    count as connected."""
    if n <= 2:
        return True
    alive = ((1 << n) - 1) & ~(1 << v)
    return reach(rows, alive & -alive, alive) == alive


def random_graph(rng: random.Random, n: int, p: float = 0.5,
                 with_loops: bool = False) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    loops = [v for v in range(n) if with_loops and rng.random() < 0.3]
    return Graph.from_edges(n, edges, loops)


def prism(k: int) -> Graph:
    """The prism C_k x K2, a cubic graph of order 2k."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    return Graph.from_edges(2 * k, edges + [(i, k + i) for i in range(k)])


def cubic_with_twins(order: int) -> Graph:
    """A connected cubic graph of even order >= 12 with two vertices that
    share their neighbours, so singular: the prism over C_k, k = (order -
    6) / 2, with the rung 0 - k replaced by K_{3,3} minus an edge."""
    k = (order - 6) // 2
    edges = [e for e in prism(k).edges() if e != (0, k)]
    xs, ys = range(2 * k, 2 * k + 3), range(2 * k + 3, 2 * k + 6)
    edges += [(x, y) for x in xs for y in ys if (x, y) != (xs[0], ys[0])]
    return Graph.from_edges(order, edges + [(0, xs[0]), (k, ys[0])])


# ---------------------------------------------------------------------------
# the selection rules over directly eliminated deletions
# ---------------------------------------------------------------------------

def sub_nullity(g: Graph, dropped: int) -> int:
    """Nullity of the adjacency matrix of g minus the vertices in ``dropped``,
    by one rank elimination.  The empty graph has nullity 0."""
    m = _sub_matrix(g, dropped)
    return len(m) - linalg.rank(m)


def make_jtester(g: Graph, eta: int):
    """Equal-nullity resolver with lazy per-graph polynomial caching.

    The device conducts iff the forced zero roots of u*t - s*v are not
    exceeded, i.e. their count equals twice the graph's nullity.
    """
    cache = {}

    def poly(dropped):
        if dropped not in cache:
            cache[dropped] = _sub_char_poly(g, dropped)
        return cache[dropped]

    def jtest(u, v):
        p = poly(1 << v) * poly(1 << u) - poly(0) * _sub_char_poly(
            g, 1 << u | 1 << v)
        if p.is_zero():
            return False
        return p.trailing_zero_count() == 2 * eta

    return jtest


def reference_device(g: Graph, u: int, v: int):
    """(nullity signature, verdict) of the device (g, u, v), u == v for
    ipso: one elimination per deletion and the polynomial j-test."""
    eta = sub_nullity(g, 0)
    eta_u = sub_nullity(g, 1 << u)
    if u == v:
        sig = NullitySignature(eta, eta_u, eta_u, None)
    else:
        sig = NullitySignature(eta, eta_u, sub_nullity(g, 1 << v),
                               sub_nullity(g, 1 << u | 1 << v))
    return sig, _verdict_from_signature(u, v, sig, make_jtester(g, eta))


def conduction_by_rules(g: Graph) -> ConductionGraph:
    """Every device through the selection-rule table over directly
    eliminated deletions (eta(G-u-v) for every pair) and the polynomial
    j-test; no shortcut of the production walk.  A core/core pair of a
    nullity-1 graph keeps its table verdict under the walk's label,
    ``Rule.NULLITY1_BLOCKS``."""
    n = g.n
    eta = sub_nullity(g, 0)
    single = [sub_nullity(g, 1 << v) for v in range(n)]
    jtest = make_jtester(g, eta)
    walked = []
    rows = [0] * n
    loops = 0
    for u in range(n):
        walked.append([])
        for v in range(u, n):
            sig = NullitySignature(
                eta, single[u], single[v],
                None if u == v else sub_nullity(g, 1 << u | 1 << v))
            dv = _verdict_from_signature(u, v, sig, jtest)
            if u != v and eta == 1 and single[u] == single[v] == 0:
                dv = DeviceVerdict(dv.conducts, Rule.NULLITY1_BLOCKS)
            walked[u].append(dv)
            if dv.conducts and u == v:
                loops |= 1 << u
            elif dv.conducts:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return ConductionGraph(Graph(n, rows, loops), walked, eta)


def class_code_by_distances(g: Graph, cg: ConductionGraph) -> ClassCode:
    """The class code from one ``bfs_distances`` list per vertex and one
    ``has_edge`` test per distinct device of the conduction graph ``cg``."""
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


def ucg_by_deletions(g: Graph) -> bool:
    """Uniform core graph: nullity at least 2, every single deletion drops it
    by one and every double deletion by two."""
    eta = sub_nullity(g, 0)
    return eta >= 2 and all(
        sub_nullity(g, 1 << v) == eta - 1 for v in range(g.n)) and all(
        sub_nullity(g, 1 << u | 1 << v) == eta - 2
        for u in range(g.n) for v in range(u + 1, g.n))


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
