"""Shared fixtures and brute-force oracles.

The oracles here are deliberately naive (permutation search, explicit
2-colourings, cofactor expansions): they are the independent references the
fast implementations are checked against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from condgraph.census import enumerate_connected
from condgraph.graphs import Graph


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
