"""Canonical forms and isomorphism testing for graphs with loops.

The canonical form is computed by individualisation-refinement: starting from
the partition of vertices by loop colour, cells are split by the cells of
their neighbours until equitable, then a non-singleton target cell is
branched on.  Every leaf of the search tree yields a labelling; the canonical
labelling is the one whose relabelled adjacency encoding is smallest.
Automorphisms discovered as pairs of leaves with equal encodings prune
sibling branches (only generators fixing the individualised prefix pointwise
are used, which keeps the pruning sound) and their closure gives the vertex
orbits.

Loops are treated as vertex colours, never as degree contributions, so a
simple graph can never collide with a looped one.  Suitable for the orders
that occur here (n <= 64, census work at n <= 14); the interface is small
enough that a nauty binding could be swapped in behind it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bit_indices


class TheoremCheckError(RuntimeError):
    """A result contradicted a theorem of the paper, or a verified witness
    failed its check; indicates a bug.

    Raised explicitly rather than by ``assert`` so that the check survives
    ``python -O``; the command line maps it to exit code 3.
    """


def check_theorem(holds: bool, message: str):
    if not holds:
        raise TheoremCheckError(message)


@dataclass(frozen=True)
class CanonicalData:
    """Everything the search learns: labelling, form, orbits, generators."""

    labeling: tuple[int, ...]       # vertex -> canonical position
    form: bytes                     # complete isomorphism invariant
    orbits: tuple[int, ...]         # vertex -> orbit representative
    generators: tuple[tuple[int, ...], ...]


def _refine(nbrs, cells):
    """Equitable refinement of an ordered partition; ``nbrs[v]`` lists the
    neighbours of v.

    A cell splits by each vertex's key, the indices of its neighbours' cells
    sorted and negated; sub-cells are ordered by that key.  That orders them
    as the vectors of neighbour counts per cell would (a larger count in an
    earlier cell sorts later), which is label-independent, at O(deg) per
    vertex.
    """
    cell_of = [0] * len(nbrs)
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = -i
        out = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets = {}
            for v in cell:
                key = tuple(sorted(map(cell_of.__getitem__, nbrs[v]),
                                   reverse=True))
                buckets.setdefault(key, []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                changed = True
                for key in sorted(buckets):
                    out.append(buckets[key])
        if not changed:
            return out
        cells = out


def equitable_partition(nbrs) -> list[list[int]]:
    """Equitable refinement of the vertices of a simple graph by degree,
    cells in ascending degree order; ``nbrs[v]`` lists the neighbours of v.

    It is the root partition of the canonical search: canonical positions
    follow its cell order, and :func:`canonical_data` accepts it as the
    search's start.
    """
    by_degree = {}
    for v, nb in enumerate(nbrs):
        by_degree.setdefault(len(nb), []).append(v)
    return _refine(nbrs, [by_degree[k] for k in sorted(by_degree)])


def _encode(n, rows, loops, lab):
    """Adjacency-plus-loops encoding of the graph relabelled by ``lab``."""
    inv = [0] * n
    for v, p in enumerate(lab):
        inv[p] = v
    crows = []
    cloops = 0
    for p in range(n):
        v = inv[p]
        row = rows[v]
        acc = 0
        m = row
        while m:
            u = (m & -m).bit_length() - 1
            acc |= 1 << lab[u]
            m &= m - 1
        crows.append(acc)
        if loops >> v & 1:
            cloops |= 1 << p
    return (cloops, tuple(crows))


def _canonical_search(n, rows, loops, cells=None):
    if n == 1:
        lab = (0,)
        enc = _encode(1, rows, loops, lab)
        return lab, enc, (0,), ()

    if loops:
        plain = [v for v in range(n) if not loops >> v & 1]
        looped = [v for v in range(n) if loops >> v & 1]
        start = [c for c in (plain, looped) if c]
    else:
        start = [list(range(n))]

    nbrs = list(map(bit_indices, rows))
    best: list = [None, None]   # encoding, labeling
    generators: list[tuple[int, ...]] = []

    def orbit_reached(v, targets, prefix):
        """True when some discovered automorphism fixing ``prefix`` maps v
        into ``targets`` (possibly via a chain of generators)."""
        gens = [g for g in generators
                if all(g[p] == p for p in prefix)]
        if not gens:
            return False
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            if x in targets:
                return True
            for g in gens:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    def search(cells, prefix):
        """Branch below the equitable partition ``cells``."""
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            lab = [0] * n
            pos = 0
            for cell in cells:
                lab[cell[0]] = pos
                pos += 1
            lab = tuple(lab)
            enc = _encode(n, rows, loops, lab)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best[1] = lab
            elif enc == best[0]:
                # equal leaves compose to an automorphism
                binv = [0] * n
                for v, p in enumerate(best[1]):
                    binv[p] = v
                gamma = tuple(binv[lab[v]] for v in range(n))
                if any(gamma[v] != v for v in range(n)):
                    generators.append(gamma)
            return
        cell = cells[target]
        done: list[int] = []
        for v in cell:
            if done and orbit_reached(v, set(done), prefix):
                continue
            child = cells[:target] + [[v], [u for u in cell if u != v]] \
                + cells[target + 1:]
            search(_refine(nbrs, child), prefix + (v,))
            done.append(v)

    search(_refine(nbrs, start) if cells is None else cells, ())

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                parent[max(a, b)] = min(a, b)
    orbits = tuple(find(v) for v in range(n))
    return best[1], best[0], orbits, tuple(generators)


def canonical_data(g: Graph, cells=None) -> CanonicalData:
    """Canonical labelling, form, orbits and automorphism generators of g.

    ``cells``, when given, must be :func:`equitable_partition` of the simple
    graph g; the search then starts from it instead of refining again.
    """
    lab, enc, orbits, gens = _canonical_search(g.n, list(g.rows), g.loops, cells)
    cloops, crows = enc
    form = bytes([g.n]) + cloops.to_bytes(8, "little") + b"".join(
        r.to_bytes(8, "little") for r in crows)
    return CanonicalData(lab, form, orbits, gens)


def canonical_form(g: Graph) -> bytes:
    """Complete isomorphism invariant (loops respected as vertex colours)."""
    return canonical_data(g).form


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    return canonical_data(g).labeling


def automorphism_orbits(g: Graph) -> tuple[int, ...]:
    """Vertex orbit representatives under the full automorphism group."""
    return canonical_data(g).orbits


def find_isomorphism(g1: Graph, g2: Graph) -> list[int] | None:
    """Vertex bijection mapping g1 onto g2, or None.

    The witness is re-verified edge-by-edge and loop-by-loop before return.
    """
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return None
    if g1.loops.bit_count() != g2.loops.bit_count():
        return None
    if sorted(r.bit_count() for r in g1.rows) != sorted(r.bit_count() for r in g2.rows):
        return None
    d1 = canonical_data(g1)
    d2 = canonical_data(g2)
    if d1.form != d2.form:
        return None
    inv2 = [0] * g2.n
    for v, p in enumerate(d2.labeling):
        inv2[p] = v
    witness = [inv2[d1.labeling[v]] for v in range(g1.n)]
    check_theorem(verify_witness(g1, g2, witness),
                  "canonical labellings produced an invalid witness")
    return witness


def verify_witness(g1: Graph, g2: Graph, h) -> bool:
    """Does h map g1 onto g2 exactly (edges to edges, loops to loops)?"""
    return sorted(h) == list(range(g1.n)) and g1.relabel(h) == g2


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None
