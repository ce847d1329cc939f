"""Graph data model on at most 64 vertices, with a bit-exact graph6 codec.

Vertices are the integers ``0..n-1``.  Adjacency is stored as one bitmask per
vertex, the rows packed as unsigned 64-bit words in one ``array('Q')`` (n <=
64, so every row fits one word, and indexing yields a plain Python int), plus
a separate bitmask of vertices carrying a self-loop.  Loops are kept out of
the pair relation on purpose: almost every code path deals with simple graphs
and only conduction graphs ever carry loops.  In the adjacency matrix a loop
shows up as the diagonal entry 2.

Graph instances are immutable values; every "mutating" helper returns a new
instance, so graphs are safe to share between threads and to use as dict keys.
Attribute assignment is refused; the packed rows are shared, not copied, on
read, so they must be treated as read-only.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as np

MAX_VERTICES = 64


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the offending byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class Graph:
    """Undirected graph, no parallel edges, optional self-loops."""

    __slots__ = ("n", "rows", "loops")

    def __init__(self, n: int, rows: Sequence[int], loops: int = 0):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        rows = list(rows)  # validated as Python ints, then packed
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"diagonal bit set at vertex {v}; use the loop set")
        for v, row in enumerate(rows):
            m = row
            while m:
                u = (m & -m).bit_length() - 1
                if not rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
                m &= m - 1
        if loops & ~full:
            raise ValueError("loop set references vertices out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", array("Q", rows))
        object.__setattr__(self, "loops", loops)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.n, self.rows, self.loops))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = (),
                   loops: Iterable[int] = ()) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"edge ({u},{v}) is a loop; pass it via loops=")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        loop_mask = 0
        for v in loops:
            loop_mask |= 1 << v
        return cls(n, rows, loop_mask)

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def has_loop(self, v: int) -> bool:
        return bool(self.loops >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return bit_indices(self.rows[v])

    def degree(self, v: int) -> int:
        """Matrix degree: each loop counts twice."""
        return self.rows[v].bit_count() + 2 * (self.loops >> v & 1)

    def neighbor_count(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.n)
                for u in bit_indices(self.rows[v] >> (v + 1) << (v + 1))]

    def loop_vertices(self) -> list[int]:
        return bit_indices(self.loops)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def is_simple(self) -> bool:
        return self.loops == 0

    # -- derived graphs ---------------------------------------------------

    def delete_vertices(self, verts: Iterable[int]) -> "Graph":
        """Induced subgraph on the complement of ``verts`` (order preserved)."""
        drop = 0
        for v in verts:
            drop |= 1 << v
        keep = [v for v in range(self.n) if not drop >> v & 1]
        if not keep:
            raise ValueError("cannot delete every vertex")
        return self.induced(keep)

    def induced(self, keep: Sequence[int]) -> "Graph":
        pos = {v: i for i, v in enumerate(keep)}
        rows = [0] * len(keep)
        loops = 0
        for i, v in enumerate(keep):
            for u in bit_indices(self.rows[v]):
                if u in pos:
                    rows[i] |= 1 << pos[u]
            if self.loops >> v & 1:
                loops |= 1 << i
        return Graph(len(keep), rows, loops)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image under ``perm``: vertex v of self becomes perm[v]."""
        rows = [0] * self.n
        loops = 0
        for v in range(self.n):
            nv = perm[v]
            for u in bit_indices(self.rows[v]):
                rows[nv] |= 1 << perm[u]
            if self.loops >> v & 1:
                loops |= 1 << nv
        return Graph(self.n, rows, loops)

    def without_loops(self) -> "Graph":
        return Graph(self.n, self.rows, 0) if self.loops else self

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.rows == other.rows and self.loops == other.loops)

    def __hash__(self):
        return hash((self.n, self.rows.tobytes(), self.loops))

    def __repr__(self):
        tag = f", loops={self.loop_vertices()}" if self.loops else ""
        return f"Graph(n={self.n}, edges={self.edges()}{tag})"


def bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def adjacency_matrix(g: Graph) -> list[list[int]]:
    """Integer adjacency matrix: 1 per edge, 2 on the diagonal per loop."""
    a = [[0] * g.n for _ in range(g.n)]
    for v in range(g.n):
        for u in bit_indices(g.rows[v]):
            a[v][u] = 1
    for v in bit_indices(g.loops):
        a[v][v] = 2
    return a


def adjacency_array(graphs: "Graph | Sequence[Graph]") -> np.ndarray:
    """The int64 adjacency matrix of a simple graph, shape (n, n), or the
    (B, n, n) stack of those of a non-empty sequence of B simple graphs of
    one order, unpacked in numpy from the 64-bit words of their rows.  Equal
    to :func:`adjacency_matrix` of each; a graph with loops, whose diagonal
    the rows do not hold, raises ValueError."""
    if isinstance(graphs, Graph):
        return adjacency_array([graphs])[0]
    if any(g.loops for g in graphs):
        raise ValueError("adjacency_array needs simple graphs (no loops)")
    n = graphs[0].n
    words = np.frombuffer(b"".join(g.rows for g in graphs), dtype=np.uint64)
    # little-endian bytes put vertex j at bit j % 8 of byte j // 8
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, count=n, bitorder="little")
    return bits.astype(np.int64).reshape(len(graphs), n, n)


def graph_from_adjacency(a: Sequence[Sequence[int]]) -> Graph:
    """Inverse of :func:`adjacency_matrix`; entries must be 0/1 off, 0/2 on diag."""
    n = len(a)
    rows = [0] * n
    loops = 0
    for i in range(n):
        for j in range(n):
            e = a[i][j]
            if i == j:
                if e == 2:
                    loops |= 1 << i
                elif e != 0:
                    raise ValueError(f"diagonal entry a[{i}][{i}]={e}, expected 0 or 2")
            elif e == 1:
                rows[i] |= 1 << j
            elif e != 0:
                raise ValueError(f"entry a[{i}][{j}]={e}, expected 0 or 1")
    return Graph(n, rows, loops)


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def reach(rows, seen: int, alive: int) -> int:
    """Closure of the vertex mask ``seen`` under adjacency inside ``alive``.

    ``rows`` holds one neighbour bitmask per vertex; the returned mask holds
    ``seen`` and every vertex of ``alive`` joined to it by a path in
    ``alive``.  The one frontier walk behind every connectivity question.
    """
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            nxt |= rows[v]
            m &= m - 1
        nxt &= alive
        frontier = nxt & ~seen
        seen |= nxt
    return seen


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return reach(g.rows, 1, full) == full


def connected_components(g: Graph) -> list[list[int]]:
    unvisited = (1 << g.n) - 1
    comps = []
    while unvisited:
        seen = reach(g.rows, unvisited & -unvisited, unvisited)
        comps.append(bit_indices(seen))
        unvisited &= ~seen
    return comps


def bipartition(g: Graph) -> tuple[int, int] | None:
    """Two-colouring as a pair of vertex masks, or None if non-bipartite.

    A loop makes a graph non-bipartite.  Disconnected graphs are coloured
    componentwise (colour of each component anchored at its least vertex).
    """
    if g.loops:
        return None
    side = [-1] * g.n  # parity of the distance from the component's anchor
    for start in range(g.n):
        if side[start] < 0:
            for v, d in enumerate(bfs_distances(g, start)):
                if d >= 0:
                    side[v] = d & 1
    a = sum(1 << v for v in range(g.n) if not side[v])
    b = (1 << g.n) - 1 & ~a
    if any(g.rows[v] & (b if side[v] else a) for v in range(g.n)):
        return None
    return a, b


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def degree_sequence(g: Graph) -> list[int]:
    return sorted(g.degree(v) for v in range(g.n))


def is_chemical(g: Graph) -> bool:
    """Connected, simple, maximum degree at most three."""
    return (g.is_simple() and max(r.bit_count() for r in g.rows) <= 3
            and is_connected(g))


def bfs_distances(g: Graph, src: int) -> list[int]:
    """Hop distances from ``src``; -1 for unreachable vertices."""
    dist = [-1] * g.n
    dist[src] = 0
    frontier = 1 << src
    seen = frontier
    d = 0
    while frontier:
        d += 1
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            nxt |= g.rows[v]
            m &= m - 1
        frontier = nxt & ~seen
        seen |= frontier
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            dist[v] = d
            m &= m - 1
    return dist


# ---------------------------------------------------------------------------
# standard small graphs
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """Star with the centre at vertex 0."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# ---------------------------------------------------------------------------
# graph6 codec (n <= 64, one graph per line)
# ---------------------------------------------------------------------------
#
# Format: a size header, then the upper triangle of the adjacency matrix in
# column-major order x(0,1) x(0,2) x(1,2) x(0,3) ... packed into 6-bit
# groups, most significant bit first, zero-padded, each group offset by 63.
# The header is the byte n+63 for n <= 62 and, for 63 <= n <= 258047, the
# byte 126 followed by n as three such 6-bit groups.

def from_graph6(text: str | bytes) -> Graph:
    if isinstance(text, str):
        data = text.encode("ascii", errors="replace")
    else:
        data = bytes(text)
    data = data.rstrip(b"\r\n")
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise Graph6Error("empty graph6 string")
    head = data[0]
    if head == 126:
        size = data[1:4]
        if len(size) < 3:
            raise Graph6Error("truncated long-form size header", len(data))
        n = 0
        for k, byte in enumerate(size, start=1):
            if not 63 <= byte <= 126:
                raise Graph6Error(f"size byte {byte} out of range 63..126", k)
            n = n << 6 | byte - 63
        if n > MAX_VERTICES:
            raise Graph6Error(f"graph6 order {n} exceeds {MAX_VERTICES}", 1)
        start = 4
    elif 63 <= head <= 125:
        n = head - 63
        start = 1
    else:
        raise Graph6Error(f"header byte {head} out of range 63..126", 0)
    if n == 0:
        raise Graph6Error("graph6 string encodes an empty vertex set", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - start < nbytes:
        raise Graph6Error(f"truncated: need {nbytes} data bytes for n={n}, "
                          f"got {len(data) - start}", len(data))
    if len(data) - start > nbytes:
        raise Graph6Error("trailing garbage after graph6 data", start + nbytes)
    rows = [0] * n
    bit = 0
    for k, byte in enumerate(data[start:], start=start):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"data byte {byte} out of range 63..126", k)
        group = byte - 63
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if group >> shift & 1:
                    raise Graph6Error("nonzero padding bits", k)
                continue
            if group >> shift & 1:
                i, j = _triangle_coords(bit)
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    return Graph(n, rows)


def _triangle_coords(bit: int) -> tuple[int, int]:
    # column-major upper triangle: column j holds bits for i = 0..j-1
    j = 1
    while j * (j + 1) // 2 <= bit:
        j += 1
    i = bit - j * (j - 1) // 2
    return i, j


def to_graph6(g: Graph) -> str:
    if g.loops:
        raise Graph6Error("graphs with loops are not representable in graph6")
    if g.n <= 62:
        out = [g.n + 63]
    else:
        out = [126, (g.n >> 12) + 63, (g.n >> 6 & 63) + 63, (g.n & 63) + 63]
    group = 0
    filled = 0
    for j in range(1, g.n):
        col = g.rows[j]
        for i in range(j):
            group = group << 1 | (col >> i & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group = 0
                filled = 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


def read_graph6_lines(lines, on_error):
    """Yield (line number, Graph) for each nonblank line that parses.

    ``lines`` is any iterable of str or bytes lines (a binary file, say);
    line numbers count from 1 and include blank lines.  Every other nonblank
    line is reported to ``on_error`` (line number, message), when given,
    and skipped.
    """
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            g = from_graph6(line)
        except Graph6Error as exc:
            if on_error is not None:
                on_error(lineno, str(exc))
            continue
        yield lineno, g
