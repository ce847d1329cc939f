"""Reference computations the benchmark checks condgraph against.

Nothing here calls condgraph.  Graphs arrive as plain adjacency data
(an integer matrix, or a networkx graph parsed by networkx's own graph6
reader), and every answer is computed another way than the program
computes it:

* rank, inverse and kernel by Gauss-Jordan elimination over
  ``fractions.Fraction`` (the program uses Bareiss elimination and the
  Faddeev-LeVerrier adjugate);
* isomorphism by networkx (the program uses its own canonical labelling);
* transmission T(E) exactly, from the determinants det(E*I - A) of cycles
  and paths (three-term recurrence, cross-checked against elimination),
  evaluated in rational arithmetic at each sampled float E.
"""

from __future__ import annotations

from fractions import Fraction

import networkx as nx


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

class Elimination:
    """Reduced row echelon form of [A | I] over the rationals.

    ``rank`` describes A alone; ``inverse`` is set when A is nonsingular and
    ``kernel`` holds one basis vector per free column.
    """

    def __init__(self, a):
        n = len(a)
        m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
             for i, row in enumerate(a)]
        pivots = []
        r = 0
        for c in range(n):
            p = next((i for i in range(r, n) if m[i][c]), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            pivot_row = m[r]
            pv = pivot_row[c]
            if pv != 1:
                pivot_row = m[r] = [x / pv for x in pivot_row]
            nonzero = [j for j, y in enumerate(pivot_row) if y]
            for i in range(n):
                f = m[i][c]
                if i != r and f:
                    row = m[i]
                    for j in nonzero:
                        row[j] -= f * pivot_row[j]
            pivots.append(c)
            r += 1
        self.n = n
        self.rank = r
        self.inverse = [row[n:] for row in m] if r == n else None
        free = [c for c in range(n) if c not in pivots]
        self.kernel = []
        for f in free:
            vec = [Fraction(0)] * n
            vec[f] = Fraction(1)
            for row_i, c in enumerate(pivots):
                vec[c] = -m[row_i][f]
            self.kernel.append(vec)

    @property
    def nullity(self) -> int:
        return self.n - self.rank


def rank(a) -> int:
    return Elimination(a).rank if a else 0


def det(a) -> Fraction:
    """Determinant by Fraction elimination with partial pivot search."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        pv = m[c][c]
        out *= pv
        for i in range(c + 1, n):
            f = m[i][c] / pv
            if f:
                row, top = m[i], m[c]
                for j in range(c, n):
                    row[j] -= f * top[j]
    return out


def delete(a, verts):
    keep = [v for v in range(len(a)) if v not in verts]
    return [[a[i][j] for j in keep] for i in keep]


# ---------------------------------------------------------------------------
# graphs as plain data
# ---------------------------------------------------------------------------

def adjacency(nxg: nx.Graph) -> list[list[int]]:
    n = nxg.number_of_nodes()
    a = [[0] * n for _ in range(n)]
    for u, v in nxg.edges():
        if u != v:
            a[u][v] = a[v][u] = 1
    return a


def from_rows(n: int, rows, loops: int = 0) -> nx.Graph:
    """networkx graph from bitmask rows; a loop mask becomes self-loops."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rows[u] >> v & 1:
                g.add_edge(u, v)
        if loops >> u & 1:
            g.add_edge(u, u)
    return g


def from_graph6(text: str) -> nx.Graph:
    return nx.from_graph6_bytes(text.encode("ascii"))


def pattern(m) -> nx.Graph:
    """Booleanised matrix: an edge per nonzero off-diagonal entry, a
    self-loop per nonzero diagonal entry."""
    n = len(m)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, j) for i in range(n) for j in range(i, n) if m[i][j])
    return g


def same_graph(g: nx.Graph, h: nx.Graph) -> bool:
    """Equal as labelled graphs (vertices, edges and self-loops)."""
    key = lambda x: {frozenset(e) for e in x.edges()}  # noqa: E731
    return set(g.nodes()) == set(h.nodes()) and key(g) == key(h)


def conduction_pattern(a):
    """Booleanised exact inverse of A, or None when A is singular."""
    inv = Elimination(a).inverse
    return None if inv is None else pattern(inv)


def is_conduction_isomorphic(a) -> bool:
    """Nonsingular, loopless booleanised inverse, isomorphic to the graph."""
    gc = conduction_pattern(a)
    if gc is None or nx.number_of_selfloops(gc):
        return False
    g = nx.Graph()
    g.add_nodes_from(range(len(a)))
    g.add_edges_from((i, j) for i in range(len(a)) for j in range(i) if a[i][j])
    return nx.vf2pp_is_isomorphic(g, gc)


def flags(a) -> dict:
    """Nullity, nut and ipso-omni-insulator flags of a connected graph.

    An ipso device at u conducts unless deleting u raises the nullity, so the
    graph is an ipso omni-insulator iff eta(G-u) = eta(G)+1 for every u.  For
    nonsingular A that reads diag(A^-1) = 0 (Cramer); for singular A a vertex
    where a kernel vector is nonzero is tested by one more rank.
    """
    e = Elimination(a)
    n = len(a)
    if e.inverse is not None:
        ipso = all(e.inverse[i][i] == 0 for i in range(n))
    else:
        u = next(i for i, x in enumerate(e.kernel[0]) if x)
        ipso = n - 1 - rank(delete(a, {u})) == e.nullity + 1
    nut = n > 1 and e.nullity == 1 and all(x != 0 for x in e.kernel[0])
    return {"nullity": e.nullity, "nut": nut, "ipso_omni_ins": ipso}


# ---------------------------------------------------------------------------
# symmetries of cycles and paths
# ---------------------------------------------------------------------------

def cycle_symmetries(n: int) -> list[list[int]]:
    """Generators of the dihedral group of C_n: one rotation, one reflection."""
    return [[(v + 1) % n for v in range(n)], [(-v) % n for v in range(n)]]


def path_symmetries(n: int) -> list[list[int]]:
    return [[n - 1 - v for v in range(n)]]


def invariant_under(g: nx.Graph, perm) -> bool:
    return same_graph(g, nx.relabel_nodes(g, dict(enumerate(perm))))


# ---------------------------------------------------------------------------
# exact transmission of cycle devices
# ---------------------------------------------------------------------------

def _path_polys(m_max: int) -> list[list[int]]:
    """det(E*I - A(P_m)) for m = 0..m_max, ascending coefficients.

    Expanding the tridiagonal determinant along its last row gives
    p_m = E p_{m-1} - p_{m-2}.
    """
    polys = [[1], [0, 1]]
    for _ in range(2, m_max + 1):
        a, b = polys[-1], polys[-2]
        nxt = [0] + a
        for i, c in enumerate(b):
            nxt[i] -= c
        polys.append(nxt)
    return polys[:m_max + 1]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def cycle_device_polys(n: int, left: int, right: int) -> dict:
    """s, t, u, v of the cycle device (C_n, left, right), ascending lists.

    s = det(EI - A(C_n)) = p_n - p_{n-2} - 2; deleting one contact leaves
    P_{n-1}; deleting both leaves two paths whose orders add up to n-2.
    """
    p = _path_polys(n)
    s = list(p[n])
    for i, c in enumerate(p[n - 2]):
        s[i] -= c
    s[0] -= 2
    gap = (right - left) % n
    v = _mul(p[gap - 1], p[n - gap - 1])
    return {"s": s, "t": list(p[n - 1]), "u": list(p[n - 1]), "v": v}


def cycle_matrix(n: int) -> list[list[int]]:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][(i + 1) % n] = a[(i + 1) % n][i] = 1
    return a


def poly_check_points(n, left, right, energy: int) -> dict:
    """The four device determinants at an integer energy, by elimination."""
    a = cycle_matrix(n)
    out = {}
    for key, gone in (("s", set()), ("t", {left}), ("u", {right}),
                      ("v", {left, right})):
        sub = delete(a, gone)
        k = len(sub)
        out[key] = det([[energy * (i == j) - sub[i][j] for j in range(k)]
                        for i in range(k)])
    return out


def evaluate(coeffs, num: int, den: int) -> Fraction:
    """Exact value at num/den by integer Horner and one final division."""
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return Fraction(acc, scale // den) if coeffs else Fraction(0)


def _trailing(coeffs):
    return next((i for i, c in enumerate(coeffs) if c), None)


def exact_T(polys: dict, beta_sq: Fraction, energy: float):
    """T(E) as an exact rational, or None where the denominator vanishes.

    At E = 0 the common power of E is stripped from numerator and
    denominator first, so the Fermi-level limit is returned there.
    """
    s, t, u, v = polys["s"], polys["t"], polys["u"], polys["v"]
    if energy == 0:
        sv = [Fraction(x) for x in s] + [Fraction(0)] * max(0, len(v) - len(s))
        for i, c in enumerate(v):
            sv[i] -= beta_sq * c
        tu = [Fraction(x) for x in t]
        for i, c in enumerate(u):
            tu[i] += c
        jsq = _mul(u, t)
        for i, c in enumerate(_mul(s, v)):
            jsq[i] -= c
        num = [4 * beta_sq * c for c in jsq]
        den = _mul(sv, sv)
        for i, c in enumerate(_mul(tu, tu)):
            den[i] += beta_sq * c
        m_den = _trailing(den)
        if m_den is None:
            return None
        m_num = _trailing(num)
        if m_num is None or m_num > m_den:
            return Fraction(0)
        return num[m_den] / den[m_den] if m_num == m_den else None
    num_i, den_i = energy.as_integer_ratio()
    sv_, tv_, uv_, vv_ = (evaluate(x, num_i, den_i) for x in (s, t, u, v))
    den = (sv_ - vv_ * beta_sq) ** 2 + (tv_ + uv_) ** 2 * beta_sq
    if den == 0:
        return None
    return 4 * (uv_ * tv_ - sv_ * vv_) * beta_sq / den
