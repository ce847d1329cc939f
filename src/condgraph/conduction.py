"""Fermi-level device verdicts and conduction-graph construction.

A device is a graph with two lead attachment vertices (equal for ipso
devices).  Whether it conducts at the Fermi level is decided by interlacing
selection rules keyed on the nullity signature, the quadruple of kernel
dimensions of the graph and its one- and two-vertex deletions.  Exactly one
signature, all four nullities equal, is not settled by the table; there the
verdict is decided exactly through the square numerator polynomial of the
transmission function: the device conducts if and only if the zero-root count
of u*t - s*v equals twice the graph's nullity.

The conduction graph collects every verdict: an edge per conducting distinct
device, a loop per conducting single contact.  It is built by one of two
routes, chosen by the nullity:

* nullity 0: booleanise the inverse (equivalently, the adjugate or any
  nonzero multiple of it, which shares its zero pattern and never leaves the
  integers);
* any other nullity: walk every device through the selection rules, reading
  every nullity and every equal-nullity verdict from one bordered adjugate
  (:class:`BorderedAdjugate`).  The walk skips the double deletion wherever
  the single-deletion shifts already fix the row; in a nullity-1 graph that
  yields the block structure around the core vertices (a looped clique with
  no edges to the rest) directly.

Both routes start from :func:`linalg.scaled_inverse` of the adjacency matrix,
which returns a scaled inverse or raises :class:`SingularMatrixError` with
the exact kernel basis that borders the matrix; it alone chooses between its
modular and exact routes.

The same walk over nullities of explicitly deleted subgraphs and the
polynomial j-test, :func:`_conduction_by_rules`, is kept as the independent
reference the tests compare against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import linalg
from .graphs import Graph, adjacency_matrix, connected_components, is_connected
from .linalg import IntPolynomial, SingularMatrixError


class SignatureError(RuntimeError):
    """A nullity signature violated interlacing; indicates an internal bug."""


class Rule(enum.Enum):
    """Which selection-rule row (or other route) produced a verdict.

    Distinct-device members are keyed by the nullity shifts of the deletions
    (G-u, G-v, G-u-v) relative to G, with the two single deletions sorted
    descending; ipso members by the shift of G-u.
    """

    D_UP_UP_UP2 = (1, 1, 2)
    D_UP_UP_SAME = (1, 1, 0)
    D_UP_SAME_UP = (1, 0, 1)
    D_UP_SAME_SAME = (1, 0, 0)
    D_UP_DOWN_SAME = (1, -1, 0)
    D_SAME_SAME_UP = (0, 0, 1)
    EQUAL_NULLITY_JTEST = (0, 0, 0)
    D_SAME_DOWN_DOWN = (0, -1, -1)
    D_DOWN_DOWN_SAME = (-1, -1, 0)
    D_DOWN_DOWN_DOWN = (-1, -1, -1)
    D_DOWN_DOWN_DOWN2 = (-1, -1, -2)
    I_UP = (1,)
    I_SAME = (0,)
    I_DOWN = (-1,)
    # provenance that is not a selection-rule row: the booleanised inverse,
    # and the core/core pairs of a nullity-1 graph
    INVERSE_PATTERN = "inverse"
    NULLITY1_BLOCKS = "blocks"


# verdicts for the determinate rows; the all-equal row maps to None (j-test)
_DISTINCT_VERDICT = {
    (1, 1, 2): False,
    (1, 1, 0): True,
    (1, 0, 1): False,
    (1, 0, 0): True,
    (1, -1, 0): False,
    (0, 0, 1): True,
    (0, 0, 0): None,
    (0, -1, -1): False,
    (-1, -1, 0): True,
    (-1, -1, -1): True,
    (-1, -1, -2): False,
}

_IPSO_VERDICT = {(1,): False, (0,): True, (-1,): True}


@dataclass(frozen=True)
class NullitySignature:
    """(eta(G), eta(G-u), eta(G-v), eta(G-u-v)); the last is None for ipso."""

    eta_g: int
    eta_gu: int
    eta_gv: int
    eta_guv: int | None

    def deltas(self):
        if self.eta_guv is None:
            return (self.eta_gu - self.eta_g,)
        du = self.eta_gu - self.eta_g
        dv = self.eta_gv - self.eta_g
        if du < dv:
            du, dv = dv, du
        return (du, dv, self.eta_guv - self.eta_g)


@dataclass(frozen=True)
class DeviceVerdict:
    conducts: bool
    rule: Rule


_INVERSE_CONDUCTS = DeviceVerdict(True, Rule.INVERSE_PATTERN)
_INVERSE_INSULATES = DeviceVerdict(False, Rule.INVERSE_PATTERN)


@dataclass(frozen=True)
class ConductionGraph:
    """The conduction graph plus the per-device provenance that built it.

    ``nullity`` is the base graph's; ``analysis`` is the bordered adjugate
    that decided a singular graph's verdicts (None on the inverse route).
    """

    graph: Graph
    verdicts: dict
    nullity: int
    analysis: "BorderedAdjugate | None" = field(default=None, repr=False,
                                                compare=False)

    def verdict(self, u: int, v: int) -> DeviceVerdict:
        return self.verdicts[(u, v) if u <= v else (v, u)]

    def loop_count(self) -> int:
        return self.graph.loops.bit_count()

    def component_count(self) -> int:
        return len(connected_components(self.graph))


# ---------------------------------------------------------------------------
# booleanisation
# ---------------------------------------------------------------------------

def booleanise(m) -> list[list[int]]:
    """Entrywise 0 -> 0, nonzero off-diagonal -> 1, nonzero diagonal -> 2.

    The input must be square and symmetric; the result is an adjacency
    matrix of a (possibly looped) graph.
    """
    n = len(m)
    for i in range(n):
        if len(m[i]) != n:
            raise ValueError("booleanise needs a square matrix")
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
    return [[(2 if i == j else 1) if m[i][j] else 0 for j in range(n)]
            for i in range(n)]


# ---------------------------------------------------------------------------
# nullity helpers on vertex-deleted subgraphs
# ---------------------------------------------------------------------------

def _sub_matrix(g: Graph, dropped: int) -> list[list[int]]:
    """Adjacency matrix of the simple graph g minus the vertices in ``dropped``."""
    keep = [v for v in range(g.n) if not dropped >> v & 1]
    return [[(g.rows[v] >> u) & 1 for u in keep] for v in keep]


def _sub_nullity(g: Graph, dropped: int) -> int:
    """Nullity of the adjacency matrix of g minus the vertices in ``dropped``.

    The empty graph has nullity 0 (rank of a 0x0 matrix is 0).
    """
    m = _sub_matrix(g, dropped)
    return len(m) - linalg.rank(m)


def _sub_char_poly(g: Graph, dropped: int) -> IntPolynomial:
    return linalg.char_poly(_sub_matrix(g, dropped))


def graph_nullity(g: Graph) -> int:
    return _sub_nullity(g, 0)


# ---------------------------------------------------------------------------
# per-device verdicts
# ---------------------------------------------------------------------------

def nullity_signature(g: Graph, u: int, v: int) -> NullitySignature:
    """Exact nullity signature of the device (g, u, v); u == v means ipso."""
    eta = _sub_nullity(g, 0)
    eta_u = _sub_nullity(g, 1 << u)
    if u == v:
        return NullitySignature(eta, eta_u, eta_u, None)
    eta_v = _sub_nullity(g, 1 << v)
    eta_uv = _sub_nullity(g, 1 << u | 1 << v)
    return NullitySignature(eta, eta_u, eta_v, eta_uv)


def _make_jtester(g: Graph, eta: int):
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


def _verdict_from_signature(u, v, sig: NullitySignature, jtest) -> DeviceVerdict:
    deltas = sig.deltas()
    if sig.eta_guv is None:
        try:
            conducts = _IPSO_VERDICT[deltas]
        except KeyError:
            raise SignatureError(f"impossible ipso signature {sig}") from None
        return DeviceVerdict(conducts, Rule(deltas))
    try:
        conducts = _DISTINCT_VERDICT[deltas]
    except KeyError:
        raise SignatureError(f"impossible distinct signature {sig}") from None
    if conducts is None:
        return DeviceVerdict(jtest(u, v), Rule.EQUAL_NULLITY_JTEST)
    return DeviceVerdict(conducts, Rule(deltas))


def device_verdict(g: Graph, u: int, v: int) -> DeviceVerdict:
    """Conducts/insulates at the Fermi level, with the rule that decided it."""
    _require_simple_connected(g)
    sig = nullity_signature(g, u, v)
    return _verdict_from_signature(u, v, sig, _make_jtester(g, sig.eta_g))


def _require_simple_connected(g: Graph):
    if not g.is_simple():
        raise ValueError("device graphs must be simple (no loops)")
    if not is_connected(g):
        raise ValueError("device graphs must be connected")


# ---------------------------------------------------------------------------
# the bordered adjugate of a singular graph
# ---------------------------------------------------------------------------

class BorderedAdjugate:
    """Every deletion nullity and equal-nullity verdict of a singular graph,
    read from one integer matrix.

    With Z an exact kernel basis of the adjacency matrix A (eta = nullity
    columns), M = [[A, Z], [Z^T, 0]] is nonsingular and
    M^-1 = [[A+, W], [W^T, 0]], where A+ is the Moore-Penrose inverse and
    W = Z (Z^T Z)^-1.  Only adj(M) = det(M) M^-1 is kept: an integer matrix
    with the same zero pattern and ranks as M^-1.

    By the nullity theorem (Fiedler & Markham, Linear Algebra Appl. 74,
    1986) the nullity of A without the vertices S equals |S| + eta minus the
    rank of adj(M) on the rows and columns of S and the border, that is of
    K = [[X, B], [B^T, 0]] with X the S x S block and B the rows S in the
    border columns.  rank K = 2 rank B + rank(N^T X N), N spanning the left
    kernel of B, which gives each eta(G-S) with |S| <= 2 in O(eta).

    Every test made on ``adj`` is homogeneous in its entries, so any nonzero
    multiple of adj(M) gives the same answers; ``adj`` is the X of
    :func:`linalg.scaled_inverse`, d M^-1 with d != 0.  ``kernel`` is the
    kernel basis of A, as :class:`~condgraph.linalg.SingularMatrixError`
    carries it.
    """

    __slots__ = ("n", "adj")

    def __init__(self, a, kernel: list[list[int]]):
        bordered = [list(row) + [vec[i] for vec in kernel]
                    for i, row in enumerate(a)]
        bordered += [vec + [0] * len(kernel) for vec in kernel]
        self.n = len(a)
        self.adj = linalg.scaled_inverse(bordered)[1]

    @property
    def eta(self) -> int:
        return len(self.adj) - self.n

    def nullity(self, *deleted: int) -> int:
        """eta(G - deleted) for at most two distinct deleted vertices."""
        eta, n, adj = self.eta, self.n, self.adj
        if not deleted:
            return eta
        if len(deleted) == 1:
            u, = deleted
            if any(adj[u][n:]):
                return eta - 1
            return eta + 1 - (adj[u][u] != 0)
        u, v = deleted
        bu, bv = adj[u][n:], adj[v][n:]
        if not any(bu):
            u, v, bu, bv = v, u, bv, bu
        j = next((k for k, x in enumerate(bu) if x), None)
        if j is None:  # B = 0: the nullity of X alone
            xuu, xuv, xvv = adj[u][u], adj[u][v], adj[v][v]
            rank_x = 2 if xuu * xvv != xuv * xuv else int(bool(xuu or xuv or xvv))
            return eta + 2 - rank_x
        p, q = bu[j], bv[j]
        if any(p * y != q * x for x, y in zip(bu, bv)):
            return eta - 2  # rank B = 2
        # rank B = 1, left kernel spanned by (q, -p)
        quad = adj[u][u] * q * q - 2 * adj[u][v] * p * q + adj[v][v] * p * p
        return eta - (quad != 0)

    def conducts(self, u: int, v: int) -> bool:
        """Equal-nullity verdict: adj(M)_uv is a nonzero multiple of A+_uv."""
        return self.adj[u][v] != 0


# ---------------------------------------------------------------------------
# whole-graph construction
# ---------------------------------------------------------------------------

def conduction_graph(g: Graph) -> ConductionGraph:
    """Conduction graph of a connected simple graph.

    A nonsingular graph booleanises its scaled inverse; a singular one walks
    the selection rules over the bordered adjugate built from the kernel
    basis that :func:`linalg.scaled_inverse` raised with.  Both routes agree
    with :func:`_conduction_by_rules` and :func:`device_verdict` on every
    device (tested exhaustively on small orders).
    """
    _require_simple_connected(g)
    try:
        rows, loops = inverse_conduction_pattern(g)
    except SingularMatrixError as exc:
        analysis = BorderedAdjugate(adjacency_matrix(g), exc.kernel)
        graph, verdicts = _walk(g.n, analysis.eta, analysis.nullity,
                                analysis.conducts)
        return ConductionGraph(graph, verdicts, analysis.eta, analysis)
    verdicts = {}
    for u in range(g.n):
        row = rows[u]
        verdicts[(u, u)] = _INVERSE_CONDUCTS if loops >> u & 1 \
            else _INVERSE_INSULATES
        for v in range(u + 1, g.n):
            verdicts[(u, v)] = _INVERSE_CONDUCTS if row >> v & 1 \
                else _INVERSE_INSULATES
    return ConductionGraph(Graph(g.n, rows, loops), verdicts, 0)


def _conduction_by_rules(g: Graph) -> ConductionGraph:
    """The walk over directly eliminated deletions and the polynomial
    j-test; the reference the bordered-adjugate route is tested against."""
    eta = graph_nullity(g)
    graph, verdicts = _walk(
        g.n, eta, lambda *deleted: _sub_nullity(g, sum(1 << v for v in deleted)),
        _make_jtester(g, eta))
    return ConductionGraph(graph, verdicts, eta)


# single-deletion shifts (sorted descending) that fit exactly one table row
_FORCED_ROW = {(1, -1): (1, -1, 0), (0, -1): (0, -1, -1)}


def _walk(n: int, eta: int, nullity, jtest) -> tuple[Graph, dict]:
    """Every device of a singular graph through the selection rules.

    ``nullity(*deleted)`` gives eta(G - deleted) for one or two vertices and
    ``jtest(u, v)`` decides an equal-nullity device.  eta(G-u-v) is asked
    for only where the single-deletion shifts leave the row open.  A
    core/non-core pair, shifts (1,-1) or (0,-1), fits one row, and both such
    rows insulate.  A core/core pair of a nullity-1 graph, shifts (-1,-1),
    conducts, because the insulating row would need eta(G-u-v) = -1; that
    verdict is recorded as ``Rule.NULLITY1_BLOCKS``.
    """
    shift = [nullity(v) - eta for v in range(n)]
    verdicts = {}
    rows = [0] * n
    loops = 0
    for u in range(n):
        sig = NullitySignature(eta, eta + shift[u], eta + shift[u], None)
        dv = _verdict_from_signature(u, u, sig, jtest)
        verdicts[(u, u)] = dv
        if dv.conducts:
            loops |= 1 << u
        for v in range(u + 1, n):
            pair = (shift[u], shift[v]) if shift[u] >= shift[v] \
                else (shift[v], shift[u])
            row = _FORCED_ROW.get(pair)
            if row is not None:
                dv = DeviceVerdict(_DISTINCT_VERDICT[row], Rule(row))
            elif pair == (-1, -1) and eta == 1:
                dv = DeviceVerdict(True, Rule.NULLITY1_BLOCKS)
            else:
                sig = NullitySignature(eta, eta + shift[u], eta + shift[v],
                                       nullity(u, v))
                dv = _verdict_from_signature(u, v, sig, jtest)
            verdicts[(u, v)] = dv
            if dv.conducts:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows, loops), verdicts


def inverse_conduction_pattern(g: Graph) -> tuple[list[int], int]:
    """Adjacency rows and loop mask of the conduction graph, nullity-0 route.

    Reads the nonzero pattern of a scaled inverse, which equals the
    inverse's, so the whole computation stays in the integers.  A singular
    graph raises :class:`~condgraph.linalg.SingularMatrixError`.
    """
    x = linalg.scaled_inverse(adjacency_matrix(g))[1]
    rows = [0] * g.n
    loops = 0
    for i in range(g.n):
        if x[i][i]:
            loops |= 1 << i
        for j in range(i + 1, g.n):
            if x[i][j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows, loops
