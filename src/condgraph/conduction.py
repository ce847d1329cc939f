"""Fermi-level device verdicts and conduction-graph construction.

A device is a graph with two lead attachment vertices (equal for ipso
devices).  Whether it conducts at the Fermi level is decided by interlacing
selection rules keyed on the nullity signature, the quadruple of kernel
dimensions of the graph and its one- and two-vertex deletions.  Exactly one
signature, all four nullities equal, is not settled by the table; there the
device conducts if and only if the (u, v) entry of the Moore-Penrose inverse
is nonzero.  That is the paper's test on the square numerator u*t - s*v of
the transmission (its zero-root count equals twice the graph's nullity),
read off one matrix; the tests check the two against each other.

Every answer about a graph comes from one analysis, :func:`analyse`: a
:class:`BorderedAdjugate`, the scaled inverse d A^-1 of a nonsingular
adjacency matrix, or of the matrix bordered by its exact kernel basis
otherwise.  By the nullity theorem it gives every nullity of a one- or
two-vertex deletion and every equal-nullity verdict, so
:func:`nullity_signature`, :func:`device_verdict` and
:func:`conduction_graph` eliminate no deleted subgraph.

The conduction graph collects every verdict: an edge per conducting distinct
device, a loop per conducting single contact.  It is read from the analysis
by one of two routes, chosen by the nullity:

* nullity 0: booleanise the scaled inverse (it shares the inverse's zero
  pattern and never leaves the integers), in numpy when the analysis holds
  it as an int64 array;
* any other nullity: walk every device through the selection rules over the
  bordered adjugate.  The walk skips the double deletion wherever the
  single-deletion shifts already fix the row; in a nullity-1 graph that
  yields the block structure around the core vertices (a looped clique with
  no edges to the rest) directly.  It builds no per-device objects: each
  border row is read once, as a scale and a primitive direction, and every
  verdict is one shared :class:`DeviceVerdict` per rule row.

Construction computes the graph, and a singular graph's walk its verdicts;
:meth:`ConductionGraph.verdict` answers one device, and the dict
:attr:`ConductionGraph.verdicts` is built only when it is read.

The analysis is :func:`linalg.bordered_inverse` of the adjacency matrix:
the exact kernel basis Z and d M^-1 for M = A bordered by Z.  It is the one
function that chooses between the modular and the exact route, for the
analysis and for the nullity-0 pattern of :func:`inverse_conduction_pattern`
alike.  From order ``MODULAR_MIN_ORDER`` on it reads A as the int64 array
unpacked from the graph's rows, and a nonsingular graph takes d A^-1 from
one LAPACK inverse, rounded and used only once A X = d I holds in the
integers (two exact float64 products): floating point proposes, the
integers decide.  A singular graph, or a proposal that fails the check,
costs one Gauss-Jordan modulo p: the elimination that finds and lifts Z
goes on to eliminate M, and each result is used only after its integer
check.  Below that order A stays lists of ints for the exact route.  The
tests compare all of this with an independent reference in
``tests/conftest.py``: the rule table over nullities of explicitly
eliminated deletions and the polynomial j-test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

import numpy as np

from . import linalg
from .graphs import (Graph, adjacency_array, adjacency_matrix,
                     connected_components, is_connected)
from .linalg import IntPolynomial


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


# verdicts for the determinate rows, keyed by the nullity shifts (three for a
# distinct device, one for an ipso one); the all-equal row maps to None
# (j-test)
_TABLE = {
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
    (1,): False,
    (0,): True,
    (-1,): True,
}


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


# one shared verdict per determinate table row, per j-test outcome, for the
# core/core pairs of a nullity-1 graph and per booleanised inverse entry
_ROW_VERDICT = {row: DeviceVerdict(conducts, Rule(row))
                for row, conducts in _TABLE.items() if conducts is not None}
_JTEST_VERDICT = {conducts: DeviceVerdict(conducts, Rule.EQUAL_NULLITY_JTEST)
                  for conducts in (False, True)}
_BLOCKS_VERDICT = DeviceVerdict(True, Rule.NULLITY1_BLOCKS)
_INVERSE_VERDICT = (DeviceVerdict(False, Rule.INVERSE_PATTERN),
                    DeviceVerdict(True, Rule.INVERSE_PATTERN))  # by entry != 0


@dataclass(frozen=True, eq=False)
class ConductionGraph:
    """The conduction graph plus the per-device provenance that built it.

    ``nullity`` is the base graph's; ``analysis`` is the bordered adjugate
    that decided a singular graph's verdicts (None on the inverse route).
    ``walked`` holds, as the walk of a singular graph yields them, per
    vertex u the shared :class:`DeviceVerdict` of (u, u), (u, u + 1), ...,
    (u, n - 1); it is None on the inverse route, where a device's verdict is
    its edge or loop in the graph.  :meth:`verdict` answers one device, and
    :attr:`verdicts`, the same shared verdicts keyed by (u, v) with u <= v,
    is built when first read.
    """

    graph: Graph
    walked: "list[list[DeviceVerdict]] | None" = field(repr=False)
    nullity: int
    analysis: "BorderedAdjugate | None" = field(default=None, repr=False)

    def __eq__(self, other):
        return (isinstance(other, ConductionGraph) and self.graph == other.graph
                and self.nullity == other.nullity
                and self.verdicts == other.verdicts)

    @cached_property
    def verdicts(self) -> dict:
        """Every device's verdict, keyed by (u, v) with u <= v."""
        n = self.graph.n
        return {(u, v): self.verdict(u, v)
                for u in range(n) for v in range(u, n)}

    def verdict(self, u: int, v: int) -> DeviceVerdict:
        """The device (u, v)'s verdict (u == v for ipso), read without
        building :attr:`verdicts`."""
        if u > v:
            u, v = v, u
        if not 0 <= u <= v < self.graph.n:
            raise KeyError((u, v))
        if self.walked is not None:
            return self.walked[u][v - u]
        bit = self.graph.loops >> u if u == v else self.graph.rows[u] >> v
        return _INVERSE_VERDICT[bit & 1]

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
# vertex-deleted subgraphs (the transmission polynomials)
# ---------------------------------------------------------------------------

def _sub_matrix(g: Graph, dropped: int) -> list[list[int]]:
    """Adjacency matrix of the simple graph g minus the vertices in ``dropped``."""
    keep = [v for v in range(g.n) if not dropped >> v & 1]
    return [[(g.rows[v] >> u) & 1 for u in keep] for v in keep]


def _sub_char_poly(g: Graph, dropped: int) -> IntPolynomial:
    return linalg.char_poly(_sub_matrix(g, dropped))


def graph_nullity(g: Graph) -> int:
    return linalg.nullity(adjacency_matrix(g))


# ---------------------------------------------------------------------------
# per-device verdicts
# ---------------------------------------------------------------------------

def nullity_signature(g: Graph, u: int, v: int) -> NullitySignature:
    """Exact nullity signature of the device (g, u, v); u == v means ipso."""
    return _signature(analyse(g, u, v), u, v)


def _signature(analysis: BorderedAdjugate, u: int, v: int) -> NullitySignature:
    eta_u = analysis.nullity(u)
    if u == v:
        return NullitySignature(analysis.eta, eta_u, eta_u, None)
    return NullitySignature(analysis.eta, eta_u, analysis.nullity(v),
                            analysis.nullity(u, v))


def _verdict_from_signature(u, v, sig: NullitySignature, jtest) -> DeviceVerdict:
    return _table_verdict(sig.deltas(), u, v, jtest)


def _table_verdict(deltas, u, v, jtest) -> DeviceVerdict:
    """The table row's verdict for the nullity shifts ``deltas`` of the
    device (u, v); ``jtest(u, v)`` decides the all-equal row."""
    verdict = _ROW_VERDICT.get(deltas)
    if verdict is None:
        if deltas != (0, 0, 0):
            raise SignatureError(f"impossible nullity shifts {deltas} at ({u},{v})")
        verdict = _JTEST_VERDICT[bool(jtest(u, v))]
    return verdict


def device_verdict(g: Graph, u: int, v: int) -> DeviceVerdict:
    """Conducts/insulates at the Fermi level, with the rule that decided it."""
    analysis = analyse(g, u, v)
    return _verdict_from_signature(u, v, _signature(analysis, u, v),
                                   analysis.conducts)


def _require_device(g: Graph, *contacts: int):
    if not g.is_simple():
        raise ValueError("device graphs must be simple (no loops)")
    if not is_connected(g):
        raise ValueError("device graphs must be connected")
    if not all(0 <= c < g.n for c in contacts):
        raise ValueError("contact vertices out of range")


# ---------------------------------------------------------------------------
# the analysis of a graph: its bordered adjugate
# ---------------------------------------------------------------------------

class BorderedAdjugate:
    """Every deletion nullity and equal-nullity verdict of a graph, read
    from one integer matrix.

    With Z an exact kernel basis of the adjacency matrix A (eta = nullity
    columns), M = [[A, Z], [Z^T, 0]] is nonsingular and
    M^-1 = [[A+, W], [W^T, 0]], where A+ is the Moore-Penrose inverse and
    W = Z (Z^T Z)^-1.  Only adj(M) = det(M) M^-1 is kept: an integer matrix
    with the same zero pattern and ranks as M^-1.  A nonsingular A has an
    empty border: M = A and A+ = A^-1.

    By the nullity theorem (Fiedler & Markham, Linear Algebra Appl. 74,
    1986) the nullity of A without the vertices S equals |S| + eta minus the
    rank of adj(M) on the rows and columns of S and the border, that is of
    K = [[X, B], [B^T, 0]] with X the S x S block and B the rows S in the
    border columns.  rank K = 2 rank B + rank(N^T X N), N spanning the left
    kernel of B.  Each border row is split once into a scale and a primitive
    direction, so for |S| <= 2 rank B is a comparison of directions and
    N^T X N a quadratic form in the two scales.

    Every test made on ``adj`` is homogeneous in its entries, so any nonzero
    multiple of adj(M) gives the same answers; ``adj`` is the X of
    :func:`linalg.bordered_inverse`, d M^-1 with d != 0, whose order past n
    is the nullity.  ``matrix`` is X as the int64 array a numpy route
    checked, or None when X came as lists.
    """

    __slots__ = ("n", "eta", "adj", "matrix", "scale", "direction")

    def __init__(self, n: int, adj):
        """Take ``adj``, a nonzero multiple of adj(M) for a graph of order n,
        as lists of ints or as an int64 array (kept as ``matrix``; ``adj``
        then holds its lists), and read each vertex's border row b_u once,
        as scale[u] * direction[u] with direction[u] primitive and its first
        nonzero entry positive (scale 0 for a zero row): two rows are
        parallel exactly when their directions match."""
        self.matrix = adj if hasattr(adj, "dtype") else None
        if self.matrix is not None:
            adj = adj.tolist()
        self.n, self.eta, self.adj = n, len(adj) - n, adj
        self.scale = [0] * n
        self.direction = [()] * n
        if self.eta:
            for u, row in enumerate(adj[:n]):
                b = row[n:]
                g = gcd(*b)
                if g:
                    if next(x for x in b if x) < 0:
                        g = -g
                    self.scale[u] = g
                    self.direction[u] = tuple(x // g for x in b)

    def nullity(self, *deleted: int) -> int:
        """eta(G - deleted) for at most two distinct deleted vertices."""
        eta, adj, scale = self.eta, self.adj, self.scale
        if not deleted:
            return eta
        if len(deleted) == 1:
            u, = deleted
            if scale[u]:
                return eta - 1
            return eta + 1 - (adj[u][u] != 0)
        u, v = deleted
        su, sv = scale[u], scale[v]
        xuu, xuv, xvv = adj[u][u], adj[u][v], adj[v][v]
        if not (su or sv):  # B = 0: the nullity of X alone
            rank_x = 2 if xuu * xvv != xuv * xuv else int(bool(xuu or xuv or xvv))
            return eta + 2 - rank_x
        if su and sv and self.direction[u] != self.direction[v]:
            return eta - 2  # rank B = 2
        # rank B = 1, left kernel spanned by (sv, -su)
        quad = xuu * sv * sv - 2 * xuv * su * sv + xvv * su * su
        return eta - (quad != 0)

    def conducts(self, u: int, v: int) -> bool:
        """Equal-nullity verdict: adj(M)_uv is a nonzero multiple of A+_uv."""
        return self.adj[u][v] != 0


def analyse(g: Graph, *contacts: int) -> BorderedAdjugate:
    """The analysis every verdict on a connected simple graph reads: d A^-1
    when A is nonsingular, else the adjugate of A bordered by its kernel
    basis, both from :func:`linalg.bordered_inverse` of :func:`_matrix`
    (from ``MODULAR_MIN_ORDER`` on a checked LAPACK inverse, else one
    modular elimination, each kept as its int64 array).  ``contacts``, if
    given, must be vertices of g."""
    _require_device(g, *contacts)
    return BorderedAdjugate(
        g.n, linalg.bordered_inverse(_matrix(g))[2])


def _matrix(g: Graph):
    """g's adjacency matrix as :func:`linalg.bordered_inverse` reads it: from
    ``MODULAR_MIN_ORDER`` on the int64 array unpacked from its rows, below
    it lists of rows, which the exact route reads without numpy."""
    if g.n >= linalg.MODULAR_MIN_ORDER:
        return adjacency_array(g)
    return adjacency_matrix(g)


# ---------------------------------------------------------------------------
# whole-graph construction
# ---------------------------------------------------------------------------

def conduction_graph(g: Graph,
                     analysis: BorderedAdjugate | None = None) -> ConductionGraph:
    """Conduction graph of a connected simple graph, read from its analysis.

    A nonsingular graph booleanises its scaled inverse (in numpy when the
    analysis holds it as an array); a singular one walks the selection
    rules over its bordered adjugate, which decides every device and so
    raises :class:`SignatureError` here, not when a verdict is read.  Both
    routes agree with the tests' reference, direct deletions and the
    polynomial j-test, on every device (tested exhaustively on small
    orders).  ``analysis``, when given, is taken as g's (a
    :class:`BorderedAdjugate` of any nonzero multiple of the adjugate, such
    as one built from a certified ``d A^-1``); otherwise :func:`analyse`
    makes it.
    """
    if analysis is None:
        analysis = analyse(g)
    if analysis.eta:
        graph, walked = _walk(analysis)
        return ConductionGraph(graph, walked, analysis.eta, analysis)
    x = analysis.adj if analysis.matrix is None else analysis.matrix
    return ConductionGraph(Graph(g.n, *nonzero_pattern(x)), None, 0)


def _walk(analysis: BorderedAdjugate) -> tuple[Graph, list]:
    """Every device of a singular graph through the selection rules: the
    conduction graph, and per vertex u the verdicts of (u, u), (u, u + 1),
    ..., (u, n - 1).

    The single-deletion shifts eta(G-v) - eta come first; eta(G-u-v) is
    asked for only where the shifts of u and v leave the row open.  A
    core/non-core pair, shifts (1,-1) or (0,-1), fits one row, and both such
    rows insulate.  A core/core pair of a nullity-1 graph, shifts (-1,-1),
    conducts, because the insulating row would need eta(G-u-v) = -1; that
    verdict is recorded as ``Rule.NULLITY1_BLOCKS``.  Every verdict is a
    shared constant (``_ROW_VERDICT`` and its kin): no signature or verdict
    object is built per device.
    """
    n, eta, nullity = analysis.n, analysis.eta, analysis.nullity
    shift = [nullity(v) - eta for v in range(n)]
    # single-deletion shifts (sorted descending) that settle the pair
    forced = {(1, -1): _ROW_VERDICT[(1, -1, 0)],
              (0, -1): _ROW_VERDICT[(0, -1, -1)]}
    if eta == 1:
        forced[(-1, -1)] = _BLOCKS_VERDICT
    walked = []
    rows = [0] * n
    loops = 0
    for u in range(n):
        su = shift[u]
        dv = _table_verdict((su,), u, u, analysis.conducts)
        row = [dv]
        if dv.conducts:
            loops |= 1 << u
        for v in range(u + 1, n):
            sv = shift[v]
            pair = (su, sv) if su >= sv else (sv, su)
            dv = forced.get(pair)
            if dv is None:
                dv = _table_verdict(pair + (nullity(u, v) - eta,), u, v,
                                    analysis.conducts)
            row.append(dv)
            if dv.conducts:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        walked.append(row)
    return Graph(n, rows, loops), walked


def inverse_conduction_pattern(g: Graph) -> tuple[list[int], int]:
    """Adjacency rows and loop mask of the conduction graph, nullity-0 route.

    Reads the nonzero pattern of the scaled inverse from
    :func:`linalg.bordered_inverse`, which equals the inverse's, so the whole
    computation stays in the integers.  A singular graph raises
    :class:`~condgraph.linalg.SingularMatrixError` with the kernel basis the
    same call found; from ``MODULAR_MIN_ORDER`` on, where A is unpacked from
    the rows, a graph with loops raises ValueError.
    """
    kernel, _, x = linalg.bordered_inverse(_matrix(g))
    if kernel:
        raise linalg.SingularMatrixError(kernel)
    return nonzero_pattern(x)


def nonzero_pattern(x) -> tuple[list[int], int]:
    """Adjacency rows and loop mask of the nonzero pattern of a symmetric
    matrix: in numpy for an int64 array, by a walk over the entries for
    lists (the exact route's, whose ints may not fit int64)."""
    n = len(x)
    if hasattr(x, "dtype"):
        bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
        nonzero = x != 0
        diagonal = nonzero.diagonal() * bits
        return ((nonzero * bits).sum(axis=1) ^ diagonal).tolist(), \
            int(diagonal.sum())
    rows = [0] * n
    loops = 0
    for i in range(n):
        if x[i][i]:
            loops |= 1 << i
        for j in range(i + 1, n):
            if x[i][j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows, loops
