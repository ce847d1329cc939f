"""Exact linear algebra over the integers and rationals.

Everything that decides conduction is computed here without floating point.
One fraction-free (Bareiss) elimination, :func:`_echelon`, serves every
production answer: determinants, ranks, nullities and kernel bases (integer
back-substitution, every division exact) from the echelon of A, and adj(A)
or the kernel from the echelon of [A | I] in :func:`scaled_inverse`.  Integer
characteristic polynomials come from the Faddeev-LeVerrier recurrence; its
:func:`adjugate` and the `fractions.Fraction` :func:`inverse` are references.

:func:`scaled_inverse` alone chooses the route to an adjugate.  From order
:data:`MODULAR_MIN_ORDER` on it first tries Gauss-Jordan modulo the prime
p = 2**31 - 1 in numpy int64.  That arithmetic is exact, not approximate:
residues stay below 2**31, so every product of two is below 2**62.  No
modular result is used before the integer check A X = d I holds, which makes
X exactly d A^-1; when the check fails the echelon decides.

A stack of matrices of one order, such as a census chunk of graphs, goes
through :func:`modular_adjugates`: the same Gauss-Jordan, each row operation
run on the whole stack at once.  It decides only what it can certify: an
adjugate whose check A X = d I holds, and a singular matrix whose missing
pivot modulo p is backed by Hadamard's certificate prod_v deg(v) < p**2,
which bounds |det(A)| by prod_v sqrt(deg(v)) < p.  Every other matrix is left
to :func:`scaled_inverse`.

Floating point is quarantined to :func:`float_spectrum`, which exists only for
spectrum-shaped cross-checks (documented tolerance 1e-9 for the eigensolver,
1e-6 against exact characteristic polynomial roots).

Matrices are plain lists of rows; rows are lists of ints (or Fractions where
stated).  That matches the scale of the problem: dense, symmetric, order <= 64.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np


class SingularMatrixError(ValueError):
    """Inversion was requested for a singular matrix; carries its exact
    kernel basis (as :func:`kernel_basis` gives it) and so its nullity."""

    def __init__(self, kernel: list[list[int]]):
        super().__init__(f"matrix is singular (nullity {len(kernel)})")
        self.kernel = kernel
        self.nullity = len(kernel)


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------

def _echelon(a):
    """Fraction-free (Bareiss) row echelon form with column skipping.

    Returns (rows, pivots, sign): the eliminated rows, the (row, col) pivot
    positions in order, and the sign of the row permutation.  Intermediate
    values are minors of the input, so they stay modest for the +-1
    matrices seen here; all divisions are exact.
    """
    m = [list(row) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = None
        for i in range(r, nrows):
            if m[i][c]:
                p = i
                break
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        pivot = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            row_i = m[i]
            for j in range(c + 1, ncols):
                row_i[j] = (pivot * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        pivots.append((r, c))
        r += 1
    return m, pivots, sign


def det(a) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m, pivots, sign = _echelon(a)
    return sign * m[n - 1][n - 1] if len(pivots) == n else 0


def rank(a) -> int:
    """Rank of an integer matrix, fraction-free with column skipping."""
    return len(_echelon(a)[1])


def nullity(a) -> int:
    """Dimension of the kernel of a square integer matrix (exact)."""
    n = len(a)
    return n - rank(a)


def kernel_basis(a) -> list[list[int]]:
    """Exact kernel basis of a square integer matrix.

    Returned vectors are primitive integer vectors (content 1, first nonzero
    entry positive), one per free column of the Bareiss echelon; the list is
    empty when the matrix is nonsingular.
    """
    m, pivots, _ = _echelon(a)
    return _kernel(m, pivots, len(a))


def _kernel(m, pivots, n: int) -> list[list[int]]:
    """Kernel basis of the first n columns of a Bareiss echelon form.

    The free variable takes the value of the last pivot to its left: that
    pivot is the determinant of the square block the earlier pivots span, so
    by Cramer's rule every pivot variable is an integer and each division in
    the integer back-substitution is exact.  Pivots right of column n (those
    of the identity block in [A | I]) are never reached.
    """
    pivot_cols = {col for _, col in pivots}
    basis = []
    left = 0  # number of pivots in columns before ``free``
    for free in range(n):
        if free in pivot_cols:
            left += 1
            continue
        vec = [0] * n
        vec[free] = m[pivots[left - 1][0]][pivots[left - 1][1]] if left else 1
        for k in range(left - 1, -1, -1):
            row, col = pivots[k]
            r = m[row]
            acc = r[free] * vec[free]
            for _, c2 in pivots[k + 1:left]:
                acc += r[c2] * vec[c2]
            vec[col] = -acc // r[col]
        # primitive, first nonzero entry positive
        g = gcd(*vec) if next(x for x in vec if x) > 0 else -gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def inverse(a) -> list[list[Fraction]]:
    """Exact inverse of a square integer or rational matrix; a test reference.

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
                kernel_basis([[int(x * scale) for x in row] for row in a]))
        if p != c:
            m[c], m[p] = m[p], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


# ---------------------------------------------------------------------------
# integer characteristic polynomial and adjugate (Faddeev-LeVerrier)
# ---------------------------------------------------------------------------

def char_poly_and_adjugate(a) -> tuple["IntPolynomial", list[list[int]]]:
    """det(E*I - A) as an integer polynomial, plus adj(A), in one pass.

    The recurrence M_k = A M_{k-1} + c_{n-k+1} I, c_{n-k} = -tr(A M_k)/k has
    exact integer divisions for integer input; the final auxiliary matrix is
    (-1)^(n-1) adj(A).  The left factor never changes, so for the sparse 0/1
    adjacency matrices that dominate here each product row is a plain sum of
    neighbour rows.
    """
    n = len(a)
    if n == 0:
        return IntPolynomial([1]), []
    nz = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[int(i == j) for j in range(n)] for i in range(n)]  # M_1 = I
    am = None
    for k in range(1, n + 1):
        am = []
        for row_nz in nz:
            acc = None
            for j, w in row_nz:
                src = m[j]
                term = src if w == 1 else [w * y for y in src]
                acc = list(term) if acc is None \
                    else [x + y for x, y in zip(acc, term)]
            am.append([0] * n if acc is None else acc)
        tr = sum(am[i][i] for i in range(n))
        q, rem = divmod(-tr, k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs[n - k] = q
        if k < n:
            m = am
            for i in range(n):
                m[i][i] += q
    # m still holds the n-th auxiliary matrix; the last product is discarded
    adj = [row[:] for row in m] if (n - 1) % 2 == 0 \
        else [[-x for x in row] for row in m]
    return IntPolynomial(coeffs), adj


def char_poly(a) -> "IntPolynomial":
    return char_poly_and_adjugate(a)[0]


def adjugate(a) -> list[list[int]]:
    """Transpose of the cofactor matrix; satisfies A adj(A) = det(A) I.

    The tests' reference, also for a singular A; production calls
    :func:`scaled_inverse`."""
    return char_poly_and_adjugate(a)[1]


# ---------------------------------------------------------------------------
# scaled inverse: Gauss-Jordan modulo one prime, else one Bareiss echelon
# ---------------------------------------------------------------------------

# matrix order from which the modular route is tried first.  Below it the
# Bareiss echelon of [A | I] is faster (measured on orders 5..72), so the
# census screens (n <= 12) and their bordered matrices stay exact.
MODULAR_MIN_ORDER = 16

MODULUS = (1 << 31) - 1
# largest absolute row sum admitted to numpy: with |X| < MODULUS / 2 every
# partial sum of A X stays below 2**61
_MAX_ROW_SUM = 1 << 31


def scaled_inverse(a) -> tuple[int, list[list[int]]]:
    """(d, X) with A X = d I exactly and d != 0, for a nonsingular A.

    From order :data:`MODULAR_MIN_ORDER` on, Gauss-Jordan modulo one prime
    is tried first (:func:`_modular_inverse`); its X has the zero pattern and
    the submatrix ranks of adj(A), and equals it whenever det(A) and every
    cofactor lie in (-p/2, p/2).  When it returns nothing, A may be singular:
    the kernel is read from the echelon of A alone, and only an empty kernel
    (p divides det(A), or the lifted pair failed its check) leads on to the
    echelon of [A | I].  Below that order the echelon of [A | I] = [U | R]
    decides at once: at full rank, integer back-substitution of U X = d R
    with d = det(A) gives X = adj(A), every division exact.  A singular A
    raises :class:`SingularMatrixError` with the kernel basis, which is that
    of the left block, the echelon of A itself.
    """
    n = len(a)
    if n >= MODULAR_MIN_ORDER:
        found = _modular_inverse(a)
        if found is not None:
            return found[0], found[1].tolist()
        kernel = kernel_basis(a)
        if kernel:
            raise SingularMatrixError(kernel)
    m, pivots, sign = _echelon([list(row) + [int(i == j) for j in range(n)]
                                for i, row in enumerate(a)])
    if n and pivots[n - 1][1] >= n:
        raise SingularMatrixError(_kernel(m, pivots, n))
    d = sign * m[n - 1][n - 1] if n else 1
    x = [None] * n
    for k in range(n - 1, -1, -1):
        row = m[k]
        acc = [d * y for y in row[n:]]
        for j in range(k + 1, n):
            if row[j]:
                acc = [s - row[j] * t for s, t in zip(acc, x[j])]
        x[k] = [s // row[k] for s in acc]
    return d, x


def _modular_inverse(a) -> "tuple[int, np.ndarray] | None":
    """(d, X) with A X = d I exactly and d != 0, X an int64 array, or None.

    Gauss-Jordan on [A | I] modulo p = :data:`MODULUS` gives det(A) and
    adj(A) modulo p; :func:`_lift_and_check` returns the pair only when the
    integer product A X equals d I.  None means that p divides det(A) (A
    singular included) or that the lifted residues are not d A^-1.  A matrix
    with a row whose absolute sum exceeds 2**31 is refused before anything
    reaches numpy.  Only the rows that hold a nonzero entry in the pivot
    column are updated, which suits one sparse matrix; a stack of them goes
    through :func:`modular_adjugates`.
    """
    p = MODULUS
    n = len(a)
    if not n or any(sum(map(abs, row)) > _MAX_ROW_SUM for row in a):
        return None
    ai = np.array(a, dtype=np.int64)
    m = np.zeros((n, 2 * n), dtype=np.int64)
    m[:, :n] = ai % p
    m[:, n:] = np.eye(n, dtype=np.int64)
    d = 1
    for c in range(n):
        nonzero = np.flatnonzero(m[c:, c])
        if not len(nonzero):
            return None  # det(A) = 0 mod p
        r = c + int(nonzero[0])
        if r != c:
            m[[c, r]] = m[[r, c]]
            d = p - d
        pivot = int(m[c, c])
        d = d * pivot % p
        m[c] = m[c] * pow(pivot, p - 2, p) % p
        col = m[:, c].copy()
        col[c] = 0
        hit = np.flatnonzero(col)
        if len(hit):
            m[hit] = (m[hit] - np.outer(col[hit], m[c])) % p
    ok, d, x = _lift_and_check(ai, m[:, n:], np.int64(d))
    return (int(d), x) if ok else None


def _lift_and_check(a, inverse, d):
    """Lift det(A) and adj(A) = d A^-1 from their residues modulo p.

    ``inverse`` holds A^-1 modulo p and ``d`` det(A) modulo p, for one
    matrix or for a stack of them (leading axes).  Both are lifted into
    (-p/2, p/2) and checked as d != 0 and A X = d I in int64; that holds
    exactly when A is invertible and X is d A^-1.  With |X| < p/2 and
    absolute row sums of A at most 2**31 no product leaves int64.  Returns
    (ok, d, X).
    """
    p = MODULUS
    x = inverse * d[..., None, None] % p
    x -= p * (x > p // 2)
    d = d - p * (d > p // 2)
    eye = np.eye(a.shape[-1], dtype=np.int64)
    ok = (d != 0) & (a @ x == d[..., None, None] * eye).all(axis=(-2, -1))
    return ok, d, x


# verdicts of modular_adjugates, one per matrix of the stack
ADJUGATE, SINGULAR, UNDECIDED = 0, 1, 2


def modular_adjugates(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Jordan on [A | I] modulo p for a (B, n, n) stack of integer
    matrices at once; returns (status, d, X), one entry per matrix.

    * ``ADJUGATE``: d != 0 and A X = d I holds in int64 for the lifted
      pair, so X = d A^-1 exactly and has the zero pattern of A^-1 (d is
      det(A), and X adj(A), whenever they lie in (-p/2, p/2)).
    * ``SINGULAR``: some column has no pivot, so p divides det(A), and
      Hadamard's certificate prod_i sum_j a_ij**2 < p**2 holds, so
      |det(A)| < p and det(A) = 0.  For a 0/1 matrix the product is that of
      the row degrees: every connected graph with n <= 10 and every chemical
      graph with n <= 39 passes it.
    * ``UNDECIDED``: a column without pivot and no certificate, a failed
      check, or a row whose absolute sum exceeds 2**31; the exact route
      (:func:`scaled_inverse`) decides.

    d and X are meaningful for ``ADJUGATE`` entries only.  Every row
    operation runs on the whole stack, so one call costs about n numpy
    passes over B x n x 2n residues; a matrix that loses its pivot keeps
    going with zeros and is sorted out at the end.
    """
    p = MODULUS
    a = np.asarray(stack, dtype=np.int64)
    b, n = a.shape[0], a.shape[-1]
    m = np.zeros((b, n, 2 * n), dtype=np.int64)
    m[:, :, :n] = a % p
    m[:, :, n:] = np.eye(n, dtype=np.int64)
    d = np.ones(b, dtype=np.int64)
    every = np.arange(b)
    for c in range(n):
        r = c + (m[:, c:, c] != 0).argmax(axis=1)  # c itself when no pivot
        swap = r != c
        if swap.any():
            top = m[every, c].copy()
            m[every, c] = m[every, r]
            m[every, r] = top
            d[swap] = -d[swap]
        pivot = m[:, c, c].copy()
        d = d * pivot % p
        # columns left of c are unit vectors with a zero in row c, and
        # column c is never read again: only columns c+1.. need the update
        right = m[:, :, c + 1:]
        # a column's pivots take few distinct values (mostly all 1)
        values, which = np.unique(pivot, return_inverse=True)
        inverse = np.array([pow(v, p - 2, p) for v in values.tolist()],
                           dtype=np.int64)
        right[:, c] = right[:, c] * inverse[which][:, None] % p
        col = m[:, :, c].copy()
        col[:, c] = 0
        right -= col[:, :, None] * right[:, c, None, :]
        right %= p
    # d is the product of the pivots: zero exactly when a column had none
    ok, d, x = _lift_and_check(a, m[:, :, n:], d)
    status = np.where(ok, ADJUGATE, UNDECIDED)
    squares = (a * a).sum(axis=2)
    for k in np.flatnonzero(d == 0):
        if prod(squares[k].tolist()) < p * p:
            status[k] = SINGULAR
    status[np.abs(a).sum(axis=2).max(axis=1, initial=0) > _MAX_ROW_SUM] = UNDECIDED
    return status, d, x


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

class IntPolynomial:
    """Dense integer polynomial, coefficients in ascending degree order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return IntPolynomial(out)

    def __neg__(self):
        return IntPolynomial([-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([other * x for x in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by E^k (k >= 0) or divide exactly by E^-k (k < 0)."""
        if k >= 0:
            return IntPolynomial([0] * k + list(self.coeffs))
        if any(self.coeffs[:-k]):
            raise ValueError("not divisible by that power of E")
        return IntPolynomial(self.coeffs[-k:])

    def trailing_zero_count(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no zero-root multiplicity")
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError("unreachable")

    def sqrt(self) -> "IntPolynomial | None":
        """Exact integer-polynomial square root, or None if not a square.

        The root is normalised to a positive lowest nonzero coefficient.
        """
        if self.is_zero():
            return IntPolynomial([])
        t = self.trailing_zero_count()
        if t % 2:
            return None
        q = list(self.coeffs[t:])
        if len(q) % 2 == 0:  # even number of coeffs -> odd degree
            return None
        if q[0] < 0:
            return None
        r0 = isqrt(q[0])
        if r0 * r0 != q[0]:
            return None
        d = (len(q) - 1) // 2
        r = [0] * (d + 1)
        r[0] = r0
        for k in range(1, d + 1):
            acc = q[k] - sum(r[i] * r[k - i] for i in range(1, k))
            num, rem = divmod(acc, 2 * r0)
            if rem:
                return None
            r[k] = num
        root = IntPolynomial(r)
        if root * root != IntPolynomial(q):
            return None
        return root.shift(t // 2)

    def __repr__(self):
        if self.is_zero():
            return "IntPolynomial(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "E" if mag == 1 else f"{mag}*E"
            else:
                body = f"E^{i}" if mag == 1 else f"{mag}*E^{i}"
            terms.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(terms)
        s = s[2:] if s.startswith("+ ") else "-" + s[2:]
        return f"IntPolynomial({s})"


def zero_root_multiplicity(p: IntPolynomial) -> int:
    """Multiplicity of the root 0: index of the lowest nonzero coefficient."""
    return p.trailing_zero_count()


# ---------------------------------------------------------------------------
# floating spectrum (cross-checks only)
# ---------------------------------------------------------------------------

def float_spectrum(a) -> list[float]:
    """Eigenvalues of a symmetric matrix, descending, via LAPACK."""
    if not a:
        return []
    w = np.linalg.eigvalsh(np.array(a, dtype=float))
    return [float(x) for x in w[::-1]]
