"""Exact linear algebra over the integers.

Everything that decides conduction is decided here in the integers.
One fraction-free (Bareiss) elimination, :func:`_echelon`, serves every
production answer: determinants, ranks, nullities and kernel bases (integer
back-substitution, every division exact) from the echelon of A, and adj(A)
or the kernel from the echelon of [A | I] (:func:`_exact_inverse`).  Integer
characteristic polynomials come from the Faddeev-LeVerrier recurrence, for
the transmission polynomials; only the tests read the adjugate it yields as
well.  The `fractions.Fraction` inverse the tests compare against lives in
``tests/conftest.py``.

:func:`bordered_inverse` alone chooses between the modular and the exact
route.  For a symmetric A it gives the kernel basis Z and the scaled inverse
of A bordered by Z (d A^-1 when Z is empty).  From order
:data:`MODULAR_MIN_ORDER` on LAPACK first proposes d = round(det(A)) and
X = rint(d A^-1), kept only once A X = d I holds in the integers (the check
of the modular route below), so a nonsingular matrix that LAPACK gets right
costs two LUs and one integer product.  Otherwise it tries Gauss-Jordan
modulo the prime p = 2**31 - 1 in numpy int64.  That arithmetic is exact,
not approximate: residues stay below 2**31, so every product of two is
below 2**62, and a product of matrices splits one factor into 16-bit limbs.  No modular result
is used before the integer check A X = d I holds, which makes X exactly
d A^-1.  A column without a pivot modulo p is skipped, and the reduced
echelon then gives one kernel vector per free column, lifted by rational
reconstruction (Wang, Guy & Davenport 1982; Dixon 1982) and used only once
A z = 0 holds in the integers for every vector, which certifies it as the
basis of :func:`kernel_basis`.  The same elimination then goes on over the
bordered matrix M from the state it left, so a singular matrix costs one
modular pass, and its X is used only once M X = d I holds.  When a check or
a lift fails the echelon decides.

A stack of matrices of one order, such as a census chunk of graphs, goes
through :func:`modular_adjugates`: the same Gauss-Jordan, each row operation
run on the whole stack at once.  It decides only what it can certify: an
adjugate whose check A X = d I holds, and a singular matrix whose missing
pivot modulo p is backed by Hadamard's certificate prod_v deg(v) < p**2,
which bounds |det(A)| by prod_v sqrt(deg(v)) < p; that covers every
connected graph with n <= 15.  Every other matrix is left to
:func:`bordered_inverse`.

Floating point only proposes; the integers decide.  LAPACK may propose a
nonsingular X (:func:`_lapack_inverse`), which is used only once the integer
check A X = d I holds, and a wrong proposal goes on to the modular route.
Otherwise floating point is quarantined to :func:`float_spectrum`, which
exists only for spectrum-shaped cross-checks (documented tolerance 1e-9 for
the eigensolver, 1e-6 against exact characteristic polynomial roots).

Matrices are plain lists of rows; rows are lists of ints.  That matches the
scale of the problem: dense, symmetric, order <= 64.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# bordered inverse: Gauss-Jordan modulo one prime, else one Bareiss echelon
# ---------------------------------------------------------------------------

# matrix order from which the modular route is tried first.  Below it the
# Bareiss echelon of [A | I] is faster (measured on orders 5..72), so the
# census screens (n <= 12) and their bordered matrices stay exact.
MODULAR_MIN_ORDER = 16

MODULUS = (1 << 31) - 1
# largest absolute row sum admitted to numpy: with |X| < MODULUS / 2 every
# partial sum of A X stays below 2**61
_MAX_ROW_SUM = 1 << 31


def bordered_inverse(a) -> tuple[list[list[int]], int, list[list[int]]]:
    """(Z, d, X) for a symmetric integer matrix A: Z its kernel basis (as
    :func:`kernel_basis` gives it, empty when A is nonsingular) and
    X = d M^-1 with d != 0 for the bordered matrix M = [[A, Z], [Z^T, 0]],
    nonsingular because A is symmetric (M = A when Z is empty).  Callers
    rely on that alone.  The exact routes give d = det(M) and X = adj(M);
    the modular one does whenever det(M) and every cofactor lie in
    (-p/2, p/2), and LAPACK's proposal whenever its rounded determinant is
    exact as well.

    From order :data:`MODULAR_MIN_ORDER` on the row-sum guard runs once and
    A becomes one int64 array, which both steps read:

    1. LAPACK proposes d = round(det(A)) and X = rint(d A^-1)
       (:func:`_lapack_inverse`); the pair is kept only when d != 0, |d|
       and |X| stay below p/2 and A X = d I holds in the integers.  A
       singular matrix pays one LU, for the determinant, and no inverse.
    2. Otherwise one Gauss-Jordan modulo p answers both Z and X
       (:func:`_modular_bordered`): the elimination of [A | I] that finds
       the free columns and lifts Z goes on to eliminate M from the state
       it left.  Z is used only once A z = 0 holds in the integers, X only
       once M X = d I does.
    3. A failed lift reads Z from the echelon of A; a failed check, or a
       failed lift, leaves M to the echelon of [M | I]: no matrix is
       eliminated modulo p twice.

    Below that order the echelon of [A | I] (:func:`_exact_inverse`) gives
    (det(A), adj(A)), or Z and then the echelon of [M | I].
    """
    if len(a) >= MODULAR_MIN_ORDER:
        ai = _int64(a)
        kernel = found = None
        if ai is not None:
            found = _lapack_inverse(ai)
            kernel, found = ([], found) if found else _modular_bordered(a, ai)
        if found is not None:
            return kernel, found[0], found[1].tolist()
        if kernel is None:
            kernel = kernel_basis(a)
        return (kernel, *_exact_inverse(_border(a, kernel)))
    try:
        return ([], *_exact_inverse(a))
    except SingularMatrixError as exc:
        return (exc.kernel, *_exact_inverse(_border(a, exc.kernel)))


def _int64(a) -> "np.ndarray | None":
    """A as an int64 array; None for an empty matrix or one with a row whose
    absolute sum exceeds 2**31, refused before anything reaches numpy."""
    if not len(a) or any(sum(map(abs, row)) > _MAX_ROW_SUM for row in a):
        return None
    return np.array(a, dtype=np.int64)


def _lapack_inverse(ai) -> "tuple[int, np.ndarray] | None":
    """(d, X) with X = d A^-1 exactly for the int64 array A, proposed in
    floating point and decided in the integers, or None.

    LAPACK's determinant (one LU) rounds to d; a d of 0 or beyond p/2
    declines before any inverse is formed.  X = rint(d A^-1) from LAPACK's
    inverse must stay within p/2 as well.  The pair then goes through
    :func:`_lift_and_check` as the residues of A^-1 = X d^-1 and of d, which
    it lifts back to X and d exactly and keeps only when A X = d I holds in
    int64.  A wrong proposal fails that check unless its X is still exactly
    d A^-1, as it is for every d when det(A) = +-1."""
    p = MODULUS
    af = ai.astype(np.float64)
    d = np.rint(np.linalg.det(af))
    if not 0 < abs(d) <= p // 2:  # NaN and infinity fail here too
        return None
    xf = np.rint(d * np.linalg.inv(af))
    if not (np.abs(xf) <= p // 2).all():
        return None
    d = int(d)
    ok, d, x = _lift_and_check(ai, xf.astype(np.int64) % p * pow(d, -1, p) % p,
                               np.int64(d % p))
    return (int(d), x) if ok else None


def _border(a, kernel) -> list[list[int]]:
    """[[A, Z], [Z^T, 0]] for the kernel vectors Z, as lists of rows."""
    bordered = [list(row) + [vec[i] for vec in kernel]
                for i, row in enumerate(a)]
    return bordered + [list(vec) + [0] * len(kernel) for vec in kernel]


def _exact_inverse(a) -> tuple[int, list[list[int]]]:
    """(det(A), adj(A)) from the Bareiss echelon of [A | I] = [U | R]: at
    full rank, integer back-substitution of U X = d R with d = det(A), every
    division exact.  A singular A raises :class:`SingularMatrixError` with
    the kernel basis, which is that of the left block, the echelon of A
    itself."""
    n = len(a)
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


def _modular_echelon(ai):
    """Gauss-Jordan on [A | I] modulo p = :data:`MODULUS` for the int64
    array A, a column without a pivot skipped: ([R | E], pivots, d) with
    R = E A the reduced echelon of A (its rank-many pivot rows first),
    ``pivots`` the pivot column of each of those rows and d the running
    determinant of :func:`_pivot_step`, det(A) modulo p at full rank."""
    p = MODULUS
    n = len(ai)
    m = np.zeros((n, 2 * n), dtype=np.int64)
    m[:, :n] = ai % p
    m[:, n:] = np.eye(n, dtype=np.int64)
    d = 1
    pivots = []
    for c in range(n):
        stepped = _pivot_step(m, len(pivots), c, d)
        if stepped is not None:  # else a free column: det(A) = 0 mod p
            d = stepped
            pivots.append(c)
    return m, pivots, d


def _pivot_step(m, r, c, d) -> "int | None":
    """One Gauss-Jordan step modulo p on the residue matrix m, in place:
    the first row from r on with a nonzero entry in column c moves to row
    r, is scaled to a unit pivot and clears column c in every other row
    that holds a nonzero there, which suits one sparse matrix (a stack goes
    through :func:`modular_adjugates`).  Returns d times the pivot, negated
    by a row swap, so that d is the determinant of the rows before the steps
    divided by that of the rows after them; None, with m untouched, when
    column c has no pivot from row r on."""
    p = MODULUS
    nonzero = np.flatnonzero(m[r:, c])
    if not len(nonzero):
        return None
    k = r + int(nonzero[0])
    if k != r:
        m[[r, k]] = m[[k, r]]
        d = p - d
    pivot = int(m[r, c])
    if pivot != 1:
        m[r] = m[r] * pow(pivot, -1, p) % p
    col = m[:, c].copy()
    col[r] = 0
    hit = np.flatnonzero(col)
    if len(hit):
        m[hit] = (m[hit] - np.outer(col[hit], m[r])) % p
    return d * pivot % p


def _mul_mod(x, y):
    """x @ y modulo p for residue matrices.  x is split into 16-bit limbs,
    so every product stays below 2**47, and for an inner dimension below
    2**15 every sum stays below 2**63."""
    p = MODULUS
    return ((x >> 16) @ y % p * (1 << 16) + (x & 0xFFFF) @ y) % p


def _modular_bordered(a, ai=None):
    """(Z, (d, X)) with Z the kernel basis of A and M X = d I exactly for
    M = [[A, Z], [Z^T, 0]], X an int64 array, from one Gauss-Jordan modulo
    p; (Z, None) when Z is certified but M is not decided (Z is empty for a
    nonsingular A), and (None, None) when Z is not certified either.  ``ai``
    is A as :func:`_int64` gives it, made here when not given; A refused by
    that guard gives (None, None).

    :func:`_modular_echelon` leaves E [A | I] = [R | E].  At full rank E is
    A^-1 modulo p and d is det(A) modulo p, lifted and checked by
    :func:`_lift_and_check`.  Otherwise :func:`_lifted_kernel` lifts and
    checks Z, and the same elimination goes on over
    E' [M | I] = [[R, E Z, E, 0], [Z^T, 0, 0, I]], E' = diag(E, I): the
    border rows are reduced against the r pivot rows in one product, and
    2 eta further pivot steps take the free columns of A, then the border
    columns.  The left block is then the permutation P with a 1 at
    (k, order[k]) and the right block T has T M = P, so row order[k] of
    M^-1 is row k of T and det(M) = sign(order) * d.  The products E Z and
    the border update run through :func:`_mul_mod`.  M's rows, border rows
    included, pass the 2**31 row-sum guard before :func:`_lift_and_check`
    multiplies them.
    """
    p = MODULUS
    if ai is None:
        ai = _int64(a)
        if ai is None:
            return None, None
    m, pivots, d = _modular_echelon(ai)
    n, r = len(a), len(pivots)
    if r == n:
        ok, d, x = _lift_and_check(ai, m[:, n:], np.int64(d))
        return [], ((int(d), x) if ok else None)
    kernel = _lifted_kernel(a, m[:r, :n].tolist(), pivots)
    if kernel is None:
        return None, None
    eta = n - r
    size = n + eta
    if max(abs(x) for vec in kernel for x in vec) > _MAX_ROW_SUM:
        return kernel, None
    mi = np.zeros((size, size), dtype=np.int64)
    mi[:n, :n] = ai
    mi[:n, n:] = np.array(kernel, dtype=np.int64).T
    mi[n:, :n] = mi[:n, n:].T
    if np.abs(mi).sum(axis=1).max() > _MAX_ROW_SUM:
        return kernel, None
    z = mi[:n, n:] % p
    g = np.zeros((size, 2 * size), dtype=np.int64)
    g[:n, :n] = m[:, :n]
    g[:n, n:size] = _mul_mod(m[:, n:], z)
    g[:n, size:size + n] = m[:, n:]
    g[n:, :n] = z.T
    g[n:, size + n:] = np.eye(eta, dtype=np.int64)
    g[n:] = (g[n:] - _mul_mod(g[n:, pivots], g[:r])) % p
    pivot_cols = set(pivots)
    free = [c for c in range(n) if c not in pivot_cols]
    order = pivots + free + list(range(n, size))
    for k in range(r, size):
        d = _pivot_step(g, k, order[k], d)
        if d is None:
            return kernel, None  # p divides det(M)
    if sum(c > f for f in free for c in pivots) % 2:
        d = p - d
    x = np.empty((size, size), dtype=np.int64)
    x[order] = g[:, size:]
    ok, d, x = _lift_and_check(mi, x, np.int64(d))
    return kernel, ((int(d), x) if ok else None)


def _lifted_kernel(a, rref, pivots) -> "list[list[int]] | None":
    """The kernel basis of A (as :func:`kernel_basis` gives it) lifted from
    the reduced echelon form ``rref`` of A modulo p, or None.

    Free column f gives the residue vector with 1 at f, 0 at the other free
    columns and -rref[i][f] at the pivot column of row i.  Each entry is
    lifted to the fraction with |numerator|, denominator <= isqrt(p/2) that
    it represents modulo p, and the vector is scaled to a primitive integer
    vector whose first nonzero entry is positive.  All of them are returned
    only when A z = 0 holds in the integers for every one.  Then the n - r
    vectors, r the rank modulo p, are independent vectors of the kernel over
    Q, whose dimension is at most n - r because the rank modulo p never
    exceeds the rank: they span it.  Vector f has its last nonzero entry at
    f, so every free column modulo p is a free column of the exact echelon,
    and there are as many of each: each vector is the one
    :func:`kernel_basis` returns for its free column.
    """
    p = MODULUS
    n = len(a)
    bound = isqrt(p // 2)
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    pivot_cols = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        fractions = [(0, 1)] * n
        fractions[free] = (1, 1)
        for row, col in zip(rref, pivots):
            if col > free:
                break  # reduced rows are zero left of their pivot
            lifted = _rational(-row[free] % p, p, bound)
            if lifted is None:
                return None
            fractions[col] = lifted
        den = lcm(*(q for _, q in fractions))
        vec = [num * (den // q) for num, q in fractions]
        g = gcd(*vec) if next(x for x in vec if x) > 0 else -gcd(*vec)
        vec = [x // g for x in vec]
        if any(sum(x * vec[j] for j, x in row) for row in nonzero):
            return None
        basis.append(vec)
    return basis


def _rational(r: int, p: int, bound: int) -> "tuple[int, int] | None":
    """(num, den) with num = den * r mod p, |num| <= bound and
    0 < den <= bound, or None (Wang's rational reconstruction: the extended
    Euclidean algorithm on (p, r), stopped at the first remainder within the
    bound).  With 2 bound**2 < p there is at most one such fraction in
    lowest terms."""
    r0, r1 = p, r
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


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
      the row degrees, at most (n-1)**n, and 14**15 < p**2 < 15**16:
      every connected graph with n <= 15 and every chemical graph with
      n <= 39 passes it.
    * ``UNDECIDED``: a column without pivot and no certificate, a failed
      check, or a row whose absolute sum exceeds 2**31; the route that
      :func:`bordered_inverse` chooses decides.

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


# ---------------------------------------------------------------------------
# floating spectrum (cross-checks only)
# ---------------------------------------------------------------------------

def float_spectrum(a) -> list[float]:
    """Eigenvalues of a symmetric matrix, descending, via LAPACK."""
    if not a:
        return []
    w = np.linalg.eigvalsh(np.array(a, dtype=float))
    return [float(x) for x in w[::-1]]
