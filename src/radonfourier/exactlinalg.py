"""Exact linear algebra over Q, plus normal forms over the localization Z_(p).

Matrices are tuples of tuples of ``Fraction``.  Dimensions in this package
never exceed a dozen.  The kernels clear denominators first: they work on
integer numerators over one common denominator and build one ``Fraction``
per output entry.  One fraction-free Gauss-Jordan elimination (Bareiss)
serves ``det``, ``rank`` and ``inv``.

Over Z_(p) = {a/b in Q : p does not divide b}, a discrete valuation ring in
which every rational prime other than p is a unit, there are two normal
forms: the column Hermite form, on which every lattice operation rests, and
the Smith form, which serves the Cartan (KAK) decomposition only.  They
differ from the integer normal forms (extra units are available), so they
are implemented directly: pivots are chosen by minimal p-adic valuation and
normalized to pure powers of p.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import padic_frac_part, padic_valuation


def mat(rows):
    return tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
    )


def identity(n: int):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def shape(A):
    return len(A), len(A[0]) if A else 0


def transpose(A):
    return tuple(zip(*A))


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def _scaled(rows):
    """(N, D): integer rows N and a common denominator D with rows = N / D."""
    D = lcm(*(x.denominator for row in rows for x in row))
    if D == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (D // x.denominator) for x in row] for row in rows], D


def matmul(A, B):
    NA, da = _scaled(A)
    NB, db = _scaled(B)
    D = da * db
    cols = tuple(zip(*NB))
    return tuple(
        tuple(Fraction(sum(map(int.__mul__, row, col)), D) for col in cols)
        for row in NA
    )


def matvec(A, v):
    NA, da = _scaled(A)
    (nv,), dv = _scaled((v,))
    D = da * dv
    return tuple(Fraction(sum(map(int.__mul__, row, nv)), D) for row in NA)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def trace(A):
    return sum(A[i][i] for i in range(len(A)))


def _bareiss(M, k):
    """Fraction-free Gauss-Jordan (Bareiss) on integer rows M, columns < k.

    Columns without a pivot are skipped.  Each update divides exactly by the
    previous pivot, so entries stay integer minors and every pivot row ends
    with the last pivot in its pivot column.  M (a list of lists) is reduced
    in place; returns (M, rank, sign of the row swaps).
    """
    m = len(M)
    r, prev, sign = 0, 1, 1
    for c in range(k):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        rr = M[r]
        pk = rr[c]
        for i in range(m):
            if i != r:
                ri = M[i]
                f = ri[c]
                M[i] = [(pk * x - f * y) // prev for x, y in zip(ri, rr)]
        prev = pk
        r += 1
    return M, r, sign


def det(A):
    """det(N) / D^n for A = N / D: the swap sign times the last pivot."""
    N, D = _scaled(A)
    n = len(N)
    M, r, sign = _bareiss(N, n)
    if r < n:
        return Fraction(0)
    return Fraction(sign * M[-1][n - 1], D**n)


def inv(A):
    """Inverse of a square matrix; ZeroDivisionError when it is singular.

    With A = N / D for an integer matrix N, inv(A) = D adj(N) / det(N).  For
    n >= 3, Bareiss on [N | I] ends at [e I | e N^(-1)] with e = +-det(N);
    each entry of the inverse is then D x / e.
    """
    N, D = _scaled(A)
    n = len(N)
    if n == 1:
        return ((Fraction(D, N[0][0]),),)
    if n == 2:
        (a, b), (c, d) = N
        det_ = a * d - b * c
        if det_ == 0:
            raise ZeroDivisionError("singular matrix")
        return (
            (Fraction(D * d, det_), Fraction(-D * b, det_)),
            (Fraction(-D * c, det_), Fraction(D * a, det_)),
        )
    M, r, _ = _bareiss([row + [int(i == j) for j in range(n)] for i, row in enumerate(N)], n)
    if r < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(
        tuple(Fraction(D * x, M[i][i]) for x in M[i][n:]) for i in range(n)
    )


def rank(A):
    if not A:
        return 0
    N, _ = _scaled(A)
    return _bareiss(N, len(N[0]))[1]


# ---------------------------------------------------------------------
# Normal forms over the localization Z_(p)
# ---------------------------------------------------------------------


def _val(x: Fraction, p: int):
    return None if x == 0 else padic_valuation(x, p)


def canonical_residue(t: Fraction, p: int, m: int) -> Fraction:
    """Canonical representative of t modulo p^m * Z_(p).

    The orbit t + p^m Z_(p) contains exactly one truncated p-adic expansion
    sum_{i=v}^{m-1} c_i p^i: p^m times the fractional part of t / p^m.
    """
    pm = Fraction(p) ** m
    return pm * padic_frac_part(Fraction(t) / pm, p)


_ZERO = Fraction(0)


def hnf_zp(B, p: int, transform: bool = False):
    """Column Hermite normal form of B over Z_(p).

    B is d x k with full row rank d (columns generate a full lattice).  The
    result H is d x d lower triangular with H[i][i] a power of p and the
    subdiagonal entry H[i][j] (i > j) the canonical residue mod H[i][i].
    Column operations are unimodular over Z_(p), so the columns of H generate
    the same Z_(p)-span (hence the same Z_p-lattice) as those of B.

    With ``transform=True`` also returns U (k x k, unimodular over Z_(p))
    with B @ U = [H | 0].

    Every step runs on integers.  With B = N / D and D = p^e u, p not
    dividing u, the span of B is p^(-e) times the span of N.  Row by row,
    the column whose entry has least valuation v becomes the pivot, with
    entry w p^v (p not dividing w); every later column with entry b becomes
    w col - (b / p^v) pivot, a step of determinant w, a p-unit.  Each step
    then divides the column, and its column of U, by the p-free part of the
    gcd of their entries.  A pivot column c with pivot w p^v stands for
    c / (w p^e) in H, and its column of U for u / w times the integer one.
    One ``Fraction`` per output entry is built at the end.
    """
    d, k = shape(B)
    N, D = _scaled(B)
    e, u = 0, D
    while u % p == 0:
        u //= p
        e += 1
    cols = [list(col) for col in zip(*N)]
    Uc = [[int(i == j) for i in range(k)] for j in range(k)] if transform else None
    qs = []  # p^v of each pivot

    def combine(j, a, i, b):
        # col_j = a col_j - b col_i (U alike), divided by the p-free gcd
        cj = [a * x - b * y for x, y in zip(cols[j], cols[i])]
        uj = [a * x - b * y for x, y in zip(Uc[j], Uc[i])] if Uc is not None else []
        g = gcd(*cj, *uj)
        while g and g % p == 0:
            g //= p
        if g > 1:
            cj = [x // g for x in cj]
            uj = [x // g for x in uj]
        cols[j] = cj
        if Uc is not None:
            Uc[j] = uj

    for row in range(d):
        best, bestv = None, None
        for j in range(row, k):
            x = cols[j][row]
            if x:
                v = 0
                while x % p == 0:
                    x //= p
                    v += 1
                if bestv is None or v < bestv:
                    best, bestv = j, v
                    if v == 0:
                        break
        if best is None:
            raise ValueError("matrix does not have full row rank over Z_(p)")
        if best != row:
            cols[row], cols[best] = cols[best], cols[row]
            if Uc is not None:
                Uc[row], Uc[best] = Uc[best], Uc[row]
        q = p**bestv
        qs.append(q)
        w = cols[row][row] // q
        for j in range(row + 1, k):
            b = cols[j][row]
            if b:
                combine(j, w, row, b // q)
    # columns beyond the d pivots had every row eliminated, so they are zero

    # canonical reduction of subdiagonal entries; within a column, work the
    # pivot rows in ascending order so later subtractions (which only touch
    # rows >= their pivot) cannot disturb entries already reduced.  Entry
    # H[i][j] = c / (w_j p^e) has the canonical residue r / p^e with
    # r = c / w_j mod p^(v_i); w_i col_j - ((c - r w_j) / p^(v_i)) col_i
    # leaves it there, with pivot w_i w_j p^(v_j) in column j.
    for j in range(d):
        for i in range(j + 1, d):
            q, wj, c = qs[i], cols[j][j] // qs[j], cols[j][i]
            a = (c - c * pow(wj, -1, q) % q * wj) // q
            if a:
                combine(j, cols[i][i] // q, i, a)
    units = [cols[j][j] // q for j, q in enumerate(qs)]
    pe = p**e
    H = tuple(
        tuple(Fraction(x, w * pe) if x else _ZERO for x, w in zip(row, units))
        for row in zip(*cols[:d])
    )
    if not transform:
        return H
    scale = [Fraction(u, w) for w in units] + [Fraction(1)] * (k - d)
    U = tuple(
        tuple(x * s if x else _ZERO for x, s in zip(row, scale)) for row in zip(*Uc)
    )
    return H, U


def smith_zp(A, p: int):
    """Smith normal form over Z_(p): A = U @ S @ V.

    S is diagonal (same shape as A) with diagonal entries p**a_1, ..., p**a_r
    (valuations nondecreasing, so each divides the next) followed by zeros;
    U and V are square unimodular over Z_(p).  Returns (U, diag_exponents, V)
    where diag_exponents is the list of a_i (length r = rank).
    """
    m, n = shape(A)
    S = [list(row) for row in A]
    U = [list(row) for row in identity(m)]
    V = [list(row) for row in identity(n)]

    def row_sub(i, j, f):
        # row_i -= f * row_j ; compensate in U by col_j += f * col_i
        for k in range(n):
            S[i][k] -= f * S[j][k]
        for k in range(m):
            U[k][j] += f * U[k][i]

    def col_sub(i, j, f):
        # col_i -= f * col_j ; compensate in V by row_j += f * row_i
        for k in range(m):
            S[k][i] -= f * S[k][j]
        for k in range(n):
            V[j][k] += f * V[i][k]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        for k in range(m):
            U[k][i], U[k][j] = U[k][j], U[k][i]

    def col_swap(i, j):
        for k in range(m):
            S[k][i], S[k][j] = S[k][j], S[k][i]
        V[i], V[j] = V[j], V[i]

    exps = []
    t = 0
    limit = min(m, n)
    while t < limit:
        best, bestv = None, None
        for i in range(t, m):
            for j in range(t, n):
                v = _val(S[i][j], p)
                if v is not None and (bestv is None or v < bestv):
                    best, bestv = (i, j), v
        if best is None:
            break
        i0, j0 = best
        row_swap(t, i0)
        col_swap(t, j0)
        # normalize pivot to p**bestv: scale row t by the inverse unit
        unit = S[t][t] / Fraction(p) ** bestv
        sinv = 1 / unit
        for k in range(n):
            S[t][k] *= sinv
        for k in range(m):
            U[k][t] *= unit
        piv = S[t][t]
        for i in range(t + 1, m):
            if S[i][t] != 0:
                row_sub(i, t, S[i][t] / piv)
        for j in range(t + 1, n):
            if S[t][j] != 0:
                col_sub(j, t, S[t][j] / piv)
        exps.append(bestv)
        t += 1
    return tuple(tuple(row) for row in U), exps, tuple(tuple(row) for row in V)


def val_min_entry(A, p: int):
    """Minimal p-adic valuation over the nonzero entries (None if A = 0)."""
    best = None
    for row in A:
        for x in row:
            if x != 0:
                v = padic_valuation(x, p)
                if best is None or v < best:
                    best = v
    return best
