"""Exact linear algebra over Q, plus normal forms over the localization Z_(p).

The public matrices are tuples of tuples of ``Fraction``.  Dimensions in
this package never exceed a dozen.  The kernels clear denominators first:
they work on integer numerators over one common denominator and build one
``Fraction`` per output entry.  One fraction-free Gauss-Jordan elimination
(Bareiss) serves ``det``, ``rank`` and ``inv``.

Over Z_(p) = {a/b in Q : p does not divide b}, a discrete valuation ring in
which every rational prime other than p is a unit, there are two normal
forms: the column Hermite form, on which every lattice operation rests, and
the Smith form, which serves the Cartan (KAK) decomposition only.  They
differ from the integer normal forms (extra units are available), so they
are implemented directly: pivots are chosen by minimal p-adic valuation and
normalized to pure powers of p.  A Hermite form over Z_(p) has its entries
in Z[1/p] (Cohen, GTM 138, section 2.4): ``hnf_zp`` takes and returns
integers over a power of p, and so does the lattice layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .fields import p_split, padic_valuation


def mat(rows):
    return tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
    )


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


def int_inv(N):
    """(A, e) with integer rows A and N^(-1) = A / e for a square integer N,
    e = +-det(N): Bareiss on [N | I] ends at [e I | A].  ZeroDivisionError
    when N is singular."""
    n = len(N)
    M, r, _ = _bareiss([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(N)], n)
    if r < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in M], M[-1][n - 1]


def inv(A):
    """Inverse D N^(-1) of A = N / D; ZeroDivisionError when A is singular."""
    N, D = _scaled(A)
    M, e = int_inv(N)
    return tuple(tuple(Fraction(D * x, e) for x in row) for row in M)


def lower_solve(N, cols):
    """(T, det) with T[j] = det(N) N^(-1) cols[j], for an integer lower
    triangular N and integer columns: det(N) N^(-1) = adj(N) is integral,
    so every step of the forward substitution divides exactly."""
    det = prod(row[i] for i, row in enumerate(N))
    T = []
    for col in cols:
        t = []
        for x, row in zip(col, N):
            t.append((det * x - sum(map(int.__mul__, row, t))) // row[len(t)])
        T.append(t)
    return T, det


def rank(A):
    if not A:
        return 0
    N, _ = _scaled(A)
    return _bareiss(N, len(N[0]))[1]


# ---------------------------------------------------------------------
# Normal forms over the localization Z_(p)
# ---------------------------------------------------------------------


def p_scaled(rows, p: int):
    """(N, e, u): integer rows N with rows = N / (p^e u), p not dividing u."""
    N, D = _scaled(rows)
    return (N, *p_split(D, p))


def lowest_terms(rows, e: int, p: int):
    """(N, h) with N / p^h = rows / p^e for integer rows, h >= 0 least."""
    if e < 0:
        s = p**-e
        return tuple(tuple(x * s for x in row) for row in rows), 0
    g, h = gcd(*(x for row in rows for x in row)), e
    while h and g % p == 0:
        g //= p
        h -= 1
    s = p ** (e - h)
    return tuple(tuple(x // s for x in row) for row in rows), h


def hnf_zp(cols, e: int, p: int, transform: bool = False):
    """Column Hermite normal form over Z_(p) of the span of cols / p^e.

    ``cols`` are k integer columns of length d that generate a full lattice
    (the p-free part of a denominator is a unit of Z_(p): it never changes
    the span).  Returns (H, h), integer rows with H / p^h the canonical
    basis and h >= 0 least: lower triangular, each pivot a power of p, and
    the entry (i, j), i > j, the canonical residue (truncated p-adic
    expansion) modulo the pivot of row i.  With ``transform=True`` returns
    (H, h, U, w): the columns U[j] / w[j] (j < d, w the pivot units) and
    U[j] (j >= d) form a matrix, unimodular over Z_(p), that takes cols /
    p^e to [H / p^h | 0].

    Row by row, the column whose entry has least valuation v becomes the
    pivot, with entry w p^v (p not dividing w); every later column with
    entry b becomes w col - (b / p^v) pivot, a step of determinant w, a
    p-unit.  Each step then divides the column, and its column of U, by the
    p-free part of the gcd of their entries; a column with pivot w p^v
    stands for itself / (w p^e).
    """
    d, k = len(cols[0]), len(cols)
    cols = [list(col) for col in cols]
    Uc = [[int(i == j) for i in range(k)] for j in range(k)] if transform else None
    qs = []  # p^v of each pivot

    def combine(j, a, i, b):
        # col_j = a col_j - b col_i (U alike), divided by the p-free gcd
        cj = [a * x - b * y for x, y in zip(cols[j], cols[i])]
        uj = [a * x - b * y for x, y in zip(Uc[j], Uc[i])] if Uc else []
        g = gcd(*cj, *uj)
        while g and g % p == 0:
            g //= p
        cols[j] = [x // g for x in cj] if g > 1 else cj
        if Uc:
            Uc[j] = [x // g for x in uj] if g > 1 else uj

    for row in range(d):
        best, bestv = None, None
        for j in range(row, k):
            if cols[j][row]:
                v = p_split(cols[j][row], p)[0]
                if bestv is None or v < bestv:
                    best, bestv = j, v
                    if v == 0:
                        break
        if best is None:
            raise ValueError("matrix does not have full row rank over Z_(p)")
        cols[row], cols[best] = cols[best], cols[row]
        if Uc:
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
    # c at (i, j) stands for c / (w_j p^e), whose canonical residue is
    # r / p^e with r = c / w_j mod p^(v_i); w_i col_j - ((c - r w_j) /
    # p^(v_i)) col_i leaves r w_i w_j there, with pivot w_i w_j p^(v_j) in
    # column j, so every entry of a column ends as a multiple of its unit.
    for j in range(d):
        for i in range(j + 1, d):
            q, wj, c = qs[i], cols[j][j] // qs[j], cols[j][i]
            a = (c - c * pow(wj, -1, q) % q * wj) // q
            if a:
                combine(j, cols[i][i] // q, i, a)
    units = [cols[j][j] // q for j, q in enumerate(qs)]
    H, h = lowest_terms(
        [[x // w for x, w in zip(row, units)] for row in zip(*cols[:d])], e, p
    )
    return (H, h, Uc, units) if transform else (H, h)


def smith_zp(A, p: int):
    """Smith normal form over Z_(p): A = U @ S @ V.

    S is diagonal (same shape as A) with diagonal entries p**a_1, ..., p**a_r
    (valuations nondecreasing, so each divides the next) followed by zeros;
    U and V are square unimodular over Z_(p).  Returns (U, diag_exponents, V)
    where diag_exponents is the list of a_i (length r = rank).  Each row
    operation on S is undone on the columns of U, each column operation on
    the rows of V.
    """
    m, n = len(A), len(A[0])
    S = [list(row) for row in A]
    U = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    V = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    exps = []
    for t in range(min(m, n)):
        pivots = [(padic_valuation(x, p), i, j) for i in range(t, m) for j, x in enumerate(S[i]) if j >= t and x]
        if not pivots:
            break
        v, i0, j0 = min(pivots)
        S[t], S[i0], V[t], V[j0] = S[i0], S[t], V[j0], V[t]
        for row in U:
            row[t], row[i0] = row[i0], row[t]
        for row in S:
            row[t], row[j0] = row[j0], row[t]
        # normalize the pivot to p**v: scale row t by the inverse unit
        unit = S[t][t] / Fraction(p) ** v
        S[t] = [x * (1 / unit) for x in S[t]]
        for row in U:
            row[t] *= unit
        for i in range(t + 1, m):
            if S[i][t]:
                f = S[i][t] / S[t][t]
                S[i] = [x - f * y for x, y in zip(S[i], S[t])]
                for row in U:
                    row[t] += f * row[i]
        for j in range(t + 1, n):
            if S[t][j]:
                f = S[t][j] / S[t][t]
                for row in S:
                    row[j] -= f * row[t]
                V[t] = [x + f * y for x, y in zip(V[t], V[j])]
        exps.append(v)
    return tuple(tuple(row) for row in U), exps, tuple(tuple(row) for row in V)
