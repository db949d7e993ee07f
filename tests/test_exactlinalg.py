from fractions import Fraction

import numpy as np
import pytest

from radonfourier import exactlinalg as xl
from radonfourier import padic_frac_part
from radonfourier.sampling import rand_fraction, rand_gl_zp

from basis import identity, matvec


def rand_rational_matrix(rng, m, n, denom=6):
    return tuple(
        tuple(Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, denom))) for _ in range(n))
        for _ in range(m)
    )


def hnf_fractions(B, p, transform=False):
    """hnf_zp on a Fraction matrix B (d x k): H, and with ``transform`` U, as
    Fraction matrices with B @ U = [H | 0].  With B = N / (p^e u), the
    integer U[j] / w[j] takes N / p^e there, so U scales by u as well."""
    N, e, u = xl.p_scaled(B, p)
    out = xl.hnf_zp([list(col) for col in zip(*N)], e, p, transform=transform)
    H, h = out[:2]
    assert all(type(x) is int for row in H for x in row)
    Hf = tuple(tuple(Fraction(x, p**h) for x in row) for row in H)
    if not transform:
        return Hf
    Uc, w = out[2:]
    scale = [Fraction(u, wj) for wj in w] + [Fraction(u)] * (len(Uc) - len(w))
    return Hf, tuple(zip(*([x * s for x in col] for col, s in zip(Uc, scale))))


def test_det_inv_solve_against_numpy(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        A = rand_rational_matrix(rng, n, n)
        Af = np.array([[float(x) for x in row] for row in A])
        d = xl.det(A)
        assert abs(float(d) - np.linalg.det(Af)) < 1e-8 * max(1.0, abs(float(d)))
        if d == 0:
            continue
        Ai = xl.inv(A)
        assert xl.matmul(A, Ai) == identity(n)
        b = tuple(Fraction(int(rng.integers(-5, 6))) for _ in range(n))
        assert matvec(A, matvec(Ai, b)) == b


def test_rank(rng):
    A = xl.mat([[1, 2, 3], [2, 4, 6]])
    assert xl.rank(A) == 1
    assert xl.rank(identity(3)) == 3


def ref_det_rank(A):
    """(det or None when not square, rank) by plain Fraction elimination."""
    M = [list(row) for row in A]
    m, n = len(M), len(M[0])
    d, r = Fraction(1), 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c] != 0), None)
        if piv is None:
            d = Fraction(0)
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            d = -d
        d *= M[r][c]
        for i in range(r + 1, m):
            f = M[i][c] / M[r][c]
            M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        r += 1
        if r == m:
            break
    return (d if m == n else None), r


def test_det_rank_rank_deficient_against_fraction_reference(rng):
    """Products X Y of random m x r and r x n factors, half their entries zero
    so that pivots are often missing: rank r or less, up to 6 x 7."""

    def sparse(M):
        return tuple(tuple(x if rng.integers(0, 2) else Fraction(0) for x in row) for row in M)

    for _ in range(300):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        if rng.integers(0, 2):
            n = m
        r = int(rng.integers(0, min(m, n) + 1))
        X = sparse(rand_rational_matrix(rng, m, r)) if r else ((),) * m
        Y = sparse(rand_rational_matrix(rng, r, n))
        A = tuple(
            tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*Y))
            if r else (Fraction(0),) * n
            for row in X
        )
        want_det, want_rank = ref_det_rank(A)
        assert xl.rank(A) == want_rank <= r
        if m == n:
            assert xl.det(A) == want_det
            assert (want_det == 0) == (want_rank < n)


def canonical_residue(t, p, m):
    """Canonical representative of t modulo p^m Z_(p), to which hnf_zp
    reduces subdiagonal entries: the orbit t + p^m Z_(p) holds exactly one
    truncated p-adic expansion sum_{i=v}^{m-1} c_i p^i, p^m times the
    fractional part of t / p^m.  The reference HNF below uses it."""
    pm = Fraction(p) ** m
    return pm * padic_frac_part(Fraction(t) / pm, p)


def test_canonical_residue():
    p = 3
    # rational with negative valuation keeps its fractional digits
    t = Fraction(5, 9)
    r = canonical_residue(t, p, 2)
    assert r == Fraction(5, 9)
    assert canonical_residue(Fraction(14, 9), p, 0) == Fraction(5, 9)
    # negative m keeps the digits below p^m: 16/27 = 1/27 + 2/9 + 1/3
    assert canonical_residue(Fraction(16, 27), p, -1) == Fraction(7, 27)
    assert canonical_residue(Fraction(16, 27), p, -3) == 0
    # difference lands in p^m Z_(p), and the residue lies in [0, p^m)
    for m in range(-3, 4):
        for t in [Fraction(7, 5), Fraction(22, 9), Fraction(-4, 27), Fraction(11)]:
            r = canonical_residue(t, p, m)
            assert 0 <= r < Fraction(p) ** m
            diff = t - r
            if diff != 0:
                from radonfourier import padic_valuation

                assert padic_valuation(diff, p) >= m


def test_hnf_canonical_under_unimodular(rng):
    p = 3
    for _ in range(60):
        d = int(rng.integers(1, 5))
        while True:
            B = tuple(
                tuple(rand_fraction(rng, p, -2, 2) if rng.integers(0, 4) else Fraction(0)
                      for _ in range(d))
                for _ in range(d)
            )
            if xl.det(B) != 0:
                break
        H1 = hnf_fractions(B, p)
        U = rand_gl_zp(rng, d, p)
        H2 = hnf_fractions(xl.matmul(B, U), p)
        assert H1 == H2
        # lower triangular with p-power pivots
        for i in range(d):
            assert H1[i][i] == Fraction(p) ** (
                __import__("radonfourier").padic_valuation(H1[i][i], p)
            )
            for j in range(i + 1, d):
                assert H1[i][j] == 0


def test_hnf_transform(rng):
    p = 2
    for _ in range(30):
        d = int(rng.integers(1, 4))
        while True:
            B = rand_rational_matrix(rng, d, 2 * d, denom=4)
            if xl.rank(B) == d:
                break
        H, U = hnf_fractions(B, p, transform=True)
        BU = xl.matmul(B, U)
        for i in range(d):
            for j in range(2 * d):
                assert BU[i][j] == (H[i][j] if j < d else 0)


def test_smith_reconstruction(rng):
    from radonfourier import padic_valuation

    p = 3
    for _ in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        A = tuple(
            tuple(rand_fraction(rng, p, -2, 2) if rng.integers(0, 4) else Fraction(0)
                  for _ in range(n))
            for _ in range(m)
        )
        U, exps, V = xl.smith_zp(A, p)
        S = tuple(
            tuple(
                (Fraction(p) ** exps[i] if i == j and i < len(exps) else Fraction(0))
                for j in range(n)
            )
            for i in range(m)
        )
        assert xl.matmul(xl.matmul(U, S), V) == xl.mat(A)
        assert exps == sorted(exps)  # divisibility chain
        # transforms unimodular over Z_(p)
        for T in (U, V):
            dT = xl.det(T)
            assert dT != 0 and padic_valuation(dT, p) == 0


# -- integer-scaled kernels against plain Fraction arithmetic ----------------


def ref_matmul(A, B):
    return tuple(
        tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B))
        for row in A
    )


def ref_inv(A):
    """Gauss-Jordan on [A | I] in Fractions."""
    n = len(A)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[c], M[piv] = M[piv], M[c]
        s = 1 / M[c][c]
        M[c] = [x * s for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return tuple(tuple(row[n:]) for row in M)


def rand_mixed_matrix(rng, p, m, n):
    """Entries with p-power and p'-unit denominators, about a quarter zero."""
    return tuple(
        tuple(rand_fraction(rng, p, -3, 2) if rng.integers(0, 4) else Fraction(0)
              for _ in range(n))
        for _ in range(m)
    )


def all_fractions(A):
    return all(type(x) is Fraction for row in A for x in row)


def test_scaled_kernels_match_fraction_reference(rng):
    for p in (2, 3, 5):
        for n in range(1, 8):
            for _ in range(12):
                A = rand_mixed_matrix(rng, p, n, n)
                k = int(rng.integers(1, 8))
                B = rand_mixed_matrix(rng, p, n, k)
                AB = xl.matmul(A, B)
                assert AB == ref_matmul(A, B) and all_fractions(AB)
                try:
                    want = ref_inv(A)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        xl.inv(A)
                    continue
                Ai = xl.inv(A)
                assert Ai == want and all_fractions(Ai)
                assert xl.matmul(A, Ai) == identity(n)


def test_inv_singular_raises(rng):
    p = 3
    for n in range(1, 8):
        A = [list(row) for row in rand_mixed_matrix(rng, p, n, n)]
        # last row a combination of the others (all zero when n = 1)
        A[-1] = [
            sum((Fraction(j + 1) * A[j][c] for j in range(n - 1)), Fraction(0))
            for c in range(n)
        ]
        with pytest.raises(ZeroDivisionError):
            xl.inv(tuple(tuple(row) for row in A))


# -- integer hnf_zp against the Fraction elimination it replaced -------------


def _hnf_zp_reference(B, p):
    """Column HNF over Z_(p) by plain Fraction column operations."""
    from radonfourier import padic_valuation

    d, k = len(B), len(B[0])
    cols = [list(col) for col in zip(*B)]

    def colop_sub(j, i, f):
        cols[j] = [x - f * y for x, y in zip(cols[j], cols[i])]

    for row in range(d):
        cands = [(padic_valuation(cols[j][row], p), j) for j in range(row, k) if cols[j][row] != 0]
        if not cands:
            raise ValueError("matrix does not have full row rank over Z_(p)")
        v, best = min(cands)
        cols[row], cols[best] = cols[best], cols[row]
        s = Fraction(p) ** v / cols[row][row]
        cols[row] = [x * s for x in cols[row]]
        for j in range(row + 1, k):
            if cols[j][row] != 0:
                colop_sub(j, row, cols[j][row] / cols[row][row])
    for j in range(d):
        for i in range(j + 1, d):
            piv = cols[i][i]
            t = cols[j][i]
            rho = canonical_residue(t, p, padic_valuation(piv, p))
            if t != rho:
                colop_sub(j, i, (t - rho) / piv)
    return tuple(tuple(cols[j][r] for j in range(d)) for r in range(d))


def test_integer_hnf_matches_fraction_reference(rng):
    """Random d x k matrices, d = 1..6 and k = d..2d, whose entries have
    denominators divisible by p and prime to it: H equals the Fraction
    elimination's, and U is a Z_(p)-unimodular transform with B U = [H | 0].
    Matrices without full row rank raise ValueError."""
    from radonfourier import padic_valuation

    for p in (2, 3, 5):
        for d in range(1, 7):
            for k in range(d, 2 * d + 1):
                for _ in range(2):
                    B = rand_mixed_matrix(rng, p, d, k)
                    if xl.rank(B) < d:
                        with pytest.raises(ValueError, match="full row rank"):
                            hnf_fractions(B, p)
                        continue
                    want = _hnf_zp_reference(B, p)
                    assert hnf_fractions(B, p) == want
                    H, U = hnf_fractions(B, p, transform=True)
                    assert H == want
                    BU = xl.matmul(B, U)
                    assert BU == tuple(row + (Fraction(0),) * (k - d) for row in H)
                    assert all(x == 0 or padic_valuation(x, p) >= 0 for row in U for x in row)
                    assert padic_valuation(xl.det(U), p) == 0
    # a third row that is a combination of the first two
    B = [list(row) for row in rand_mixed_matrix(rng, 3, 3, 5)]
    B[2] = [x * Fraction(2, 9) - y for x, y in zip(B[0], B[1])]
    with pytest.raises(ValueError, match="full row rank"):
        hnf_fractions(tuple(tuple(row) for row in B), 3, transform=True)
