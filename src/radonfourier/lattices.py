"""Z_p-lattices and lattice cosets in Q_p^d, with exact calculus.

A lattice is a full-rank Z_p-submodule of Q_p^d with a rational basis.  The
canonical representative is the column Hermite normal form over Z_(p)
(lower triangular, pivots pure powers of p, subdiagonal entries canonical
residues).  Its entries lie in Z[1/p], as do canonically reduced centers,
so a lattice is stored as integer rows N with basis N / p^e and a center as
integers over p^a, exponents least: equality is syntactic.  Operations run
on these integers and take maps and points in the same form, integer rows
over p^k u (p not dividing u) as ``xl.p_scaled`` writes them; ``Fraction``s
are built only by ``Lattice.basis`` and ``Coset.center``, for output.

Everything needed by the Schwartz-Bruhat function class lives here: duals,
affine preimages, intersections (preimages under the diagonal), quotient
enumeration, and coordinate projections with exact Fubini volume factors.
Volumes, quotients and granularity are read off the HNF, a projection and
its fiber are its two diagonal blocks once the kept coordinates come first,
and an affine preimage comes from one transformed HNF.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from . import exactlinalg as xl


def _plus(p: int, R, a: int, S, b: int, f: int = 1):
    """(T, m) with T / p^m = R / p^a + f S / p^b for integer vectors R, S."""
    m = max(a, b)
    x, y = p ** (m - a), f * p ** (m - b)
    return [r * x + s * y for r, s in zip(R, S)], m


def _dot(u, v) -> int:
    return sum(map(int.__mul__, u, v))


def _dual(N, e: int, p: int):
    """Columns and exponent of basis^(-T) for the HNF N / p^e: the rows of
    adj(N) over p^(K - e), with p^K = det(N)."""
    Z, det = xl.lower_solve(N, [[int(i == j) for i in range(len(N))] for j in range(len(N))])
    return list(zip(*Z)), xl.p_split(det, p)[0] - e


class Lattice:
    """Full-rank Z_p-lattice in Q_p^d, stored by its canonical HNF N / p^e.

    ``Lattice(p, basis)`` takes rational rows whose *columns* generate the
    lattice; ``Lattice(p, cols, e)`` integer generating columns over p^e,
    and with ``_canonical=True`` the rows of a canonical N in lowest terms.
    """

    __slots__ = ("p", "N", "e", "dim", "_hash")

    def __init__(self, p: int, basis, e: int | None = None, _canonical=False):
        if e is None:
            N, e, _ = xl.p_scaled(xl.mat(basis), p)
            basis = tuple(zip(*N))
        if not _canonical:
            basis, e = xl.hnf_zp(basis, e, p)
        self.p, self.N, self.e, self.dim = p, basis, e, len(basis)
        self._hash = hash((p, basis, e))

    @classmethod
    def scaled_standard(cls, p: int, d: int, k: int) -> "Lattice":
        """p^k Z_p^d."""
        s = p ** max(k, 0)
        rows = tuple(tuple(s if i == j else 0 for j in range(d)) for i in range(d))
        return cls(p, rows, max(-k, 0), _canonical=True)

    @property
    def basis(self):
        """The canonical basis N / p^e as ``Fraction`` rows."""
        q = self.p**self.e
        return tuple(tuple(Fraction(x, q) for x in row) for row in self.N)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self._hash == other._hash
            and (self.p, self.e, self.N) == (other.p, other.e, other.N)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Lattice(p={self.p}, basis={[list(r) for r in self.basis]})"

    def volume(self) -> Fraction:
        """Haar volume |det(basis)|_p, normalized so vol(Z_p^d) = 1: the pivots
        of N are powers of p, so this is p^(d e - sum of their exponents)."""
        v = sum(xl.p_split(row[i], self.p)[0] for i, row in enumerate(self.N))
        return Fraction(self.p) ** (self.dim * self.e - v)

    # -- membership ----------------------------------------------------

    def _coords(self, R, a: int):
        """Integer coordinates t with basis @ t = R / p^a (R integer), or None
        when that vector is not in the lattice: forward substitution in
        N t = p^(e - a) R, with the power of p on the side that keeps both
        integral; a remainder is a coordinate outside Z[1/p] cap Z_p = Z."""
        s = self.e - a
        up, down = (self.p**s, 1) if s >= 0 else (1, self.p**-s)
        t = []
        for x, row in zip(R, self.N):
            q, r = divmod(x * up - down * _dot(row, t), row[len(t)] * down)
            if r:
                return None
            t.append(q)
        return t

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self._coords(col, other.e) is not None for col in zip(*other.N))

    def reduce_vector(self, R, a: int, u: int = 1):
        """Canonical representative basis @ {t} of R / (p^a u) modulo the
        lattice, {t} the p-adic fractional parts of its coordinates, as (C, c)
        with C / p^c in lowest terms.  Top to bottom (a >= e), t_i = R_i /
        (u p^m) for p^m = p^(a - e) N_ii has {t_i} = F / p^m, F = R_i u^(-1)
        mod p^m, and R -= ((R_i - u F) / N_ii) N[:, i] leaves u F in row i:
        column i is the first to touch row i.  R ends as u p^a times C / p^c."""
        p, N = self.p, self.N
        if a < self.e:
            R, a = [x * p ** (self.e - a) for x in R], self.e
        else:
            R = list(R)
        pa = p ** (a - self.e)
        for i, row in enumerate(N):
            x, piv = R[i], row[i]
            pm = piv * pa
            q = (x - u * (x * pow(u, -1, pm) % pm if u != 1 else x % pm)) // piv
            if q:
                for r in range(i, self.dim):
                    R[r] -= q * N[r][i]
        (C,), c = xl.lowest_terms(([x // u for x in R],), a, p)
        return C, c

    # -- constructions ---------------------------------------------------

    def dual(self) -> "Lattice":
        """{y : <y, x> in Z_p for all x in the lattice} for the dot pairing."""
        return Lattice(self.p, *_dual(self.N, self.e, self.p))

    def quotient_representatives(self, sub: "Lattice"):
        """Coset representatives of (self / sub) for a sublattice sub, as
        integer vectors R standing for R / p^e (e of self).

        Both bases are lower-triangular HNFs, so basis^(-1) @ sub_basis is
        triangular with diagonal p^(a_i), a_i = v(sub_ii) - v(basis_ii): the
        points basis @ t with 0 <= t_i < p^(a_i) form a complete set.
        """
        if not self.contains_lattice(sub):
            raise ValueError("not a sublattice")
        p, N = self.p, self.N
        reps = [(0,) * self.dim]
        for i, row in enumerate(N):
            a = xl.p_split(sub.N[i][i], p)[0] - sub.e - xl.p_split(row[i], p)[0] + self.e
            reps = [tuple(x + s * r[i] for x, r in zip(rep, N)) for rep in reps for s in range(p**a)]
        return reps

    def granularity_exponent(self) -> int:
        """Smallest g with p^g Z_p^d in the lattice: the radius of the dual."""
        return xl.lowest_terms(*_dual(self.N, self.e, self.p), self.p)[1]


class Coset:
    """center + lattice, with the center canonically reduced mod the lattice
    and kept as integers ``c`` over p^``a`` in lowest terms.  ``Coset(lattice,
    center)`` takes rational entries, ``Coset(lattice, R, a, u)`` R / (p^a u).
    """

    __slots__ = ("lattice", "c", "a")

    def __init__(self, lattice: Lattice, center, a: int | None = None, u: int = 1):
        if a is None:
            (center,), a, u = xl.p_scaled(xl.mat((center,)), lattice.p)
        self.lattice = lattice
        self.c, self.a = lattice.reduce_vector(center, a, u)

    @property
    def p(self):
        return self.lattice.p

    @property
    def dim(self):
        return self.lattice.dim

    @property
    def center(self):
        """The reduced center c / p^a as ``Fraction``s."""
        return tuple(Fraction(x, self.p**self.a) for x in self.c)

    def __eq__(self, other):
        return (
            isinstance(other, Coset)
            and self.lattice == other.lattice
            and (self.a, self.c) == (other.a, other.c)
        )

    def __hash__(self):
        return hash((self.lattice._hash, self.c, self.a))

    def __repr__(self):
        return f"Coset(center={[str(c) for c in self.center]}, {self.lattice!r})"

    def contains(self, vec) -> bool:
        # u (vec - center) lies in the lattice exactly when vec - center does
        (R,), a, u = xl.p_scaled(xl.mat((vec,)), self.p)
        return self.lattice._coords(*_plus(self.p, R, a, self.c, self.a, -u)) is not None

    def volume(self) -> Fraction:
        return self.lattice.volume()

    def intersect(self, other: "Coset"):
        """Intersection coset, or None when disjoint.

        When one lattice contains the other, the meet is the smaller coset
        itself if the center difference lies in the larger lattice, and empty
        otherwise.  Otherwise the intersection is the preimage of the product
        coset under the diagonal x -> (x, x); the two canonical forms side by
        side, at a common exponent, are the product lattice's canonical form.
        """
        L1, L2 = self.lattice, other.lattice
        p, d = self.p, self.dim
        diff = _plus(p, other.c, other.a, self.c, self.a, -1)
        if L1.contains_lattice(L2):
            return other if L1._coords(*diff) is not None else None
        if L2.contains_lattice(L1):
            return self if L2._coords(*diff) is not None else None
        e, zero = max(L1.e, L2.e), (0,) * d
        N = [tuple(x * p ** (e - L.e) for x in row) for L in (L1, L2) for row in L.N]
        N = tuple(row + zero if i < d else zero + row for i, row in enumerate(N))
        center = _plus(p, self.c + zero, self.a, zero + other.c, other.a)
        product = Coset(Lattice(p, N, e, _canonical=True), *center)
        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        return product.affine_preimage(([0] * 2 * d, 0, 1), (eye + eye, 0, 1))

    def affine_preimage(self, offset, C):
        """Preimage {z : offset + C @ z in self} for an injective d x m map.

        Both come scaled: C = (N_C, c, mu) for the rows N_C / (p^c mu) and
        offset = (R, b, nu) for the vector R / (p^b nu), integers with mu and
        nu prime to p.  Returns a Coset in dimension m, or None when empty.
        delta = center - offset.  A square C is inverted: with
        N_C^(-1) = A / (p^v pi), the preimage is C^(-1) delta + A N / p^(e +
        v - c).  Other shapes need D z - w in Z_p^d, D = basis^(-1) C =
        Y / (mu p^(K + c - e)), Y = adj(N) N_C, p^K = det(N), w the
        coordinates of delta: the transformed HNF Y^T U = [H | 0] makes that
        H^T z - u[:m] in Z_p^m and u[m:] in Z_p^(d-m), u = mu U^T w.
        """
        p, L = self.p, self.lattice
        (NC, c, mu), (Ro, ao, nu) = C, offset
        delta, a = _plus(p, [nu * x for x in self.c], self.a, Ro, ao, -1)  # over p^a nu
        d, m = len(NC), len(NC[0])
        if d == m:
            try:
                A, piv = xl.int_inv(NC)
            except ZeroDivisionError:
                raise ValueError("affine map is not injective") from None
            v, pi = xl.p_split(piv, p)
            lat = Lattice(p, [[_dot(row, col) for row in A] for col in zip(*L.N)], L.e + v - c)
            return Coset(lat, [mu * _dot(row, delta) for row in A], a + v - c, pi * nu)
        Y, det = xl.lower_solve(L.N, [*zip(*NC), delta])
        K = xl.p_split(det, p)[0]
        try:
            H, h, U, w = xl.hnf_zp(list(zip(*Y[:m])), K + c - L.e, p, transform=True)
        except ValueError:
            raise ValueError("affine map is not injective") from None
        s = [_dot(col, Y[m]) for col in U]  # u_j = mu s_j / (w_j nu p^g)
        g = K + a - L.e
        if g > 0 and any(x % p**g for x in s[m:]):
            return None  # u[m:] outside Z_p: no solution
        # z in H^(-T) (u[:m] + Z_p^m), over W = prod w_j
        cols, k = _dual(H, h, p)
        W = prod(w)
        r = [mu * (W // wj) * x for wj, x in zip(w, s)]
        return Coset(Lattice(p, cols, k), [_dot(r, row) for row in zip(*cols)], g + k, W * nu)

    def project(self, keep):
        """Push forward along coordinate projection, integrating the rest out.

        Returns (projected coset, fiber volume) so that for any y in the
        projected coset the slice {w : (y,w) in self} has the stated volume,
        and vol(self) = vol(projection) * fiber_volume.  Both are read off
        one HNF: with the kept coordinates (in ``keep`` order) as the leading
        rows of the basis, H = [[H11, 0], [H21, H22]], the leading block H11
        is the HNF of the projection and the trailing block H22 that of the
        fiber lattice {w : (0, w) in the lattice}.
        """
        keep = tuple(keep)
        k, p, L = len(keep), self.p, self.lattice
        order = keep + tuple(i for i in range(self.dim) if i not in keep)
        H, h = xl.hnf_zp(list(zip(*(L.N[i] for i in order))), L.e, p)
        proj = Lattice(p, *xl.lowest_terms([row[:k] for row in H[:k]], h, p), _canonical=True)
        fiber = Lattice(p, *xl.lowest_terms([row[k:] for row in H[k:]], h, p), _canonical=True)
        return Coset(proj, [self.c[i] for i in keep], self.a), fiber.volume()
