"""Z_p-lattices and lattice cosets in Q_p^d, with exact calculus.

A lattice is a full-rank Z_p-submodule of Q_p^d with a rational basis; since
all inputs are rational the whole calculus stays in Q.  The canonical
representative is the column Hermite normal form over Z_(p) (lower
triangular, pivots pure powers of p, subdiagonal entries canonical
residues), so two descriptions of the same lattice produce identical basis
matrices and equality is syntactic.

Cosets carry a canonically reduced center.  Everything needed by the
Schwartz-Bruhat function class lives here: duals, sums, intersections,
images and affine preimages, coset intersection with witnesses, quotient
enumeration, and coordinate projections with exact Fubini volume factors.
The HNF is the only normal form used: volumes, quotients and granularity
are read off it, a projection and its fiber are its two diagonal blocks
once the kept coordinates come first, and the rest comes from one
transformed HNF per operation.
"""

from __future__ import annotations

from fractions import Fraction

from . import exactlinalg as xl
from .fields import padic_frac_part, padic_valuation


class Lattice:
    """Full-rank Z_p-lattice in Q_p^d, stored by its canonical HNF basis.

    ``basis`` is a d x d matrix whose *columns* generate the lattice.
    """

    __slots__ = ("p", "basis", "dim", "_int", "_hash")

    def __init__(self, p: int, basis, _canonical=False):
        basis = xl.mat(basis)
        d, k = xl.shape(basis)
        if not _canonical:
            basis = xl.hnf_zp(basis, p)
        self.p = p
        self.basis = basis
        self.dim = d
        self._int = xl._scaled(basis)  # (N, D) with basis = N / D
        self._hash = hash((p, basis))

    @classmethod
    def scaled_standard(cls, p: int, d: int, k: int) -> "Lattice":
        """p^k Z_p^d."""
        s = Fraction(p) ** k
        return cls(p, tuple(
            tuple(s if i == j else Fraction(0) for j in range(d)) for i in range(d)
        ), _canonical=True)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self._hash == other._hash
            and self.p == other.p
            and self.basis == other.basis
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Lattice(p={self.p}, basis={[list(r) for r in self.basis]})"

    # -- measure -------------------------------------------------------

    def volume(self) -> Fraction:
        """Haar volume |det(basis)|_p, normalized so vol(Z_p^d) = 1: the HNF
        basis is triangular, so this is p^(-sum of the pivot valuations)."""
        v = sum(padic_valuation(self.basis[i][i], self.p) for i in range(self.dim))
        return Fraction(self.p) ** -v

    # -- membership ----------------------------------------------------

    def coords(self, vec):
        """Coordinates t with basis @ t = vec (triangular solve).

        Fraction-free forward substitution: with basis = N / D and the part
        of vec still to solve kept as R / S, t_i = D R_i / (S N_ii), and
        R_r becomes R_r N_ii - R_i N_ri below row i, S becomes S N_ii.
        """
        N, D = self._int
        (R,), S = xl._scaled((vec,))
        t = []
        for i, row in enumerate(N):
            x = R[i]
            if not x:
                t.append(Fraction(0))
                continue
            piv = row[i]
            t.append(Fraction(D * x, S * piv))
            for r in range(i + 1, self.dim):
                R[r] = R[r] * piv - x * N[r][i]
            S *= piv
        return tuple(t)

    def contains(self, vec) -> bool:
        return all(c == 0 or padic_valuation(c, self.p) >= 0 for c in self.coords(vec))

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(col) for col in zip(*other.basis))

    def reduce_vector(self, vec):
        """Canonical representative of vec modulo the lattice."""
        frac = tuple(padic_frac_part(c, self.p) for c in self.coords(vec))
        return xl.matvec(self.basis, frac)

    # -- constructions ---------------------------------------------------

    def dual(self) -> "Lattice":
        """{y : <y, x> in Z_p for all x in the lattice} for the dot pairing."""
        return Lattice(self.p, xl.transpose(xl.inv(self.basis)))

    def quotient_representatives(self, sub: "Lattice"):
        """Coset representatives of (self / sub) for a sublattice sub.

        Both bases are lower-triangular HNFs, so basis^(-1) @ sub_basis is
        triangular with diagonal p^(a_i), a_i = v(sub_ii) - v(basis_ii): the
        points basis @ t with 0 <= t_i < p^(a_i) form a complete set.
        """
        if not self.contains_lattice(sub):
            raise ValueError("not a sublattice")
        p = self.p
        reps = [tuple(Fraction(0) for _ in range(self.dim))]
        for i in range(self.dim):
            a = padic_valuation(sub.basis[i][i], p) - padic_valuation(self.basis[i][i], p)
            col = tuple(row[i] for row in self.basis)
            reps = [
                tuple(x + s * c for x, c in zip(r, col))
                for r in reps for s in range(p**a)
            ]
        return reps

    def granularity_exponent(self) -> int:
        """Smallest g with p^g Z_p^d contained in the lattice."""
        return max(0, -xl.val_min_entry(xl.inv(self.basis), self.p))

    def radius_exponent(self) -> int:
        """Smallest R with the lattice contained in p^(-R) Z_p^d."""
        v = xl.val_min_entry(self.basis, self.p)
        return 0 if v is None else max(0, -v)


class Coset:
    """center + lattice, with the center canonically reduced mod the lattice."""

    __slots__ = ("lattice", "center")

    def __init__(self, lattice: Lattice, center):
        self.lattice = lattice
        self.center = lattice.reduce_vector(tuple(Fraction(x) for x in center))

    @property
    def p(self):
        return self.lattice.p

    @property
    def dim(self):
        return self.lattice.dim

    def __eq__(self, other):
        return (
            isinstance(other, Coset)
            and self.lattice == other.lattice
            and self.center == other.center
        )

    def __hash__(self):
        return hash((self.lattice, self.center))

    def __repr__(self):
        return f"Coset(center={[str(c) for c in self.center]}, {self.lattice!r})"

    def contains(self, vec) -> bool:
        return self.lattice.contains(xl.vec_sub(tuple(Fraction(x) for x in vec), self.center))

    def volume(self) -> Fraction:
        return self.lattice.volume()

    def intersect(self, other: "Coset"):
        """Intersection coset, or None when disjoint.

        Nonempty iff center difference lies in the lattice sum.  When one
        lattice contains the other, the sum is the larger and the meet is the
        smaller coset itself.  Otherwise one transformed HNF of the
        concatenated bases, [L1 | L2] @ U = [H | 0] with U unimodular over
        Z_(p), gives both: the last d columns of U span the integral relations
        L1 u1 + L2 u2 = 0, so the last d columns of L1 @ U[:d] span the meet,
        and the first d carry coordinates over H to their L1 part.
        """
        L1, L2 = self.lattice, other.lattice
        diff = xl.vec_sub(other.center, self.center)
        if L1.contains_lattice(L2):
            return other if L1.contains(diff) else None
        if L2.contains_lattice(L1):
            return self if L2.contains(diff) else None
        d, p = self.dim, self.p
        H, U = xl.hnf_zp(tuple(ra + rb for ra, rb in zip(L1.basis, L2.basis)), p, transform=True)
        Hlat = Lattice(p, H, _canonical=True)
        if not Hlat.contains(diff):
            return None
        # diff = [L1 | L2] @ U[:, :d] @ t with integral coordinates t; its L1
        # part L1 @ U[:d, :d] @ t, added to our center, is a witness
        LU = xl.matmul(L1.basis, U[:d])
        step = xl.matvec(tuple(row[:d] for row in LU), Hlat.coords(diff))
        meet = Lattice(p, tuple(row[d:] for row in LU))
        return Coset(meet, xl.vec_add(self.center, step))

    def affine_preimage(self, offset, C):
        """Preimage {z : offset + C @ z in self} for injective C (d x m).

        Returns a Coset in dimension m, or None when empty.  A square C is
        inverted: the preimage is C^(-1) (center - offset) + C^(-1) L.  Other
        shapes need D z - w in Z_p^d (D = basis^(-1) @ C, w the coordinates of
        center - offset); the transformed HNF D^T U = [H | 0] makes that
        H^T z - u[:m] in Z_p^m and u[m:] in Z_p^(d-m), with u = U^T w.
        """
        p = self.p
        C = xl.mat(C)
        delta = xl.vec_sub(self.center, tuple(Fraction(x) for x in offset))
        if len(C) == len(C[0]):
            try:
                Cinv = xl.inv(C)
            except ZeroDivisionError:
                raise ValueError("affine map is not injective") from None
            return Coset(
                Lattice(p, xl.matmul(Cinv, self.lattice.basis)), xl.matvec(Cinv, delta)
            )
        D = xl.matmul(xl.inv(self.lattice.basis), C)
        m = len(C[0])
        try:
            H, U = xl.hnf_zp(xl.transpose(D), p, transform=True)
        except ValueError:
            raise ValueError("affine map is not injective") from None
        u = xl.matvec(xl.transpose(U), self.lattice.coords(delta))
        # entries beyond m carry the solvability constraint u_i in Z_p
        if any(x != 0 and padic_valuation(x, p) < 0 for x in u[m:]):
            return None
        T = xl.transpose(xl.inv(H))
        return Coset(Lattice(p, T), xl.matvec(T, u[:m]))

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
        k = len(keep)
        order = keep + tuple(i for i in range(self.dim) if i not in keep)
        H = xl.hnf_zp(tuple(self.lattice.basis[i] for i in order), self.p)
        proj = Lattice(self.p, tuple(row[:k] for row in H[:k]), _canonical=True)
        fiber = Lattice(self.p, tuple(row[k:] for row in H[k:]), _canonical=True)
        return Coset(proj, tuple(self.center[i] for i in keep)), fiber.volume()
