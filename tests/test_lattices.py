import itertools
from fractions import Fraction

import pytest

from radonfourier import Coset, Lattice, abs_norm, padic_field, padic_valuation
from radonfourier import exactlinalg as xl
from radonfourier.sampling import rand_fraction

from basis import matvec, vec_add


def lattice_sum(L1, L2):
    """L1 + L2: the lattice spanned by both bases."""
    return Lattice(L1.p, tuple(ra + rb for ra, rb in zip(L1.basis, L2.basis)))


def in_lattice(L, v):
    """v in L: membership in the coset of L through 0."""
    return Coset(L, (Fraction(0),) * L.dim).contains(v)


def lattice_meet(L1, L2):
    """L1 meet L2, as the lattice of the meet of the two cosets through 0."""
    zero = tuple(Fraction(0) for _ in range(L1.dim))
    return Coset(L1, zero).intersect(Coset(L2, zero)).lattice


def rand_lattice(rng, p, d):
    while True:
        B = tuple(
            tuple(
                rand_fraction(rng, p, -2, 2) if rng.integers(0, 3) else Fraction(0)
                for _ in range(d)
            )
            for _ in range(d)
        )
        if xl.det(B) != 0:
            return Lattice(p, B)


def preimage(coset, offset, C):
    """``coset.affine_preimage`` of a rational offset and map, given in the
    scaled integer forms it takes."""
    (R,), b, nu = xl.p_scaled((offset,), coset.p)
    return coset.affine_preimage((R, b, nu), xl.p_scaled(C, coset.p))


def test_standard_dual_and_volume(f3):
    Z2 = Lattice.scaled_standard(3, 2, 0)
    assert Z2.dual() == Z2
    assert Z2.volume() == 1
    assert Lattice.scaled_standard(3, 2, 1).volume() == Fraction(1, 9)


def test_dual_involution_and_volume(rng, f3):
    p = 3
    for _ in range(40):
        L = rand_lattice(rng, p, int(rng.integers(1, 4)))
        assert L.dual().dual() == L
        assert L.dual().volume() * L.volume() == 1


def test_volume_multiplicative_under_maps(rng, f3):
    p = 3
    fd = padic_field(p)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        L = rand_lattice(rng, p, d)
        while True:
            M = tuple(
                tuple(rand_fraction(rng, p, -1, 1) if rng.integers(0, 3) else Fraction(0)
                      for _ in range(d))
                for _ in range(d)
            )
            if xl.det(M) != 0:
                break
        assert Lattice(p, xl.matmul(M, L.basis)).volume() == abs_norm(xl.det(M), fd) * L.volume()


def test_intersections():
    p = 3
    Z = Lattice.scaled_standard(p, 1, 0)
    pZ = Lattice.scaled_standard(p, 1, 1)
    assert lattice_meet(Z, pZ) == pZ
    one_pZ = Coset(pZ, (Fraction(1),))
    zero_pZ = Coset(pZ, (Fraction(0),))
    assert one_pZ.intersect(zero_pZ) is None
    got = Coset(Z, (Fraction(0),)).intersect(one_pZ)
    assert got is not None and got.lattice == pZ and got.center == (Fraction(1),)


def dual_formula_intersection(L1, L2):
    """L1 meet L2 by duality, the textbook route: (L1* + L2*)*."""
    return lattice_sum(L1.dual(), L2.dual()).dual()


def test_intersection_matches_dual_formula(rng):
    for p in (2, 3, 5):
        for d in range(1, 5):
            for _ in range(10):
                L1, L2 = rand_lattice(rng, p, d), rand_lattice(rng, p, d)
                want = dual_formula_intersection(L1, L2)
                assert lattice_meet(L1, L2) == want
                c1 = Coset(L1, tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
                got = c1.intersect(Coset(L2, c1.center))
                assert got.lattice == want and got.center == Coset(want, c1.center).center


def test_coset_intersection_witness(rng):
    for p in (2, 3, 5):
        for _ in range(40):
            d = int(rng.integers(1, 5))
            c1 = Coset(rand_lattice(rng, p, d), tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
            c2 = Coset(rand_lattice(rng, p, d), tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
            got = c1.intersect(c2)
            meets = in_lattice(
                lattice_sum(c1.lattice, c2.lattice), tuple(x - y for x, y in zip(c2.center, c1.center))
            )
            assert (got is not None) == meets
            if got is None:
                continue
            assert c1.contains(got.center) and c2.contains(got.center)
            assert got.lattice == dual_formula_intersection(c1.lattice, c2.lattice)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_diagonal_of_canonical_forms_is_canonical(rng, p):
    """``Coset.intersect`` marks L1 x L2 canonical when it writes the two
    canonical forms side by side at a common exponent: the Hermite form of
    the same columns is that block matrix, exponent and hash included."""
    exponents = set()
    for d in range(1, 7):
        for _ in range(4):
            L1, L2 = rand_lattice(rng, p, d), rand_lattice(rng, p, d)
            e, zero = max(L1.e, L2.e), (0,) * d
            N = tuple(tuple(x * p ** (e - L1.e) for x in row) + zero for row in L1.N) + tuple(
                zero + tuple(x * p ** (e - L2.e) for x in row) for row in L2.N
            )
            block, built = Lattice(p, N, e, _canonical=True), Lattice(p, tuple(zip(*N)), e)
            assert (built.N, built.e, hash(built)) == (block.N, block.e, hash(block))
            exponents.add(L1.e == L2.e)
    assert exponents == {False, True}  # one side rescaled, and neither


def test_disjoint_cosets_intersect_to_none(rng):
    for p in (2, 3, 5):
        for d in range(1, 5):
            for _ in range(5):
                L1, L2 = rand_lattice(rng, p, d), rand_lattice(rng, p, d)
                # L1 + L2 sits in p^(-R) Z_p^d, so p^(-R-1) e_0 is outside it
                R = lattice_sum(L1, L2).e
                c1 = Coset(L1, tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
                shift = (Fraction(p) ** (-R - 1),) + (Fraction(0),) * (d - 1)
                c2 = Coset(L2, vec_add(c1.center, shift))
                assert c1.intersect(c2) is None and c2.intersect(c1) is None


def test_affine_preimage_example():
    # z -> (p, 0) + (0, p^-1) z pulled against Z_p^2: constraint p^-1 z in Z_p
    p = 3
    target = Coset(Lattice.scaled_standard(p, 2, 0), (Fraction(0), Fraction(0)))
    pre = preimage(
        target, (Fraction(3), Fraction(0)), ((Fraction(0),), (Fraction(1, 3),))
    )
    assert pre.lattice == Lattice.scaled_standard(p, 1, 1)
    assert pre.lattice.volume() == Fraction(1, 3)


def rand_injective(rng, p, d, m):
    while True:
        C = tuple(tuple(rand_fraction(rng, p, -1, 1) for _ in range(m)) for _ in range(d))
        if xl.rank(C) == m:
            return C


def assert_preimage_membership(rng, p, coset, offset, C, pre, samples):
    m = len(C[0])
    for _ in range(samples):
        z = tuple(rand_fraction(rng, p, -2, 2) for _ in range(m))
        image = vec_add(offset, matvec(C, z))
        in_pre = pre is not None and pre.contains(z)
        assert in_pre == coset.contains(image)
    if pre is not None:
        # points of the preimage itself map into the coset
        for col in zip(*pre.lattice.basis):
            z = vec_add(pre.center, col)
            assert coset.contains(vec_add(offset, matvec(C, z)))


def test_affine_preimage_membership(rng):
    for p in (2, 3, 5):
        for _ in range(25):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, d + 1))
            coset = Coset(rand_lattice(rng, p, d), tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
            C = rand_injective(rng, p, d, m)
            offset = tuple(rand_fraction(rng, p, -1, 2) for _ in range(d))
            pre = preimage(coset, offset, C)
            assert_preimage_membership(rng, p, coset, offset, C, pre, 100)


def test_affine_preimage_square(rng):
    """Square C up to 6 x 6 (the pullbacks of the n = 2 estimate check)."""
    for p in (2, 3, 5):
        fd = padic_field(p)
        for d in range(1, 7):
            for _ in range(4):
                coset = Coset(rand_lattice(rng, p, d), tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
                C = rand_injective(rng, p, d, d)
                offset = tuple(rand_fraction(rng, p, -1, 2) for _ in range(d))
                pre = preimage(coset, offset, C)
                assert pre is not None and pre.dim == d
                assert pre.volume() * abs_norm(xl.det(C), fd) == coset.volume()
                assert_preimage_membership(rng, p, coset, offset, C, pre, 20)


def test_affine_preimage_singular_square_raises(rng):
    p = 2
    for d in range(1, 7):
        coset = Coset(rand_lattice(rng, p, d), tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
        C = [list(row) for row in rand_injective(rng, p, d, d)]
        for row in C:
            row[-1] = row[0] * 3 if d > 1 else Fraction(0)
        with pytest.raises(ValueError, match="not injective"):
            preimage(coset, (Fraction(0),) * d, tuple(tuple(row) for row in C))


def test_affine_preimage_dependent_columns_raises(rng):
    """A d x m map, m < d, whose last column is a multiple of the first."""
    p = 3
    for d in range(2, 5):
        for m in range(2, d):
            coset = Coset(rand_lattice(rng, p, d), tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
            C = [list(row) for row in rand_injective(rng, p, d, m)]
            for row in C:
                row[-1] = row[0] * Fraction(2, 3)
            with pytest.raises(ValueError, match="not injective"):
                preimage(coset, (Fraction(0),) * d, tuple(tuple(row) for row in C))


def test_project_fubini(rng):
    p = 2
    for _ in range(30):
        d = int(rng.integers(2, 5))
        keep = sorted(rng.choice(d, size=int(rng.integers(1, d)), replace=False).tolist())
        coset = Coset(rand_lattice(rng, p, d), tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
        proj, fiber_vol = coset.project(keep)
        assert proj.lattice.volume() * fiber_vol == coset.volume()
        # projected center really is the projection of a member
        assert proj.contains(tuple(coset.center[i] for i in keep))


def _project_reference(coset, keep):
    """Projection by the fiber as the preimage of the embedding of the dropped
    coordinates (a non-square affine_preimage) and the projected lattice as a
    second HNF of the kept rows; needs at least one dropped coordinate."""
    drop = tuple(i for i in range(coset.dim) if i not in keep)
    emb = tuple(
        tuple(Fraction(int(drop[j] == r)) for j in range(len(drop))) for r in range(coset.dim)
    )
    zero = (Fraction(0),) * coset.dim
    fiber = preimage(Coset(coset.lattice, zero), zero, emb).lattice
    proj = Lattice(coset.p, tuple(coset.lattice.basis[i] for i in keep))
    return Coset(proj, tuple(coset.center[i] for i in keep)), fiber.volume()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_project_matches_reference_every_keep_order(rng, p):
    """HNF blocks give the reference's (coset, volume) for every ordered keep,
    non-prefix and unsorted ones such as (2, 0) included."""
    for d in range(2, 5):
        for _ in range(3):
            coset = Coset(rand_lattice(rng, p, d), tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
            for k in range(1, d):
                for keep in itertools.permutations(range(d), k):
                    assert coset.project(keep) == _project_reference(coset, keep), keep
            # keeping every coordinate permutes them and integrates nothing out
            for keep in itertools.permutations(range(d)):
                perm = Coset(
                    Lattice(p, tuple(coset.lattice.basis[i] for i in keep)),
                    tuple(coset.center[i] for i in keep),
                )
                assert coset.project(keep) == (perm, 1)


def test_quotient_representatives(rng):
    p = 3
    L = Lattice.scaled_standard(p, 2, 0)
    sub = Lattice.scaled_standard(p, 2, 1)
    reps = L.quotient_representatives(sub)
    assert len(reps) == 9
    # distinct modulo the sublattice
    seen = {Coset(sub, r).center for r in reps}
    assert len(seen) == 9
    with pytest.raises(ValueError):
        sub.quotient_representatives(L)


def test_quotient_representatives_non_diagonal(rng):
    """Random L and sub = L @ B for an integral B of small index: non-diagonal HNFs."""
    for p in (2, 3, 5):
        for _ in range(12):
            d = int(rng.integers(1, 4))
            L = rand_lattice(rng, p, d)
            while True:
                B = tuple(
                    tuple(Fraction(int(rng.integers(-p, p + 1))) for _ in range(d))
                    for _ in range(d)
                )
                det = xl.det(B)
                if det != 0 and padic_valuation(det, p) <= 3:
                    break
            sub = Lattice(p, xl.matmul(L.basis, B))
            reps = [tuple(Fraction(x, p**L.e) for x in r) for r in L.quotient_representatives(sub)]
            assert len(reps) == L.volume() / sub.volume()
            assert all(in_lattice(L, r) for r in reps)
            assert len({Coset(sub, r) for r in reps}) == len(reps)


def test_granularity_exponent_definition(rng):
    """g is the least exponent with p^g e_i in L for every i."""
    for p in (2, 3):
        for _ in range(30):
            d = int(rng.integers(1, 5))
            L = rand_lattice(rng, p, d)
            g = L.granularity_exponent()

            def holds(k):
                return all(
                    in_lattice(L, tuple(Fraction(p) ** k if r == i else Fraction(0) for r in range(d)))
                    for i in range(d)
                )

            assert holds(g)
            assert g == 0 or not holds(g - 1)


def test_granularity_and_radius():
    p = 3
    L = Lattice(p, [[Fraction(1, 3), 0], [0, Fraction(9)]])
    assert L.granularity_exponent() == 2  # need p^2 to fall inside 9 Z_p
    assert L.e == 1  # contains vectors of size p


def test_lattice_and_coset_methods():
    p = 3
    L = Lattice(p, [[2, 0], [5, 3]])
    assert L.volume() == Fraction(1, 3)
    assert L.dual().dual() == L
    Z = Lattice.scaled_standard(p, 2, 0)
    assert lattice_meet(L, Z) == L  # L lies inside Z_3^2
    coset = Coset(Z, (Fraction(0), Fraction(0)))
    pre = preimage(coset, (Fraction(0), Fraction(0)), ((Fraction(1),), (Fraction(0),)))
    assert pre.lattice == Lattice.scaled_standard(p, 1, 0)


def rand_sublattice(rng, p, L):
    """L @ B for an integral B with nonzero determinant: a sublattice of L."""
    d = L.dim
    while True:
        B = tuple(tuple(Fraction(int(rng.integers(-p, p + 1))) for _ in range(d)) for _ in range(d))
        if xl.det(B) != 0:
            return Lattice(p, xl.matmul(L.basis, B))


def test_nested_coset_intersection(rng):
    """Equal lattices, L2 in L1 and L1 in L2, with centers that meet and
    centers that do not: the meet is the smaller coset, or None."""
    for p in (2, 3, 5):
        for d in range(1, 5):
            for _ in range(4):
                big = rand_lattice(rng, p, d)
                for small in (big, rand_sublattice(rng, p, big)):
                    c_big = Coset(big, tuple(rand_fraction(rng, p, -1, 2) for _ in range(d)))
                    z = tuple(Fraction(int(rng.integers(-3, 4))) for _ in range(d))
                    center = vec_add(c_big.center, matvec(big.basis, z))
                    c_small = Coset(small, center)
                    # a point of big's coordinates with a 1/p: outside big
                    off = matvec(big.basis, (Fraction(1, p),) + (Fraction(0),) * (d - 1))
                    c_far = Coset(small, vec_add(center, off))
                    want = dual_formula_intersection(big, small)
                    assert want == small
                    assert lattice_meet(big, small) == want and lattice_meet(small, big) == want
                    for a, b in ((c_big, c_small), (c_small, c_big)):
                        got = a.intersect(b)
                        assert got == c_small and got.lattice == want
                        assert a.contains(got.center) and b.contains(got.center)
                        for col in zip(*got.lattice.basis):
                            point = vec_add(got.center, col)
                            assert a.contains(point) and b.contains(point)
                    assert c_big.intersect(c_far) is None and c_far.intersect(c_big) is None


def test_coords_solves_basis(rng):
    """The integer coordinates of a lattice vector basis @ t, given as R / p^a,
    are t; one coordinate off by 1/p puts the vector outside (None)."""
    for p in (2, 3, 5):
        for d in range(1, 7):
            for _ in range(5):
                L = rand_lattice(rng, p, d)
                t = [int(rng.integers(-30, 31)) for _ in range(d)]
                (R,), a, u = xl.p_scaled((matvec(L.basis, t),), p)
                assert u == 1 and L._coords(R, a) == t
                i = int(rng.integers(0, d))
                off = matvec(L.basis, [x + Fraction(int(k == i), p) for k, x in enumerate(t)])
                (R,), a, _ = xl.p_scaled((off,), p)
                assert L._coords(R, a) is None and not in_lattice(L, off)


# -- the integer representation: (N, e) and centers over a power of p --------


def is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def assert_lowest_terms(p, rows, e):
    """Integer rows over p^e, e >= 0 least."""
    assert all(type(x) is int for row in rows for x in row)
    assert e >= 0 and (e == 0 or any(x % p for row in rows for x in row))


def rand_rational_point(rng, p, d):
    """p-power and p'-unit denominators mixed: 3/4, 5/7, 2/(9 * 11), ..."""
    return tuple(rand_fraction(rng, p, -2, 2) / int(rng.choice([1, 7, 11, 13])) for _ in range(d))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_canonical_forms_live_over_a_power_of_p(rng, p):
    """Every canonical basis and reduced center that the lattice operations
    build, from inputs with p'-unit denominators, has p-power denominators
    and is stored in lowest terms; scaling one generator by a unit of
    Z_(p) gives the same lattice, (N, e) and hash."""
    unit = Fraction(7, 5) if p != 5 else Fraction(7, 3)
    for d in range(1, 5):
        for _ in range(6):
            while True:
                B = tuple(tuple(rand_fraction(rng, p, -2, 2) for _ in range(d + 1)) for _ in range(d))
                if xl.rank(B) == d:
                    break
            L = Lattice(p, B)
            j = int(rng.integers(0, d + 1))
            scaled = Lattice(p, tuple(tuple(x * unit if k == j else x for k, x in enumerate(row)) for row in B))
            assert scaled == L and (scaled.N, scaled.e) == (L.N, L.e) and hash(scaled) == hash(L)

            c1 = Coset(L, rand_rational_point(rng, p, d))
            c2 = Coset(rand_lattice(rng, p, d), rand_rational_point(rng, p, d))
            m = int(rng.integers(1, d + 1))
            built = [c1, c2, Coset(L.dual(), rand_rational_point(rng, p, d)), c1.project(range(m))[0]]
            built += [c for c in (
                c1.intersect(c2),
                preimage(c1, rand_rational_point(rng, p, d), rand_injective(rng, p, d, m)),
                preimage(c1, rand_rational_point(rng, p, d), rand_injective(rng, p, d, d)),
            ) if c is not None]
            for coset in built:
                lat = coset.lattice
                assert_lowest_terms(p, lat.N, lat.e)
                assert_lowest_terms(p, (coset.c,), coset.a)
                assert lat.basis == tuple(tuple(Fraction(x, p**lat.e) for x in row) for row in lat.N)
                assert coset.center == tuple(Fraction(x, p**coset.a) for x in coset.c)
                assert all(is_p_power(x.denominator, p) for row in lat.basis for x in row)
                assert all(is_p_power(x.denominator, p) for x in coset.center)


def min_minor_valuation(C, p):
    """Least valuation of the m x m minors of the d x m matrix C (None if all vanish)."""
    m = len(C[0])
    vals = [
        padic_valuation(det, p)
        for rows in itertools.combinations(C, m)
        if (det := xl.det(rows)) != 0
    ]
    return min(vals, default=None)


@pytest.mark.parametrize("p, m, d, cases", [
    (2, 1, 1, 12), (2, 1, 3, 12), (2, 2, 2, 12), (2, 2, 3, 12),
    (3, 1, 2, 12), (3, 2, 2, 6), (3, 2, 3, 6), (5, 1, 1, 8), (5, 1, 2, 8),
])
def test_affine_preimage_brute_force(rng, p, m, d, cases):
    """Square and non-square C against a complete grid.

    The coset is c + L with p Z_p^d in L in p^-1 Z_p^d and c, offset in
    p^-2 Z_p^d; C is integral over Z_(p) with an m x m minor of valuation
    v <= 1.  So every preimage point lies in p^(-2-v) Z_p^m, and membership
    only depends on z mod p Z_p^m: the grid t / p^(2+v), 0 <= t < p^(3+v),
    meets every class.  z is in the preimage exactly when offset + C z is
    in the coset, and None comes back exactly when no grid point maps in.
    """
    seen = set()  # the outcomes "pre is None" met
    # the grid has p^((3 + v) m) points: allow v = 1 only where that stays small
    v_max = 1 if p ** (4 * m) <= 1000 else 0
    for _ in range(cases):
        while True:
            u = int(rng.choice([1, 7, 11]))
            C = tuple(tuple(Fraction(int(rng.integers(-p, p + 1)), u) for _ in range(m)) for _ in range(d))
            v = min_minor_valuation(C, p)
            if v is not None and v <= v_max:
                break
        extra = tuple(
            tuple(Fraction(int(rng.integers(0, p * p)), p) for _ in range(d)) for _ in range(int(rng.integers(0, 3)))
        )
        pI = tuple(tuple(Fraction(p if i == j else 0) for j in range(d)) for i in range(d))
        L = Lattice(p, tuple(row + tuple(g[i] for g in extra) for i, row in enumerate(pI)))
        coset = Coset(L, tuple(Fraction(int(rng.integers(-p**3, p**3)), p * p) for _ in range(d)))
        offset = tuple(Fraction(int(rng.integers(-p**3, p**3)), p * p * int(rng.choice([1, 7]))) for _ in range(d))
        pre = preimage(coset, offset, C)
        q = p ** (2 + v)
        grid = [tuple(Fraction(t, q) for t in ts) for ts in itertools.product(range(q * p), repeat=m)]
        hits = 0
        for z in grid:
            maps_in = coset.contains(vec_add(offset, matvec(C, z)))
            assert (pre is not None and pre.contains(z)) == maps_in
            hits += maps_in
        assert (pre is None) == (hits == 0)
        seen.add(pre is None)
    # an invertible C always has a preimage; the non-square cases include empty ones
    assert seen == {False} if m == d else True in seen
