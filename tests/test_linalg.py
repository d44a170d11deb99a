import math
import random
from fractions import Fraction

import pytest

from phinlab.linalg import (
    Matrix,
    Subspace,
    _echelon,
    char_poly,
    conjugate,
    det,
    exterior_traces,
    jordan_nilpotent,
    jordan_partition,
    kernel_dim,
    rank,
    rational_eigenvalues,
)
from phinlab.partitions import Partition
from tests_helpers import matrix_power, random_unimodular


# ---------------------------------------------------------------------------
# independent oracles
#
# char_poly is checked against a cofactor-expansion determinant of (x*I - M)
# computed with plain coefficient-list polynomials, and exterior_traces
# against explicit sums of principal minors. Both oracles share no code
# with the implementations under test.

def as_fraction(x):
    # an int or rational entry as a Fraction, for the oracle arithmetic
    return Fraction(x)

def poly_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]

def poly_neg(a):
    return [-x for x in a]

def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out

def poly_det(rows):
    # Laplace expansion along the first row; entries are coefficient lists
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = [Fraction(0)]
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = poly_mul(rows[0][j], poly_det(minor))
        total = poly_add(total, term if j % 2 == 0 else poly_neg(term))
    return total

def char_poly_oracle(m):
    n = m.nrows
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            const = -as_fraction(m.rows[i][j])
            row.append([const, Fraction(1)] if i == j else [const])
        rows.append(row)
    out = poly_det(rows)
    out += [Fraction(0)] * (n + 1 - len(out))
    return out

def subsets(seq, r):
    if r == 0:
        yield ()
        return
    for i in range(len(seq)):
        for rest in subsets(seq[i + 1:], r - 1):
            yield (seq[i],) + rest

def numeric_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * numeric_det(minor)
        total += term if j % 2 == 0 else -term
    return total

def exterior_trace_oracle(m, r):
    n = m.nrows
    total = Fraction(0)
    for idx in subsets(tuple(range(n)), r):
        sub = [[as_fraction(m.rows[i][j]) for j in idx] for i in idx]
        total += numeric_det(sub)
    return total


# ---------------------------------------------------------------------------
# matrix basics

def test_matrix_constructors_and_equality():
    m = Matrix([[1, 2], [3, 4]])
    assert m.nrows == 2 and m.ncols == 2
    assert m == Matrix([["1", "2"], ["3", "4"]])
    assert Matrix.identity(2) == Matrix([[1, 0], [0, 1]])
    assert Matrix.diagonal([1, 2]) == Matrix([[1, 0], [0, 2]])
    assert tuple(row[1] for row in m.rows) == (2, 4)


def test_matrix_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a @ b == Matrix([[2, 1], [4, 3]])


def test_det_rank_inverse():
    a = Matrix([[2, 1], [1, 1]])
    assert det(a) == 1
    assert rank(a) == 2
    assert a.inverse() @ a == Matrix.identity(2)
    sing = Matrix([[1, 2], [2, 4]])
    assert det(sing) == 0
    assert rank(sing) == 1
    with pytest.raises(ValueError):
        sing.inverse()
    assert det(Matrix([[Fraction(1, 2)]])) == Fraction(1, 2)


def test_kernel_dim_and_basis():
    n = jordan_nilpotent([2, 1])
    assert kernel_dim(n) == 2
    assert kernel_dim(matrix_power(n, 2)) == 3
    assert kernel_dim(Matrix.identity(3)) == 0


# ---------------------------------------------------------------------------
# characteristic polynomial and exterior traces

def test_char_poly_companion_cubed():
    # companion matrix of x^3 - 2
    m = Matrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert list(char_poly(m)) == [-2, 0, 0, 1]
    assert char_poly_oracle(m) == [-2, 0, 0, 1]


def test_char_poly_one_by_one():
    assert list(char_poly(Matrix([[5]]))) == [-5, 1]


def test_char_poly_matches_oracle_random():
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(8):
            m = Matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)])
            assert list(char_poly(m)) == char_poly_oracle(m)


def test_cayley_hamilton_random():
    rng = random.Random(13)
    for n in range(1, 6):
        for _ in range(5):
            m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            coeffs = char_poly(m)
            acc = [[0] * n for _ in range(n)]
            power = Matrix.identity(n)
            for c in coeffs:
                acc = [[x + c * y for x, y in zip(r, s)] for r, s in zip(acc, power.rows)]
                power = power @ m
            assert Matrix(acc).is_zero


def test_exterior_trace_pinned():
    m = Matrix.diagonal([1, 2, 3])
    assert exterior_traces(m) == (1, 6, 11, 6)
    assert exterior_trace_oracle(m, 2) == 11


def test_exterior_trace_matches_minor_sums_random():
    rng = random.Random(17)
    for n in range(1, 6):
        for _ in range(6):
            m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            for r in range(0, n + 1):
                assert exterior_traces(m)[r] == exterior_trace_oracle(m, r)


# ---------------------------------------------------------------------------
# rational eigenvalues

def test_rational_eigenvalues_split_cases():
    split = rational_eigenvalues(Matrix.diagonal([1, 2, 2]))
    assert split.roots == ((1, 1), (2, 2))
    assert split.residual is None

    half = rational_eigenvalues(Matrix.diagonal([Fraction(1, 2), -3]))
    assert half.roots == ((-3, 1), (Fraction(1, 2), 1))

    zero = rational_eigenvalues(Matrix.zeros(2, 2))
    assert zero.roots == ((0, 2),)


def test_rational_eigenvalues_irrational_residual():
    # companion of x^2 - 2 has no rational roots
    m = Matrix([[0, 2], [1, 0]])
    split = rational_eigenvalues(m)
    assert split.residual is not None
    assert split.roots == ()
    assert list(split.residual) == [-2, 0, 1]

    # (x - 1)(x^2 - 2)
    m3 = Matrix([[1, 0, 0], [0, 0, 2], [0, 1, 0]])
    split3 = rational_eigenvalues(m3)
    assert split3.roots == ((1, 1),)
    assert list(split3.residual) == [-2, 0, 1]


def test_rational_eigenvalues_conjugation_invariant():
    rng = random.Random(19)
    m = Matrix.diagonal([Fraction(2, 3), 5, -1])
    s = random_unimodular(rng, 3)
    conj = s @ m @ s.inverse()
    split = rational_eigenvalues(conj)
    assert split.roots == ((-1, 1), (Fraction(2, 3), 1), (5, 1))


# The reference for rational roots is the divisor search: every +-a/b with a
# dividing the constant term and b the leading coefficient of the cleared
# integer polynomial, deflated exactly for as long as it is a root.

def divisors(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def poly_value(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def deflate_oracle(monic, root):
    out = [Fraction(0)] * (len(monic) - 1)
    carry = Fraction(0)
    for i in range(len(monic) - 1, 0, -1):
        carry = monic[i] + carry * root
        out[i - 1] = carry
    return out


def rational_roots_oracle(coeffs):
    """(roots with multiplicity, monic residual or None) of ascending coeffs."""
    monic = [Fraction(c) / coeffs[-1] for c in coeffs]
    roots = {}
    while len(monic) > 1 and monic[0] == 0:
        monic = monic[1:]
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
    if len(monic) > 1:
        scale = math.lcm(*(c.denominator for c in monic))
        ints = [int(c * scale) for c in monic]
        for a in divisors(ints[0]):
            for b in divisors(ints[-1]):
                for cand in (Fraction(a, b), Fraction(-a, b)):
                    while len(monic) > 1 and poly_value(monic, cand) == 0:
                        monic = deflate_oracle(monic, cand)
                        roots[cand] = roots.get(cand, 0) + 1
    return tuple(sorted(roots.items())), None if len(monic) == 1 else tuple(monic)


def companion(coeffs):
    """A matrix whose characteristic polynomial is coeffs made monic."""
    n = len(coeffs) - 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if i:
            rows[i][i - 1] = Fraction(1)
        rows[i][n - 1] = -Fraction(coeffs[i]) / coeffs[-1]
    return Matrix(rows)


# x^2 - 2, x^2 + 1, x^2 + x - 3, 5x^2 + 3, x^3 - 2, x^3 - x + 1
IRRATIONAL_FACTORS = ([-2, 0, 1], [1, 0, 1], [-3, 1, 1], [3, 0, 5], [-2, 0, 0, 1], [1, -1, 0, 1])


def random_root_polynomial(rng):
    """content * prod (b*x - a)^mult * an irreducible factor, degree 1..6."""
    content = rng.choice((1, 1, 2, 6, -4, 12))
    poly = [content]
    if rng.random() < 0.35:
        poly = poly_mul(poly, rng.choice(IRRATIONAL_FACTORS))
    while len(poly) < 7 and rng.random() < 0.8:
        a, b = rng.randint(-9, 9), rng.randint(1, 6)
        for _ in range(min(rng.choice((1, 1, 1, 2, 3)), 7 - len(poly))):
            poly = poly_mul(poly, [-a, b])
    if len(poly) == 1:
        poly = poly_mul(poly, [-rng.randint(-9, 9), rng.randint(1, 6)])
    return poly


def assert_matches_oracle(poly):
    split = rational_eigenvalues(companion(poly))
    roots, residual = rational_roots_oracle(poly)
    assert tuple((as_fraction(v), m) for v, m in split.roots) == roots, poly
    got = None if split.residual is None else tuple(as_fraction(c) for c in split.residual)
    assert got == residual, poly
    return roots, residual


def test_rational_eigenvalues_match_divisor_search():
    rng = random.Random(31)
    seen = set()
    for _ in range(500):
        poly = random_root_polynomial(rng)
        roots, residual = assert_matches_oracle(poly)
        for v, m in roots:
            seen.add(f"multiplicity {m}")
            seen.add("zero" if v == 0 else "negative" if v < 0 else "positive")
            if v.denominator != 1:
                seen.add("non-integral")
        if residual is not None:
            seen.add(f"residual degree {len(residual) - 1}")
        if math.gcd(*map(int, poly)) != 1:
            seen.add("content")
    assert seen >= {"zero", "negative", "non-integral", "multiplicity 2", "multiplicity 3",
                    "residual degree 2", "residual degree 3", "content"}


def test_rational_eigenvalues_highly_composite_ends():
    # roots k/j with k, j <= 8: the end coefficients are products of small
    # numbers and have many divisors
    pinned = [1]
    for k, j in ((1, 8), (3, 8), (5, 8), (7, 8), (8, 7), (8, 5), (8, 3), (8, 1)):
        pinned = poly_mul(pinned, [-k, j])
    assert_matches_oracle(pinned)
    rng = random.Random(37)
    for _ in range(15):
        poly = [1]
        for _ in range(8):
            poly = poly_mul(poly, [rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 8)])
        assert_matches_oracle(poly)


def test_rational_eigenvalues_rank_8_with_20_digit_entries():
    rng = random.Random(41)
    values = [rng.choice((-1, 1)) * rng.randrange(10 ** 19, 10 ** 20) for _ in range(7)]
    values.append(Fraction(values[0], 3))
    values[5] = values[2]
    split = rational_eigenvalues(Matrix.diagonal(values))
    assert split.residual is None
    expected = sorted({v: values.count(v) for v in values}.items())
    assert [(as_fraction(v), m) for v, m in split.roots] == expected


# ---------------------------------------------------------------------------
# jordan partition of a nilpotent

def test_jordan_partition_pinned():
    n = jordan_nilpotent([2, 2, 1])
    assert jordan_partition(n) == Partition((2, 2, 1))
    assert jordan_partition(Matrix.zeros(3, 3)) == Partition((1, 1, 1))
    assert jordan_partition(jordan_nilpotent([4])) == Partition((4,))


def test_jordan_partition_conjugation_oracle():
    rng = random.Random(23)
    shapes = [(1,), (2,), (2, 1), (3, 1), (2, 2), (3, 2, 1), (4, 2), (6,), (3, 3)]
    for shape in shapes:
        n0 = jordan_nilpotent(shape)
        size = sum(shape)
        for _ in range(6):
            s = random_unimodular(rng, size)
            n = s @ n0 @ s.inverse()
            assert jordan_partition(n) == Partition(shape)


def test_jordan_partition_rejects_non_nilpotent():
    from phinlab.errors import NonNilpotentMonodromy
    with pytest.raises(NonNilpotentMonodromy):
        jordan_partition(Matrix.identity(2))


def jordan_partition_from_full_powers(n_mat):
    """The conjugate of the kernel growth of the full integer powers of N,
    or the error text when the growth stops short of the whole space."""
    size = n_mat.nrows
    growth, prev, power = [], 0, n_mat.ints
    while True:
        cur = size - len(_echelon([list(row) for row in power]))
        if cur == prev:
            return f"monodromy is not nilpotent: N^{size} != 0"
        growth.append(cur - prev)
        if cur == size:
            return conjugate(Partition(growth))
        prev = cur
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*n_mat.ints)]
                 for row in power]


def test_jordan_partition_matches_the_full_power_reference():
    from phinlab.errors import NonNilpotentMonodromy
    rng = random.Random(71)
    shapes = [(1,), (3,), (2, 2), (3, 1, 1), (4, 3), (2, 2, 2, 1), (5, 2, 1), (8,), (3, 3, 2)]
    cases = []
    for shape in shapes:
        s = random_unimodular(rng, sum(shape))
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        cases.append(s @ jordan_nilpotent(shape) @ Matrix.diagonal([scale] * sum(shape))
                     @ s.inverse())
    # a nonzero eigenvalue, and a nilpotent block beside an invertible one
    cases += [Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]) for n in (2, 4, 6)]
    cases.append(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, Fraction(1, 2)]]))
    failures = 0
    for m in cases:
        expected = jordan_partition_from_full_powers(m)
        try:
            got = jordan_partition(m)
        except NonNilpotentMonodromy as err:
            got = str(err)
            failures += 1
        assert got == expected
    assert failures >= 2


# ---------------------------------------------------------------------------
# subspaces

def test_subspace_canonical_equality():
    a = Subspace(3, [(1, 0, 0), (1, 1, 0)])
    b = Subspace(3, [(0, 1, 0), (1, 0, 0), (2, 3, 0)])
    assert a == b
    assert a.dim == 2
    assert hash(a) == hash(b)


def test_subspace_zero_and_full():
    z = Subspace.zero(2)
    f = Subspace.full(2)
    assert z.dim == 0 and f.dim == 2
    assert f.intersect(z) == z
    assert Subspace(2, []) == z


def test_subspace_intersection_pinned():
    # span(e1 + e2) and span(e1 - e2) meet only at 0
    a = Subspace(2, [(1, 1)])
    b = Subspace(2, [(1, -1)])
    assert a.intersect(b) == Subspace.zero(2)

    plane1 = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    plane2 = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert plane1.intersect(plane2) == Subspace(3, [(0, 1, 0)])


def test_subspace_intersection_random_sanity():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(2, 4)
        a = Subspace(n, [tuple(rng.randint(-2, 2) for _ in range(n))
                              for _ in range(rng.randint(0, n))])
        b = Subspace(n, [tuple(rng.randint(-2, 2) for _ in range(n))
                              for _ in range(rng.randint(0, n))])
        cap = a.intersect(b)
        assert a.intersect(cap) == cap and b.intersect(cap) == cap
        assert cap.dim >= a.dim + b.dim - n


def test_subspace_stability_and_restriction():
    n = Matrix([[0, 1], [0, 0]])
    line = Subspace(2, [(1, 0)])
    assert line.is_stable_under(n)
    assert not Subspace(2, [(0, 1)]).is_stable_under(n)
    phi = Matrix.diagonal([2, 3])
    restricted = line.restrict(phi)
    assert restricted == Matrix([[2]])
    with pytest.raises(ValueError):
        Subspace(2, [(1, 1)]).restrict(n)


def test_subspace_membership():
    # a vector lies in a subspace exactly when its span meets it in all of that span
    a = Subspace(3, [(1, 0, 1), (0, 1, 0)])
    for v, inside in (((2, 3, 2), True), ((1, 0, 0), False), ((0, 0, 0), True)):
        line = Subspace(3, [v])
        assert (a.intersect(line) == line) == inside


# ---------------------------------------------------------------------------
# integer kernels against the Fraction algorithms they replaced
#
# The references below are the rational-arithmetic versions of _rref, det,
# char_poly and Subspace.intersect, kept verbatim in spirit: Gauss-Jordan
# with a division per pivot, elimination det, Faddeev-LeVerrier over Q, and
# intersection through the kernel of the stacked bases.

from phinlab.linalg import _echelon, _int_row, _over, _over_pivots  # noqa: E402
from phinlab.scalars import Rational  # noqa: E402


def _rref(rows):
    """Reduced row echelon form of rational rows from the integer kernels:
    (nonzero rows, pivot columns)."""
    ints = [_int_row(row)[0] for row in rows]
    pivots = _echelon(ints)
    reduced, d = _over_pivots(ints, pivots)
    return [_over(row, d) for row in reduced], pivots


def fraction_rows(rows):
    return [[as_fraction(x) for x in row] for row in rows]


def rref_reference(rows):
    rows = fraction_rows(rows)
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:len(pivots)], pivots


def det_reference(rows):
    rows = fraction_rows(rows)
    n = len(rows)
    acc = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            acc = -acc
        acc *= rows[c][c]
        for i in range(c + 1, n):
            factor = rows[i][c] / rows[c][c]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[c])]
    return acc


def matmul_reference(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def char_poly_reference(rows):
    m = fraction_rows(rows)
    n = len(m)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    a, c = m, Fraction(1)
    for k in range(1, n + 1):
        if k > 1:
            shifted = [[x + (c if i == j else 0) for j, x in enumerate(row)]
                       for i, row in enumerate(a)]
            a = matmul_reference(m, shifted)
        c = -sum(a[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    return coeffs


def kernel_basis_reference(rows):
    ncols = len(rows[0])
    reduced, pivots = rref_reference(rows)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        out.append(v)
    return out


def intersect_reference(a, b, n):
    if not a or not b:
        return []
    stacked = [list(col) for col in zip(*fraction_rows(a + b))]
    vectors = []
    for combo in kernel_basis_reference(stacked):
        vec = [Fraction(0)] * n
        for coeff, u in zip(combo[: len(a)], fraction_rows(a)):
            vec = [x + coeff * y for x, y in zip(vec, u)]
        vectors.append(vec)
    return rref_reference(vectors)[0] if vectors else []


def all_rational(rows):
    return all(isinstance(x, Rational) for row in rows for x in row)


def random_entry(rng, digits):
    num = rng.randint(-10 ** digits, 10 ** digits)
    den = rng.choice((1, 1, 2, 3, 4, 6, 7, 9, 10 ** digits + rng.randint(1, 99)))
    return Fraction(num, den)


def random_rows(rng, nrows, ncols, digits, rank_cap=None, zero_rows=0):
    """Mixed-denominator rows; beyond rank_cap rows are combinations of the first ones."""
    rank_cap = nrows if rank_cap is None else rank_cap
    rows = [[random_entry(rng, digits) for _ in range(ncols)] for _ in range(min(rank_cap, nrows))]
    while len(rows) < nrows:
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rank_cap)]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                     for j in range(ncols)])
    for _ in range(zero_rows):
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    rng.shuffle(rows)
    return rows


def square_case(rng, n, kind):
    if kind == "mixed":
        return random_rows(rng, n, n, 1)
    if kind == "20-digit":
        return random_rows(rng, n, n, 20)
    return random_rows(rng, n, n, 2, rank_cap=rng.randint(0, n - 1) if n > 1 else 0,
                       zero_rows=rng.randint(0, min(2, n)))


def test_integer_kernels_match_fraction_references_on_square_matrices():
    rng = random.Random(43)
    cases = 0
    for n in range(1, 9):
        for kind in ("mixed", "20-digit", "deficient"):
            for _ in range(12 if n < 7 else 4):
                rows = square_case(rng, n, kind)
                m = Matrix(rows)
                got = det(m)
                assert isinstance(got, Rational) and as_fraction(got) == det_reference(rows)
                coeffs = char_poly(m)
                assert all_rational([coeffs])
                assert [as_fraction(c) for c in coeffs] == char_poly_reference(rows)
                reduced, pivots = _rref([list(row) for row in m.rows])
                want, want_pivots = rref_reference(rows)
                assert pivots == want_pivots and all_rational(reduced)
                assert fraction_rows(reduced) == want
                assert rank(m) == len(want_pivots)
                other = Matrix(square_case(rng, n, kind))
                product = m @ other
                assert all_rational(product.rows)
                assert fraction_rows(product.rows) == matmul_reference(rows, fraction_rows(other.rows))
                cases += 1
    assert cases >= 200


def test_inverse_matches_the_reference_on_square_systems():
    rng = random.Random(47)
    seen = set()
    for _ in range(80):
        n, digits = rng.randint(1, 7), rng.choice((1, 2, 20))
        square = random_rows(rng, n, n, digits, rank_cap=n - 1 if rng.random() < 0.25 else None)
        aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(square)]
        reduced, pivots = rref_reference(aug)
        if len(pivots) < n or any(p >= n for p in pivots):
            seen.add("singular")
            with pytest.raises(ValueError):
                Matrix(square).inverse()
        else:
            seen.add("invertible")
            inv = Matrix(square).inverse()
            assert all_rational(inv.rows)
            assert fraction_rows(inv.rows) == [row[n:] for row in reduced]
    assert seen == {"singular", "invertible"}


def faddeev_leverrier(m):
    """det(x*I - M), coefficients ascending, by Faddeev-LeVerrier on the
    cleared matrix A = d*M: B_1 = A, B_k = A (B_(k-1) + c_(k-1) I),
    c_k = -tr(B_k) / k exactly, and c_k / d^k is the coefficient of
    x^(n-k) for M. n - 1 integer products."""
    a, d = m.ints, m.den
    n = len(a)
    out, b = [1], a
    for k in range(1, n + 1):
        if k > 1:
            shifted = [[x + (out[-1] if i == j else 0) for j, x in enumerate(row)]
                       for i, row in enumerate(b)]
            b = [[sum(x * y for x, y in zip(row, col)) for col in zip(*shifted)] for row in a]
        out.append(-sum(b[i][i] for i in range(n)) // k)
    return [Fraction(out[n - i], d ** (n - i)) for i in range(n + 1)]


def test_char_poly_matches_faddeev_leverrier():
    rng = random.Random(59)
    kinds = ("zero", "nilpotent", "singular", "diagonal", "non-integer", "integer")
    for n in range(1, 10):
        for kind in kinds:
            for _ in range(3):
                if kind == "zero":
                    m = Matrix.zeros(n, n)
                elif kind == "nilpotent":
                    sizes = []
                    while sum(sizes) < n:
                        sizes.append(rng.randint(1, n - sum(sizes)))
                    p = random_unimodular(rng, n)
                    scale = Matrix.diagonal([Fraction(rng.randint(1, 9), 7)] * n)
                    m = p @ jordan_nilpotent(sizes) @ p.inverse() @ scale
                elif kind == "singular":
                    m = Matrix(random_rows(rng, n, n, 3, rank_cap=rng.randint(0, n - 1)))
                elif kind == "diagonal":
                    m = Matrix.diagonal([random_entry(rng, 2) for _ in range(n)])
                elif kind == "non-integer":
                    m = Matrix(random_rows(rng, n, n, rng.choice((1, 20))))
                else:
                    m = Matrix([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)])
                coeffs = char_poly(m)
                assert all_rational([coeffs])
                assert [as_fraction(c) for c in coeffs] == faddeev_leverrier(m)
                if kind in ("zero", "nilpotent"):
                    assert list(coeffs) == [0] * n + [1]
                if kind == "singular":
                    assert coeffs[0] == 0


def subspace_pair(rng, n, kind):
    span = lambda count, digits=1: random_rows(rng, count, n, digits)  # noqa: E731
    if kind == "nested":
        outer = span(rng.randint(1, n))
        inner = random_rows(rng, rng.randint(1, len(outer)), len(outer), 1)
        return outer, matmul_reference(inner, outer)
    if kind == "equal":
        a = span(rng.randint(1, n))
        mix = random_rows(rng, len(a), len(a), 1)
        return a, matmul_reference(mix, a) + [[Fraction(0)] * n]
    if kind == "trivial":
        return rng.choice(((span(rng.randint(1, n)), []), ([], span(1)),
                           ([[Fraction(int(i == j)) for j in range(n)] for i in range(n)],
                            span(rng.randint(1, n), 20))))
    if kind == "transversal":
        da = rng.randint(1, n - 1) if n > 1 else 1
        return span(da, 20), span(n - da if n > 1 else 1)
    shared = span(rng.randint(1, max(1, n // 2)))
    return shared + span(rng.randint(0, 2)), shared + span(rng.randint(0, 2), 20)


def test_intersect_matches_the_kernel_basis_reference():
    rng = random.Random(53)
    seen = set()
    for i in range(150):
        n = 1 + i % 8
        kind = ("nested", "equal", "trivial", "transversal", "overlap")[i % 5]
        a, b = subspace_pair(rng, n, kind)
        sa, sb = Subspace(n, a), Subspace(n, b)
        assert fraction_rows(sa.basis) == (rref_reference(a)[0] if a else [])
        cap = sa.intersect(sb)
        want = intersect_reference(fraction_rows(sa.basis), fraction_rows(sb.basis), n)
        assert all_rational(cap.basis) and fraction_rows(cap.basis) == want, (kind, a, b)
        assert cap == Subspace(n, want) and hash(cap) == hash(Subspace(n, want))
        assert sb.intersect(sa) == cap
        if kind == "nested":
            assert cap == sb
        if kind == "equal":
            assert cap == sa == sb
        seen.add((kind, cap.dim == 0, cap.dim == n))
    assert {("trivial", True, False), ("equal", False, False), ("transversal", True, False)} <= seen


# ---------------------------------------------------------------------------
# the cleared form a Matrix carries, against the Fraction rows it stands for

import copy  # noqa: E402
import pickle  # noqa: E402


def lcd_form(rows):
    """Integer rows over the least common denominator of rational rows."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in rows), den


def assert_same_matrix(got, want):
    assert got == want and hash(got) == hash(want)
    assert (got.rows, got.ints, got.den) == (want.rows, want.ints, want.den)
    assert all_rational(got.rows)


def test_matrix_carries_its_least_common_denominator_form():
    rng = random.Random(67)
    seen = set()
    for i in range(150):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        digits = rng.choice((1, 2, 20))
        rows = random_rows(rng, n, k, digits, zero_rows=rng.randint(0, 1))
        m = Matrix(rows)
        ints, den = lcd_form(rows)
        assert (m.ints, m.den) == (ints, den)
        assert all(type(x) is int for row in m.ints for x in row) and type(m.den) is int
        assert math.gcd(m.den, *(x for row in m.ints for x in row)) == 1
        seen.add("integral" if den == 1 else "fractional")
        # any common multiple of the cleared pair builds the same matrix
        scale = rng.randint(1, 30)
        assert_same_matrix(Matrix._from_ints([[scale * x for x in row] for row in ints], scale * den), m)
        other = random_rows(rng, k, rng.randint(1, 5), digits)
        assert_same_matrix(m @ Matrix(other), Matrix(matmul_reference(rows, other)))
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert_same_matrix(twin, m)
    assert_same_matrix(Matrix.identity(3), Matrix([[int(i == j) for j in range(3)] for i in range(3)]))
    assert_same_matrix(Matrix.zeros(2, 3), Matrix([[0] * 3] * 2))
    assert_same_matrix(Matrix.zeros(2, 3), Matrix([[Fraction(0, 5)] * 3] * 2))
    assert Matrix.zeros(2, 3).den == 1
    assert seen == {"integral", "fractional"}


# ---------------------------------------------------------------------------
# rational_eigenvalues against the Fraction confirm-and-deflate loop it
# replaced: the same candidates, each confirmed by exact evaluation of the
# monic characteristic polynomial and divided out by synthetic division

from phinlab.linalg import _rational_roots  # noqa: E402


def rational_eigenvalues_fraction_loop(m):
    coeffs = [as_fraction(c) for c in char_poly(m)]
    roots = {}
    zero_mult = 0
    while coeffs[0] == 0 and len(coeffs) > 1:
        coeffs = coeffs[1:]
        zero_mult += 1
    if zero_mult:
        roots[Fraction(0)] = zero_mult
    if len(coeffs) > 1:
        scale = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        ints = [x // math.gcd(*ints) for x in ints]
        for cand in sorted(Fraction(a, b) for a, b in _rational_roots(ints)):
            while len(coeffs) > 1 and poly_value(coeffs, cand) == 0:
                coeffs = deflate_oracle(coeffs, cand)
                roots[cand] = roots.get(cand, 0) + 1
    residual = None if len(coeffs) == 1 else tuple(coeffs)
    return tuple(sorted(roots.items())), residual


def test_rational_eigenvalues_match_the_fraction_deflation_loop():
    rng = random.Random(71)
    seen = set()
    matrices = [companion(random_root_polynomial(rng)) for _ in range(300)]
    matrices += [Matrix(square_case(rng, n, "mixed")) for n in range(1, 7) for _ in range(5)]
    matrices += [Matrix.diagonal([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
                 for n in range(1, 7) for _ in range(10)]
    for m in matrices:
        split = rational_eigenvalues(m)
        got = (tuple((as_fraction(v), k) for v, k in split.roots),
               None if split.residual is None else tuple(as_fraction(c) for c in split.residual))
        assert got == rational_eigenvalues_fraction_loop(m)
        assert split.residual is None or all_rational([split.residual])
        for value, mult in got[0]:
            seen.add("zero root" if value == 0 else "non-integral root" if value.denominator > 1
                     else "integral root")
            if mult > 1:
                seen.add("repeated root")
        if any(c.denominator > 1 for c in char_poly(m)):
            seen.add("non-integral polynomial")
        if got[1] is not None:
            seen.add("irrational residual")
    assert seen == {"zero root", "non-integral root", "integral root", "repeated root",
                    "non-integral polynomial", "irrational residual"}


# ---------------------------------------------------------------------------
# eigenvectors from one Krylov sequence, and the squarefree part on demand

from phinlab import linalg  # noqa: E402
from phinlab.linalg import _eigenvectors  # noqa: E402


def primitive_last_positive(v):
    """A nonzero rational vector scaled to the primitive integer vector whose
    last nonzero entry is positive."""
    d = math.lcm(*(x.denominator for x in v))
    ints = [int(x * d) for x in v]
    g = math.gcd(*ints)
    if next(x for x in reversed(ints) if x) < 0:
        g = -g
    return [x // g for x in ints]


def eigenvectors_both_ways(m):
    """(``_eigenvectors``, the Fraction kernel of each eigenvalue made
    primitive) for a matrix m = F / d with a split multiplicity-free
    spectrum: the eigenvalue a/b of F is value * d, and its line is the
    kernel of b*F - a*I."""
    pairs = [(value.numerator * m.den, value.denominator)
             for value, _ in rational_eigenvalues(m).split_roots()]
    kernels = []
    for a, b in pairs:
        [v] = kernel_basis_reference([[b * x - a if i == j else b * x for j, x in enumerate(row)]
                                      for i, row in enumerate(m.ints)])
        kernels.append(primitive_last_positive(v))
    return _eigenvectors(m.ints, pairs), kernels


def test_eigenvectors_match_the_kernel_vectors():
    rng = random.Random(73)
    seen = set()
    for n in range(1, 9):
        for kind in ("diagonal", "triangular", "conjugated"):
            for _ in range(6):
                values = []
                while len(values) < n:
                    value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.choice((1, 1, 2, 3, 7)))
                    if value not in values:
                        values.append(value)
                if kind == "diagonal":
                    m = Matrix.diagonal(values)
                elif kind == "triangular":
                    m = Matrix([[values[i] if i == j else rng.randint(-5, 5) if j > i else 0
                                 for j in range(n)] for i in range(n)])
                else:
                    s = random_unimodular(rng, n)
                    m = s @ Matrix.diagonal(values) @ s.inverse()
                got, want = eigenvectors_both_ways(m)
                assert got == want
                seen.update({kind, ("rank", n)})
                seen.update("negative" if v < 0 else "fractional" if v.denominator > 1 else "positive"
                            for v in values)
    assert {("rank", n) for n in range(1, 9)} <= seen
    assert {"diagonal", "triangular", "conjugated", "negative", "fractional", "positive"} <= seen


def test_eigenvectors_retry_a_line_the_first_start_misses():
    w = Matrix([[3, -1, 0], [0, 1, 1], [1, 0, 2]])
    m = w.inverse() @ Matrix.diagonal([2, 5, 7]) @ w
    # the start x = (1, 3, 9) has coordinates w x on the eigenbasis, and
    # (3, -1, 0) . (1, 3, 9) = 0: x has no component on the eigenline of 2
    assert (w @ Matrix([[1], [3], [9]])).rows[0][0] == 0
    got, want = eigenvectors_both_ways(m)
    assert got == want


@pytest.fixture
def gcd_calls(monkeypatch):
    """A list that gets one entry per ``linalg._poly_gcd`` call."""
    calls = []
    original = linalg._poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(linalg, "_poly_gcd", counted)
    return calls


def test_rational_eigenvalues_try_f_itself_before_its_squarefree_part(gcd_calls):
    split = rational_eigenvalues(Matrix.diagonal([1, 2, -3, Fraction(1, 2)]))
    assert split.roots == ((-3, 1), (Fraction(1, 2), 1), (1, 1), (2, 1))
    assert gcd_calls == []
    # squarefree, but 1 and 1 + M meet modulo every prime of the table
    big = math.prod(q for q in range(2, linalg._SMALL_PRIMES[-1] + 1)
                    if all(q % r for r in range(2, math.isqrt(q) + 1)))
    split = rational_eigenvalues(Matrix.diagonal([1, 1 + big, 5]))
    assert split.roots == ((1, 1), (5, 1), (1 + big, 1)) and split.residual is None
    assert len(gcd_calls) == 1


def test_the_small_prime_table_holds_every_prime_below_the_bound():
    assert linalg._SMALL_PRIMES == tuple(q for q in range(2, linalg._SMALL_PRIMES[-1] + 1)
                                         if all(q % r for r in range(2, math.isqrt(q) + 1)))


def test_rational_eigenvalues_of_repeated_roots(gcd_calls):
    third = Fraction(-1, 3)
    split = rational_eigenvalues(Matrix.diagonal([2, third, 6, 2, third, third]))
    assert split.roots == ((third, 3), (2, 2), (6, 1)) and split.residual is None
    # (x - 1)^2 (x^2 - 2)^2: a repeated root beside a repeated irrational factor
    block = [[0, 2], [1, 0]]
    rows = [[0] * 6 for _ in range(6)]
    rows[0][0] = rows[1][1] = 1
    for k in (2, 4):
        for i in range(2):
            rows[k + i][k:k + 2] = block[i]
    split = rational_eigenvalues(Matrix(rows))
    assert split.roots == ((1, 2),)
    assert list(split.residual) == [4, 0, -4, 0, 1]
    assert len(gcd_calls) == 2
