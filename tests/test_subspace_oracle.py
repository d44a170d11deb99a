"""The integer ``Subspace`` against the Fraction implementation it replaced.

``FractionSubspace`` below is that implementation, kept here as the
reference: a reduced echelon basis of Fraction rows from Gauss-Jordan
elimination with one division per pivot, membership by subtracting
multiples of the basis rows, the Zassenhaus intersection on Fraction rows,
and restriction by solving B X = M B. It shares no code with ``linalg``.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from phinlab.linalg import Matrix, Subspace
from phinlab.scalars import Rational


def as_fraction(x):
    return Fraction(int(x.numerator), int(x.denominator))


def fraction_rows(rows):
    return [[as_fraction(x) for x in row] for row in rows]


def rref(rows):
    """Nonzero rows of the reduced row echelon form, and the pivot columns."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


class FractionSubspace:
    def __init__(self, ambient, vectors):
        self.ambient = ambient
        self.basis = tuple(map(tuple, rref(vectors)[0]))

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vector):
        v = [Fraction(x) for x in vector]
        for row in self.basis:
            pivot = next(i for i, x in enumerate(row) if x != 0)
            factor = v[pivot]
            v = [a - factor * b for a, b in zip(v, row)]
        return v

    def contains_vector(self, vector):
        return not any(self.reduce(vector))

    def contains(self, other):
        return all(self.contains_vector(v) for v in other.basis)

    def intersect(self, other):
        n = self.ambient
        stack = [list(u) + list(u) for u in self.basis]
        stack += [list(v) + [Fraction(0)] * n for v in other.basis]
        reduced, pivots = rref(stack)
        return FractionSubspace(n, [row[n:] for row, c in zip(reduced, pivots) if c >= n])

    def images(self, m):
        return [[sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m] for v in self.basis]

    def is_stable_under(self, m):
        return all(self.contains_vector(w) for w in self.images(m))

    def restrict(self, m):
        k = self.dim
        images = self.images(m)
        aug = [[b[r] for b in self.basis] + [w[r] for w in images] for r in range(self.ambient)]
        reduced, pivots = rref(aug)
        if any(c >= k for c in pivots):
            raise ValueError("not stable")
        return [row[k:] for row in reduced]

    def sort_key(self):
        return (self.dim, self.basis)


DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 9, 10, 12)


def entry(rng, digits=1):
    num = rng.randint(-10 ** digits, 10 ** digits)
    return Fraction(num, rng.choice(DENOMINATORS + (10 ** digits + rng.randint(1, 99),)))


def vectors(rng, n, count, digits=1):
    return [[entry(rng, digits) for _ in range(n)] for _ in range(count)]


def combination(rng, rows, n):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in rows]
    return [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(n)]


def spanning_set(rng, n):
    """Vectors with mixed denominators: some dependent, some zero, sometimes
    plain ints or 20-digit entries."""
    rows = vectors(rng, n, rng.randint(0, n), rng.choice((1, 1, 2, 20)))
    rows += [combination(rng, rows, n) for _ in range(rng.randint(0, 2)) if rows]
    rows += [[Fraction(0)] * n for _ in range(rng.randint(0, 1))]
    rng.shuffle(rows)
    if rng.random() < 0.3:
        rows = [[int(x * 60) for x in row] for row in rows]
    return rows


def pair(rng, n, kind):
    """Two spanning sets of the named kind."""
    if kind == "line-line":
        u = vectors(rng, n, 1)
        other = [[2 * x for x in u[0]]] if rng.random() < 0.5 else vectors(rng, n, 1)
        return u, other
    if kind == "line-hyperplane":
        plane = vectors(rng, n, n - 1)
        line = [combination(rng, plane, n)] if rng.random() < 0.5 else vectors(rng, n, 1)
        return (line, plane) if rng.random() < 0.5 else (plane, line)
    if kind == "zero-full":
        full = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        ends = (full, [], vectors(rng, n, n))
        return rng.choice(ends), spanning_set(rng, n)
    if kind == "nested":
        outer = vectors(rng, n, rng.randint(1, n))
        return outer, [combination(rng, outer, n) for _ in range(rng.randint(1, len(outer)))]
    return spanning_set(rng, n), spanning_set(rng, n)


def assert_same(got, want):
    assert got.ambient == want.ambient and got.dim == want.dim
    assert all(isinstance(x, Rational) for row in got.basis for x in row)
    assert tuple(map(tuple, fraction_rows(got.basis))) == want.basis
    assert fraction_rows(got.sort_key()[1]) == [list(row) for row in want.sort_key()[1]]


KINDS = ("line-line", "line-hyperplane", "zero-full", "nested", "random")


def test_basis_equality_and_hash_match_the_fraction_reference():
    rng = random.Random(101)
    for i in range(200):
        n = 1 + i % 7
        rows = spanning_set(rng, n)
        sub, ref = Subspace(n, rows), FractionSubspace(n, rows)
        assert_same(sub, ref)
        # another spanning set of the same space: scaled, shuffled, padded
        scales = [Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4)) for _ in ref.basis]
        again = [[c * x for x in row] for c, row in zip(scales, ref.basis)]
        again += [combination(rng, list(ref.basis), n)] if ref.basis else []
        rng.shuffle(again)
        twin = Subspace(n, again)
        assert twin == sub and hash(twin) == hash(sub)
        other = spanning_set(rng, n)
        assert (Subspace(n, other) == sub) == (FractionSubspace(n, other).basis == ref.basis)


def test_sort_key_order_matches_the_fraction_reference():
    rng = random.Random(103)
    for n in range(1, 6):
        sets = [spanning_set(rng, n) for _ in range(30)]
        got = sorted((Subspace(n, rows) for rows in sets), key=Subspace.sort_key)
        want = sorted((FractionSubspace(n, rows) for rows in sets), key=FractionSubspace.sort_key)
        for g, w in zip(got, want, strict=True):
            assert_same(g, w)


def test_intersect_and_containment_match_the_fraction_reference():
    rng = random.Random(107)
    seen = set()
    for i in range(300):
        n = 2 + i % 6
        kind = KINDS[i % len(KINDS)]
        a, b = pair(rng, n, kind)
        sa, sb = Subspace(n, a), Subspace(n, b)
        ra, rb = FractionSubspace(n, a), FractionSubspace(n, b)
        cap = sa.intersect(sb)
        want = ra.intersect(rb)
        assert_same(cap, want)
        assert sb.intersect(sa) == cap
        # one subspace contains another exactly when it meets it in all of it
        assert (cap == sb) == ra.contains(rb) and (cap == sa) == rb.contains(ra)
        assert sa.intersect(cap) == cap and sb.intersect(cap) == cap
        probes = [combination(rng, list(ra.basis), n)] if ra.basis else []
        probes += vectors(rng, n, 2) + [[0] * n]
        for v in probes:
            line = Subspace(n, [v])
            assert (sa.intersect(line) == line) == ra.contains_vector(v)
        seen.add((kind, min(sa.dim, sb.dim), cap.dim == 0))
    assert {("line-line", 1, True), ("line-line", 1, False),
            ("line-hyperplane", 1, True), ("line-hyperplane", 1, False),
            ("zero-full", 0, True)} <= seen


def stabilised(rng, n, k):
    """A matrix M = S U S^-1 (U upper triangular) and the span of the first
    k columns of S, which M preserves."""
    while not _invertible(s := Matrix(vectors(rng, n, n))):
        pass
    u = Matrix([[entry(rng) if j >= i else 0 for j in range(n)] for i in range(n)])
    m = s @ u @ s.inverse()
    return m, [[row[j] for row in s.rows] for j in range(k)]


def _invertible(m):
    try:
        m.inverse()
    except ValueError:
        return False
    return True


def test_stability_and_restriction_match_the_fraction_reference():
    rng = random.Random(109)
    seen = set()
    for i in range(120):
        n = 1 + i % 5
        k = rng.randint(1, n)
        m, cols = stabilised(rng, n, k)
        if rng.random() < 0.4:
            m = Matrix(vectors(rng, n, n))      # usually moves the span
        rows = fraction_rows(m.rows)
        sub, ref = Subspace(n, cols), FractionSubspace(n, cols)
        stable = ref.is_stable_under(rows)
        assert sub.is_stable_under(m) == stable
        if stable:
            got = sub.restrict(m)
            assert fraction_rows(got.rows) == ref.restrict(rows)
            assert got == Matrix(ref.restrict(rows))
        else:
            with pytest.raises(ValueError):
                sub.restrict(m)
            with pytest.raises(ValueError):
                ref.restrict(rows)
        seen.add(stable)
    assert seen == {True, False}


def test_matrix_rows_and_subspace_basis_survive_copy_and_pickle():
    rng = random.Random(113)
    for _ in range(20):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(vectors(rng, n, k, rng.choice((1, 20))))
        sub = Subspace(k, spanning_set(rng, k))
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and hash(twin) == hash(m)
            assert (twin.ints, twin.den) == (m.ints, m.den)
            assert twin.rows == m.rows and Matrix(twin.rows) == m
            assert all(isinstance(x, Rational) for row in twin.rows for x in row)
        for twin in (copy.copy(sub), copy.deepcopy(sub), pickle.loads(pickle.dumps(sub))):
            assert twin == sub and hash(twin) == hash(sub)
            assert twin.basis == sub.basis and Subspace(k, twin.basis) == sub
    assert "rows" not in Matrix.__slots__ and "basis" not in Subspace.__slots__
