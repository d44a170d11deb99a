"""Exact linear algebra over Q: matrices, subspaces, spectra, Jordan types.

Entries are exact rationals and no floating point appears anywhere, but
the kernels do not compute with rationals. A ``Matrix`` is held as its
cleared form, integer rows over the least common denominator, computed
once when it is built (with no gcd when the denominator is 1); products,
``det``, ``char_poly`` and ``rank`` read that form, run on Python
integers, and divide back once on exit, so no gcd is paid per arithmetic
step. A product is built from its integer rows over the product of the
two denominators; ``det`` is Bareiss fraction-free elimination, run on
every call; ``char_poly`` is Newton's identities on the power sums
tr(A^k) with exact integer division, formed at most once per ``Matrix``
object and kept in the private slot ``_char_poly``, so
``rational_eigenvalues``, ``exterior_traces`` and the Newton number on
one matrix share it (the cache is not keyed by value and does not
outlive its matrix);
``rational_eigenvalues`` lifts its roots from a small prime, forms the
squarefree part of the polynomial only when no small prime shows every
root simple, and confirms and deflates them in Z[x] as reduced integer
pairs; the eigenvectors of a split multiplicity-free
spectrum all come from one Krylov sequence; row reduction is Gauss-Jordan
on integer rows. A ``Subspace`` is held as its reduced echelon basis with
each row scaled to a primitive integer row with a positive pivot, which
is unique, so equality and hashing are structural; it is built straight
from integer rows where the caller has them; intersection, membership,
stability and restriction run on those rows. Rationals are
built only on access: ``Matrix.rows``, ``Subspace.basis`` and the values
the functions return.
"""

import itertools
import math
import operator

from .errors import NonNilpotentMonodromy, NotFullyRational
from .scalars import Frozen, Rational, ZERO, _rebuild, as_rational, is_int, is_prime

__all__ = [
    "Matrix",
    "Partition",
    "Subspace",
    "char_poly",
    "conjugate",
    "det",
    "exterior_traces",
    "EigenSplit",
    "jordan_nilpotent",
    "jordan_partition",
    "kernel_dim",
    "rank",
    "rational_eigenvalues",
]


class Matrix(Frozen):
    """Immutable exact-rational matrix.

    ``ints`` and ``den`` hold it: integer rows over the least common
    denominator of the entries, computed once at construction. That form
    is unique, so equality and hashing stay structural, and the kernels
    read it. ``rows``, the entries as rationals, is built on access. The
    private slot ``_char_poly`` holds the integer characteristic
    polynomial once ``char_poly``, ``exterior_traces`` or
    ``rational_eigenvalues`` has formed it.
    """

    __slots__ = ("ints", "den", "_char_poly")

    def __init__(self, rows):
        scaled = [_int_row(row) for row in rows]
        if not scaled or not scaled[0][0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(a) != len(scaled[0][0]) for a, _ in scaled):
            raise ValueError("ragged rows")
        d = math.lcm(*(e for _, e in scaled))
        Frozen.__init__(self, tuple(tuple(x * (d // e) for x in a) for a, e in scaled), d)

    @classmethod
    def _from_ints(cls, ints, den):
        """The matrix ints / den, for nonempty integer rows of one width and
        a positive integer den; the pair is reduced by its gcd, which is 1
        when den is."""
        ints = tuple(map(tuple, ints))
        if den > 1:
            g = math.gcd(den, *itertools.chain.from_iterable(ints))
            if g > 1:
                ints = tuple(tuple(x // g for x in row) for row in ints)
                den //= g
        return _rebuild(cls, (ints, den))

    @classmethod
    def identity(cls, n):
        return cls._from_ints([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @classmethod
    def zeros(cls, n, m):
        return cls._from_ints([[0] * m for _ in range(n)], 1)

    @classmethod
    def diagonal(cls, values):
        vals = list(values)
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self):
        """The entries as rationals, built on each access."""
        return tuple(_over(row, self.den) for row in self.ints)

    @property
    def nrows(self):
        return len(self.ints)

    @property
    def ncols(self):
        return len(self.ints[0])

    @property
    def is_square(self):
        return self.nrows == self.ncols

    @property
    def is_zero(self):
        return not any(map(any, self.ints))

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        return Matrix._from_ints(_int_matmul(self.ints, other.ints), self.den * other.den)

    def inverse(self):
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        # (A | d I) reduces to (I | d A^-1), and d A^-1 is the inverse of A / d
        aug = [list(row) + [self.den if i == j else 0 for j in range(n)]
               for i, row in enumerate(self.ints)]
        pivots = _echelon(aug)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise ValueError("matrix is singular")
        return Matrix._from_ints(*_over_pivots(aug, pivots, n))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{body}]"


def _over(row, d):
    """Integers divided by a nonzero integer d, as rationals."""
    return tuple(ZERO if x == 0 else Rational(x, d) for x in row)


def _int_row(row):
    """(a, d): integers a and the least d > 0 with row = a / d, for entries
    that ``as_rational`` reads."""
    row = list(map(as_rational, row))
    d = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def _int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _primitive_row(a):
    """A nonzero integer row divided by its content (a positive gcd)."""
    g = math.gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _echelon(rows):
    """Gauss-Jordan elimination on integer rows, in place; returns the pivot columns.

    Afterwards row i (i < rank) has its first nonzero entry, positive, in
    column pivots[i], every other row is zero there, and rows from the rank
    on are zero. Each row p*row - a*pivot_row is divided by its content, so
    the entries stay as small as the row space allows, and the rows of a
    matrix whose rows are primitive stay primitive.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        if p < 0:
            rows[r] = prow = [-x for x in prow]
            p = -p
        for i in range(nrows):
            a = rows[i][c]
            if a and i != r:
                g = math.gcd(p, a)
                pg, ag = p // g, a // g
                new = [pg * x - ag * y for x, y in zip(rows[i], prow)]
                g = math.gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _over_pivots(rows, pivots, start=0):
    """Rows of an integer echelon form divided by their pivots, as integer
    rows (from column start on) over one positive denominator: (A, d)."""
    d = math.lcm(*(row[c] for row, c in zip(rows, pivots)))
    return [[x * (d // row[c]) for x in row[start:]] for row, c in zip(rows, pivots)], d


def rank(m):
    return len(_echelon(list(m.ints)))


def kernel_dim(m):
    """Dimension of the null space (columns minus rank)."""
    return m.ncols - rank(m)


def det(m):
    """The determinant by Bareiss elimination on the cleared matrix d*M."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    a, d = list(m.ints), m.den
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if a[i][k]), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        # Bareiss step: every entry below and right of the pivot becomes a
        # (k+2)-minor of the cleared matrix, so the division by the previous
        # pivot is exact
        rk, p = a[k], a[k][k]
        for i in range(k + 1, n):
            ri, f = a[i], a[i][k]
            a[i] = [0] * (k + 1) + [(p * ri[j] - f * rk[j]) // prev for j in range(k + 1, n)]
        prev = p
    return Rational(sign * a[n - 1][n - 1], d ** n)


def _int_char_poly(m):
    """(c, d) for the cleared matrix A = d*M, c as ``_newton_char_poly``
    forms it, once per matrix: the pair is kept in the private slot of m."""
    poly = getattr(m, "_char_poly", None)
    if poly is None:
        poly = _newton_char_poly(m), m.den
        object.__setattr__(m, "_char_poly", poly)
    return poly


def _newton_char_poly(m):
    """(c_0, ..., c_n) with c_k the coefficient of x^(n-k) in det(x*I - A)
    for the cleared matrix A = d*M.

    Newton's identities on the power sums p_k = tr(A^k): k c_k =
    -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1), and c_k is an integer, so
    the division by k is exact. Only A^2 .. A^h, h = ceil(n/2), are
    formed; for k > h, tr(A^k) = sum of A^h[i][j] A^(k-h)[j][i]. The
    coefficient of x^(n-k) for M is c_k / d^k.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    a = m.ints
    n = len(a)
    h = (n + 1) // 2
    powers = [None, a]
    for _ in range(h - 1):
        powers.append(_int_matmul(powers[-1], a))
    top = powers[h]
    sums = [None] + [sum(b[i][i] for i in range(n)) for b in powers[1:]]
    for k in range(h + 1, n + 1):
        # tr(A^h A^(k-h)): row i of A^h against column i of A^(k-h)
        low = powers[k - h]
        sums.append(sum(x * low[j][i] for i, row in enumerate(top) for j, x in enumerate(row)))
    out = [1]
    for k in range(1, n + 1):
        out.append(-sum(out[k - i] * sums[i] for i in range(1, k + 1)) // k)
    return tuple(out)


def char_poly(m):
    """Characteristic polynomial det(x*I - M), coefficients ascending, monic."""
    c, d = _int_char_poly(m)
    n = len(c) - 1
    return tuple(Rational(c[n - i], d ** (n - i)) for i in range(n + 1))


def exterior_traces(m):
    """Traces of every exterior power, r = 0..n, from one characteristic polynomial."""
    coeffs = char_poly(m)
    n = m.nrows
    return tuple(coeffs[n - r] if r % 2 == 0 else -coeffs[n - r] for r in range(n + 1))


class EigenSplit(Frozen):
    """Outcome of rational spectrum extraction.

    ``roots`` lists (value, multiplicity) sorted by value; ``residual`` is
    the monic factor without rational roots, or None when the polynomial
    splits completely.
    """

    __slots__ = ("roots", "residual")

    def split_roots(self):
        """``roots``, or NotFullyRational when the spectrum does not split."""
        if self.residual is not None:
            raise NotFullyRational("spectrum does not split over Q; "
                                   f"residual factor has degree {len(self.residual) - 1}")
        return self.roots


def _divide_linear(poly, a, b):
    """poly / (b*x - a) in Z[x] when that factor divides it, else None.

    Synthetic division from the top: the quotient q satisfies
    b*q[i-1] - a*q[i] = poly[i], so each step must divide by b exactly,
    and the constant term must come out as poly[0] + a*q[0] = 0.
    """
    out = [0] * (len(poly) - 1)
    carry = 0
    for i in range(len(poly) - 1, 0, -1):
        q, r = divmod(poly[i] + carry, b)
        if r:
            return None
        out[i - 1] = q
        carry = a * q
    return out if poly[0] + carry == 0 else None


def _primitive(poly):
    """An integer polynomial divided by its content, leading coefficient positive."""
    g = math.gcd(*poly)
    return [c // g for c in poly] if poly[-1] > 0 else [-c // g for c in poly]


def _derivative(poly):
    return [i * c for i, c in enumerate(poly)][1:]


def _pseudo_remainder(a, b):
    # lead(b)^k * a mod b over Z, without trailing zero coefficients
    r = list(a)
    while len(r) >= len(b):
        lead, shift = r[-1], len(r) - len(b)
        r = [c * b[-1] for c in r]
        for i, c in enumerate(b):
            r[i + shift] -= lead * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _poly_gcd(a, b):
    """Primitive gcd of two nonzero integer polynomials (primitive remainder sequence)."""
    a, b = _primitive(a), _primitive(b)
    while True:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)


def _exact_quotient(a, b):
    """a / b in Z[x] for primitive a and b with b dividing a."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = a[k + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            a[k + i] -= q[k] * c
    return q


def _eval_mod(poly, x, modulus):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % modulus
    return acc


def _simple_roots_mod_prime(h, dh, primes):
    """The first prime ell of the ascending primes not dividing lead(h) at
    which every root of h mod ell is simple, with those roots; None when
    none of them qualifies.

    Every prime dividing neither lead(h) nor the discriminant of a
    squarefree h qualifies, so a search over all the primes ends on a
    squarefree h.
    """
    for ell in primes:
        if h[-1] % ell == 0:
            continue
        hm, dm = [c % ell for c in h], [c % ell for c in dh]
        roots = []
        for x in range(ell):
            if _eval_mod(hm, x, ell) == 0:
                if _eval_mod(dm, x, ell) == 0:
                    break
                roots.append(x)
        else:
            return ell, roots
    return None


def _reconstruct(u, modulus, num_bound):
    """(a, b) with a = b*u mod modulus and 0 <= a <= num_bound, read off the
    extended Euclidean remainders of (modulus, u); b may be negative.

    When modulus > 2*num_bound*B and some a'/b' in lowest terms with
    |a'| <= num_bound and 0 < b' <= B is congruent to u, then a/b = a'/b'.
    """
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return r1, t1


# the primes below 128 are tried on f itself before its squarefree part is
# formed; they are written out, so that no primality test runs at import
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
                 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)


def _rational_roots(f):
    """Candidates that include every rational root of a primitive integer
    polynomial with nonzero constant term, as reduced pairs (a, b) with
    b > 0 for a/b, pairwise distinct; the caller confirms each.

    p-adic expansion (Loos 1983): the simple roots of h mod a small prime
    ell are lifted to ell-adic precision beyond 2*|h(0)|*lead(h), and each
    is reconstructed as a fraction whose numerator divides h(0) and whose
    denominator divides lead(h). A repeated rational root stays repeated
    modulo every prime not dividing lead(f), so when some prime of
    ``_SMALL_PRIMES`` has only simple roots of f, every rational root
    of f is simple and h is f itself; otherwise h is the squarefree part
    f / gcd(f, f'). The cost is polynomial in the degree and in the bit
    size of the coefficients.
    """
    h, dh = f, _derivative(f)
    found = _simple_roots_mod_prime(h, dh, _SMALL_PRIMES)
    if found is None:
        h = _exact_quotient(f, _poly_gcd(f, dh))
        dh = _derivative(h)
        found = _simple_roots_mod_prime(h, dh, filter(is_prime, itertools.count(2)))
    ell, roots = found
    modulus = ell
    # each root x with w = 1/h'(x), so that no step inverts modulo the lifted modulus
    lifted = [(x, pow(_eval_mod(dh, x, ell), -1, ell)) for x in roots]
    while modulus <= 2 * abs(h[0]) * h[-1]:
        # Newton steps on x and on w: each doubles its ell-adic precision
        modulus *= modulus
        step = []
        for x, w in lifted:
            y = (x - _eval_mod(h, x, modulus) * w) % modulus
            step.append((y, w * (2 - _eval_mod(dh, y, modulus) * w) % modulus))
        lifted = step
    out = []
    for x, _ in lifted:
        num, den = _reconstruct(x, modulus, abs(h[0]))
        if num and h[0] % num == 0 and h[-1] % den == 0:
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            out.append((num // g, den // g))
    return out


def rational_eigenvalues(m):
    """Split the characteristic polynomial into rational roots and a residual.

    Never raises on irrational spectrum; ``EigenSplit.split_roots`` does. The
    work is in Z[x], on the primitive multiple f of d^n * det(x*I - M) for
    the cleared matrix d*M. The candidates come from ``_rational_roots``;
    exact division of f by (b*x - a) confirms each candidate a/b and counts
    its multiplicity (by Gauss's lemma the quotient stays primitive and
    integral); a multiplicity does not depend on the order the candidates
    are divided out in, and each confirmed root becomes a rational once.
    The residual is what is left of f, made monic.
    """
    c, d = _int_char_poly(m)
    n = len(c) - 1
    f = _primitive([c[n - i] * d ** i for i in range(n + 1)])
    roots = []
    zero_mult = next(i for i, x in enumerate(f) if x)
    if zero_mult:
        roots.append((ZERO, zero_mult))
        f = f[zero_mult:]
    if len(f) > 1:
        for a, b in _rational_roots(f):
            mult = 0
            while len(f) > 1 and (quotient := _divide_linear(f, a, b)) is not None:
                f = quotient
                mult += 1
            if mult:
                roots.append((Rational(a, b), mult))
    residual = None if len(f) == 1 else tuple(Rational(x, f[-1]) for x in f)
    # the values are distinct, so the sort never compares multiplicities
    return EigenSplit(tuple(sorted(roots)), residual)


def _eigenvectors(a, roots):
    """The eigenvector of the square integer matrix a for each (num, den) in
    roots, the pairwise distinct eigenvalues num/den of its whole spectrum.

    Each comes out primitive, with its last nonzero entry (the free column
    of the kernel of den*a - num*I) positive. With P(t) = prod (den_j t -
    num_j), P(a) = 0, so for Q_i = P / (den_i t - num_i) the vector
    Q_i(a) x is killed by den_i a - num_i: it lies on the i-th eigenline,
    and is zero only when x has no component there. One Krylov sequence
    x, a x, ..., a^(n-1) x serves every root, n - 1 products with a and
    n^2 dot products. x is (1, s, s^2, ...) from s = 3; the roots whose
    vector comes out zero are retried with s + 1. The component of x on a
    line is a nonzero polynomial in s of degree below n, so fewer than n
    values of s miss any one line.
    """
    n = len(a)
    poly = [1]
    for num, den in roots:
        poly = [den * x - num * y for x, y in zip([0] + poly, poly + [0])]
    quotients = [_divide_linear(poly, num, den) for num, den in roots]
    out = [None] * len(roots)
    todo, s = list(range(len(roots))), 3
    while todo:
        krylov = [[s ** k for k in range(n)]]
        for _ in range(n - 1):
            krylov.append([sum(map(operator.mul, row, krylov[-1])) for row in a])
        columns = list(zip(*krylov))
        for i in todo:
            v = [sum(map(operator.mul, quotients[i], col)) for col in columns]
            if any(v):
                g = math.gcd(*v)
                last = next(x for x in reversed(v) if x)
                out[i] = [x // (g if last > 0 else -g) for x in v]
        todo, s = [i for i in todo if out[i] is None], s + 1
    return out


def jordan_nilpotent(sizes):
    """Canonical nilpotent with the given Jordan block sizes (ones above the diagonal)."""
    sizes = list(sizes)
    if not sizes or not all(is_int(k) and k >= 1 for k in sizes):
        raise ValueError(f"block sizes must be positive integers, got {sizes}")
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for k in sizes:
        for i in range(k - 1):
            rows[offset + i][offset + i + 1] = 1
        offset += k
    return Matrix._from_ints(rows, 1)


class Partition(Frozen):
    """Weakly decreasing tuple of positive integers (possibly empty)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not all(is_int(x) and x >= 1 for x in parts):
            raise ValueError(f"parts must be positive integers: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        Frozen.__init__(self, parts)

    @classmethod
    def _from_parts(cls, parts):
        """The partition of a tuple of positive ints, weakly decreasing,
        taken as it is."""
        return _rebuild(cls, (parts,))

    @property
    def total(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def conjugate(p):
    """Transpose of the Young diagram: row lengths become column lengths."""
    if not p.parts:
        return Partition(())
    return Partition(tuple(sum(1 for x in p.parts if x >= i) for i in range(1, p.parts[0] + 1)))


def jordan_partition(n_mat):
    """Jordan block sizes of a nilpotent matrix, largest first.

    Computed as the conjugate of the kernel-growth partition
    (dim ker N^i - dim ker N^(i-1)), from the ranks of the row spaces of
    the powers: the echelon rows of the row space of N^i, times N, span
    that of N^(i+1), so each step multiplies rank(N^i) rows, not the whole
    power. The powers stop at the first one whose kernel is the whole
    space, or whose kernel stops growing, which means N is not nilpotent.
    """
    if not n_mat.is_square:
        raise ValueError("jordan_partition needs a square matrix")
    size = n_mat.nrows
    growth = []
    prev = 0
    rows = list(n_mat.ints)
    while True:
        # the scale of N does not change the kernel of its powers
        rank_k = len(_echelon(rows))
        cur = size - rank_k
        if cur == prev:
            raise NonNilpotentMonodromy(size)
        growth.append(cur - prev)
        if cur == size:
            return conjugate(Partition(growth))
        prev = cur
        rows = _int_matmul(rows[:rank_k], n_mat.ints)


def _canonical_rows(rows):
    """(ints, pivots) of ``Subspace`` for the span of integer rows."""
    rows = [_primitive_row(r) for r in rows]
    pivots = _echelon(rows)
    return tuple(map(tuple, rows[:len(pivots)])), tuple(pivots)


class Subspace(Frozen):
    """A linear subspace of Q^n, held by its canonical basis on integers.

    ``ints`` are the rows of the reduced echelon basis, each scaled to a
    primitive integer row with a positive pivot, and ``pivots`` their pivot
    columns. That form is unique, so two spans of the same space compare
    equal and hash equal. ``basis``, those rows divided by their pivots as
    rationals, is built on access.
    """

    __slots__ = ("ambient", "ints", "pivots")

    def __init__(self, ambient, vectors):
        if not is_int(ambient):
            raise TypeError(f"ambient dimension must be an int, got {ambient!r}")
        rows = [_int_row(v)[0] for v in vectors]
        if any(len(r) != ambient for r in rows):
            raise ValueError("vector length mismatch")
        Frozen.__init__(self, ambient, *_canonical_rows(rows))

    @classmethod
    def _from_int_rows(cls, ambient, rows):
        """The span of integer rows of length ambient."""
        return _rebuild(cls, (ambient, *_canonical_rows(rows)))

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, [])

    @classmethod
    def full(cls, ambient):
        # the identity rows are already primitive and in reduced echelon form
        return _rebuild(cls, (ambient, Matrix.identity(ambient).ints, tuple(range(ambient))))

    @property
    def basis(self):
        """The reduced echelon basis as rationals, built on each access."""
        rows, d = _over_pivots(self.ints, self.pivots)
        return tuple(_over(row, d) for row in rows)

    @property
    def dim(self):
        return len(self.ints)

    def matrix(self):
        if not self.ints:
            raise ValueError("the zero subspace has no basis matrix")
        rows, d = _over_pivots(self.ints, self.pivots)
        return Matrix._from_ints(zip(*rows), d)

    def _holds(self, v):
        """Whether the integer vector v lies in the subspace: v reduced
        against the echelon rows comes out zero."""
        for row, c in zip(self.ints, self.pivots):
            a = v[c]
            if a:
                g = math.gcd(row[c], a)
                p, a = row[c] // g, a // g
                v = [p * x - a * y for x, y in zip(v, row)]
        return not any(v)

    def intersect(self, other):
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient
        if self.dim == 0 or other.dim == n:
            return self
        if other.dim == 0 or self.dim == n:
            return other
        # a line meets a subspace in all of it or in zero
        if self.dim == 1:
            return self if other._holds(self.ints[0]) else Subspace.zero(n)
        if other.dim == 1:
            return other if self._holds(other.ints[0]) else Subspace.zero(n)
        # Zassenhaus: in the echelon form of the rows (u | u) and (v | 0), the
        # rows whose pivot lies in the right half are (0 | w) for w running
        # over a reduced echelon basis of the intersection
        stack = [u + u for u in self.ints] + [v + (0,) * n for v in other.ints]
        pivots = _echelon(stack)
        k = sum(1 for c in pivots if c < n)
        return _rebuild(Subspace, (n, tuple(tuple(row[n:]) for row in stack[k:len(pivots)]),
                                   tuple(c - n for c in pivots[k:])))

    def _images(self, m):
        """F r for each stored row r, where m = F / m.den maps Q^n to itself."""
        if (m.nrows, m.ncols) != (self.ambient, self.ambient):
            raise ValueError("ambient dimension mismatch")
        return [[sum(map(operator.mul, row, r)) for row in m.ints] for r in self.ints]

    def is_stable_under(self, m):
        return all(map(self._holds, self._images(m)))

    def restrict(self, m):
        """Matrix of m on this subspace in its canonical basis."""
        if self.dim == 0:
            raise ValueError("cannot restrict to the zero subspace")
        images = self._images(m)
        if not all(map(self._holds, images)):
            raise ValueError("subspace is not stable under the given matrix")
        # the basis vector b_i = r_i / p_i (r_i a stored row, p_i its pivot)
        # is 1 at its pivot column c_i and the others are 0 there, so a
        # vector of the span has its entry at c_i as its coordinate on b_i;
        # here the vectors are m b_j = F r_j / (den p_j)
        pivots = [r[c] for r, c in zip(self.ints, self.pivots)]
        d = math.lcm(*pivots)
        return Matrix._from_ints([[y[c] * (d // p) for y, p in zip(images, pivots)]
                                  for c in self.pivots], m.den * d)

    def sort_key(self):
        return (self.dim, self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of Q^{self.ambient})"
