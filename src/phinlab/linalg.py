"""Exact linear algebra over Q: matrices, subspaces, spectra.

Entries are exact rationals and no floating point appears anywhere, but
the kernels do not compute with rationals: each clears denominators once
on entry, runs on Python integers, and divides back once on exit, so no
gcd is paid per arithmetic step. Products are integer products over the
product of the two common denominators; ``det`` is Bareiss fraction-free
elimination; ``char_poly`` is Faddeev-LeVerrier on the cleared matrix with
exact integer division; row reduction is Gauss-Jordan on primitive integer
rows, each pivot row divided by its pivot at the end. Subspaces keep the
reduced-echelon basis, which is unique, so equality and hashing are
structural.
"""

import math
import operator

from .errors import NonNilpotentMonodromy
from .scalars import Rational, ZERO, ONE, is_prime

__all__ = [
    "Matrix",
    "Subspace",
    "char_poly",
    "det",
    "exterior_trace",
    "exterior_traces",
    "EigenSplit",
    "jordan_nilpotent",
    "jordan_partition",
    "kernel_basis",
    "kernel_dim",
    "matrix_power",
    "rank",
    "rational_eigenvalues",
    "solve_columns",
]


def _as_rational(x):
    # both backends' rationals are immutable, so one can be shared as it is
    return x if type(x) is Rational else Rational(x)


class Matrix:
    """Immutable exact-rational matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        data = tuple(tuple(map(_as_rational, row)) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n, m):
        return cls([[ZERO] * m for _ in range(n)])

    @classmethod
    def diagonal(cls, values):
        vals = [_as_rational(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, nrows):
        cols = [tuple(c) for c in columns]
        if not cols:
            raise ValueError("from_columns needs at least one column")
        if any(len(c) != nrows for c in cols):
            raise ValueError("column length mismatch")
        return cls([[c[i] for c in cols] for i in range(nrows)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    @property
    def is_square(self):
        return self.nrows == self.ncols

    @property
    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def columns(self):
        return tuple(self.column(j) for j in range(self.ncols))

    def transpose(self):
        return Matrix(self.columns())

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        a, da = _cleared(self.rows)
        b, db = _cleared(other.rows)
        return Matrix(_divided(_int_matmul(a, b), da * db))

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in +")
        return Matrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.rows])

    def __mul__(self, scalar):
        c = Rational(scalar)
        return Matrix([[c * a for a in row] for row in self.rows])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def inverse(self):
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
               for i, row in enumerate(self.rows)]
        reduced, pivots = _rref(aug)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in reduced])

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{body}]"


def _int_row(row):
    """(a, d): integers a and the least d > 0 with row = a / d."""
    nums = [int(x.numerator) for x in row]
    dens = [int(x.denominator) for x in row]
    d = math.lcm(*dens)
    return (nums if d == 1 else [x * (d // e) for x, e in zip(nums, dens)]), d


def _cleared(rows):
    """(A, d): integer rows A and the least d > 0 with rows = A / d."""
    scaled = [_int_row(row) for row in rows]
    d = math.lcm(*(e for _, e in scaled))
    return [a if e == d else [x * (d // e) for x in a] for a, e in scaled], d


def _divided(rows, d):
    """Integer rows over the common denominator d, as rationals."""
    return [[ZERO if x == 0 else Rational(x, d) for x in row] for row in rows]


def _int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _primitive_rows(rows):
    """Each rational row scaled to a primitive integer row (same row space)."""
    out = []
    for row in rows:
        a = _int_row(row)[0]
        g = math.gcd(*a)
        out.append([x // g for x in a] if g > 1 else a)
    return out


def _echelon(rows):
    """Gauss-Jordan elimination on integer rows, in place; returns the pivot columns.

    Afterwards row i (i < rank) has its first nonzero entry in column
    pivots[i], every other row is zero there, and rows from the rank on are
    zero. Each row p*row - a*pivot_row is divided by its content, so the
    entries stay as small as the row space allows.
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


def _pivot_rows(rows, pivots, start=0):
    """Rows of an integer echelon form divided by their pivots, from column start on."""
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        out.append([ZERO if x == 0 else Rational(x, p) for x in row[start:]])
    return out


def _rref(rows):
    """Reduced row echelon form of rational rows: (nonzero rows, pivot columns)."""
    ints = _primitive_rows(rows)
    pivots = _echelon(ints)
    return _pivot_rows(ints, pivots), pivots


def rank(m):
    return len(_echelon(_primitive_rows(m.rows)))


def kernel_dim(m):
    """Dimension of the null space (columns minus rank)."""
    return m.ncols - rank(m)


def kernel_basis(m):
    """Canonical basis of the null space, one vector per free column."""
    reduced, pivots = _rref([list(row) for row in m.rows])
    pivot_of = {c: i for i, c in enumerate(pivots)}
    free = [c for c in range(m.ncols) if c not in pivot_of]
    out = []
    for f in free:
        v = [ZERO] * m.ncols
        v[f] = ONE
        for c, i in pivot_of.items():
            v[c] = -reduced[i][f]
        out.append(tuple(v))
    return tuple(out)


def solve_columns(a, b):
    """One exact solution X of A @ X = B, or None when inconsistent.

    Free variables, if any, are set to zero.
    """
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch in solve")
    k = a.ncols
    aug = [list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)]
    reduced, pivots = _rref(aug)
    if any(p >= k for p in pivots):
        return None
    x = [[ZERO] * b.ncols for _ in range(k)]
    for i, c in enumerate(pivots):
        for j in range(b.ncols):
            x[c][j] = reduced[i][k + j]
    return Matrix(x)


def det(m):
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    a, d = _cleared(m.rows)
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


def matrix_power(m, k):
    if not m.is_square:
        raise ValueError("power of a non-square matrix")
    if k < 0:
        return matrix_power(m.inverse(), -k)
    out = Matrix.identity(m.nrows)
    base = m
    while k:
        if k & 1:
            out = out @ base
        base = base @ base if k > 1 else base
        k >>= 1
    return out


def char_poly(m):
    """Characteristic polynomial det(x*I - M), coefficients ascending, monic.

    Faddeev-LeVerrier recursion on the integer matrix A = d*M: with B_1 = A
    and B_k = A (B_(k-1) + c_(k-1) I), c_k = -tr(B_k) / k is the coefficient
    of x^(n-k) in det(x*I - A), an integer, so the division by k is exact.
    The coefficient of x^(n-k) for M is c_k / d^k.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    a, d = _cleared(m.rows)
    n = len(a)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    b = a
    for k in range(1, n + 1):
        if k > 1:
            shifted = [row[:] for row in b]
            for i in range(n):
                shifted[i][i] += c
            b = _int_matmul(a, shifted)
        c = -sum(b[i][i] for i in range(n)) // k
        coeffs[n - k] = Rational(c, d ** k)
    return tuple(coeffs)


def exterior_trace(m, r):
    """Trace of the r-th exterior power: the sum of r x r principal minors."""
    n = m.nrows
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= {n}, got {r}")
    return exterior_traces(m)[r]


def exterior_traces(m):
    """Traces of every exterior power, r = 0..n, from one characteristic polynomial."""
    coeffs = char_poly(m)
    n = m.nrows
    return tuple(coeffs[n - r] if r % 2 == 0 else -coeffs[n - r] for r in range(n + 1))


class EigenSplit:
    """Outcome of rational spectrum extraction.

    ``roots`` lists (value, multiplicity) sorted by value; ``residual`` is
    the monic factor without rational roots, or None when the polynomial
    splits completely.
    """

    __slots__ = ("roots", "residual")

    def __init__(self, roots, residual):
        object.__setattr__(self, "roots", tuple(roots))
        object.__setattr__(self, "residual", None if residual is None else tuple(residual))

    def __setattr__(self, name, value):
        raise AttributeError("EigenSplit is immutable")

    @property
    def is_split(self):
        return self.residual is None

    def multiset(self):
        out = []
        for value, mult in self.roots:
            out.extend([value] * mult)
        return out

    def __repr__(self):
        return f"EigenSplit(roots={self.roots!r}, residual={self.residual!r})"


def _poly_eval(coeffs, x):
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs, root):
    # divide the monic polynomial by (x - root); exact synthetic division
    out = [ZERO] * (len(coeffs) - 1)
    carry = ZERO
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + carry * root
        out[i - 1] = carry
    return out


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


def _simple_roots_mod_prime(h, dh):
    """The least prime ell not dividing lead(h) at which every root of h mod ell
    is simple, with those roots.

    Every prime dividing neither lead(h) nor the discriminant of the
    squarefree h qualifies, so the search ends.
    """
    ell = 1
    while True:
        ell += 1
        if not is_prime(ell) or h[-1] % ell == 0:
            continue
        roots = [x for x in range(ell) if _eval_mod(h, x, ell) == 0]
        if all(_eval_mod(dh, x, ell) for x in roots):
            return ell, roots


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


def _rational_roots(coeffs):
    """Candidates that include every rational root of a rational polynomial
    with nonzero constant term; the caller confirms each by exact evaluation.

    p-adic expansion (Loos 1983): the simple roots of the squarefree part h
    mod a small prime ell are lifted to ell-adic precision beyond
    2*|h(0)|*lead(h), and each is reconstructed as a fraction whose
    numerator divides h(0) and whose denominator divides lead(h). The cost
    is polynomial in the degree and in the bit size of the coefficients.
    """
    scale = math.lcm(*(int(c.denominator) for c in coeffs))
    f = _primitive([int(c * scale) for c in coeffs])
    h = _exact_quotient(f, _poly_gcd(f, _derivative(f)))
    dh = _derivative(h)
    ell, lifted = _simple_roots_mod_prime(h, dh)
    modulus = ell
    while modulus <= 2 * abs(h[0]) * h[-1]:
        # Newton step: doubles the ell-adic precision of each simple root
        modulus *= modulus
        lifted = [
            (x - _eval_mod(h, x, modulus) * pow(_eval_mod(dh, x, modulus), -1, modulus)) % modulus
            for x in lifted
        ]
    out = []
    for x in lifted:
        num, den = _reconstruct(x, modulus, abs(h[0]))
        if num and h[0] % num == 0 and h[-1] % den == 0:
            out.append(Rational(num) / den)
    return out


def rational_eigenvalues(m):
    """Split the characteristic polynomial into rational roots and a residual.

    Never raises on irrational spectrum; inspect ``is_split`` instead. The
    candidates come from ``_rational_roots``; exact evaluation in the
    deflation loop confirms each one and counts its multiplicity.
    """
    coeffs = list(char_poly(m))
    roots = {}
    zero_mult = 0
    while coeffs[0] == 0 and len(coeffs) > 1:
        coeffs = coeffs[1:]
        zero_mult += 1
    if zero_mult:
        roots[ZERO] = zero_mult
    if len(coeffs) > 1:
        for cand in sorted(_rational_roots(coeffs)):
            while len(coeffs) > 1 and _poly_eval(coeffs, cand) == 0:
                coeffs = _deflate(coeffs, cand)
                roots[cand] = roots.get(cand, 0) + 1
    residual = None if len(coeffs) == 1 else coeffs
    ordered = tuple(sorted(roots.items()))
    return EigenSplit(ordered, residual)


def jordan_nilpotent(sizes):
    """Canonical nilpotent with the given Jordan block sizes (ones above the diagonal)."""
    sizes = [int(k) for k in sizes]
    if not sizes or any(k < 1 for k in sizes):
        raise ValueError("block sizes must be positive")
    n = sum(sizes)
    rows = [[ZERO] * n for _ in range(n)]
    offset = 0
    for k in sizes:
        for i in range(k - 1):
            rows[offset + i][offset + i + 1] = ONE
        offset += k
    return Matrix(rows)


def jordan_partition(n_mat):
    """Jordan block sizes of a nilpotent matrix, largest first.

    Computed as the conjugate of the kernel-growth partition
    (dim ker N^i - dim ker N^(i-1)).
    """
    from .partitions import Partition, conjugate

    if not n_mat.is_square:
        raise ValueError("jordan_partition needs a square matrix")
    size = n_mat.nrows
    growth = []
    prev = 0
    power = Matrix.identity(size)
    for _ in range(size):
        power = power @ n_mat
        cur = kernel_dim(power)
        if cur == prev:
            break
        growth.append(cur - prev)
        prev = cur
    if prev != size:
        raise NonNilpotentMonodromy(size)
    return conjugate(Partition(growth))


class Subspace:
    """A linear subspace of Q^n with a canonical reduced-echelon basis.

    Two spans of the same space compare equal and hash equal.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient, vectors):
        ambient = int(ambient)
        rows = [list(map(_as_rational, v)) for v in vectors]
        if any(len(r) != ambient for r in rows):
            raise ValueError("vector length mismatch")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(map(tuple, _rref(rows)[0])) if rows else ())

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _reduced(cls, ambient, rows):
        """The span of rows that are already a reduced echelon basis."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient", ambient)
        object.__setattr__(sub, "basis", tuple(map(tuple, rows)))
        return sub

    @classmethod
    def span(cls, ambient, vectors):
        return cls(ambient, vectors)

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, [])

    @classmethod
    def full(cls, ambient):
        return cls(ambient, Matrix.identity(ambient).rows)

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        if not self.basis:
            raise ValueError("the zero subspace has no basis matrix")
        return Matrix.from_columns(self.basis, self.ambient)

    def _reduce(self, vector):
        v = list(map(_as_rational, vector))
        for row in self.basis:
            pivot = next(i for i, x in enumerate(row) if x != 0)
            if v[pivot] != 0:
                factor = v[pivot]
                v = [a - factor * b for a, b in zip(v, row)]
        return v

    def contains_vector(self, vector):
        return all(x == 0 for x in self._reduce(vector))

    def contains(self, other):
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(v) for v in other.basis)

    def intersect(self, other):
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient
        if self.dim == 0 or other.dim == n:
            return self
        if other.dim == 0 or self.dim == n:
            return other
        # Zassenhaus: in the echelon form of the rows (u | u) and (v | 0), the
        # rows whose pivot lies in the right half are (0 | w) for w running
        # over a reduced echelon basis of the intersection
        stack = [u + u for u in _primitive_rows(self.basis)]
        stack += [v + [0] * n for v in _primitive_rows(other.basis)]
        pivots = _echelon(stack)
        k = sum(1 for c in pivots if c < n)
        return Subspace._reduced(n, _pivot_rows(stack[k:], pivots[k:], n))

    def is_stable_under(self, m):
        if m.ncols != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector((m @ Matrix.from_columns([v], self.ambient)).column(0))
                   for v in self.basis)

    def restrict(self, m):
        """Matrix of m on this subspace in its canonical basis."""
        if self.dim == 0:
            raise ValueError("cannot restrict to the zero subspace")
        b = self.matrix()
        x = solve_columns(b, m @ b)
        if x is None:
            raise ValueError("subspace is not stable under the given matrix")
        return x

    def sort_key(self):
        return (self.dim, self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of Q^{self.ambient})"
