"""Double-coset operators on unramified principal series, computed two ways.

theta_closed evaluates the scalar q^{r(1-r)/2} * e_r(psi) directly, while
theta_enumerated rebuilds it from the coset decomposition: one class per
r-subset S of {1..n}, each contributing |Lambda_S| copies of the spherical
value f(beta_S); coset_classes(h) lists the classes and their sizes, and
theta_enumerated prices each class in the loop that sums it. The
half-powers of q inside f add up to the whole power q^{sum(S) - rn}, so
every class value and the total are exact rationals.
The class count C(n, r) goes through the work budget in config before any
class is built. Keeping both routes alive is the point, so neither is
defined in terms of the other. Both run on the integer numerators a_i and
denominators b_i of psi: a class value is prod a_i / (prod b_i *
q^{rn - sum(S)}) over S, normalised once, and the classes are summed as one
integer over the common denominator q^{rn - r(r+1)/2} * prod b_i.
"""

import math
from itertools import combinations, product

from .config import check_work_units
from .errors import InputError
from .linalg import Matrix, _linear_product
from .scalars import Frozen, Rational, TwistedScalar, as_rational, is_int, is_prime

__all__ = [
    "HeckeParams",
    "CosetClass",
    "coset_classes",
    "spherical_value",
    "elementary_symmetric",
    "theta_closed",
    "theta_enumerated",
    "theta_tilde",
    "materialize_representatives",
]


class HeckeParams(Frozen):
    __slots__ = ("n", "q", "r")

    def __init__(self, n, q, r):
        if not (is_int(n) and n >= 1):
            raise InputError(f"n must be a positive integer, got {n!r}")
        if not (is_int(q) and q >= 2):
            raise InputError(f"q must be an integer >= 2, got {q!r}")
        if not (is_int(r) and 1 <= r <= n):
            raise InputError(f"r must satisfy 1 <= r <= n={n}, got {r!r}")
        Frozen.__init__(self, n, q, r)


class CosetClass(Frozen):
    """An r-subset S with the size of its block Lambda_S."""

    __slots__ = ("S", "count")


def _as_character(psi, n):
    """psi as a tuple of n nonzero ints or rationals, each read by the
    number rule; the one check of a character's values."""
    psi = tuple(map(as_rational, psi))
    if 0 in psi:
        raise InputError(f"psi entry {psi.index(0) + 1} is 0; character values must be nonzero")
    if len(psi) != n:
        raise InputError(f"character needs {n} values, got {len(psi)}")
    return psi


def _index_set(S, h):
    """S as a tuple, checked to hold r distinct indices in 1..n."""
    S = tuple(S)
    if len(S) != h.r or len(set(S)) != h.r or not all(1 <= i <= h.n for i in S):
        raise InputError(f"S={S} must hold r={h.r} indices in 1..n={h.n}")
    return S


def _split(values):
    """Numerators a_i and positive denominators b_i of ints or rationals."""
    return [v.numerator for v in values], [v.denominator for v in values]


def coset_classes(h):
    """One class per r-subset of {1..n}, in lexicographic order.

    count = q^{r(n-r) + r(r+1)/2 - sum(S)}; the exponent is never negative
    (it hits 0 exactly at the top subset {n-r+1..n}).
    """
    check_work_units(math.comb(h.n, h.r), "coset classes")
    top = h.r * (h.n - h.r) + h.r * (h.r + 1) // 2
    return [CosetClass(S, h.q ** (top - sum(S))) for S in combinations(range(1, h.n + 1), h.r)]


def spherical_value(S, psi, h):
    """Product of the half-density and twisted-character factors at beta_S.

    Both factors are half-powers of q times rationals: delta^{1/2}
    contributes q^{(2*sum(S) - r(n+1))/2} and the character side
    contributes q^{-r(n-1)/2} times the product of the S-entries. The two
    half-powers add up to q^{sum(S) - rn}, so the value is the rational
    q^{sum(S) - rn} * prod(psi_i for i in S). An S that is not r distinct
    indices in 1..n raises InputError.
    """
    nums, dens = _split(_as_character(psi, h.n))
    return _spherical(_index_set(S, h), nums, dens, h)


def _spherical(S, nums, dens, h):
    """spherical_value for a valid S, from the split entries of psi."""
    num = den = 1
    for i in S:
        num *= nums[i - 1]
        den *= dens[i - 1]
    # sum(S) <= rn, so q^{sum(S) - rn} goes to the denominator
    return Rational(num, den * h.q ** (h.r * h.n - sum(S)))


def _expansion(values):
    """Integer coefficients c_0 .. c_n of prod(b_i + a_i*x); e_r = c_r / c_0."""
    return _linear_product((v.denominator, v.numerator) for v in values)


def elementary_symmetric(values):
    """e_0 .. e_n of ints or rationals, from one integer expansion."""
    coeffs = _expansion(values)
    return [Rational(c, coeffs[0]) for c in coeffs]


def theta_closed(psi, h):
    """q^{r(1-r)/2} * e_r(psi); r(r-1) is even so this is always rational."""
    coeffs = _expansion(_as_character(psi, h.n))
    return Rational(coeffs[h.r], coeffs[0] * h.q ** (h.r * (h.r - 1) // 2))


def theta_enumerated(psi, h):
    """Sum count * f(beta_S) over all classes, as one integer over a
    denominator that every class value's denominator divides."""
    nums, dens = _split(_as_character(psi, h.n))
    den = h.q ** (h.r * h.n - h.r * (h.r + 1) // 2) * math.prod(dens)
    total = 0
    for c in coset_classes(h):
        value = _spherical(c.S, nums, dens, h)
        total += c.count * value.numerator * (den // value.denominator)
    return Rational(total, den)


def theta_tilde(psi, xi, field):
    """Rescaled eigenvalues q^{r(r-1)/2} * pi^{-t_r} * theta_closed for
    r = 1..n, n = len(psi), with xi mapping each embedding label to n
    integer weights and t_r as in ``_twisted``. The factor q^{r(r-1)/2}
    cancels the one theta_closed divides by, so the coefficient is
    e_r(psi) itself and q never enters."""
    psi = tuple(psi)
    n = len(psi)
    if set(xi) != set(field.embeddings):
        raise InputError(
            f"weight labels {sorted(xi)} do not match embeddings {sorted(field.embeddings)}"
        )
    for label in xi:
        if len(xi[label]) != n:
            raise InputError(f"xi[{label}] needs {n} entries, got {len(xi[label])}")
    return _twisted(elementary_symmetric(_as_character(psi, n))[1:], xi, field)


def _twisted(values, xi, field):
    """values[r - 1] * pi^{-t_r} for r = 1..n, t_r the sum of the weights xi
    at positions j >= r (1-indexed) across every embedding label, kept as
    one running sum from r = n down. The uniformizer power folds into the
    coefficient exactly when field.e == 1."""
    rows, twist = [], 0
    for r in range(len(values), 0, -1):
        twist += sum(xi[label][r - 1] for label in field.embeddings)
        rows.append(TwistedScalar(values[r - 1], -twist, field.p, field.e))
    return rows[::-1]


def materialize_representatives(S, h):
    """Explicit integer matrices for Lambda_S; prime q only.

    Upper triangular with diagonal q at the S positions and 1 elsewhere,
    and a free residue in {0..q-1} at each (i, j) with i in S, j not in S,
    i < j. Composite q has no integer residue system, so it is rejected;
    counts for those come from the formula alone. An S that is not r
    distinct indices in 1..n raises InputError.
    """
    if not is_prime(h.q):
        raise InputError(f"explicit representatives need a prime q, got {h.q}")
    S = _index_set(S, h)
    free = [(i, j) for i in S for j in range(1, h.n + 1) if j not in S and j > i]
    check_work_units(h.q ** len(free), "coset representatives")
    out = []
    for combo in product(range(h.q), repeat=len(free)):
        rows = [[int(a == b) for b in range(h.n)] for a in range(h.n)]
        for i in S:
            rows[i - 1][i - 1] = h.q
        for (i, j), t in zip(free, combo):
            rows[i - 1][j - 1] = t
        out.append(Matrix._from_ints(rows, 1))
    return out
