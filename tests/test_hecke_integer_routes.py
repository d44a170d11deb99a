"""Both Hecke routes on integers against the Fraction arithmetic they replaced.

The references below multiply and add Fractions one factor at a time, as the
package did before its class values, class sum and e_r moved to integers.
Denominators of psi sharing a factor with q (q, q^2, 7q) exercise the common
denominator of the class sum; coprime ones exercise the prod b_i factor.
The rescaled eigenvalues, all n of them from one expansion and one running
twist sum, are checked against one integer expansion and one twist window
per r, as the package formed them before.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from phinlab.errors import InputError
from phinlab.hecke import (
    HeckeParams,
    coset_classes,
    elementary_symmetric,
    spherical_value,
    theta_closed,
    theta_enumerated,
    theta_tilde,
)
from phinlab.modules import FieldDescriptor
from phinlab.scalars import Rational, TwistedScalar


def spherical_reference(S, psi, n, q, r):
    k = (2 * sum(S) - r * (n + 1)) - r * (n - 1)
    assert k % 2 == 0
    value = Fraction(q) ** (k // 2)
    for i in S:
        value = value * Fraction(psi[i - 1])
    return value


def elementary_symmetric_reference(values, r):
    if r == 0:
        return Fraction(1)
    dp = [Fraction(1)] + [Fraction(0)] * r
    for v in values:
        for k in range(r, 0, -1):
            dp[k] = dp[k] + Fraction(v) * dp[k - 1]
    return dp[r]


def classes_reference(psi, n, q, r):
    """(S, count, value) per r-subset, in lexicographic order."""
    out = []
    for S in combinations(range(1, n + 1), r):
        count = q ** (r * (n - r) + r * (r + 1) // 2 - sum(S))
        out.append((S, count, spherical_reference(S, psi, n, q, r)))
    return out


def random_psi(rng, n, q):
    coprime = [d for d in range(2, 60) if math.gcd(d, q) == 1]
    vals = []
    for _ in range(n):
        num = rng.choice([x for x in range(-40, 41) if x])
        den = rng.choice([1, q, q * q, 7 * q, rng.choice(coprime), rng.choice(coprime)])
        vals.append(Fraction(num, den))
    return vals


def cases():
    rng = random.Random(101)
    for q in (2, 3, 4, 5, 9, 25):
        for n in range(1, 9):
            for r in range(1, n + 1):
                for _ in range(2):
                    yield n, q, r, random_psi(rng, n, q)


def test_integer_routes_match_the_fraction_references():
    seen = 0
    for n, q, r, psi in cases():
        h = HeckeParams(n, q, r)
        want = classes_reference(psi, n, q, r)
        got = coset_classes(h)
        assert [(c.S, c.count) for c in got] == [(S, count) for S, count, _ in want]
        for c, (_, _, value) in zip(got, want):
            got_value = spherical_value(c.S, psi, h)
            assert type(got_value) is Rational and got_value == value
        total = sum((count * value for _, count, value in want), Fraction(0))
        closed = Fraction(q) ** (r * (1 - r) // 2) * elementary_symmetric_reference(psi, r)
        assert total == closed
        for route, expected in ((theta_enumerated, total), (theta_closed, closed)):
            value = route(psi, h)
            assert type(value) is Rational and value == expected
        seen += 1
    assert seen == 6 * 36 * 2


def test_elementary_symmetric_matches_the_reference_on_ints_and_fractions():
    for n, _, r, psi in cases():
        if r != n:
            continue
        ints = [v.numerator for v in psi]
        for values in (psi, ints, [Fraction(v) for v in ints]):
            got = elementary_symmetric(values)
            assert all(type(e) is Rational for e in got)
            assert got == [elementary_symmetric_reference(values, k) for k in range(n + 1)]


def elementary_symmetric_per_r(values, r):
    """e_r from an integer expansion of prod(b_i + a_i*x) to degree r alone."""
    dp = [1] + [0] * r
    for v in values:
        for k in range(r, 0, -1):
            dp[k] = dp[k] * v.denominator + v.numerator * dp[k - 1]
        dp[0] *= v.denominator
    return Fraction(dp[r], dp[0])


def test_theta_tilde_matches_one_expansion_and_one_window_per_r():
    rng = random.Random(28)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        labels = ("a", "b", "c")[:rng.randint(1, 3)]
        field = FieldDescriptor(p=rng.choice([2, 3, 5]), e=rng.choice([1, 2]), embeddings=labels)
        psi = random_psi(rng, n, field.q)
        xi = {label: tuple(rng.randint(-6, 6) for _ in range(n)) for label in labels}
        got = theta_tilde(psi, xi, field)
        assert len(got) == n
        for r in range(1, n + 1):
            twist = sum(xi[label][j] for label in labels for j in range(r - 1, n))
            want = TwistedScalar(elementary_symmetric_per_r(psi, r), -twist, field.p, field.e)
            assert got[r - 1] == want
            seen.add((len(labels), field.e, (twist > 0) - (twist < 0)))
    assert seen == {(k, e, sign) for k in (1, 2, 3) for e in (1, 2) for sign in (-1, 0, 1)}


@pytest.mark.parametrize("route", [theta_closed, theta_enumerated])
def test_a_zero_psi_entry_is_an_input_error(route):
    with pytest.raises(InputError) as exc:
        route((1, 0), HeckeParams(2, 2, 1))
    assert str(exc.value) == "psi entry 2 is 0; character values must be nonzero"
