"""Both Hecke routes on integers against the Fraction arithmetic they replaced.

The references below multiply and add Fractions one factor at a time, as the
package did before its class values, class sum and e_r moved to integers.
Denominators of psi sharing a factor with q (q, q^2, 7q) exercise the common
denominator of the class sum; coprime ones exercise the prod b_i factor.
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
)
from phinlab.scalars import Rational
from phinlab.weil_deligne import UnramifiedCharacter


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
        got = coset_classes(h, UnramifiedCharacter(psi))
        assert [(c.S, c.count) for c in got] == [(S, count) for S, count, _ in want]
        for c, (_, _, value) in zip(got, want):
            assert type(c.foval) is Rational and c.foval == value
            assert spherical_value(c.S, psi, h) == c.foval
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
            for k in range(n + 1):
                got = elementary_symmetric(values, k)
                assert type(got) is Rational and got == elementary_symmetric_reference(values, k)


@pytest.mark.parametrize("route", [theta_closed, theta_enumerated])
def test_a_zero_psi_entry_is_an_input_error(route):
    with pytest.raises(InputError) as exc:
        route((1, 0), HeckeParams(2, 2, 1))
    assert str(exc.value) == "psi entry 2 is 0; character values must be nonzero"
