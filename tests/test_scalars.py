import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from phinlab.scalars import (
    BACKEND,
    QExtScalar,
    Rational,
    TwistedScalar,
    format_rational,
    is_prime,
    padic_val,
    parse_rational,
    rational_literal,
)


def test_backend_is_fraction():
    assert BACKEND == "fraction" and Rational is Fraction


def test_rational_strings_are_lowest_terms():
    assert format_rational(Rational("2/4")) == "1/2"
    assert format_rational(Rational("-6/4")) == "-3/2"
    assert format_rational(Rational(5)) == "5"
    assert format_rational(Rational(0)) == "0"


def test_parse_rational_accepts_canonical_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    assert parse_rational("0") == 0
    assert parse_rational(" 1/2 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["", "1/0", "1.5", "1/-2", "a", "--3", "1/2/3", "+-1", "1e3"])
def test_parse_rational_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", [
    "\u0661/\u0662",   # Arabic-Indic digits: isdigit and Fraction's regex both take them
    "\u0661",
    "3/\u00b2",         # a superscript two is a digit to isdigit but not to int()
    "\u00b2",
    "\uff11/2",         # a fullwidth one
    "-\u0967",
    "1/\u0660",
])
def test_parse_rational_takes_ascii_digits_only(bad):
    for parse in (parse_rational, rational_literal):
        with pytest.raises(ValueError) as exc:
            parse(bad)
        assert str(exc.value) == f"not a rational literal: {bad!r}"


@pytest.mark.parametrize("text, pair", [
    ("3/4", (3, 4)), ("-7", (-7, 1)), ("0", (0, 1)), ("-0", (0, 1)),
    (" 2/4 ", (2, 4)), ("007/010", (7, 10)),
])
def test_rational_literal_reads_integers_unreduced(text, pair):
    assert rational_literal(text) == pair
    assert all(type(x) is int for x in rational_literal(text))
    assert parse_rational(text) == Fraction(*pair)


def old_parse_rational(text):
    """The grammar before it was limited to ASCII digits: an isdigit check,
    then Fraction's own parser."""
    s = text.strip()
    body = s[1:] if s[:1] == "-" else s
    num, slash, den = body.partition("/")
    if not num.isdigit() or (slash and (not den.isdigit() or int(den) == 0)):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(s)


@given(st.text(alphabet="0123456789-+/ ._e\u0661\u00b2\uff11", max_size=8))
def test_parse_rational_keeps_the_grammar_on_ascii_digits(text):
    try:
        got = parse_rational(text)
    except ValueError as err:
        assert str(err) == f"not a rational literal: {text!r}"
        got = None
    if all(c.isascii() for c in text if c.isdigit()):
        try:
            want = old_parse_rational(text)
        except ValueError:
            want = None
        assert got == want
    else:
        assert got is None


@given(st.fractions())
def test_rational_round_trip(x):
    assert parse_rational(format_rational(Rational(x))) == x


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101}
    for n in range(-3, 102):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)


def test_is_prime_refuses_from_the_least_pseudoprime_to_its_bases_on():
    # 399165290221 * 798330580441 is a strong pseudoprime to every base 2..37
    psi_12 = 399165290221 * 798330580441
    for n in (psi_12, psi_12 + 2, 2 ** 89 - 1, 10 ** 4298 + 7):
        with pytest.raises(ValueError, match="only below 318665857834031151167461"):
            is_prime(n)
    assert is_prime(2 ** 61 - 1) and not is_prime(psi_12 - 1)


def test_padic_val_basics():
    assert padic_val(8, 2) == 3
    assert padic_val(Fraction(9, 4), 2) == -2
    assert padic_val(Fraction(9, 4), 3) == 2
    assert padic_val(-50, 5) == 2
    assert padic_val(7, 3) == 0
    assert padic_val(0, 7) == math.inf


def test_padic_val_rejects_composite_p():
    with pytest.raises(ValueError):
        padic_val(4, 6)


def test_int_val_counts_every_valuation_for_any_base():
    from phinlab.scalars import _int_val

    for p in (2, 3, 4, 6, 10):
        for v in range(70):
            for unit in (1, -1, 2, 7, -13):
                if unit % p:
                    assert _int_val(p ** v * unit, p) == v, (p, v, unit)


def test_padic_val_of_a_high_power_takes_no_division_per_unit():
    # dividing by p once per unit of valuation took 3 s and 1.7 s on these
    start = time.perf_counter()
    assert padic_val(3 * 2 ** 100000, 2) == 100000
    assert padic_val(Fraction(5, 3 ** 60000), 3) == -60000
    assert time.perf_counter() - start < 1.0


@given(
    st.fractions().filter(lambda x: x != 0),
    st.fractions().filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 13]),
)
def test_padic_val_is_additive(x, y, p):
    assert padic_val(x * y, p) == padic_val(x, p) + padic_val(y, p)


def test_valuation_ordering_with_infinity():
    inf = padic_val(0, 2)
    assert inf > 10**9
    assert inf >= inf
    assert inf == padic_val(0, 3)
    assert not (inf < inf)
    assert padic_val(Fraction(1, 4), 2) < 0 <= padic_val(3, 2) < inf
    assert inf + 5 == math.inf
    assert padic_val(8, 2) + padic_val(Fraction(1, 2), 2) == 2
    assert padic_val(Fraction(1, 8), 2) * 2 == -6
    assert inf * 3 == math.inf


def test_qext_multiplication_pinned():
    # (1 + 2*sqrt(2)) * (3 + sqrt(2)) = 7 + 7*sqrt(2)
    x = QExtScalar(1, 2, 2)
    y = QExtScalar(3, 1, 2)
    assert x * y == QExtScalar(7, 7, 2)


def test_qext_perfect_square_folds():
    assert QExtScalar(0, 1, 4) == 2
    assert QExtScalar(3, Fraction(1, 2), 9) == Fraction(9, 2)
    assert QExtScalar(1, 5, 1) == 6
    assert QExtScalar(0, 1, 4).is_rational


def test_qext_half_powers():
    assert QExtScalar.q_half_power(2, 2) == 2
    assert QExtScalar.q_half_power(2, -2) == Fraction(1, 2)
    assert QExtScalar.q_half_power(2, 3) == QExtScalar(0, 2, 2)
    assert QExtScalar.q_half_power(2, -1) == QExtScalar(0, Fraction(1, 2), 2)
    assert QExtScalar.q_half_power(9, 3) == 27


def test_qext_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        QExtScalar(0, 1, 2) * QExtScalar(0, 1, 3)
    # but a rational element carries its q only formally
    assert QExtScalar(5, 0, 2) * QExtScalar(0, 1, 3) == QExtScalar(0, 5, 3)


def test_qext_ring_laws_random():
    rng = random.Random(7)

    def rand_elt(q):
        pick = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return QExtScalar(pick(), pick(), q)

    for q in (2, 3, 5, 4):
        for _ in range(60):
            x, y, z = rand_elt(q), rand_elt(q), rand_elt(q)
            assert x * y == y * x
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == QExtScalar(0, 0, q)
            assert x * QExtScalar(1, 0, q) == x


def test_qext_rational_extraction():
    assert QExtScalar(0, 1, 2) * QExtScalar(0, 1, 2) == 2
    with pytest.raises(ValueError):
        QExtScalar(0, 1, 2).rational()
    assert QExtScalar(Fraction(3, 2), 0, 7).rational() == Fraction(3, 2)


def test_twisted_scalar_folds_at_e_one():
    t = TwistedScalar(Fraction(3, 2), -2, 2, 1)
    assert t.is_rational
    assert t.rational() == Fraction(3, 8)
    assert t.val == -3


def test_twisted_scalar_symbolic_at_higher_e():
    t = TwistedScalar(Fraction(1, 2), 3, 2, 2)
    assert not t.is_rational
    assert t.val == 2 * (-1) + 3
    with pytest.raises(ValueError):
        t.rational()
    assert TwistedScalar(0, 1, 2, 2).val == math.inf


def test_twisted_scalar_is_valued_before_the_fold():
    # valuing the folded coefficient 3 * 2^100000 took 3 s
    start = time.perf_counter()
    t = TwistedScalar(3, 10 ** 5, 2, 1)
    assert t.is_rational and t.coeff == 3 * 2 ** 10 ** 5 and t.val == 10 ** 5
    assert TwistedScalar(Fraction(4, 9), -10 ** 5, 3, 1).val == -2 - 10 ** 5
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("coeff", [Fraction(0), Fraction(3), Fraction(-12, 5), Fraction(9, 4),
                                   Fraction(-7, 18)], ids=str)
@pytest.mark.parametrize("pi_exp", [-3, -1, 0, 2])
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
def test_twisted_scalar_matches_the_fraction_fold(coeff, pi_exp, e, p):
    t = TwistedScalar(coeff, pi_exp, p, e)
    assert t.val == padic_val(coeff, p) * e + pi_exp
    if e == 1:
        assert (t.coeff, t.pi_exp) == (coeff * Fraction(p) ** pi_exp, 0)
    else:
        assert (t.coeff, t.pi_exp) == (coeff, pi_exp)
    assert type(t.coeff) is Fraction


def test_qext_keeps_a_rational_part_as_given():
    x = Rational(7, 3)
    for q in (2, 4):
        v = QExtScalar(x, 0, q)
        assert v.a is x and v.b == 0
