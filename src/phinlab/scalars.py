"""Exact scalar arithmetic: rationals, p-adic valuations, and Q(sqrt(q)).

Every rational is a ``fractions.Fraction``; ``Rational`` names that type.

``Frozen`` here is the base of every immutable value type in the package.
"""

import math
from fractions import Fraction

__all__ = [
    "BACKEND",
    "Rational",
    "Frozen",
    "is_prime",
    "parse_rational",
    "rational_literal",
    "format_rational",
    "rational_power",
    "PAdicValuation",
    "padic_val",
    "QExtScalar",
    "TwistedScalar",
]

Rational = Fraction
BACKEND = "fraction"

ZERO = Rational(0)
ONE = Rational(1)


class Frozen:
    """Base of every immutable value type in the package.

    The fields are the ``__slots__`` declared along the MRO, in order. The
    positional ``__init__`` stores one value per field; a subclass that
    validates or normalises its values defines its own ``__init__`` and
    passes them to ``Frozen.__init__(self, ...)``, a direct call because
    ``super()`` would add to every construction. Instances of the same
    class compare and hash field by field, and print as
    ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in klass.__dict__.get("__slots__", ()))

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} values, got {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        # copy and pickle restore slot state through __setattr__ by default,
        # which raises here; rebuild through the one store instead
        return _rebuild, (type(self), self._values())


def _rebuild(cls, values):
    """The inverse of ``Frozen.__reduce__``: a ``cls`` holding ``values``."""
    obj = object.__new__(cls)
    Frozen.__init__(obj, *values)
    return obj


def is_prime(n):
    """Deterministic Miller-Rabin, exact for anything this package meets."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_digits(s):
    return s.isascii() and s.isdigit()


def rational_literal(text):
    """(num, den) integers of the literal 'a' or 'a/b' with b > 0, not reduced.

    The grammar is deliberately strict: an optional '-', ASCII digits, and
    an optional '/' with a nonzero ASCII-digit denominator, surrounded by
    whitespace at most. Anything else raises ``not a rational literal``.
    """
    s = text.strip()
    negative = s[:1] == "-"
    num, slash, den = (s[1:] if negative else s).partition("/")
    if not _is_digits(num) or (slash and not (_is_digits(den) and int(den))):
        raise ValueError(f"not a rational literal: {text!r}")
    return (-int(num) if negative else int(num)), (int(den) if slash else 1)


def parse_rational(text):
    """Parse 'a' or 'a/b' with b > 0 into an exact rational.

    The literal is read into integers by ``rational_literal``, never by
    Fraction's own parser, which also accepts decimals and exponents.
    """
    return Rational(*rational_literal(text))


def format_rational(x):
    """Lowest-terms string, 'a/b' or 'a'."""
    return str(x)


def rational_power(base, exponent):
    """base**exponent as an exact rational, exponent any integer."""
    if exponent >= 0:
        return Rational(base) ** exponent
    b = Rational(base)
    if b == 0:
        raise ZeroDivisionError("0 to a negative power")
    return (ONE / b) ** (-exponent)


def _int_val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PAdicValuation(Frozen):
    """An integer valuation extended by +infinity (the valuation of 0).

    Supports ordering against other valuations and plain ints, addition,
    and scaling by a positive integer (ramification).
    """

    __slots__ = ("_v",)

    def __init__(self, value=None):
        if value is not None and not isinstance(value, int):
            raise TypeError("valuation must be an int or None for +infinity")
        Frozen.__init__(self, value)

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinite(self):
        return self._v is None

    @property
    def value(self):
        if self._v is None:
            raise ValueError("valuation is +infinity")
        return self._v

    def scaled(self, e):
        return PAdicValuation(None if self._v is None else self._v * e)

    def __add__(self, other):
        if isinstance(other, PAdicValuation):
            o = other._v
        elif isinstance(other, int):
            o = other
        else:
            return NotImplemented
        if self._v is None or o is None:
            return PAdicValuation(None)
        return PAdicValuation(self._v + o)

    __radd__ = __add__

    def _key(self, other):
        if isinstance(other, PAdicValuation):
            return other._v
        if isinstance(other, int):
            return other
        return NotImplemented

    def __eq__(self, other):
        o = self._key(other)
        if o is NotImplemented:
            return NotImplemented
        return self._v == o

    def __lt__(self, other):
        o = self._key(other)
        if o is NotImplemented:
            return NotImplemented
        if self._v is None:
            return False
        return o is None or self._v < o

    def __le__(self, other):
        o = self._key(other)
        if o is NotImplemented:
            return NotImplemented
        return self._v == o or self.__lt__(other)

    def __gt__(self, other):
        o = self._key(other)
        if o is NotImplemented:
            return NotImplemented
        return self._v != o and not self.__lt__(other)

    def __ge__(self, other):
        o = self._key(other)
        if o is NotImplemented:
            return NotImplemented
        return not self.__lt__(other)

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        return "inf" if self._v is None else str(self._v)


def padic_val(x, p):
    """p-adic valuation of a rational; val(0) is +infinity.

    Additive: padic_val(x*y) = padic_val(x) + padic_val(y).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    q = Rational(x)
    if q == 0:
        return PAdicValuation.infinity()
    return PAdicValuation(_int_val(abs(q.numerator), p) - _int_val(q.denominator, p))


def _sqrt_if_square(n):
    r = math.isqrt(n)
    return r if r * r == n else None


class QExtScalar(Frozen):
    """Exact element a + b*sqrt(q) of Q(sqrt(q)) for a fixed integer q >= 1.

    When q is a perfect square the irrational part folds into the rational
    part, so b is then always 0. Arithmetic between two elements demands the
    same q; plain rationals and ints coerce freely.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q):
        q = int(q)
        if q < 1:
            raise ValueError(f"q must be a positive integer, got {q}")
        if type(a) is not Rational:
            a = Rational(a)
        if type(b) is not Rational:
            b = Rational(b)
        if b != 0:
            root = _sqrt_if_square(q)
            if root is not None:
                a += b * root
                b = ZERO
        Frozen.__init__(self, a, b, q)

    @classmethod
    def from_rational(cls, value, q):
        return cls(value, ZERO, q)

    @classmethod
    def q_half_power(cls, q, k):
        """q**(k/2) for any integer k (negative allowed)."""
        half, odd = divmod(k, 2)
        body = rational_power(q, half)
        if odd:
            return cls(0, body, q)
        return cls(body, 0, q)

    @property
    def is_rational(self):
        return self.b == 0

    def rational(self):
        if self.b != 0:
            raise ValueError(f"{self!r} has a nonzero sqrt({self.q}) part")
        return self.a

    def _coerce(self, other):
        if isinstance(other, QExtScalar):
            if other.q != self.q and self.b != 0 and other.b != 0:
                raise ValueError(f"mixed radicands sqrt({self.q}) and sqrt({other.q})")
            return other
        return QExtScalar(other, 0, self.q)

    def __add__(self, other):
        o = self._coerce(other)
        q = self.q if self.b != 0 or o.b == 0 else o.q
        return QExtScalar(self.a + o.a, self.b + o.b, q)

    __radd__ = __add__

    def __neg__(self):
        return QExtScalar(-self.a, -self.b, self.q)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        q = self.q if self.b != 0 or o.b == 0 else o.q
        return QExtScalar(
            self.a * o.a + self.b * o.b * q,
            self.a * o.b + self.b * o.a,
            q,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, QExtScalar):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.q == other.q and self.a == other.a and self.b == other.b
        if self.b == 0:
            return self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.q))

    def __repr__(self):
        if self.b == 0:
            return f"QExtScalar({self.a})"
        return f"QExtScalar({self.a} + {self.b}*sqrt({self.q}))"


class TwistedScalar(Frozen):
    """A rational times a formal power of the uniformizer: coeff * pi^k.

    In the unramified case (e = 1) the uniformizer is p itself, so the
    power folds into the coefficient and ``rational()`` is available. For
    e > 1 the pair stays symbolic and only the valuation is meaningful:
    val_F(coeff * pi^k) = e * val_p(coeff) + k.
    """

    __slots__ = ("coeff", "pi_exp", "p", "e")

    def __init__(self, coeff, pi_exp, p, e):
        coeff = Rational(coeff)
        pi_exp = int(pi_exp)
        if e == 1 and pi_exp:
            coeff = coeff * rational_power(p, pi_exp)
            pi_exp = 0
        Frozen.__init__(self, coeff, pi_exp, int(p), int(e))

    @property
    def is_rational(self):
        return self.pi_exp == 0

    def rational(self):
        if self.pi_exp:
            raise ValueError("value carries an unevaluated uniformizer power")
        return self.coeff

    def val_f(self):
        return padic_val(self.coeff, self.p).scaled(self.e) + self.pi_exp

    def __eq__(self, other):
        if not isinstance(other, TwistedScalar):
            if self.pi_exp == 0:
                return self.coeff == other
            return NotImplemented
        return (
            self.coeff == other.coeff
            and self.pi_exp == other.pi_exp
            and self.p == other.p
            and self.e == other.e
        )

    def __hash__(self):
        return hash((self.coeff, self.pi_exp, self.p, self.e))

    def __repr__(self):
        if self.pi_exp == 0:
            return f"TwistedScalar({self.coeff})"
        return f"TwistedScalar({self.coeff} * pi^{self.pi_exp})"
