"""Exact scalar arithmetic: rationals, p-adic valuations, and Q(sqrt(q)).

Every rational is a ``fractions.Fraction``; ``Rational`` names that type.
A caller's number passes the one number rule, ``is_int`` or ``as_rational``:
no bool is an int, and no float is a number.
A p-adic valuation is a plain int, or ``math.inf`` for the valuation of 0;
that is the package's one float, and reports print it as "inf".

``Frozen`` here is the base of every immutable value type in the package.
"""

import math
import re
from fractions import Fraction

__all__ = [
    "BACKEND",
    "Rational",
    "Frozen",
    "is_int",
    "as_rational",
    "is_prime",
    "parse_rational",
    "rational_literal",
    "rational_literals",
    "format_rational",
    "padic_val",
    "QExtScalar",
    "TwistedScalar",
]

Rational = Fraction
BACKEND = "fraction"

ZERO = Rational(0)


class Frozen:
    """Base of every immutable value type in the package.

    The fields are the ``__slots__`` declared along the MRO, in order,
    except those whose name starts with ``_``: such a slot is a private
    cache that a subclass fills lazily, and it takes no part in equality,
    hashing, printing or pickling. The positional ``__init__`` stores one
    value per field, through the slot descriptors collected once per
    class; a subclass that validates or normalises its values defines its
    own ``__init__`` and passes them to ``Frozen.__init__(self, ...)``, a
    direct call because ``super()`` would add to every construction.
    Instances of the same class compare and hash field by field, and print
    as ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields = ()
    _stores = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in klass.__dict__.get("__slots__", ()) if name[0] != "_")
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values):
        stores = self._stores
        if len(values) != len(stores):
            raise TypeError(f"{type(self).__name__} takes {len(stores)} values, got {len(values)}")
        for store, value in zip(stores, values):
            store(self, value)

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


def is_int(value):
    """Whether value is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_rational(value):
    """An int or a Fraction as it is, a str read by ``rational_literal``'s
    grammar; TypeError for anything else, a float or a bool among them."""
    if is_int(value) or isinstance(value, Rational):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an int, a Fraction or a rational string, got {value!r}")


_PSI_12 = 318665857834031151167461


def is_prime(n):
    """Deterministic Miller-Rabin on the bases 2..37 for an int n, exact below
    318665857834031151167461, the least strong pseudoprime to all twelve
    (Sorenson and Webster 2015); ValueError, before any power, from there on."""
    if not is_int(n):
        raise TypeError(f"primality is decided for ints only, got {n!r}")
    if n < 2:
        return False
    if n >= _PSI_12:
        raise ValueError(f"primality is decided only below {_PSI_12}")
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


# The grammar of a rational literal: whitespace (whatever str.isspace takes),
# an optional "-", ASCII digits, and an optional "/" with a nonzero ASCII-digit
# denominator, then whitespace. _LITERALS matches one literal, or several
# separated by "," or ";", which no literal holds.
_GRAMMAR = r"\s*-?[0-9]+(?:/0*[1-9][0-9]*)?\s*"
_LITERALS = re.compile(rf"{_GRAMMAR}(?:[,;]{_GRAMMAR})*")


def rational_literal(text):
    """(num, den) integers of the literal 'a' or 'a/b' with b > 0, not reduced.

    The grammar is deliberately strict: an optional '-', ASCII digits, and
    an optional '/' with a nonzero ASCII-digit denominator, surrounded by
    whitespace at most. Anything else raises ``not a rational literal``.
    """
    if "," in text or ";" in text or _LITERALS.fullmatch(text) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.strip().partition("/")
    # the denominator first: when both parts are past the digit limit of
    # int(), the error counts the denominator's digits
    den = int(den) if den else 1
    return int(num), den


def rational_literals(text):
    """(ints, den): the literals of text, separated by "," or ";", as
    integers over their least common denominator, not reduced.

    One match checks the whole text, and builtin string calls cut it into
    integers. ValueError comes for a text that is not such a list, or for
    a literal past the digit limit of int(), and names no literal: a
    caller that needs the one at fault reads them one at a time with
    ``rational_literal``.
    """
    if _LITERALS.fullmatch(text) is None:
        raise ValueError(f"not a list of rational literals: {text!r}")
    # whitespace only pads a literal, so all of it goes: str.split takes
    # what \s does, and int() would not strip U+001C..U+001F
    entries = "".join(text.split()).replace(";", ",").split(",")
    if "/" not in text:
        return list(map(int, entries)), 1
    # a literal holds at most one "/", so with "/1" on the others the
    # parts alternate numerator and denominator
    parts = list(map(int, "/".join([e if "/" in e else e + "/1" for e in entries]).split("/")))
    nums, dens = parts[::2], parts[1::2]
    den = math.lcm(*dens)
    return [a * (den // b) for a, b in zip(nums, dens)], den


def parse_rational(text):
    """Parse 'a' or 'a/b' with b > 0 into an exact rational.

    The literal is read into integers by ``rational_literal``, never by
    Fraction's own parser, which also accepts decimals and exponents.
    """
    return Rational(*rational_literal(text))


def format_rational(x):
    """Lowest-terms string, 'a/b' or 'a'."""
    return str(x)


def _int_val(n, p):
    """How many times p (any int >= 2) divides the nonzero int n: the powers
    p^(2^k) that divide n, found by squaring, are divided out largest first,
    so a valuation v takes O(log v) divisions, not v."""
    powers = []
    power = p
    while n % power == 0:
        powers.append(power)
        power *= power
    v = 0
    for k in range(len(powers) - 1, -1, -1):
        if n % powers[k] == 0:
            n //= powers[k]
            v += 1 << k
    return v


def padic_val(x, p):
    """p-adic valuation of a rational: an int, or ``math.inf`` for 0.

    ``math.inf`` lies above every int and stays infinite when an int is
    added or when it is scaled by a ramification index e >= 1, so the
    valuation of 0 needs no type of its own. Additive:
    padic_val(x*y) = padic_val(x) + padic_val(y).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    q = as_rational(x)
    if q == 0:
        return math.inf
    return _int_val(abs(q.numerator), p) - _int_val(q.denominator, p)


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
    def q_half_power(cls, q, k):
        """q**(k/2) for any integer k (negative allowed)."""
        half, odd = divmod(k, 2)
        body = Rational(q) ** half
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
    val_F(coeff * pi^k) = e * val_p(coeff) + k. It equals no plain rational.
    """

    __slots__ = ("coeff", "pi_exp", "p", "e", "val")

    def __init__(self, coeff, pi_exp, p, e):
        coeff = Rational(as_rational(coeff))
        if not (is_int(pi_exp) and is_int(e)):
            raise TypeError(f"pi_exp and e must be ints, got {pi_exp!r} and {e!r}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        # valued before the fold, whose factor p^pi_exp it would only divide out again
        val = padic_val(coeff, p) * e + pi_exp if coeff else math.inf
        if e == 1 and pi_exp:
            num, den = coeff.numerator, coeff.denominator
            coeff = (Rational(num * p ** pi_exp, den) if pi_exp > 0
                     else Rational(num, den * p ** -pi_exp))
            pi_exp = 0
        Frozen.__init__(self, coeff, pi_exp, p, e, val)

    @property
    def is_rational(self):
        return self.pi_exp == 0

    def rational(self):
        if self.pi_exp:
            raise ValueError("value carries an unevaluated uniformizer power")
        return self.coeff

    def __repr__(self):
        if self.pi_exp == 0:
            return f"TwistedScalar({self.coeff})"
        return f"TwistedScalar({self.coeff} * pi^{self.pi_exp})"
