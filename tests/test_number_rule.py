"""The one number rule: every site that takes a number from a caller tests it
with ``scalars.is_int`` or reads it with ``scalars.as_rational``.

An int slot takes ints and refuses 0.5 and True. A rational slot takes
ints, Fractions and "3/2", and refuses 0.5 and True (TypeError) and the
strings "1.5" and "1e3", which Fraction's own parser would read (ValueError).
A site with its own message for a bad value keeps it, so each int slot
names the error it raises and a fragment of its text, where "{bad}" stands
for the repr of the value refused. Those sites that refused a value with
that same message before the rule keep passing on it.
"""

import re
from fractions import Fraction

import pytest

from phinlab.errors import BadFlag, InputError, SchemaError
from phinlab.hecke import HeckeParams
from phinlab.linalg import Matrix, Partition, Subspace, jordan_nilpotent
from phinlab.modules import FieldDescriptor, build_module
from phinlab.partitions import PartitionFunction, strata_thresholds
from phinlab.scalars import TwistedScalar, as_rational, is_int, is_prime, padic_val
from phinlab.schema import _as_int
from phinlab.weil_deligne import (
    Segment,
    UnramifiedCharacter,
    match_chains,
    prime_power_base,
)


def rank_one(n=1, jump=0):
    return build_module(FieldDescriptor(p=2), n, [[1]], [[0]], {"k0": (Matrix.identity(1), [jump])})


# name -> (call with the value in the slot, a good int, error, message fragment)
INT_SLOTS = {
    "is_prime": (is_prime, 3, TypeError, "ints only"),
    "padic_val p": (lambda v: padic_val(4, v), 2, TypeError, "ints only"),
    "TwistedScalar pi_exp": (lambda v: TwistedScalar(3, v, 3, 2), 1, TypeError, "must be ints"),
    "TwistedScalar p": (lambda v: TwistedScalar(3, 0, v, 1), 3, TypeError, "ints only"),
    "TwistedScalar e": (lambda v: TwistedScalar(3, 0, 3, v), 2, TypeError, "must be ints"),
    "Subspace ambient": (lambda v: Subspace(v, [[1, 0]]), 2, TypeError, "must be an int"),
    "Partition part": (lambda v: Partition([v]), 2, ValueError, "positive integers"),
    "jordan_nilpotent size": (lambda v: jordan_nilpotent([v]), 2, ValueError, "positive integers"),
    "FieldDescriptor p": (lambda v: FieldDescriptor(p=v), 2, TypeError, "ints only"),
    **{f"FieldDescriptor {name}": (lambda v, name=name: FieldDescriptor(p=2, **{name: v}), 2,
                                   ValueError, f"{name} must be a positive integer")
       for name in ("f0", "e", "f", "degree_factor")},
    "build_module rank": (lambda v: rank_one(n=v), 1, InputError, "rank must be a positive integer"),
    "build_module jump": (lambda v: rank_one(jump=v), 0, BadFlag, "integer jumps"),
    "strata_thresholds n": (lambda v: strata_thresholds(PartitionFunction({"k0": (1,)}), v), 1,
                            ValueError, "expected {bad}"),
    "prime_power_base": (prime_power_base, 9, InputError, "an integer >= 2"),
    "Segment length": (lambda v: Segment(1, v), 2, ValueError, "a positive integer"),
    "match_chains part": (lambda v: match_chains([1], [v], 2, 2), 1, TypeError, "must be ints"),
    "match_chains q": (lambda v: match_chains([1], [1], v, 2), 2, TypeError, "must be ints"),
    "HeckeParams n": (lambda v: HeckeParams(v, 2, 1), 2, InputError, "n must be a positive integer"),
    "HeckeParams q": (lambda v: HeckeParams(2, v, 1), 3, InputError, "q must be an integer"),
    "HeckeParams r": (lambda v: HeckeParams(2, 2, v), 1, InputError, "r must satisfy"),
    "schema._as_int": (lambda v: _as_int(v, "n"), 2, SchemaError, "expected an integer"),
}

# name -> call with the value in the slot
RATIONAL_SLOTS = {
    "as_rational": as_rational,
    "padic_val x": lambda v: padic_val(v, 3),
    "TwistedScalar coeff": lambda v: TwistedScalar(v, 0, 3, 1),
    "Matrix entry": lambda v: Matrix([[v]]),
    "Subspace entry": lambda v: Subspace(1, [[v]]),
    "Segment chi": lambda v: Segment(v, 1),
    "UnramifiedCharacter value": lambda v: UnramifiedCharacter([v]),
    "match_chains value": lambda v: match_chains([v], [1], 2, 2),
}


@pytest.mark.parametrize("site", INT_SLOTS)
def test_an_int_slot_takes_an_int(site):
    call, good, _, _ = INT_SLOTS[site]
    call(good)


@pytest.mark.parametrize("bad", [0.5, True], ids=["0.5", "True"])
@pytest.mark.parametrize("site", INT_SLOTS)
def test_an_int_slot_refuses_a_float_and_a_bool(site, bad):
    call, _, error, fragment = INT_SLOTS[site]
    with pytest.raises(error, match=re.escape(fragment.format(bad=repr(bad)))):
        call(bad)


@pytest.mark.parametrize("good", [3, Fraction(3, 2), "3/2"], ids=["3", "Fraction", "3/2"])
@pytest.mark.parametrize("site", RATIONAL_SLOTS)
def test_a_rational_slot_takes_ints_fractions_and_literals(site, good):
    RATIONAL_SLOTS[site](good)


@pytest.mark.parametrize("bad,error", [(0.5, TypeError), (True, TypeError),
                                       ("1.5", ValueError), ("1e3", ValueError)],
                         ids=["0.5", "True", "1.5", "1e3"])
@pytest.mark.parametrize("site", RATIONAL_SLOTS)
def test_a_rational_slot_refuses_floats_bools_and_decimal_strings(site, bad, error):
    with pytest.raises(error):
        RATIONAL_SLOTS[site](bad)


def test_the_rule_itself():
    assert is_int(3) and is_int(-(10 ** 30)) and not is_int(True) and not is_int(3.0)
    assert not is_int(Fraction(3)) and not is_int("3")
    value = Fraction(3, 2)
    assert as_rational(value) is value and as_rational(7) == 7 and type(as_rational(7)) is int
    assert as_rational(" -6/4 ") == Fraction(-3, 2)
    with pytest.raises(TypeError):
        as_rational(None)


def test_equal_twisted_scalars_hash_equal():
    # 3/2 * pi^1 folds to 3 at e = 1, and "3" reads as 3
    pairs = [(TwistedScalar(3, 0, 2, 1), TwistedScalar(Fraction(3, 2), 1, 2, 1)),
             (TwistedScalar(3, 1, 2, 2), TwistedScalar("3", 1, 2, 2))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert TwistedScalar(3, 1, 2, 2) != TwistedScalar(6, 0, 2, 2)
    # a twisted scalar equals no plain rational, from either side
    assert TwistedScalar(3, 0, 2, 1) != Fraction(3) and Fraction(3) != TwistedScalar(3, 0, 2, 1)
    assert Fraction(3) not in {TwistedScalar(3, 0, 2, 1)}
