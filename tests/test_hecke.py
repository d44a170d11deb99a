import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from phinlab.config import WORK_BUDGET
from phinlab.hecke import (
    CosetClass,
    HeckeParams,
    coset_classes,
    materialize_representatives,
    spherical_value,
    theta_closed,
    theta_enumerated,
    theta_tilde,
)
from phinlab.errors import EnumerationCapExceeded, InputError
from phinlab.modules import FieldDescriptor
from phinlab.scalars import Rational, padic_val
from phinlab.weil_deligne import UnramifiedCharacter
from tests_helpers import child_env


# independent oracle: q-binomial via the Pascal-type recurrence, nothing
# shared with the package's count formula
@lru_cache(maxsize=None)
def gauss_binomial(n, r, q):
    if r < 0 or r > n:
        return 0
    if r == 0 or r == n:
        return 1
    return gauss_binomial(n - 1, r, q) + q ** (n - r) * gauss_binomial(n - 1, r - 1, q)


def test_gauss_binomial_oracle_frozen_values():
    assert gauss_binomial(2, 1, 2) == 3
    assert gauss_binomial(3, 1, 2) == 7
    assert gauss_binomial(4, 2, 2) == 35
    assert gauss_binomial(5, 2, 3) == 1210
    assert gauss_binomial(6, 3, 2) == 1395
    assert gauss_binomial(2, 1, 4) == 5
    # symmetry of the q-binomial, cheap sanity on the oracle itself
    for n in range(1, 7):
        for r in range(n + 1):
            assert gauss_binomial(n, r, 3) == gauss_binomial(n, n - r, 3)


def random_psi(rng, n):
    vals = []
    for _ in range(n):
        num = rng.choice([x for x in range(-9, 10) if x != 0])
        vals.append(Fraction(num, rng.randint(1, 9)))
    return UnramifiedCharacter(tuple(vals))


def test_params_validation():
    HeckeParams(3, 2, 2)
    with pytest.raises(InputError):
        HeckeParams(3, 2, 0)
    with pytest.raises(InputError):
        HeckeParams(3, 2, 4)
    with pytest.raises(InputError):
        HeckeParams(3, 1, 1)


def test_coset_classes_pinned_counts():
    for q in (2, 5):
        classes = coset_classes(HeckeParams(2, q, 1))
        assert [(c.S, c.count) for c in classes] == [((1,), q), ((2,), 1)]
    classes = coset_classes(HeckeParams(3, 3, 1))
    assert [c.count for c in classes] == [9, 3, 1]
    classes = coset_classes(HeckeParams(3, 2, 2))
    assert [(c.S, c.count) for c in classes] == [
        ((1, 2), 4), ((1, 3), 2), ((2, 3), 1)]


def test_coset_total_matches_gauss_binomial():
    for q in (2, 3, 5):
        for n in range(1, 9):
            for r in range(1, n + 1):
                total = sum(c.count for c in coset_classes(HeckeParams(n, q, r)))
                assert total == gauss_binomial(n, r, q)


def test_spherical_value_rank_one():
    h = HeckeParams(1, 3, 1)
    v = spherical_value((1,), UnramifiedCharacter((Fraction(5, 2),)), h)
    assert type(v) is Rational and v == Fraction(5, 2)


def test_spherical_value_half_powers_cancel_in_pairs():
    # n=2, r=1: each factor carries sqrt(q) but the product is rational
    h = HeckeParams(2, 2, 1)
    v = spherical_value((1,), UnramifiedCharacter((1, 1)), h)
    assert type(v) is Rational and v == Fraction(1, 2)
    w = spherical_value((2,), UnramifiedCharacter((1, 1)), h)
    assert type(w) is Rational and w == 1
    # weighted by the counts these sum to e_1(1,1): 2*(1/2) + 1*1 = 2
    assert 2 * v + w == 2


def test_theta_closed_pinned():
    assert theta_closed(UnramifiedCharacter((2, 1)), HeckeParams(2, 2, 1)) == 3
    assert theta_closed(UnramifiedCharacter((2, 1)), HeckeParams(2, 2, 2)) == 1
    assert theta_closed(UnramifiedCharacter((1, 1, 1)), HeckeParams(3, 2, 1)) == 3
    assert theta_closed(UnramifiedCharacter((1, 2, 4)), HeckeParams(3, 2, 2)) == 7


def test_theta_enumerated_pinned():
    assert theta_enumerated(UnramifiedCharacter((2, 1)), HeckeParams(2, 2, 1)) == 3
    assert theta_enumerated(UnramifiedCharacter((1, 2, 4)), HeckeParams(3, 2, 2)) == 7


def test_theta_routes_agree_on_random_psi():
    rng = random.Random(67)
    for n in range(1, 5):
        for q in (2, 3, 4):
            for r in range(1, n + 1):
                h = HeckeParams(n, q, r)
                for _ in range(5):
                    psi = random_psi(rng, n)
                    assert theta_enumerated(psi, h) == theta_closed(psi, h)


def test_theta_closed_symmetric_in_psi():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(2, 5)
        q = rng.choice([2, 3, 9])
        r = rng.randint(1, n)
        psi = random_psi(rng, n)
        base = theta_closed(psi, HeckeParams(n, q, r))
        vals = list(psi)
        rng.shuffle(vals)
        assert theta_closed(UnramifiedCharacter(tuple(vals)), HeckeParams(n, q, r)) == base


def test_all_ones_bookkeeping():
    for q in (2, 3):
        for n in range(1, 7):
            ones = UnramifiedCharacter((1,) * n)
            for r in range(1, n + 1):
                expected = Fraction(q) ** (r * (1 - r) // 2) * math.comb(n, r)
                assert theta_closed(ones, HeckeParams(n, q, r)) == expected


def test_top_exterior_power_single_class():
    psi = UnramifiedCharacter((2, 3, Fraction(1, 5), 7))
    h = HeckeParams(4, 3, 4)
    classes = coset_classes(h)
    assert len(classes) == 1 and classes[0].count == 1
    prod = Fraction(2) * 3 * Fraction(1, 5) * 7
    assert theta_enumerated(psi, h) == Fraction(3) ** (-6) * prod


def test_theta_tilde_zero_weights():
    field = FieldDescriptor(p=2)
    psi = UnramifiedCharacter((2, 1))
    t1 = theta_tilde(psi, HeckeParams(2, 2, 1), {"k0": (0, 0)}, field)
    assert t1.rational() == 3
    t2 = theta_tilde(psi, HeckeParams(2, 2, 2), {"k0": (0, 0)}, field)
    assert t2.rational() == 2


def test_theta_tilde_twist_window():
    # only weights with index >= r enter the uniformizer exponent
    field = FieldDescriptor(p=2)
    psi = UnramifiedCharacter((2, 1))
    t1 = theta_tilde(psi, HeckeParams(2, 2, 1), {"k0": (0, 1)}, field)
    assert t1.rational() == Fraction(3, 2)
    t2 = theta_tilde(psi, HeckeParams(2, 2, 2), {"k0": (0, 1)}, field)
    assert t2.rational() == 1
    t3 = theta_tilde(psi, HeckeParams(2, 2, 1), {"k0": (3, 1)}, field)
    assert t3.rational() == Fraction(3, 16)


def test_theta_tilde_ramified_stays_symbolic():
    field = FieldDescriptor(p=2, e=2)
    psi = UnramifiedCharacter((2, 1))
    t = theta_tilde(psi, HeckeParams(2, 2, 1), {"k0": (0, 1)}, field)
    assert not t.is_rational
    assert t.pi_exp == -1
    assert t.val == 2 * 0 - 1  # val_2(3) = 0, scaled by e, minus one pi


def test_theta_tilde_sums_over_embeddings():
    field = FieldDescriptor(p=3, f=1, f0=1, e=1, embeddings=("a", "b"))
    psi = UnramifiedCharacter((3, 1))
    xi = {"a": (0, 1), "b": (1, 1)}
    t = theta_tilde(psi, HeckeParams(2, 3, 1), xi, field)
    # exponent -(0+1+1+1) = -3, so (3+1)/27
    assert t.rational() == Fraction(4, 27)


def _same_coset(b1, b2, p):
    m = b2.inverse() @ b1
    return all(padic_val(x, p) >= 0 for row in m.rows for x in row)


def test_materialized_representatives_match_counts():
    for q in (2, 3):
        for n in range(1, 4):
            for r in range(1, n + 1):
                h = HeckeParams(n, q, r)
                reps = []
                for c in coset_classes(h):
                    batch = materialize_representatives(c.S, h)
                    assert len(batch) == c.count
                    for b in batch:
                        for i in range(n):
                            expected = q if (i + 1) in c.S else 1
                            assert b.rows[i][i] == expected
                    reps.extend(batch)
                assert len(reps) == gauss_binomial(n, r, q)
                for i in range(len(reps)):
                    for j in range(i + 1, len(reps)):
                        assert not _same_coset(reps[i], reps[j], q)


def test_materialize_requires_prime_q():
    with pytest.raises(InputError):
        materialize_representatives((1,), HeckeParams(2, 4, 1))


def test_materialize_over_the_work_budget_is_refused_up_front():
    # S = {1, 2, 3} in n = 7 has 3 * 4 free residues: 3^12 = 531441 matrices
    with pytest.raises(EnumerationCapExceeded) as exc:
        materialize_representatives((1, 2, 3), HeckeParams(7, 3, 3))
    assert str(exc.value) == "coset representatives: 531441 work units exceed the budget of 100000"


def test_class_count_over_the_work_budget_is_refused_up_front():
    # C(30, 15) = 155117520 classes; the gate refuses before building one
    h = HeckeParams(30, 2, 15)
    for route in (lambda: coset_classes(h), lambda: theta_enumerated((1,) * 30, h)):
        with pytest.raises(InputError) as exc:
            route()
        assert str(math.comb(30, 15)) in str(exc.value)
        assert str(WORK_BUDGET) in str(exc.value)
    # the largest classes the benchmark and the acceptance tests use still run
    assert len(coset_classes(HeckeParams(12, 2, 6))) == math.comb(12, 6) <= WORK_BUDGET


@pytest.mark.parametrize("S, text", [
    ((1, 2), "S=(1, 2) must hold r=1 indices in 1..n=2"),
    ((), "S=() must hold r=1 indices in 1..n=2"),
    ((0,), "S=(0,) must hold r=1 indices in 1..n=2"),
    ((3,), "S=(3,) must hold r=1 indices in 1..n=2"),
])
def test_spherical_value_rejects_a_bad_index_set(S, text):
    h = HeckeParams(2, 2, 1)
    for route in (lambda: spherical_value(S, UnramifiedCharacter((3, 5)), h),
                  lambda: materialize_representatives(S, h)):
        with pytest.raises(InputError) as exc:
            route()
        assert str(exc.value) == text


def test_hecke_classes_reject_a_repeated_index():
    h = HeckeParams(2, 2, 2)
    for route in (lambda: spherical_value((1, 1), UnramifiedCharacter((3, 5)), h),
                  lambda: materialize_representatives((1, 1), h)):
        with pytest.raises(InputError) as exc:
            route()
        assert str(exc.value) == "S=(1, 1) must hold r=2 indices in 1..n=2"


@pytest.mark.parametrize("xi, text", [
    ({"k0": (0, 1), "k1": (0, 1)}, "weight labels ['k0', 'k1'] do not match embeddings ['k0']"),
    ({"k0": (0, 1, 2)}, "xi[k0] needs 2 entries, got 3"),
])
def test_theta_tilde_checks_the_weights(xi, text):
    with pytest.raises(InputError) as exc:
        theta_tilde(UnramifiedCharacter((2, 1)), HeckeParams(2, 2, 1), xi, FieldDescriptor(p=2))
    assert str(exc.value) == text


def test_theta_tilde_checks_q_against_the_field():
    with pytest.raises(InputError) as exc:
        theta_tilde(UnramifiedCharacter((2, 1)), HeckeParams(2, 3, 1), {"k0": (0, 1)},
                    FieldDescriptor(p=2))
    assert str(exc.value) == "params have q=3 but the field's residue cardinality is 2"


def test_spherical_value_checks_its_index_set_under_python_o():
    code = (
        "from phinlab.errors import InputError\n"
        "from phinlab.hecke import HeckeParams, spherical_value\n"
        "from phinlab.weil_deligne import UnramifiedCharacter\n"
        "try:\n"
        "    spherical_value((0,), UnramifiedCharacter((3, 5)), HeckeParams(2, 2, 1))\n"
        "except InputError as err:\n"
        "    print(err)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (
        0, "S=(0,) must hold r=1 indices in 1..n=2\n", "")
