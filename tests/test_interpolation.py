import random
from fractions import Fraction

import pytest

from phinlab.errors import BadFlag, InputError, RelationViolation, NotFullyRational
from phinlab.interpolation import (
    beta_value,
    check_integrality,
    consistency_check,
    ht_from_module,
    xi_from_ht,
)
from phinlab.linalg import Matrix, det
from phinlab.modules import FieldDescriptor, build_module
from phinlab.weil_deligne import Segment, wd_from_segments
from tests_helpers import random_unimodular


def steinberg(p=2, jumps=(0, 1)):
    return build_module(
        FieldDescriptor(p=p), 2, [[1, 0], [0, p]], [[0, 1], [0, 0]],
        {"k0": ([[1, 1], [0, 1]], jumps)},
    )


def crystalline(diag, jumps, p=2):
    n = len(diag)
    return build_module(
        FieldDescriptor(p=p), n, Matrix.diagonal(diag), Matrix.zeros(n, n),
        {"k0": (Matrix.identity(n), jumps)},
    )


def test_ht_weights_validation():
    assert ht_from_module(crystalline([1, 2, 12], [0, 1, 3]))["k0"] == (0, 1, 3)
    with pytest.raises(InputError) as exc:
        ht_from_module(crystalline([1, 2], [0, 0]))
    assert str(exc.value) == "weights for k0 must be strictly increasing, got (0, 0)"
    # bools are no integer jumps: build_module refuses them, as the schema does
    with pytest.raises(BadFlag) as exc:
        crystalline([1, 2], [True, True])
    assert str(exc.value) == "flag[k0] needs 2 integer jumps, got [True, True]"
    # the module sorts its jumps, so descending ones are read ascending
    assert ht_from_module(crystalline([1, 2], [2, 1]))["k0"] == (1, 2)
    with pytest.raises(InputError):
        ht_from_module(crystalline([1, 2, 12], [2, 1, 1]))
    # with two labels at fault, the first in sorted order is named
    d = build_module(
        FieldDescriptor(p=2, embeddings=("b", "a")), 2, [[1, 0], [0, 2]], [[0, 0], [0, 0]],
        {"a": (Matrix.identity(2), (0, 0)), "b": (Matrix.identity(2), (2, 2))},
    )
    with pytest.raises(InputError) as exc:
        ht_from_module(d)
    assert str(exc.value) == "weights for a must be strictly increasing, got (0, 0)"


def test_xi_from_ht_pinned():
    assert xi_from_ht({"k0": (0, 1, 2)})["k0"] == (0, 0, 0)
    assert xi_from_ht({"k0": (0, 2)})["k0"] == (0, -1)
    assert xi_from_ht({"k0": (-1, 0, 1)})["k0"] == (1, 1, 1)
    assert xi_from_ht({"b": (0, 3), "a": (1, 2)}).items() == (("a", (-1, -1)), ("b", (0, -2)))


def test_ht_from_module_reads_jumps():
    d = steinberg()
    assert ht_from_module(d)["k0"] == (0, 1)
    with pytest.raises(InputError):
        ht_from_module(crystalline([1, 2], [1, 1]))


def test_beta_value_pinned():
    d = steinberg()  # jumps (0, 1): xi = (0, 0)
    assert beta_value(d, 1).rational() == 3
    assert beta_value(d, 2).rational() == 2
    assert beta_value(steinberg(jumps=(0, 2)), 2).rational() == 4  # xi = (0, -1)
    with pytest.raises(InputError):
        beta_value(d, 0)
    with pytest.raises(InputError):
        beta_value(d, 3)


@pytest.mark.parametrize("r", [True, 1.0, "1", 0, 3], ids=repr)
def test_beta_value_takes_r_under_the_number_rule(r):
    # a bool read as an int gave beta_1, and a float or a str a TypeError
    with pytest.raises(InputError, match=r"r must satisfy 1 <= r <= 2, got "):
        beta_value(steinberg(), r)


def test_beta_value_conjugation_invariant():
    rng = random.Random(73)
    base = crystalline([1, 2, 12], [-1, 1, 4])
    assert xi_from_ht(ht_from_module(base))["k0"] == (1, 0, -2)
    for _ in range(10):
        s = random_unimodular(rng, 3)
        moved = build_module(
            base.field, 3, s @ base.phi @ s.inverse(), Matrix.zeros(3, 3),
            {"k0": (Matrix.identity(3), [-1, 1, 4])},
        )
        for r in (1, 2, 3):
            assert beta_value(moved, r) == beta_value(base, r)


def test_beta_top_r_is_twisted_determinant():
    d = crystalline([2, 3, Fraction(5, 4)], [0, 2, 5])
    assert xi_from_ht(ht_from_module(d))["k0"] == (0, -1, -3)
    got = beta_value(d, 3)
    assert got.rational() == Fraction(2) ** 3 * det(d.phi)


def test_beta_sums_twist_over_embeddings():
    field = FieldDescriptor(p=2, embeddings=("a", "b"))
    d = build_module(
        field, 2, [[1, 0], [0, 2]], [[0, 1], [0, 0]],
        {"a": ([[1, 1], [0, 1]], (0, 1)), "b": ([[1, 1], [0, 1]], (0, 2))},
    )
    xi = xi_from_ht(ht_from_module(d))
    assert xi["a"] == (0, 0) and xi["b"] == (0, -1)
    assert beta_value(d, 2).rational() == 4  # pi^{-(0 + -1)} * det = 2 * 2


def test_integrality_steinberg():
    d = steinberg()
    report = check_integrality(d)
    assert report["admissible"] is True
    assert report["warning"] is None
    assert [row["valuation"] for row in report["rows"]] == [0, 1]
    assert report["passed"] is True


def test_integrality_rank_one_effective():
    d = crystalline([2], [1])
    report = check_integrality(d)
    assert report["admissible"] is True
    # xi = (-1), twist exponent +1, value p * p = 4
    assert report["rows"][0]["value"].rational() == 4
    assert report["passed"] is True


def test_integrality_needs_effective_weights():
    # admissible but with a negative jump: valuation drops below zero,
    # so admissibility alone does not buy integrality here
    d = crystalline([Fraction(1, 2)], [-1])
    report = check_integrality(d)
    assert report["admissible"] is True
    assert report["rows"][0]["valuation"] == -2
    assert report["passed"] is False


def test_integrality_flags_non_admissible():
    d = crystalline([Fraction(1, 2)], [0])
    report = check_integrality(d)
    assert report["admissible"] is False
    assert "not weakly admissible" in report["warning"]
    assert report["rows"][0]["valuation"] == -1
    assert report["passed"] is False


def test_integrality_survives_undecidable_admissibility():
    # equal totals force the subspace walk, which needs distinct eigenvalues
    d = crystalline([2, 2], [0, 2])
    report = check_integrality(d)
    assert report["admissible"] is None
    assert "undecided" in report["warning"]
    assert len(report["rows"]) == 2


def test_consistency_steinberg_anchor():
    d = steinberg()
    report = consistency_check(d)
    assert report["status"] == "pass"
    assert [s for s in report["segments"]] == [Segment(1, 2)]
    rows = report["rows"]
    assert [(row["hecke"].rational(), row["galois"].rational()) for row in rows] == [(3, 3), (2, 2)]
    assert [row["valuation"] for row in rows] == [0, 1]
    assert all(row["equal"] for row in rows)
    assert "conventions" in report


def test_consistency_crystalline_unlinked():
    d = crystalline([2, 3], [0, 1])
    report = consistency_check(d)
    assert report["status"] == "pass"
    assert all(row["equal"] for row in report["rows"])


def test_consistency_not_generic():
    d = crystalline([1, 2], [0, 1])
    report = consistency_check(d)
    assert report["status"] == "not_generic"
    assert report["linked_pair"] is not None
    assert report["rows"] == []


def test_consistency_rejects_irrational_spectrum():
    d = build_module(
        FieldDescriptor(p=2), 2, [[0, 2], [1, 0]], [[0, 0], [0, 0]],
        {"k0": (Matrix.identity(2), [0, 1])},
    )
    with pytest.raises(NotFullyRational):
        consistency_check(d)


def test_wd_transport_needs_matching_frobenius_power():
    field = FieldDescriptor(p=2, f=2, f0=1)
    d = build_module(
        field, 2, [[1, 0], [0, 4]], [[0, 1], [0, 0]],
        {"k0": (Matrix.identity(2), [0, 1])},
    )
    with pytest.raises(RelationViolation):
        consistency_check(d)


def build_from_segments(segs, p, jumps, rng=None):
    w = wd_from_segments(segs, p)
    n = w.n
    fr, nil = w.frobenius, w.monodromy
    if rng is not None:
        s = random_unimodular(rng, n)
        fr = s @ fr @ s.inverse()
        nil = s @ nil @ s.inverse()
    return build_module(
        FieldDescriptor(p=p), n, fr, nil,
        {"k0": (Matrix.identity(n), jumps)},
    )


def test_consistency_random_generic_modules():
    rng = random.Random(79)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        units = rng.sample([u for u in (1, 3, 7) if u != p], rng.randint(1, 2))
        segs = [
            Segment(Fraction(u) * Fraction(p) ** rng.randint(0, 1), rng.randint(1, 2))
            for u in units
        ]
        n = sum(s.length for s in segs)
        jumps = []
        j = rng.randint(-1, 1)
        for _ in range(n):
            jumps.append(j)
            j += rng.randint(1, 3)
        d = build_from_segments(segs, p, jumps, rng=rng)
        report = consistency_check(d)
        assert report["status"] == "pass", report
        assert all(row["equal"] for row in report["rows"])

def increasing_jumps(rng, n):
    jumps = [rng.randint(-1, 1)]
    for _ in range(n - 1):
        jumps.append(jumps[-1] + rng.randint(1, 3))
    return jumps


@pytest.mark.parametrize("e, embeddings", [
    (1, ("k0",)), (2, ("k0",)), (1, ("b", "a")), (2, ("b", "a")),
])
def test_beta_value_integrality_and_consistency_agree(e, embeddings):
    rng = random.Random(83)
    for _ in range(6):
        p = rng.choice([2, 3, 5])
        units = rng.sample([u for u in (1, 3, 7) if u != p], rng.randint(1, 2))
        segs = [Segment(Fraction(u) * Fraction(p) ** rng.randint(0, 1), rng.randint(1, 2))
                for u in units]
        w = wd_from_segments(segs, p)
        n = w.n
        s = random_unimodular(rng, n)
        d = build_module(
            FieldDescriptor(p=p, e=e, embeddings=embeddings), n,
            s @ w.frobenius @ s.inverse(), s @ w.monodromy @ s.inverse(),
            {label: (random_unimodular(rng, n), increasing_jumps(rng, n)) for label in embeddings},
        )
        integrality = check_integrality(d)
        consistency = consistency_check(d)
        assert integrality["xi"] == xi_from_ht(ht_from_module(d))
        assert consistency["status"] == "pass"
        for r in range(1, n + 1):
            value = beta_value(d, r)
            assert value == integrality["rows"][r - 1]["value"]
            assert value == consistency["rows"][r - 1]["galois"]
            assert value.val == integrality["rows"][r - 1]["valuation"]
