"""Acceptance gate: nine end-to-end checks, one test per criterion.

Every comparison below is exact (integers and rationals only, no floats,
no tolerances).  Oracles are deliberately independent of the code under
test: the Gaussian binomial uses the q-Pascal recurrence, kernel
partitions are recomputed from ranks of matrix powers, and the
two-dimensional family is decided by a hand-derived closed criterion.
Criteria 1 and 3 also carry runtime budgets.
"""

import json
import random
import subprocess
import sys
import time
from functools import lru_cache

from phinlab.hecke import HeckeParams, coset_classes, theta_closed, theta_enumerated
from phinlab.interpolation import check_integrality, consistency_check
from phinlab.linalg import (
    Matrix,
    jordan_nilpotent,
    jordan_partition,
    kernel_dim,
)
from phinlab.modules import FieldDescriptor, build_module, is_weakly_admissible
from phinlab.partitions import (
    Partition,
    PartitionFunction,
    conjugate,
    paper_leq,
    partitions_of,
    strata_thresholds,
    stratum_member,
)
from phinlab.sampling import (
    non_admissible_witness,
    random_generic_module,
    random_nilpotent,
    random_partition,
    random_wa_module,
)
from phinlab.scalars import Rational, padic_val
from tests_helpers import child_env, matrix_power, random_unimodular


@lru_cache(maxsize=None)
def gauss_binomial(n, r, q):
    # q-Pascal recurrence, kept separate from the coset enumeration on purpose
    if r < 0 or r > n:
        return 0
    if r == 0 or r == n:
        return 1
    return gauss_binomial(n - 1, r - 1, q) + q ** r * gauss_binomial(n - 1, r, q)


def rational_psi(rng, n):
    vals = []
    for _ in range(n):
        num = rng.choice([x for x in range(-9, 10) if x != 0])
        vals.append(Rational(num) / rng.randint(1, 9))
    return tuple(vals)


def test_criterion_1_theta_routes_agree():
    rng = random.Random(20260815)
    t0 = time.monotonic()
    checked = 0
    for q in (2, 3, 4, 5, 9):
        for n in range(1, 6):
            for r in range(1, n + 1):
                h = HeckeParams(n, q, r)
                for _ in range(50):
                    psi = rational_psi(rng, n)
                    assert theta_closed(psi, h) == theta_enumerated(psi, h)
                    checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"theta double computation too slow: {elapsed:.1f}s"
    assert checked == 5 * 15 * 50
    print(f"criterion 1 PASS: {checked} theta evaluations agree ({elapsed:.1f}s)")


def test_criterion_2_coset_counts_sum_to_gaussian_binomial():
    for q in (2, 3, 5):
        for n in range(1, 9):
            for r in range(1, n + 1):
                total = sum(c.count for c in coset_classes(HeckeParams(n, q, r)))
                assert total == gauss_binomial(n, r, q), (n, r, q)
    print("criterion 2 PASS: coset counts match the recurrence oracle up to n=8")


def test_criterion_3_kernel_dims_match_partial_sums():
    t0 = time.monotonic()
    pairs = 0
    for m in range(1, 9):
        shapes = list(partitions_of(m))
        kernel_dims = {}
        for x in shapes:
            nil = jordan_nilpotent(x.parts)
            power = nil
            dims = []
            for i in range(m):
                if i:
                    power = power @ nil
                dims.append(kernel_dim(power))
            kernel_dims[x] = dims
        for p in shapes:
            pf = PartitionFunction({"k0": p})
            thresholds = strata_thresholds(pf, m)
            for x in shapes:
                via_kernels = all(
                    d >= t for d, t in zip(kernel_dims[x], thresholds))
                via_sums = paper_leq(pf, PartitionFunction({"k0": x}))
                assert via_kernels == via_sums, (p, x)
                # the packaged predicate must agree on the diagonal slice
                if p == x or x == shapes[-1]:
                    member = stratum_member({"k0": jordan_nilpotent(x.parts)}, pf)
                    assert member == via_sums, (p, x)
                pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"partition pair scan too slow: {elapsed:.1f}s"
    print(f"criterion 3 PASS: {pairs} partition pairs, both routes agree ({elapsed:.1f}s)")


def test_criterion_4_jordan_partition_is_conjugate_of_kernel_partition():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 6)
        shape = random_partition(rng, n)
        s = random_unimodular(rng, n)
        nil = s @ jordan_nilpotent(shape.parts) @ s.inverse()
        dims = [kernel_dim(matrix_power(nil, i)) for i in range(1, n + 1)]
        increments = [b - a for a, b in zip([0] + dims, dims) if b - a > 0]
        kernel_partition = Partition(increments)
        assert jordan_partition(nil) == conjugate(kernel_partition)
        assert jordan_partition(nil) == shape
    print("criterion 4 PASS: 200 conjugated nilpotents, duality holds")


def test_criterion_5_two_dimensional_family_closed_form():
    e12 = Matrix([[0, 1], [0, 0]])
    flag = Matrix([[1, 1], [1, -1]])
    for p in (2, 3, 5):
        for alpha in (Rational(1), Rational(p), Rational(1) / p, Rational(2),
                      Rational(p) ** 2):
            v = padic_val(alpha, p)
            for k in range(6):
                d = build_module(
                    FieldDescriptor(p=p), 2,
                    Matrix.diagonal([alpha, p * alpha]), e12,
                    {"k0": (flag, [0, k])},
                )
                closed = v >= 0 and k == 2 * v + 1
                assert is_weakly_admissible(d).admissible == closed, (p, alpha, k)
    print("criterion 5 PASS: 90 family members, brute force matches closed form")


def test_criterion_6_beta_integrality_on_weakly_admissible_modules():
    rng = random.Random(99)
    count = 0
    for i in range(102):
        d = random_wa_module(rng, n=1 + i % 3)
        report = check_integrality(d)
        assert report["admissible"] is True
        assert report["passed"] is True
        assert all(row["integral"] for row in report["rows"])
        count += 1
    bad = non_admissible_witness()
    bad_report = check_integrality(bad)
    assert bad_report["admissible"] is False
    assert any(row["valuation"] < 0 for row in bad_report["rows"])
    print(f"criterion 6 PASS: {count} admissible modules integral, witness negative")


def test_criterion_7_interpolation_consistency():
    for p in (2, 3, 5):
        anchor = build_module(
            FieldDescriptor(p=p), 2,
            Matrix.diagonal([1, p]), Matrix([[0, 1], [0, 0]]),
            {"k0": (Matrix([[1, 1], [1, -1]]), [0, 1])},
        )
        report = consistency_check(anchor)
        assert report["status"] == "pass"
        assert len(report["rows"]) == 2
        assert all(row["equal"] for row in report["rows"])

    rng = random.Random(123)
    generic = 0
    for _ in range(55):
        d = random_generic_module(rng)
        report = consistency_check(d)
        assert report["status"] == "pass"
        assert all(row["equal"] for row in report["rows"])
        generic += 1

    for p in (2, 3):
        linked = build_module(
            FieldDescriptor(p=p), 2,
            Matrix.diagonal([1, p]), Matrix.zeros(2, 2),
            {"k0": (Matrix.identity(2), [0, 1])},
        )
        report = consistency_check(linked)
        assert report["status"] == "not_generic"
        assert report["rows"] == []
    print(f"criterion 7 PASS: anchor + {generic} generic modules, linked stay silent")


def test_criterion_8_stratum_membership_matches_order():
    rng = random.Random(7)
    for i in range(500):
        n = rng.randint(1, 6)
        nil, shape = random_nilpotent(rng, n)
        p = random_partition(rng, n)
        member = stratum_member({"k0": nil}, PartitionFunction({"k0": p}))
        expected = paper_leq(
            PartitionFunction({"k0": p}), PartitionFunction({"k0": shape}))
        assert member == expected, (i, p, shape)
        if i % 50 == 0:
            shapes = [PartitionFunction({"k0": s}) for s in partitions_of(n)]
            verdict = {s: stratum_member({"k0": nil}, s) for s in shapes}
            for a in shapes:
                for b in shapes:
                    if paper_leq(a, b) and verdict[b]:
                        assert verdict[a], (a, b)
    print("criterion 8 PASS: 500 membership checks plus monotonicity spot checks")


def test_criterion_9_sweep_is_deterministic():
    cmd = [sys.executable, "-m", "phinlab.cli", "sweep", "--seed", "417",
           "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=child_env())
    second = subprocess.run(cmd, capture_output=True, check=True, env=child_env())
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["passed"] is True
    assert report["case_count"] > 0
    print("criterion 9 PASS: same-seed sweeps byte-identical")
