import itertools
import random

import pytest
from hypothesis import given, strategies as st

from phinlab.linalg import Matrix, jordan_nilpotent, kernel_dim
from phinlab.partitions import (
    Partition,
    PartitionFunction,
    conjugate,
    dominates,
    paper_leq,
    part_thresholds,
    partition_count,
    strata_thresholds,
    stratum_member,
)
from phinlab.partitions import partitions_of as enumerate_partitions
from tests_helpers import matrix_power


def partitions_of(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def test_partition_count_matches_the_enumeration():
    assert [partition_count(n) for n in range(16)] == [
        sum(1 for _ in enumerate_partitions(n)) for n in range(16)]
    assert (partition_count(27), partition_count(28)) == (3010, 3718)


@given(st.integers(min_value=0, max_value=11),
       st.one_of(st.none(), st.integers(min_value=1, max_value=11)))
def test_enumerate_partitions_matches_local_recursion(n, cap):
    got = [p.parts for p in enumerate_partitions(n, cap=cap)]
    want = list(partitions_of(n, cap))
    assert got == want
    assert len(set(got)) == len(got)


def test_partition_validation():
    assert Partition((3, 1, 1)).parts == (3, 1, 1)
    assert Partition([]).total == 0
    assert Partition((2, 2)).total == 4
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_conjugate_pinned():
    assert conjugate(Partition((4, 2, 1))).parts == (3, 2, 1, 1)
    assert conjugate(Partition((1, 1, 1))).parts == (3,)
    assert conjugate(Partition(())).parts == ()


def test_conjugate_is_an_involution():
    for n in range(0, 13):
        for parts in partitions_of(n):
            p = Partition(parts)
            assert conjugate(conjugate(p)) == p


def test_dominates_pinned():
    assert dominates(Partition((3, 1)), Partition((2, 2)))
    assert not dominates(Partition((2, 2)), Partition((3, 1)))
    assert dominates(Partition((2, 2)), Partition((2, 1, 1)))
    assert dominates(Partition((2, 2)), Partition((2, 2)))
    assert dominates(Partition((4,)), Partition((1, 1, 1, 1)))


def test_dominates_requires_equal_totals():
    with pytest.raises(ValueError):
        dominates(Partition((2,)), Partition((1, 1, 1)))


def test_conjugation_reverses_dominance():
    for n in range(0, 11):
        ps = [Partition(t) for t in partitions_of(n)]
        for a, b in itertools.product(ps, ps):
            assert dominates(a, b) == dominates(conjugate(b), conjugate(a))


def test_partition_function_basics():
    pf = PartitionFunction({"k0": Partition((2, 1)), "k1": Partition((3,))})
    assert pf.labels == ("k0", "k1")
    assert pf["k0"] == Partition((2, 1))
    assert pf == PartitionFunction({"k1": (3,), "k0": (2, 1)})
    with pytest.raises(KeyError):
        pf["nope"]


def test_paper_leq_pinned():
    single_block = PartitionFunction({"k0": (3,)})
    discrete = PartitionFunction({"k0": (1, 1, 1)})
    assert paper_leq(single_block, discrete)
    assert not paper_leq(discrete, single_block)
    assert paper_leq(single_block, single_block)
    # (n) is the smallest, (1,...,1) the largest
    for parts in partitions_of(4):
        p = PartitionFunction({"k0": parts})
        assert paper_leq(PartitionFunction({"k0": (4,)}), p)
        assert paper_leq(p, PartitionFunction({"k0": (1, 1, 1, 1)}))


def test_paper_leq_multi_label_is_pointwise():
    p = PartitionFunction({"a": (2,), "b": (1, 1)})
    q = PartitionFunction({"a": (1, 1), "b": (2,)})
    assert not paper_leq(p, q)
    assert not paper_leq(q, p)
    assert paper_leq(PartitionFunction({"a": (2,), "b": (2,)}), p)


def test_paper_leq_label_mismatch():
    with pytest.raises(ValueError):
        paper_leq(PartitionFunction({"a": (2,)}), PartitionFunction({"b": (2,)}))


def test_strata_thresholds_pinned():
    pf = PartitionFunction({"k0": (2, 1)})
    assert strata_thresholds(pf, 3) == (2, 3, 3)
    two_labels = PartitionFunction({"a": (2,), "b": (1, 1)})
    # i=1: min(1,2) + 2*min(1,1) = 3; i=2: 2 + 2 = 4
    assert strata_thresholds(two_labels, 2) == (3, 4)
    with pytest.raises(ValueError):
        strata_thresholds(PartitionFunction({"k0": (2, 1)}), 4)


@pytest.mark.parametrize("labels", [1, 2, 3])
def test_part_thresholds_are_the_partition_at_every_label(labels):
    for n in range(1, 7):
        for parts in partitions_of(n):
            pf = PartitionFunction({f"k{i}": parts for i in range(labels)})
            assert part_thresholds(parts, n, labels) == strata_thresholds(pf, n)


def test_stratum_member_pinned():
    j3 = jordan_nilpotent([3])
    zero3 = Matrix.zeros(3, 3)
    single_block = PartitionFunction({"k0": (3,)})
    discrete = PartitionFunction({"k0": (1, 1, 1)})
    assert stratum_member({"k0": j3}, single_block)
    assert stratum_member({"k0": zero3}, single_block)
    # the zero matrix is maximal, so it lies in every stratum
    assert stratum_member({"k0": zero3}, PartitionFunction({"k0": (2, 1)}))
    assert stratum_member({"k0": zero3}, discrete)
    # the regular nilpotent lies only in the single-block stratum
    assert not stratum_member({"k0": j3}, discrete)
    assert not stratum_member({"k0": j3}, PartitionFunction({"k0": (2, 1)}))


def test_stratum_member_label_checks():
    with pytest.raises(ValueError):
        stratum_member({"a": Matrix.zeros(2, 2)}, PartitionFunction({"b": (2,)}))
    with pytest.raises(ValueError):
        stratum_member({"a": Matrix.zeros(2, 2)}, PartitionFunction({"a": (3,)}))


def test_stratum_membership_is_monotone():
    rng = random.Random(31)
    all_parts = {n: [Partition(t) for t in partitions_of(n)] for n in range(1, 7)}
    for _ in range(200):
        n = rng.randint(1, 6)
        shape = rng.choice(all_parts[n])
        nilp = jordan_nilpotent(shape.parts)
        p = PartitionFunction({"k0": rng.choice(all_parts[n])})
        p_smaller = PartitionFunction({"k0": rng.choice(all_parts[n])})
        if not paper_leq(p_smaller, p):
            continue
        if stratum_member({"k0": nilp}, p):
            assert stratum_member({"k0": nilp}, p_smaller)


def test_stratum_member_multi_label_sums_can_trade():
    # pointwise comparison fails both ways here, yet the summed kernel
    # thresholds are met: the aggregated condition is strictly coarser
    # than the per-label one.
    nil = {"a": jordan_nilpotent([2]), "b": Matrix.zeros(2, 2)}
    p = PartitionFunction({"a": (1, 1), "b": (2,)})
    x = PartitionFunction({"a": (2,), "b": (1, 1)})
    assert stratum_member(nil, p)
    assert not paper_leq(p, x)


def test_kernel_growth_matches_partial_sum_characterization():
    # membership of the canonical nilpotent of shape mu in the stratum of
    # lambda is exactly conjugate-dominance, i.e. partial sums of kernel
    # dimensions against thresholds
    for n in range(1, 7):
        for lam in partitions_of(n):
            thresholds = strata_thresholds(PartitionFunction({"k0": lam}), n)
            for mu in partitions_of(n):
                nilp = jordan_nilpotent(mu)
                kerdims = tuple(kernel_dim(matrix_power(nilp, i)) for i in range(1, n + 1))
                member = all(k >= m for k, m in zip(kerdims, thresholds))
                expected = paper_leq(PartitionFunction({"k0": lam}),
                                     PartitionFunction({"k0": mu}))
                assert member == expected


def test_stratum_member_multi_label_matches_kernel_dimensions():
    from tests_helpers import random_unimodular

    rng = random.Random(59)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(3, 5)
        shapes = [Partition(t) for t in partitions_of(n)]
        labels = ("a", "b", "c")[: rng.randint(2, 3)]
        nilpotents = {}
        for label, shape in zip(labels, rng.sample(shapes, len(labels))):
            s = random_unimodular(rng, n)
            nilpotents[label] = s @ jordan_nilpotent(shape.parts) @ s.inverse()
        p = PartitionFunction({label: rng.choice(shapes) for label in labels})
        kernels = [sum(kernel_dim(matrix_power(nilpotents[label], i)) for label in labels)
                   for i in range(1, n + 1)]
        thresholds = [sum(min(i, x) for label in labels for x in p[label].parts)
                      for i in range(1, n + 1)]
        expected = all(k >= m for k, m in zip(kernels, thresholds))
        assert stratum_member(nilpotents, p) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}
