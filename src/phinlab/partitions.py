"""Integer partitions, dominance order, and nilpotent strata membership.

A PartitionFunction assigns a partition of a common n to each embedding
label. The partial order used for strata is reverse dominance applied
label by label: P <= P' here means P(label) dominates P'(label) for every
label, so the single-block partition is the smallest element and
(1, ..., 1) the largest.
"""

from itertools import accumulate, zip_longest

from .linalg import Partition, conjugate, jordan_partition
from .scalars import Frozen, is_int

__all__ = [
    "Partition",
    "LabelMap",
    "PartitionFunction",
    "conjugate",
    "partitions_of",
    "partition_count",
    "dominates",
    "paper_leq",
    "strata_thresholds",
    "part_thresholds",
    "reaches_thresholds",
    "stratum_member",
]


def partitions_of(n, cap=None):
    """All partitions of n, parts bounded by cap, lexicographically largest first."""
    for parts in _part_tuples(n, n if cap is None else cap):
        yield Partition._from_parts(parts)


def _part_tuples(n, cap):
    """The parts of each partition of n into parts at most cap, as tuples,
    in the order of ``partitions_of``."""
    if n == 0:
        yield ()
        return
    for first in range(min(cap, n), 0, -1):
        for rest in _part_tuples(n - first, first):
            yield (first,) + rest


def partition_count(n):
    """p(n), the number of partitions of n, counted in O(n^2) without listing them."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def dominates(a, b):
    """Natural dominance: every partial sum of a is >= that of b.

    Requires partitions of the same total; conjugation reverses the order.
    """
    if a.total != b.total:
        raise ValueError(f"totals differ: {a.total} vs {b.total}")
    return all(x >= y for x, y in zip_longest(accumulate(a.parts), accumulate(b.parts),
                                              fillvalue=a.total))


class LabelMap(Frozen):
    """Immutable map from embedding labels to values, sorted by label: the
    one such map type, holding filtrations, Hodge-Tate weights and xi.

    Subclasses may define ``_value(label, value)``, which normalises and
    validates one value. An empty map raises ValueError.
    """

    __slots__ = ("pairs",)

    def __init__(self, mapping):
        named = sorted(((str(k), v) for k, v in mapping.items()), key=lambda kv: kv[0])
        pairs = tuple((label, self._value(label, value)) for label, value in named)
        if not pairs:
            raise ValueError("at least one label is required")
        Frozen.__init__(self, pairs)

    @staticmethod
    def _value(label, value):
        return value

    @property
    def labels(self):
        return tuple(label for label, _ in self.pairs)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, label):
        for key, value in self.pairs:
            if key == label:
                return value
        raise KeyError(label)

    def items(self):
        return self.pairs

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.pairs)})"


class PartitionFunction(LabelMap):
    """A partition attached to each embedding label."""

    __slots__ = ()

    @staticmethod
    def _value(label, value):
        return value if isinstance(value, Partition) else Partition(value)


def paper_leq(p, p_prime):
    """P <= P' in the stratification order: P(label) dominates P'(label) everywhere."""
    if p.labels != p_prime.labels:
        raise ValueError(f"label sets differ: {p.labels} vs {p_prime.labels}")
    return all(dominates(p[label], p_prime[label]) for label in p.labels)


def strata_thresholds(p, n):
    """Kernel-dimension thresholds m_1, ..., m_n of the stratum of P.

    m_i sums min(i, part) over all parts of all labels; a point lies in the
    stratum when its summed kernel dimensions reach every threshold.
    """
    for label, part in p.items():
        if not is_int(n) or part.total != n:
            raise ValueError(f"partition at {label!r} has total {part.total}, expected {n!r}")
    return part_thresholds([x for _, part in p.items() for x in part.parts], n)


def part_thresholds(parts, n, copies=1):
    """The thresholds m_1, ..., m_n of ``copies`` copies of the parts, at
    labels of their own: m_i sums min(i, x) over them, so m_i - m_(i-1)
    is copies times the number of parts x >= i."""
    thresholds, total = [], 0
    for i in range(1, n + 1):
        total += copies * sum(x >= i for x in parts)
        thresholds.append(total)
    return tuple(thresholds)


def reaches_thresholds(point, thresholds):
    """Stratum membership from two ``strata_thresholds`` tuples: whether the
    thresholds of a point's Jordan types reach every threshold of the stratum."""
    return all(t >= m for t, m in zip(point, thresholds))


def stratum_member(nilpotents, p):
    """Whether the family of nilpotents lies in the stratum of P.

    ``nilpotents`` maps each label of P to a square matrix of size n; the
    test compares sum-over-labels kernel dimensions of powers against the
    thresholds of P. Those sums are the thresholds of the Jordan types,
    since dim ker N^i sums min(i, part) over the Jordan blocks of N.
    """
    labels = tuple(sorted(nilpotents))
    if labels != p.labels:
        raise ValueError(f"label sets differ: {labels} vs {p.labels}")
    sizes = {m.nrows for m in nilpotents.values()}
    if len(sizes) != 1 or not all(m.is_square for m in nilpotents.values()):
        raise ValueError("all matrices must be square of one common size")
    n = sizes.pop()
    thresholds = strata_thresholds(p, n)
    types = PartitionFunction({label: jordan_partition(nilpotents[label]) for label in labels})
    return reaches_thresholds(strata_thresholds(types, n), thresholds)
