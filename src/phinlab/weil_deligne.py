"""Frobenius-plus-nilpotent data and its decomposition into segments.

A representation here is a pair (Fr, N) acting on Q^n with Fr invertible,
N nilpotent, and N*Fr = q*Fr*N where q is the residue cardinality. The
commutation rule pushes each Frobenius eigenvalue down its q-line, so when
the spectrum is rational the Jordan shape of N groups the eigenvalues into
geometric chains chi, chi*q, ..., chi*q^(k-1). Each chain is recorded as a
Segment(chi, k); segments feed the genericity test (no linked pair) and
expand into the eigenvalue list consumed by the Hecke side. Embedding
labels belong to the filtered module, not to its representation:
``monodromy_partition(d)`` copies N's Jordan type to each label of d.
"""

from collections import Counter
from itertools import accumulate

from .errors import ChainMismatch, InputError
from .linalg import Matrix, jordan_partition, rational_eigenvalues
from .modules import check_phi_n
from .partitions import PartitionFunction
from .scalars import Frozen, Rational, _int_val, _rebuild, as_rational, is_int, is_prime, padic_val

__all__ = [
    "Segment",
    "UnramifiedCharacter",
    "WeilDeligneRep",
    "prime_power_base",
    "wd_from_module",
    "wd_from_segments",
    "monodromy_partition",
    "match_chains",
    "segments_from_wd",
    "canonical_segments",
    "find_linked_pair",
    "is_generic",
    "psi_from_segments",
]


def prime_power_base(q):
    """Split q = p**f0 with p prime; InputError when q is not a prime power.

    f0 runs down from log2(q): p is the integer f0-th root of q, by
    Newton's method from above. The first exact root has the largest f0,
    so q is a prime power exactly when that p is prime.
    """
    if not is_int(q) or q < 2:
        raise InputError(f"residue cardinality must be an integer >= 2, got {q!r}")
    for f0 in range(q.bit_length() - 1, 0, -1):
        p = 1 << -(-q.bit_length() // f0)
        while (step := ((f0 - 1) * p + q // p ** (f0 - 1)) // f0) < p:
            p = step
        if p ** f0 == q:
            break
    if not is_prime(p):
        raise InputError(f"residue cardinality must be a prime power, got {q}")
    return p, f0


class WeilDeligneRep(Frozen):
    """Invertible Frobenius with a nilpotent operator obeying N*Fr = q*Fr*N."""

    __slots__ = ("frobenius", "monodromy", "q", "p")

    def __init__(self, frobenius, monodromy, q):
        p, f0 = prime_power_base(q)
        fr = frobenius if isinstance(frobenius, Matrix) else Matrix(frobenius)
        nil = monodromy if isinstance(monodromy, Matrix) else Matrix(monodromy)
        if not (fr.is_square and nil.is_square and fr.nrows == nil.nrows):
            raise InputError(
                f"need matching square matrices, got {fr.nrows}x{fr.ncols} "
                f"and {nil.nrows}x{nil.ncols}"
            )
        check_phi_n(fr, nil, p, f0)
        Frozen.__init__(self, fr, nil, q, p)

    @property
    def n(self):
        return self.frobenius.nrows

    def __repr__(self):
        return f"WeilDeligneRep(n={self.n}, q={self.q})"


def wd_from_module(d):
    """Forget the filtration, keeping phi and N at q = p**f0.

    The module's commutation scale is p**f while this side checks against
    q = p**f0, so a module with f != f0 and nonzero N is rejected on entry.
    When f = f0, ``build_module`` has already checked phi and N at q, and
    the field gives p, so the representation is built as it is.
    """
    field = d.field
    if field.f != field.f0:
        check_phi_n(d.phi, d.monodromy, field.p, field.f0)
    return _rebuild(WeilDeligneRep, (d.phi, d.monodromy, field.q, field.p))


def monodromy_partition(d):
    """The partition function of the module d: N's Jordan type at each of
    its embedding labels, the point whose closed strata ``strata`` reports."""
    part = jordan_partition(d.monodromy)
    return PartitionFunction({label: part for label in d.field.embeddings})


class Segment(Frozen):
    """A chain chi, chi*q, ..., chi*q^(length-1), stored by its base value."""

    __slots__ = ("chi", "length")

    def __init__(self, chi, length):
        chi = Rational(as_rational(chi))
        if chi == 0:
            raise ValueError("segment base value must be nonzero")
        if not is_int(length) or length < 1:
            raise ValueError(f"segment length must be a positive integer, got {length!r}")
        Frozen.__init__(self, chi, length)


class UnramifiedCharacter(Frozen):
    """Ordered list of nonzero rational values, one per torus coordinate."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(Rational(as_rational(v)) for v in values)
        if any(v == 0 for v in vals):
            raise ValueError("character values must be nonzero")
        Frozen.__init__(self, vals)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


def match_chains(values, parts, q, p):
    """Group an eigenvalue multiset into geometric chains of ratio q = p**f0.

    ``parts`` lists the chain lengths; InputError when they do not sum to
    len(values). Returns one Segment per part. Chain bases are tried in
    ascending (p-adic valuation, value) order with backtracking, so
    ambiguous multisets like {1, q, q^2} under (2, 1) always resolve the
    same way: [(1, 2), (q^2, 1)]. Raises ChainMismatch with a small report
    when no grouping exists.
    """
    values = [Rational(as_rational(v)) for v in values]
    parts = sorted(parts, reverse=True)
    if not (is_int(q) and all(map(is_int, parts))):
        raise TypeError(f"q and the chain lengths must be ints, got {q!r} and {parts!r}")
    if sum(parts) != len(values):
        raise InputError(f"chain lengths {parts} must add up to the {len(values)} eigenvalues")
    counts = Counter(values)

    def assign(i):
        if i == len(parts):
            return []
        k = parts[i]
        bases = sorted(
            (v for v, c in counts.items() if c > 0),
            key=lambda v: (padic_val(v, p), v),
        )
        for base in bases:
            links = [base * q**j for j in range(k)]
            if any(counts[v] == 0 for v in links):
                continue
            for v in links:
                counts[v] -= 1
            rest = assign(i + 1)
            if rest is not None:
                return [Segment(base, k)] + rest
            for v in links:
                counts[v] += 1
        return None

    got = assign(0)
    if got is None:
        raise ChainMismatch(
            "eigenvalues do not decompose into chains of the required lengths",
            report={
                "eigenvalues": sorted(str(v) for v in values),
                "partition": list(parts),
                "q": q,
            },
        )
    return tuple(got)


def canonical_segments(segments, p):
    """Sort by (valuation of base, numerator, length, denominator)."""

    def key(s):
        return (padic_val(s.chi, p), s.chi.numerator, s.length, s.chi.denominator)

    return tuple(sorted(segments, key=key))


def segments_from_wd(w):
    """Decompose the spectrum and Jordan shape into canonically sorted segments."""
    values = rational_eigenvalues(w.frobenius).multiset()
    parts = jordan_partition(w.monodromy).parts
    segs = match_chains(values, parts, w.q, w.p)
    return canonical_segments(segs, w.p)


def _q_power_offset(a, b, q):
    """Integer m with b == a * q**m, or None when b is off a's q-line."""
    ratio = b / a
    if ratio.denominator == 1:
        m = _int_val(ratio.numerator, q)
    elif ratio.numerator == 1:
        m = -_int_val(ratio.denominator, q)
    else:
        return None
    return m if ratio == Rational(q) ** m else None


def _linked(s, t, q):
    m = _q_power_offset(s.chi, t.chi, q)
    if m is None:
        return False
    # exponent intervals along the shared line
    a1, b1 = 0, s.length - 1
    a2, b2 = m, m + t.length - 1
    if max(a1, a2) > min(b1, b2) + 1:
        return False  # a gap separates the chains
    if a1 <= a2 and b2 <= b1:
        return False  # one chain swallows the other
    if a2 <= a1 and b1 <= b2:
        return False
    return True


def find_linked_pair(segments, q):
    """First (i, j) with i < j linked, scanning in the given order, else None."""
    segs = list(segments)
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if _linked(segs[i], segs[j], q):
                return (i, j)
    return None


def is_generic(segments, q):
    """True when no pair of segments is linked."""
    return find_linked_pair(segments, q) is None


def psi_from_segments(segments, q):
    """Expand each segment into its chain, top value first, in the given order."""
    out = []
    for s in segments:
        for j in range(s.length - 1, -1, -1):
            out.append(s.chi * q**j)
    return UnramifiedCharacter(tuple(out))


def wd_from_segments(segments, q):
    """Direct sum of one chain block per segment, for building examples: the
    diagonal of ``psi_from_segments``, and N with ones below it within each block."""
    segs = [s if isinstance(s, Segment) else Segment(*s) for s in segments]
    diagonal = psi_from_segments(segs, q).values
    n = len(diagonal)
    starts = set(accumulate(s.length for s in segs))
    nil = [[int(j == i - 1 and i not in starts) for j in range(n)] for i in range(n)]
    return WeilDeligneRep(Matrix.diagonal(diagonal), Matrix(nil), q)
