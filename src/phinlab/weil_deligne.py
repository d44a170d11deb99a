"""Frobenius-plus-nilpotent data and its decomposition into segments.

A representation here is a pair (Fr, N) acting on Q^n with Fr invertible,
N nilpotent, and N*Fr = q*Fr*N where q is the residue cardinality. The
commutation rule pushes each Frobenius eigenvalue down its q-line, so when
the spectrum is rational the Jordan shape of N groups the eigenvalues into
geometric chains chi, chi*q, ..., chi*q^(k-1). Each chain is recorded as a
Segment(chi, k); segments feed the genericity test (no linked pair) and
expand into the eigenvalue list consumed by the Hecke side.
"""

from collections import Counter

from .errors import ChainMismatch, InputError, NotFullyRational
from .linalg import Matrix, jordan_partition, rational_eigenvalues
from .modules import check_phi_n
from .partitions import PartitionFunction
from .scalars import Frozen, Rational, is_prime, padic_val

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

    Each f0 up to log2(q) is tried: p is the integer f0-th root of q, by
    Newton's method from above, and must be prime.
    """
    if not isinstance(q, int) or q < 2:
        raise InputError(f"residue cardinality must be an integer >= 2, got {q!r}")
    for f0 in range(1, q.bit_length()):
        p = 1 << -(-q.bit_length() // f0)
        while (step := ((f0 - 1) * p + q // p ** (f0 - 1)) // f0) < p:
            p = step
        if p ** f0 == q and is_prime(p):
            return p, f0
    raise InputError(f"residue cardinality must be a prime power, got {q}")


class WeilDeligneRep(Frozen):
    """Invertible Frobenius with a nilpotent operator obeying N*Fr = q*Fr*N."""

    __slots__ = ("frobenius", "monodromy", "q", "p", "f0", "embeddings")

    def __init__(self, frobenius, monodromy, q, embeddings=("k0",)):
        p, f0 = prime_power_base(q)
        fr = frobenius if isinstance(frobenius, Matrix) else Matrix(frobenius)
        nil = monodromy if isinstance(monodromy, Matrix) else Matrix(monodromy)
        if not (fr.is_square and nil.is_square and fr.nrows == nil.nrows):
            raise InputError(
                f"need matching square matrices, got {fr.nrows}x{fr.ncols} "
                f"and {nil.nrows}x{nil.ncols}"
            )
        check_phi_n(fr, nil, q)
        embeddings = tuple(embeddings)
        if not embeddings or len(set(embeddings)) != len(embeddings):
            raise InputError(f"embedding labels must be distinct and nonempty: {embeddings}")
        Frozen.__init__(self, fr, nil, q, p, f0, embeddings)

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
    the field gives p and f0, so the representation is built as it is.
    """
    field = d.field
    q = field.p ** field.f0
    if field.f != field.f0:
        check_phi_n(d.phi, d.monodromy, q)
    w = object.__new__(WeilDeligneRep)
    Frozen.__init__(w, d.phi, d.monodromy, q, field.p, field.f0, field.embeddings)
    return w


def monodromy_partition(w):
    """Jordan shape of N, one copy per embedding label."""
    part = jordan_partition(w.monodromy)
    return PartitionFunction({label: part for label in w.embeddings})


class Segment(Frozen):
    """A chain chi, chi*q, ..., chi*q^(length-1), stored by its base value."""

    __slots__ = ("chi", "length")

    def __init__(self, chi, length):
        chi = Rational(chi)
        if chi == 0:
            raise ValueError("segment base value must be nonzero")
        if not isinstance(length, int) or length < 1:
            raise ValueError(f"segment length must be a positive integer, got {length!r}")
        Frozen.__init__(self, chi, length)


class UnramifiedCharacter(Frozen):
    """Ordered list of nonzero rational values, one per torus coordinate."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(Rational(v) for v in values)
        if any(v == 0 for v in vals):
            raise ValueError("character values must be nonzero")
        Frozen.__init__(self, vals)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


def match_chains(values, parts, q):
    """Group an eigenvalue multiset into geometric chains of given lengths.

    ``parts`` lists the chain lengths; InputError when they do not sum to
    len(values).
    Returns one Segment per part. Chain bases are tried in ascending
    (valuation, value) order with backtracking, so ambiguous multisets like
    {1, q, q^2} under (2, 1) always resolve the same way: [(1, 2), (q^2, 1)].
    Raises ChainMismatch with a small report when no grouping exists.
    """
    p, _ = prime_power_base(q)
    values = [Rational(v) for v in values]
    parts = sorted((int(k) for k in parts), reverse=True)
    if sum(parts) != len(values):
        raise InputError(f"chain lengths {parts} must add up to the {len(values)} eigenvalues")
    counts = Counter(values)
    qr = Rational(q)

    def assign(i):
        if i == len(parts):
            return []
        k = parts[i]
        bases = sorted(
            (v for v, c in counts.items() if c > 0),
            key=lambda v: (padic_val(v, p), v),
        )
        for base in bases:
            links = [base * qr**j for j in range(k)]
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
    split = rational_eigenvalues(w.frobenius)
    if not split.is_split:
        raise NotFullyRational(
            "Frobenius spectrum does not split over Q; "
            f"residual factor has degree {len(split.residual) - 1}"
        )
    parts = jordan_partition(w.monodromy).parts
    segs = match_chains(split.multiset(), parts, w.q)
    return canonical_segments(segs, w.p)


def _q_power_offset(a, b, q):
    """Integer m with b == a * q**m, or None when b is off a's q-line."""
    ratio = b / a
    if ratio == 1:
        return 0
    num, den = ratio.numerator, ratio.denominator
    if den == 1:
        m = 0
        while num % q == 0:
            num //= q
            m += 1
        return m if num == 1 else None
    if num == 1:
        m = 0
        while den % q == 0:
            den //= q
            m += 1
        return -m if den == 1 else None
    return None


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
    qr = Rational(q)
    out = []
    for s in segments:
        for j in range(s.length - 1, -1, -1):
            out.append(s.chi * qr**j)
    return UnramifiedCharacter(tuple(out))


def wd_from_segments(segments, q, embeddings=("k0",)):
    """Direct sum of one chain block per segment, for building examples."""
    segs = [s if isinstance(s, Segment) else Segment(*s) for s in segments]
    n = sum(s.length for s in segs)
    qr = Rational(q)
    zero, one = Rational(0), Rational(1)
    fr = [[zero] * n for _ in range(n)]
    nil = [[zero] * n for _ in range(n)]
    pos = 0
    for s in segs:
        for j in range(s.length):
            fr[pos + j][pos + j] = s.chi * qr ** (s.length - 1 - j)
            if j + 1 < s.length:
                nil[pos + j + 1][pos + j] = one
        pos += s.length
    return WeilDeligneRep(Matrix(fr), Matrix(nil), q, embeddings=embeddings)
