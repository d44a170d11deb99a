"""Seeded input generator whose verdicts are known from the construction.

Nothing here imports phinlab: inputs and their expected verdicts come from
plain ``fractions.Fraction`` arithmetic, so the code under test never
decides what a correct answer is.

Every module is built on a conjugated eigenbasis S (an integer matrix of
determinant +-1) with the flag equal to that eigenbasis. Frobenius is
``S D S^-1`` where D holds chains ``chi, chi q, ..., chi q^(k-1)`` (one per
segment; a length-1 segment is an ordinary eigenvalue) and the monodromy is
``S N0 S^-1`` with N0 the matching shift. With the flag on the eigenbasis,
t_H of a stable subspace is the sum of the jumps on its eigenvectors and
t_N is the sum of their slopes, so:

* jumps equal to the slopes give an admissible module (every stable
  subspace has t_H = t_N);
* the top jump raised by one gives t_H != t_N on the whole space;
* two jumps exchanged (N = 0 only) make the line with the smaller slope
  destabilising, with t_H equal to the larger slope.

Segments on distinct q-lines (distinct units) are generic; two segments
that sit next to each other on one q-line are linked.
"""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# A q-line is fixed by its unit: u p^a and u' p^b share a line only when u = u'.
# Small units keep the spectrum's height down to its p-power part.
_UNIT_RANGE = range(1, 8)


@dataclass(frozen=True)
class ModuleCase:
    """One generated module, its fixture text and its construction labels."""

    name: str
    p: int
    blocks: tuple      # ((chi, length), ...) in basis order
    eigen: tuple       # eigenvalue on each basis column
    slopes: tuple      # p-adic valuation of each eigenvalue
    jumps: tuple       # filtration jump of each basis column
    admissible: bool
    generic: bool
    witness: tuple     # None, ("full",) or ("line", t_h, t_n)
    text: str          # fixture JSON

    @property
    def n(self):
        return len(self.eigen)

    @property
    def shape(self):
        return tuple(sorted((k for _, k in self.blocks), reverse=True))

    @property
    def stable_count(self):
        out = 1
        for _, k in self.blocks:
            out *= k + 1
        return out


@dataclass(frozen=True)
class HeckeCase:
    n: int
    r: int
    q: int
    psi: tuple


# ---------------------------------------------------------------------------
# exact matrix helpers


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def _inverse(m):
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def unimodular(rng, n):
    """An integer matrix of det +-1: a fixed L * U core per rank, with rows
    permuted and signed and columns permuted by the seed.

    A shared core keeps entry sizes, and so the cost of eliminating the
    conjugated matrices, nearly the same for every seed.
    """
    core_rng = random.Random(f"conjugator:{n}")
    lo = [[Fraction(1 if i == j else core_rng.randint(-1, 1) if i > j else 0)
           for j in range(n)] for i in range(n)]
    up = [[Fraction(1 if i == j else core_rng.randint(-1, 1) if i < j else 0)
           for j in range(n)] for i in range(n)]
    core = _matmul(lo, up)
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * core[rows[i]][cols[j]] for j in range(n)] for i in range(n)]


def elementary_symmetric(values, r):
    dp = [Fraction(1)] + [Fraction(0)] * r
    for v in values:
        for k in range(r, 0, -1):
            dp[k] += v * dp[k - 1]
    return dp[r]


def padic_valuation(x, p):
    """Valuation of a nonzero rational."""
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def root_search_heights(eigen):
    """|constant| and |leading| coefficient of the char poly cleared to integers.

    These are the two integers whose divisors a rational-root search has to
    enumerate.
    """
    n = len(eigen)
    coeffs = [elementary_symmetric(eigen, k) for k in range(n + 1)]
    scale = 1
    for c in coeffs:
        d = c.denominator
        scale = scale * d // math.gcd(scale, d)
    return abs(coeffs[n] * scale), scale


# ---------------------------------------------------------------------------
# module construction


def _fmt(x):
    return str(Fraction(x))


def module_json(p, phi, monodromy, flag, jumps):
    """Fixture text in the shared module schema; same inputs, same bytes."""
    obj = {
        "field": {"p": p, "f0": 1, "e": 1, "f": 1, "embeddings": ["k0"]},
        "n": len(phi),
        "phi": [[_fmt(x) for x in row] for row in phi],
        "monodromy": [[_fmt(x) for x in row] for row in monodromy],
        "filtration": {"k0": {"flag": [[_fmt(x) for x in row] for row in flag],
                              "jumps": list(jumps)}},
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def build_case(rng, name, p, blocks, variant, linked=False):
    """Conjugate a chain/diagonal model and attach the flag for ``variant``.

    ``blocks`` lists (chi, length) segments; ``variant`` is "admissible",
    "raised" or "exchanged". ``linked`` labels whether two segments are
    adjacent on one q-line (the caller arranged the chi values).
    """
    eigen, shifts = [], []
    pos = 0
    for chi, k in blocks:
        for j in range(k):
            eigen.append(Fraction(chi) * Fraction(p) ** (k - 1 - j))
            if j + 1 < k:
                shifts.append((pos + j + 1, pos + j))
        pos += k
    n = len(eigen)
    slopes = tuple(padic_valuation(v, p) for v in eigen)
    if len(set(slopes)) != n:
        raise ValueError("slopes must be distinct so the Hodge-Tate weights are regular")
    jumps = list(slopes)
    witness = None
    if variant == "raised":
        top = max(range(n), key=lambda i: jumps[i])
        jumps[top] += 1
        witness = ("full",)
    elif variant == "exchanged":
        if shifts:
            raise ValueError("exchanged jumps are only labelled for N = 0")
        a, b = sorted(rng.sample(range(n), 2), key=lambda i: slopes[i])
        jumps[a], jumps[b] = jumps[b], jumps[a]
        witness = ("line", slopes[b], slopes[a])
    elif variant != "admissible":
        raise ValueError(f"unknown variant {variant!r}")
    s = unimodular(rng, n)
    s_inv = _inverse(s)
    diag = [[eigen[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    nil = [[Fraction(0)] * n for _ in range(n)]
    for i, j in shifts:
        nil[i][j] = Fraction(1)
    phi = _matmul(_matmul(s, diag), s_inv)
    mono = _matmul(_matmul(s, nil), s_inv)
    return ModuleCase(
        name=name, p=p, blocks=tuple((Fraction(c), k) for c, k in blocks),
        eigen=tuple(eigen), slopes=slopes, jumps=tuple(jumps),
        admissible=variant == "admissible", generic=not linked, witness=witness,
        text=module_json(p, phi, mono, s, jumps),
    )


def _units(rng, p, count):
    """``count`` distinct signed units prime to p, so each sits on its own q-line.

    The set depends only on (p, count); the seed only shuffles it, so the
    unit part of the spectrum's height is the same for every seed.
    """
    pool = [s * u for u in _UNIT_RANGE if u % p for s in (1, -1)][:count]
    rng.shuffle(pool)
    return pool


def _chain_blocks(rng, p, lengths, linked):
    """Segments of the given lengths on disjoint slope ranges.

    With ``linked`` the first two segments share a q-line and sit next to
    each other on it; every other segment has its own unit.
    """
    units = _units(rng, p, len(lengths))
    if linked:
        units[1] = units[0]
        groups = [[0, 1]] + [[i] for i in range(2, len(lengths))]
    else:
        groups = [[i] for i in range(len(lengths))]
    rng.shuffle(groups)
    base = -(sum(lengths) // 2) - rng.randint(0, 1)
    slope_of = {}
    for group in groups:
        # inside a linked group segment 0 sits directly above segment 1
        for i in reversed(group):
            slope_of[i] = base
            base += lengths[i]
    return [(Fraction(units[i]) * Fraction(p) ** slope_of[i], k) for i, k in enumerate(lengths)]


def _ordinary_blocks(rng, p, slopes):
    units = _units(rng, p, len(slopes))
    return [(Fraction(u) * Fraction(p) ** s, 1) for u, s in zip(units, slopes)]


# Jordan shape of the monodromy for chain modules, fixed per rank so that the
# number of stable subspaces (prod of (length + 1)) does not depend on the seed.
CHAIN_SHAPES = {2: (2,), 3: (2, 1), 5: (2, 2, 1), 6: (3, 2, 1), 7: (3, 2, 1, 1), 8: (3, 2, 2, 1)}


def module_case(rng, name, p, n, family, variant):
    """One module of a kind: family "ordinary" (N = 0) or "chain" (N != 0).

    Variants: "admissible", "raised", "exchanged" (ordinary only) and
    "linked" (chain only; admissible, with two linked segments).
    """
    if family == "ordinary":
        slopes = list(range(-(n // 2), n - n // 2))
        rng.shuffle(slopes)
        return build_case(rng, name, p, _ordinary_blocks(rng, p, slopes), variant)
    linked = variant == "linked"
    blocks = _chain_blocks(rng, p, CHAIN_SHAPES[n], linked)
    return build_case(rng, name, p, blocks, "admissible" if linked else variant, linked=linked)


# (rank, family, variant), one module each. Rank 5 and 6 carry the full
# scans; rank 7 and 8 carry kinds whose scan stops early or is pruned,
# because one all-stable module costs about 6 s at rank 7 and 16 s at rank 8
# (more than a steady run can hold). The rank-8 chain module tries all 256
# masks and finds 72 stable. The mix puts the median and the tail item
# inside a cluster of similar costs (0.55-0.65 s here), so item-to-item noise
# moves them little.
RANK_SLOTS = (
    (6, "ordinary", "admissible"), (7, "chain", "raised"), (5, "chain", "admissible"),
    (6, "chain", "linked"), (7, "ordinary", "exchanged"), (6, "ordinary", "raised"),
    (7, "ordinary", "raised"), (5, "chain", "linked"), (6, "chain", "admissible"),
    (8, "chain", "raised"), (5, "ordinary", "admissible"),
)


def report_rank_cases(seed):
    """Rank 5-8 modules with small-height split spectra in a fixed mix of kinds.

    The seed changes units, slopes and conjugations, never the mix.
    """
    rng = random.Random(f"report-rank:{seed}")
    return [
        module_case(rng, f"rank{n}-{family}-{variant}", (2, 3)[i % 2], n, family, variant)
        for i, (n, family, variant) in enumerate(RANK_SLOTS)
    ]


def _is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_near(target, p):
    """Smallest prime other than p at or above ``target``."""
    x = max(2, int(target))
    while not _is_prime(x) or x == p:
        x += 1
    return x


# Decade windows for the two integers a rational-root search factors: the
# cleared constant coefficient (numerators) and the clearing scale
# (denominators). Half of the pool uses the lower window, half the higher.
HEIGHT_WINDOWS = (((8.5, 8.6), (8.5, 8.6)), ((11, 11.1), (8.5, 8.6)))


# slope multiset per rank; with the unit set fixed too, the p-power and unit
# parts of both root-search integers are the same for every seed
HEIGHT_SLOPES = {2: (1, -1), 3: (1, 0, -1), 4: (2, 1, -1, -2)}


def _height_blocks(rng, p, n, windows):
    """Eigenvalues u p^s where one unit gains a large prime numerator a and
    another a large prime denominator b. a and b are sized so both
    root-search integers (cleared constant coefficient and clearing scale)
    land in their windows, and each has few divisors."""
    (top_lo, top_hi), (bot_lo, bot_hi) = windows
    for _ in range(1000):
        slopes = list(HEIGHT_SLOPES[n])
        rng.shuffle(slopes)
        small = [Fraction(u) * Fraction(p) ** s for u, s in zip(_units(rng, p, n), slopes)]
        top1, bottom1 = root_search_heights(small)
        a = _prime_near(10 ** rng.uniform(top_lo, top_hi) / top1, p)
        b = _prime_near(10 ** rng.uniform(bot_lo, bot_hi) / bottom1, p)
        eigen = [small[0] * a] + small[1:-1] + [small[-1] / b]
        top, bottom = root_search_heights(eigen)
        if 10 ** top_lo <= top <= 10 ** top_hi and 10 ** bot_lo <= bottom <= 10 ** bot_hi:
            return [(v, 1) for v in eigen]
    raise RuntimeError("no spectrum met the height window")


def report_height_cases(seed):
    """Rank 2-4 ordinary modules whose root search meets 10^8..10^12 integers."""
    rng = random.Random(f"report-height:{seed}")
    out = []
    for windows in HEIGHT_WINDOWS:
        for variant in ("admissible", "raised", "exchanged"):
            for n in (2, 3, 4):
                p = (2, 3, 5)[(n + len(out)) % 3]
                blocks = _height_blocks(rng, p, n, windows)
                name = f"height{n}-{variant}-e{windows[0][0]}"
                out.append(build_case(rng, name, p, blocks, variant))
    return out


def hecke_cases(seed):
    """Every (n, r) with n in 6..12, each with every q and a seeded small psi."""
    rng = random.Random(f"hecke-routes:{seed}")
    out = []
    for n in range(6, 13):
        for r in range(1, n + 1):
            for q in (2, 3, 5, 4, 9):
                psi = tuple(
                    Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
                    for _ in range(n)
                )
                out.append(HeckeCase(n, r, q, psi))
    rng.shuffle(out)
    return out


def closed_theta(case):
    """q^{r(1-r)/2} * e_r(psi), computed here without the code under test."""
    e = elementary_symmetric(case.psi, case.r)
    exp = case.r * (1 - case.r) // 2
    return e * Fraction(case.q) ** exp


def psi_arg(psi):
    return "--psi=" + ",".join(str(v) for v in psi)


COLD_SLOTS = (
    (2, "ordinary", "admissible"), (3, "ordinary", "raised"), (2, "ordinary", "exchanged"),
    (3, "chain", "admissible"), (3, "chain", "linked"), (2, "chain", "raised"),
)


def cold_cases(seed):
    """Rank 2-3 fixtures for the cold-process workload: one per module kind."""
    rng = random.Random(f"cli-cold:{seed}")
    return [
        module_case(rng, f"cold{n}-{family}-{variant}", (2, 3, 5)[i % 3], n, family, variant)
        for i, (n, family, variant) in enumerate(COLD_SLOTS)
    ]


def cold_hecke(seed):
    rng = random.Random(f"cli-cold-hecke:{seed}")
    out = []
    for _ in range(6):
        n = rng.randint(2, 3)
        psi = tuple(Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
                    for _ in range(n))
        out.append(HeckeCase(n, rng.randint(1, n), rng.choice((2, 3, 5, 4, 9)), psi))
    return out


def partitions_desc(n, cap=None):
    """Partitions of n, lexicographically largest first."""
    if n == 0:
        yield ()
        return
    cap = n if cap is None else min(cap, n)
    for first in range(cap, 0, -1):
        for rest in partitions_desc(n - first, first):
            yield (first,) + rest


def dominates(a, b):
    """Natural dominance order of two partitions of the same total."""
    length = max(len(a), len(b))
    sa = sb = 0
    for i in range(length):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True
