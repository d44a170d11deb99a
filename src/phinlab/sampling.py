"""Seeded random generators and the batch sweep.

Everything here is driven by a caller-supplied random.Random, so a fixed
seed reproduces the exact same modules, partitions and reports. The sweep
builds a fixed slate of randomized cases across the pipelines and returns
a JSON-ready dict whose serialization is byte-stable.
"""

import random

from .errors import Undecided
from .hecke import HeckeParams, theta_closed, theta_enumerated
from .interpolation import check_integrality, consistency_check
from .linalg import Matrix, jordan_nilpotent, jordan_partition
from .modules import FieldDescriptor, _admissible, build_module, is_weakly_admissible
from .partitions import Partition, PartitionFunction, paper_leq, stratum_member
from .scalars import Rational, format_rational
from .weil_deligne import Segment, wd_from_segments

__all__ = [
    "random_unimodular",
    "random_partition",
    "random_nilpotent",
    "random_psi",
    "random_wa_module",
    "random_generic_module",
    "non_admissible_witness",
    "sweep",
]


def random_unimodular(rng, n):
    """Product of a unit lower, a unit upper, and a permutation matrix."""
    lower = [[Rational(0)] * n for _ in range(n)]
    upper = [[Rational(0)] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = Rational(1)
        upper[i][i] = Rational(1)
        for j in range(i):
            lower[i][j] = Rational(rng.randint(-2, 2))
            upper[j][i] = Rational(rng.randint(-2, 2))
    perm = list(range(n))
    rng.shuffle(perm)
    p_rows = [[Rational(1) if j == perm[i] else Rational(0) for j in range(n)] for i in range(n)]
    return Matrix(lower) @ Matrix(upper) @ Matrix(p_rows)


def random_partition(rng, n):
    parts = []
    left = n
    while left:
        k = rng.randint(1, left)
        parts.append(k)
        left -= k
    return Partition(tuple(sorted(parts, reverse=True)))


def random_nilpotent(rng, n):
    """A conjugated Jordan nilpotent together with its (known) partition."""
    shape = random_partition(rng, n)
    s = random_unimodular(rng, n)
    return s @ jordan_nilpotent(shape.parts) @ s.inverse(), shape


def random_psi(rng, n):
    vals = []
    for _ in range(n):
        num = rng.choice([x for x in range(-9, 10) if x != 0])
        vals.append(Rational(num) / rng.randint(1, 9))
    return tuple(vals)


def _units_coprime(p, k, rng):
    pool = [u for u in (1, 3, 5, 7, 9, 11, 13) if u % p]
    return rng.sample(pool, k)


def random_wa_module(rng, n=None):
    """A weakly admissible crystalline module with distinct eigenvalues.

    Jumps are strictly increasing and nonnegative (the effective regular
    range where integrality always holds). Random flags are rejection
    sampled, 200 at most; if none is admissible we fall back to the
    split-ordinary shape (slope = jump on an eigenbasis), which is
    admissible outright, conjugated to hide the eigenbasis.
    """
    p = rng.choice([2, 3, 5])
    n = n or rng.randint(1, 3)
    field = FieldDescriptor(p=p)
    jumps = []
    j = rng.randint(0, 1)
    for _ in range(n):
        jumps.append(j)
        j += rng.randint(1, 2)
    total = sum(jumps)
    units = _units_coprime(p, n, rng)
    for _ in range(200):
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        slopes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        diag = [Rational(u) * Rational(p) ** s for u, s in zip(units, slopes)]
        flag = random_unimodular(rng, n)
        d = build_module(
            field, n, Matrix.diagonal(diag), Matrix.zeros(n, n), {"k0": (flag, list(jumps))}
        )
        try:
            if _admissible(d):
                return d
        except Undecided:
            continue
    s = random_unimodular(rng, n)
    diag = [Rational(u) * Rational(p) ** jump for u, jump in zip(units, jumps)]
    phi = s @ Matrix.diagonal(diag) @ s.inverse()
    return build_module(field, n, phi, Matrix.zeros(n, n), {"k0": (s, list(jumps))})


def non_admissible_witness():
    """Rank one over p = 2 with slope -1 against jump 0; beta valuation lands at -1."""
    return build_module(
        FieldDescriptor(p=2), 1, [[Rational(1, 2)]], [[0]],
        {"k0": (Matrix.identity(1), [0])},
    )


def random_generic_module(rng):
    """Semistable module whose segments sit on distinct q-lines (so generic)."""
    p = rng.choice([2, 3, 5])
    units = _units_coprime(p, rng.randint(1, 2), rng)
    segs = [
        Segment(Rational(u) * Rational(p) ** rng.randint(0, 1), rng.randint(1, 2))
        for u in units
    ]
    w = wd_from_segments(segs, p)
    n = w.n
    s = random_unimodular(rng, n)
    jumps = []
    j = rng.randint(-1, 1)
    for _ in range(n):
        jumps.append(j)
        j += rng.randint(1, 3)
    return build_module(
        FieldDescriptor(p=p), n,
        s @ w.frobenius @ s.inverse(), s @ w.monodromy @ s.inverse(),
        {"k0": (Matrix.identity(n), jumps)},
    )


def _case(cid, kind, ok, detail):
    out = {"id": cid, "kind": kind, "ok": ok}
    out.update(detail)
    return out


def sweep(seed):
    """Fixed slate of randomized checks; same seed, same bytes."""
    rng = random.Random(seed)
    cases = []

    for i in range(10):
        n = rng.randint(1, 4)
        h = HeckeParams(n, rng.choice([2, 3, 4]), rng.randint(1, n))
        psi = random_psi(rng, n)
        closed = theta_closed(psi, h)
        enumerated = theta_enumerated(psi, h)
        cases.append(_case(
            f"hecke-{i:03d}", "theta_routes_agree", enumerated == closed,
            {"n": h.n, "q": h.q, "r": h.r, "closed": format_rational(closed),
             "enumerated": format_rational(enumerated)},
        ))

    for i in range(10):
        n = rng.randint(1, 5)
        nil, shape = random_nilpotent(rng, n)
        probe = random_partition(rng, n)
        member = stratum_member({"k0": nil}, PartitionFunction({"k0": probe}))
        expected = paper_leq(PartitionFunction({"k0": probe}), PartitionFunction({"k0": shape}))
        cases.append(_case(
            f"strata-{i:03d}", "stratum_matches_order", member == expected,
            {"n": n, "nilpotent_shape": list(shape.parts), "probe": list(probe.parts),
             "member": member},
        ))

    for i in range(8):
        d = random_wa_module(rng)
        rep = is_weakly_admissible(d)
        cases.append(_case(
            f"admissible-{i:03d}", "sampled_module_admissible", rep.admissible,
            {"n": d.n, "p": d.field.p, "t_h": format_rational(rep.t_h),
             "t_n": format_rational(rep.t_n)},
        ))

    for i in range(8):
        d = random_wa_module(rng)
        report = check_integrality(d)
        cases.append(_case(
            f"integrality-{i:03d}", "beta_integral_on_admissible", report["passed"],
            {"n": d.n, "p": d.field.p,
             "valuations": [str(row["valuation"]) for row in report["rows"]]},
        ))

    neg = check_integrality(non_admissible_witness())
    cases.append(_case(
        "integrality-neg-000", "non_admissible_shows_negative", not neg["passed"],
        {"valuations": [str(row["valuation"]) for row in neg["rows"]]},
    ))

    for i in range(8):
        d = random_generic_module(rng)
        report = consistency_check(d)
        cases.append(_case(
            f"consistency-{i:03d}", "hecke_equals_galois", report["status"] == "pass",
            {"n": d.n, "q": report["q"], "status": report["status"]},
        ))

    linked = build_module(
        FieldDescriptor(p=2), 2, Matrix.diagonal([1, 2]), Matrix.zeros(2, 2),
        {"k0": (Matrix.identity(2), [0, 1])},
    )
    rep = consistency_check(linked)
    cases.append(_case(
        "consistency-neg-000", "linked_segments_not_generic",
        rep["status"] == "not_generic", {"status": rep["status"]},
    ))

    cases.sort(key=lambda c: c["id"])
    return {
        "seed": seed,
        "case_count": len(cases),
        "passed": all(c["ok"] for c in cases),
        "cases": cases,
    }
