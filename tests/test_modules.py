import math
import random
from fractions import Fraction

import pytest

from phinlab import errors, modules
from phinlab.config import check_work_units
from phinlab.errors import (
    BadFlag,
    EnumerationCapExceeded,
    InputError,
    NonNilpotentMonodromy,
    NotFullyRational,
    RelationViolation,
    RepeatedEigenvalues,
    SingularFrobenius,
    Undecided,
)
from phinlab.linalg import Matrix, Subspace, _echelon, rational_eigenvalues
from phinlab.modules import (
    FieldDescriptor,
    Flag,
    build_module,
    enumerate_stable_subspaces,
    hodge_number,
    is_weakly_admissible,
    newton_number,
)
from test_linalg import kernel_basis_reference
from tests_helpers import matrix_power, random_unimodular

F2 = FieldDescriptor(p=2)


def steinberg(p=2, flag=None, jumps=(0, 1)):
    field = FieldDescriptor(p=p)
    flag = flag if flag is not None else [[1, 1], [0, 1]]
    return build_module(
        field,
        2,
        [[1, 0], [0, p]],
        [[0, 1], [0, 0]],
        {"k0": (flag, list(jumps))},
    )


def crystalline(field, diag, flag, jumps):
    n = len(diag)
    return build_module(field, n, Matrix.diagonal(diag), Matrix.zeros(n, n),
                        {"k0": (flag, list(jumps))})


def test_field_descriptor_defaults_and_validation():
    f = FieldDescriptor(p=3)
    assert (f.f0, f.e, f.f, f.embeddings, f.degree_factor) == (1, 1, 1, ("k0",), 1)
    assert f.q == 3
    assert FieldDescriptor(p=2, f0=2).q == 4
    with pytest.raises(ValueError):
        FieldDescriptor(p=6)
    with pytest.raises(ValueError):
        FieldDescriptor(p=2, embeddings=())
    with pytest.raises(ValueError):
        FieldDescriptor(p=2, embeddings=("a", "a"))
    with pytest.raises(ValueError):
        FieldDescriptor(p=2, e=0)


def test_build_module_accepts_steinberg():
    d = steinberg()
    assert d.n == 2
    assert d.jumps("k0") == (0, 1)
    assert d.fil_subspace("k0", 1) == Subspace(2, [(1, 1)])
    assert d.fil_subspace("k0", 0) == Subspace.full(2)
    assert d.fil_subspace("k0", 2) == Subspace.zero(2)


def test_a_built_module_refuses_a_new_flag():
    d, e = steinberg(), steinberg()
    with pytest.raises(TypeError):
        d.filtration["k0"] = Flag(Matrix.identity(2), (0, 5))
    assert d == e and hash(d) == hash(e)
    assert is_weakly_admissible(d).admissible


def test_spectrum_and_budget_errors_are_undecided():
    for error in (RepeatedEigenvalues, NotFullyRational, EnumerationCapExceeded):
        assert issubclass(error, Undecided) and issubclass(error, InputError)


def test_build_module_sorts_flag_columns_by_jump():
    field = FieldDescriptor(p=2)
    d = build_module(field, 2, [[1, 0], [0, 2]], [[0, 1], [0, 0]],
                     {"k0": ([[1, 1], [1, -1]], [1, 0])})
    assert d.jumps("k0") == (0, 1)
    # the jump-1 generator must still be e1 + e2
    assert d.fil_subspace("k0", 1) == Subspace(2, [(1, 1)])


def test_build_module_rejects_singular_frobenius():
    with pytest.raises(SingularFrobenius):
        build_module(F2, 2, [[1, 1], [1, 1]], Matrix.zeros(2, 2),
                     {"k0": (Matrix.identity(2), [0, 0])})


def test_build_module_rejects_non_nilpotent_monodromy():
    with pytest.raises(NonNilpotentMonodromy):
        build_module(F2, 2, Matrix.identity(2), Matrix.identity(2),
                     {"k0": (Matrix.identity(2), [0, 0])})


def test_build_module_rejects_relation_violation():
    with pytest.raises(RelationViolation) as exc:
        build_module(F2, 2, Matrix.identity(2), [[0, 1], [0, 0]],
                     {"k0": (Matrix.identity(2), [0, 0])})
    assert exc.value.entry == (0, 1)


def test_build_module_rejects_bad_flags():
    with pytest.raises(BadFlag):
        steinberg(flag=[[1, 1], [1, 1]])
    with pytest.raises(BadFlag):
        build_module(F2, 2, [[1, 0], [0, 2]], [[0, 1], [0, 0]],
                     {"k0": (Matrix.identity(2), [0])})
    with pytest.raises(BadFlag):
        build_module(F2, 2, [[1, 0], [0, 2]], [[0, 1], [0, 0]],
                     {"oops": (Matrix.identity(2), [0, 1])})


def test_build_module_shape_mismatch():
    with pytest.raises(InputError):
        build_module(F2, 3, [[1, 0], [0, 2]], Matrix.zeros(2, 2),
                     {"k0": (Matrix.identity(2), [0, 1])})


def test_newton_number_pinned():
    assert newton_number(steinberg()) == 1
    d = crystalline(F2, [4, 8], Matrix.identity(2), [0, 0])
    assert newton_number(d) == 5
    line = Subspace(2, [(1, 0)])
    assert newton_number(steinberg(), line) == 0


def test_newton_number_scaling():
    # e = 2 doubles the valuation; degree_factor and f divide it
    field = FieldDescriptor(p=2, e=2)
    d = build_module(field, 1, [[2]], [[0]], {"k0": (Matrix.identity(1), [0])})
    assert newton_number(d) == 2
    field = FieldDescriptor(p=2, f=2, degree_factor=2)
    d = build_module(field, 1, [[4]], [[0]], {"k0": (Matrix.identity(1), [0])})
    assert newton_number(d) == Fraction(1, 2)


def test_hodge_number_pinned():
    st = steinberg()
    assert hodge_number(st) == 1
    assert hodge_number(st, Subspace(2, [(1, 0)])) == 0
    assert hodge_number(st, Subspace.full(2)) == 1
    assert hodge_number(st, Subspace.zero(2)) == 0
    d = crystalline(F2, [1, 8], Matrix.identity(2), [0, 3])
    assert hodge_number(d) == 3


def test_hodge_number_counts_flag_intersections():
    # filtration line equal to an eigenline: the subspace picks up the jump
    d = crystalline(F2, [1, 2], [[0, 1], [1, 0]], [0, 1])
    # flag columns sorted by jump: jump-1 generator is e2... build: columns
    # (0,1) jump 0 and (1,0) jump 1, so Fil^1 = span(e1)
    assert hodge_number(d, Subspace(2, [(1, 0)])) == 1


def test_hodge_number_rejects_unstable_subspace():
    st = steinberg()
    with pytest.raises(ValueError):
        hodge_number(st, Subspace(2, [(0, 1)]))  # not N-stable
    d = crystalline(F2, [1, 2], Matrix.identity(2), [0, 1])
    with pytest.raises(ValueError):
        hodge_number(d, Subspace(2, [(1, 1)]))  # not phi-stable


def test_hodge_number_sums_over_embeddings():
    field = FieldDescriptor(p=2, embeddings=("k0", "k1"))
    d = build_module(field, 1, [[2]], [[0]],
                     {"k0": (Matrix.identity(1), [3]), "k1": (Matrix.identity(1), [-1])})
    assert hodge_number(d) == 2


def test_enumerate_stable_subspaces_steinberg():
    subs = enumerate_stable_subspaces(steinberg())
    assert len(subs) == 3
    assert subs[0] == Subspace.zero(2)
    assert subs[1] == Subspace(2, [(1, 0)])
    assert subs[2] == Subspace.full(2)


def test_enumerate_stable_subspaces_crystalline_is_full_boolean_lattice():
    d = crystalline(F2, [1, 2, 3], Matrix.identity(3), [0, 0, 0])
    subs = enumerate_stable_subspaces(d)
    assert len(subs) == 8
    dims = sorted(s.dim for s in subs)
    assert dims == [0, 1, 1, 1, 2, 2, 2, 3]


def test_enumerate_verified_stable():
    rng = random.Random(41)
    for _ in range(10):
        p = rng.choice([2, 3, 5])
        vals = rng.sample(sorted({1, p, p**2, 2 * p, 3}), 3)
        d = crystalline(FieldDescriptor(p=p), vals, Matrix.identity(3), [0, 1, 2])
        for sub in enumerate_stable_subspaces(d):
            if sub.dim:
                assert sub.is_stable_under(d.phi)
                assert sub.is_stable_under(d.monodromy)


def test_enumerate_rejects_repeated_or_irrational():
    with pytest.raises(RepeatedEigenvalues):
        enumerate_stable_subspaces(crystalline(F2, [3, 3], Matrix.identity(2), [0, 0]))
    with pytest.raises(NotFullyRational):
        d = build_module(F2, 2, [[0, 2], [1, 0]], Matrix.zeros(2, 2),
                         {"k0": (Matrix.identity(2), [0, 0])})
        enumerate_stable_subspaces(d)


def diagonal(n):
    """The admissible rank-n module with phi = diag(1, 2, ..., 2^(n-1)), N = 0
    and jumps 0..n-1 on the standard flag: 2^n N-closed sets."""
    return crystalline(F2, [2**i for i in range(n)], Matrix.identity(n), list(range(n)))


def test_enumeration_cap():
    # n * 2^n work units: 12 * 4096 is within the budget, 13 * 8192 is not
    assert is_weakly_admissible(diagonal(12)).subspaces_checked == 4096
    with pytest.raises(InputError) as exc:
        is_weakly_admissible(diagonal(13))
    assert str(exc.value) == "stable-subspace enumeration: 106496 work units exceed the budget of 100000"


def test_enumeration_cap_raises_its_own_input_error(monkeypatch):
    units = []

    def gate(count, what):
        units.append(count)
        return check_work_units(count, what)

    def no_subspace(*args):
        raise AssertionError("a stable subspace was built past the gate")

    monkeypatch.setattr(modules, "check_work_units", gate)
    monkeypatch.setattr(modules, "Subspace", no_subspace)
    with pytest.raises(EnumerationCapExceeded) as exc:
        enumerate_stable_subspaces(diagonal(13))
    assert units == [13 * 2**13]
    assert isinstance(exc.value, InputError)
    assert "EnumerationCapExceeded" in errors.__all__


def test_enumeration_cap_counts_closed_sets_not_rank():
    # N = one chain e_19 -> e_18 -> ... -> e_0: 21 closed sets at rank 20
    n = 20
    chain = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    d = build_module(F2, n, Matrix.diagonal([2**i for i in range(n)]), chain,
                     {"k0": (Matrix.identity(n), list(range(n)))})
    report = is_weakly_admissible(d)
    assert report.admissible and report.subspaces_checked == n + 1


def test_steinberg_is_weakly_admissible():
    report = is_weakly_admissible(steinberg())
    assert report.admissible
    assert report.witness is None
    assert report.t_h == 1 and report.t_n == 1
    assert report.subspaces_checked == 3
    assert report.mode == "enumerated"


def test_bad_flag_position_breaks_admissibility():
    # moving the filtration line onto the phi-stable line e1 overweights it
    report = is_weakly_admissible(steinberg(flag=[[1, 0], [0, 1]], jumps=(1, 0)))
    assert not report.admissible
    sub, t_h, t_n = report.witness
    assert sub == Subspace(2, [(1, 0)])
    assert t_h == 1 and t_n == 0


def test_totals_mismatch_reported_on_full_space():
    d = crystalline(F2, [1, 2], Matrix.identity(2), [0, 0])  # t_H = 0, t_N = 1
    report = is_weakly_admissible(d)
    assert not report.admissible
    sub, t_h, t_n = report.witness
    assert sub == Subspace.full(2)
    assert (t_h, t_n) == (0, 1)


def test_negative_jump_rank_one_admissible():
    field = FieldDescriptor(p=2)
    d = build_module(field, 1, [[Fraction(1, 2)]], [[0]],
                     {"k0": (Matrix.identity(1), [-1])})
    assert is_weakly_admissible(d).admissible
    d0 = build_module(field, 1, [[Fraction(1, 2)]], [[0]],
                      {"k0": (Matrix.identity(1), [0])})
    assert not is_weakly_admissible(d0).admissible


def test_certificate_mode():
    d = steinberg(flag=[[1, 0], [0, 1]], jumps=(1, 0))
    line = Subspace(2, [(1, 0)])
    report = is_weakly_admissible(d, candidates=[line])
    assert report.mode == "certificate"
    assert not report.admissible
    assert report.subspaces_checked == 1
    good = is_weakly_admissible(steinberg(), candidates=[line])
    assert good.admissible and good.mode == "certificate"


def test_certificate_mode_rejects_unstable_candidates():
    with pytest.raises(InputError):
        is_weakly_admissible(steinberg(), candidates=[Subspace(2, [(0, 1)])])


def test_admissibility_invariant_under_base_change():
    from tests_helpers import random_unimodular

    rng = random.Random(43)
    base_cases = [
        steinberg(),
        steinberg(flag=[[1, 0], [0, 1]], jumps=(1, 0)),
        crystalline(F2, [1, 2], [[1, 1], [0, 1]], [0, 1]),
        crystalline(F2, [1, 4], [[1, 1], [0, 1]], [0, 1]),
    ]
    for d in base_cases:
        base = is_weakly_admissible(d).admissible
        for _ in range(5):
            s = random_unimodular(rng, d.n)
            si = s.inverse()
            moved = build_module(
                d.field, d.n, s @ d.phi @ si, s @ d.monodromy @ si,
                {label: (s @ d.filtration[label].basis, list(d.jumps(label))) for label in d.field.embeddings},
            )
            assert is_weakly_admissible(moved).admissible == base


def test_newton_number_additive_on_direct_sums():
    rng = random.Random(47)
    for _ in range(10):
        p = rng.choice([2, 3])
        a = [rng.choice([1, 2, p, p**2]) for _ in range(2)]
        b = [rng.choice([1, 3, p]) for _ in range(2)]
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        da = crystalline(FieldDescriptor(p=p), a, Matrix.identity(2), [0, 0])
        db = crystalline(FieldDescriptor(p=p), b, Matrix.identity(2), [0, 0])
        dsum = crystalline(FieldDescriptor(p=p), a + b, Matrix.identity(4), [0, 0, 0, 0])
        assert newton_number(dsum) == newton_number(da) + newton_number(db)


def random_semistable_two_label(rng):
    """Conjugated chain blocks (N != 0, distinct eigenvalues) with two random flags.

    The jumps usually sum to t_N, so the subspace loop runs and either
    verdict can come out; sometimes they do not, to exercise the early exit.
    """
    from phinlab.scalars import padic_val
    from tests_helpers import random_unimodular

    p = rng.choice([2, 3])
    n = rng.randint(2, 5)
    lengths = [2]
    while sum(lengths) < n:
        lengths.append(rng.randint(1, n - sum(lengths)))
    units = rng.sample([u for u in (1, 5, 7, 11, 13) if u % p], len(lengths))
    diag, nil = [], [[0] * n for _ in range(n)]
    for u, k in zip(units, lengths):
        base = Fraction(u) * Fraction(p) ** rng.randint(-1, 2)
        for j in range(k):
            if j:
                nil[len(diag)][len(diag) - 1] = 1
            diag.append(base * p ** (k - 1 - j))
    s = random_unimodular(rng, n)
    si = s.inverse()
    phi = s @ Matrix.diagonal(diag) @ si
    monodromy = s @ Matrix(nil) @ si
    field = FieldDescriptor(p=p, embeddings=("k0", "k1"))
    jumps = {label: [rng.randint(-1, 3) for _ in range(n)] for label in field.embeddings}
    t_n = sum(padic_val(x, p) for x in diag)
    if rng.random() < 0.85:
        jumps["k1"][-1] += t_n - sum(jumps["k0"]) - sum(jumps["k1"])
    flags = {label: (random_unimodular(rng, n), jumps[label]) for label in field.embeddings}
    return build_module(field, n, phi, monodromy, flags)


def test_admissibility_loop_matches_the_validating_functions():
    rng = random.Random(53)
    verdicts = set()
    for _ in range(24):
        d = random_semistable_two_label(rng)
        assert not d.monodromy.is_zero
        subs = enumerate_stable_subspaces(d)
        t_h, t_n = hodge_number(d), newton_number(d)
        expected = (True, t_h, t_n, None, len(subs))
        if t_h != t_n:
            expected = (False, t_h, t_n, (Subspace.full(d.n), t_h, t_n), len(subs))
        else:
            for sub in subs:
                if sub.dim in (0, d.n):
                    continue
                sub_h, sub_n = hodge_number(d, sub), newton_number(d, sub)
                if sub_h > sub_n:
                    expected = (False, t_h, t_n, (sub, sub_h, sub_n), len(subs))
                    break
        report = is_weakly_admissible(d)
        witness = None if report.witness is None else tuple(report.witness)
        got = (report.admissible, report.t_h, report.t_n, witness, report.subspaces_checked)
        assert got == expected
        verdicts.add((report.admissible, t_h == t_n))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_stable_subspace_order_is_the_sort_key_order():
    rng = random.Random(53)
    most_denominators = 0
    for _ in range(24):
        d = random_semistable_two_label(rng)
        subs = enumerate_stable_subspaces(d)
        assert subs == sorted(subs, key=Subspace.sort_key)
        denominators = {x.denominator for sub in subs for row in sub.basis for x in row}
        most_denominators = max(most_denominators, len(denominators))
    # the integer key scales by one common multiple, which only matters
    # when one module's bases mix several denominators
    assert most_denominators > 2


ORACLE_UNITS = (1, 5, 7, 11, 13, 17, 19, 23, 25, 29)


def random_oracle_module(rng):
    """A conjugated split multiplicity-free module with 1-3 random flags.

    Rank 2-8; e and f are 1 or 2; N is zero or a sum of chains; jumps
    repeat freely, so most flags are not full. Half of the flags are the eigenbasis in a random
    order, which makes eigenlines carry large jumps and several subspaces
    of one dimension violate at once.
    """
    from phinlab.scalars import padic_val
    from tests_helpers import random_unimodular

    p = rng.choice([2, 3])
    e, f = rng.choice([1, 2]), rng.choice([1, 2])
    n = rng.choice((2, 3, 4, 5, 6) * 3 + (7, 8))
    if rng.random() < (0.4 if n < 7 else 0.15):
        lengths = [1] * n
    else:
        lengths = [2]
        while sum(lengths) < n:
            lengths.append(rng.randint(1, n - sum(lengths)))
    units = rng.sample(ORACLE_UNITS, len(lengths))
    diag, nil = [], [[0] * n for _ in range(n)]
    for u, k in zip(units, lengths):
        base = Fraction(u) * Fraction(p) ** rng.randint(-1, 2)
        for j in range(k):
            if j:
                nil[len(diag)][len(diag) - 1] = 1
            diag.append(base * p ** (f * (k - 1 - j)))
    s = random_unimodular(rng, n)
    si = s.inverse()
    labels = ("k0", "k1", "k2")[:rng.randint(1, 3)]
    field = FieldDescriptor(p=p, e=e, f=f, embeddings=labels)
    jumps = {label: [rng.randint(-1, 2) for _ in range(n)] for label in labels}
    t_n = Fraction(e * sum(padic_val(x, p) for x in diag), f)
    if t_n.denominator == 1 and rng.random() < 0.85:
        jumps[labels[-1]][-1] += int(t_n) - sum(sum(j) for j in jumps.values())
    flags = {}
    for label in labels:
        if rng.random() < 0.5:
            basis = random_unimodular(rng, n)
        else:
            perm = list(range(n))
            rng.shuffle(perm)
            basis = s @ Matrix([[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)])
        flags[label] = (basis, jumps[label])
    return build_module(field, n, s @ Matrix.diagonal(diag) @ si, s @ Matrix(nil) @ si, flags)


def minus_scalar(m, value):
    """m - value*I, entry by entry on the rational rows."""
    return Matrix([[x - value if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(m.rows)])


def brute_force_stable_subspaces(d):
    """Every span of a set of Frobenius eigenvectors that N preserves.

    All 2^n sets are tried, with no use of the chain structure of N; for
    a split multiplicity-free phi these spans are all the stable
    subspaces. Returned in ``Subspace.sort_key`` order.
    """
    eigvecs = [kernel_basis_reference(minus_scalar(d.phi, value).rows)[0]
               for value, _ in rational_eigenvalues(d.phi).roots]
    spans = (Subspace(d.n, [v for i, v in enumerate(eigvecs) if mask >> i & 1])
             for mask in range(1 << d.n))
    return sorted((sub for sub in spans if sub.is_stable_under(d.monodromy)),
                  key=Subspace.sort_key)


def scan_stable_subspaces(d):
    """The verdict by brute force over every stable subspace.

    The subspaces come from ``brute_force_stable_subspaces``, which must
    match ``enumerate_stable_subspaces``. Returns (verdict, t_h, t_n,
    witness, subspaces checked) and the number of violating subspaces of
    the witness's dimension.
    """
    subs = brute_force_stable_subspaces(d)
    assert enumerate_stable_subspaces(d) == subs
    t_h, t_n = hodge_number(d), newton_number(d)
    if t_h != t_n:
        return (False, t_h, t_n, (Subspace.full(d.n), t_h, t_n), len(subs)), 1
    first, ties = None, 0
    for sub in subs:
        if sub.dim in (0, d.n):
            continue
        if first is not None and sub.dim > first[0].dim:
            break
        sub_h, sub_n = hodge_number(d, sub), newton_number(d, sub)
        if sub_h > sub_n:
            first = first or (sub, sub_h, sub_n)
            ties += 1
    return (first is None, t_h, t_n, first, len(subs)), ties


def test_eigen_coordinate_verdict_matches_the_subspace_scan():
    rng = random.Random(59)
    seen = set()
    for _ in range(200):
        d = random_oracle_module(rng)
        expected, ties = scan_stable_subspaces(d)
        report = is_weakly_admissible(d)
        witness = None if report.witness is None else tuple(report.witness)
        got = (report.admissible, report.t_h, report.t_n, witness, report.subspaces_checked)
        assert got == expected
        seen.add(("rank", d.n))
        seen.add(("labels", len(d.field.embeddings)))
        seen.add(("N = 0", d.monodromy.is_zero))
        seen.add(("e, f", d.field.e, d.field.f))
        seen.add(("repeated jumps", any(len(set(d.jumps(label))) < d.n
                                        for label in d.field.embeddings)))
        if report.admissible:
            seen.add("admissible")
        elif report.t_h != report.t_n:
            seen.add("t_H != t_N")
        else:
            seen.add("violating subspace")
            if ties >= 2:
                seen.add("tied violators")
    assert {("rank", n) for n in range(2, 9)} <= seen
    assert {("labels", k) for k in (1, 2, 3)} <= seen
    assert {("N = 0", True), ("N = 0", False), ("repeated jumps", True)} <= seen
    assert {("e, f", e, f) for e in (1, 2) for f in (1, 2)} <= seen
    assert {"admissible", "t_H != t_N", "violating subspace", "tied violators"} <= seen


def fraction_pivots(rows):
    """Pivot columns of rational rows, by Gauss elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                factor = rows[i][c] / rows[r][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def fraction_eigen_frame(d):
    """The eigen-coordinates by the Fraction route: the reference kernel of
    phi - lambda per eigenvalue, B^-1 by inverse, the products B^-1 N B and
    B^-1 flag, and the N-closed sets by trying every index set.

    Returns (valuations, eigenvectors, sorted closed masks, per flag its
    rows in eigen-coordinates with the columns by descending jump).
    """
    from phinlab.scalars import padic_val

    n = d.n
    values = [value for value, _ in rational_eigenvalues(d.phi).roots]
    eigvecs = [kernel_basis_reference(minus_scalar(d.phi, value).rows)[0] for value in values]
    basis = Matrix(list(zip(*eigvecs)))
    to_eigen = basis.inverse()
    support = (to_eigen @ d.monodromy @ basis).rows
    image = [sum(1 << j for j in range(n) if support[j][i]) for i in range(n)]
    closed = sorted(mask for mask in range(1 << n)
                    if all(not image[i] & ~mask for i in range(n) if mask >> i & 1))
    flags = [[row[::-1] for row in (to_eigen @ d.filtration[label].basis).rows]
             for label in d.field.embeddings]
    return [padic_val(v, d.field.p) for v in values], eigvecs, closed, flags


def test_integer_eigen_frame_matches_the_fraction_route():
    from phinlab.modules import _eigen_frame

    rng = random.Random(59)
    for _ in range(200):
        d = random_oracle_module(rng)
        valuations, eigvecs, flags, closed = _eigen_frame(d)
        want_valuations, want_eigvecs, want_closed, want_flags = fraction_eigen_frame(d)
        assert valuations == want_valuations
        assert sorted(closed) == want_closed and len(set(closed)) == len(closed)
        for got, want in zip(eigvecs, want_eigvecs, strict=True):
            # a primitive integer vector, a positive multiple of the kernel basis vector
            assert all(type(x) is int for x in got) and math.gcd(*got) == 1
            free = next(i for i, x in enumerate(want) if x)
            scale = Fraction(got[free]) / Fraction(want[free])
            assert scale > 0 and [Fraction(x) for x in got] == [scale * x for x in want]
        for (rows, jumps), want_rows, label in zip(flags, want_flags, d.field.embeddings, strict=True):
            assert jumps == d.jumps(label)[::-1]
            # each row a primitive integer multiple of the Fraction row, so
            # every set of rows spans what the Fraction rows span
            for got, want in zip(rows, want_rows, strict=True):
                assert all(type(x) is int for x in got) and math.gcd(*got) == 1
                free = next(i for i, x in enumerate(want) if x)
                scale = Fraction(got[free]) / Fraction(want[free])
                assert [Fraction(x) for x in got] == [scale * x for x in want]
            # the pivot columns the verdict reads, on the closed sets of at most one member
            for mask in (m for m in want_closed if m.bit_count() <= 1):
                outside = [r for r in range(d.n) if not mask >> r & 1]
                assert _echelon([rows[r] for r in outside]) == fraction_pivots(
                    [want_rows[r] for r in outside])


@pytest.mark.parametrize("p, phi, jumps, error", [
    (2, Matrix.identity(2), [0, 1], RepeatedEigenvalues),
    (2, Matrix.diagonal([2, 2]), [0, 1], RepeatedEigenvalues),
    (2, Matrix([[0, 2], [1, 0]]), [0, 0], NotFullyRational),
    (3, Matrix.diagonal([2 ** i for i in range(13)]), list(range(13)), EnumerationCapExceeded),
])
def test_a_totals_mismatch_is_decided_before_the_spectrum(p, phi, jumps, error):
    n = phi.nrows
    d = build_module(FieldDescriptor(p=p), n, phi, Matrix.zeros(n, n),
                     {"k0": (Matrix.identity(n), jumps)})
    t_h, t_n = hodge_number(d), newton_number(d)
    assert t_h != t_n
    rep = is_weakly_admissible(d)
    assert (rep.admissible, rep.t_h, rep.t_n, rep.subspaces_checked, rep.mode) == (
        False, t_h, t_n, 1, "enumerated")
    assert tuple(rep.witness) == (Subspace.full(n), t_h, t_n)
    # with the totals made equal, the spectrum or the budget still decides first
    jumps = jumps[:-1] + [jumps[-1] + int(t_n - t_h)]
    d = build_module(FieldDescriptor(p=p), n, phi, Matrix.zeros(n, n),
                     {"k0": (Matrix.identity(n), jumps)})
    with pytest.raises(error):
        is_weakly_admissible(d)


@pytest.mark.parametrize("n", range(2, 10))
def test_check_phi_n_accepts_one_jordan_block_of_index_n(n):
    from phinlab.linalg import jordan_nilpotent
    from phinlab.modules import check_phi_n

    monodromy = jordan_nilpotent([n])
    assert not matrix_power(monodromy, n - 1).is_zero
    # N e_(k+1) = e_k needs phi e_k = 2^k e_k for N*phi = 2*phi*N
    phi = Matrix.diagonal([2 ** k for k in range(n)])
    assert check_phi_n(phi, monodromy, 2, 1) is None
    with pytest.raises(RelationViolation):
        check_phi_n(phi, monodromy, 3, 1)
    # the same block at the scale 3^2: phi e_k = 9^k e_k
    phi = Matrix.diagonal([9 ** k for k in range(n)])
    assert check_phi_n(phi, monodromy, 3, 2) is None


def test_check_phi_n_rejects_non_nilpotent_monodromy():
    from phinlab.modules import check_phi_n

    cases = [
        ([[0, 1], [1, 0]], 2),
        ([[0, 1, 0], [0, 0, 0], [0, 0, Fraction(1, 3)]], 3),
        ([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0]], 5),
    ]
    for rows, n in cases:
        with pytest.raises(NonNilpotentMonodromy) as exc:
            check_phi_n(Matrix.identity(n), Matrix(rows), 2, 1)
        assert str(exc.value) == f"monodromy is not nilpotent: N^{n} != 0"


def test_check_phi_n_relation_violation_text():
    from phinlab.modules import check_phi_n

    with pytest.raises(RelationViolation) as exc:
        check_phi_n(Matrix.identity(2), Matrix([[0, 1], [0, 0]]), 2, 1)
    assert str(exc.value) == (
        "monodromy relation fails at entry (0,1): (N*Phi)[0][1] = 1 but 2*(Phi*N)[0][1] = 2")
    assert (exc.value.entry, exc.value.lhs, exc.value.rhs, exc.value.scale) == ((0, 1), 1, 2, 2)
    phi = Matrix([[Fraction(1, 2), 0, 0], [0, 3, 0], [0, 0, Fraction(5, 7)]])
    monodromy = Matrix([[0, 0, 0], [0, 0, Fraction(1, 3)], [0, 0, 0]])
    with pytest.raises(RelationViolation) as exc:
        check_phi_n(phi, monodromy, 2, 1)
    assert str(exc.value) == (
        "monodromy relation fails at entry (1,2): (N*Phi)[1][2] = 5/21 but 2*(Phi*N)[1][2] = 2")
    with pytest.raises(RelationViolation) as exc:
        check_phi_n(phi, monodromy, 2, 2)
    assert str(exc.value) == (
        "monodromy relation fails at entry (1,2): (N*Phi)[1][2] = 5/21 but 4*(Phi*N)[1][2] = 4")


def test_check_phi_n_reports_a_singular_phi_first():
    from phinlab.modules import check_phi_n

    singular = Matrix([[1, 2], [2, 4]])
    with pytest.raises(SingularFrobenius) as exc:
        check_phi_n(singular, Matrix.identity(2), 2, 1)
    assert str(exc.value) == "phi is singular"
    with pytest.raises(SingularFrobenius):
        check_phi_n(singular, Matrix([[0, 1], [0, 0]]), 2, 1)


def test_check_phi_n_names_the_first_error_at_scale_two():
    from phinlab.linalg import jordan_nilpotent
    from phinlab.modules import check_phi_n

    # N breaks N*phi = 2*phi*N and is not nilpotent: the nilpotency error wins
    with pytest.raises(NonNilpotentMonodromy) as exc:
        check_phi_n(Matrix.identity(2), Matrix([[0, 1], [1, 0]]), 2, 1)
    assert str(exc.value) == "monodromy is not nilpotent: N^2 != 0"
    with pytest.raises(NonNilpotentMonodromy) as exc:
        check_phi_n(Matrix.identity(3), Matrix([[0, 1, 0], [0, 0, 0], [0, 0, Fraction(1, 3)]]), 2, 2)
    assert str(exc.value) == "monodromy is not nilpotent: N^3 != 0"
    # a nilpotent N that breaks it: the first failing entry, row by row
    with pytest.raises(RelationViolation) as exc:
        check_phi_n(Matrix.diagonal([1, 2, 4, 8]), jordan_nilpotent([4]), 3, 1)
    assert str(exc.value) == (
        "monodromy relation fails at entry (0,1): (N*Phi)[0][1] = 2 but 3*(Phi*N)[0][1] = 3")
    monodromy = Matrix([[0, Fraction(1, 2), 5, 0], [0, 0, 3, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(RelationViolation) as exc:
        check_phi_n(Matrix.diagonal([1, 2, Fraction(4, 3), 8]), monodromy, 2, 1)
    assert str(exc.value) == (
        "monodromy relation fails at entry (0,2): (N*Phi)[0][2] = 20/3 but 2*(Phi*N)[0][2] = 10")
    # N = 0 skips both checks, but not the one on phi
    with pytest.raises(SingularFrobenius) as exc:
        check_phi_n(Matrix([[1, 2], [2, 4]]), Matrix.zeros(2, 2), 2, 1)
    assert str(exc.value) == "phi is singular"


def check_phi_n_reference(phi, monodromy, p, k):
    """The order of checks the shortcuts in check_phi_n must keep: phi's
    determinant, then N^n = 0 by repeated products, then the relation at
    the scale p^k entry by entry, all over the rationals."""
    from phinlab.linalg import det

    n = phi.nrows
    if det(phi) == 0:
        raise SingularFrobenius("phi is singular")
    if not matrix_power(monodromy, n).is_zero:
        raise NonNilpotentMonodromy(n)
    scale = Fraction(p) ** k
    lhs, rhs = (monodromy @ phi).rows, (phi @ monodromy).rows
    for i in range(n):
        for j in range(n):
            if lhs[i][j] != scale * rhs[i][j]:
                raise RelationViolation((i, j), lhs[i][j], scale * rhs[i][j], scale)


def test_check_phi_n_matches_the_reference_order_of_errors():
    from phinlab.linalg import jordan_nilpotent
    from phinlab.modules import check_phi_n

    def outcome(check, *args):
        try:
            check(*args)
        except InputError as exc:
            return type(exc), str(exc)
        return None

    rng = random.Random(83)
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 6)
        prime, power = rng.choice(((2, 1), (3, 1), (2, 2), (5, 1)))
        scale = prime ** power
        # phi = P D P^-1 and N = P J P^-1 with J a sum of Jordan blocks and
        # D = lambda * scale^k on the k-th vector of a block obey the relation
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, n - sum(sizes)))
        diag = []
        for size in sizes:
            lam = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 3)))
            diag += [lam * scale ** k for k in range(size)]
        base = Matrix.diagonal(diag)
        if rng.random() < 0.1:
            base = Matrix([[1] * n] * n)
        chain = jordan_nilpotent(sizes)
        kind = rng.choice(("chain", "perturbed", "upper", "zero", "scalar", "random"))
        if kind == "zero":
            chain = Matrix.zeros(n, n)
        elif kind == "scalar":
            chain = Matrix.diagonal([rng.choice((1, 2, Fraction(-1, 3)))] * n)
        elif kind == "upper":
            chain = Matrix([[rng.randint(-2, 2) if j > i else 0 for j in range(n)]
                            for i in range(n)])
        elif kind != "chain":
            rows = [list(row) for row in chain.rows]
            for _ in range(1 if kind == "perturbed" else n * n):
                rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(-2, 2)
            chain = Matrix(rows)
        p = random_unimodular(rng, n)
        phi, monodromy = p @ base @ p.inverse(), p @ chain @ p.inverse()
        want = outcome(check_phi_n_reference, phi, monodromy, prime, power)
        assert outcome(check_phi_n, phi, monodromy, prime, power) == want
        seen.add(want and want[0])
    # every error, and a pass
    assert seen == {None, SingularFrobenius, NonNilpotentMonodromy, RelationViolation}


def test_enumerate_stable_subspaces_of_one_dimension():
    rng = random.Random(61)
    for _ in range(20):
        d = random_oracle_module(rng)
        subs = enumerate_stable_subspaces(d)
        for k in range(d.n + 1):
            assert enumerate_stable_subspaces(d, k) == [s for s in subs if s.dim == k]
    assert enumerate_stable_subspaces(steinberg(), 3) == []


def test_enumerated_verdict_is_checked_against_the_definitions(monkeypatch):
    from phinlab import modules

    admissible = steinberg()
    violating = steinberg(flag=[[1, 0], [0, 1]], jumps=(1, 0))
    monkeypatch.setattr(modules, "_smallest_violating_size", lambda *args: 1)
    with pytest.raises(ArithmeticError, match="disagree in dimension 1"):
        is_weakly_admissible(admissible)
    monkeypatch.setattr(modules, "_smallest_violating_size", lambda *args: None)
    with pytest.raises(ArithmeticError, match="disagree in dimension 1"):
        is_weakly_admissible(violating)
