import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from phinlab.cli import main
from phinlab.errors import (
    ChainMismatch,
    InputError,
    NonNilpotentMonodromy,
    NotFullyRational,
    RelationViolation,
    SingularFrobenius,
)
from phinlab.linalg import Matrix, jordan_nilpotent, jordan_partition, rational_eigenvalues
from phinlab.modules import FieldDescriptor, build_module
from phinlab.partitions import Partition, PartitionFunction
from phinlab.schema import matrix_json
from phinlab.weil_deligne import (
    Segment,
    UnramifiedCharacter,
    WeilDeligneRep,
    is_generic,
    find_linked_pair,
    match_chains,
    monodromy_partition,
    prime_power_base,
    psi_from_segments,
    segments_from_wd,
    wd_from_module,
    wd_from_segments,
)
from tests_helpers import child_env, random_unimodular


def steinberg_module(p=2):
    return build_module(
        FieldDescriptor(p=p), 2, [[1, 0], [0, p]], [[0, 1], [0, 0]],
        {"k0": ([[1, 1], [0, 1]], [0, 1])},
    )


def seg(chi, length):
    return Segment(chi, length)


def test_prime_power_base():
    assert prime_power_base(8) == (2, 3)
    assert prime_power_base(3) == (3, 1)
    assert prime_power_base(9) == (3, 2)
    for bad in (1, 6, 12, 0, 100):
        with pytest.raises(InputError):
            prime_power_base(bad)


def test_wd_rep_validation():
    WeilDeligneRep(Matrix.diagonal([1, 2]), jordan_nilpotent([2]), 2)
    with pytest.raises(SingularFrobenius):
        WeilDeligneRep(Matrix.zeros(2, 2), Matrix.zeros(2, 2), 2)
    with pytest.raises(NonNilpotentMonodromy):
        WeilDeligneRep(Matrix.identity(2), Matrix.identity(2), 2)
    with pytest.raises(RelationViolation):
        WeilDeligneRep(Matrix.diagonal([1, 2]), jordan_nilpotent([2]), 3)
    with pytest.raises(InputError):
        WeilDeligneRep(Matrix.identity(2), Matrix.zeros(2, 2), 6)


def test_wd_from_module_transports_matrices():
    d = steinberg_module()
    w = wd_from_module(d)
    assert w.frobenius == d.phi
    assert w.monodromy == d.monodromy
    assert w.q == 2
    # the labels stay on the module
    assert WeilDeligneRep._fields == ("frobenius", "monodromy", "q", "p")


def test_wd_from_rank_one():
    d = build_module(FieldDescriptor(p=3), 1, [[5]], [[0]],
                     {"k0": (Matrix.identity(1), [0])})
    w = wd_from_module(d)
    assert w.frobenius == Matrix([[5]])
    assert w.q == 3


def diagonal_module(diag, monodromy, p, labels=("k0",)):
    n = len(diag)
    return build_module(FieldDescriptor(p=p, embeddings=labels), n, Matrix.diagonal(diag), monodromy,
                        {label: (Matrix.identity(n), list(range(n))) for label in labels})


def test_monodromy_partition_pinned():
    d = diagonal_module([1, 2, 3], Matrix.zeros(3, 3), 5)
    assert monodromy_partition(d) == PartitionFunction({"k0": (1, 1, 1)})
    d3 = diagonal_module([1, 2, 4], jordan_nilpotent([3]), 2)
    assert monodromy_partition(d3)["k0"] == Partition((3,))
    d21 = diagonal_module([1, 2, 7], jordan_nilpotent([2, 1]), 2)
    assert monodromy_partition(d21)["k0"] == Partition((2, 1))


def test_monodromy_partition_multiple_labels():
    d = diagonal_module([1, 2], jordan_nilpotent([2]), 2, labels=("b", "a"))
    pf = monodromy_partition(d)
    assert pf.labels == ("a", "b")
    assert pf["a"] == pf["b"] == Partition((2,))


def test_segments_steinberg_pinned():
    w = wd_from_module(steinberg_module())
    assert segments_from_wd(w) == (seg(1, 2),)


def test_segments_singletons_pinned():
    w = WeilDeligneRep(Matrix.diagonal([2, 3]), Matrix.zeros(2, 2), 2)
    got = segments_from_wd(w)
    assert set(got) == {seg(2, 1), seg(3, 1)}
    # canonical order: ascending 2-adic valuation first, so 3 precedes 2
    assert got == (seg(3, 1), seg(2, 1))

    w2 = WeilDeligneRep(Matrix.diagonal([1, 2]), Matrix.zeros(2, 2), 2)
    assert segments_from_wd(w2) == (seg(1, 1), seg(2, 1))


def test_segments_deterministic_on_ambiguous_line():
    # eigenvalues {1, q, q^2} with shape (2, 1): both [(1,2),(4,1)] and
    # [(2,2),(1,1)] are valid groupings; the matcher prefers the chain
    # based at the smallest valuation
    fr = Matrix.diagonal([4, 1, 2])
    nil = Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])  # eigval-4 vector -> eigval-2 vector
    w = WeilDeligneRep(fr, nil, 2)
    assert segments_from_wd(w) == (seg(1, 2), seg(4, 1))


def test_match_chains_mismatch():
    # no length-2 chain exists through {1, 5} at q = 3; the validated
    # constructor cannot produce such data, so hit the matcher directly
    with pytest.raises(ChainMismatch) as exc:
        match_chains([Fraction(1), Fraction(5)], (2,), 3, 3)
    assert exc.value.report["partition"] == [2]
    assert "5" in exc.value.report["eigenvalues"]


def test_match_chains_rejects_lengths_that_miss_an_eigenvalue():
    # the parts (1,) leave the eigenvalue 2 unmatched
    with pytest.raises(InputError) as exc:
        match_chains([1, 2], [1], 2, 2)
    assert str(exc.value) == "chain lengths [1] must add up to the 2 eigenvalues"


def test_match_chains_checks_its_lengths_under_python_o():
    code = (
        "from phinlab.errors import InputError\n"
        "from phinlab.weil_deligne import match_chains\n"
        "try:\n"
        "    print(match_chains([1, 2], [1], 2, 2))\n"
        "except InputError as err:\n"
        "    print(err)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (
        0, "chain lengths [1] must add up to the 2 eigenvalues\n", "")


def test_match_chains_with_multiplicity():
    # {1, 2, 2, 4} under (2, 2) splits as chains based at 1 and at 2
    vals = [Fraction(v) for v in (1, 2, 2, 4)]
    got = match_chains(vals, (2, 2), 2, 2)
    assert sorted(got, key=lambda s: s.chi) == [seg(1, 2), seg(2, 2)]


def test_match_chains_backtracks_out_of_a_dead_end():
    # the 3-chain at base 1 (1, 2, 4) leaves {2, 3, 6, 12}, which holds no
    # two 2-chains, so the matcher undoes it and takes (3, 6, 12) instead
    got = match_chains([1, 2, 2, 4, 3, 6, 12], [3, 2, 2], 2, 2)
    assert got == (seg(3, 3), seg(1, 2), seg(2, 2))
    w = wd_from_segments([(1, 2), (2, 2), (3, 3)], 2)
    assert segments_from_wd(w) == (seg(1, 2), seg(3, 3), seg(2, 2))


def test_segments_reject_irrational_spectrum():
    fr = Matrix([[0, 2], [1, 0]])
    w = WeilDeligneRep(fr, Matrix.zeros(2, 2), 2)
    with pytest.raises(NotFullyRational):
        segments_from_wd(w)


def test_is_generic_pinned():
    assert is_generic([seg(1, 2)], 2)
    assert not is_generic([seg(1, 1), seg(2, 1)], 2)
    assert is_generic([seg(1, 1), seg(4, 1)], 2)
    # equal segments are never linked
    assert is_generic([seg(1, 1), seg(1, 1)], 2)
    # containment is not linkage
    assert is_generic([seg(1, 3), seg(2, 1)], 2)
    # two length-2 chains that concatenate are linked
    assert not is_generic([seg(1, 2), seg(4, 2)], 2)
    # different q-lines never link
    assert is_generic([seg(1, 2), seg(3, 2)], 2)


def test_is_generic_containment_in_both_orders():
    # (1, 1) is the bottom of (1, 3): one chain swallows the other, whichever
    # comes first, so neither order is linked
    assert is_generic([seg(1, 1), seg(1, 3)], 2)
    assert is_generic([seg(1, 3), seg(1, 1)], 2)
    # the same for a chain that holds another at its top
    assert is_generic([seg(4, 1), seg(1, 3)], 2)
    assert is_generic([seg(1, 3), seg(4, 1)], 2)


def test_segments_cli_on_a_contained_chain(tmp_path, capsys):
    w = wd_from_segments([(1, 3), (1, 1)], 2)
    n = w.frobenius.nrows
    module = {"field": {"p": 2}, "n": n, "phi": matrix_json(w.frobenius),
              "monodromy": matrix_json(w.monodromy),
              "filtration": {"k0": {"flag": matrix_json(Matrix.identity(n)), "jumps": [0] * n}}}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    assert main(["segments", str(path)]) == 0
    assert capsys.readouterr().out == "segments: (1, 1), (1, 3)\ngeneric: yes\npsi: (1, 4, 2, 1)\n"


def test_find_linked_pair_reports_indices():
    segs = [seg(1, 1), seg(3, 1), seg(2, 1)]
    pair = find_linked_pair(segs, 2)
    assert pair == (0, 2)
    assert find_linked_pair([seg(1, 1), seg(4, 1)], 2) is None


def test_is_generic_order_independent():
    rng = random.Random(53)
    segs = [seg(1, 1), seg(2, 2), seg(3, 1), seg(12, 1), seg(Fraction(1, 2), 1)]
    verdicts = set()
    for perm in itertools.permutations(segs):
        verdicts.add(is_generic(list(perm), 2))
    assert len(verdicts) == 1


def test_psi_from_segments_pinned():
    assert psi_from_segments([seg(1, 2)], 2) == UnramifiedCharacter((2, 1))
    assert psi_from_segments([seg(3, 1), seg(5, 1)], 7) == UnramifiedCharacter((3, 5))
    assert psi_from_segments([seg(1, 3)], 2) == UnramifiedCharacter((4, 2, 1))
    assert psi_from_segments([seg(Fraction(1, 2), 2)], 2) == UnramifiedCharacter((1, Fraction(1, 2)))


def test_wd_from_segments_realizes_the_data():
    segs = (seg(3, 2), seg(1, 1))
    w = wd_from_segments(segs, 2)
    assert w.q == 2
    assert sorted(x for x, _ in rational_eigenvalues(w.frobenius).roots) == [1, 3, 6]
    assert jordan_partition(w.monodromy) == Partition((2, 1))
    assert set(segments_from_wd(w)) == set(segs)


def test_wd_from_segments_matrices_pinned():
    # each block runs from its chain's top value down, N's ones below the diagonal
    w = wd_from_segments([(3, 2), (1, 1)], 2)
    assert w.frobenius == Matrix.diagonal([6, 3, 1])
    assert w.monodromy == Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    w = wd_from_segments([(1, 2), (5, 3)], 3)
    assert w.frobenius == Matrix.diagonal([3, 1, 45, 15, 5])
    assert w.monodromy == Matrix([[int((i, j) in {(1, 0), (3, 2), (4, 3)}) for j in range(5)]
                                  for i in range(5)])


def test_round_trip_random_unlinked_distinct_lines():
    rng = random.Random(59)
    for _ in range(30):
        q = rng.choice([2, 3, 5])
        units = rng.sample([1, 3, 5, 7], rng.randint(1, 3))
        if q in (3, 5) and q in units:
            units.remove(q)
        if not units:
            continue
        segs = tuple(
            seg(Fraction(u) * Fraction(q) ** rng.randint(-1, 2), rng.randint(1, 3))
            for u in units
        )
        w = wd_from_segments(segs, q)
        s = random_unimodular(rng, w.frobenius.nrows)
        moved = WeilDeligneRep(s @ w.frobenius @ s.inverse(),
                               s @ w.monodromy @ s.inverse(), q)
        for target in (w, moved):
            got = segments_from_wd(target)
            assert set(got) == set(segs)
        # partition of lengths, sorted decreasingly
        lengths = tuple(sorted((x.length for x in segs), reverse=True))
        assert jordan_partition(w.monodromy) == Partition(lengths)


def test_crystalline_segments_all_length_one():
    rng = random.Random(61)
    for _ in range(15):
        q = rng.choice([2, 3])
        vals = rng.sample([1, 2, 3, 5, 7, 9], rng.randint(1, 4))
        w = WeilDeligneRep(Matrix.diagonal(vals), Matrix.zeros(len(vals), len(vals)), q)
        assert all(s.length == 1 for s in segments_from_wd(w))


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0, 1)
    with pytest.raises(ValueError):
        Segment(1, 0)
    with pytest.raises(ValueError):
        UnramifiedCharacter((1, 0))


MERSENNE_61 = 2 ** 61 - 1


def test_prime_power_base_finds_large_primes_without_trial_division():
    assert prime_power_base(MERSENNE_61) == (MERSENNE_61, 1)
    assert prime_power_base(MERSENNE_61 ** 2) == (MERSENNE_61, 2)
    assert prime_power_base(3 ** 40) == (3, 40)
    for bad in (3 * MERSENNE_61, 6):
        with pytest.raises(InputError, match="must be a prime power"):
            prime_power_base(bad)


def test_prime_power_base_tests_one_root_for_primality():
    # f0 runs down from log2(q), so 2^14000 splits at its first root, and
    # MERSENNE_61^2 above (past the bound of is_prime) splits at f0 = 2
    # without a primality test of q itself
    assert prime_power_base(2 ** 14000) == (2, 14000)
    with pytest.raises(InputError, match="must be a prime power"):
        prime_power_base(6 ** 50)


def test_prime_power_base_agrees_with_factoring_on_small_q():
    for q in range(2, 2000):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        f0 = next(k for k in range(1, q.bit_length() + 1) if q % p ** (k + 1))
        if p ** f0 == q:
            assert prime_power_base(q) == (p, f0)
        else:
            with pytest.raises(InputError):
                prime_power_base(q)


def test_wd_from_module_checks_phi_n_again_only_when_f_differs_from_f0(monkeypatch):
    import phinlab.weil_deligne as wd

    d = steinberg_module(3)
    checked = WeilDeligneRep(d.phi, d.monodromy, 3)
    calls = []
    monkeypatch.setattr(wd, "check_phi_n", lambda *args: calls.append(args))
    w = wd_from_module(d)
    assert calls == []
    assert w == checked and (w.p, w.q) == (3, 3)
    field = FieldDescriptor(p=2, f=2, f0=1)
    crystalline = build_module(field, 2, [[1, 0], [0, 4]], [[0, 0], [0, 0]],
                               {"k0": (Matrix.identity(2), [0, 1])})
    w = wd_from_module(crystalline)
    assert calls == [(crystalline.phi, crystalline.monodromy, 2, 1)]
    assert (w.q, w.p) == (2, 2)


def test_wd_from_module_takes_p_from_the_field():
    d = build_module(FieldDescriptor(p=MERSENNE_61), 1, [[1]], [[0]],
                     {"k0": (Matrix.identity(1), [0])})
    w = wd_from_module(d)
    assert (w.q, w.p) == (MERSENNE_61, MERSENNE_61)
    assert segments_from_wd(w) == (seg(1, 1),)
