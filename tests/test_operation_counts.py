"""Operation counts of the module report kernels, pinned.

Each test counts the integer matrix products (``linalg._int_matmul``),
the integer echelon forms (``linalg._echelon``), the characteristic
polynomials (``linalg._newton_char_poly``), the determinants
(``linalg.det``), the Hecke-side expansions (``hecke._expansion``) or the
subspaces, eigen-frames and witness searches of the verdict one call
makes. A count does not depend on the machine or its load, so these guard
the cost of the report path where a timing could not.
"""

import json
import sys
from fractions import Fraction

import pytest

import phinlab
from phinlab import hecke, interpolation, linalg, modules
from phinlab.cli import main
from phinlab.linalg import (
    Matrix,
    Subspace,
    char_poly,
    exterior_traces,
    jordan_nilpotent,
    jordan_partition,
    rational_eigenvalues,
)
from phinlab.modules import FieldDescriptor, _Frame, _smallest_violating_size, build_module
from phinlab.scalars import Frozen


def count_calls(monkeypatch, name, entry):
    """A list that gets entry(*args) per call of ``linalg.<name>``, through
    linalg or any phinlab module that imported the name."""
    calls = []
    original = getattr(linalg, name)

    def counted(*args):
        calls.append(entry(*args))
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "phinlab" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    assert getattr(phinlab.modules, name) is counted
    return calls


@pytest.fixture
def matmul_calls(monkeypatch):
    """One (rows, columns) entry per ``_int_matmul`` product."""
    return count_calls(monkeypatch, "_int_matmul", lambda a, b: (len(a), len(b[0])))


def rank_eight(monodromy):
    # N e_(k+1) = e_k and phi e_k = 2^k e_k obey N*phi = 2*phi*N
    return build_module(FieldDescriptor(p=2), 8, Matrix.diagonal([2 ** k for k in range(8)]),
                        monodromy, {"k0": (Matrix.identity(8), list(range(8)))})


def test_build_module_forms_only_the_two_relation_products(matmul_calls):
    rank_eight(jordan_nilpotent([3, 2, 2, 1]))
    assert matmul_calls == [(8, 8), (8, 8)]


def test_build_module_with_zero_monodromy_forms_no_product(matmul_calls):
    rank_eight(Matrix.zeros(8, 8))
    assert matmul_calls == []


def test_char_poly_forms_powers_up_to_half_the_rank(matmul_calls):
    m = Matrix([[(3 * i + 5 * j) % 7 - 3 for j in range(8)] for i in range(8)])
    char_poly(m)
    assert len(matmul_calls) == 3


def test_jordan_partition_of_zero_forms_no_power(matmul_calls):
    assert jordan_partition(Matrix.zeros(6, 6)).parts == (1,) * 6
    assert matmul_calls == []


def test_eigen_frame_forms_one_echelon_form(monkeypatch):
    # the eigenvectors come from one Krylov sequence, with no kernel
    # elimination per eigenvalue; the one echelon form is the stack's
    d = rank_eight(jordan_nilpotent([3, 2, 2, 1]))
    calls = count_calls(monkeypatch, "_echelon", len)
    _Frame(d)
    assert calls == [8]


def test_the_verdict_forms_one_echelon_form_per_flag_per_closed_set(monkeypatch):
    # admissible with t_H = t_N = 6, so every proper closed set is decided:
    # N = 0 makes all 14 of them closed, and t_H(W_S) takes one echelon
    # form of the n - |S| rows outside S per flag
    lower = Matrix([[1 if i >= j else 0 for j in range(4)] for i in range(4)])
    d = build_module(FieldDescriptor(p=2, embeddings=("k0", "k1")), 4,
                     Matrix.diagonal([1, 2, 4, 8]), Matrix.zeros(4, 4),
                     {"k0": (Matrix.identity(4), [0, 0, 1, 2]), "k1": (lower, [0, 1, 1, 1])})
    frame = _Frame(d)
    calls = count_calls(monkeypatch, "_echelon", len)
    assert _smallest_violating_size(d, frame) is None
    assert calls == [3] * 8 + [2] * 12 + [1] * 8


@pytest.fixture
def poly_calls(monkeypatch):
    """One entry per characteristic polynomial formed."""
    calls = []
    original = linalg._newton_char_poly

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(linalg, "_newton_char_poly", counted)
    return calls


# a generic module: the eigenvalues 1, 6, 20, 56 lie on four distinct
# 2-lines, so consistency compares every r, and beta decides admissibility
# (their valuations 0, 1, 2, 3 add up to the jumps) before its traces
GENERIC = {
    "field": {"p": 2}, "n": 4,
    "phi": [["1", "1", "0", "0"], ["0", "6", "0", "0"], ["0", "0", "20", "1/2"], ["0", "0", "0", "56"]],
    "monodromy": [[0] * 4 for _ in range(4)],
    "filtration": {"k0": {"flag": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                          "jumps": [0, 1, 2, 3]}},
}


@pytest.mark.parametrize("command", ["beta", "consistency"])
def test_a_report_call_forms_one_characteristic_polynomial(command, poly_calls, tmp_path, capsys):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(GENERIC))
    assert main([command, str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the spectrum and the exterior traces both come from the one polynomial
    assert len(report["rows"]) == 4
    assert len(poly_calls) == 1


def test_a_consistency_report_forms_the_hecke_side_once(monkeypatch, tmp_path, capsys):
    # every theta_tilde row comes from one expansion of psi, and no
    # HeckeParams is built
    calls = {}
    for owner, name in ((interpolation, "theta_tilde"), (hecke, "_expansion"),
                        (hecke.HeckeParams, "__init__")):
        calls[name] = count = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, count=count, original=original:
                            count.append(args) or original(*args))
    path = tmp_path / "module.json"
    path.write_text(json.dumps(GENERIC))
    assert main(["consistency", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass" and len(report["rows"]) == 4
    assert {name: len(count) for name, count in calls.items()} == {
        "theta_tilde": 1, "_expansion": 1, "__init__": 0}


def test_equal_but_distinct_matrices_each_form_their_own_polynomial(poly_calls):
    rows = [[(3 * i + 5 * j) % 7 - 3 for j in range(5)] for i in range(5)]
    a, b = Matrix(rows), Matrix(rows)
    assert a == b and a is not b
    rational_eigenvalues(a)
    exterior_traces(a)
    assert char_poly(a) == char_poly(b)
    assert poly_calls == [a, b] and poly_calls[1] is b


@pytest.mark.parametrize("command", ["check-admissible", "beta"])
def test_a_report_call_forms_the_determinant_of_phi_once(command, poly_calls, monkeypatch,
                                                         tmp_path, capsys):
    det_calls = count_calls(monkeypatch, "det", lambda m: m)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(GENERIC))
    assert main([command, str(path), "--format", "json"]) == 0
    capsys.readouterr()
    phi = Matrix([[Fraction(x) for x in row] for row in GENERIC["phi"]])
    # check_phi_n eliminates phi once; t_N reads the constant term of the
    # one polynomial that the spectrum or the exterior traces need anyway
    assert [m for m in det_calls if m == phi] == [phi]
    assert poly_calls == [phi]


def test_equal_but_distinct_matrices_each_form_their_own_determinant(monkeypatch):
    calls = count_calls(monkeypatch, "det", lambda m: m)
    rows = [[(3 * i + 5 * j) % 7 - 3 for j in range(5)] for i in range(5)]
    a, b = Matrix(rows), Matrix(rows)
    assert a == b and a is not b
    assert linalg.det(a) == linalg.det(b)
    assert calls == [a, b] and calls[1] is b


@pytest.fixture
def verdict_calls(monkeypatch):
    """The arguments of each call, per name: the verdict's eigen-frames, its
    two witness searches and ``Subspace.intersect``, and ``"Subspace"``, one
    entry per subspace built (each Frozen value is stored by Frozen.__init__)."""
    calls = {"Subspace": []}
    for owner, name in ((modules, "_Frame"), (modules, "_candidate_witness"),
                        (modules, "enumerate_stable_subspaces"), (Subspace, "intersect")):
        calls[name] = count = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, count=count, original=original, **kwargs:
                            count.append(args) or original(*args, **kwargs))
    store = Frozen.__init__

    def counted(self, *values):
        if isinstance(self, Subspace):
            calls["Subspace"].append(values)
        store(self, *values)

    monkeypatch.setattr(Frozen, "__init__", counted)
    return calls


def run_on(module, command, tmp_path, capsys):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    code = main([command, str(path), "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_a_beta_call_builds_no_subspace_and_looks_for_no_witness(verdict_calls, tmp_path, capsys):
    # admissible with equal totals: one frame decides every closed set
    code, report = run_on(GENERIC, "beta", tmp_path, capsys)
    assert (code, report["admissible"], report["warning"]) == (0, True, None)
    assert {name: len(calls) for name, calls in verdict_calls.items()} == {
        "Subspace": 0, "_Frame": 1, "_candidate_witness": 0, "enumerate_stable_subspaces": 0,
        "intersect": 0}


def test_a_beta_call_on_unequal_totals_builds_no_frame(verdict_calls, tmp_path, capsys):
    # the top jump 4 makes t_H = 7 against t_N = 6
    module = json.loads(json.dumps(GENERIC))
    module["filtration"]["k0"]["jumps"] = [0, 1, 2, 4]
    code, report = run_on(module, "beta", tmp_path, capsys)
    assert (code, report["admissible"]) == (0, False)
    assert report["warning"] == "module is not weakly admissible; valuations reported raw"
    assert {name: len(calls) for name, calls in verdict_calls.items()} == {
        "Subspace": 0, "_Frame": 0, "_candidate_witness": 0, "enumerate_stable_subspaces": 0,
        "intersect": 0}


def test_a_check_admissible_call_still_checks_the_stable_lines(verdict_calls, tmp_path, capsys):
    # the witness route and its cross-check run on check-admissible alone:
    # the four stable lines and the four levels Fil^0..Fil^3 are built, and
    # each line meets the levels up to the first one it misses (2 + 2 + 4 + 4
    # intersections, one zero subspace each)
    code, report = run_on(GENERIC, "check-admissible", tmp_path, capsys)
    assert (code, report["admissible"]) == (0, True)
    assert {name: len(calls) for name, calls in verdict_calls.items()} == {
        "Subspace": 12, "_Frame": 1, "_candidate_witness": 1, "enumerate_stable_subspaces": 1,
        "intersect": 12}
