"""Operation counts of the module report kernels, pinned.

Each test counts the integer matrix products (``linalg._int_matmul``) or
the integer echelon forms (``linalg._echelon``) one call makes. A count
does not depend on the machine or its load, so these guard the cost of
the report path where a timing could not.
"""

import sys

import pytest

import phinlab
from phinlab import linalg
from phinlab.linalg import Matrix, char_poly, jordan_nilpotent, jordan_partition
from phinlab.modules import FieldDescriptor, _eigen_frame, build_module


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
    _eigen_frame(d)
    assert calls == [8]
