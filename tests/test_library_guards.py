"""The library's shape and domain guards, each called directly: a case
names the refused call, the exception type and the whole message.
"""

import pytest

from phinlab.errors import InputError
from phinlab.linalg import Matrix, Subspace, char_poly, det, jordan_partition
from phinlab.modules import FieldDescriptor, Witness, build_module, hodge_number
from phinlab.partitions import PartitionFunction, stratum_member
from phinlab.scalars import QExtScalar, TwistedScalar
from phinlab.weil_deligne import WeilDeligneRep

ROW = Matrix([[1, 2]])


def rank_one():
    return build_module(FieldDescriptor(p=2), 1, [[1]], [[0]], {"k0": (Matrix.identity(1), [0])})


# name -> (the refused call, error, message)
GUARDS = {
    "Matrix with no rows": (lambda: Matrix([]), ValueError,
                            "matrix needs at least one row and one column"),
    "Matrix ragged rows": (lambda: Matrix([[1, 2], [3]]), ValueError, "ragged rows"),
    "Matrix @ shapes": (lambda: ROW @ ROW, ValueError, "shape mismatch 1x2 @ 1x2"),
    "inverse non-square": (ROW.inverse, ValueError, "inverse of a non-square matrix"),
    "det non-square": (lambda: det(ROW), ValueError, "determinant of a non-square matrix"),
    "char_poly non-square": (lambda: char_poly(ROW), ValueError,
                             "characteristic polynomial of a non-square matrix"),
    "jordan_partition non-square": (lambda: jordan_partition(ROW), ValueError,
                                    "jordan_partition needs a square matrix"),
    "Subspace vector length": (lambda: Subspace(2, [[1, 2, 3]]), ValueError,
                               "vector length mismatch"),
    "Subspace zero matrix": (lambda: Subspace.zero(2).matrix(), ValueError,
                             "the zero subspace has no basis matrix"),
    "Subspace intersect ambient": (lambda: Subspace.full(2).intersect(Subspace.full(3)),
                                   ValueError, "ambient dimension mismatch"),
    "Subspace is_stable_under ambient": (lambda: Subspace.full(2).is_stable_under(
        Matrix.identity(3)), ValueError, "ambient dimension mismatch"),
    "Subspace restrict to zero": (lambda: Subspace.zero(2).restrict(Matrix.identity(2)),
                                  ValueError, "cannot restrict to the zero subspace"),
    "hodge_number ambient": (lambda: hodge_number(rank_one(), Subspace.full(2)), ValueError,
                             "ambient dimension mismatch"),
    "LabelMap empty": (lambda: PartitionFunction({}), ValueError,
                       "at least one label is required"),
    "stratum_member sizes": (lambda: stratum_member(
        {"k0": Matrix([[0, 1], [0, 0]]), "k1": Matrix([[0]])},
        PartitionFunction({"k0": (2,), "k1": (1,)})), ValueError,
        "all matrices must be square of one common size"),
    "Frozen value count": (lambda: Witness(Subspace.zero(1), 0), TypeError,
                           "Witness takes 3 values, got 2"),
    "QExtScalar q": (lambda: QExtScalar(1, 0, 0), ValueError,
                     "q must be a positive integer, got 0"),
    "TwistedScalar p": (lambda: TwistedScalar(3, 0, 4, 1), ValueError, "p must be prime, got 4"),
    "WeilDeligneRep shapes": (lambda: WeilDeligneRep(Matrix.identity(2), Matrix([[0]]), 4),
                              InputError, "need matching square matrices, got 2x2 and 1x1"),
}


@pytest.mark.parametrize("site", GUARDS)
def test_a_guard_refuses_with_its_message(site):
    call, error, message = GUARDS[site]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
