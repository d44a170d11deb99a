"""Every value type is immutable, compares and hashes by value, and keeps its repr."""

import copy
import pickle
import subprocess
import sys

import pytest

from phinlab.hecke import CosetClass, HeckeParams
from phinlab.linalg import EigenSplit, Matrix, Subspace, char_poly, jordan_nilpotent
from phinlab.modules import (
    AdmissibilityReport,
    FieldDescriptor,
    Flag,
    Witness,
    build_module,
)
from phinlab.partitions import LabelMap, Partition, PartitionFunction
from phinlab.scalars import Frozen, QExtScalar, Rational, TwistedScalar
from phinlab.weil_deligne import Segment, WeilDeligneRep
from tests_helpers import child_env


def steinberg():
    return build_module(
        FieldDescriptor(p=2), 2,
        Matrix.diagonal([1, 2]), Matrix([[0, 1], [0, 0]]),
        {"k0": (Matrix([[1, 1], [1, -1]]), [0, 1])},
    )


ONE_R, TWO_R = repr(Rational(1)), repr(Rational(2))

# (make one instance, a field to assign, the expected repr)
CASES = {
    "Matrix": (lambda: Matrix([[1, 2], [3, 4]]), "rows", "Matrix[1 2; 3 4]"),
    "Subspace": (lambda: Subspace(2, [(2, 2)]), "basis", "Subspace(dim=1 of Q^2)"),
    "EigenSplit": (lambda: EigenSplit(((1, 2),), None), "roots",
                   "EigenSplit(roots=((1, 2),), residual=None)"),
    "FilteredPhiNModule": (steinberg, "phi", "FilteredPhiNModule(n=2, p=2)"),
    "QExtScalar": (lambda: QExtScalar(1, 2, 3), "a", "QExtScalar(1 + 2*sqrt(3))"),
    "TwistedScalar": (lambda: TwistedScalar(3, 1, 2, 2), "coeff", "TwistedScalar(3 * pi^1)"),
    # at e = 1 with no uniformizer power the value is a plain rational
    "TwistedScalar folded": (lambda: TwistedScalar(3, 0, 2, 1), "coeff", "TwistedScalar(3)"),
    "Partition": (lambda: Partition((2, 1)), "parts", "Partition(2, 1)"),
    "LabelMap": (lambda: LabelMap({"k0": (0, -1)}), "pairs", "LabelMap({'k0': (0, -1)})"),
    "PartitionFunction": (lambda: PartitionFunction({"k0": (2, 1)}), "pairs",
                          "PartitionFunction({'k0': Partition(2, 1)})"),
    "FieldDescriptor": (lambda: FieldDescriptor(p=2, e=2), "p",
                        "FieldDescriptor(p=2, f0=1, e=2, f=1, embeddings=('k0',), degree_factor=1)"),
    "Flag": (lambda: Flag(Matrix.identity(2), (0, 1)), "jumps",
             "Flag(basis=Matrix[1 0; 0 1], jumps=(0, 1))"),
    "AdmissibilityReport": (lambda: AdmissibilityReport(True, 1, 1, None, 3, "enumerated"), "admissible",
                            "AdmissibilityReport(admissible=True, t_h=1, t_n=1, witness=None, "
                            "subspaces_checked=3, mode='enumerated')"),
    "Segment": (lambda: Segment(2, 3), "length", f"Segment(chi={TWO_R}, length=3)"),
    "HeckeParams": (lambda: HeckeParams(3, 2, 1), "r", "HeckeParams(n=3, q=2, r=1)"),
    "CosetClass": (lambda: CosetClass((1, 2), 4), "count", "CosetClass(S=(1, 2), count=4)"),
    "Witness": (lambda: Witness(Subspace(2, [(1, 0)]), 1, 0), "t_h",
                "Witness(subspace=Subspace(dim=1 of Q^2), t_h=1, t_n=0)"),
    "WeilDeligneRep": (lambda: WeilDeligneRep(Matrix.diagonal([1, 2]), jordan_nilpotent([2]), 2), "q",
                       "WeilDeligneRep(n=2, q=2)"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_type_is_immutable_and_compares_by_value(name):
    make, field, want_repr = CASES[name]
    value = make()
    assert isinstance(value, Frozen)
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before
    other = make()
    assert other is not value
    assert other == value and hash(other) == hash(value)
    assert repr(value) == want_repr


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_type_survives_copy_and_pickle(name):
    make, field, _ = CASES[name]
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, field, None)
        assert getattr(twin, field) == getattr(value, field)


def test_a_filled_private_slot_is_no_field():
    # char_poly keeps the polynomial in Matrix's private slot, which takes
    # no part in equality, hashing, printing, copying or pickling
    value = Matrix([[1, 2], [3, 4]])
    char_poly(value)
    assert value._char_poly is not None
    assert Matrix._fields == ("ints", "den")
    fresh = Matrix([[1, 2], [3, 4]])
    assert value == fresh and hash(value) == hash(fresh) and repr(value) == repr(fresh)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and getattr(twin, "_char_poly", None) is None
    with pytest.raises(AttributeError):
        value._char_poly = None


def test_witness_unpacks_into_its_fields():
    sub = Subspace(2, [(1, 0)])
    assert tuple(Witness(sub, 1, 0)) == (sub, 1, 0)


def test_cli_import_pulls_in_neither_dataclasses_nor_inspect():
    code = ("import sys; before = set(sys.modules); import phinlab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, check=True, env=child_env())
    assert done.stdout.strip() == "[]"
