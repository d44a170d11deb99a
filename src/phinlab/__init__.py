"""Exact arithmetic for filtered Frobenius-monodromy modules and Hecke data."""

from .errors import (
    BadFlag,
    ChainMismatch,
    EnumerationCapExceeded,
    InputError,
    NonNilpotentMonodromy,
    NotFullyRational,
    PhinlabError,
    RelationViolation,
    RepeatedEigenvalues,
    SchemaError,
    SingularFrobenius,
    Undecided,
)
from .hecke import (
    HeckeParams,
    coset_classes,
    materialize_representatives,
    spherical_value,
    theta_closed,
    theta_enumerated,
    theta_tilde,
)
from .interpolation import (
    CONVENTIONS,
    beta_value,
    check_integrality,
    consistency_check,
    ht_from_module,
    xi_from_ht,
)
from .linalg import Matrix, jordan_partition, rational_eigenvalues
from .modules import (
    FieldDescriptor,
    FilteredPhiNModule,
    build_module,
    enumerate_stable_subspaces,
    hodge_number,
    is_weakly_admissible,
    newton_number,
)
from .partitions import (
    Partition,
    PartitionFunction,
    conjugate,
    dominates,
    paper_leq,
    partitions_of,
    strata_thresholds,
    stratum_member,
)
from .scalars import QExtScalar, Rational, TwistedScalar, padic_val
from .weil_deligne import (
    Segment,
    WeilDeligneRep,
    find_linked_pair,
    is_generic,
    monodromy_partition,
    psi_from_segments,
    segments_from_wd,
    wd_from_module,
    wd_from_segments,
)

__version__ = "0.1.0"

__all__ = [
    "BadFlag", "ChainMismatch", "EnumerationCapExceeded", "InputError",
    "NonNilpotentMonodromy", "NotFullyRational", "PhinlabError",
    "RelationViolation", "RepeatedEigenvalues", "SchemaError",
    "SingularFrobenius", "Undecided",
    "HeckeParams", "coset_classes", "materialize_representatives",
    "spherical_value", "theta_closed", "theta_enumerated", "theta_tilde",
    "CONVENTIONS", "beta_value", "check_integrality", "consistency_check",
    "ht_from_module", "xi_from_ht",
    "Matrix", "jordan_partition", "rational_eigenvalues",
    "FieldDescriptor", "FilteredPhiNModule", "build_module",
    "enumerate_stable_subspaces", "hodge_number", "is_weakly_admissible",
    "newton_number",
    "Partition", "PartitionFunction", "conjugate", "dominates", "paper_leq",
    "partitions_of", "strata_thresholds", "stratum_member",
    "QExtScalar", "Rational", "TwistedScalar", "padic_val",
    "Segment", "WeilDeligneRep", "find_linked_pair",
    "is_generic", "monodromy_partition", "psi_from_segments",
    "segments_from_wd", "wd_from_module", "wd_from_segments",
    "__version__",
]
