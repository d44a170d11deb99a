"""Exception types shared across the package.

Two broad families matter to callers: InputError means the caller handed us
something malformed or outside the preconditions (CLI exit 2), while
ChainMismatch means a well-formed object failed a mathematical decomposition
(CLI exit 1, with a report attached). Undecided, an InputError, marks a
valid input that no exact route here decides.
"""

__all__ = [
    "PhinlabError",
    "InputError",
    "SchemaError",
    "RelationViolation",
    "SingularFrobenius",
    "NonNilpotentMonodromy",
    "BadFlag",
    "Undecided",
    "RepeatedEigenvalues",
    "NotFullyRational",
    "EnumerationCapExceeded",
    "ChainMismatch",
]


class PhinlabError(Exception):
    """Base class for everything raised deliberately by this package."""


class InputError(PhinlabError):
    """Caller-supplied data violates a documented precondition."""


class SchemaError(InputError):
    """JSON input failed validation; carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class RelationViolation(InputError):
    """The commutation rule between monodromy and Frobenius fails.

    Carries the first offending matrix entry so the caller can see which
    coefficient breaks N * Phi = scale * Phi * N.
    """

    def __init__(self, entry, lhs, rhs, scale):
        self.entry = entry
        self.lhs = lhs
        self.rhs = rhs
        self.scale = scale
        i, j = entry
        super().__init__(
            f"monodromy relation fails at entry ({i},{j}): "
            f"(N*Phi)[{i}][{j}] = {lhs} but {scale}*(Phi*N)[{i}][{j}] = {rhs}"
        )


class SingularFrobenius(InputError):
    """Frobenius matrix is not invertible."""


class NonNilpotentMonodromy(InputError):
    """Monodromy matrix has a nonzero power at full size."""

    def __init__(self, size):
        self.size = size
        super().__init__(f"monodromy is not nilpotent: N^{size} != 0")


class BadFlag(InputError):
    """Filtration flag basis is singular or its jump data is malformed."""


class Undecided(InputError):
    """A valid input outside what the exact routes decide."""


class RepeatedEigenvalues(Undecided):
    """Frobenius spectrum has a repeated root; enumeration needs certificates."""


class NotFullyRational(Undecided):
    """Frobenius spectrum does not split over Q; enumeration needs certificates."""


class EnumerationCapExceeded(Undecided):
    """An exhaustive enumeration was refused because its work units exceed the budget."""


class ChainMismatch(PhinlabError):
    """Eigenvalues cannot be organized into the chains a Jordan shape demands.

    The ``report`` dict records the eigenvalue multiset, the partition, and
    where matching got stuck.
    """

    def __init__(self, message, report=None):
        self.report = report or {}
        super().__init__(message)
