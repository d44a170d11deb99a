"""Filtered modules with Frobenius and monodromy, and weak admissibility.

A module here is a free space Q^n carrying an invertible Frobenius matrix
phi, a nilpotent monodromy N obeying N*phi = p^f*phi*N, and one descending
flag filtration per embedding label, encoded by a flag basis matrix whose
j-th column enters the filtration at the integer jump attached to it.

Weak admissibility compares two slopes: the Hodge number t_H (filtration
jumps met by a subspace) and the Newton number t_N (valuation of the
Frobenius determinant), equality on the whole space and t_H <= t_N on
every phi- and N-stable subspace.
"""

import math

from .config import check_enumeration_size
from .errors import (
    BadFlag,
    InputError,
    NonNilpotentMonodromy,
    NotFullyRational,
    RelationViolation,
    RepeatedEigenvalues,
    SingularFrobenius,
)
from .linalg import (
    Matrix,
    Subspace,
    det,
    kernel_basis,
    matrix_power,
    rational_eigenvalues,
    solve_columns,
)
from .scalars import Frozen, Rational, format_rational, is_prime, padic_val

__all__ = [
    "FieldDescriptor",
    "Flag",
    "FilteredPhiNModule",
    "AdmissibilityReport",
    "Witness",
    "check_phi_n",
    "build_module",
    "newton_number",
    "hodge_number",
    "enumerate_stable_subspaces",
    "is_weakly_admissible",
    "weil_trace",
]


class FieldDescriptor(Frozen):
    """Arithmetic of the base field: residue size p^f0, ramification e.

    f is the Frobenius power the stored phi represents (the scale in the
    commutation rule is p^f); degree_factor is an extra denominator in the
    Newton normalization, 1 in the split case this package targets.
    """

    __slots__ = ("p", "f0", "e", "f", "embeddings", "degree_factor")

    def __init__(self, p, f0=1, e=1, f=1, embeddings=("k0",), degree_factor=1):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        for name, value in (("f0", f0), ("e", e), ("f", f), ("degree_factor", degree_factor)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        emb = tuple(str(x) for x in embeddings)
        if not emb or len(set(emb)) != len(emb):
            raise ValueError("embeddings must be a nonempty tuple of distinct labels")
        Frozen.__init__(self, p, f0, e, f, emb, degree_factor)

    @property
    def q(self):
        return self.p ** self.f0

    def val_f(self, x):
        """Valuation normalized so a uniformizer has valuation 1."""
        return padic_val(x, self.p).scaled(self.e)


class Flag(Frozen):
    """A full flag basis with one integer jump per column, jumps ascending."""

    __slots__ = ("basis", "jumps")


class FilteredPhiNModule(Frozen):
    """Validated bundle of field data, phi, monodromy, and filtrations."""

    __slots__ = ("field", "n", "phi", "monodromy", "filtration")

    def __hash__(self):
        # the filtration dict is unhashable; equal modules still hash equal
        return hash((self.field, self.n, self.phi, self.monodromy))

    def flag(self, label):
        return self.filtration[label].basis

    def jumps(self, label):
        return self.filtration[label].jumps

    def fil_subspace(self, label, i):
        """Span of flag columns whose jump is at least i."""
        entry = self.filtration[label]
        cols = [entry.basis.column(j) for j, jump in enumerate(entry.jumps) if jump >= i]
        return Subspace(self.n, cols)

    def __repr__(self):
        return f"FilteredPhiNModule(n={self.n}, p={self.field.p})"


def _as_matrix(value, n, what):
    m = value if isinstance(value, Matrix) else Matrix(value)
    if (m.nrows, m.ncols) != (n, n):
        raise InputError(f"{what} must be {n}x{n}, got {m.nrows}x{m.ncols}")
    return m


def check_phi_n(phi, monodromy, scale):
    """Reject a singular phi, a non-nilpotent N, or N*phi != scale*phi*N."""
    n = phi.nrows
    if det(phi) == 0:
        raise SingularFrobenius("phi is singular")
    if not matrix_power(monodromy, n).is_zero:
        raise NonNilpotentMonodromy(n)
    scale = Rational(scale)
    lhs = monodromy @ phi
    rhs = scale * (phi @ monodromy)
    if lhs != rhs:
        i, j = next(
            (i, j)
            for i in range(n)
            for j in range(n)
            if lhs.rows[i][j] != rhs.rows[i][j]
        )
        raise RelationViolation((i, j), lhs.rows[i][j], rhs.rows[i][j], scale)


def build_module(field, n, phi, monodromy, filtration):
    """Validate and assemble a filtered module.

    ``filtration`` maps each embedding label to (flag_matrix, jumps). Flag
    columns are stably sorted by ascending jump, keeping each generator
    attached to its jump.
    """
    n = int(n)
    if n < 1:
        raise InputError("rank must be at least 1")
    phi = _as_matrix(phi, n, "phi")
    monodromy = _as_matrix(monodromy, n, "monodromy")
    check_phi_n(phi, monodromy, field.p ** field.f)
    if set(filtration) != set(field.embeddings):
        raise BadFlag(
            f"filtration labels {sorted(filtration)} do not match embeddings {sorted(field.embeddings)}"
        )
    flags = {}
    for label in field.embeddings:
        basis, jumps = filtration[label]
        basis = _as_matrix(basis, n, f"flag[{label}]")
        jumps = list(jumps)
        if len(jumps) != n or not all(isinstance(j, int) for j in jumps):
            raise BadFlag(f"flag[{label}] needs {n} integer jumps, got {jumps}")
        if det(basis) == 0:
            raise BadFlag(f"flag[{label}] basis is singular")
        order = sorted(range(n), key=lambda j: (jumps[j], j))
        basis = Matrix.from_columns([basis.column(j) for j in order], n)
        flags[label] = Flag(basis, tuple(jumps[j] for j in order))
    return FilteredPhiNModule(field, n, phi, monodromy, flags)


def _restrict_or_reject(d, sub):
    """phi on a nonzero subspace that must be phi- and N-stable; None on zero."""
    if sub.dim == 0:
        return None
    try:
        restricted = sub.restrict(d.phi)
    except ValueError:
        raise ValueError("subspace is not phi-stable") from None
    if not sub.is_stable_under(d.monodromy):
        raise ValueError("subspace is not monodromy-stable")
    return restricted


def _newton(d, frobenius_det):
    val = padic_val(frobenius_det, d.field.p).value
    return Rational(d.field.e * val) / (d.field.degree_factor * d.field.f)


def newton_number(d, sub=None):
    """t_N: scaled valuation of det(phi) on the module or a stable subspace."""
    if sub is None:
        return _newton(d, det(d.phi))
    restricted = _restrict_or_reject(d, sub)
    if restricted is None:
        return Rational(0)
    return _newton(d, det(restricted))


def _filtration_levels(d):
    """Per embedding, each distinct jump i ascending with its Fil^i subspace."""
    return [
        [(i, d.fil_subspace(label, i)) for i in sorted(set(d.jumps(label)))]
        for label in d.field.embeddings
    ]


def _hodge(sub, levels):
    total = 0
    for label_levels in levels:
        dims = [sub.intersect(fil).dim for _, fil in label_levels]
        dims.append(0)
        for k, (i, _) in enumerate(label_levels):
            total += i * (dims[k] - dims[k + 1])
    return total


def hodge_number(d, sub=None):
    """t_H: jump-weighted dimension drops of the filtration on a subspace.

    With no subspace, the sum of all jumps over all embeddings. A supplied
    subspace must be stable under phi and the monodromy.
    """
    if sub is None:
        return sum(j for label in d.field.embeddings for j in d.jumps(label))
    if sub.ambient != d.n:
        raise ValueError("ambient dimension mismatch")
    _restrict_or_reject(d, sub)
    return _hodge(sub, _filtration_levels(d))


def enumerate_stable_subspaces(d):
    """All phi- and N-stable subspaces, for a split multiplicity-free spectrum.

    These are exactly the spans of Frobenius eigenvector subsets closed
    under the monodromy; the zero space and the full space are included.
    Raises RepeatedEigenvalues or NotFullyRational when the spectrum is not
    split multiplicity-free; use certificate mode in that situation.
    """
    check_enumeration_size(d.n, "stable-subspace enumeration")
    split = rational_eigenvalues(d.phi)
    if not split.is_split:
        coeffs = ", ".join(format_rational(c) for c in split.residual)
        raise NotFullyRational(
            f"phi spectrum has an irrational factor with coefficients {coeffs} (constant term first)"
        )
    if any(mult > 1 for _, mult in split.roots):
        roots = ", ".join(f"{format_rational(v)} (multiplicity {mult})" for v, mult in split.roots)
        raise RepeatedEigenvalues(f"phi spectrum has repeated roots: {roots}")
    eigvecs = []
    for value, _ in split.roots:
        shifted = [[x - value if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(d.phi.rows)]
        eigvecs.append(kernel_basis(Matrix(shifted))[0])
    basis = Matrix.from_columns(eigvecs, d.n)
    n_in_eigenbasis = solve_columns(basis, d.monodromy @ basis)
    out = []
    for mask in range(1 << d.n):
        chosen = [i for i in range(d.n) if mask >> i & 1]
        members = set(chosen)
        stable = all(
            n_in_eigenbasis.rows[j][i] == 0
            for i in chosen
            for j in range(d.n)
            if j not in members
        )
        if stable:
            out.append(Subspace(d.n, [eigvecs[i] for i in chosen]))
    # the order of Subspace.sort_key, compared on integers: every entry
    # scaled by one common multiple of all the denominators; bases of one
    # dimension have equal shapes, so their flattened rows compare the same
    scale = math.lcm(*{x.denominator for sub in out for row in sub.basis for x in row})
    out.sort(key=lambda sub: (sub.dim, [x.numerator * (scale // x.denominator)
                                        for row in sub.basis for x in row]))
    return out


class Witness(Frozen):
    """The subspace that breaks weak admissibility, with its t_H and t_N;
    unpacks as (subspace, t_h, t_n)."""

    __slots__ = ("subspace", "t_h", "t_n")

    def __iter__(self):
        return iter(self._values())


class AdmissibilityReport(Frozen):
    __slots__ = ("admissible", "t_h", "t_n", "witness", "subspaces_checked", "mode")


def is_weakly_admissible(d, candidates=None):
    """Weak admissibility verdict with the first violating subspace, if any.

    With ``candidates`` the check runs in certificate mode: the verdict is
    relative to the supplied stable subspaces (each is validated for
    stability), plus the always-checked equality on the full space.
    """
    t_h = hodge_number(d)
    t_n = newton_number(d)
    mode = "enumerated" if candidates is None else "certificate"
    if candidates is None:
        subs = enumerate_stable_subspaces(d)
    else:
        subs = list(candidates)
        for sub in subs:
            try:
                _restrict_or_reject(d, sub)
            except ValueError as exc:
                raise InputError(f"candidate subspace rejected: {exc}") from None
    if t_h != t_n:
        witness = Witness(Subspace.full(d.n), t_h, t_n)
        return AdmissibilityReport(False, t_h, t_n, witness, len(subs), mode)
    # every subspace here is stable: enumerated ones are built stable and
    # candidates were validated above, so t_H and t_N are computed directly
    levels = _filtration_levels(d)
    for sub in subs:
        if sub.dim in (0, d.n):
            continue
        sub_h = _hodge(sub, levels)
        sub_n = _newton(d, det(sub.restrict(d.phi)))
        if not sub_h <= sub_n:
            witness = Witness(sub, sub_h, sub_n)
            return AdmissibilityReport(False, t_h, t_n, witness, len(subs), mode)
    return AdmissibilityReport(True, t_h, t_n, None, len(subs), mode)


def weil_trace(d, a):
    """Trace of the inverse Frobenius power: Tr(phi^(-a))."""
    return matrix_power(d.phi, -int(a)).trace()
