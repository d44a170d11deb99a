"""Filtered modules with Frobenius and monodromy, and weak admissibility.

A module here is a free space Q^n carrying an invertible Frobenius matrix
phi, a nilpotent monodromy N obeying N*phi = p^f*phi*N, and one descending
flag filtration per embedding label, encoded by a flag basis matrix whose
j-th column enters the filtration at the integer jump attached to it.
``check_phi_n`` checks phi and N on their cleared integer matrices.

Weak admissibility compares two slopes: the Hodge number t_H (filtration
jumps met by a subspace) and the Newton number t_N (valuation of the
Frobenius determinant), equality on the whole space and t_H <= t_N on
every phi- and N-stable subspace. For a split multiplicity-free spectrum
those are the spans W_S of the N-closed sets S of eigenvectors, and the
verdict works in eigen-coordinates (Fontaine-Rapoport 1994;
Breuil-Schneider 2007, section 4): t_N(W_S) is a sum of eigenvalue
valuations, and t_H(W_S) comes from one integer echelon form per flag.
"""

import math

from .config import check_work_units
from .errors import (
    BadFlag,
    InputError,
    RelationViolation,
    RepeatedEigenvalues,
    SingularFrobenius,
    Undecided,
)
from .linalg import (
    Matrix,
    Subspace,
    _echelon,
    _eigenvectors,
    _int_matmul,
    _primitive_row,
    det,
    jordan_partition,
    rational_eigenvalues,
)
from .partitions import LabelMap
from .scalars import Frozen, Rational, _rebuild, format_rational, is_int, is_prime, padic_val

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
            if not is_int(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        emb = tuple(str(x) for x in embeddings)
        if not emb or len(set(emb)) != len(emb):
            raise ValueError("embeddings must be a nonempty tuple of distinct labels")
        Frozen.__init__(self, p, f0, e, f, emb, degree_factor)

    @property
    def q(self):
        check_work_units(self.f0 * self.p.bit_length(), "residue field size p^f0")
        return self.p ** self.f0


class Flag(Frozen):
    """A full flag basis with one integer jump per column, jumps ascending."""

    __slots__ = ("basis", "jumps")


class FilteredPhiNModule(Frozen):
    """Validated bundle of field data, phi, monodromy, and filtrations."""

    __slots__ = ("field", "n", "phi", "monodromy", "filtration")

    def jumps(self, label):
        return self.filtration[label].jumps

    def fil_subspace(self, label, i):
        """Span of flag columns whose jump is at least i."""
        entry = self.filtration[label]
        # the integer columns of the cleared flag span the same space
        return Subspace._from_int_rows(self.n, [[row[j] for row in entry.basis.ints]
                                                for j, jump in enumerate(entry.jumps) if jump >= i])

    def __repr__(self):
        return f"FilteredPhiNModule(n={self.n}, p={self.field.p})"


def _as_matrix(value, n, what):
    m = value if isinstance(value, Matrix) else Matrix(value)
    if (m.nrows, m.ncols) != (n, n):
        raise InputError(f"{what} must be {n}x{n}, got {m.nrows}x{m.ncols}")
    return m


def check_phi_n(phi, monodromy, p, k):
    """Reject a singular phi, a non-nilpotent N, or N*phi != p^k*phi*N, k >= 1.

    Both checks run on the cleared integer matrices A = a*N and F = b*phi:
    the relation holds when A F = p^k (F A). For an invertible phi the
    relation implies nilpotency: N is similar to p^k*N, so its eigenvalues
    are closed under multiplication by p^k and can only be 0. So N = 0
    needs neither check, and p^k is formed only past it, through the work
    budget by its bit count; the nilpotency test runs only when the
    relation fails, and decides whether the error is the nilpotency or the
    first failing entry.
    """
    n = phi.nrows
    if det(phi) == 0:
        raise SingularFrobenius("phi is singular")
    if monodromy.is_zero:
        return
    check_work_units(k * p.bit_length(), "commutation scale p^k")
    scale = p ** k
    lhs = _int_matmul(monodromy.ints, phi.ints)
    rhs = _int_matmul(phi.ints, monodromy.ints)
    for i in range(n):
        for j in range(n):
            if lhs[i][j] != scale * rhs[i][j]:
                jordan_partition(monodromy)
                den = monodromy.den * phi.den
                raise RelationViolation((i, j), Rational(lhs[i][j], den),
                                        scale * Rational(rhs[i][j], den), scale)


def build_module(field, n, phi, monodromy, filtration):
    """Validate and assemble a filtered module.

    ``filtration`` maps each embedding label to (flag_matrix, jumps). Flag
    columns are stably sorted by ascending jump, keeping each generator
    attached to its jump.
    """
    if not is_int(n) or n < 1:
        raise InputError(f"rank must be a positive integer, got {n!r}")
    phi = _as_matrix(phi, n, "phi")
    monodromy = _as_matrix(monodromy, n, "monodromy")
    check_phi_n(phi, monodromy, field.p, field.f)
    if set(filtration) != set(field.embeddings):
        raise BadFlag(
            f"filtration labels {sorted(filtration)} do not match embeddings {sorted(field.embeddings)}"
        )
    flags = {}
    for label in field.embeddings:
        basis, jumps = filtration[label]
        basis = _as_matrix(basis, n, f"flag[{label}]")
        jumps = list(jumps)
        if len(jumps) != n or not all(map(is_int, jumps)):
            raise BadFlag(f"flag[{label}] needs {n} integer jumps, got {jumps}")
        if det(basis) == 0:
            raise BadFlag(f"flag[{label}] basis is singular")
        order = sorted(range(n), key=lambda j: (jumps[j], j))
        # permuted columns keep the pair (ints, den) in lowest terms
        ints = tuple(tuple([row[j] for j in order]) for row in basis.ints)
        flags[label] = Flag(_rebuild(Matrix, (ints, basis.den)), tuple(jumps[j] for j in order))
    return FilteredPhiNModule(field, n, phi, monodromy, LabelMap(flags))


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


def _scaled_newton(field, val):
    return Rational(field.e * val) / (field.degree_factor * field.f)


def _newton(d, frobenius_det):
    return _scaled_newton(d.field, padic_val(frobenius_det, d.field.p))


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


def _eigen_frame(d):
    """Eigen-coordinates of a split multiplicity-free spectrum, on integers.

    Returns (valuations, eigvecs, flags, closed): the p-adic valuation of
    each rational eigenvalue, ascending by value; the eigenvector of each,
    a primitive integer column of the basis B; per embedding, the flag in
    eigen-coordinates B^-1 * flag as primitive integer rows, columns by
    descending jump, with those jumps; and every N-closed index set as an
    integer bitmask (bit i is eigvecs[i]). The spans of the closed sets are
    exactly the phi- and N-stable subspaces.

    With phi = F/d, the eigenvector of a/b spans the kernel of b*F - a*d*I;
    ``_eigenvectors`` finds all of them from one Krylov sequence of F.
    One echelon form of (B | N*B | flag_1 | ...) is (D | D*B^-1*N*B | ...)
    for a diagonal D, which gives N's support in eigen-coordinates and each
    flag's rows up to a scale per row; neither depends on that scale.

    N moves each eigenline into at most one other, never two into the same
    one, so the indices fall into chains, and a chain of length l has
    l + 1 closed subsets. The product of those counts, times n for the work
    per set, goes through the work budget before any set is listed.
    """
    roots = rational_eigenvalues(d.phi).split_roots()
    if any(mult > 1 for _, mult in roots):
        listed = ", ".join(f"{format_rational(v)} (multiplicity {mult})" for v, mult in roots)
        raise RepeatedEigenvalues(f"phi spectrum has repeated roots: {listed}")
    n = d.n
    den = d.phi.den
    eigvecs = _eigenvectors(d.phi.ints, [(value.numerator * den, value.denominator)
                                         for value, _ in roots])
    basis = [list(row) for row in zip(*eigvecs)]
    moved = _int_matmul(d.monodromy.ints, basis)
    entries = [d.filtration[label] for label in d.field.embeddings]
    stack = [basis[i] + moved[i] + [x for entry in entries for x in entry.basis.ints[i]]
             for i in range(n)]
    _echelon(stack)
    image = [sum(1 << j for j in range(n) if stack[j][n + i]) for i in range(n)]
    # the images are distinct single bits; a chain starts at an index no
    # image holds and follows image down to an index N kills
    targets = sum(image)
    units = n
    for head in range(n):
        if not targets >> head & 1:
            length, i = 1, head
            while image[i]:
                length, i = length + 1, image[i].bit_length() - 1
            units *= length + 1
    check_work_units(units, "stable-subspace enumeration")
    # flag k (from 0) fills columns (k + 2)n to (k + 3)n of the stack
    flags = [([_primitive_row(row[(k + 2) * n:(k + 3) * n])[::-1] for row in stack],
              entry.jumps[::-1]) for k, entry in enumerate(entries)]
    valuations = [padic_val(value, d.field.p) for value, _ in roots]
    # N maps the eigenline of a value v into that of v / p^f, of smaller
    # valuation, so in ascending valuation every index follows its image:
    # adding index i to a closed set s keeps it closed when s holds the image
    closed = [0]
    for i in sorted(range(n), key=valuations.__getitem__):
        closed += [s | 1 << i for s in closed if not image[i] & ~s]
    return valuations, eigvecs, flags, closed


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def enumerate_stable_subspaces(d, dim=None, *, frame=None):
    """All phi- and N-stable subspaces, for a split multiplicity-free spectrum.

    These are exactly the spans of Frobenius eigenvector subsets closed
    under the monodromy; the zero space and the full space are included,
    in ``Subspace.sort_key`` order. With ``dim`` only the stable subspaces
    of that dimension are built. ``frame`` is internal: the verdict passes
    the ``_eigen_frame(d)`` it already has. Raises RepeatedEigenvalues or
    NotFullyRational when the spectrum is not split multiplicity-free; use
    certificate mode in that situation.
    """
    _, eigvecs, _, closed = frame or _eigen_frame(d)
    masks = closed if dim is None else [m for m in closed if m.bit_count() == dim]
    out = [Subspace._from_int_rows(d.n, [eigvecs[i] for i in _members(mask)]) for mask in masks]
    # the order of Subspace.sort_key, compared on integers: every basis row
    # r / p (r a stored row, p its pivot) scaled by one common multiple of
    # all the pivots; bases of one dimension have equal shapes, so their
    # flattened rows compare the same
    scale = math.lcm(*{r[c] for sub in out for r, c in zip(sub.ints, sub.pivots)})
    out.sort(key=lambda sub: (sub.dim, [x * (scale // r[c]) for r, c in zip(sub.ints, sub.pivots)
                                        for x in r]))
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

    Without ``candidates`` every phi- and N-stable subspace is decided, in
    eigen-coordinates, and the witness is found by the definitions. With
    ``candidates`` the check runs in certificate mode: the verdict is
    relative to the supplied stable subspaces (each is validated for
    stability), plus the always-checked equality on the full space.
    Unequal totals decide "not admissible", with the full space as witness,
    also when the spectrum is not split multiplicity-free or its closed
    sets exceed the work budget; with equal totals those errors propagate.
    """
    t_h = hodge_number(d)
    t_n = newton_number(d)
    if candidates is None:
        mode = "enumerated"
        try:
            frame = _eigen_frame(d)
        except Undecided:
            if t_h == t_n:
                raise
            # unequal totals fail on the full space, whatever the spectrum
            return AdmissibilityReport(False, t_h, t_n, Witness(Subspace.full(d.n), t_h, t_n), 1, mode)
        checked = len(frame[-1])
    else:
        mode, subs = "certificate", list(candidates)
        for sub in subs:
            try:
                _restrict_or_reject(d, sub)
            except ValueError as exc:
                raise InputError(f"candidate subspace rejected: {exc}") from None
        checked = len(subs)
    if t_h != t_n:
        witness = Witness(Subspace.full(d.n), t_h, t_n)
    elif candidates is None:
        witness = _enumerated_witness(d, t_h, frame)
    else:
        witness = _candidate_witness(d, subs)
    return AdmissibilityReport(witness is None, t_h, t_n, witness, checked, mode)


def _candidate_witness(d, subs):
    """The first of the validated stable subspaces with t_H > t_N, or None."""
    levels = _filtration_levels(d)
    for sub in subs:
        if sub.dim in (0, d.n):
            continue
        sub_h = _hodge(sub, levels)
        sub_n = _newton(d, det(sub.restrict(d.phi)))
        if not sub_h <= sub_n:
            return Witness(sub, sub_h, sub_n)
    return None


def _smallest_violating_size(d, t_h, valuations, eigvecs, flags, closed):
    """The smallest |S| of an N-closed set S with t_H(W_S) > t_N(W_S), or None.

    t_N(W_S) is the scaled sum of the valuations of the eigenvalues in S.
    For t_H, ``flags`` holds each flag in eigen-coordinates with the
    columns ordered by descending jump, so Fil^i is the first
    m_i = #{jumps >= i} columns. Projecting away the coordinates
    in S, dim(W_S cap Fil^i) = m_i - rank of those columns, and in one
    echelon form of the rows outside S that rank is #{pivots < m_i}. So
    the jumps W_S meets are those of the non-pivot columns, and t_H(W_S)
    is the total of the jumps less the jumps of the pivot columns.
    t_N(W_S) = e * v / (degree_factor * f) for the valuation sum v, so the
    two compare on integers.
    """
    field = d.field
    scale = field.degree_factor * field.f
    for mask in sorted(closed, key=int.bit_count):
        size = mask.bit_count()
        if size in (0, d.n):
            continue
        outside = [r for r in range(d.n) if not mask >> r & 1]
        # _echelon rebinds the slots of the list it gets, never a row itself
        sub_h = t_h - sum(jumps[c] for rows, jumps in flags
                          for c in _echelon([rows[r] for r in outside]))
        if sub_h * scale > field.e * sum(valuations[i] for i in _members(mask)):
            return size
    return None


def _enumerated_witness(d, t_h, frame):
    """The first stable subspace with t_H > t_N in sort-key order, or None.

    The eigen-coordinate pass decides every N-closed set and gives the
    smallest violating dimension k. The witness is then found, and its
    t_H and t_N computed, by the certificate-mode loop over the stable
    subspaces of dimension k, which ``Subspace.sort_key`` puts first. An
    admissible module runs that loop over its stable lines. The two
    routes are compared in that one dimension only: a violator the pass
    misses below k, or one of dimension 2 or more in a module it calls
    admissible, is not caught.
    """
    size = _smallest_violating_size(d, t_h, *frame)
    dim = size or 1
    witness = _candidate_witness(d, enumerate_stable_subspaces(d, dim, frame=frame))
    if (witness is None) != (size is None):
        raise ArithmeticError(f"eigen-coordinate and subspace verdicts disagree in dimension {dim}")
    return witness
