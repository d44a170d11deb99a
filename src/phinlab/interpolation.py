"""Pointwise bridge from Frobenius data to Hecke eigenvalues.

Every function here reads the weight table xi off the module itself: the
Hodge-Tate weights are the filtration jumps, which must be strictly
increasing, and xi_j = -i_j + (j-1) per embedding, as CONVENTIONS states.
beta_value twists the exterior-power trace of Frobenius by a uniformizer
power built from the late weights (positions j >= r); the consistency
check recomputes the same numbers through segments, the unramified
character, and the rescaled double-coset operator, and demands exact
equality for every r. Each side gives all n rows in one pass, through
the same twist, so the two differ only in e_r(psi) against the trace of
the r-th exterior power. check_integrality asks whether all the beta
values are integral, reporting xi and weak admissibility alongside.
"""

from .errors import InputError, Undecided
from .hecke import _twisted, theta_tilde
from .linalg import exterior_traces
from .modules import _admissible
from .partitions import LabelMap
from .scalars import is_int
from .weil_deligne import (
    find_linked_pair,
    psi_from_segments,
    segments_from_wd,
    wd_from_module,
)

__all__ = [
    "xi_from_ht",
    "ht_from_module",
    "beta_value",
    "check_integrality",
    "consistency_check",
    "CONVENTIONS",
]

# the normalization choices everything downstream assumes, echoed into
# consistency reports so a stored report pins them
CONVENTIONS = {
    "weights": "filtration jumps read ascending, one row per embedding",
    "xi": "xi_j = -i_j + (j - 1) within each embedding",
    "twist": "uniformizer exponent is minus the sum of xi at positions j >= r",
    "uniformizer": "evaluated as p when e == 1, kept symbolic otherwise",
    "hecke_side": "q^{r(r-1)/2} times the twist times the closed-form eigenvalue",
    "galois_side": "the twist times the trace of the r-th exterior power of phi",
}


def xi_from_ht(weights):
    """xi_j = -i_j + (j - 1) per label, from any map of labels to ascending weights."""
    return LabelMap(
        {label: tuple(-w[j] + j for j in range(len(w))) for label, w in weights.items()}
    )


def ht_from_module(d):
    """Read the weights off the filtration jumps (already sorted ascending),
    which must be strictly increasing: the weight is regular."""
    weights = LabelMap({label: d.jumps(label) for label in d.field.embeddings})
    for label, w in weights.items():
        if any(w[i] >= w[i + 1] for i in range(len(w) - 1)):
            raise InputError(f"weights for {label} must be strictly increasing, got {w}")
    return weights


def _betas(d):
    """xi read off d, and beta_r = Tr(wedge^r phi) twisted by ``_twisted``, r = 1..n."""
    xi = xi_from_ht(ht_from_module(d))
    return xi, _twisted(exterior_traces(d.phi)[1:], xi, d.field)


def beta_value(d, r):
    """Twisted trace of the r-th exterior power of Frobenius, at d's own xi."""
    if not (is_int(r) and 1 <= r <= d.n):
        raise InputError(f"r must satisfy 1 <= r <= {d.n}, got {r}")
    return _betas(d)[1][r - 1]


def check_integrality(d):
    """Valuations of every beta value, with xi and weak admissibility alongside.

    Admissibility is a yes/no, with no witness. Non-admissible input is a
    warning, not an error: the raw valuations are still worth seeing, and
    deliberately broken modules are how the check shows it has power.
    """
    xi, betas = _betas(d)
    try:
        admissible = _admissible(d)
        warning = None if admissible else "module is not weakly admissible; valuations reported raw"
    except Undecided as err:
        admissible = None
        warning = f"admissibility undecided ({err}); valuations reported raw"
    rows = [{"r": r, "value": value, "valuation": value.val, "integral": value.val >= 0}
            for r, value in enumerate(betas, 1)]
    return {"xi": xi, "admissible": admissible, "warning": warning, "rows": rows,
            "passed": all(row["integral"] for row in rows)}


def consistency_check(d):
    """Hecke side against Galois side, exactly, for every r.

    Stops with status "not_generic" when two segments are linked; any
    failure of exact equality (which would falsify the interpolation)
    comes back as status "fail" with the offending rows visible.
    """
    xi, betas = _betas(d)
    w = wd_from_module(d)
    segs = segments_from_wd(w)
    pair = find_linked_pair(segs, w.q)
    report = {
        "q": w.q,
        "segments": segs,
        "linked_pair": pair,
        "conventions": dict(CONVENTIONS),
        "rows": [],
    }
    if pair is not None:
        report["status"] = "not_generic"
        return report
    psi = psi_from_segments(segs, w.q)
    report["psi"] = psi
    report["rows"] = [
        {"r": r, "hecke": left, "galois": right, "equal": left == right, "valuation": right.val}
        for r, (left, right) in enumerate(zip(theta_tilde(psi, xi, d.field), betas), 1)
    ]
    report["status"] = "pass" if all(row["equal"] for row in report["rows"]) else "fail"
    return report
