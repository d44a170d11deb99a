"""Pointwise bridge from Frobenius data to Hecke eigenvalues.

The weight table xi is derived from regular Hodge-Tate weights by
xi_j = -i_j + (j-1) per embedding. beta_value twists the exterior-power
trace of Frobenius by a uniformizer power built from the late weights
(positions j >= r); the consistency check recomputes the same number
through segments, the unramified character, and the rescaled double-coset
operator, and demands exact equality for every r. check_integrality asks
whether all the beta values are integral, reporting weak admissibility
alongside.
"""

from .errors import InputError, NotFullyRational, RepeatedEigenvalues
from .hecke import HeckeParams, theta_tilde
from .linalg import exterior_trace, exterior_traces
from .modules import is_weakly_admissible
from .partitions import LabelMap
from .scalars import TwistedScalar
from .weil_deligne import (
    find_linked_pair,
    psi_from_segments,
    segments_from_wd,
    wd_from_module,
)

__all__ = [
    "HodgeTateWeights",
    "XiWeights",
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


class XiWeights(LabelMap):
    """Integer twist weights per embedding; no shape constraint beyond length."""

    __slots__ = ()
    error = InputError

    @staticmethod
    def _value(label, weights):
        return tuple(int(x) for x in weights)


class HodgeTateWeights(LabelMap):
    """Strictly increasing integer weights per embedding (regular weight)."""

    __slots__ = ()
    error = InputError

    @staticmethod
    def _value(label, weights):
        w = XiWeights._value(label, weights)
        if any(w[i] >= w[i + 1] for i in range(len(w) - 1)):
            raise InputError(f"weights for {label} must be strictly increasing, got {w}")
        return w


def xi_from_ht(weights):
    return XiWeights(
        {label: tuple(-w[j] + j for j in range(len(w))) for label, w in weights.items()}
    )


def ht_from_module(d):
    """Read the weights off the filtration jumps (already sorted ascending)."""
    return HodgeTateWeights({label: d.jumps(label) for label in d.field.embeddings})


def _check_xi(xi, d):
    if set(xi) != set(d.field.embeddings):
        raise InputError(
            f"weight labels {sorted(xi)} do not match embeddings {sorted(d.field.embeddings)}"
        )
    for label in xi:
        if len(xi[label]) != d.n:
            raise InputError(f"xi[{label}] needs {d.n} entries, got {len(xi[label])}")


def beta_value(d, r, xi):
    """Twisted trace of the r-th exterior power of Frobenius.

    Value is pi^{-t} * Tr(wedge^r phi) with t the sum of xi over positions
    j >= r across all embeddings; carried as a TwistedScalar so e > 1
    still has an exact valuation.
    """
    if not (1 <= r <= d.n):
        raise InputError(f"r must satisfy 1 <= r <= {d.n}, got {r}")
    _check_xi(xi, d)
    return _twisted(d, r, xi, exterior_trace(d.phi, r))


def _twisted(d, r, xi, trace):
    twist = sum(xi[label][j] for label in xi for j in range(r - 1, d.n))
    return TwistedScalar(trace, -twist, d.field.p, d.field.e)


def check_integrality(d, xi):
    """Valuations of every beta value, with weak admissibility alongside.

    Non-admissible input is a warning, not an error: the raw valuations
    are still worth seeing, and deliberately broken modules are how the
    check shows it has power.
    """
    _check_xi(xi, d)
    try:
        verdict = is_weakly_admissible(d)
        admissible = verdict.admissible
        warning = None if admissible else "module is not weakly admissible; valuations reported raw"
    except (RepeatedEigenvalues, NotFullyRational) as err:
        admissible = None
        warning = f"admissibility undecided ({err}); valuations reported raw"
    rows = []
    all_ok = True
    traces = exterior_traces(d.phi)
    for r in range(1, d.n + 1):
        value = _twisted(d, r, xi, traces[r])
        v = value.val_f()
        ok = v >= 0
        rows.append({"r": r, "value": value, "valuation": v, "integral": ok})
        all_ok = all_ok and ok
    return {"admissible": admissible, "warning": warning, "rows": rows, "passed": all_ok}


def consistency_check(d, xi):
    """Hecke side against Galois side, exactly, for every r.

    Stops with status "not_generic" when two segments are linked; any
    failure of exact equality (which would falsify the interpolation)
    comes back as status "fail" with the offending rows visible.
    """
    _check_xi(xi, d)
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
    xi_dict = {label: xi[label] for label in xi}
    all_equal = True
    traces = exterior_traces(d.phi)
    for r in range(1, d.n + 1):
        left = theta_tilde(psi, HeckeParams(d.n, w.q, r), xi_dict, d.field)
        right = _twisted(d, r, xi, traces[r])
        equal = left == right
        all_equal = all_equal and equal
        report["rows"].append(
            {"r": r, "hecke": left, "galois": right, "equal": equal, "valuation": right.val_f()}
        )
    report["status"] = "pass" if all_equal else "fail"
    return report
