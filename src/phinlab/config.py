"""Runtime limits: the enumeration cap read from the environment and a
fixed budget of work units for exponential enumerations."""

import os

from .errors import EnumerationCapExceeded, InputError

DEFAULT_MAX_N = 8

# Largest number of work units (one coset class, say) a single call may
# enumerate. A Hecke class costs about 30 us, so the budget is a few seconds.
WORK_BUDGET = 10**5


def enumeration_cap():
    """Largest rank for which exhaustive enumerations are attempted."""
    raw = os.environ.get("PHINLAB_MAX_N", "")
    if not raw:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"PHINLAB_MAX_N must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InputError(f"PHINLAB_MAX_N must be positive, got {cap}")
    return cap


def check_enumeration_size(n, what):
    cap = enumeration_cap()
    if n > cap:
        raise EnumerationCapExceeded(
            f"{what} at size {n} exceeds the enumeration cap {cap}; raise PHINLAB_MAX_N to allow it"
        )


def check_work_units(units, what):
    """Refuse an enumeration of more than WORK_BUDGET units before it starts."""
    if units > WORK_BUDGET:
        raise InputError(f"{what}: {units} work units exceed the budget of {WORK_BUDGET}")
