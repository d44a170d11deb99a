"""The one budget for exponential enumerations, in work units."""

from .errors import EnumerationCapExceeded

# Not read by the package; kept while the benchmark harness records it.
DEFAULT_MAX_N = 8

# Largest number of work units (one coset class, say) a single call may
# enumerate. theta_enumerated costs about 5 us a Hecke class at n=12 (the
# 924 classes of r=6, q=5 in about 5 ms) and about 10 us at n=20 (the
# 77,520 classes of r=7, q=5 in 0.73 s), on a 2-core VM with Python 3.11.7,
# so a full budget of classes takes about a second.
WORK_BUDGET = 10**5


def check_work_units(units, what):
    """Refuse an enumeration of more than WORK_BUDGET units before it starts."""
    if units > WORK_BUDGET:
        raise EnumerationCapExceeded(f"{what}: {units} work units exceed the budget of {WORK_BUDGET}")
