"""The one budget for exponential enumerations, in work units."""

from .errors import EnumerationCapExceeded

# Not read by the package; kept while the benchmark harness records it.
DEFAULT_MAX_N = 8

# Largest number of work units (one coset class, say) a single call may
# enumerate. A Hecke class costs about 30 us, so the budget is a few seconds.
WORK_BUDGET = 10**5


def check_work_units(units, what):
    """Refuse an enumeration of more than WORK_BUDGET units before it starts."""
    if units > WORK_BUDGET:
        raise EnumerationCapExceeded(f"{what}: {units} work units exceed the budget of {WORK_BUDGET}")
