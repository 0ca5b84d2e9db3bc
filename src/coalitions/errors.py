"""Exception types shared across the package."""


class CoalitionsError(Exception):
    """Base class for errors raised by this package."""


class GraphFormatError(CoalitionsError):
    """A graph read from text (graph6, edge list) is malformed."""


class PreconditionError(CoalitionsError):
    """An operation was called on a graph that violates its stated preconditions."""


class GuardExceededError(CoalitionsError):
    """An exponential-time routine was asked to run past its size guard.

    The guard exists because the exact routines enumerate vertex subsets or
    set partitions; past a dozen vertices the running time stops being a
    nuisance and becomes a mistake.  Callers that really mean it can raise
    the partition-search guard (n <= 12 by default) through the guard
    argument, or --guard and CC_GUARD_N on the command line.  Two guards are
    fixed: cds_table's n <= 20, which gamma_c and every search reading the
    table share, and labeled enumeration's n <= 7.
    """


class CoalitionExpansionError(CoalitionsError):
    """The constructive expansion of a connected domatic partition failed.

    This is raised loudly rather than silently returning a bad partition:
    every return path of the expansion is validated, and a failure here
    means an input assumption did not hold.
    """
