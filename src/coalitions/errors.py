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
    argument, or --guard on the command line.  Two guards are
    fixed: the CDS table's n <= 20, checked before the masks of the order
    are made and shared by cds_table, gamma_c and every search reading the
    table, and labeled enumeration's n <= 7.
    """


class CoalitionExpansionError(CoalitionsError):
    """The constructive expansion of a connected domatic partition failed.

    This is raised loudly rather than silently returning a bad partition:
    every return path of the expansion is validated, and a failure here
    means an input assumption did not hold.  The theorem harness's t2 check
    expands d_c's witness and reports this error as a failed check, with
    the message in its detail.
    """
