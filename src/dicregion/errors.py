"""Exception types shared across the package."""


class DicRegionError(Exception):
    """Base class for all package-specific errors."""


class ChannelFormatError(DicRegionError):
    """A channel description is structurally malformed (missing or ragged
    table entries, inconsistent sizes).  Distinct from a channel that is
    well-formed but fails the injectivity check."""


class InfeasibleRegionError(DicRegionError):
    """An inequality system was proven infeasible: by a row 0 <= rhs < -tol in
    `fm_eliminate`, `canonicalize` or the pinned slice of `project_to_aggregate`,
    or by an empty region in a support value or a containment test."""


class UnboundedDirectionError(DicRegionError):
    """A linear objective is unbounded over a region."""

    def __init__(self, direction, message=None):
        self.direction = tuple(direction)
        super().__init__(message or f"region is unbounded in direction {self.direction}")


class EnumerationOverflowError(DicRegionError):
    """Facet enumeration exceeded its size guard: the cells of the larger
    half lattice of `enumerate_facets`, (a_max + 1)^(2K - K // 2), checked
    before it is allocated.  The guard bounds the largest array of the
    search, not the search: its traced peak is 7-10 times the counted cells
    x 8 bytes (97 MB at K=5, a_max=5, which the default guard admits)."""


class SchemeReductionError(DicRegionError):
    """A weight-shifting reduction could not be completed.  For schemes that
    satisfy the documented preconditions this cannot happen, so raising it
    signals either a precondition violation by the caller or an internal
    inconsistency."""
