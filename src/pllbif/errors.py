"""Exception types shared across the toolkit."""

from __future__ import annotations


class PllbifError(Exception):
    """Base class for all toolkit errors."""


class InvalidParamError(PllbifError, ValueError):
    """A network parameter violates its domain (N >= 2, K > 0, mu > 0, ...)."""


class NoEquilibriumError(PllbifError):
    """Phase-locked equilibria require K >= 1."""


class DimensionMismatchError(PllbifError, ValueError):
    """State or history vector length does not match the model dimension."""


class UnsupportedKindError(PllbifError, ValueError):
    """Operation not defined for the requested model formulation."""


class DegenerateSError(PllbifError, ZeroDivisionError):
    """Delay-term coefficient S vanishes; crossing angle undefined."""


class DegenerateCrossingError(PllbifError):
    """Transversality value is zero (e.g. double omega root); no sign available."""


class BranchDomainError(PllbifError, ValueError):
    """Argument outside the domain of the requested Lambert W branch."""


class NoConvergenceError(PllbifError):
    """Iteration budget exhausted without meeting the residual tolerance."""


class BoundaryRootError(PllbifError):
    """A characteristic root sits (numerically) on a counting contour.

    The contour is a ``root_census`` box's edge or an ``unstable_count`` line.
    """


class IndexOutOfRangeError(PllbifError, IndexError):
    """Isotypic component index outside 0..N-1."""


class NonFiniteError(PllbifError, ArithmeticError):
    """Trajectory left the finite range (blow-up or NaN)."""


class NotPeriodicError(PllbifError):
    """Trajectory tail does not settle onto a periodic signal."""
