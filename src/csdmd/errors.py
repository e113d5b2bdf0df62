"""Exception types shared across the package, and the count check that
raises one."""

from numbers import Integral


class CsdmdError(Exception):
    """Base class for all package-specific failures."""


class DimensionError(CsdmdError):
    """Shapes disagree, a size is out of range or over a limit, or a saved
    matrix or operator does not rebuild as recorded."""


# the former name of DimensionError, kept for code that imports it
BadDimensions = DimensionError


def check_count(value, what, least=0):
    """value, if it is an integer >= least (a bool is not); else a
    DimensionError naming what.  Sizes read from files pass here before any
    arithmetic or allocation sees them."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise DimensionError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


class RankCollapse(CsdmdError):
    """Measured data lost rank relative to the full data.

    Raised by the compressed pipeline when the measurement operator
    annihilates directions that carry signal, which makes eigenvalue
    recovery unreliable.
    """


class ConvergenceError(CsdmdError):
    """An iterative solver exhausted its budget without converging."""


class BadWavenumber(CsdmdError):
    """A planted wavenumber index lies outside the grid."""


class NoProgress(CsdmdError):
    """Sparse recovery halted while the residual was still large."""


class ZeroInput(CsdmdError):
    """A numerically zero matrix or vector was given where a nonzero one is
    required (an SVD input, or a vector for sparse recovery to explain)."""
