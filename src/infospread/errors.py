"""Exception types shared across the simulation modules.

Everything that represents a model-level failure derives from ModelError so
the CLI can map it to a single exit status (ParamError, a bad parameter, to
the usage status).  UsageError is deliberately not a ModelError: it belongs
to argument parsing and maps to a different status.
"""

import sys


class ModelError(Exception):
    """Base class for model-level failures (CLI exit status 1)."""


class ParamError(ModelError, ValueError):
    """A parameter outside its documented domain (CLI exit status 2).

    ``name`` is the parameter the message starts with, or None when the
    message is about several parameters together.
    """

    def __init__(self, message, name=None):
        super().__init__(message)
        self.name = name


def check(ok: bool, name: str, value, domain: str):
    """Return ``value``, or raise ParamError "<name> must be <domain>, got
    <value>" unless ``ok``.  Write ``ok`` as a comparison that NaN fails."""
    if not ok:
        raise ParamError(f"{name} must be {domain}, got {shown(value)}", name)
    return value


def shown(value) -> str:
    """``repr`` of ``value``, but an int of more than 17 digits in scientific
    form: its nearest float, or 17 significant digits past the float range."""
    if not isinstance(value, int) or abs(value) < 10 ** 17:
        return repr(value)
    if abs(value) <= sys.float_info.max:
        return repr(float(value))
    from decimal import Context, Decimal  # rare; keeps it out of every start-up
    return f"{Decimal(value).normalize(Context(prec=17)):e}"


# network ---------------------------------------------------------------

class DimensionError(ModelError):
    """Matrix input is not square, is empty, or has ragged rows."""


class EntryRangeError(ModelError):
    """Matrix entry outside [0, 1] or non-finite, or raw input to
    ``validate_network`` that is not numeric."""


class ZeroMatrixError(ModelError):
    """Eigen-iteration requested on an all-zero matrix."""


class ConvergenceError(ModelError):
    """Power iteration hit its iteration limit or stalled.

    Carries the best iterate seen so callers can inspect how close the
    run got.
    """

    def __init__(self, message, eigenvalue=None, eigenvector=None,
                 residual=None, iterations=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.eigenvector = eigenvector
        self.residual = residual
        self.iterations = iterations


# gossip ----------------------------------------------------------------

class ReducibleChainError(ModelError):
    """Chain has multiple closed communicating classes, so no unique
    stationary distribution exists.  ``closed_classes`` lists them as
    tuples of (a, b) states."""

    def __init__(self, message, closed_classes=()):
        super().__init__(message)
        self.closed_classes = tuple(closed_classes)


# epi_sir ---------------------------------------------------------------

class ConservationError(ModelError):
    """Population conservation drifted beyond tolerance (step too large)."""


class DegenerateParamsError(ModelError):
    """Rate combination for which the requested quantity is undefined."""


class EndemicUndefinedError(ModelError):
    """Endemic equilibrium collapses (no turnover with supercritical
    spread); carries the disease-free report for reference."""

    def __init__(self, message, disease_free=None):
        super().__init__(message)
        self.disease_free = disease_free


class BracketError(ModelError):
    """Root bracketing for the final-size relation failed."""


# rdwave ----------------------------------------------------------------

class StabilityError(ModelError):
    """Explicit scheme stability bound violated; stepping refused."""


class NonFiniteError(ModelError):
    """A field value became non-finite during integration."""


class StiffnessError(ModelError):
    """Fast layer unresolved: the fast variable is blowing up."""


class NoCrossingError(ModelError):
    """Front level never crossed within the fit window."""


# fundstats -------------------------------------------------------------

class SchemaError(ModelError):
    """CSV header does not match the documented schema."""


class RowError(ModelError):
    """A CSV data row failed validation; carries the file line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class UnknownFieldError(ModelError):
    """Requested field does not exist on a fund record (or is not numeric
    where a numeric field is required)."""


# cli -------------------------------------------------------------------

class UsageError(Exception):
    """Command-line usage problem (exit status 2)."""
