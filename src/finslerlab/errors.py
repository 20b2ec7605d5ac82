"""Exception hierarchy shared by all finslerlab modules."""


def coords(values):
    """The coordinates ``values`` as a list of Python floats: the form in
    which error texts print a point or a direction, whether it came as a
    list or as a numpy row."""
    return [float(v) for v in values]


class FinslerError(Exception):
    """Base class for all errors raised by this package."""


def _raised(row):
    """``row``, or the FinslerError it holds, raised without the frames of
    an earlier raise, so that re-reading a failing row keeps none alive."""
    if isinstance(row, FinslerError):
        raise row.with_traceback(None)
    return row


def _checked(rows):
    """``rows``, once the first FinslerError among them, in row order, is
    raised as ``_raised`` raises it; the other rows are values or None."""
    for row in rows:
        _raised(row)
    return rows


class BatchFailed(Exception):
    """Some point of a batch left the domain of an operation.

    The batched evaluations (``exprlang.Tape.batch`` and ``Tape.jets``,
    ``FinslerMetric.batch_jet``) raise it; the caller then evaluates the
    batch point by point, so the first failing point raises its own error.
    """


class NonFinite(FinslerError, OverflowError):
    """A float evaluation overflowed.  It is an OverflowError as well, the
    error of the Python float operation that overflowed, and a
    FinslerError, so a run records the sample as skipped."""


class DegenerateValue(FinslerError):
    """A quantity that must stay away from zero fell below its floor
    (jet division, the spray denominators, the 2D curvature formula at v=0)."""


class DomainError(FinslerError):
    """Evaluation outside the domain of a function or metric
    (sqrt/ln of a nonpositive value, 1 + beta/alpha <= 0, B outside (0,1))."""


class SingularMetric(FinslerError):
    """The fundamental tensor is singular or not positive definite."""


class NotPositiveDefinite(FinslerError):
    """A Riemannian coefficient matrix a_ij(x) is not positive definite."""


class DegeneratePlane(FinslerError):
    """Flag curvature requested for a degenerate flag (u parallel to y)."""


class NotEinstein(FinslerError):
    """A formula that presupposes the Einstein structure equation was applied
    to data violating it beyond tolerance."""


class ExprError(FinslerError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression source; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprError):
    """Identifier is neither a coordinate x1..x8 nor a supported function."""


class ArityError(ExprError):
    """A function call with the wrong number of arguments."""


class ManifestError(FinslerError):
    """Invalid manifest; carries a JSON-pointer path to the offending field."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer else message)
        self.pointer = pointer
