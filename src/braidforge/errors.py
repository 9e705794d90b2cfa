"""Exception types shared across the package."""


class BraidforgeError(Exception):
    """Base class for all errors raised by braidforge."""


class ParseError(BraidforgeError):
    """Malformed textual input (braid word, matrix, polynomial, parameter)."""


class IndexOutOfRange(BraidforgeError):
    """Generator or strand index outside the valid range."""


class DimensionMismatch(BraidforgeError):
    """Matrix or tensor shapes are incompatible."""


class NonUnitDeterminant(BraidforgeError):
    """Matrix determinant is not a unit of its ring, so no inverse exists."""


class SingularInput(BraidforgeError):
    """A construction received a non-invertible matrix where a unit was required."""


class MissingSlot(BraidforgeError):
    """A relation-set check was given an assignment missing a named operator."""


class NotDestabilizable(BraidforgeError):
    """The braid word does not end (or begin) with a lone top-generator letter."""


class NotNilpotent(BraidforgeError):
    """A mutually annihilating pair must consist of nilpotent operators."""


class InvalidSpec(BraidforgeError):
    """A spec or parameter violates its positivity or nonzero conditions."""


class PeriodicSpec(BraidforgeError):
    """A type-II pair spec repeats with a proper period."""


class InvalidPolynomial(BraidforgeError):
    """The companion polynomial for a type-II pair has zero trailing coefficient."""


class RelationViolated(BraidforgeError):
    """A label scheme fails the compatibility relation a_i b_i = b_{i+1} a_{i+1}."""


class TraceConditionFailed(BraidforgeError):
    """The trace functional does not scale as required by the chosen element u."""


class NotScalar(BraidforgeError):
    """A partial-trace matrix is not a scalar multiple of the identity."""


class ZeroScalar(BraidforgeError):
    """A partial-trace scalar vanished; the trace normalization is undefined."""


class NoMatrixPair(BraidforgeError):
    """A route that needs a tensor built from a matrix pair got a tensor without one."""


class NoExactRoot(BraidforgeError):
    """A required square root does not exist exactly in the ring."""


class SimplicityUnverified(BraidforgeError):
    """The bracket invariant was requested for a representation that fails
    (or has not passed) the bounded simplicity check."""
