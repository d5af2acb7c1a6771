"""Exception types shared across the package.

Every domain failure raises a subclass of :class:`DmussError` so callers
(and the CLI) can separate "the maths said no" from genuine bugs.
"""


class DmussError(Exception):
    """Base class for all domain-level failures."""


class NotPrimeError(DmussError):
    """Field modulus is not a prime number."""


class ZeroElementError(DmussError):
    """Zero was passed where a nonzero field element is required."""


class BadShapeError(DmussError):
    """Matrix dimensions are invalid for the requested construction."""


class ShapeMismatchError(DmussError):
    """Operand dimensions do not line up."""


class BadSymbolError(DmussError):
    """A message, pad or share value is not an element of GF(p): an int
    (not a bool) in [0, p)."""


class SingularMatrixError(DmussError):
    """A square system has no unique solution."""


class SingleUserError(DmussError):
    """An operation needs at least two users to be meaningful."""


class TooManyUsersError(DmussError):
    """User count exceeds the supported exponential-enumeration bound."""


class TooLargeError(DmussError):
    """Requested exhaustive computation exceeds the hard size cap."""


class NotInRegionError(DmussError):
    """Rate tuple violates the capacity region of the access structure."""


class NoSdrError(DmussError):
    """No system of distinct representatives exists.

    Carries a witness: a set of clones whose joint neighbourhood is
    smaller than the set itself.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class FieldTooSmallError(DmussError):
    """The field cannot supply enough distinct evaluation points."""


class PlanningFailedError(DmussError):
    """Constructive planning exhausted its search without a valid plan."""


class IncompatiblePlansError(DmussError):
    """Two plans cannot be mixed (different field or access structure)."""
