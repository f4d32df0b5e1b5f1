"""Exception types shared across the package.

Every domain error carries a stable ``code`` string so the command line
front end can emit machine-parsable one-line errors.
"""


class DominantKError(Exception):
    code = "error"


class MalformedFileError(DominantKError):
    """Matrix file does not conform to the documented text format."""

    code = "malformed-file"


class NotAGCMError(DominantKError):
    """Integer matrix violates one of the generalized-Cartan axioms."""

    code = "not-a-gcm"


class ResourceExceededError(DominantKError):
    """A group/complex enumeration grew past its configured element cap."""

    code = "resource-exceeded"


class NotFiniteTypeError(DominantKError):
    code = "not-finite-type"


class NotDominantError(DominantKError):
    code = "not-dominant"


class NotAffineError(DominantKError):
    code = "not-affine"


class NotMinimalError(DominantKError):
    """Element fails the minimal coset-representative precondition."""

    code = "not-minimal"


class WrongTypeError(DominantKError):
    """Operation applied to a matrix outside its declared type class."""

    code = "wrong-type"


class HypothesisViolatedError(DominantKError):
    """Structural hypothesis of a closed-form report does not hold."""

    code = "hypothesis-violated"


class ConeReductionFailedError(DominantKError):
    code = "cone-reduction-failed"


class FunctorialityError(DominantKError):
    """Transition maps of a poset functor fail to commute."""

    code = "functoriality-violation"


class DivisionRemainderError(DominantKError):
    """Internal consistency failure: exact character division left a remainder.

    Divisibility is guaranteed by the character identities, so this is a bug
    assertion rather than an expected runtime condition.
    """

    code = "division-remainder"
