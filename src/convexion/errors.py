"""Exception types raised across the toolkit.

Every error that corresponds to a violated operation contract has its own
class so callers can catch precisely.  All inherit from ConvexionError.
"""


class ConvexionError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ConvexionError):
    """Malformed input (JSON schema violation, bad rational string, ...)."""


class SemiringMismatch(ConvexionError):
    """Operands live over different semirings, or an unsupported one."""


class NotNormalized(ConvexionError):
    """Weights of a distribution do not sum to one."""


class UndefinedOnSupport(ConvexionError):
    """A pushforward map is undefined on a support element."""


class NotConvexVector(ConvexionError):
    """Coefficient vector does not sum to one (or lengths mismatch)."""


class PresentationMismatch(ConvexionError):
    """Elements of different presentations were combined."""


class RelationViolated(ConvexionError):
    """A generator assignment maps some relation pair to distinct elements."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class SignatureMismatch(ConvexionError):
    """Maps with different sources or targets were combined."""


class MissingPart(ConvexionError):
    """A join triple lacks a factor part that its weight requires."""


class TargetMismatch(ConvexionError):
    """Copaired maps must share a target."""


class EmptyFactorList(ConvexionError):
    """Tensor products need at least one factor."""


class FactorMismatch(ConvexionError):
    """An element does not belong to the expected tensor factor."""


class ArityMismatch(ConvexionError):
    """Operadic arity does not match the number of arguments."""


class DimensionMismatch(ConvexionError):
    """Matrix dimensions are incompatible."""


class SizeMismatch(ConvexionError):
    """Permutation size does not match a matrix dimension."""


class NotConvexMatrix(ConvexionError):
    """A row-sums-one matrix was required."""


class NotAFunctor(ConvexionError):
    """Functoriality validation failed (or was undecidable)."""


class NotAFibration(ConvexionError):
    """The projection is not a discrete fibration."""


class NotConvexStructureMap(ConvexionError):
    """A structure map is not a convex map out of the tensor."""


class CoherenceFailure(ConvexionError):
    """Symmetric-monoidal coherence data failed validation."""


class CompositionNotBiconvex(ConvexionError):
    """An enriched composition table is not biconvex on the quotients."""


class NotMeasurePreserving(ConvexionError):
    """A map between probability objects fails the pushforward equation."""


class InvalidTwist(ConvexionError):
    """A twisting function violates the twisting identities."""


class BaseMismatch(ConvexionError):
    """Bundles over different bases (or groups) were combined."""


class InvalidInput(ConvexionError):
    """Input failed a structural precondition (an empty generator set, a
    negative step bound, malformed simplicial or probability data)."""
