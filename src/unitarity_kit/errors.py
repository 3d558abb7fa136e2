"""Exception types shared across the toolkit."""


class UnitarityKitError(Exception):
    """Base class for all toolkit errors."""


class NoConvergence(UnitarityKitError):
    """An iterative eigen/singular solver exceeded its iteration bound."""


class ShapeMismatch(UnitarityKitError):
    """Matrix dimensions are inconsistent with the declared bipartite shape."""


class InvalidDensityMatrix(UnitarityKitError):
    """Not Hermitian / positive semidefinite / unit trace within tolerance."""


class InvalidPureState(UnitarityKitError):
    """Vector is not normalized within tolerance."""


class ZeroVector(UnitarityKitError):
    """Operation undefined on the zero vector."""


class ParamOutOfRange(UnitarityKitError, ValueError):
    """Scalar parameter outside its admissible range."""


class RankDeficient(UnitarityKitError):
    """An operator that must be invertible is numerically singular."""


class NoRoot(UnitarityKitError):
    """Root bracketing failed (cannot happen for the built-in ratio function)."""


class ParseError(UnitarityKitError):
    """Input file is not a well-formed map/state file."""
