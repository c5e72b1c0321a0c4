"""Exception types raised by the library."""


class DiscordantError(ValueError):
    """Base class for all validation and contract errors."""


class NonHermitian(DiscordantError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositiveSemidefinite(DiscordantError):
    """Matrix has an eigenvalue below the negativity floor."""


class DimensionMismatch(DiscordantError):
    """Operand shapes are incompatible with the declared dimensions."""


class NotDensityMatrix(DiscordantError):
    """Matrix fails the density-matrix invariants (trace, positivity)."""


class InvalidParameters(DiscordantError):
    """Constructor parameters produce an invalid object."""


class BadWeights(DiscordantError):
    """Weight vector/matrix is malformed or not a distribution."""


class NonOrthogonalBasis(DiscordantError):
    """Supplied vectors are not orthonormal within tolerance."""


class BadRank(DiscordantError):
    """Requested rank is outside the admissible range."""


class BadParameterCount(DiscordantError):
    """Measurement parameter vector has the wrong length."""


class IncompleteBasis(DiscordantError):
    """Projector family does not resolve the identity."""


class DocumentError(DiscordantError):
    """State document is malformed (schema-level parse failure)."""
