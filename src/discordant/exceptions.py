"""Exception types raised by the library.

Two concrete kinds, one per CLI exit code: DocumentError (exit 2) for a
malformed document, InvalidParameters (exit 3) for every other rejected
input. The message names the check that failed.
"""


class DiscordantError(ValueError):
    """Base class for all validation and contract errors."""


class InvalidParameters(DiscordantError):
    """An input (matrix, state, basis, weights, dims, rank, parameter) fails a check."""


class DocumentError(DiscordantError):
    """State document is malformed (schema-level parse failure)."""
