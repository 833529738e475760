"""Exception types shared across the engines."""


class TruncationError(ValueError):
    """Raised when a state or operator loses more than the allowed tail mass
    to Fock-space truncation.

    ``suggested_dim``, when not None, is the smallest dimension that would
    keep the tail below the threshold.
    """

    def __init__(self, message, suggested_dim=None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


class EmptySelectionError(RuntimeError):
    """Raised when a post-selection window keeps zero samples; raise the
    threshold or the sample count."""
