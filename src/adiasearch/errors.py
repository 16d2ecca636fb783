"""Exception types shared across the package."""


class AdiabaticSearchError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(AdiabaticSearchError):
    """A constructor or command received an out-of-range or inconsistent argument."""


class DegeneratePoint(AdiabaticSearchError):
    """Both couplings vanish, so eigenvectors and the mixing angle are undefined."""


class OracleSizeExceeded(AdiabaticSearchError):
    """A full-space propagation was requested above the fixed size cap."""


class NonUnit(AdiabaticSearchError):
    """A state norm drifted beyond the allowed tolerance."""


class ExactDegenerateN(AdiabaticSearchError):
    """The requested construction has a vanishing denominator at n = 2."""
