"""Exception types shared across the package, and the one check each of its
integer arguments and its momenta."""

import math


class HermgridError(Exception):
    """Base class for all package-specific errors."""


class OrderTooLargeError(HermgridError, ValueError):
    """Raised when a raw Hermite polynomial order exceeds the stable range."""


class BoxTooSmallError(HermgridError, ValueError):
    """Raised when a difference operator would leave an empty valid region."""


class DomainError(HermgridError, ValueError):
    """Raised when an argument lies outside an operation's mathematical domain."""


class NonconvergenceError(HermgridError, RuntimeError):
    """Raised when two refinement levels of a quadrature disagree beyond tolerance."""


class TruncationWarning(UserWarning):
    """Emitted when a truncated mode sum drops terms above the configured tolerance."""


def whole(value, what: str, least: int = 0) -> int:
    """value as an int of at least least, for an order, an index component,
    a cutoff or an extent; ValueError naming what for anything else, a
    fraction, an infinity and NaN included."""
    if type(value) is int and value >= least:
        return value
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or number < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return number


def momentum(p) -> tuple[float, float, float]:
    """p as three finite floats, for a momentum or a mode's wave vector;
    DomainError for any other length, an infinity and NaN."""
    t = tuple(map(float, p))
    if len(t) != 3 or not all(map(math.isfinite, t)):
        raise DomainError(f"a momentum needs three finite components, got {p!r}")
    return t
