"""Exception hierarchy for the boxsums package.

Every error that refuses an input is also a ValueError, the one base the CLI maps
to exit 2; RoundingUnstableError and VerifyNotGreenError report a failed run."""


class BoxsumsError(Exception):
    """Base class for all boxsums errors."""


class NotPrimeError(BoxsumsError, ValueError):
    """The given modulus is not prime."""


class TooLargeError(BoxsumsError, ValueError):
    """The modulus exceeds the supported range."""


class ZeroToNegativePowerError(BoxsumsError, ValueError):
    """Attempted to raise 0 to a negative power mod p."""


class DimensionTooSmallError(BoxsumsError, ValueError):
    """The operation needs at least two coordinates."""


class PrincipalCharacterError(BoxsumsError, ValueError):
    """The operation requires a nonprincipal multiplicative character."""


class LambdaDivisibleError(BoxsumsError, ValueError):
    """The shift parameter must be coprime to p."""


class UnsupportedDimensionError(BoxsumsError, ValueError):
    """No bound formula is available for this dimension."""


class OutOfRangeError(BoxsumsError, ValueError):
    """The side length falls below the smallest range covered by the bound."""


class MomentOrderTooSmallError(BoxsumsError, ValueError):
    """The moment order is below the smallest supported value."""


class RoundingUnstableError(BoxsumsError):
    """A floating-point count did not round cleanly to an integer."""


class ConfigInvalidError(BoxsumsError, ValueError):
    """An experiment configuration is malformed."""


class VerifyNotGreenError(BoxsumsError):
    """Calibration was requested while the verification suite is failing."""
