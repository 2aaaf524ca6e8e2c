"""Exception hierarchy for the boxsums package."""


class BoxsumsError(Exception):
    """Base class for all boxsums errors."""


class NotPrimeError(BoxsumsError):
    """The given modulus is not prime."""


class TooLargeError(BoxsumsError):
    """The modulus exceeds the supported range."""


class ZeroToNegativePowerError(BoxsumsError):
    """Attempted to raise 0 to a negative power mod p."""


class DimensionTooSmallError(BoxsumsError):
    """The operation needs at least two coordinates."""


class PrincipalCharacterError(BoxsumsError):
    """The operation requires a nonprincipal multiplicative character."""


class LambdaDivisibleError(BoxsumsError):
    """The shift parameter must be coprime to p."""


class UnsupportedDimensionError(BoxsumsError):
    """No bound formula is available for this dimension."""


class OutOfRangeError(BoxsumsError):
    """The side length falls below the smallest range covered by the bound."""


class MomentOrderTooSmallError(BoxsumsError):
    """The moment order is below the smallest supported value."""


class RoundingUnstableError(BoxsumsError):
    """A floating-point count did not round cleanly to an integer."""


class ConfigInvalidError(BoxsumsError):
    """An experiment configuration is malformed."""


class VerifyNotGreenError(BoxsumsError):
    """Calibration was requested while the verification suite is failing."""
