"""Exception types shared across the package, and its one byte budget."""

BYTE_CAP = 1 << 30          # bytes of arrays that one call may hold at once


class CantorLabError(Exception):
    """Base class for all package errors."""


class InvalidBase(CantorLabError):
    """Base descriptor violates a_j >= 2 or is otherwise malformed."""


class DigitOutOfRange(CantorLabError):
    """A digit delta_j outside 0 <= delta_j < a_j was supplied."""


class AlphabetMismatch(CantorLabError):
    """A digit map or chain does not cover the alphabet the base requires."""


class NoTailMeta(CantorLabError):
    """Certified tail bounds were requested from a map that has none."""


class ResourceLimit(CantorLabError):
    """A request exceeds BYTE_CAP or one of the work caps."""


def check_bytes(need, what: str) -> None:
    """Raise ResourceLimit when need bytes (an int, or a float that may be
    inf) exceed BYTE_CAP; call it before any of them is allocated."""
    if not need <= BYTE_CAP:
        size = f"{need:.3g}" if need < 1e300 else "more than 1e300"
        raise ResourceLimit(f"{what} needs {size} bytes, over the {BYTE_CAP}-byte cap")


class PointOutOfRange(CantorLabError):
    """A discrepancy input point lies outside the unit interval."""


class RangeTooSmall(CantorLabError):
    """Grid range clips more probability mass than the envelope ceiling."""


class MissingDensityBound(CantorLabError):
    """Regime B was requested without a sup-density bound rho_inf."""


class RegimeUnavailable(CantorLabError):
    """A regime's structural precondition (e.g. vanishing third cumulants) fails."""


class NotStochastic(CantorLabError):
    """Transition matrix rows do not sum to one (or have negative entries)."""


class NotPrimitive(CantorLabError):
    """Transition matrix is not primitive (some power has a zero entry)."""


class ConfigError(CantorLabError):
    """Experiment configuration is malformed; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class UnknownPreset(CantorLabError):
    """Requested preset name is not registered."""
