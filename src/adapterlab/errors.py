"""Exception types shared across the package, and the count and fraction checks that raise them."""

from numbers import Real


class AdapterLabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AdapterLabError):
    """Tensor shapes do not conform for the requested operation."""


class SequenceLengthError(AdapterLabError):
    """An input sequence exceeds the configured maximum length."""


class ConfigError(AdapterLabError):
    """Invalid or inconsistent configuration (CLI exit code 1)."""


class ContractError(AdapterLabError):
    """A caller violated an operation's precondition."""


class VocabError(ContractError):
    """An id outside the table or class range it indexes: a token id, or a class label."""


class NumericError(AdapterLabError):
    """Non-finite values where finite ones are required (CLI exit code 2)."""


class MissingArtifactError(AdapterLabError):
    """A required checkpoint or adapter file is absent (CLI exit code 3)."""


class SwapError(AdapterLabError):
    """Replacement adapter weights do not match the stack's slot shapes."""


class EmptyLossError(AdapterLabError):
    """A loss was requested over zero labeled positions."""


def require_int(name: str, value, least: int, error: type = ConfigError) -> int:
    """``value`` if it is an int of at least ``least``, else ``error`` naming ``name``.

    A bool, a float or a string is refused even when it reads as an integer.
    """
    if type(value) is not int or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def require_fraction(name: str, value, below_one: bool = False) -> float:
    """``value`` if it is a real number in [0, 1], or [0, 1) if ``below_one``, else ``ConfigError``.

    A bool is refused although it is an int, and so is NaN, which lies in no interval.
    """
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not (0 <= value < 1 if below_one else 0 <= value <= 1)):
        raise ConfigError(f"{name} must be a real number in [0, 1{')' if below_one else ']'}, "
                          f"got {value!r}")
    return value
