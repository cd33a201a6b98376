"""Exception types shared across the package, and the range check of config fields.

The CLI maps these onto exit codes: data/format problems exit with 2,
numeric failures with 3.
"""

import math


class ShapeError(ValueError):
    """Operands have incompatible shapes or an invalid axis."""


class ConfigError(ValueError):
    """A configuration value violates a structural requirement."""


class ContractError(ValueError):
    """An argument violates an operation's contract."""


class DataError(ValueError):
    """Input data is inconsistent (e.g. annotation outside the video)."""


class FormatError(DataError):
    """A file does not match its declared on-disk format."""


class NumericError(RuntimeError):
    """A computation produced non-finite values."""


def check_lows(config, kind: str, lows: dict) -> None:
    """Raise ``ConfigError`` naming the first field of ``config`` whose value is
    below its low in ``lows`` or is not finite."""
    for name, low in lows.items():
        value = getattr(config, name)
        if not low <= value < math.inf:
            raise ConfigError(f"{kind} field '{name}' is {value}, must be finite and at least {low}")
