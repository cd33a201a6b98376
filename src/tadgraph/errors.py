"""Exception types shared across the package, and the kind and range check of configs.

The CLI maps these onto exit codes: ``ConfigError`` exits 1, ``DataError`` and
``FormatError`` exit 2 and ``NumericError`` exits 3. ``ContractError`` is never
mapped, so its traceback means a caller bug.
"""

import json
import math
import numbers


class ConfigError(ValueError):
    """A configuration value violates a structural requirement."""


class ContractError(ValueError):
    """An argument violates an operation's contract, e.g. mismatched shapes or a bad axis."""


class DataError(ValueError):
    """Input data is inconsistent (e.g. annotation outside the video)."""


class FormatError(DataError):
    """A file does not match its declared on-disk format."""


class NumericError(RuntimeError):
    """A computation produced non-finite values."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def exact_cast(value, cast, field: str):
    """``cast(value)`` for ``cast`` ``int`` or ``float``, which must not change a
    number: a bool, or a real that ``int`` would cut, raises ``ValueError``. That
    error and any that ``cast`` raises become a ``ValueError`` led by ``field``."""
    try:
        parsed = cast(value)
        if isinstance(value, bool) or \
                (isinstance(value, float) and cast is int and parsed != value):
            raise ValueError(f"{json.dumps(value)} would be read as {parsed!r}")
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from exc
    return parsed


def exact_name(value, field: str) -> str:
    """``str(value)`` of a JSON string or number; null, a bool, a list or an object
    raises ``ValueError`` naming ``field``."""
    if value is None or isinstance(value, (bool, list, dict)):
        raise ValueError(f"{field}: {json.dumps(value)} is not a name")
    return str(value)


def check_lows(config, kind: str, lows: dict, above: tuple = ()) -> None:
    """Raise ``ConfigError`` naming the first field of ``config`` that is not of its
    low's kind (an integer for an integral low, else a real; never a bool), is not
    finite, or is below its low in ``lows`` (not above it, for a field in ``above``)."""
    for name, low in lows.items():
        value = getattr(config, name)
        integral = isinstance(low, numbers.Integral)
        wanted = numbers.Integral if integral else numbers.Real
        if isinstance(value, bool) or not isinstance(value, wanted):
            raise ConfigError(f"{kind} field '{name}' is {value!r}, "
                              f"must be {'an integer' if integral else 'a real number'}")
        if not (low < value if name in above else low <= value) or not value < math.inf:
            raise ConfigError(f"{kind} field '{name}' is {value}, must be finite and "
                              f"{'above' if name in above else 'at least'} {low}")
