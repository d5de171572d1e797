"""Error taxonomy and the number checks every config reader shares."""


class CapacityError(RuntimeError):
    """Raised when an exact enumeration would exceed the configured cap."""


class DegenerateConditioningError(ValueError):
    """Raised when conditioning on an event of zero probability."""


class ConfigError(ValueError):
    """Raised when a run configuration is malformed."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative numerical routine fails to reach tolerance."""


def _real(value) -> float:
    """float(value) of a JSON number; a boolean or a string is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """int(value) of a JSON number with no fractional part; a boolean or a
    string is a TypeError, as in `_real`."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _only_keys(spec: dict, allowed: set, what: str) -> None:
    """ConfigError naming the keys of `spec` outside `allowed`: a key that
    no reader reads is a typo, not a setting."""
    stray = sorted(set(spec) - allowed)
    if stray:
        raise ConfigError(f"{what} takes no keys {stray}")
