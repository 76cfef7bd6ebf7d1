"""Exception types shared across the package, and the finiteness check
every config dataclass runs first."""

import math
from dataclasses import fields


class ConfigError(ValueError):
    """An illegal configuration value (bad alpha, malformed config file, ...)."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries a diagnostic message."""


def require_finite(config):
    """Raise ConfigError for the first float field of a config dataclass that
    is NaN or infinite; NaN slips past every ``x < bound`` check."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type is float and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
