"""Exception types shared across the package."""


class ConfigError(ValueError):
    """An illegal configuration value (bad alpha, malformed config file, ...)."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries a diagnostic message."""
