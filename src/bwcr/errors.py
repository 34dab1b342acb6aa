"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A config document or algorithm configuration is invalid."""


class GenerationError(RuntimeError):
    """Instance generation failed (e.g. feasibility rejection exhausted)."""


class UnsupportedError(RuntimeError):
    """The requested operation is not available for this representation."""


class SolverLimitError(RuntimeError):
    """A solver hit its iteration cap before reaching a verdict."""
