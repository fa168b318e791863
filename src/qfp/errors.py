"""Exception types shared across the package."""


class QfpError(Exception):
    """Base class for all package errors."""


class DimensionError(QfpError, ValueError):
    """A vector, code word or message has the wrong length."""


class NormalizationError(QfpError, ValueError):
    """State amplitudes do not carry a single particle (norm != 1)."""


class DomainError(QfpError, ValueError):
    """A numeric parameter lies outside its documented domain."""


class ResourceLimitError(QfpError, RuntimeError):
    """A request exceeds a work or memory cap, checked before the work."""


class CodeFormatError(QfpError, ValueError):
    """A code file could not be parsed."""


class ConfigError(QfpError, ValueError):
    """A CLI config file is malformed or contains unknown keys."""
