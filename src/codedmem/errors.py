"""Exception types shared across the package."""


class CodedMemError(Exception):
    """Base class for all package errors."""


class InvalidParams(CodedMemError):
    """Constructor arguments violate a documented precondition."""


class LengthMismatch(CodedMemError):
    """Splits or pages have inconsistent byte lengths."""


class InsufficientSplits(CodedMemError):
    """Fewer splits supplied than the operation's threshold requires."""


class UncorrectableCorruption(CodedMemError):
    """Corruption exceeds the correction capacity of the supplied splits."""


class CapacityExhausted(CodedMemError):
    """No eligible machine has a free slab for the requested mapping."""


class UnrecoverableRead(CodedMemError):
    """Fewer than k healthy splits remain for an address range."""


class ConfigError(CodedMemError):
    """Experiment configuration is malformed or fails validation."""


class MonotonicityViolation(CodedMemError):
    """An analysis sweep produced a row that breaks a required ordering."""
