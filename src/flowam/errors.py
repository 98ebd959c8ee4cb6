"""Exception types shared across the library."""

from dataclasses import fields

import numpy as np


class FlowError(Exception):
    """Base class for all library errors."""


class DomainError(FlowError):
    """Argument outside its mathematical domain."""


class SingularityError(FlowError):
    """A schedule coefficient vanished where it divides."""


class ShapeError(FlowError):
    """Array dimensions do not match the operation's contract."""

    @classmethod
    def rows(cls, x, dim: int) -> np.ndarray:
        """``x`` as float64 (m, dim) rows; any other shape raises this error."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != dim:
            raise cls(f"states of shape {x.shape} are not (m, {dim})")
        return x


class NonFiniteError(FlowError):
    """NaN or Inf encountered where finite values are required."""


class ConfigError(FlowError):
    """Inconsistent or unsupported configuration."""


class ParseError(FlowError):
    """Config file could not be parsed."""


class ValidationError(ConfigError):
    """One or more config constraints violated.

    ``violations`` lists every violated constraint, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    @classmethod
    def check(cls, violations) -> None:
        """Raise one error listing ``violations`` unless it is empty."""
        if violations:
            raise cls(violations)

    @staticmethod
    def wrong_types(obj) -> list:
        """A violation for each field of the dataclass ``obj`` whose value
        does not fit its annotation (``_FITS``); a bool is no number."""
        return [f"{f.name} must be {_FITS[f.type][0]}, got {getattr(obj, f.name)!r}"
                for f in fields(obj) if not _FITS[f.type][1](getattr(obj, f.name))]


_FITS = {  # annotation -> (what a value must be, the test of a value)
    "int": ("an integer", lambda x: type(x) is int),
    "float": ("a number", lambda x: isinstance(x, (int, float)) and type(x) is not bool),
    "str": ("a string", lambda x: isinstance(x, str)),
    "tuple": ("a tuple of integers",
              lambda x: type(x) is tuple and all(type(e) is int for e in x)),
}


class TooFewSamples(FlowError):
    """Metric requires more samples than were provided."""


class EmptyInput(FlowError):
    """Empty sample set passed to a metric."""
