"""Exception types shared across the library."""


class FlowError(Exception):
    """Base class for all library errors."""


class DomainError(FlowError):
    """Argument outside its mathematical domain."""


class SingularityError(FlowError):
    """A schedule coefficient vanished where it divides."""


class ShapeError(FlowError):
    """Array dimensions do not match the operation's contract."""


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
    def non_integers(obj, names) -> list:
        """A violation for each field of ``obj`` in ``names`` whose value is
        not an int; a bool or a float is not one."""
        return [f"{n} must be an integer, got {getattr(obj, n)!r}"
                for n in names if type(getattr(obj, n)) is not int]


class TooFewSamples(FlowError):
    """Metric requires more samples than were provided."""


class EmptyInput(FlowError):
    """Empty sample set passed to a metric."""
