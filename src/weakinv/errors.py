"""Exception types shared across the package.

Each survives pickling, which is how a forked flow reports its error.
"""


class ScheduleDomainError(ValueError):
    """A tabulated schedule was queried outside its time range."""


class ModelValidationError(ValueError):
    """A Lindblad model violates its constraints (non-Hermitian H, negative rate)."""


class NotHermitianError(ValueError):
    """An operator required to be Hermitian is not, within tolerance."""


class ConfigError(ValueError):
    """Malformed run configuration; ``field`` names the offending entry."""

    def __init__(self, field, message):
        super().__init__(f"{field} {message}" if field else message)
        self.field = field

    def __reduce__(self):  # the message already holds the field
        return type(self), (None, str(self)), self.__dict__


class IntegrationError(RuntimeError):
    """A failed numerical check (exit 2): a non-finite node of a flow, a
    forked child that ended without a result, or an imaginary part beyond
    roundoff in a value that must be real. ``step`` is the node, if any."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step

    def __reduce__(self):
        return type(self), (str(self), self.step)


class ImaginaryPartError(IntegrationError, ValueError):
    """An imaginary part beyond roundoff in a value that must be real."""


class BlowupError(IntegrationError):
    """Trajectory magnitude exceeded the hard cap, on either flow.

    Dissipative adjoint flow grows exponentially, and an explicit step far
    outside its stability region makes the state grow too; growth is
    legitimate but overflow must be loud rather than silent.
    """

    def __init__(self, message, step, magnitude):
        super().__init__(message, step)
        self.magnitude = magnitude

    def __reduce__(self):
        return type(self), (str(self), self.step, self.magnitude)
