"""Exception types shared across the library and CLI."""


class ProxylineError(Exception):
    """Base class for all library errors."""


class EmptyElectorateError(ProxylineError):
    """Raised when a median is requested over an empty electorate."""


class ConfigurationError(ProxylineError):
    """Raised on invalid policy/space combinations or bad engine settings;
    ``field`` names the policy field at fault, when one is."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class ScenarioValidationError(ProxylineError):
    """Raised when a scenario file or scenario object fails validation.

    Carries a dotted field path so CLI diagnostics can point at the
    offending entry.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class InconsistentObservationError(ProxylineError):
    """Raised when polls admit no follower profile: a median-interval update
    produces an empty interval, or no hidden median reproduces a poll."""
