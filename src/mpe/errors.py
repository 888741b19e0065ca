"""Exception types shared across the pipeline, mapped to CLI exit codes."""


class MpeError(Exception):
    """Base class for errors raised by this package."""

    exit_code = 1


class ConfigError(MpeError):
    """Bad configuration: invalid config file, missing source data, bad flag."""

    exit_code = 2


class PreconditionError(MpeError):
    """A stage was invoked before the stage that produces its inputs."""

    exit_code = 3

    def __init__(self, message, required_stage=None):
        super().__init__(message)
        self.required_stage = required_stage


class BackendError(MpeError):
    """Base for chat-backend failures."""

    exit_code = 4


class TransportError(BackendError):
    """Network-level failure that persisted through all retries."""


class ProtocolError(BackendError):
    """Terminal non-2xx HTTP status or an unintelligible response body."""

    def __init__(self, message, status=None, body=None):
        super().__init__(message)
        self.status = status
        self.body = body


class MissingScriptError(BackendError):
    """The scripted mock has no reply registered for a request."""


class FallbackBudgetError(MpeError):
    """Parse-fallback rate exceeded the configured budget."""

    exit_code = 5


class SchemaError(ConfigError):
    """Input file is missing required columns or is structurally invalid."""


class CatalogError(ConfigError):
    """Event catalog document is malformed or contains an invalid record."""


class MalformedReplyError(MpeError):
    """An LLM reply could not be parsed into the expected tagged form."""

    def __init__(self, message, raw=""):
        super().__init__(message)
        self.raw = raw


class StageError(MpeError):
    """A pipeline stage failed while running."""
