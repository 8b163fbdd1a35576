"""Exception types shared across the simulator and trainer."""


class SaginError(Exception):
    """Base class for all package errors."""


class ConfigSyntax(SaginError):
    """Raised when a config document cannot be parsed."""


class ConfigInvalid(SaginError):
    """Raised when a parsed config violates a validation rule.

    Carries the offending field name so callers can report it.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__("%s: %s" % (field, message))


class EventLogInvalid(SaginError):
    """Raised when an events.jsonl log cannot be read back: it cannot be
    opened, is empty, has a foreign schema, an undecodable line or a line
    that is not a slot record, or holds no slot records.

    Carries the log path so callers can report it.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__("%s: %s" % (path, message))


class CheckpointInvalid(SaginError):
    """Raised when a checkpoint cannot be used: it cannot be read, has a
    foreign format, or lacks the linear betas or a network of the widths
    and the dtype that the agent for the scenario builds.

    Carries the checkpoint path so callers can report it.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__("%s: %s" % (path, message))


class CodecShape(SaginError):
    """Raw action vector has the wrong length or non-finite entries."""


class EpisodeFinished(SaginError):
    """step() called after the horizon was reached without a reset."""


class SamplerDiverged(SaginError):
    """Non-finite values appeared during reverse diffusion sampling."""


class NonFiniteGradient(SaginError):
    """An optimizer step saw a NaN/Inf gradient or loss."""
