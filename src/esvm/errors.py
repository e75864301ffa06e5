"""Exception taxonomy shared across the package."""


class EsvmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EsvmError):
    """A configuration file or experiment description is invalid."""


class NumericError(EsvmError):
    """A numeric computation produced non-finite or otherwise unusable values."""


class StageError(EsvmError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # args holds the message, not the constructor's arguments
        return type(self), (self.stage, self.cause)
