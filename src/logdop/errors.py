"""Exception types shared across the package."""


class InvariantViolation(RuntimeError):
    """A self-check failed: a bug witness, never a legitimate runtime outcome.
    Every check raises this one type; the message names what failed."""


class CacheWriteError(OSError):
    """A --cache directory refused a new entry; the message names the entry."""


class SectionFormatError(ValueError):
    """A section/operator file failed to parse; a JSON syntax error's message
    gives its line and column."""


class NonvanishingLocalData(ValueError):
    """A section handed to a lift has nonzero degree-d local data.

    ``data`` is that LocalDataVector, so a caller can report every nonzero
    coordinate without computing it again.
    """

    def __init__(self, message, data):
        super().__init__(message)
        self.data = data
