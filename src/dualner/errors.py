"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: data problems (anything under
``DataError``) exit 2, training failures exit 3, plain argument misuse
(``ValueError``) exits 1.
"""

from __future__ import annotations


class DualnerError(Exception):
    """Base class for toolkit-specific errors."""


class DataError(DualnerError):
    """A problem with input data, either its encoding or its content."""


class FormatError(DataError):
    """Unparseable on-disk data. Carries the offending location when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:" if line is None else f"{path}:{line}:"
        elif line is not None:
            loc = f"line {line}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.path = path
        self.line = line


class ValidationError(DataError):
    """Parseable data that violates a corpus or annotation invariant."""


class UnusableDataError(DataError, ValueError):
    """Well-formed input the operation cannot use (a vocabulary of the wrong
    size, a corpus with no sentences); also a ``ValueError`` for library callers."""


class SentenceTooLongError(UnusableDataError):
    """A sentence has more sub-tokens than the encoder has positions."""


class ContractViolationError(DataError):
    """An operation received input that violates its documented precondition."""


class TrainingError(DualnerError):
    """A training run failed (divergence, impossible schedule, ...)."""


class ProtocolError(TrainingError):
    """Runs of a method x seed grid failed; ``failures`` holds ``(method, seed, cause)``."""

    def __init__(self, message: str, failures: list[tuple[str, int, str]] | None = None):
        super().__init__(message)
        self.failures = failures or []
