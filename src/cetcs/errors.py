"""Exception types shared across the package.

Errors that have a mathematical witness carry it as structured data so a
caller (or a report) can re-check the offending instance instead of parsing
a message string.
"""

from __future__ import annotations


class CetcsError(Exception):
    """Base class for all package-specific errors."""


class CompositionError(CetcsError):
    """Raised when two morphisms do not compose or faces do not match."""


class ShapeError(CetcsError):
    """Raised when a diagram is malformed (not parallel, wrong feet, ...)."""


class JointMonicityError(CetcsError):
    """A tuple of legs failed to be jointly monic.

    ``witness`` holds a pair of distinct domain labels with identical images
    under every leg.
    """

    def __init__(self, message: str, witness: tuple[str, str]):
        super().__init__(message)
        self.witness = witness


class EquivalenceError(CetcsError):
    """A binary relation failed reflexivity, symmetry or transitivity.

    ``reason`` is one of ``"reflexive"``, ``"symmetric"``, ``"transitive"``;
    ``witness`` is the offending label tuple.
    """

    def __init__(self, message: str, reason: str, witness: tuple[str, ...]):
        super().__init__(message)
        self.reason = reason
        self.witness = witness


class FormulaError(CetcsError):
    """Syntax or typing problem in a formula; ``pos`` is a 0-based offset."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)
        self.pos = pos


class ModelFileError(CetcsError):
    """Problem while reading a model file; ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ReportError(CetcsError):
    """A saved report stream is not valid JSON or does not match the schema."""
