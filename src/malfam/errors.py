"""Exception types shared across the package.

Everything raised on bad *input data* derives from MalfamError so the CLI can
map it to a single exit code; programming mistakes stay plain ValueError.
"""
from __future__ import annotations


class MalfamError(Exception):
    """Base class for data-level failures (CLI exit code 2)."""


class LabelError(MalfamError):
    """Malformed label CSV."""


class CorpusError(MalfamError):
    """Corpus layout or split problems."""


class ExtractionError(MalfamError):
    """A sample's files could not be read or digested."""


class NotAPeError(MalfamError):
    """Input bytes are not a PE image."""


class TruncatedPeError(MalfamError):
    """PE image ends before a structure it declares.

    Carries whatever section records were parsed before the cut.
    """

    def __init__(self, message: str, sections: tuple = ()):
        super().__init__(message)
        self.sections = tuple(sections)


class TrainingError(MalfamError):
    """Training or validation data unfit for fitting (single class, too few rows)."""


class ModelError(MalfamError):
    """Model file unreadable or bound to a different feature schema."""


class WorkerError(MalfamError):
    """A worker process of `fork_map` ended before it sent all of its results."""
