"""Exception taxonomy shared across the package.

Everything raised on bad input data or bad configuration derives from
NerpruneError so the CLI can map it to a single exit code. Programming
errors (wrong types passed by library callers) stay plain ValueError or
TypeError and are not caught.
"""

from __future__ import annotations


class NerpruneError(Exception):
    """Base class for all data and configuration errors."""


class ParseError(NerpruneError):
    """Malformed corpus input, message carries file name and line number."""


class TagError(ParseError):
    """A tag string outside the supported tagset."""


class MetadataError(NerpruneError):
    """Malformed language metadata table."""


class MissingMetadataError(MetadataError):
    """Language codes referenced but absent from the metadata table."""

    def __init__(self, codes):
        self.codes = tuple(sorted(set(codes)))
        super().__init__(f"no metadata for language(s): {', '.join(self.codes)}")


class AlignmentError(NerpruneError):
    """Predictions do not line up with the gold corpus."""


class PruningError(NerpruneError):
    """Invalid pruning request, e.g. no prunable weights."""


class MonotonicityError(PruningError):
    """Requested sparsity below the already achieved sparsity."""


class ScheduleError(NerpruneError):
    """Invalid pruning schedule."""


class EmptyGroupError(NerpruneError):
    """A perturbation scope group matched no corpora."""


class ConfigError(NerpruneError):
    """Invalid run or experiment configuration."""


class DivergenceError(NerpruneError):
    """Training produced a non-finite loss or a NaN masked weight."""


class CheckpointError(NerpruneError):
    """Unreadable or inconsistent checkpoint directory."""
