"""The package's two exception types, one per CLI exit code."""


class ArtifactError(Exception):
    """An input or parameter the package refuses (CLI exit 2)."""


class CapExceeded(ArtifactError):
    """An enumeration exceeded its size cap (CLI exit 3)."""
