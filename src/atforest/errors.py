"""Exception types shared across the package."""


class ArtifactError(Exception):
    """Base class for all package-specific errors."""


class DuplicateEdge(ArtifactError):
    pass


class UnknownVertex(ArtifactError):
    pass


class RotationMismatch(ArtifactError):
    pass


class EulerViolation(ArtifactError):
    """Face trace inconsistent with a planar embedding."""


class NotNearTriangulation(ArtifactError):
    pass


class HandleNotOnBoundary(ArtifactError):
    pass


class InvalidEmbedding(ArtifactError):
    pass


class CapExceeded(ArtifactError):
    """An enumeration exceeded its size cap."""


class DegreeMismatch(ArtifactError):
    pass


class BadSelector(ArtifactError):
    pass


class BadParameters(ArtifactError):
    pass


class PreconditionViolated(ArtifactError):
    pass
