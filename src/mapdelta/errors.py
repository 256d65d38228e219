"""Exception hierarchy shared across the package."""


class MapDeltaError(Exception):
    """Base class for every error raised by this package."""


class MapValidationError(MapDeltaError):
    """A flag pairing triple fails one of the map axioms."""


class NotInvolution(MapValidationError):
    pass


class FixedPoint(MapValidationError):
    pass


class RedGreenParallel(MapValidationError):
    pass


class BadQuadrilateral(MapValidationError):
    pass


class Disconnected(MapValidationError):
    pass


class GroundSetTooLarge(MapDeltaError):
    """Refusing to enumerate 2^m selections for too large m."""


class EmptyFamily(MapDeltaError):
    pass


class NotDeltaMatroid(MapDeltaError):
    """Upper/lower extraction requested on a family failing symmetric exchange."""


class DisconnectedGraph(MapDeltaError):
    pass


class ReconstructionError(MapDeltaError):
    """Base class for failures while rebuilding a map from graph + dual."""


class AmbiguousCorners(ReconstructionError):
    """The corner graph at some vertex is not a single cycle."""


class AmbiguousGluing(ReconstructionError):
    """Some corner face is not forced, or an edge borders one face on both
    sides, so the edge's sign is not forced."""


class LabelMismatch(ReconstructionError):
    pass


class ValidationFailed(ReconstructionError):
    """A rebuilt flag graph did not pass map validation."""


class FormatError(MapDeltaError):
    """Bad MAP / GRAPH / FAMILY file, with a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
