"""Exception types shared across the package."""


class CurvlabError(Exception):
    """Base class for all curvlab errors."""


class NonConvergent(CurvlabError):
    """A refinement budget was exhausted before the tolerance was met."""


class DomainEdge(CurvlabError):
    """An evaluation point left the valid domain."""


class NoBracket(CurvlabError):
    """Root finding was called on an interval without a sign change."""


class WrongKind(CurvlabError):
    """Operation applied to a solution of the wrong kind (boundary vs boundaryless)."""


class OutOfRange(CurvlabError):
    """Level parameter or radius outside the admissible range."""


class GridTooCoarse(CurvlabError):
    """Verification grid has too few points (need at least 8)."""


class ProfileDataError(CurvlabError):
    """Invalid profile construction data (CSV contents or constructor arguments)."""


class ReportStoreError(CurvlabError):
    """Report persistence failure: IO error, corruption, or bad format."""
