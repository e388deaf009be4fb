"""curvlab: level-set curvature comparison laboratory.

Solves capacitary-potential and Green's-function problems on rotationally
symmetric 3-manifolds, evaluates the monotone level-set functionals, runs
the sharp area/volume/capacity comparison battery with Schwarzschild and
Euclidean equality oracles, and computes ADM mass by two independent
estimators.
"""

__version__ = "0.2.0"

from .errors import (
    CurvlabError,
    DomainEdge,
    GridTooCoarse,
    NoBracket,
    NonConvergent,
    OutOfRange,
    ProfileDataError,
    ReportStoreError,
    WrongKind,
)
from .functionals import FunctionalSeries, build_series, write_series_csv
from .mass import MassReport, adm_surface, mass_from_volume, mass_report
from .numerics import QuadratureResult, Tolerance, find_root, integrate
from .potential import (
    LevelSetSample,
    PotentialSolution,
    default_t_grid,
    levels,
    solve,
)
from .profile import (
    ConformalProfile,
    MetricProfile,
    ProfileKind,
    euclidean,
    euclidean_conformal,
    mollified_schwarzschild,
    perturbed_schwarzschild,
    profile_from_csv,
    scalar_curvature,
    schwarzschild,
    sphere_geometry,
    to_warped,
)
from .report_store import RunRecord, load, make_record, save
from .verify import CheckResult, CheckStatus, VerificationReport, run_battery

__all__ = [
    "__version__",
    "CurvlabError",
    "NonConvergent",
    "DomainEdge",
    "NoBracket",
    "WrongKind",
    "OutOfRange",
    "GridTooCoarse",
    "ProfileDataError",
    "ReportStoreError",
    "Tolerance",
    "QuadratureResult",
    "integrate",
    "find_root",
    "ProfileKind",
    "MetricProfile",
    "ConformalProfile",
    "euclidean",
    "euclidean_conformal",
    "schwarzschild",
    "mollified_schwarzschild",
    "perturbed_schwarzschild",
    "to_warped",
    "scalar_curvature",
    "sphere_geometry",
    "profile_from_csv",
    "PotentialSolution",
    "LevelSetSample",
    "solve",
    "levels",
    "default_t_grid",
    "FunctionalSeries",
    "build_series",
    "write_series_csv",
    "CheckStatus",
    "CheckResult",
    "VerificationReport",
    "run_battery",
    "MassReport",
    "adm_surface",
    "mass_from_volume",
    "mass_report",
    "RunRecord",
    "make_record",
    "save",
    "load",
]
