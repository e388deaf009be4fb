"""curvlab: level-set curvature comparison laboratory.

Solves capacitary-potential and Green's-function problems on rotationally
symmetric 3-manifolds, evaluates the monotone level-set functionals, runs
the sharp area/volume/capacity comparison battery with Schwarzschild and
Euclidean equality oracles, and computes ADM mass by two independent
estimators.

``import curvlab`` loads no submodule: each exported name is resolved on
first access (``curvlab.solve``, ``from curvlab import solve``) by importing
the submodule ``_EXPORTS`` names for it.
"""

__version__ = "0.2.0"

# Each exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "CurvlabError",
            "NonConvergent",
            "DomainEdge",
            "NoBracket",
            "WrongKind",
            "OutOfRange",
            "GridTooCoarse",
            "ProfileDataError",
            "ReportStoreError",
        ),
        "errors",
    ),
    **dict.fromkeys(("Tolerance", "QuadratureResult", "integrate", "find_root"), "numerics"),
    **dict.fromkeys(
        (
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
        ),
        "profile",
    ),
    **dict.fromkeys(("PotentialSolution", "LevelSetSample", "solve", "levels", "default_t_grid"), "potential"),
    **dict.fromkeys(("FunctionalSeries", "build_series", "write_series_csv"), "functionals"),
    **dict.fromkeys(("CheckStatus", "CheckResult", "VerificationReport", "run_battery"), "verify"),
    **dict.fromkeys(("MassReport", "adm_surface", "mass_from_volume", "mass_report"), "mass"),
    **dict.fromkeys(("RunRecord", "make_record", "save", "load"), "report_store"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    # Only for a name not yet bound here; any other name is an AttributeError,
    # so `from curvlab import cli` imports the submodule.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
