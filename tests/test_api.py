"""The public surface: every exported name resolves; the per-level
functional accessors stay gone, and so do functional_rows, whose per-level
records gave way to the columns of functional_columns, and the one-level
route (level, grad_value, level_integrals, functional_row, LevelParam):
levels are read as columns only, a single level as a column of one; so do the helpers
only tests called, which live in the tests now; the only dataclasses are
the three records that validate themselves; a MetricProfile's fields are its two readers, not its
views, and no link to a conformal profile; a solution says it has no
boundary by its capacity alone; mass_report and adm_surface take one model;
a Tolerance is its (rel, abs) pair; the record diff, which no command
reached, is gone with the error only it raised; and so are what only tests
read: the one-level u view, the flux helper, the mass sample knob and the
1/|grad u| column of the level-set geometry."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import curvlab
from curvlab.mass import adm_surface, mass_from_volume, mass_report
from curvlab.numerics import Tolerance
from curvlab.potential import LevelSetSample, PotentialSolution
from curvlab.profile import MetricProfile

MODULES = ["curvlab", *(f"curvlab.{m.name}" for m in pkgutil.iter_modules(curvlab.__path__) if m.name != "__main__")]

DELETED = (
    "fhat",
    "g_func",
    "g_prime",
    "f_func",
    "f_prime_analytic",
    "a1",
    "a1_prime",
    "a1_tilde",
    "a_growth",
    "b1",
    "boundary_deficit",
    "volume_sublevel",
    "coarea_volume",
    "differentiate",
    "volume_to_coordinate",
    "conformal_scalar_curvature",
    "expansion_residuals",
    "SolutionKind",
    "functional_rows",
    "level",
    "grad_value",
    "level_integrals",
    "functional_row",
    "LevelParam",
    "diff",
    "SchemaMismatch",
    "default_surface_radii",
    "level_value",
    "adm_flux_at",
    "default_volume_samples",
)

# They validate in __post_init__, and the profiles are copied with
# dataclasses.replace.  Every other record is a NamedTuple or a __slots__
# class, which costs a fraction of a dataclass to create at import.
DATACLASSES = {"Tolerance", "MetricProfile", "ConformalProfile"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # curvlab.errors exports by class name alone
    assert len(set(exported)) == len(exported)
    for attr in exported:
        assert hasattr(module, attr), f"{name}.{attr}"


@pytest.mark.parametrize("name", MODULES)
def test_per_level_accessors_are_gone(name):
    module = importlib.import_module(name)
    assert not [attr for attr in DELETED if hasattr(module, attr)]


def test_only_self_validating_records_are_dataclasses():
    found = set()
    for name in MODULES:
        for cls in vars(importlib.import_module(name)).values():
            if inspect.isclass(cls) and cls.__module__.startswith("curvlab") and dataclasses.is_dataclass(cls):
                found.add(cls.__qualname__)
    assert found == DATACLASSES


def test_a_metric_profile_is_two_readers():
    # f and ds_dx read metric, df_ds and d2f_ds2 read jet: none is a field.
    assert [f.name for f in dataclasses.fields(MetricProfile)] == [
        "label",
        "kind",
        "x_min",
        "metric",
        "jet",
        "breakpoints",
        "asymptotically_flat",
        "assume_nonnegative_R",
    ]


def test_a_solution_has_no_kind_field():
    # capacity is None exactly on a boundaryless solution: that is the one signal.
    assert PotentialSolution.__slots__ == (
        "profile",
        "c_norm",
        "capacity",
        "grad_vanishes_at_infinity",
        "_tail",
        "_volume",
    )


def test_mass_report_takes_the_conformal_profile_alone():
    assert list(inspect.signature(mass_report).parameters) == ["c"]


def test_mass_from_volume_takes_the_solution_alone():
    # Its samples are fixed; no t_samples knob.
    assert list(inspect.signature(mass_from_volume).parameters) == ["sol"]


def test_a_level_set_sample_carries_no_inverse_gradient_column():
    # The coarea integrand forms 4 pi f^2/|grad u| itself; no command read the column.
    assert LevelSetSample._fields == (
        "t",
        "s",
        "u",
        "area",
        "grad",
        "mean_curvature",
        "scalar_R",
        "int_grad_sq",
        "int_grad_H",
    )


def test_adm_surface_takes_the_conformal_profile_alone():
    assert list(inspect.signature(adm_surface).parameters) == ["c"]


def test_a_tolerance_is_its_relative_and_absolute_targets():
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["rel", "abs"]
