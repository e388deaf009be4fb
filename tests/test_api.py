"""The public surface: every exported name resolves; the per-level
functional accessors stay gone, and so do functional_rows, whose per-level
records gave way to the columns of functional_columns, and the one-level
route (level, grad_value, level_integrals, functional_row, LevelParam):
levels are read as columns only, a single level as a column of one; so do the helpers
only tests called, which live in the tests now; the only dataclasses are
the three records that validate themselves; a MetricProfile's fields are its two readers, not its
views, and no link to a conformal profile; a solution says it has no
boundary by its capacity alone; and mass_report takes one model."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import curvlab
from curvlab.mass import mass_report
from curvlab.potential import PotentialSolution
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

